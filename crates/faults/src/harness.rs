//! The chaos harness: drives one device through a fault plan and
//! recovers it.
//!
//! A [`ChaosSession`] runs a [`FaultPlan`] against a stock pipeline and
//! exercises every recovery path the device has:
//!
//! * **Fabric faults** (rogue MMIO words, and faults targeting slots
//!   the current pipeline does not have) are repaired *in place*: the
//!   harness clears the switch matrix and reprograms the captured legal
//!   words through the ordinary MMIO path. No frames are lost. Link
//!   degradations only charge stall cycles and need no repair.
//! * **Radio losses** ride the ARQ link: drops and CRC-rejected frames
//!   retransmit with exponential backoff; exhausted retries mark the
//!   session degraded rather than silently losing data.
//! * **Brownouts** engage the [`DegradedSupervisor`]: when the shrunken
//!   budget cannot fit the primary pipeline, the device swaps to its
//!   registered low-power fallback through the reprogramming path and
//!   restores the primary once the envelope recovers.
//!
//! The verdict is strict: a session is [`Outcome::Recovered`] only if
//! its final outputs are byte-identical to a fault-free reference run;
//! any divergence without a degraded marker is an undetected corruption
//! and reported as [`Outcome::Dead`].

use std::sync::Arc;

use halo_core::runtime::{FaultAction, RuntimeError};
use halo_core::{
    ArqConfig, ArqCounters, ArqError, ArqLink, HaloConfig, HaloSystem, LossyChannel, SystemError,
    Task,
};
use halo_noc::Fabric;
use halo_signal::{Recording, RecordingConfig, RegionProfile};
use halo_telemetry::{HealthConfig, HealthMonitor, Recorder};

use crate::degraded::{DegradedSupervisor, SupervisorAction};
use crate::plan::{FaultPlan, FaultPlanConfig};

/// How a chaos session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every fault was recovered and the final outputs are byte-identical
    /// to the fault-free reference.
    Recovered,
    /// The session survived but carries a degraded marker: it ran the
    /// fallback pipeline during a brownout, or the radio link exhausted
    /// its retries.
    Degraded,
    /// The session could not recover, or its outputs silently diverged
    /// from the reference (an undetected corruption — never acceptable).
    Dead,
}

impl Outcome {
    /// Stable lower-case label for triage output.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Recovered => "recovered",
            Outcome::Degraded => "degraded",
            Outcome::Dead => "dead",
        }
    }
}

/// One in-place fabric repair: the switch matrix reprogrammed with the
/// running pipeline's legal words, redoing no frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Global frame at which the fault surfaced.
    pub frame: u64,
    /// The detected fault's class label.
    pub kind: &'static str,
}

/// Configuration for one chaos session.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The primary pipeline under test.
    pub task: Task,
    /// Low-power fallback used under brownout.
    pub fallback: Task,
    /// Electrode channels.
    pub channels: usize,
    /// Stream length in milliseconds of biological time.
    pub duration_ms: usize,
    /// Seed of the synthetic recording.
    pub recording_seed: u64,
    /// Frames per scheduler batch.
    pub batch_frames: usize,
    /// Whether the runtime's quiet-frame block dispatch is on.
    pub block_dispatch: bool,
    /// Raw bytes per compression block (smaller blocks frame radio
    /// traffic earlier, exercising the ARQ link mid-stream).
    pub block_bytes: usize,
    /// The fault plan parameters (`frames` and `pe_slots` are filled in
    /// by the harness from the recording and pipeline).
    pub plan: FaultPlanConfig,
    /// ARQ parameters for the radio link.
    pub arq: ArqConfig,
    /// Flight-recorder ring capacity.
    pub event_capacity: usize,
}

impl ChaosConfig {
    /// Sensible defaults for `task`: 4 channels, 40 ms stream, spike
    /// detection as the low-power fallback.
    pub fn new(task: Task) -> Self {
        let fallback = if task == Task::SpikeDetectNeo {
            Task::CompressLz4
        } else {
            Task::SpikeDetectNeo
        };
        Self {
            task,
            fallback,
            channels: 4,
            duration_ms: 40,
            recording_seed: 0xBC1,
            batch_frames: 32,
            block_dispatch: true,
            block_bytes: 1 << 14,
            plan: FaultPlanConfig::default(),
            arq: ArqConfig::default(),
            event_capacity: 256,
        }
    }
}

/// The result of one chaos session.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The primary pipeline.
    pub task: Task,
    /// The verdict.
    pub outcome: Outcome,
    /// Frames in the stream.
    pub frames: u64,
    /// Faults the harness actually injected.
    pub faults_injected: usize,
    /// Injected faults that raised a typed error (the rest are link
    /// degradations, which only charge stall cycles).
    pub faults_detected: usize,
    /// Every recovery performed, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Completed fallback episodes.
    pub degraded_episodes: u64,
    /// Frames spent in the fallback pipeline.
    pub degraded_frames: u64,
    /// Brownout windows whose shrunken budget was violated.
    pub brownout_violations: u64,
    /// Radio link counters (retries, giveups, CRC rejects, ...).
    pub arq: ArqCounters,
    /// Radio payload bytes offered to the link.
    pub radio_bytes: u64,
    /// Fingerprint of the injected plan (replay proof).
    pub plan_fingerprint: u64,
    /// Why the session is degraded or dead, if it is.
    pub reason: Option<String>,
    /// The flight recorder's post-mortem JSON, if one was latched.
    pub postmortem: Option<String>,
}

/// The class label of a runtime error the fabric repair recovers, or
/// `None` for one that is not a modeled fault.
fn fabric_fault(e: &RuntimeError) -> Option<&'static str> {
    match e {
        RuntimeError::Fabric(_) => Some("rogue_mmio"),
        RuntimeError::NoSuchNode(_) => Some("no_such_node"),
        _ => None,
    }
}

/// One seeded chaos run. Build with [`ChaosSession::new`], execute with
/// [`ChaosSession::run`]; the whole run is deterministic in its config.
#[derive(Debug, Clone)]
pub struct ChaosSession {
    config: ChaosConfig,
}

impl ChaosSession {
    /// A session for `config`.
    pub fn new(config: ChaosConfig) -> Self {
        Self { config }
    }

    /// The session's configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Runs the session to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] only for *setup* failures (the reference
    /// run or initial configuration); faults during the chaos run are
    /// recovered or reported through the [`ChaosReport`].
    pub fn run(&self) -> Result<ChaosReport, SystemError> {
        let cfg = &self.config;
        let halo_config = HaloConfig::small_test(cfg.channels).block_bytes(cfg.block_bytes);
        let recording = RecordingConfig::new(RegionProfile::arm())
            .channels(cfg.channels)
            .duration_ms(cfg.duration_ms)
            .generate(cfg.recording_seed);
        let total_frames = recording.samples_per_channel() as u64;

        let mut plan_cfg = cfg.plan.clone();
        plan_cfg.frames = total_frames;
        plan_cfg.pe_slots = cfg.task.pe_kinds().len() as u8;
        let mut plan = FaultPlan::generate(&plan_cfg);

        // Fault-free reference: the recovered session must reproduce
        // these outputs byte-for-byte.
        let mut reference_sys = HaloSystem::new(cfg.task, halo_config.clone())?;
        reference_sys.set_block_dispatch(cfg.block_dispatch);
        let reference = reference_sys.process(&recording)?;
        let primary_mw = reference_sys.power_report(&reference).device_mw();

        // Steady draw of the fallback, for brownout supervision.
        let fallback_mw = if plan.brownouts.is_empty() {
            0.0
        } else {
            let mut sys = HaloSystem::new(cfg.fallback, halo_config.clone())?;
            let metrics = sys.process(&recording)?;
            sys.power_report(&metrics).device_mw()
        };
        for w in &mut plan.brownouts {
            if w.budget_mw == 0.0 {
                // Auto budget: between the two pipelines' steady draw,
                // so the brownout forces the fallback and the fallback
                // fits.
                w.budget_mw = (primary_mw + fallback_mw) / 2.0;
            }
        }
        let plan_fingerprint = plan.fingerprint();
        let radio = plan.radio;

        let recorder = Arc::new(Recorder::new(cfg.event_capacity));
        let monitor = Arc::new(HealthMonitor::new(recorder, HealthConfig::default()));
        let mut system = HaloSystem::new(cfg.task, halo_config)?;
        system.attach_health(monitor.clone());
        system.set_block_dispatch(cfg.block_dispatch);

        let mut engine = Engine {
            cfg,
            recording: &recording,
            total_frames,
            injected: 0,
            plan,
            legal_words: system.runtime().fabric().encoded_routes(),
            system,
            monitor,
            link: ArqLink::new(
                cfg.arq,
                LossyChannel::new(radio.seed, radio.drop_permille, radio.corrupt_permille, 1),
            ),
            supervisor: DegradedSupervisor::new(cfg.task, cfg.fallback),
            frame_base: 0,
            radio_offset: 0,
            offered: Vec::new(),
            delivered: Vec::new(),
            recoveries: Vec::new(),
            faults_detected: 0,
            dead: None,
            radio_lost: false,
            primary_mw,
            fallback_mw,
        };
        let metrics = engine.drive();
        Ok(engine.verdict(metrics, &reference, plan_fingerprint))
    }
}

/// Mutable state of one running chaos session.
struct Engine<'a> {
    cfg: &'a ChaosConfig,
    recording: &'a Recording,
    total_frames: u64,
    /// Plan faults injected so far: the schedule is sorted by frame, so
    /// `plan.schedule[injected..]` are the ones still to come.
    injected: usize,
    plan: FaultPlan,
    /// Switch words of the currently-running pipeline, for in-place
    /// fabric repair.
    legal_words: Vec<u32>,
    system: HaloSystem,
    monitor: Arc<HealthMonitor>,
    link: ArqLink<LossyChannel>,
    supervisor: DegradedSupervisor,
    /// Global frames completed before the current runtime epoch
    /// (non-zero after degraded-mode swaps).
    frame_base: u64,
    /// Bytes of the current epoch's radio stream already offered.
    radio_offset: usize,
    offered: Vec<u8>,
    delivered: Vec<u8>,
    recoveries: Vec<RecoveryEvent>,
    faults_detected: usize,
    dead: Option<String>,
    radio_lost: bool,
    primary_mw: f64,
    fallback_mw: f64,
}

impl Engine<'_> {
    fn global_frame(&self) -> u64 {
        self.frame_base + self.system.runtime().frames()
    }

    /// The main streaming loop, then finalize-with-recovery. Returns
    /// the final metrics unless the session died.
    fn drive(&mut self) -> Option<halo_core::TaskMetrics> {
        let recovery_budget = 2 * self.plan.schedule.len() + 8;
        while self.dead.is_none() {
            let global = self.global_frame();
            if global >= self.total_frames {
                break;
            }
            self.supervise(global);
            if self.dead.is_some() {
                break;
            }
            let end = (global + self.cfg.batch_frames as u64).min(self.total_frames);
            match self.push_batch(global, end) {
                Ok(()) => self.pump_radio(end),
                Err(SystemError::Runtime(e)) => {
                    self.recover(e);
                    if self.recoveries.len() > recovery_budget {
                        self.dead = Some("recovery loop did not converge".to_string());
                    }
                }
                Err(other) => self.dead = Some(other.to_string()),
            }
        }
        let metrics = self.finalize_with_recovery();
        self.flush_radio(metrics.as_ref());
        self.supervisor.finish(self.total_frames);
        metrics
    }

    /// Streams frames `at..end`, split at every plan fault due in that
    /// range: each fault is injected at its own frame, before that
    /// frame's samples. Stops at the first error. An injected fault's
    /// error leaves its frame unconsumed and its faults counted as
    /// injected, so the loop restarts at that frame once it recovers.
    fn push_batch(&mut self, mut at: u64, end: u64) -> Result<(), SystemError> {
        let channels = self.cfg.channels;
        while at < end {
            let due: Vec<FaultAction> = self.plan.schedule[self.injected..]
                .iter()
                .take_while(|f| f.frame <= at)
                .map(|f| f.action)
                .collect();
            self.injected += due.len();
            self.system.inject_faults(&due)?;
            let stop = self
                .plan
                .schedule
                .get(self.injected)
                .map_or(end, |f| f.frame.min(end));
            let samples =
                &self.recording.samples()[at as usize * channels..stop as usize * channels];
            self.system.push_block(samples)?;
            at = stop;
        }
        Ok(())
    }

    /// Degraded-mode supervision at a batch boundary.
    fn supervise(&mut self, global: u64) {
        let draw = if self.system.task() == self.cfg.task {
            self.primary_mw
        } else {
            self.fallback_mw
        };
        let window = self
            .plan
            .brownouts
            .iter()
            .find(|w| w.contains(global))
            .copied();
        match self.supervisor.evaluate(global, draw, window.as_ref()) {
            SupervisorAction::Stay => {}
            SupervisorAction::EnterFallback => self.swap_pipeline(self.cfg.fallback, global, true),
            SupervisorAction::RestorePrimary => self.swap_pipeline(self.cfg.task, global, false),
        }
    }

    /// Swaps the running pipeline through the ordinary reprogramming
    /// path.
    fn swap_pipeline(&mut self, task: Task, global: u64, entering: bool) {
        if let Err(e) = self.system.reconfigure(task) {
            self.dead = Some(format!("pipeline swap to {task:?} failed: {e}"));
            return;
        }
        self.frame_base = global;
        self.radio_offset = 0;
        self.legal_words = self.system.runtime().fabric().encoded_routes();
        if entering {
            self.supervisor.note_entered(global);
        } else {
            self.supervisor.note_restored(global);
        }
    }

    /// Recovers from a detected fault in place: tears down whatever the
    /// rogue write left behind and reprograms the captured legal words.
    /// The error fired before the frame's samples were ingested, so the
    /// stream resumes at that frame.
    fn recover(&mut self, e: RuntimeError) {
        let fault_frame = self.global_frame();
        self.faults_detected += 1;
        let Some(kind) = fabric_fault(&e) else {
            self.dead = Some(e.to_string());
            return;
        };
        let words = self.legal_words.clone();
        let fabric = self.system.runtime_mut().fabric_mut();
        let repaired = fabric
            .program(Fabric::WORD_CLEAR)
            .and_then(|()| words.iter().try_for_each(|&w| fabric.program(w)));
        match repaired {
            Ok(()) => self.recoveries.push(RecoveryEvent {
                frame: fault_frame,
                kind,
            }),
            Err(fe) => self.dead = Some(format!("fabric repair failed: {fe}")),
        }
    }

    /// Offers the runtime's new radio bytes to the ARQ link and advances
    /// it.
    fn pump_radio(&mut self, now: u64) {
        let stream = self.system.runtime().radio_stream();
        let payload = stream.get(self.radio_offset..).unwrap_or_default().to_vec();
        self.offer_radio(now, payload);
    }

    /// Offers `payload`, the radio bytes after `radio_offset`, to the ARQ
    /// link and advances it.
    fn offer_radio(&mut self, now: u64, payload: Vec<u8>) {
        if !payload.is_empty() {
            self.radio_offset += payload.len();
            self.offered.extend_from_slice(&payload);
            match self.link.offer(now, payload) {
                Ok(_) => {}
                Err(ArqError::QueueFull { .. }) => {
                    // The bounded queue is full: drain it, then this
                    // payload is unrecoverable — counted, never silent.
                    self.link.flush(now);
                    self.radio_lost = true;
                }
            }
        }
        self.link.tick(now);
        for (_seq, payload) in self.link.take_delivered() {
            self.delivered.extend_from_slice(&payload);
        }
    }

    /// End of stream: offer the tail, then retransmit until the queue
    /// drains or gives up. A clean finalize moved the stream into its
    /// `metrics`; after a failed one the runtime still holds it.
    fn flush_radio(&mut self, metrics: Option<&halo_core::TaskMetrics>) {
        let stream = match metrics {
            Some(m) => &m.radio_stream[..],
            None => self.system.runtime().radio_stream(),
        };
        let tail = stream.get(self.radio_offset..).unwrap_or_default().to_vec();
        self.offer_radio(self.total_frames, tail);
        self.link.flush(self.total_frames);
        for (_seq, payload) in self.link.take_delivered() {
            self.delivered.extend_from_slice(&payload);
        }
    }

    /// Finalizes the stream, recovering from faults that surface while
    /// draining (bounded attempts).
    fn finalize_with_recovery(&mut self) -> Option<halo_core::TaskMetrics> {
        for _ in 0..4 {
            if self.dead.is_some() {
                return None;
            }
            match self.system.finalize() {
                Ok(metrics) => return Some(metrics),
                Err(SystemError::Runtime(e)) => self.recover(e),
                Err(other) => self.dead = Some(other.to_string()),
            }
        }
        if self.dead.is_none() {
            self.dead = Some("finalize did not converge".to_string());
        }
        None
    }

    /// The strict verdict (see module docs).
    fn verdict(
        &mut self,
        metrics: Option<halo_core::TaskMetrics>,
        reference: &halo_core::TaskMetrics,
        plan_fingerprint: u64,
    ) -> ChaosReport {
        let arq = self.link.counters();
        let (outcome, reason) = match (&self.dead, metrics.as_ref()) {
            (Some(reason), _) => (Outcome::Dead, Some(reason.clone())),
            (None, None) => (Outcome::Dead, Some("no final metrics".to_string())),
            (None, Some(m)) => {
                if self.supervisor.ever_degraded() {
                    (Outcome::Degraded, Some("brownout fallback".to_string()))
                } else if arq.giveups > 0 || self.radio_lost {
                    (
                        Outcome::Degraded,
                        Some("radio link exhausted retries".to_string()),
                    )
                } else if self.delivered != self.offered {
                    (
                        Outcome::Dead,
                        Some("ARQ delivery diverged without giveups".to_string()),
                    )
                } else if m.radio_stream == reference.radio_stream
                    && m.detections == reference.detections
                {
                    (Outcome::Recovered, None)
                } else {
                    (
                        Outcome::Dead,
                        Some("undetected corruption: outputs diverged from reference".to_string()),
                    )
                }
            }
        };
        ChaosReport {
            task: self.cfg.task,
            outcome,
            frames: self.total_frames,
            faults_injected: self.injected,
            faults_detected: self.faults_detected,
            recoveries: std::mem::take(&mut self.recoveries),
            degraded_episodes: self.supervisor.episodes(),
            degraded_frames: self.supervisor.degraded_frames(),
            brownout_violations: self.supervisor.violations(),
            arq,
            radio_bytes: self.offered.len() as u64,
            plan_fingerprint,
            reason,
            postmortem: self.monitor.postmortem(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config(task: Task) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(task);
        cfg.block_bytes = 512;
        cfg.plan.rogue_mmio = 2;
        cfg.plan.link_faults = 1;
        cfg.plan.radio_drop_permille = 250;
        cfg.plan.radio_corrupt_permille = 120;
        cfg
    }

    #[test]
    fn compression_pipeline_recovers_from_full_plan() {
        let report = ChaosSession::new(base_config(Task::CompressLzma))
            .run()
            .unwrap();
        assert_eq!(
            report.outcome,
            Outcome::Recovered,
            "reason: {:?}",
            report.reason
        );
        assert_eq!(report.faults_injected, 3);
        // Both rogue MMIO words are detected and repaired in place; the
        // link degradation only charges stall cycles.
        assert_eq!(report.faults_detected, 2, "report: {report:?}");
        assert_eq!(report.recoveries.len(), 2, "report: {report:?}");
        assert!(report.arq.retries > 0, "lossy channel must retry");
        assert_eq!(report.arq.giveups, 0);
        assert!(report.postmortem.is_some(), "faults latch a post-mortem");
    }

    #[test]
    fn chaos_session_is_deterministic() {
        let cfg = base_config(Task::CompressLz4);
        let a = ChaosSession::new(cfg.clone()).run().unwrap();
        let b = ChaosSession::new(cfg).run().unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.plan_fingerprint, b.plan_fingerprint);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.arq, b.arq);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.faults_detected, b.faults_detected);
    }

    #[test]
    fn brownout_forces_fallback_and_marks_degraded() {
        let mut cfg = base_config(Task::SeizurePrediction);
        cfg.plan.rogue_mmio = 0;
        cfg.plan.link_faults = 0;
        cfg.plan.radio_drop_permille = 0;
        cfg.plan.radio_corrupt_permille = 0;
        cfg.plan.brownouts = 1;
        cfg.plan.brownout_frames = 400;
        cfg.duration_ms = 60;
        let report = ChaosSession::new(cfg).run().unwrap();
        assert_eq!(
            report.outcome,
            Outcome::Degraded,
            "reason: {:?}",
            report.reason
        );
        assert!(report.degraded_episodes >= 1);
        assert!(report.degraded_frames > 0);
        assert!(report.brownout_violations >= 1);
    }

    #[test]
    fn faultless_plan_is_recovered_with_clean_counters() {
        let mut cfg = ChaosConfig::new(Task::EncryptRaw);
        cfg.plan.rogue_mmio = 0;
        cfg.plan.link_faults = 0;
        cfg.plan.radio_drop_permille = 0;
        cfg.plan.radio_corrupt_permille = 0;
        let report = ChaosSession::new(cfg).run().unwrap();
        assert_eq!(report.outcome, Outcome::Recovered);
        assert!(report.recoveries.is_empty());
        assert_eq!(report.arq.retries, 0);
        assert_eq!(report.faults_injected, 0);
    }
}
