//! One patient session: spec, instrumented system, and final report.

use std::sync::Arc;

use halo_core::tasks::seizure;
use halo_core::{HaloConfig, HaloSystem, SystemError, Task, TaskMetrics};
use halo_kernels::svm::LinearSvm;
use halo_signal::{Recording, RecordingConfig, RegionProfile};
use halo_telemetry::{
    ContinuousConfig, ContinuousTelemetry, CycleProfile, HealthConfig, HealthMonitor, Recorder,
    Tracer,
};

use crate::exemplar::{Elector, ExemplarConfig};

/// Fleet-wide run parameters shared by every session.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet seed: decorrelates patient recordings and drives exemplar
    /// election. The same seed reproduces the same fleet bit-for-bit.
    pub seed: u64,
    /// Electrode channels per session.
    pub channels: usize,
    /// Stream length per session, in sample frames.
    pub frames_per_session: usize,
    /// Frames per scheduler quantum: how much one session streams before
    /// yielding its worker to another session.
    pub batch_frames: usize,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Registry shards for concurrent completion (power of two preferred).
    pub shards: usize,
    /// Per-session telemetry event-ring capacity.
    pub event_capacity: usize,
    /// Sample rate declared to each session's recorder, Hz.
    pub sample_rate_hz: u32,
    /// Safety envelope applied to every session's watchdog.
    pub health: HealthConfig,
    /// Exemplar-tracing election parameters.
    pub exemplar: ExemplarConfig,
    /// Continuous-telemetry layer (bounded tsdb + SLO burn-rate engine)
    /// installed in every session's watchdog; `None` runs sessions with
    /// the bare monitor.
    pub continuous: Option<ContinuousConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            seed: 0x48414c4f, // "HALO"
            channels: 8,
            frames_per_session: 600,
            batch_frames: 64,
            threads: 0,
            shards: 8,
            event_capacity: 4096,
            sample_rate_hz: 30_000,
            health: HealthConfig::default(),
            exemplar: ExemplarConfig::default(),
            continuous: Some(ContinuousConfig::default()),
        }
    }
}

impl FleetConfig {
    /// Sets the worker-thread count (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the scheduler quantum in frames.
    pub fn batch_frames(mut self, frames: usize) -> Self {
        self.batch_frames = frames.max(1);
        self
    }

    /// Sets the per-session stream length in frames.
    pub fn frames_per_session(mut self, frames: usize) -> Self {
        self.frames_per_session = frames.max(1);
        self
    }

    /// Sets the per-session power budget in milliwatts.
    pub fn budget_mw(mut self, mw: f64) -> Self {
        self.health.budget_mw = mw;
        self
    }

    /// Sets the fleet seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets (or clears) the continuous-telemetry layer configuration.
    pub fn continuous(mut self, continuous: Option<ContinuousConfig>) -> Self {
        self.continuous = continuous;
        self
    }
}

/// Everything needed to build one patient session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Stable session index; doubles as the `session` exposition label.
    pub id: u64,
    /// The pipeline this patient's device is configured into.
    pub task: Task,
    /// Seed for this patient's synthetic recording.
    pub patient_seed: u64,
    /// Electrode channels.
    pub channels: usize,
    /// Stream length in frames.
    pub frames: usize,
}

impl SessionSpec {
    /// `count` sessions round-robined over all eight paper pipelines,
    /// with per-patient seeds derived from the fleet seed.
    pub fn mixed(count: usize, config: &FleetConfig) -> Vec<SessionSpec> {
        let tasks = Task::all();
        (0..count as u64)
            .map(|id| SessionSpec {
                id,
                task: tasks[id as usize % tasks.len()],
                patient_seed: config.seed ^ (id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                channels: config.channels,
                frames: config.frames_per_session,
            })
            .collect()
    }

    /// `count` sessions all running the same pipeline.
    pub fn uniform(count: usize, task: Task, config: &FleetConfig) -> Vec<SessionSpec> {
        let mut specs = Self::mixed(count, config);
        for spec in &mut specs {
            spec.task = task;
        }
        specs
    }
}

/// Trains the SVM shared by every seizure-prediction session in the
/// fleet. One personalization pass is plenty for a synthetic fleet; real
/// deployments would key this per patient.
pub fn train_shared_svm(config: &FleetConfig) -> Result<LinearSvm, SystemError> {
    let halo = HaloConfig::small_test(config.channels).channels(config.channels);
    let window = halo.feature_window_frames();
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(config.channels)
        .samples(24 * window)
        .seizure_at(8 * window, 16 * window)
        .generate(config.seed ^ 0x5eed);
    seizure::train(&halo, &[&rec])
}

/// A fully built, instrumented session ready to be scheduled.
///
/// Owns the [`HaloSystem`] plus its observability stack (recorder,
/// watchdog, escalation-only tracer) and its pre-generated recording;
/// the scheduler drives it with [`FleetSession::step`] until done.
pub struct FleetSession {
    spec: SessionSpec,
    system: HaloSystem,
    monitor: Arc<HealthMonitor>,
    continuous: Option<Arc<ContinuousTelemetry>>,
    tracer: Arc<Tracer>,
    recording: Recording,
    frames_pushed: usize,
    elector: Option<Elector>,
    metrics: Option<TaskMetrics>,
    error: Option<String>,
    done: bool,
    device_mw: f64,
    processing_mw: f64,
}

impl FleetSession {
    /// Builds the session: generates the patient recording, configures
    /// the system into `spec.task`, and attaches a private recorder,
    /// health monitor, and (steady-state-disabled) tracer. Seizure
    /// sessions take the fleet-shared `svm`.
    pub fn build(
        spec: SessionSpec,
        fleet: &FleetConfig,
        svm: Option<&LinearSvm>,
    ) -> Result<FleetSession, SystemError> {
        let mut halo = HaloConfig::small_test(spec.channels).channels(spec.channels);
        if spec.task == Task::SeizurePrediction {
            if let Some(svm) = svm {
                halo = halo.with_svm(svm.clone());
            }
        }
        let window = halo.feature_window_frames();

        let mut rec = RecordingConfig::new(RegionProfile::arm())
            .channels(spec.channels)
            .samples(spec.frames);
        if spec.task.uses_stimulation() && spec.frames > 4 * window {
            // Give closed-loop pipelines something to detect.
            rec = rec.seizure_at(2 * window, spec.frames / 2);
        }
        let recording = rec.generate(spec.patient_seed);

        let recorder =
            Arc::new(Recorder::new(fleet.event_capacity).with_sample_rate_hz(fleet.sample_rate_hz));
        let monitor = Arc::new(HealthMonitor::new(recorder, fleet.health.clone()));
        // Steady-state sampling stays off; the fleet elector grants
        // forced credits when this session is the group exemplar.
        let tracer = Arc::new(Tracer::new(fleet.seed ^ spec.id, 0));

        let mut system = HaloSystem::new(spec.task, halo)?;
        let continuous = match &fleet.continuous {
            Some(config) => {
                let layer = Arc::new(ContinuousTelemetry::new(monitor.clone(), config.clone()));
                system.attach_continuous(layer.clone());
                Some(layer)
            }
            None => {
                system.attach_health(monitor.clone());
                None
            }
        };
        system.attach_tracing(tracer.clone());
        // Always-on profiling: attribution rides the deterministic cost
        // model, so the fleet rollup can merge per-session profiles into
        // one flamegraph regardless of worker count.
        system.attach_profile();

        let elector = Elector::new(fleet.seed, spec.id, &fleet.exemplar);
        Ok(FleetSession {
            spec,
            system,
            monitor,
            continuous,
            tracer,
            recording,
            frames_pushed: 0,
            elector,
            metrics: None,
            error: None,
            done: false,
            device_mw: 0.0,
            processing_mw: 0.0,
        })
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Streams up to `batch_frames` more frames. Returns `true` once the
    /// session has finished (successfully or not) and will make no more
    /// progress.
    pub fn step(&mut self, batch_frames: usize) -> bool {
        if self.done {
            return true;
        }
        let remaining = self.spec.frames - self.frames_pushed;
        let n = batch_frames.max(1).min(remaining);
        if n > 0 {
            if let Some(elector) = &mut self.elector {
                let credits = elector.credits(self.frames_pushed as u64, n as u64);
                if credits > 0 {
                    self.tracer.sampler().force_next(credits);
                }
            }
            let lo = self.frames_pushed * self.spec.channels;
            let hi = lo + n * self.spec.channels;
            match self.system.push_block(&self.recording.samples()[lo..hi]) {
                Ok(()) => self.frames_pushed += n,
                Err(e) => {
                    self.error = Some(e.to_string());
                    self.done = true;
                    return true;
                }
            }
        }
        if self.frames_pushed == self.spec.frames || self.monitor.tripped() {
            match self.system.finalize() {
                Ok(metrics) => {
                    let power = self.system.power_report(&metrics);
                    self.device_mw = power.device_mw();
                    self.processing_mw = power.processing_mw();
                    self.metrics = Some(metrics);
                }
                Err(e) => self.error = Some(e.to_string()),
            }
            self.done = true;
        }
        self.done
    }

    /// Consumes the finished session into its report.
    pub fn into_report(self) -> SessionReport {
        let profile = self.system.profile(&self.spec.id.to_string());
        SessionReport {
            spec: self.spec,
            frames_pushed: self.frames_pushed as u64,
            metrics: self.metrics,
            error: self.error,
            recorder: self.monitor.recorder().clone(),
            monitor: self.monitor,
            continuous: self.continuous,
            tracer: self.tracer,
            device_mw: self.device_mw,
            processing_mw: self.processing_mw,
            profile,
        }
    }
}

/// Outcome of one session: final metrics (or the error that ended it)
/// plus the live handles the fleet rollup aggregates from.
pub struct SessionReport {
    /// The spec the session was built from.
    pub spec: SessionSpec,
    /// Frames actually streamed.
    pub frames_pushed: u64,
    /// Final task metrics, when the stream finalized cleanly.
    pub metrics: Option<TaskMetrics>,
    /// The error that ended the session, if any.
    pub error: Option<String>,
    /// The session's private recorder.
    pub recorder: Arc<Recorder>,
    /// The session's watchdog (alerts, post-mortem).
    pub monitor: Arc<HealthMonitor>,
    /// The session's continuous-telemetry layer (recent window readings
    /// and SLO burn rates), when the fleet runs with one.
    pub continuous: Option<Arc<ContinuousTelemetry>>,
    /// The session's tracer (exemplar span trees).
    pub tracer: Arc<Tracer>,
    /// Modeled whole-device power, milliwatts.
    pub device_mw: f64,
    /// Modeled processing power (PEs + NoC + control), milliwatts.
    pub processing_mw: f64,
    /// The session's cycle/energy profile, rooted at the session id.
    pub profile: Option<CycleProfile>,
}

impl SessionReport {
    /// Whether the session completed its stream without error.
    pub fn completed(&self) -> bool {
        self.error.is_none() && self.metrics.is_some()
    }
}

impl std::fmt::Debug for SessionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionReport")
            .field("id", &self.spec.id)
            .field("task", &self.spec.task)
            .field("completed", &self.completed())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_session_matches_direct_process() {
        let fleet = FleetConfig::default().frames_per_session(400);
        let spec = SessionSpec {
            id: 0,
            task: Task::CompressLz4,
            patient_seed: 77,
            channels: 4,
            frames: 400,
        };

        let mut session = FleetSession::build(spec.clone(), &fleet, None).unwrap();
        while !session.step(64) {}
        let report = session.into_report();
        assert!(report.completed(), "error: {:?}", report.error);
        let batched = report.metrics.unwrap();

        let rec = RecordingConfig::new(RegionProfile::arm())
            .channels(4)
            .samples(400)
            .generate(77);
        let halo = HaloConfig::small_test(4).channels(4);
        let mut direct = HaloSystem::new(Task::CompressLz4, halo).unwrap();
        let reference = direct.process(&rec).unwrap();

        assert_eq!(batched.frames, reference.frames);
        assert_eq!(batched.radio_stream, reference.radio_stream);
        assert_eq!(batched.bus_bytes, reference.bus_bytes);
    }

    #[test]
    fn mixed_specs_cover_all_pipelines() {
        let fleet = FleetConfig::default();
        let specs = SessionSpec::mixed(16, &fleet);
        assert_eq!(specs.len(), 16);
        for task in Task::all() {
            assert_eq!(specs.iter().filter(|s| s.task == task).count(), 2);
        }
        // Distinct patients get distinct seeds.
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.patient_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }
}
