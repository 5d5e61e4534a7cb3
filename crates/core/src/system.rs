//! The assembled HALO device.

use std::sync::Arc;

use crate::config::HaloConfig;
use crate::controller::{Controller, ControllerError};
use crate::metrics::{PeActivity, StimEvent, TaskMetrics};
use crate::pipeline::{Pipeline, PipelineError};
use crate::power::PowerReport;
use crate::runtime::{FaultAction, Runtime, RuntimeError};
use crate::task::Task;
use halo_noc::Fabric;
use halo_signal::Recording;
use halo_telemetry::{
    AlertPolicy, ContinuousTelemetry, CycleProfile, Event, EventKind, HealthMonitor, NullSink,
    TelemetrySink, Tracer,
};

/// Errors raised while configuring or running the device.
#[derive(Debug)]
pub enum SystemError {
    /// The pipeline could not be constructed.
    Pipeline(PipelineError),
    /// The micro-controller failed to configure the device.
    Controller(ControllerError),
    /// Streaming failed.
    Runtime(RuntimeError),
    /// The recording geometry does not match the configuration.
    GeometryMismatch {
        /// Channels the device is configured for.
        expected: usize,
        /// Channels in the recording.
        got: usize,
    },
    /// A stimulation engine was configured beyond the §V-A electrode
    /// limit (the firmware asserts it; constructors reject it instead).
    StimChannels {
        /// Channels requested.
        got: usize,
        /// The hardware limit.
        max: usize,
    },
    /// The attached [`HealthMonitor`] runs under
    /// [`AlertPolicy::FailFast`] and a critical alert tripped it during
    /// the run; the post-mortem JSON is available from the monitor.
    Health {
        /// Name of the alert kind that tripped the monitor.
        alert: &'static str,
    },
    /// A calibration or training helper could not work with the supplied
    /// recording(s): an empty baseline, a recording without the episode
    /// classes it needs, or a single-class training set.
    Calibration {
        /// What the recording(s) were missing.
        what: String,
    },
    /// Seizure alerts were unrecoverably lost on the inter-device link:
    /// the ARQ layer exhausted its retries or the bounded send queue
    /// overflowed. Recoverable losses retransmit silently; *this* is the
    /// loss a closed-loop deployment must never ignore.
    AlertLoss {
        /// Alerts lost beyond recovery.
        lost: u64,
    },
    /// The stream already ended: [`HaloSystem::finalize`] ran, so the
    /// device takes no more samples and has no run left to finalize.
    /// [`HaloSystem::reconfigure`] starts a new stream.
    Finished,
}

impl From<PipelineError> for SystemError {
    fn from(e: PipelineError) -> Self {
        Self::Pipeline(e)
    }
}

impl From<ControllerError> for SystemError {
    fn from(e: ControllerError) -> Self {
        Self::Controller(e)
    }
}

impl From<RuntimeError> for SystemError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Pipeline(e) => write!(f, "{e}"),
            Self::Controller(e) => write!(f, "{e}"),
            Self::Runtime(e) => write!(f, "{e}"),
            Self::GeometryMismatch { expected, got } => {
                write!(f, "recording has {got} channels, device expects {expected}")
            }
            Self::StimChannels { got, max } => {
                write!(
                    f,
                    "{got} stimulation channels exceed the {max}-electrode limit"
                )
            }
            Self::Health { alert } => {
                write!(f, "health monitor tripped (fail-fast): {alert} alert")
            }
            Self::Calibration { what } => {
                write!(f, "calibration impossible: {what}")
            }
            Self::AlertLoss { lost } => {
                write!(
                    f,
                    "{lost} seizure alert(s) unrecoverably lost on the inter-device link"
                )
            }
            Self::Finished => write!(f, "the stream already ended at finalize"),
        }
    }
}

impl std::error::Error for SystemError {}

/// Brings `task` up: builds its pipeline, has the micro-controller's
/// firmware program the interconnect switches through MMIO, and returns a
/// runtime over the result with its switch count. The fabric accepts any
/// well-formed word, so a route off the installed array only surfaces in
/// [`Runtime::new`]'s validation (as an `Err`, never a runtime panic).
fn bring_up(
    task: Task,
    config: &HaloConfig,
    controller: &mut Controller,
) -> Result<(Runtime, usize), SystemError> {
    let pipeline = Pipeline::build(task, config)?;
    let mut fabric = Fabric::new();
    controller.program_switches(&mut fabric, &pipeline.routes)?;
    let switches = fabric.switch_count();
    let runtime = Runtime::new(
        pipeline.pes,
        fabric,
        pipeline.sources,
        pipeline.radio_from,
        pipeline.mcu_from,
    )?;
    Ok((runtime, switches))
}

/// A configured HALO device running one task.
///
/// Construction mirrors the hardware bring-up of §IV-E: the pipeline's
/// routes are handed to the RISC-V micro-controller, whose firmware
/// programs the interconnect switches through MMIO; the resulting fabric
/// is validated against the PE array before any data flows.
pub struct HaloSystem {
    task: Task,
    config: HaloConfig,
    controller: Controller,
    runtime: Runtime,
    switches: usize,
    sink: Arc<dyn TelemetrySink>,
    health: Option<Arc<HealthMonitor>>,
    tracer: Option<Arc<Tracer>>,
    /// Whether [`HaloSystem::attach_profile`] enabled profile reporting
    /// (kept across [`HaloSystem::reconfigure`]).
    profiled: bool,
    /// Batched quiet-frame dispatch, reapplied to every runtime
    /// [`HaloSystem::reconfigure`] brings up.
    block_dispatch: bool,
    /// Profiles snapshotted from retired runtimes at reconfiguration,
    /// merged into [`HaloSystem::profile`] reads.
    profile_history: Vec<CycleProfile>,
}

impl std::fmt::Debug for HaloSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HaloSystem")
            .field("task", &self.task)
            .field("switches", &self.switches)
            .finish()
    }
}

impl HaloSystem {
    /// Configures the device for `task`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the pipeline, firmware, or fabric
    /// validation fails.
    pub fn new(task: Task, config: HaloConfig) -> Result<Self, SystemError> {
        if config.stim_channels > crate::distributed::MAX_STIM_CHANNELS {
            return Err(SystemError::StimChannels {
                got: config.stim_channels,
                max: crate::distributed::MAX_STIM_CHANNELS,
            });
        }
        let mut controller = Controller::new();
        let (runtime, switches) = bring_up(task, &config, &mut controller)?;
        Ok(Self {
            task,
            config,
            controller,
            runtime,
            switches,
            sink: Arc::new(NullSink),
            health: None,
            tracer: None,
            profiled: false,
            block_dispatch: true,
            profile_history: Vec::new(),
        })
    }

    /// Attaches a telemetry sink to the whole device: the runtime (per-PE
    /// counters, NoC and power windows), the micro-controller (cycle and
    /// stimulation accounting), and the system itself (detections). The
    /// sampling window is one feature window of the current configuration.
    /// Attach before [`HaloSystem::process`]; pass an
    /// `Arc<halo_telemetry::Recorder>` to actually capture data.
    pub fn attach_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.runtime.attach_telemetry(
            sink.clone(),
            self.config.sample_rate_hz,
            self.config.feature_window_frames() as u64,
        );
        self.controller.attach_telemetry(sink.clone());
        if sink.enabled() {
            sink.event(Event {
                frame: self.runtime.frames(),
                kind: EventKind::Marker {
                    name: self.task.label(),
                },
            });
        }
        self.sink = sink;
        self.cross_wire();
    }

    /// Attaches a [`HealthMonitor`] as the device's telemetry sink and
    /// keeps a typed handle so [`HaloSystem::process`] can report runtime
    /// errors to its flight recorder and honor
    /// [`AlertPolicy::FailFast`]. If a tracer is attached (either order),
    /// the monitor gains the escalation hook: critical alerts force-sample
    /// the next frames and post-mortems carry assembled span trees.
    pub fn attach_health(&mut self, monitor: Arc<HealthMonitor>) {
        self.health = Some(monitor.clone());
        self.attach_telemetry(monitor);
    }

    /// The attached health monitor, if any.
    pub fn health(&self) -> Option<&Arc<HealthMonitor>> {
        self.health.as_ref()
    }

    /// Attaches the [`HealthMonitor`] a [`ContinuousTelemetry`] layer is
    /// installed in, exactly as [`HaloSystem::attach_health`] does. The
    /// watchdog that judges each window's power, closed-loop latency and
    /// radio throughput also records those readings into
    /// the layer's bounded time-series store and judges SLO error budgets
    /// over them, window by window as the runtime closes them.
    pub fn attach_continuous(&mut self, continuous: Arc<ContinuousTelemetry>) {
        self.attach_health(continuous.monitor().clone());
    }

    /// Attaches a causal tracer to the device: the runtime samples and
    /// tags frames, stimulation pulses are attributed back to the trace
    /// that detected them, and [`HaloSystem::process`] finalizes all open
    /// traces before returning. If a telemetry sink or health monitor is
    /// attached (either order), span events stream into it and critical
    /// alerts escalate the sampling rate.
    pub fn attach_tracing(&mut self, tracer: Arc<Tracer>) {
        self.runtime.attach_tracing(tracer.clone());
        self.tracer = Some(tracer);
        self.cross_wire();
    }

    /// Wires the attached instruments into one another, whichever order
    /// they were attached in: the tracer streams its span events into an
    /// enabled sink, and the health monitor escalates the tracer.
    fn cross_wire(&self) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        if self.sink.enabled() {
            tracer.set_sink(self.sink.clone());
        }
        if let Some(monitor) = &self.health {
            monitor.set_tracer(tracer.clone());
        }
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Enables cycle-profile reporting through [`HaloSystem::profile`]:
    /// hierarchical cycle/energy attribution (pipeline → PE → kernel
    /// phase) under the current task's label. The runtime charges phases
    /// on every run, so arming mid-stream still covers the whole stream.
    /// Survives [`HaloSystem::reconfigure`] — each retired runtime's
    /// profile is snapshotted and merged into [`HaloSystem::profile`]
    /// reads, so a multi-task session profiles every pipeline it ran.
    pub fn attach_profile(&mut self) {
        self.profiled = true;
    }

    /// The accumulated [`CycleProfile`] rooted at `device`, merging every
    /// reconfiguration epoch with the live runtime's attribution. `None`
    /// unless [`HaloSystem::attach_profile`] enabled reporting.
    pub fn profile(&self, device: &str) -> Option<CycleProfile> {
        if !self.profiled {
            return None;
        }
        let mut out = CycleProfile::new(device);
        for epoch in &self.profile_history {
            out.merge(epoch);
        }
        out.merge(&self.runtime_profile(device));
        Some(out)
    }

    /// The live runtime's profile, rooted at `device`.
    fn runtime_profile(&self, device: &str) -> CycleProfile {
        self.runtime
            .profile(device, self.task.label(), self.config.sample_rate_hz)
    }

    /// Enables or disables the runtime's batched quiet-frame dispatch
    /// (on by default) — see [`Runtime::set_block_dispatch`]. The setting
    /// carries across [`HaloSystem::reconfigure`].
    pub fn set_block_dispatch(&mut self, on: bool) {
        self.block_dispatch = on;
        self.runtime.set_block_dispatch(on);
    }

    /// The running task.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Reconfigures the device to a different task at runtime — the
    /// doctor/technician workflow of §IV ("HALO can be configured … at
    /// runtime into one of eight distinct pipelines"). The same
    /// micro-controller tears down the old routes and programs the new
    /// ones; its cycle counters accumulate across reconfigurations.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the new pipeline or firmware fails; on
    /// error the device is left unconfigured and must be reconfigured
    /// again before use.
    pub fn reconfigure(&mut self, task: Task) -> Result<(), SystemError> {
        // The retiring runtime's open window goes to the sink first, so
        // its totals cover every frame streamed before the switch.
        self.runtime.close_window();
        // Bank the retiring runtime's attribution before it is dropped;
        // the device root is applied at read time, so the placeholder
        // here never surfaces.
        if self.profiled {
            let epoch = self.runtime_profile("");
            self.profile_history.push(epoch);
        }
        let (runtime, switches) = bring_up(task, &self.config, &mut self.controller)?;
        self.runtime = runtime;
        self.switches = switches;
        self.task = task;
        // The new runtime starts bare: re-attach the telemetry (which also
        // emits a task marker for the trace), the causal tracer, which
        // keeps accumulating across reconfigurations, and the dispatch mode.
        if self.sink.enabled() {
            self.attach_telemetry(self.sink.clone());
        }
        if let Some(tracer) = self.tracer.clone() {
            self.attach_tracing(tracer);
        }
        self.runtime.set_block_dispatch(self.block_dispatch);
        Ok(())
    }

    /// The device configuration.
    pub fn config(&self) -> &HaloConfig {
        &self.config
    }

    /// Streams a recording through the pipeline and collects metrics.
    ///
    /// Closed-loop tasks invoke the stimulation handler (real RV32
    /// firmware) for each positive detection, with a one-feature-window
    /// refractory period.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on geometry mismatch or streaming failure.
    pub fn process(&mut self, recording: &Recording) -> Result<TaskMetrics, SystemError> {
        if recording.channels() != self.config.channels {
            return Err(SystemError::GeometryMismatch {
                expected: self.config.channels,
                got: recording.channels(),
            });
        }
        self.push_block(recording.samples())?;
        self.finalize()
    }

    /// Streams one block of frame-major samples (`channels` samples per
    /// frame) through the pipeline without ending the stream — the
    /// incremental half of [`HaloSystem::process`]. A fleet scheduler
    /// interleaves batches from many devices this way, calling
    /// [`HaloSystem::finalize`] once per device when its stream ends.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Runtime`] on a streaming failure (also
    /// reported to the attached health monitor's flight recorder), and
    /// [`SystemError::Finished`] after [`HaloSystem::finalize`].
    pub fn push_block(&mut self, samples: &[i16]) -> Result<(), SystemError> {
        if self.runtime.finished() {
            return Err(SystemError::Finished);
        }
        let result = self.runtime.push_block(samples, self.config.channels);
        self.report(result)
    }

    /// Injects `faults` at the current frame, before its samples are
    /// ingested: every action is applied and reported to the telemetry
    /// sink as one [`EventKind::Fault`], in order, even after one has
    /// failed, so a post-mortem latched by the first error lists all of
    /// them. The chaos harness decides which faults are due when.
    ///
    /// # Errors
    ///
    /// Returns the first error an action raised as [`SystemError::Runtime`]
    /// (also reported to the attached health monitor's flight recorder),
    /// and [`SystemError::Finished`], without applying anything, after
    /// [`HaloSystem::finalize`].
    pub fn inject_faults(&mut self, faults: &[FaultAction]) -> Result<(), SystemError> {
        if self.runtime.finished() {
            return Err(SystemError::Finished);
        }
        let frame = self.runtime.frames();
        let mut first = Ok(());
        for action in faults {
            let applied = self.runtime.apply_fault(action);
            self.sink.event(Event {
                frame,
                kind: EventKind::Fault {
                    kind: action.name(),
                    slot: action.slot(),
                    detail: action.detail(),
                    detected: applied.is_err(),
                },
            });
            if first.is_ok() {
                first = applied;
            }
        }
        self.report(first)
    }

    /// Passes a streaming result through. An error first closes the
    /// runtime's open telemetry window, so the sink counts every frame up
    /// to the failure, then reaches the attached health monitor's flight
    /// recorder.
    fn report(&mut self, result: Result<(), RuntimeError>) -> Result<(), SystemError> {
        result.map_err(|e| {
            self.runtime.close_window();
            if let Some(monitor) = &self.health {
                monitor.note_runtime_error(&e.to_string(), self.runtime.frames());
            }
            e.into()
        })
    }

    /// Ends the stream and collects metrics: drains the PE array, replays
    /// closed-loop stimulation, finalizes open traces, and honors a
    /// fail-fast health monitor. [`HaloSystem::process`] is exactly
    /// [`HaloSystem::push_block`] over the whole recording followed by
    /// this call. The radio stream and MCU flags move into the returned
    /// metrics, so the runtime's copies read empty afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on a draining failure, firmware error, or a
    /// tripped fail-fast monitor, and [`SystemError::Finished`] once the
    /// stream has ended (a draining failure leaves it open, to retry).
    pub fn finalize(&mut self) -> Result<TaskMetrics, SystemError> {
        if self.runtime.finished() {
            return Err(SystemError::Finished);
        }
        let result = self.runtime.finish();
        self.report(result)?;

        // Closed-loop stimulation with a refractory window.
        let mut stim_events = Vec::new();
        if self.task.uses_stimulation() && self.config.stim_channels > 0 {
            let refractory = self.config.feature_window_frames() as u64;
            let warmup = (self.config.warmup_windows * self.config.feature_window_frames()) as u64;
            let mut last: Option<u64> = None;
            for &(frame, flag) in self.runtime.mcu_flags() {
                if !flag || frame <= warmup {
                    continue;
                }
                if last.is_some_and(|l| frame.saturating_sub(l) < refractory) {
                    continue;
                }
                last = Some(frame);
                if self.sink.enabled() {
                    self.sink.event(Event {
                        frame,
                        kind: EventKind::Detection { positive: true },
                    });
                }
                self.controller.note_frame(frame);
                let cycles_before = self.controller.cycles();
                let commands = self
                    .controller
                    .stimulate(self.config.stim_channels, 500)
                    .map_err(SystemError::Controller)?;
                // Detection-to-pulse latency: firmware cycles at the
                // 25 MHz controller anchor, projected onto the sample
                // timeline (rounded up — a partial frame is a frame).
                let cycle_delta = self.controller.cycles() - cycles_before;
                let controller_hz = halo_power::controller_anchor().freq_mhz * 1.0e6;
                let latency_frames = (cycle_delta as f64 * self.config.sample_rate_hz as f64
                    / controller_hz)
                    .ceil() as u64;
                if self.sink.enabled() {
                    self.sink.event(Event {
                        frame,
                        kind: EventKind::ClosedLoop {
                            detect_frame: frame,
                            latency_frames,
                        },
                    });
                }
                if let Some(tracer) = &self.tracer {
                    // Attribute the pulse to the trace whose frame drove
                    // the detection: stimulation latency in wall time.
                    let latency_ns =
                        (latency_frames as f64 * 1.0e9 / self.config.sample_rate_hz as f64) as u64;
                    tracer.note_stim(frame, self.config.stim_channels as u32, latency_ns);
                }
                stim_events.push(StimEvent {
                    frame,
                    commands,
                    latency_frames,
                });
            }
        }
        if let Some(tracer) = &self.tracer {
            tracer.finalize_all();
        }
        // Under a fail-fast policy a tripped monitor aborts the run; the
        // post-mortem dump stays available on the monitor.
        if let Some(monitor) = &self.health {
            if monitor.tripped() && matches!(monitor.config().policy, AlertPolicy::FailFast) {
                let alert = monitor
                    .status()
                    .alerts
                    .iter()
                    .find(|a| a.severity() == halo_telemetry::Severity::Critical)
                    .map(|a| a.kind().name())
                    .unwrap_or("critical");
                return Err(SystemError::Health { alert });
            }
        }

        let frames = self.runtime.frames();
        let duration_s = frames as f64 / self.config.sample_rate_hz as f64;
        let (radio_stream, detections) = self.runtime.take_outputs();
        let pe_activity = self
            .runtime
            .slot_totals()
            .iter()
            .zip(self.runtime.pes())
            .enumerate()
            .map(|(slot, (t, pe))| PeActivity {
                slot,
                name: pe.kind().name(),
                busy_cycles: t.busy_cycles,
                stall_cycles: t.stall_cycles,
                bytes_in: t.bytes_in,
                bytes_out: t.bytes_out,
                fifo_high_water: pe.output_fifo().high_water() as u64,
            })
            .collect();
        Ok(TaskMetrics {
            task: self.task,
            frames,
            duration_s,
            input_bytes: frames * self.config.channels as u64 * 2,
            radio_bytes: radio_stream.len() as u64,
            radio_stream,
            detections,
            stim_events,
            bus_bytes: self.runtime.fabric().bus_bytes(),
            switches: self.switches,
            controller_cycles: self.controller.cycles(),
            pe_activity,
        })
    }

    /// The power report for a finished run.
    pub fn power_report(&self, metrics: &TaskMetrics) -> PowerReport {
        PowerReport::compute(self.task, &self.config, metrics, self.runtime.pes())
    }

    /// Direct access to the runtime (probing, statistics).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// Direct access to the runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_noc::{NodeId, Route};
    use halo_signal::{RecordingConfig, RegionProfile};

    fn recording(channels: usize, ms: usize, seed: u64) -> Recording {
        RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(ms)
            .generate(seed)
    }

    #[test]
    fn every_task_configures() {
        let config = HaloConfig::small_test(4);
        for task in Task::all() {
            HaloSystem::new(task, config.clone()).unwrap_or_else(|e| panic!("{task}: {e}"));
        }
    }

    #[test]
    fn runtime_reconfiguration_switches_tasks() {
        let config = HaloConfig::small_test(4);
        let rec = recording(4, 20, 9);
        let mut sys = HaloSystem::new(Task::CompressLz4, config).unwrap();
        let m1 = sys.process(&rec).unwrap();
        assert_eq!(m1.task, Task::CompressLz4);
        let cycles_after_first = m1.controller_cycles;

        sys.reconfigure(Task::EncryptRaw).unwrap();
        assert_eq!(sys.task(), Task::EncryptRaw);
        let m2 = sys.process(&rec).unwrap();
        assert_eq!(m2.task, Task::EncryptRaw);
        // Encryption transmits everything; compression transmitted less.
        assert!(m2.radio_bytes >= m1.radio_bytes);
        // The controller's odometer accumulated the reprogramming work.
        assert!(m2.controller_cycles > cycles_after_first);
    }

    /// A configured device must be movable onto a worker thread — the
    /// fleet scheduler hands whole sessions between threads.
    #[test]
    fn halo_system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HaloSystem>();
    }

    /// Incremental streaming (batched `push_block` + `finalize`) is
    /// metric-identical to the one-shot `process` call.
    #[test]
    fn incremental_push_matches_process() {
        let config = HaloConfig::small_test(4);
        let rec = recording(4, 30, 7);
        let mut one_shot = HaloSystem::new(Task::CompressLz4, config.clone()).unwrap();
        let expected = one_shot.process(&rec).unwrap();

        let mut batched = HaloSystem::new(Task::CompressLz4, config).unwrap();
        for block in rec.samples().chunks(4 * 17) {
            batched.push_block(block).unwrap();
        }
        let got = batched.finalize().unwrap();
        assert_eq!(got.frames, expected.frames);
        assert_eq!(got.radio_stream, expected.radio_stream);
        assert_eq!(got.detections, expected.detections);
        assert_eq!(got.bus_bytes, expected.bus_bytes);
    }

    /// A second `finalize` is refused rather than replaying stimulation a
    /// second time, and the first left the outputs in its metrics alone.
    #[test]
    fn finalize_after_finalize_is_a_typed_error() {
        let config = HaloConfig::small_test(8);
        let mut sys = HaloSystem::new(Task::SpikeDetectNeo, config).unwrap();
        let metrics = sys.process(&recording(8, 20, 5)).unwrap();
        assert!(!metrics.radio_stream.is_empty() && !metrics.detections.is_empty());
        assert!(sys.runtime().radio_stream().is_empty(), "stream was copied");
        assert!(sys.runtime().mcu_flags().is_empty(), "flags were copied");
        assert!(matches!(sys.finalize(), Err(SystemError::Finished)));
    }

    /// Samples and faults after `finalize` are refused with the same error
    /// instead of tripping the runtime's assertion or touching the finished
    /// ledger and fabric; a reconfiguration starts a new stream that takes
    /// them.
    #[test]
    fn push_after_finalize_is_a_typed_error() {
        let config = HaloConfig::small_test(4);
        let rec = recording(4, 10, 2);
        let mut sys = HaloSystem::new(Task::EncryptRaw, config).unwrap();
        sys.process(&rec).unwrap();
        assert!(matches!(
            sys.push_block(rec.samples()),
            Err(SystemError::Finished)
        ));
        assert!(matches!(sys.process(&rec), Err(SystemError::Finished)));
        let stalls = sys.runtime().slot_totals()[0].stall_cycles;
        let words = sys.runtime().fabric().encoded_routes();
        let late = [
            FaultAction::LinkDegrade {
                to: NodeId(0),
                stall_cycles: 500,
            },
            FaultAction::RogueMmio {
                word: Fabric::encode_route(Route {
                    from: NodeId(0),
                    to: NodeId(0xE1),
                    to_port: 0,
                }),
            },
        ];
        assert!(matches!(
            sys.inject_faults(&late),
            Err(SystemError::Finished)
        ));
        assert_eq!(sys.runtime().slot_totals()[0].stall_cycles, stalls);
        assert_eq!(sys.runtime().fabric().encoded_routes(), words);
        sys.reconfigure(Task::EncryptRaw).unwrap();
        sys.process(&rec).unwrap();
    }

    #[test]
    fn geometry_mismatch_detected() {
        let config = HaloConfig::small_test(4);
        let mut sys = HaloSystem::new(Task::EncryptRaw, config).unwrap();
        let rec = recording(2, 10, 1);
        assert!(matches!(
            sys.process(&rec),
            Err(SystemError::GeometryMismatch {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn lzma_round_trips_through_the_pipeline() {
        let config = HaloConfig::small_test(4);
        let mut sys = HaloSystem::new(Task::CompressLzma, config.clone()).unwrap();
        let rec = recording(4, 50, 3);
        let metrics = sys.process(&rec).unwrap();
        assert!(metrics.radio_bytes > 0);
        // Reconstruct the interleaved stream the pipeline saw and verify
        // losslessness with the monolithic decoder.
        let codec = halo_kernels::LzmaCodec::new(config.lz_history)
            .unwrap()
            .with_block_size(config.block_bytes);
        let decompressed = codec.decompress(&metrics.radio_stream).unwrap();
        let expected = interleave(&rec, config.interleave_depth);
        assert_eq!(decompressed, expected);
        assert!(metrics.compression_ratio().unwrap() > 1.5);
    }

    #[test]
    fn encryption_decrypts_back_to_the_input() {
        let config = HaloConfig::small_test(2);
        let mut sys = HaloSystem::new(Task::EncryptRaw, config.clone()).unwrap();
        let rec = recording(2, 20, 4);
        let metrics = sys.process(&rec).unwrap();
        let aes = halo_kernels::Aes128::new(config.aes_key);
        let plain = aes.decrypt_ecb(&metrics.radio_stream);
        let expected = rec.to_bytes_le();
        assert_eq!(&plain[..expected.len()], &expected[..]);
    }

    /// Rebuilds the interleaver's output ordering for verification.
    fn interleave(rec: &Recording, depth: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let n = rec.samples_per_channel();
        let mut t = 0;
        while t < n {
            let end = (t + depth).min(n);
            for c in 0..rec.channels() {
                for tt in t..end {
                    out.extend_from_slice(&rec.frame(tt)[c].to_le_bytes());
                }
            }
            t = end;
        }
        out
    }
}
