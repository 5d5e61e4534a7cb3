//! Active health monitoring: safety-envelope watchdog + flight recorder.
//!
//! HALO's contract with the patient is a set of hard physical envelopes —
//! the 15 mW implant power budget, sub-millisecond closed-loop response for
//! seizure stimulation, and the 46 Mbps radio ceiling. The passive
//! [`Recorder`] observes those quantities; the [`HealthMonitor`] here
//! *judges* them while the pipeline runs.
//!
//! The monitor wraps a [`Recorder`] and implements [`TelemetrySink`] by
//! forwarding every call. Each [`WindowReport`] is judged in one pass as
//! it arrives, once the recorder has folded it:
//!
//! * the window's radio bytes, as bits/s, against the radio ceiling;
//! * its summed domain power, at the window's end, against the budget;
//! * then, with a continuous store installed, the SLO burn-rate poll.
//!
//! `ClosedLoop` events are compared to the stimulation deadline as they
//! arrive, and each one polls the SLO engine again where the stream
//! stands: the system scans closed-loop responses only after the stream's
//! last window was judged.
//!
//! A violated envelope raises a [`HealthAlert`], appends a structured
//! [`EventKind::Health`] event to the recorder's timeline, and applies the
//! configured [`AlertPolicy`]. With a
//! [`ContinuousTelemetry`](crate::ContinuousTelemetry) store installed,
//! every reading is also recorded with its utilization. Any *critical*
//! alert (or an explicit [`HealthMonitor::note_runtime_error`]) latches a
//! post-mortem: a JSON black-box dump of the recorder's last
//! [`POSTMORTEM_EVENTS`] events (each window one entry), every counter,
//! and the fabric configuration generation and active pipeline the
//! recorder last saw — everything needed to reconstruct the device's
//! final moments without a debugger attached. A dump latched by a
//! window's alert reads the recorder as it stood right after that window
//! was folded.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;
use crate::recorder::Recorder;
use crate::sink::{Event, EventKind, Severity, TelemetrySink, WindowRecord, WindowReport};
use crate::span_tree::{span_json, SpanTree};
use crate::tracing::Tracer;
use crate::tsdb::{ContinuousState, SeriesKind};

/// Implant-wide power budget in milliwatts (§V-A of the paper; mirrors
/// `DEVICE_BUDGET_MW` in `halo-power`, restated here so the telemetry
/// crate stays dependency-free).
pub const DEVICE_BUDGET_MW: f64 = 15.0;

/// Radio ceiling in bits per second: 46 Mbps as 46 × 1024 × 1000 bps,
/// enough for 96 channels × 16 bit × 30 kHz uncompressed.
pub const RADIO_CEILING_BPS: f64 = 46_080_000.0;

/// How many of the recorder's newest events a post-mortem embeds (fewer
/// when the recorder's own ring is smaller).
pub const POSTMORTEM_EVENTS: usize = 256;

/// Frames a critical alert force-samples when a [`Tracer`] is attached
/// ([`HealthMonitor::set_tracer`]), so the post-mortem carries causal
/// span trees from the incident window.
pub const ESCALATE_TRACE_FRAMES: u64 = 16;

/// What the watchdog does when an envelope is violated.
#[derive(Clone)]
pub enum AlertPolicy {
    /// Record the alert (timeline event + alert log) and keep running.
    Record,
    /// Record, then invoke the callback. The callback must not call back
    /// into the monitor's accessors (it runs on the instrumented thread).
    Callback(Arc<dyn Fn(&HealthAlert) + Send + Sync>),
    /// Record, then trip the monitor on the first *critical* alert;
    /// [`HealthMonitor::tripped`] turns true so the host can abort the run.
    FailFast,
}

impl fmt::Debug for AlertPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertPolicy::Record => write!(f, "Record"),
            AlertPolicy::Callback(_) => write!(f, "Callback(..)"),
            AlertPolicy::FailFast => write!(f, "FailFast"),
        }
    }
}

/// Safety-envelope limits and watchdog behaviour.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Whole-device power budget per sampling window, milliwatts.
    pub budget_mw: f64,
    /// Closed-loop detection→stimulation deadline, sample frames
    /// (30 frames at 30 kHz = the paper's 1 ms response requirement).
    pub deadline_frames: u64,
    /// What to do when an envelope is violated.
    pub policy: AlertPolicy,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            budget_mw: DEVICE_BUDGET_MW,
            deadline_frames: 30,
            policy: AlertPolicy::Record,
        }
    }
}

/// Which envelope was violated, with the observed and configured values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertKind {
    /// A sampling window's summed domain power exceeded the budget.
    PowerBudget { window_mw: f64, budget_mw: f64 },
    /// A closed-loop response missed the stimulation deadline.
    DeadlineMiss {
        latency_frames: u64,
        deadline_frames: u64,
    },
    /// Radio throughput over a window exceeded the ceiling.
    RadioThroughput { bits_per_s: f64, ceiling_bps: f64 },
    /// An SLO error budget is burning too fast (see [`crate::slo`]): the
    /// burn rate over both of a policy's lookback windows exceeded the
    /// policy threshold. `fast` distinguishes the page-now fast-burn
    /// policy (critical) from the slow-burn policy (warning).
    SloBurnRate {
        objective: &'static str,
        fast: bool,
        burn_rate: f64,
        threshold: f64,
    },
}

impl AlertKind {
    /// Stable snake_case name used in events, expositions, and dumps.
    pub fn name(&self) -> &'static str {
        match self {
            AlertKind::PowerBudget { .. } => "power_budget",
            AlertKind::DeadlineMiss { .. } => "deadline_miss",
            AlertKind::RadioThroughput { .. } => "radio_throughput",
            AlertKind::SloBurnRate { .. } => "slo_burn_rate",
        }
    }

    /// Power and deadline violations break the safety contract outright;
    /// radio saturation is a survivable pressure signal.
    /// A fast-burn SLO firing is treated like a hard violation — it means
    /// the envelope is hours from being exhausted — while slow-burn is an
    /// early warning.
    pub fn severity(&self) -> Severity {
        match self {
            AlertKind::PowerBudget { .. } | AlertKind::DeadlineMiss { .. } => Severity::Critical,
            AlertKind::RadioThroughput { .. } => Severity::Warning,
            AlertKind::SloBurnRate { fast, .. } => {
                if *fast {
                    Severity::Critical
                } else {
                    Severity::Warning
                }
            }
        }
    }

    /// Observed value (same unit as [`AlertKind::limit`]).
    pub fn value(&self) -> f64 {
        match *self {
            AlertKind::PowerBudget { window_mw, .. } => window_mw,
            AlertKind::DeadlineMiss { latency_frames, .. } => latency_frames as f64,
            AlertKind::RadioThroughput { bits_per_s, .. } => bits_per_s,
            AlertKind::SloBurnRate { burn_rate, .. } => burn_rate,
        }
    }

    /// Configured envelope limit the value was compared against.
    pub fn limit(&self) -> f64 {
        match *self {
            AlertKind::PowerBudget { budget_mw, .. } => budget_mw,
            AlertKind::DeadlineMiss {
                deadline_frames, ..
            } => deadline_frames as f64,
            AlertKind::RadioThroughput { ceiling_bps, .. } => ceiling_bps,
            AlertKind::SloBurnRate { threshold, .. } => threshold,
        }
    }

    /// Whether two alerts are repeats of the *same* condition for
    /// coalescing: same kind, and the same objective + policy for SLO
    /// burns.
    /// Observed values may differ between repeats — a persistently
    /// violated envelope rarely reports the same reading twice.
    fn same_condition(&self, other: &AlertKind) -> bool {
        match (self, other) {
            (AlertKind::PowerBudget { .. }, AlertKind::PowerBudget { .. })
            | (AlertKind::DeadlineMiss { .. }, AlertKind::DeadlineMiss { .. })
            | (AlertKind::RadioThroughput { .. }, AlertKind::RadioThroughput { .. }) => true,
            (
                AlertKind::SloBurnRate {
                    objective: a,
                    fast: af,
                    ..
                },
                AlertKind::SloBurnRate {
                    objective: b,
                    fast: bf,
                    ..
                },
            ) => a == b && af == bf,
            _ => false,
        }
    }
}

/// One envelope violation, timestamped in sample frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthAlert {
    pub frame: u64,
    pub kind: AlertKind,
}

impl HealthAlert {
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

/// A run of repeated identical-condition alerts, coalesced into one log
/// entry. A persistently violated envelope re-fires every sampling window;
/// without coalescing, a minutes-long brownout floods the flight recorder
/// with hundreds of copies of the same fact. Instead the log keeps one
/// entry per *run*: the latest occurrence, the window stamps of the first
/// and last repeat, and how many times it fired. Severity totals
/// ([`HealthStatus::severity_counts`]) still count every occurrence, and
/// the [`AlertPolicy::Callback`] still sees each one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalescedAlert {
    /// The most recent occurrence in the run.
    pub alert: HealthAlert,
    /// Frame of the run's first occurrence.
    pub first_frame: u64,
    /// Frame of the run's latest occurrence.
    pub last_frame: u64,
    /// Occurrences coalesced into this entry (≥ 1).
    pub repeat_count: u64,
}

impl CoalescedAlert {
    pub fn kind(&self) -> AlertKind {
        self.alert.kind
    }

    pub fn severity(&self) -> Severity {
        self.alert.severity()
    }
}

/// Alert runs retained verbatim; beyond this, only counts are kept.
const MAX_ALERTS: usize = 256;

/// Mutable watchdog state, all behind one mutex. Everything here is
/// touched at window granularity (hundreds of frames), never per frame.
struct WatchdogState {
    /// Worst window so far: (frame, milliwatts).
    worst_window: Option<(u64, f64)>,
    /// Power windows evaluated.
    power_windows: u64,
    /// Retained alert runs (bounded, repeats coalesced) and the overflow
    /// count of runs that could not be retained.
    alerts: Vec<CoalescedAlert>,
    alerts_dropped: u64,
    /// Whether the last retained alert run is still contiguous — a drop
    /// intervening after it closes the run for coalescing purposes.
    tail_open: bool,
    /// Alert totals by severity: [info, warning, critical].
    severity_counts: [u64; 3],
    /// Most recent injected faults (bounded, oldest evicted) — embedded in
    /// post-mortems so every failure is attributable to what the chaos
    /// harness did to the device.
    recent_faults: Vec<FaultNote>,
    /// Total faults injected / detected with a typed error.
    faults_injected: u64,
    faults_detected: u64,
    /// First post-mortem dump, latched until cleared.
    postmortem: Option<String>,
    /// The store a [`ContinuousTelemetry`](crate::ContinuousTelemetry)
    /// installed, if any.
    continuous: Option<ContinuousState>,
}

/// One remembered fault injection.
#[derive(Debug, Clone, Copy)]
struct FaultNote {
    frame: u64,
    kind: &'static str,
    slot: u8,
    detail: u64,
    detected: bool,
}

/// Injected faults retained verbatim in the flight recorder.
const MAX_RECENT_FAULTS: usize = 16;

impl WatchdogState {
    fn new() -> Self {
        Self {
            worst_window: None,
            power_windows: 0,
            alerts: Vec::new(),
            alerts_dropped: 0,
            tail_open: false,
            severity_counts: [0; 3],
            recent_faults: Vec::new(),
            faults_injected: 0,
            faults_detected: 0,
            postmortem: None,
            continuous: None,
        }
    }

    fn note_fault(&mut self, note: FaultNote) {
        self.faults_injected += 1;
        if note.detected {
            self.faults_detected += 1;
        }
        if self.recent_faults.len() >= MAX_RECENT_FAULTS {
            self.recent_faults.remove(0);
        }
        self.recent_faults.push(note);
    }

    /// Log `alert`, coalescing it into the most recent retained run when
    /// it repeats the same condition. Returns `true` when the alert starts
    /// a *new* run — the caller only emits a timeline event (and escalates
    /// tracing) for new runs, which is the flood fix.
    fn log_alert(&mut self, alert: HealthAlert) -> bool {
        self.severity_counts[alert.severity() as usize] += 1;
        // A dropped alert still intervened: it breaks the retained tail
        // run, so a later repeat of the tail's condition must not fold
        // into an entry it wasn't actually contiguous with.
        if self.tail_open {
            if let Some(last) = self.alerts.last_mut() {
                if last.alert.kind.same_condition(&alert.kind) {
                    last.repeat_count += 1;
                    last.last_frame = alert.frame;
                    last.alert = alert;
                    return false;
                }
            }
        }
        if self.alerts.len() < MAX_ALERTS {
            self.alerts.push(CoalescedAlert {
                alert,
                first_frame: alert.frame,
                last_frame: alert.frame,
                repeat_count: 1,
            });
            self.tail_open = true;
        } else {
            self.alerts_dropped += 1;
            self.tail_open = false;
        }
        true
    }
}

/// Point-in-time health digest — what [`HealthMonitor::status`] returns
/// and what `expose::render_health` renders.
#[derive(Debug, Clone)]
pub struct HealthStatus {
    /// Worst completed power window: (frame, milliwatts).
    pub worst_window: Option<(u64, f64)>,
    /// Completed power windows evaluated.
    pub power_windows: u64,
    /// Live power budget, milliwatts (see [`HealthMonitor::set_budget_mw`]).
    pub budget_mw: f64,
    /// Retained alert runs, oldest first (bounded at an internal cap);
    /// repeats of one condition coalesce into a single entry.
    pub alerts: Vec<CoalescedAlert>,
    /// Alert runs beyond the retention cap (counted, not kept).
    pub alerts_dropped: u64,
    /// Alert totals indexed by [`Severity`] as usize.
    pub severity_counts: [u64; 3],
    /// Fabric configuration generation at the last reprogramming, as the
    /// recorder saw it.
    pub fabric_generation: u64,
    /// Label of the recorder's most recent pipeline marker.
    pub active_pipeline: &'static str,
}

impl HealthStatus {
    /// Power headroom of the worst window as a fraction of the budget
    /// (negative when the budget was violated).
    pub fn headroom_fraction(&self) -> Option<f64> {
        let (_, worst) = self.worst_window?;
        Some((self.budget_mw - worst) / self.budget_mw)
    }

    /// Total alerts raised (including dropped ones).
    pub fn total_alerts(&self) -> u64 {
        self.severity_counts.iter().sum::<u64>()
    }
}

/// The watchdog sink: wraps a [`Recorder`], forwards everything, and
/// evaluates safety envelopes on the event stream. Shareable across
/// threads like any sink.
pub struct HealthMonitor {
    recorder: Arc<Recorder>,
    config: HealthConfig,
    state: Mutex<WatchdogState>,
    tripped: AtomicBool,
    /// Live power budget as f64 bits — adjustable at runtime (brownout
    /// supervision shrinks it; see [`HealthMonitor::set_budget_mw`])
    /// without taking the state lock on read.
    budget_mw_bits: AtomicU64,
    /// Optional causal tracer: critical alerts escalate its sampling and
    /// post-mortems embed its assembled span trees.
    tracer: Mutex<Option<Arc<Tracer>>>,
}

impl fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("config", &self.config)
            .field("tripped", &self.tripped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl HealthMonitor {
    /// A monitor recording through `recorder` with envelope `config`.
    pub fn new(recorder: Arc<Recorder>, config: HealthConfig) -> Self {
        let budget_mw_bits = AtomicU64::new(config.budget_mw.to_bits());
        Self {
            recorder,
            config,
            state: Mutex::new(WatchdogState::new()),
            tripped: AtomicBool::new(false),
            budget_mw_bits,
            tracer: Mutex::new(None),
        }
    }

    /// The live power budget in milliwatts. Starts at
    /// [`HealthConfig::budget_mw`]; windows are judged against whatever
    /// value is current when they close.
    pub fn budget_mw(&self) -> f64 {
        f64::from_bits(self.budget_mw_bits.load(Ordering::Relaxed))
    }

    /// Adjust the live power budget — how a brownout supervisor tells the
    /// watchdog (and the continuous-telemetry layer's utilization series)
    /// that less power is available right now.
    pub fn set_budget_mw(&self, budget_mw: f64) {
        self.budget_mw_bits
            .store(budget_mw.to_bits(), Ordering::Relaxed);
    }

    /// Raise an externally evaluated alert through the normal path:
    /// severity counting, run coalescing, timeline event + post-mortem
    /// latch + trace escalation on new runs, fail-fast tripping, and the
    /// callback policy.
    pub fn raise(&self, alert: HealthAlert) {
        self.raise_locked(&mut self.state(), alert);
        self.apply_policy(&[alert]);
    }

    /// Attaches a causal tracer: critical alerts force-sample the next
    /// [`ESCALATE_TRACE_FRAMES`] frames and post-mortem dumps
    /// gain a `span_trees` section with the most recent assembled traces.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.lock().unwrap() = Some(tracer);
    }

    /// The attached causal tracer, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.lock().unwrap().clone()
    }

    /// The wrapped recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The envelope configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Whether a critical alert tripped a [`AlertPolicy::FailFast`]
    /// monitor.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, WatchdogState> {
        self.state
            .lock()
            .expect("a thread panicked while holding the watchdog lock")
    }

    /// Current health digest.
    pub fn status(&self) -> HealthStatus {
        let snap = self.recorder.snapshot();
        let state = self.state();
        HealthStatus {
            worst_window: state.worst_window,
            power_windows: state.power_windows,
            budget_mw: self.budget_mw(),
            alerts: state.alerts.clone(),
            alerts_dropped: state.alerts_dropped,
            severity_counts: state.severity_counts,
            fabric_generation: snap.fabric_generation,
            active_pipeline: snap.active_pipeline,
        }
    }

    /// Install `store`: every later window reading feeds it.
    pub(crate) fn install_continuous(&self, store: ContinuousState) {
        self.state().continuous = Some(store);
    }

    /// Run `f` on the installed continuous store.
    pub(crate) fn with_continuous<R>(&self, f: impl FnOnce(&ContinuousState) -> R) -> R {
        f(self
            .state()
            .continuous
            .as_ref()
            .expect("installed by ContinuousTelemetry::new"))
    }

    /// The latched post-mortem JSON dump, if a critical alert or runtime
    /// error occurred. When a tracer is attached, the dump is returned with
    /// a `span_trees` section holding the most recently completed causal
    /// traces (the escalated post-alert frames, once they have closed).
    pub fn postmortem(&self) -> Option<String> {
        let base = self.state().postmortem.clone()?;
        Some(self.append_span_trees(base))
    }

    /// Splices `"span_trees":[...]` into a latched dump. The base dump is
    /// latched at alert time; trees are appended at access time because the
    /// escalated frames complete *after* the alert that requested them.
    fn append_span_trees(&self, mut dump: String) -> String {
        debug_assert!(dump.ends_with('}'));
        dump.pop();
        dump.push_str(",\"span_trees\":[");
        if let Some(tracer) = self.tracer.lock().unwrap().clone() {
            // Most recent traces are the ones that describe the incident;
            // cap the dump at this many trees.
            const MAX_TREES: usize = 4;
            let trees = tracer.trees();
            let start = trees.len().saturating_sub(MAX_TREES);
            let parts: Vec<String> = trees
                .into_iter()
                .skip(start)
                .filter_map(|t| SpanTree::assemble(t).ok())
                .map(|t| t.to_json())
                .collect();
            dump.push_str(&parts.join(","));
        }
        dump.push_str("]}");
        dump
    }

    /// Report a runtime error: latches a post-mortem dump (if none is
    /// latched yet) with `reason` as the cause, timestamped at `frame`.
    pub fn note_runtime_error(&self, reason: &str, frame: u64) {
        let mut state = self.state();
        if state.postmortem.is_none() {
            state.postmortem = Some(self.render_postmortem(&state, reason, frame));
        }
    }

    /// Log `alert` (coalescing repeats), append a timeline event when it
    /// starts a new run, and on the first critical of a run escalate
    /// tracing and latch a post-mortem. The policy treatment is the
    /// caller's, *outside* the state lock.
    fn raise_locked(&self, state: &mut WatchdogState, alert: HealthAlert) {
        if !state.log_alert(alert) {
            return;
        }
        // Repeats of the same condition stay out of the timeline (and so
        // out of post-mortems' recent events) — one event marks the run's
        // start, the coalesced log entry carries its extent.
        self.recorder.event(Event {
            frame: alert.frame,
            kind: EventKind::Health {
                name: alert.kind.name(),
                severity: alert.severity(),
                value: alert.kind.value(),
                limit: alert.kind.limit(),
            },
        });
        if alert.severity() == Severity::Critical {
            // Escalate tracing first: the frames right after the incident
            // are the ones the post-mortem wants span trees for. Repeats
            // within a run already escalated.
            if let Some(tracer) = self.tracer() {
                tracer.sampler().force_next(ESCALATE_TRACE_FRAMES);
            }
            if state.postmortem.is_none() {
                state.postmortem = Some(self.render_postmortem(
                    state,
                    &format!("critical alert: {}", alert.kind.name()),
                    alert.frame,
                ));
            }
        }
    }

    /// The policy treatment, outside the state lock: a critical alert
    /// trips a fail-fast monitor, and a callback sees every alert.
    fn apply_policy(&self, alerts: &[HealthAlert]) {
        for alert in alerts {
            match &self.config.policy {
                AlertPolicy::FailFast if alert.severity() == Severity::Critical => {
                    self.tripped.store(true, Ordering::Relaxed)
                }
                AlertPolicy::Callback(cb) => cb(alert),
                _ => {}
            }
        }
    }

    /// Take in one watched event under the state lock: a closed-loop
    /// response is a reading against the deadline, judged by the SLO
    /// engine too; a fault is noted for post-mortems.
    fn inspect(&self, state: &mut WatchdogState, event: &Event, alerts: &mut Vec<HealthAlert>) {
        let frame = event.frame;
        match event.kind {
            EventKind::ClosedLoop { latency_frames, .. } => {
                let deadline_frames = self.config.deadline_frames;
                let breach =
                    (latency_frames > deadline_frames).then_some(AlertKind::DeadlineMiss {
                        latency_frames,
                        deadline_frames,
                    });
                let reading = (latency_frames as f64, deadline_frames as f64);
                let series = SeriesKind::ClosedLoopLatencyFrames;
                self.judge(state, alerts, frame, series, reading, breach);
                // Responses arrive after the stream's last window was
                // judged: poll at that window's end, the frame of the
                // newest power reading, since the earlier detection frame
                // would stretch every other objective's lookback over the
                // points recorded since.
                let power = |c: &ContinuousState| c.tsdb.series(SeriesKind::PowerMw).latest();
                let newest = state.continuous.as_ref().and_then(power);
                self.poll(state, alerts, newest.map_or(frame, |p| p.frame.max(frame)));
            }
            EventKind::Fault {
                kind,
                slot,
                detail,
                detected,
            } => state.note_fault(FaultNote {
                frame,
                kind,
                slot,
                detail,
                detected,
            }),
            _ => {}
        }
    }

    /// Judge one window with frames in it, under the state lock: its
    /// worst frame latency goes to the continuous store, then its radio
    /// throughput against the ceiling, then its summed power at the
    /// window's end against the live budget, then the burn-rate poll.
    fn judge_window(
        &self,
        state: &mut WatchdogState,
        report: &WindowReport,
        alerts: &mut Vec<HealthAlert>,
    ) {
        let (start, end) = (report.start, report.end());
        if let (Some(store), Some(&max)) =
            (&mut state.continuous, report.frame_latency_ns.iter().max())
        {
            store
                .tsdb
                .record(SeriesKind::FrameLatencyNs, start, max as f64);
        }
        let window_s = f64::from(report.frames) / self.recorder.sample_rate_hz() as f64;
        let bits_per_s = report.radio_bytes as f64 * 8.0 / window_s;
        let ceiling_bps = RADIO_CEILING_BPS;
        let breach = (bits_per_s > ceiling_bps).then_some(AlertKind::RadioThroughput {
            bits_per_s,
            ceiling_bps,
        });
        let reading = (bits_per_s, ceiling_bps);
        self.judge(state, alerts, start, SeriesKind::RadioBps, reading, breach);

        let window_mw = report.milliwatts();
        state.power_windows += 1;
        if state.worst_window.is_none_or(|(_, w)| window_mw > w) {
            state.worst_window = Some((end, window_mw));
        }
        let budget_mw = self.budget_mw();
        let breach = (window_mw > budget_mw).then_some(AlertKind::PowerBudget {
            window_mw,
            budget_mw,
        });
        let reading = (window_mw, budget_mw);
        self.judge(state, alerts, end, SeriesKind::PowerMw, reading, breach);
        self.poll(state, alerts, end);
    }

    /// Poll an installed continuous store's burn-rate engine at frame
    /// `now` and raise its firings like any envelope alert.
    fn poll(&self, state: &mut WatchdogState, alerts: &mut Vec<HealthAlert>, now: u64) {
        let firings = state.continuous.as_mut().map(|c| c.poll(now));
        for alert in firings.unwrap_or_default() {
            self.raise_locked(state, alert);
            alerts.push(alert);
        }
    }

    /// One window reading, `(value, limit)`: recorded into `series` with
    /// its utilization when a continuous store is installed, and raised
    /// as `breach` when it broke the limit.
    fn judge(
        &self,
        state: &mut WatchdogState,
        alerts: &mut Vec<HealthAlert>,
        frame: u64,
        series: SeriesKind,
        (value, limit): (f64, f64),
        breach: Option<AlertKind>,
    ) {
        if let Some(store) = &mut state.continuous {
            store.record(series, frame, value, limit);
        }
        if let Some(kind) = breach {
            let alert = HealthAlert { frame, kind };
            self.raise_locked(state, alert);
            alerts.push(alert);
        }
    }

    /// Render the black-box dump: cause, envelope state, every counter,
    /// latency digests, and the tail of the recorder's event ring.
    fn render_postmortem(&self, state: &WatchdogState, reason: &str, frame: u64) -> String {
        let snap = self.recorder.snapshot();
        let mut out = String::with_capacity(4096);
        out.push('{');
        out.push_str(&format!(
            "\"reason\":{},\"frame\":{frame},\"fabric_generation\":{},\
             \"active_pipeline\":{},",
            json::string(reason),
            snap.fabric_generation,
            json::string(snap.active_pipeline),
        ));
        out.push_str(&format!(
            "\"alerts\":{{\"info\":{},\"warning\":{},\"critical\":{},\"dropped\":{}}},",
            state.severity_counts[Severity::Info as usize],
            state.severity_counts[Severity::Warning as usize],
            state.severity_counts[Severity::Critical as usize],
            state.alerts_dropped,
        ));
        out.push_str(&format!(
            "\"worst_window_mw\":{},\"budget_mw\":{},",
            json::number(state.worst_window.map_or(0.0, |(_, mw)| mw)),
            json::number(self.budget_mw()),
        ));
        out.push_str(&format!(
            "\"counters\":{{\"frames\":{},\"radio_bytes\":{},\"noc_bytes\":{},\
             \"controller_cycles\":{},\"controller_instructions\":{},\
             \"switch_programs\":{},\"stim_pulses\":{},\"dropped_events\":{}}},",
            snap.frames,
            snap.radio_bytes,
            snap.noc_bytes(),
            snap.controller_cycles,
            snap.controller_instructions,
            snap.switch_programs,
            snap.stim_pulses,
            snap.dropped_events,
        ));
        out.push_str("\"pes\":[");
        let pes: Vec<String> = snap
            .pes
            .iter()
            .map(|pe| {
                format!(
                    "{{\"slot\":{},\"name\":{},\"busy_cycles\":{},\"stall_cycles\":{},\
                     \"bytes_in\":{},\"bytes_out\":{},\"fifo_high_water\":{},\
                     \"service_p99_ns\":{}}}",
                    pe.slot,
                    json::string(pe.name),
                    pe.busy_cycles,
                    pe.stall_cycles,
                    pe.bytes_in,
                    pe.bytes_out,
                    pe.fifo_high_water,
                    pe.service.p99,
                )
            })
            .collect();
        out.push_str(&pes.join(","));
        out.push_str("],\"links\":[");
        let links: Vec<String> = snap
            .links
            .iter()
            .map(|l| {
                format!(
                    "{{\"from\":{},\"to\":{},\"bytes\":{},\"transfers\":{}}}",
                    l.from, l.to, l.bytes, l.transfers
                )
            })
            .collect();
        out.push_str(&links.join(","));
        out.push_str("],\"pipelines\":[");
        let pipes: Vec<String> = snap
            .pipelines
            .iter()
            .map(|p| {
                format!(
                    "{{\"label\":{},\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\
                     \"p99_ns\":{},\"max_ns\":{}}}",
                    json::string(p.label),
                    p.latency.count,
                    p.latency.p50,
                    p.latency.p90,
                    p.latency.p99,
                    p.latency.max,
                )
            })
            .collect();
        out.push_str(&pipes.join(","));
        out.push_str("],");
        out.push_str(&format!(
            "\"faults\":{{\"injected\":{},\"detected\":{}}},",
            state.faults_injected, state.faults_detected,
        ));
        out.push_str("\"recent_faults\":[");
        let faults: Vec<String> = state
            .recent_faults
            .iter()
            .map(|f| {
                format!(
                    "{{\"frame\":{},\"kind\":{},\"slot\":{},\"detail\":{},\"detected\":{}}}",
                    f.frame,
                    json::string(f.kind),
                    f.slot,
                    f.detail,
                    f.detected,
                )
            })
            .collect();
        out.push_str(&faults.join(","));
        out.push_str("],\"recent_events\":[");
        let events: Vec<String> = self
            .recorder
            .recent_events(POSTMORTEM_EVENTS)
            .iter()
            .map(event_json)
            .collect();
        out.push_str(&events.join(","));
        out.push_str("]}");
        out
    }
}

/// Serialize one timeline event as a JSON object for the flight recorder.
fn event_json(event: &Event) -> String {
    let body = match &event.kind {
        EventKind::Window(window) => {
            let WindowRecord { report, names } = &**window;
            let slots: Vec<String> = report
                .slots
                .iter()
                .zip(names)
                .enumerate()
                .map(|(slot, (w, name))| {
                    format!(
                        "{{\"slot\":{slot},\"name\":{},\"busy_cycles\":{},\"stall_cycles\":{},\
                         \"bytes_in\":{},\"bytes_out\":{},\"fifo_high_water\":{},\
                         \"milliwatts\":{}}}",
                        json::string(name),
                        w.busy_cycles,
                        w.stall_cycles,
                        w.bytes_in,
                        w.bytes_out,
                        w.fifo_high_water,
                        json::number(w.milliwatts)
                    )
                })
                .collect();
            let (noc_bytes, noc_transfers) = report.noc();
            format!(
                "\"window\",\"frames\":{},\"noc_bytes\":{noc_bytes},\
                 \"noc_transfers\":{noc_transfers},\"radio_bytes\":{},\"slots\":[{}]",
                report.frames,
                report.radio_bytes,
                slots.join(",")
            )
        }
        EventKind::SwitchProgram { words, generation } => {
            format!("\"switch_program\",\"words\":{words},\"generation\":{generation}")
        }
        EventKind::ClosedLoop {
            detect_frame,
            latency_frames,
        } => format!(
            "\"closed_loop\",\"detect_frame\":{detect_frame},\"latency_frames\":{latency_frames}"
        ),
        EventKind::Health {
            name,
            severity,
            value,
            limit,
        } => format!(
            "\"health\",\"name\":{},\"severity\":{},\"value\":{},\"limit\":{}",
            json::string(name),
            json::string(severity.label()),
            json::number(*value),
            json::number(*limit)
        ),
        EventKind::Stim {
            channel,
            amplitude_ua,
        } => format!("\"stim\",\"channel\":{channel},\"amplitude_ua\":{amplitude_ua}"),
        EventKind::Detection { positive } => format!("\"detection\",\"positive\":{positive}"),
        EventKind::Marker { name } => format!("\"marker\",\"name\":{}", json::string(name)),
        EventKind::Fault {
            kind,
            slot,
            detail,
            detected,
        } => format!(
            "\"fault\",\"fault_kind\":{},\"slot\":{slot},\"detail\":{detail},\
             \"detected\":{detected}",
            json::string(kind)
        ),
        EventKind::Span(span) => format!(
            "\"span\",\"trace\":{},\"span\":{}",
            span.trace.0,
            span_json(span)
        ),
    };
    format!("{{\"frame\":{},\"kind\":{body}}}", event.frame)
}

impl TelemetrySink for HealthMonitor {
    fn enabled(&self) -> bool {
        true
    }

    fn declare_pe(&self, slot: u8, name: &'static str) {
        self.recorder.declare_pe(slot, name);
    }

    fn window(&self, report: &WindowReport) {
        self.recorder.window(report);
        // A zero-frame window carries only the drain's counters.
        if report.frames == 0 {
            return;
        }
        let mut alerts = Vec::new();
        self.judge_window(&mut self.state(), report, &mut alerts);
        self.apply_policy(&alerts);
    }

    fn controller(&self, cycles: u64, instructions: u64) {
        self.recorder.controller(cycles, instructions);
    }

    fn event(&self, event: Event) {
        // Only responses and faults reach the watchdog; the rest go
        // straight to the recorder, off its lock.
        if !matches!(
            event.kind,
            EventKind::ClosedLoop { .. } | EventKind::Fault { .. }
        ) {
            return self.recorder.event(event);
        }
        self.recorder.event(event.clone());
        let mut alerts = Vec::new();
        self.inspect(&mut self.state(), &event, &mut alerts);
        self.apply_policy(&alerts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SlotWindow;

    fn monitor(config: HealthConfig) -> HealthMonitor {
        HealthMonitor::new(Arc::new(Recorder::new(1024)), config)
    }

    /// A 1 ms window from `start` carrying 10 KB of radio traffic:
    /// 80 Mbps, over the ceiling.
    fn radio_overload(mon: &HealthMonitor, start: u64) {
        mon.window(&WindowReport {
            start,
            frames: 30,
            radio_bytes: 10_000,
            ..WindowReport::default()
        });
    }

    /// A closed-loop response 50 frames late against the 30-frame deadline.
    fn deadline_miss(mon: &HealthMonitor, frame: u64) {
        mon.event(Event {
            frame,
            kind: EventKind::ClosedLoop {
                detect_frame: frame,
                latency_frames: 50,
            },
        });
    }

    /// A 300-frame window from `start` whose domains draw `mws`.
    fn power_window(mon: &HealthMonitor, start: u64, mws: &[f64]) {
        let slots = mws
            .iter()
            .map(|&milliwatts| SlotWindow {
                busy_cycles: 10,
                milliwatts,
                ..SlotWindow::default()
            })
            .collect();
        mon.window(&WindowReport {
            start,
            frames: 300,
            slots,
            ..WindowReport::default()
        });
    }

    #[test]
    fn within_budget_raises_nothing() {
        let mon = monitor(HealthConfig::default());
        power_window(&mon, 0, &[4.0, 5.0]);
        power_window(&mon, 300, &[3.0, 2.0]);
        let status = mon.status();
        assert_eq!(status.total_alerts(), 0);
        assert_eq!(status.power_windows, 2);
        assert_eq!(status.worst_window, Some((300, 9.0)));
        assert!((status.headroom_fraction().unwrap() - 0.4).abs() < 1e-9);
        assert!(mon.postmortem().is_none());
        assert!(!mon.tripped());
    }

    #[test]
    fn budget_violation_raises_critical_and_latches_postmortem() {
        let mon = monitor(HealthConfig {
            budget_mw: 1.0,
            ..HealthConfig::default()
        });
        power_window(&mon, 0, &[0.7, 0.9]);
        power_window(&mon, 300, &[0.1]);
        let status = mon.status();
        assert_eq!(status.severity_counts[Severity::Critical as usize], 1);
        let entry = status.alerts[0];
        assert_eq!(entry.alert.frame, 300, "judged at the window's end");
        assert_eq!(entry.repeat_count, 1);
        assert!(
            matches!(entry.kind(), AlertKind::PowerBudget { window_mw, .. }
            if (window_mw - 1.6).abs() < 1e-9)
        );

        let dump = mon.postmortem().expect("critical alert must latch a dump");
        json::validate(&dump).unwrap();
        assert!(dump.contains("\"reason\":\"critical alert: power_budget\""));
        assert!(dump.contains("\"recent_events\""));
        // The alert's timeline event reached the recorder.
        assert!(mon.recorder().events().iter().any(|e| matches!(
            e.kind,
            EventKind::Health {
                name: "power_budget",
                ..
            }
        )));
    }

    #[test]
    fn a_window_is_judged_in_the_call_that_delivers_it() {
        let mon = monitor(HealthConfig {
            budget_mw: 1.0,
            ..HealthConfig::default()
        });
        power_window(&mon, 0, &[2.0]); // never followed by another window
        let dump = mon.postmortem().expect("the violating window latched");
        // The dump reads the ledger of exactly the window that broke.
        assert!(dump.contains("\"frame\":300,"), "{dump}");
        assert!(dump.contains("\"counters\":{\"frames\":300,"), "{dump}");
        assert!(dump.contains("\"busy_cycles\":10,"), "{dump}");
        // The window itself is one entry of the dump's recent events.
        assert!(
            dump.contains(
                "{\"frame\":0,\"kind\":\"window\",\"frames\":300,\"noc_bytes\":0,\
                 \"noc_transfers\":0,\"radio_bytes\":0,\"slots\":[{\"slot\":0,\"name\":\"?\",\
                 \"busy_cycles\":10,\"stall_cycles\":0,\"bytes_in\":0,\"bytes_out\":0,\
                 \"fifo_high_water\":0,\"milliwatts\":2}]}"
            ),
            "{dump}"
        );
    }

    #[test]
    fn deadline_miss_is_critical_but_on_time_loops_are_not() {
        let mon = monitor(HealthConfig::default());
        mon.event(Event {
            frame: 100,
            kind: EventKind::ClosedLoop {
                detect_frame: 90,
                latency_frames: 10,
            },
        });
        assert_eq!(mon.status().total_alerts(), 0);
        mon.event(Event {
            frame: 200,
            kind: EventKind::ClosedLoop {
                detect_frame: 150,
                latency_frames: 50,
            },
        });
        let status = mon.status();
        assert_eq!(status.severity_counts[Severity::Critical as usize], 1);
        assert!(matches!(
            status.alerts[0].kind(),
            AlertKind::DeadlineMiss {
                latency_frames: 50,
                deadline_frames: 30
            }
        ));
    }

    #[test]
    fn radio_saturation_is_a_warning() {
        let mon = monitor(HealthConfig::default());
        radio_overload(&mon, 60);
        let status = mon.status();
        assert_eq!(status.severity_counts[Severity::Warning as usize], 1);
        assert_eq!(status.severity_counts[Severity::Critical as usize], 0);
        assert!(mon.postmortem().is_none(), "warnings must not latch dumps");
        assert!(!mon.tripped());
    }

    #[test]
    fn fail_fast_trips_on_critical_only() {
        let mon = monitor(HealthConfig {
            budget_mw: 1.0,
            policy: AlertPolicy::FailFast,
            ..HealthConfig::default()
        });
        radio_overload(&mon, 0);
        assert!(!mon.tripped(), "a warning must not trip fail-fast");
        power_window(&mon, 30, &[2.0]);
        assert!(mon.tripped());
    }

    #[test]
    fn callback_policy_sees_each_alert() {
        use std::sync::atomic::AtomicU64;
        let hits = Arc::new(AtomicU64::new(0));
        let seen = hits.clone();
        let mon = monitor(HealthConfig {
            policy: AlertPolicy::Callback(Arc::new(move |alert| {
                assert!(matches!(alert.kind, AlertKind::RadioThroughput { .. }));
                seen.fetch_add(1, Ordering::Relaxed);
            })),
            ..HealthConfig::default()
        });
        for frame in [30, 60, 90] {
            radio_overload(&mon, frame);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn runtime_error_latches_postmortem_with_context() {
        let mon = monitor(HealthConfig::default());
        mon.event(Event {
            frame: 5,
            kind: EventKind::Marker { name: "seizure" },
        });
        mon.event(Event {
            frame: 10,
            kind: EventKind::SwitchProgram {
                words: 12,
                generation: 3,
            },
        });
        mon.note_runtime_error("fifo overflow in LZ", 42);
        let dump = mon.postmortem().unwrap();
        json::validate(&dump).unwrap();
        assert!(dump.contains("\"reason\":\"fifo overflow in LZ\""));
        assert!(dump.contains("\"frame\":42"));
        assert!(dump.contains("\"fabric_generation\":3"));
        assert!(dump.contains("\"active_pipeline\":\"seizure\""));
        // First dump wins; later errors don't overwrite it.
        mon.note_runtime_error("second failure", 99);
        assert_eq!(mon.postmortem().unwrap(), dump);
    }

    #[test]
    fn flight_recorder_ring_is_bounded() {
        let mon = HealthMonitor::new(Arc::new(Recorder::new(4)), HealthConfig::default());
        for frame in 0..20 {
            mon.event(Event {
                frame,
                kind: EventKind::Marker { name: "tick" },
            });
        }
        mon.note_runtime_error("boom", 20);
        let dump = mon.postmortem().unwrap();
        json::validate(&dump).unwrap();
        // Only the newest four events survive.
        assert!(dump.contains("\"frame\":19,\"kind\":\"marker\""));
        assert!(!dump.contains("\"frame\":0,\"kind\":\"marker\""));
    }

    #[test]
    fn alert_log_is_bounded_but_counts_everything() {
        let mon = monitor(HealthConfig::default());
        // Alternating envelopes so consecutive alerts never share a
        // condition — every alert starts a new run and the retention cap
        // is what bounds the log.
        for frame in 0..(MAX_ALERTS as u64 + 50) {
            if frame % 2 == 0 {
                radio_overload(&mon, frame);
            } else {
                deadline_miss(&mon, frame);
            }
        }
        let status = mon.status();
        assert_eq!(status.alerts.len(), MAX_ALERTS);
        assert_eq!(status.alerts_dropped, 50);
        assert_eq!(status.total_alerts(), MAX_ALERTS as u64 + 50);
        assert!(status.alerts.iter().all(|a| a.repeat_count == 1));
    }

    #[test]
    fn repeated_identical_alerts_coalesce_into_one_run() {
        let mon = monitor(HealthConfig::default());
        for frame in [30u64, 60, 90, 120] {
            radio_overload(&mon, frame);
        }
        let status = mon.status();
        assert_eq!(status.alerts.len(), 1, "one run, not four entries");
        let run = status.alerts[0];
        assert_eq!(run.repeat_count, 4);
        assert_eq!(run.first_frame, 30);
        assert_eq!(run.last_frame, 120);
        assert_eq!(run.alert.frame, 120, "entry carries latest occurrence");
        // Every occurrence still counts toward severity totals...
        assert_eq!(status.severity_counts[Severity::Warning as usize], 4);
        assert_eq!(status.alerts_dropped, 0);
        // ...but the timeline carries one Health event, not four.
        let health_events = mon
            .recorder()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Health { .. }))
            .count();
        assert_eq!(health_events, 1, "repeats must not flood the timeline");
    }

    #[test]
    fn a_different_condition_breaks_the_run() {
        let mon = monitor(HealthConfig::default());
        radio_overload(&mon, 30);
        radio_overload(&mon, 60);
        deadline_miss(&mon, 90);
        radio_overload(&mon, 120);
        let status = mon.status();
        // radio ×2, deadline, radio again: three runs.
        assert_eq!(status.alerts.len(), 3);
        assert_eq!(status.alerts[0].repeat_count, 2);
        assert_eq!(status.alerts[1].repeat_count, 1);
        assert_eq!(status.alerts[2].repeat_count, 1);
    }

    #[test]
    fn raise_feeds_external_alerts_through_the_normal_path() {
        let mon = monitor(HealthConfig::default());
        let alert = HealthAlert {
            frame: 900,
            kind: AlertKind::SloBurnRate {
                objective: "power",
                fast: false,
                burn_rate: 7.5,
                threshold: 6.0,
            },
        };
        mon.raise(alert);
        mon.raise(HealthAlert {
            frame: 1200,
            ..alert
        });
        let status = mon.status();
        assert_eq!(status.severity_counts[Severity::Warning as usize], 2);
        assert_eq!(status.alerts.len(), 1, "same objective+policy coalesces");
        assert_eq!(status.alerts[0].repeat_count, 2);
        assert!(mon.postmortem().is_none(), "slow burn is a warning");
        // A fast-burn firing is critical: it latches the flight recorder.
        mon.raise(HealthAlert {
            frame: 1500,
            kind: AlertKind::SloBurnRate {
                objective: "power",
                fast: true,
                burn_rate: 15.0,
                threshold: 14.4,
            },
        });
        let dump = mon.postmortem().expect("fast burn must latch a dump");
        json::validate(&dump).unwrap();
        assert!(dump.contains("critical alert: slo_burn_rate"));
    }

    #[test]
    fn budget_is_adjustable_at_runtime() {
        let mon = monitor(HealthConfig {
            budget_mw: 10.0,
            ..HealthConfig::default()
        });
        power_window(&mon, 0, &[6.0]); // within 10 mW
                                       // A brownout shrinks the live budget; the next window is judged
                                       // against it.
        mon.set_budget_mw(5.0);
        assert_eq!(mon.budget_mw(), 5.0);
        power_window(&mon, 300, &[6.0]); // 6 > 5
        let status = mon.status();
        assert_eq!(status.severity_counts[Severity::Critical as usize], 1);
        assert!(matches!(
            status.alerts[0].kind(),
            AlertKind::PowerBudget { budget_mw, .. } if budget_mw == 5.0
        ));
        assert_eq!(status.budget_mw, 5.0);
    }

    #[test]
    fn critical_alert_escalates_tracing_and_dump_carries_trees() {
        let mon = monitor(HealthConfig {
            budget_mw: 1.0,
            ..HealthConfig::default()
        });
        let tracer = Arc::new(Tracer::new(7, 0));
        mon.set_tracer(tracer.clone());
        assert_eq!(tracer.sampler().forced_pending(), 0);
        power_window(&mon, 0, &[2.0]);
        assert_eq!(
            tracer.sampler().forced_pending(),
            ESCALATE_TRACE_FRAMES,
            "critical alert must arm forced sampling"
        );
        // Simulate the escalated frames flowing through the fabric.
        let tag = tracer.begin_frame_into(301, &mut Vec::new());
        assert_ne!(tag, 0);
        tracer.record_batch(&[crate::tracing::TraceEvent::Delivery {
            tag,
            from: None,
            to: 0,
            to_name: "FFT",
            tokens: 1,
            bytes: 2,
            costs: crate::tracing::DeliveryCosts {
                service_ns: 10,
                ..Default::default()
            },
        }]);
        tracer.finalize_all();
        let dump = mon.postmortem().unwrap();
        json::validate(&dump).unwrap();
        assert!(
            dump.contains("\"span_trees\":[{"),
            "dump must embed assembled trees: {dump}"
        );
    }

    #[test]
    fn forwards_windows_and_controller_runs_to_the_recorder() {
        let mon = monitor(HealthConfig::default());
        mon.declare_pe(0, "FFT");
        mon.window(&WindowReport {
            start: 0,
            frames: 30,
            slots: vec![SlotWindow {
                busy_cycles: 123,
                fifo_high_water: 7,
                ..SlotWindow::default()
            }],
            frame_latency_ns: vec![1_000],
            ..WindowReport::default()
        });
        mon.controller(400, 100);
        let snap = mon.recorder().snapshot();
        assert_eq!(snap.pes[0].busy_cycles, 123);
        assert_eq!(snap.pes[0].fifo_high_water, 7);
        assert_eq!(snap.pipelines.len(), 1);
        assert_eq!(snap.controller_cycles, 400);
        assert_eq!(mon.status().power_windows, 1);
    }
}
