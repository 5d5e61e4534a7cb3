//! Embedded time-series store: bounded history of the readings the
//! watchdog judges, kept for the SLO burn-rate engine.
//!
//! Every other surface of the crate is a point-in-time snapshot: `expose`
//! renders the counters *now*, the [`HealthMonitor`] judges the window
//! *now*. Error budgets burn over many windows, so this module keeps the
//! most recent ones, under implant-grade constraints:
//!
//! * **Allocation-bounded.** Every series is one fixed-capacity ring of
//!   raw points, [`TsdbConfig::raw_capacity`] (512 by default). Nothing
//!   grows past it; the oldest point is evicted, never reallocated, and
//!   only counted ([`Series::total`], `dropped` in snapshots). At one power
//!   window per feature window, 512 points are about 9 minutes of
//!   biological time at the §V-A design point (32,768-frame windows at
//!   30 kHz), shorter than the SLO engine's default 1 h and 6 h windows
//!   (see [`crate::slo`]).
//! * **Window-granular.** The [`HealthMonitor`] feeds the store only the
//!   readings it already judges at sampling-window cadence (power windows,
//!   radio windows, closed-loop completions), so the hot
//!   per-frame path is untouched and the attached overhead stays ≤2%
//!   (proven by the `continuous_telemetry` A/B section in
//!   `BENCH_runtime.json`).
//! * **Deterministic.** Identical event streams produce byte-identical
//!   [`Tsdb::snapshot_json`] dumps at any thread count — series are fixed
//!   at construction and iterated in declaration order, and the JSON is
//!   hand-rolled (see [`crate::json`]).
//!
//! Alongside each absolute series (`power_mw`, `radio_bps`, ...) the
//! monitor records a *utilization* series — observed value divided by
//! the live envelope limit — so the [`crate::slo`] engine can treat every
//! envelope as the same dimensionless SLI, and a budget change (brownout)
//! moves the utilization series even when the raw draw is constant.

use std::sync::Arc;

use crate::health::{AlertKind, HealthAlert, HealthMonitor};
use crate::json;
use crate::slo::{SloEngine, SloStatus};

/// Number of distinct series a [`Tsdb`] holds (one per [`SeriesKind`]).
pub const SERIES_COUNT: usize = 7;

/// Which quantity a series tracks. The set is fixed at compile time so a
/// [`Tsdb`] allocates every ring up front and snapshots iterate in a
/// stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeriesKind {
    /// Summed domain power per sampling window, milliwatts.
    PowerMw,
    /// Window power divided by the live power budget.
    PowerUtilization,
    /// Closed-loop detection→stimulation latency, sample frames.
    ClosedLoopLatencyFrames,
    /// Closed-loop latency divided by the deadline.
    DeadlineUtilization,
    /// Radio throughput per window, bits per second.
    RadioBps,
    /// Radio throughput divided by the ceiling.
    RadioUtilization,
    /// End-to-end frame latency (window maximum), nanoseconds.
    FrameLatencyNs,
}

impl SeriesKind {
    /// Every series kind, in snapshot order.
    pub const ALL: [SeriesKind; SERIES_COUNT] = [
        SeriesKind::PowerMw,
        SeriesKind::PowerUtilization,
        SeriesKind::ClosedLoopLatencyFrames,
        SeriesKind::DeadlineUtilization,
        SeriesKind::RadioBps,
        SeriesKind::RadioUtilization,
        SeriesKind::FrameLatencyNs,
    ];

    /// Stable snake_case name used in snapshots and expositions.
    pub fn name(&self) -> &'static str {
        match self {
            SeriesKind::PowerMw => "power_mw",
            SeriesKind::PowerUtilization => "power_utilization",
            SeriesKind::ClosedLoopLatencyFrames => "closed_loop_latency_frames",
            SeriesKind::DeadlineUtilization => "deadline_utilization",
            SeriesKind::RadioBps => "radio_bps",
            SeriesKind::RadioUtilization => "radio_utilization",
            SeriesKind::FrameLatencyNs => "frame_latency_ns",
        }
    }

    /// Unit label carried by snapshots.
    pub fn unit(&self) -> &'static str {
        match self {
            SeriesKind::PowerMw => "mW",
            SeriesKind::ClosedLoopLatencyFrames => "frames",
            SeriesKind::RadioBps => "bits_per_s",
            SeriesKind::FrameLatencyNs => "ns",
            _ => "ratio",
        }
    }

    /// Dense index into per-series arrays.
    pub fn index(&self) -> usize {
        match self {
            SeriesKind::PowerMw => 0,
            SeriesKind::PowerUtilization => 1,
            SeriesKind::ClosedLoopLatencyFrames => 2,
            SeriesKind::DeadlineUtilization => 3,
            SeriesKind::RadioBps => 4,
            SeriesKind::RadioUtilization => 5,
            SeriesKind::FrameLatencyNs => 6,
        }
    }
}

/// One raw sample: a value timestamped in sample frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub frame: u64,
    pub value: f64,
}

/// One bounded series: a ring of the last `raw_capacity` raw points.
#[derive(Debug, Clone)]
pub struct Series {
    raw: Vec<Point>,
    next: usize,
    total: u64,
    capacity: usize,
}

impl Series {
    fn new(config: &TsdbConfig) -> Self {
        Self {
            raw: Vec::new(),
            next: 0,
            total: 0,
            capacity: config.raw_capacity.max(1),
        }
    }

    fn record(&mut self, frame: u64, value: f64) {
        if self.raw.len() < self.capacity {
            self.raw.push(Point { frame, value });
        } else {
            self.raw[self.next] = Point { frame, value };
        }
        self.next = (self.next + 1) % self.capacity;
        self.total += 1;
    }

    /// Points ever recorded (retained or evicted).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Points currently retained in the raw ring.
    pub fn retained(&self) -> usize {
        self.raw.len()
    }

    /// Retained raw points, oldest first. `next` is the slot the next
    /// point overwrites: the oldest point once the ring is full, the end
    /// of `raw` before that.
    fn iter(&self) -> impl DoubleEndedIterator<Item = Point> + '_ {
        self.raw[self.next..]
            .iter()
            .chain(&self.raw[..self.next])
            .copied()
    }

    /// The most recent point, if any.
    pub fn latest(&self) -> Option<Point> {
        self.iter().next_back()
    }

    /// Retained raw points oldest-first.
    pub fn points(&self) -> Vec<Point> {
        self.iter().collect()
    }

    /// Retained points with `frame > cutoff`, as `(total, bad)` where a
    /// point is *bad* when its value exceeds `margin` — the window query
    /// the burn-rate engine runs.
    pub fn window_counts(&self, cutoff: u64, margin: f64) -> (u64, u64) {
        self.iter()
            .rev()
            .take_while(|p| p.frame > cutoff)
            .fold((0, 0), |(total, bad), p| {
                (total + 1, bad + u64::from(p.value > margin))
            })
    }
}

/// Ring capacity for a [`Tsdb`].
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Raw points retained per series. Older points are counted in
    /// [`Series::total`] but evicted.
    pub raw_capacity: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        Self { raw_capacity: 512 }
    }
}

/// The store: one bounded [`Series`] per [`SeriesKind`], allocated at
/// construction.
#[derive(Debug, Clone)]
pub struct Tsdb {
    series: Vec<Series>,
}

impl Tsdb {
    pub fn new(config: &TsdbConfig) -> Self {
        Self {
            series: (0..SERIES_COUNT).map(|_| Series::new(config)).collect(),
        }
    }

    /// Record one point into the `kind` series.
    pub fn record(&mut self, kind: SeriesKind, frame: u64, value: f64) {
        self.series[kind.index()].record(frame, value);
    }

    /// The series tracking `kind`.
    pub fn series(&self, kind: SeriesKind) -> &Series {
        &self.series[kind.index()]
    }

    /// Serialize every series' raw ring as a deterministic JSON document.
    /// Identical recorded histories render byte-identically: series appear
    /// in [`SeriesKind::ALL`] order and all numbers go through
    /// [`json::number`].
    pub fn snapshot_json(&self, sample_rate_hz: u32) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"halo_tsdb\":1,\"sample_rate_hz\":{sample_rate_hz},\"series\":["
        ));
        let series: Vec<String> = SeriesKind::ALL
            .iter()
            .map(|kind| {
                let s = self.series(*kind);
                let raw: Vec<String> = s
                    .points()
                    .iter()
                    .map(|p| format!("{{\"f\":{},\"v\":{}}}", p.frame, json::number(p.value)))
                    .collect();
                format!(
                    "{{\"name\":{},\"unit\":{},\"total\":{},\"dropped\":{},\"raw\":[{}]}}",
                    json::string(kind.name()),
                    json::string(kind.unit()),
                    s.total(),
                    s.total() - s.retained() as u64,
                    raw.join(","),
                )
            })
            .collect();
        out.push_str(&series.join(","));
        out.push_str("]}");
        out
    }
}

/// Configuration for the whole continuous layer: store capacity and SLO
/// burn-rate policies.
#[derive(Debug, Clone, Default)]
pub struct ContinuousConfig {
    pub tsdb: TsdbConfig,
    pub slo: crate::slo::SloConfig,
}

/// Everything the continuous layer knows at one instant — what
/// `expose::render_continuous_into` and fleet triage consume.
#[derive(Debug, Clone)]
pub struct ContinuousStatus {
    /// Per series: kind, points ever recorded, points retained, latest.
    pub series: Vec<(SeriesKind, u64, usize, Option<Point>)>,
    /// Burn-rate engine state per objective.
    pub slo: SloStatus,
}

/// The store a [`ContinuousTelemetry`] installs in its monitor: the tsdb
/// and the burn-rate engine that judges it. It lives under the monitor's
/// state lock, which feeds it every window reading.
pub(crate) struct ContinuousState {
    pub(crate) tsdb: Tsdb,
    slo: SloEngine,
}

impl ContinuousState {
    fn new(config: ContinuousConfig) -> Self {
        Self {
            tsdb: Tsdb::new(&config.tsdb),
            slo: SloEngine::new(config.slo),
        }
    }

    /// Record a window reading into `series` and its utilization (value
    /// over `limit`, 0 without a limit) into the series that follows it in
    /// [`SeriesKind::ALL`].
    pub(crate) fn record(&mut self, series: SeriesKind, frame: u64, value: f64, limit: f64) {
        self.tsdb.record(series, frame, value);
        let utilization = if limit > 0.0 { value / limit } else { 0.0 };
        self.tsdb
            .record(SeriesKind::ALL[series.index() + 1], frame, utilization);
    }

    /// One evaluation pass at frame `now`: the burn-rate engine's
    /// firings, as alerts.
    pub(crate) fn poll(&mut self, now: u64) -> Vec<HealthAlert> {
        self.slo
            .poll(&self.tsdb, now)
            .into_iter()
            .map(|firing| HealthAlert {
                frame: now,
                kind: AlertKind::SloBurnRate {
                    objective: firing.objective,
                    fast: firing.fast,
                    burn_rate: firing.burn_rate,
                    threshold: firing.threshold,
                },
            })
            .collect()
    }

    fn status(&self) -> ContinuousStatus {
        ContinuousStatus {
            series: SeriesKind::ALL
                .iter()
                .map(|kind| {
                    let s = self.tsdb.series(*kind);
                    (*kind, s.total(), s.retained(), s.latest())
                })
                .collect(),
            slo: self.slo.status(),
        }
    }
}

/// The continuous-telemetry layer: a time-series store and SLO burn-rate
/// engine that live inside a [`HealthMonitor`]. The monitor stays the
/// device's sink (chain `Runtime → HealthMonitor → Recorder`; attach it
/// with `HaloSystem::attach_continuous`). Each window reading it judges
/// goes into the [`Tsdb`] with its utilization, and each judged power
/// window and each closed-loop response polls the burn-rate engine:
/// firings are raised like any envelope violation, so they reach the
/// flight recorder and post-mortems, and a fast-burn (critical) firing
/// escalates an attached tracer like any critical alert. This handle installs the store and
/// reads it back.
#[derive(Debug)]
pub struct ContinuousTelemetry {
    monitor: Arc<HealthMonitor>,
}

impl ContinuousTelemetry {
    /// A continuous layer installed in (and fed by) `monitor`.
    pub fn new(monitor: Arc<HealthMonitor>, config: ContinuousConfig) -> Self {
        monitor.install_continuous(ContinuousState::new(config));
        Self { monitor }
    }

    /// The monitor that feeds the store.
    pub fn monitor(&self) -> &Arc<HealthMonitor> {
        &self.monitor
    }

    /// The deterministic JSON dump of every stored series.
    pub fn snapshot_json(&self) -> String {
        let sample_rate = self.monitor.recorder().sample_rate_hz();
        self.with_tsdb(|tsdb| tsdb.snapshot_json(sample_rate))
    }

    /// Run `f` against the store. The tsdb cannot be
    /// handed out by reference — it lives behind the monitor's mutex — so
    /// queries go through this scoped accessor.
    pub fn with_tsdb<R>(&self, f: impl FnOnce(&Tsdb) -> R) -> R {
        self.monitor.with_continuous(|c| f(&c.tsdb))
    }

    /// Point-in-time digest of series totals and SLO state.
    pub fn status(&self) -> ContinuousStatus {
        self.monitor.with_continuous(ContinuousState::status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::recorder::Recorder;
    use crate::sink::{SlotWindow, TelemetrySink, WindowReport};

    /// A 300-frame window from `start` whose two domains draw 2.5 mW each.
    fn window(start: u64) -> WindowReport {
        let slot = SlotWindow {
            milliwatts: 2.5,
            ..SlotWindow::default()
        };
        WindowReport {
            start,
            frames: 300,
            slots: vec![slot; 2],
            frame_latency_ns: vec![1_000; 300],
            ..WindowReport::default()
        }
    }

    fn small_config() -> TsdbConfig {
        TsdbConfig { raw_capacity: 8 }
    }

    #[test]
    fn raw_ring_evicts_oldest_but_keeps_totals() {
        let mut db = Tsdb::new(&small_config());
        for i in 0..20u64 {
            db.record(SeriesKind::PowerMw, i, i as f64);
        }
        let s = db.series(SeriesKind::PowerMw);
        assert_eq!(s.total(), 20);
        assert_eq!(s.retained(), 8);
        let frames: Vec<u64> = s.points().iter().map(|p| p.frame).collect();
        assert_eq!(
            frames,
            (12..20).collect::<Vec<_>>(),
            "the oldest 12 are gone"
        );
        assert_eq!(s.latest().unwrap().value, 19.0);
    }

    #[test]
    fn window_counts_respect_cutoff_and_margin() {
        let mut db = Tsdb::new(&TsdbConfig { raw_capacity: 64 });
        for i in 0..10u64 {
            let v = if i >= 6 { 0.9 } else { 0.1 };
            db.record(SeriesKind::PowerUtilization, i * 10, v);
        }
        let s = db.series(SeriesKind::PowerUtilization);
        let (total, bad) = s.window_counts(40, 0.8);
        assert_eq!(total, 5); // frames 50..90
        assert_eq!(bad, 4); // frames 60..90
        let (all, _) = s.window_counts(0, 0.8);
        assert_eq!(all, 9, "cutoff is exclusive");
    }

    #[test]
    fn snapshot_is_valid_and_byte_stable() {
        let build = || {
            let mut db = Tsdb::new(&small_config());
            for i in 0..50u64 {
                db.record(SeriesKind::PowerMw, i, (i % 7) as f64 * 0.25);
                if i % 3 == 0 {
                    db.record(SeriesKind::RadioBps, i, i as f64 * 1000.0);
                }
            }
            db.snapshot_json(30_000)
        };
        let a = build();
        let b = build();
        json::validate(&a).unwrap();
        assert_eq!(a, b, "identical histories must render byte-identically");
        assert!(a.contains("\"name\":\"power_mw\""));
        // 50 points through an 8-point ring: the snapshot keeps the last 8
        // and counts the rest.
        assert!(a.contains("\"name\":\"power_mw\",\"unit\":\"mW\",\"total\":50,\"dropped\":42,"));
    }

    #[test]
    fn monitor_records_power_windows_and_utilization() {
        let recorder = Arc::new(Recorder::new(256).with_sample_rate_hz(30_000));
        let monitor = Arc::new(HealthMonitor::new(
            recorder,
            HealthConfig {
                budget_mw: 10.0,
                ..HealthConfig::default()
            },
        ));
        let ct = ContinuousTelemetry::new(monitor, ContinuousConfig::default());
        for start in [0u64, 300] {
            ct.monitor().window(&window(start));
        }
        ct.with_tsdb(|db| {
            let power = db.series(SeriesKind::PowerMw);
            assert_eq!(power.total(), 2);
            assert_eq!(
                power.latest().unwrap(),
                Point {
                    frame: 600,
                    value: 5.0
                }
            );
            let util = db.series(SeriesKind::PowerUtilization);
            assert!((util.latest().unwrap().value - 0.5).abs() < 1e-12);
            // Each window's worst frame latency, stamped at its start.
            let latency = db.series(SeriesKind::FrameLatencyNs);
            assert_eq!(
                latency.latest().unwrap(),
                Point {
                    frame: 300,
                    value: 1_000.0
                }
            );
            // Every window's radio reading, stamped at its start.
            assert_eq!(db.series(SeriesKind::RadioBps).total(), 2);
        });
        // The monitor judged the same windows it stored.
        assert_eq!(ct.monitor().status().power_windows, 2);
    }

    #[test]
    fn late_closed_loop_responses_are_polled_where_the_stream_stands() {
        use crate::health::AlertKind;
        use crate::sink::{Event, EventKind};
        use crate::slo::SloConfig;
        let monitor = Arc::new(HealthMonitor::new(
            Arc::new(Recorder::new(64)),
            HealthConfig {
                deadline_frames: 2,
                ..HealthConfig::default()
            },
        ));
        let slo = SloConfig {
            min_points: 3,
            ..SloConfig::scaled_to(12_000)
        };
        let ct = ContinuousTelemetry::new(
            monitor,
            ContinuousConfig {
                slo,
                ..ContinuousConfig::default()
            },
        );
        for start in [0u64, 300, 600] {
            ct.monitor().window(&window(start));
        }
        // Three responses at 100% of the deadline, scanned after the last
        // window: the third fills the deadline objective's lookback.
        for detect_frame in [100u64, 200, 400] {
            ct.monitor().event(Event {
                frame: detect_frame,
                kind: EventKind::ClosedLoop {
                    detect_frame,
                    latency_frames: 2,
                },
            });
        }
        let alerts = ct.monitor().status().alerts;
        let fast = alerts.iter().find(|a| {
            matches!(
                a.kind(),
                AlertKind::SloBurnRate {
                    objective: "deadline",
                    fast: true,
                    ..
                }
            )
        });
        assert_eq!(fast.map(|a| a.first_frame), Some(900));
        assert_eq!(ct.status().slo.objectives[1].1.fired, [1, 1]);
    }

    #[test]
    fn repeated_snapshots_are_identical() {
        let recorder = Arc::new(Recorder::new(64));
        let monitor = Arc::new(HealthMonitor::new(recorder, HealthConfig::default()));
        let ct = ContinuousTelemetry::new(monitor, ContinuousConfig::default());
        ct.monitor().window(&window(0));
        let a = ct.snapshot_json();
        let b = ct.snapshot_json();
        assert_eq!(a, b, "snapshots must not change the store");
    }
}
