//! Embedded time-series store with multi-resolution downsampling.
//!
//! Every surface the crate had before this module is a point-in-time
//! snapshot: `expose` renders the counters *now*, the [`HealthMonitor`]
//! judges the window *now*. A fleet serving implants for years needs
//! history — error budgets burn over minutes, power creep develops over
//! hours — so this module retains it, under implant-grade constraints:
//!
//! * **Allocation-bounded.** Every series is a fixed-capacity ring of raw
//!   points plus two fixed-capacity rings of downsampled buckets
//!   (raw → ~10 s → ~1 m by default). Nothing grows after construction;
//!   old data is evicted, never reallocated.
//! * **Window-granular.** The [`HealthMonitor`] feeds the store only the
//!   readings it already judges at sampling-window cadence (power windows,
//!   FIFO windows, radio windows, closed-loop completions), so the hot
//!   per-frame path is untouched and the attached overhead stays ≤2%
//!   (proven by the `continuous_telemetry` A/B section in
//!   `BENCH_runtime.json`).
//! * **Deterministic.** Identical event streams produce byte-identical
//!   [`Tsdb::snapshot_json`] dumps at any thread count — series are fixed
//!   at construction and iterated in declaration order, and the JSON is
//!   hand-rolled (see [`crate::json`]).
//!
//! Alongside each absolute series (`power_mw`, `fifo_depth`, ...) the
//! monitor records a *utilization* series — observed value divided by
//! the live envelope limit — so the [`crate::slo`] engine can treat every
//! envelope as the same dimensionless SLI, and a budget change (brownout)
//! moves the utilization series even when the raw draw is constant.

use std::sync::Arc;

use crate::anomaly::{AnomalyDetector, Detection};
use crate::health::{AlertKind, HealthAlert, HealthMonitor};
use crate::json;
use crate::slo::{SloEngine, SloStatus};

/// Number of distinct series a [`Tsdb`] holds (one per [`SeriesKind`]).
pub const SERIES_COUNT: usize = 9;

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
    /// End-of-window FIFO occupancy, tokens.
    FifoDepth,
    /// FIFO occupancy divided by the backpressure watermark.
    FifoUtilization,
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
        SeriesKind::FifoDepth,
        SeriesKind::FifoUtilization,
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
            SeriesKind::FifoDepth => "fifo_depth",
            SeriesKind::FifoUtilization => "fifo_utilization",
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
            SeriesKind::FifoDepth => "tokens",
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
            SeriesKind::FifoDepth => 4,
            SeriesKind::FifoUtilization => 5,
            SeriesKind::RadioBps => 6,
            SeriesKind::RadioUtilization => 7,
            SeriesKind::FrameLatencyNs => 8,
        }
    }
}

/// One raw sample: a value timestamped in sample frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub frame: u64,
    pub value: f64,
}

/// One downsampled bucket: min/max/sum/count of the raw points whose frame
/// falls in `[start_frame, start_frame + bucket_frames)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    pub start_frame: u64,
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    pub count: u64,
}

impl Bucket {
    fn seed(start_frame: u64, value: f64) -> Self {
        Self {
            start_frame,
            min: value,
            max: value,
            sum: value,
            count: 1,
        }
    }

    fn fold(&mut self, value: f64) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.count += 1;
    }

    /// Mean of the bucket's points (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One downsampling resolution: a bounded ring of sealed buckets plus the
/// bucket currently being accumulated.
#[derive(Debug, Clone)]
struct TierState {
    bucket_frames: u64,
    buckets: Vec<Bucket>,
    next: usize,
    sealed: u64,
    evicted: u64,
    open: Option<Bucket>,
}

impl TierState {
    fn new(bucket_frames: u64) -> Self {
        Self {
            bucket_frames: bucket_frames.max(1),
            buckets: Vec::new(),
            next: 0,
            sealed: 0,
            evicted: 0,
            open: None,
        }
    }

    fn record(&mut self, frame: u64, value: f64, capacity: usize) {
        let start = frame - frame % self.bucket_frames;
        match &mut self.open {
            Some(open) if open.start_frame == start => open.fold(value),
            Some(_) => {
                let sealed = self.open.take().unwrap();
                self.seal(sealed, capacity);
                self.open = Some(Bucket::seed(start, value));
            }
            None => self.open = Some(Bucket::seed(start, value)),
        }
    }

    fn seal(&mut self, bucket: Bucket, capacity: usize) {
        if capacity == 0 {
            self.evicted += 1;
            self.sealed += 1;
            return;
        }
        if self.buckets.len() < capacity {
            self.buckets.push(bucket);
        } else {
            self.buckets[self.next] = bucket;
            self.evicted += 1;
        }
        self.next = (self.next + 1) % capacity;
        self.sealed += 1;
    }

    /// Sealed buckets oldest-first, then the open bucket if any.
    fn ordered(&self) -> Vec<Bucket> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        if self.evicted == 0 || self.buckets.is_empty() {
            out.extend_from_slice(&self.buckets);
        } else {
            out.extend_from_slice(&self.buckets[self.next..]);
            out.extend_from_slice(&self.buckets[..self.next]);
        }
        out.extend(self.open);
        out
    }
}

/// One bounded series: a raw-point ring plus its downsampling tiers.
#[derive(Debug, Clone)]
pub struct Series {
    raw: Vec<Point>,
    next: usize,
    total: u64,
    tiers: [TierState; 2],
    capacity: usize,
    bucket_capacity: usize,
}

impl Series {
    fn new(config: &TsdbConfig) -> Self {
        Self {
            raw: Vec::new(),
            next: 0,
            total: 0,
            tiers: [
                TierState::new(config.bucket_frames[0]),
                TierState::new(config.bucket_frames[1]),
            ],
            capacity: config.raw_capacity.max(1),
            bucket_capacity: config.bucket_capacity,
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
        for tier in &mut self.tiers {
            tier.record(frame, value, self.bucket_capacity);
        }
    }

    /// Points ever recorded (retained or evicted).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Points currently retained in the raw ring.
    pub fn retained(&self) -> usize {
        self.raw.len()
    }

    /// Absolute index of the oldest retained point. Point indices are
    /// stable over the series' lifetime: index `i` is the `i`-th point ever
    /// recorded, valid while `first_index() <= i < total()`.
    pub fn first_index(&self) -> u64 {
        self.total - self.raw.len() as u64
    }

    /// The point at absolute index `index`, if still retained.
    pub fn point(&self, index: u64) -> Option<Point> {
        if index < self.first_index() || index >= self.total {
            return None;
        }
        let back = (self.total - 1 - index) as usize;
        let slot = (self.next + self.capacity - 1 - back % self.capacity) % self.capacity;
        Some(self.raw[slot])
    }

    /// The most recent point, if any.
    pub fn latest(&self) -> Option<Point> {
        self.point(self.total.checked_sub(1)?)
    }

    /// Retained raw points oldest-first.
    pub fn points(&self) -> Vec<Point> {
        (self.first_index()..self.total)
            .filter_map(|i| self.point(i))
            .collect()
    }

    /// Retained points with `frame > cutoff`, as `(total, bad)` where a
    /// point is *bad* when its value exceeds `margin` — the window query
    /// the burn-rate engine runs.
    pub fn window_counts(&self, cutoff: u64, margin: f64) -> (u64, u64) {
        let mut total = 0u64;
        let mut bad = 0u64;
        let mut index = self.total;
        while index > self.first_index() {
            index -= 1;
            let p = self.point(index).unwrap();
            if p.frame <= cutoff {
                break;
            }
            total += 1;
            if p.value > margin {
                bad += 1;
            }
        }
        (total, bad)
    }

    /// Downsampled buckets of tier `tier` (0 = fine, 1 = coarse),
    /// oldest-first, including the still-open bucket.
    pub fn buckets(&self, tier: usize) -> Vec<Bucket> {
        self.tiers[tier].ordered()
    }

    /// Bucket width of tier `tier`, in frames.
    pub fn bucket_frames(&self, tier: usize) -> u64 {
        self.tiers[tier].bucket_frames
    }
}

/// Ring capacities and downsampling widths for a [`Tsdb`].
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Raw points retained per series.
    pub raw_capacity: usize,
    /// Bucket widths in frames for the two downsampling tiers. The
    /// defaults are 10 s and 1 m of biological time at 30 kHz.
    pub bucket_frames: [u64; 2],
    /// Sealed buckets retained per tier per series.
    pub bucket_capacity: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        Self {
            raw_capacity: 512,
            bucket_frames: [300_000, 1_800_000],
            bucket_capacity: 128,
        }
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

    /// Serialize every series — raw ring plus both downsampled tiers — as
    /// a deterministic JSON document. Identical recorded histories render
    /// byte-identically: series appear in [`SeriesKind::ALL`] order and all
    /// numbers go through [`json::number`].
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
                let tiers: Vec<String> = (0..s.tiers.len())
                    .map(|t| {
                        let buckets: Vec<String> = s
                            .buckets(t)
                            .iter()
                            .map(|b| {
                                format!(
                                    "{{\"s\":{},\"min\":{},\"max\":{},\"sum\":{},\"count\":{}}}",
                                    b.start_frame,
                                    json::number(b.min),
                                    json::number(b.max),
                                    json::number(b.sum),
                                    b.count,
                                )
                            })
                            .collect();
                        format!(
                            "{{\"bucket_frames\":{},\"evicted\":{},\"buckets\":[{}]}}",
                            s.bucket_frames(t),
                            s.tiers[t].evicted,
                            buckets.join(","),
                        )
                    })
                    .collect();
                format!(
                    "{{\"name\":{},\"unit\":{},\"total\":{},\"dropped\":{},\
                     \"raw\":[{}],\"tiers\":[{}]}}",
                    json::string(kind.name()),
                    json::string(kind.unit()),
                    s.total(),
                    s.total() - s.retained() as u64,
                    raw.join(","),
                    tiers.join(","),
                )
            })
            .collect();
        out.push_str(&series.join(","));
        out.push_str("]}");
        out
    }
}

/// Configuration for the whole continuous layer: store capacities, SLO
/// burn-rate policies, and anomaly detectors.
#[derive(Debug, Clone, Default)]
pub struct ContinuousConfig {
    pub tsdb: TsdbConfig,
    pub slo: crate::slo::SloConfig,
    pub anomaly: crate::anomaly::AnomalyConfig,
}

/// Everything the continuous layer knows at one instant — what
/// `expose::render_continuous_into` and fleet triage consume.
#[derive(Debug, Clone)]
pub struct ContinuousStatus {
    /// Per series: kind, points ever recorded, points retained, latest.
    pub series: Vec<(SeriesKind, u64, usize, Option<Point>)>,
    /// Burn-rate engine state per objective.
    pub slo: SloStatus,
    /// Anomaly detections retained (bounded), ever flagged, and dropped.
    pub detections: Vec<Detection>,
    pub anomalies_total: u64,
    pub anomalies_dropped: u64,
}

/// The store a [`ContinuousTelemetry`] installs in its monitor: the tsdb
/// and the engines that judge it. It lives under the monitor's state
/// lock, which feeds it every window reading.
pub(crate) struct ContinuousState {
    pub(crate) tsdb: Tsdb,
    slo: SloEngine,
    anomaly: AnomalyDetector,
    /// Most recent window-event frame — the timestamp given to latency
    /// batches, which arrive without one.
    pub(crate) last_frame: u64,
}

impl ContinuousState {
    fn new(config: ContinuousConfig) -> Self {
        Self {
            tsdb: Tsdb::new(&config.tsdb),
            slo: SloEngine::new(config.slo),
            anomaly: AnomalyDetector::new(config.anomaly),
            last_frame: 0,
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

    /// One evaluation pass at a closed power window: the burn-rate
    /// engine's firings as alerts, and whether drift detection flagged
    /// anything new.
    pub(crate) fn poll(&mut self, now: u64) -> (Vec<HealthAlert>, bool) {
        let firings = self
            .slo
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
            });
        (firings.collect(), self.anomaly.poll(&self.tsdb) > 0)
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
            detections: self.anomaly.detections().to_vec(),
            anomalies_total: self.anomaly.total(),
            anomalies_dropped: self.anomaly.dropped(),
        }
    }
}

/// The continuous-telemetry layer: a time-series store, SLO burn-rate
/// engine and drift detector that live inside a [`HealthMonitor`]. The
/// monitor stays the device's sink (chain `Runtime → HealthMonitor →
/// Recorder`; attach it with `HaloSystem::attach_continuous`). Each window
/// reading it judges goes into the [`Tsdb`] with its utilization, and each
/// closed power window polls the engines: burn-rate firings are raised
/// like any envelope violation, so they reach the flight recorder and
/// post-mortems, and fresh drift detections escalate the attached
/// tracer's sampling via `force_next`, same as critical alerts. This
/// handle installs the store and reads it back.
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

    /// Close the monitor's pending power window ([`HealthMonitor::flush`]),
    /// so accessors reflect a run's last (possibly partial) window.
    /// Idempotent — a second flush with no new data changes nothing,
    /// which keeps repeated snapshots byte-identical.
    pub fn flush(&self) {
        self.monitor.flush();
    }

    /// The deterministic JSON dump of every stored series (flushes first).
    pub fn snapshot_json(&self) -> String {
        let sample_rate = self.monitor.recorder().sample_rate_hz();
        self.with_tsdb(|tsdb| tsdb.snapshot_json(sample_rate))
    }

    /// Run `f` against the store (flushes first). The tsdb cannot be
    /// handed out by reference — it lives behind the monitor's mutex — so
    /// queries go through this scoped accessor.
    pub fn with_tsdb<R>(&self, f: impl FnOnce(&Tsdb) -> R) -> R {
        self.monitor.with_continuous(|c| f(&c.tsdb))
    }

    /// Point-in-time digest of series totals, SLO state, and anomaly
    /// detections (flushes first).
    pub fn status(&self) -> ContinuousStatus {
        self.monitor.with_continuous(ContinuousState::status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::recorder::Recorder;
    use crate::sink::{Event, EventKind, TelemetrySink};

    fn small_config() -> TsdbConfig {
        TsdbConfig {
            raw_capacity: 8,
            bucket_frames: [10, 100],
            bucket_capacity: 4,
        }
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
        assert_eq!(s.first_index(), 12);
        assert_eq!(s.point(11), None, "evicted points are gone");
        assert_eq!(s.point(12).unwrap().value, 12.0);
        assert_eq!(s.latest().unwrap().value, 19.0);
        let points = s.points();
        assert_eq!(points.len(), 8);
        assert!(points.windows(2).all(|w| w[0].frame < w[1].frame));
    }

    #[test]
    fn downsampling_buckets_carry_min_max_sum_count() {
        let mut db = Tsdb::new(&small_config());
        // Frames 0..25 → tier-0 buckets [0,10), [10,20), [20,30)-open.
        for i in 0..25u64 {
            db.record(SeriesKind::PowerMw, i, i as f64);
        }
        let buckets = db.series(SeriesKind::PowerMw).buckets(0);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].start_frame, 0);
        assert_eq!(buckets[0].count, 10);
        assert_eq!(buckets[0].min, 0.0);
        assert_eq!(buckets[0].max, 9.0);
        assert_eq!(buckets[0].sum, 45.0);
        assert_eq!(buckets[2].count, 5, "open bucket included");
        // The coarse tier holds everything in one open bucket.
        let coarse = db.series(SeriesKind::PowerMw).buckets(1);
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].count, 25);
        assert!((coarse[0].mean() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_ring_is_bounded() {
        let mut db = Tsdb::new(&small_config());
        // 100 tier-0 buckets' worth of points; only 4 sealed survive.
        for i in 0..1000u64 {
            db.record(SeriesKind::PowerMw, i, 1.0);
        }
        let s = db.series(SeriesKind::PowerMw);
        let buckets = s.buckets(0);
        assert_eq!(buckets.len(), 5); // 4 sealed + open
        assert!(buckets
            .windows(2)
            .all(|w| w[0].start_frame < w[1].start_frame));
        assert_eq!(buckets.last().unwrap().start_frame, 990);
    }

    #[test]
    fn window_counts_respect_cutoff_and_margin() {
        let mut db = Tsdb::new(&TsdbConfig {
            raw_capacity: 64,
            ..small_config()
        });
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
        assert!(a.contains("\"bucket_frames\":10"));
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
        for frame in [0u64, 300] {
            for slot in 0..2u8 {
                ct.monitor().event(Event {
                    frame,
                    kind: EventKind::PowerSample {
                        slot,
                        name: "PE",
                        milliwatts: 2.5,
                    },
                });
            }
        }
        ct.flush();
        ct.with_tsdb(|db| {
            let power = db.series(SeriesKind::PowerMw);
            assert_eq!(power.total(), 2);
            assert_eq!(power.latest().unwrap().value, 5.0);
            let util = db.series(SeriesKind::PowerUtilization);
            assert!((util.latest().unwrap().value - 0.5).abs() < 1e-12);
        });
        // The monitor judged the same windows it stored.
        assert_eq!(ct.monitor().status().power_windows, 2);
    }

    #[test]
    fn repeated_snapshots_are_identical() {
        let recorder = Arc::new(Recorder::new(64));
        let monitor = Arc::new(HealthMonitor::new(recorder, HealthConfig::default()));
        let ct = ContinuousTelemetry::new(monitor, ContinuousConfig::default());
        ct.monitor().event(Event {
            frame: 0,
            kind: EventKind::PowerSample {
                slot: 0,
                name: "PE",
                milliwatts: 1.0,
            },
        });
        let a = ct.snapshot_json();
        let b = ct.snapshot_json();
        assert_eq!(a, b, "snapshot flush must be idempotent");
    }
}
