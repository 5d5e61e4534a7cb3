//! Sampled causal tracing through the PE fabric.
//!
//! Aggregate counters say *that* p99 frame latency regressed; tracing says
//! *which hop* ate the budget. A [`TraceSampler`] deterministically tags a
//! configurable fraction of input frames with a [`TraceId`]. The runtime
//! propagates that id as a compact context — one sticky `u64` per PE output
//! FIFO, zero per-token state — and reports every delivery burst the tagged
//! tokens take part in. The [`Tracer`] turns those reports into
//! [`SpanRecord`]s on a per-trace virtual clock:
//!
//! * a root [`SpanKind::Frame`] span covering the trace end to end,
//! * one [`SpanKind::PeService`] span per delivery burst, with
//!   [`SpanKind::NocHop`], [`SpanKind::FifoWait`] and
//!   [`SpanKind::DomainCross`] children for the transfer, backpressure and
//!   clock-domain-crossing portions of the burst,
//! * [`SpanKind::RadioFrame`] / [`SpanKind::StimPulse`] spans for the
//!   uplink and closed-loop endpoints.
//!
//! The virtual clock only advances inside spans, so the leaf self-times of a
//! well-formed trace tile the root interval exactly — critical-path
//! attribution (see [`crate::span_tree`]) always sums to 100% of the traced
//! end-to-end latency. Completed traces land in a bounded ring and, when a
//! [`TelemetrySink`] is attached, are streamed into the recorder ring as
//! [`EventKind::Span`] events for Chrome-trace rendering.
//!
//! Sampling policy: with `every = N`, exactly one frame per window of `N`
//! is traced, at a SplitMix64-derived offset that varies per window — so the
//! rate holds within ±1 over any horizon while avoiding beat patterns with
//! windowed pipelines. [`TraceSampler::force_next`] lets the health monitor
//! escalate to always-on sampling for the frames following a critical alert.

use crate::sink::{Event, EventKind, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Identifier of one traced frame's causal tree. Non-zero; doubles as the
/// compact context stamped on PE output FIFOs (`0` means untraced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifier of a span within one trace. The root frame span is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u32);

/// `node` value for spans not pinned to a PE slot (the root frame span and
/// stimulation pulses, which belong to the system rather than one PE).
pub const NO_NODE: u8 = 0xFF;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Root span: the whole traced frame, begin 0 to end-to-end latency.
    Frame,
    /// A PE consuming one delivery burst (service cycles on the consumer).
    PeService,
    /// Backpressure: cycles the consumer stalled because its output FIFO
    /// still held the previous burst.
    FifoWait,
    /// Circuit-switched NoC transfer from producer to consumer.
    NocHop,
    /// Clock-domain boundary crossing between producer and consumer domains.
    DomainCross,
    /// Radio MAC framing/transmission of uplink bytes.
    RadioFrame,
    /// Closed-loop stimulation command issued in response to a detection.
    StimPulse,
}

impl SpanKind {
    /// Stable lowercase label (metric label values, JSON).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Frame => "frame",
            SpanKind::PeService => "pe_service",
            SpanKind::FifoWait => "fifo_wait",
            SpanKind::NocHop => "noc_hop",
            SpanKind::DomainCross => "domain_cross",
            SpanKind::RadioFrame => "radio_frame",
            SpanKind::StimPulse => "stim_pulse",
        }
    }

    /// Every kind, in a stable order (metric families, tests).
    pub fn all() -> [SpanKind; 7] {
        [
            SpanKind::Frame,
            SpanKind::PeService,
            SpanKind::FifoWait,
            SpanKind::NocHop,
            SpanKind::DomainCross,
            SpanKind::RadioFrame,
            SpanKind::StimPulse,
        ]
    }
}

/// One interval on a trace's virtual clock.
///
/// Times are nanoseconds since the traced frame entered the fabric, derived
/// from modeled hardware rates (PE service cycles at the domain anchor
/// frequency, NoC bytes at link capacity, radio bytes at the 46 Mbps
/// ceiling) — the same models the power/latency envelopes use, so span
/// durations line up with the aggregate histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// Span id, unique within the trace. Root is 0.
    pub id: SpanId,
    /// Parent span, `None` only for the root.
    pub parent: Option<SpanId>,
    /// What the interval measures.
    pub kind: SpanKind,
    /// PE slot the span is pinned to ([`NO_NODE`] for system spans). For
    /// [`SpanKind::NocHop`] this is the *producer* slot.
    pub node: u8,
    /// Consumer slot for [`SpanKind::NocHop`]; [`NO_NODE`] otherwise.
    pub to_node: u8,
    /// Static name: the PE kind name for service spans, the producer kind
    /// for hops, `"frame"`/`"radio"`/`"stim"` for system spans.
    pub name: &'static str,
    /// Start, nanoseconds on the trace clock.
    pub begin_ns: u64,
    /// End, nanoseconds on the trace clock (`end_ns >= begin_ns`).
    pub end_ns: u64,
    /// Tokens moved in the burst the span describes (0 for the root).
    pub tokens: u32,
    /// Wire bytes moved in the burst the span describes (0 for the root).
    pub bytes: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// A completed trace: the root frame index it was sampled at plus every
/// span recorded before it closed (root span first).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Trace id (equals the FIFO tag that propagated it).
    pub id: TraceId,
    /// Sample-frame index of the traced input frame.
    pub root_frame: u64,
    /// All spans, root (`id` 0) first, then in recording order.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the per-trace cap was hit.
    pub dropped_spans: u64,
}

impl TraceRecord {
    /// End-to-end latency of the traced frame in nanoseconds.
    pub fn end_to_end_ns(&self) -> u64 {
        self.spans.first().map_or(0, SpanRecord::duration_ns)
    }
}

/// SplitMix64 — the same mixer `halo_signal::SimRng` seeds with, reimplemented
/// locally so `halo-telemetry` stays dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic frame sampler with forced-escalation support.
///
/// Stratified: frame `f` is sampled iff
/// `f % every == splitmix64(seed ^ (f / every)) % every` — exactly one hit
/// per `every`-frame window at a pseudo-random per-window offset. The same
/// `(seed, every)` pair always samples the same frames, which is what makes
/// captured traces replayable.
#[derive(Debug)]
pub struct TraceSampler {
    seed: u64,
    every: u64,
    forced: AtomicU64,
}

impl TraceSampler {
    /// Sampler tracing one frame in `every` (`every == 0` disables
    /// steady-state sampling; only forced frames are traced).
    pub fn new(seed: u64, every: u64) -> Self {
        Self {
            seed,
            every,
            forced: AtomicU64::new(0),
        }
    }

    /// Sampler with steady-state sampling off (escalation-only).
    pub fn disabled(seed: u64) -> Self {
        Self::new(seed, 0)
    }

    /// Configured rate divisor (0 = disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// `true` when neither steady-state sampling nor a forced burst is
    /// active — the hot path's one-branch early exit.
    pub fn idle(&self) -> bool {
        self.every == 0 && self.forced.load(Ordering::Relaxed) == 0
    }

    /// The deterministic sampling rule alone (ignores forced escalation).
    pub fn would_sample(&self, frame: u64) -> bool {
        if self.every == 0 {
            return false;
        }
        let window = frame / self.every;
        frame % self.every == splitmix64(self.seed ^ window) % self.every
    }

    /// Decides the given frame, consuming one forced credit if any are
    /// pending. Forced frames are sampled unconditionally.
    pub fn sample(&self, frame: u64) -> bool {
        if self.forced.load(Ordering::Relaxed) > 0 {
            // fetch_update so concurrent consumers cannot underflow.
            let took = self
                .forced
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if took {
                return true;
            }
        }
        self.would_sample(frame)
    }

    /// Number of consecutive frames starting at `frame` that are
    /// guaranteed *not* sampled (0 when `frame` itself would be, or when
    /// forced credits are pending; `u64::MAX` when sampling is disabled
    /// and nothing is forced).
    ///
    /// [`Tracer::advance_quiet`] uses this to jump straight to the next
    /// frame the sampler picks.
    pub fn quiet_run(&self, frame: u64) -> u64 {
        if self.forced.load(Ordering::Relaxed) > 0 {
            return 0;
        }
        if self.every == 0 {
            return u64::MAX;
        }
        // Each `every`-frame window has exactly one hit at a deterministic
        // offset; the next hit is this window's (if still ahead) or the
        // following window's.
        let window = frame / self.every;
        let offset = splitmix64(self.seed ^ window) % self.every;
        let pos = frame % self.every;
        let next_hit = if pos <= offset {
            window * self.every + offset
        } else {
            let w = window + 1;
            w * self.every + splitmix64(self.seed ^ w) % self.every
        };
        next_hit - frame
    }

    /// Escalation hook: unconditionally sample the next `n` frames (used by
    /// the health monitor on critical alerts).
    pub fn force_next(&self, n: u64) {
        self.forced.fetch_add(n, Ordering::Relaxed);
    }

    /// Forced credits not yet consumed.
    pub fn forced_pending(&self) -> u64 {
        self.forced.load(Ordering::Relaxed)
    }
}

/// Per-delivery costs the runtime computes from its hardware models, in
/// nanoseconds on the consumer's clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeliveryCosts {
    /// NoC transfer time for the burst's wire bytes at link capacity.
    pub noc_ns: u64,
    /// Backpressure stall time observed on the consumer.
    pub wait_ns: u64,
    /// Clock-domain-crossing synchronizer penalty (0 when same domain).
    pub cross_ns: u64,
    /// Consumer service time for the burst's tokens.
    pub service_ns: u64,
}

/// One buffered trace event: a delivery burst or a radio framing,
/// captured by value.
///
/// The runtime records events into a plain `Vec` while it streams a frame
/// and commits them with one [`Tracer::record_batch`] call (one mutex
/// acquisition per frame instead of one per burst). Event order in the
/// buffer is the order spans land in the trace.
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent {
    /// A delivery burst: a [`SpanKind::PeService`] span on the consumer
    /// with hop/wait/cross children, advancing the trace clock by the
    /// total cost.
    Delivery {
        /// Trace tag the burst is attributed to.
        tag: u64,
        /// Producer `(slot, kind-name)`; `None` for ADC source ingest.
        from: Option<(u8, &'static str)>,
        /// Consumer slot.
        to: u8,
        /// Consumer kind name.
        to_name: &'static str,
        /// Tokens in the burst.
        tokens: u32,
        /// Wire bytes in the burst.
        bytes: u64,
        /// Modeled delivery costs.
        costs: DeliveryCosts,
    },
    /// Radio MAC framing of `bytes` uplink bytes.
    Radio {
        /// Trace tag the framing is attributed to.
        tag: u64,
        /// Radio-feeding slot.
        node: u8,
        /// Tokens framed.
        tokens: u32,
        /// Uplink bytes framed.
        bytes: u64,
        /// Modeled framing time.
        ns: u64,
    },
}

/// One ADC source delivery of a frame: the span a trace opened on that
/// frame records for the source route (see [`Tracer::advance_quiet`]).
#[derive(Debug, Clone, Copy)]
pub struct SourceSpan {
    /// Source PE slot.
    pub to: u8,
    /// Source PE kind name.
    pub to_name: &'static str,
    /// Tokens the frame delivers to the slot.
    pub tokens: u32,
    /// Wire bytes the frame delivers to the slot.
    pub bytes: u64,
    /// Modeled delivery costs.
    pub costs: DeliveryCosts,
}

/// Counters snapshot for exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Frames tagged for tracing (deterministic + forced).
    pub sampled: u64,
    /// Spans discarded (per-trace cap or completed-ring eviction).
    pub dropped_spans: u64,
    /// Traces closed and retained (or streamed to the sink).
    pub completed: u64,
    /// Traces currently accumulating spans.
    pub open: u64,
}

/// Hard cap on spans per trace; beyond it spans are counted as dropped so a
/// pathological fan-out cannot grow memory without bound.
const MAX_SPANS_PER_TRACE: usize = 4096;
/// Default number of completed traces retained for analysis.
const DEFAULT_DONE_CAPACITY: usize = 1024;
/// Open traces beyond this are force-closed oldest-first.
const MAX_OPEN_TRACES: usize = 8;

struct TraceBuild {
    id: u64,
    root_frame: u64,
    clock_ns: u64,
    spans: Vec<SpanRecord>,
    next_span: u32,
    dropped: u64,
}

impl TraceBuild {
    fn alloc_span(&mut self) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        id
    }
}

struct TracerInner {
    open: Vec<TraceBuild>,
    done: Vec<TraceRecord>,
    done_capacity: usize,
    next_trace: u64,
    completed: u64,
}

/// Collects spans for sampled frames and assembles them into
/// [`TraceRecord`]s.
///
/// All methods take `&self`; the mutable state sits behind a mutex that is
/// only touched for traced frames (the untraced hot path sees one relaxed
/// atomic load per frame and one `u64` read per burst).
pub struct Tracer {
    sampler: TraceSampler,
    linger_frames: u64,
    inner: Mutex<TracerInner>,
    sampled_total: AtomicU64,
    dropped_spans_total: AtomicU64,
    /// Held weakly: a health monitor used as the sink holds this tracer
    /// for its post-mortems, and strong links both ways would keep both
    /// alive after their device is dropped.
    sink: Mutex<Option<Weak<dyn TelemetrySink>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Tracer")
            .field("sampler", &self.sampler)
            .field("linger_frames", &self.linger_frames)
            .field("stats", &stats)
            .finish()
    }
}

impl Tracer {
    /// Tracer sampling one frame in `every` with the given seed.
    ///
    /// A trace stays open for `every` frames (64 when `every == 0`), long
    /// enough for block-buffering PEs to flush work attributable to the
    /// traced frame, then closes at the next frame boundary.
    pub fn new(seed: u64, every: u64) -> Self {
        Self {
            sampler: TraceSampler::new(seed, every),
            linger_frames: if every == 0 { 64 } else { every },
            inner: Mutex::new(TracerInner {
                open: Vec::new(),
                done: Vec::new(),
                done_capacity: DEFAULT_DONE_CAPACITY,
                next_trace: 1,
                completed: 0,
            }),
            sampled_total: AtomicU64::new(0),
            dropped_spans_total: AtomicU64::new(0),
            sink: Mutex::new(None),
        }
    }

    /// Overrides how many completed traces are retained (oldest evicted,
    /// their spans counted as dropped).
    pub fn with_done_capacity(self, capacity: usize) -> Self {
        self.inner.lock().unwrap().done_capacity = capacity.max(1);
        self
    }

    /// Overrides how many frames a trace lingers before closing.
    pub fn with_linger_frames(self, frames: u64) -> Self {
        let mut me = self;
        me.linger_frames = frames.max(1);
        me
    }

    /// The sampler (health escalation calls `sampler().force_next(n)`).
    pub fn sampler(&self) -> &TraceSampler {
        &self.sampler
    }

    /// Streams completed traces' spans into `sink` as [`EventKind::Span`]
    /// events (timestamped at the trace's root frame) for as long as
    /// something else keeps `sink` alive.
    pub fn set_sink(&self, sink: Arc<dyn TelemetrySink>) {
        *self.sink.lock().unwrap() = Some(Arc::downgrade(&sink));
    }

    /// The span sink, if one is set and still alive.
    fn sink(&self) -> Option<Arc<dyn TelemetrySink>> {
        self.sink.lock().unwrap().as_ref().and_then(Weak::upgrade)
    }

    /// One non-idle frame boundary: expires lingering traces, then opens a
    /// trace if the sampler picks `frame` (evicting the oldest open trace
    /// at the cap). Returns the new trace's tag, or 0.
    fn begin_locked(&self, inner: &mut TracerInner, frame: u64) -> u64 {
        self.expire(inner, frame);
        if !self.sampler.sample(frame) {
            return 0;
        }
        self.sampled_total.fetch_add(1, Ordering::Relaxed);
        if inner.open.len() >= MAX_OPEN_TRACES {
            let stale = inner.open.remove(0);
            self.close(inner, stale);
        }
        let id = inner.next_trace;
        inner.next_trace += 1;
        inner.open.push(TraceBuild {
            id,
            root_frame: frame,
            clock_ns: 0,
            spans: Vec::new(),
            next_span: 1,
            dropped: 0,
        });
        id
    }

    /// Advances over `frames` quiet frames starting at `first` under one
    /// lock, doing exactly what [`Tracer::begin_frame_into`] on each of
    /// them would, in frame order: traces expire at their linger frame,
    /// sampler hits and forced credits open traces (evicting the oldest
    /// at the cap), and `open` is refreshed unless the sampler is idle.
    ///
    /// A quiet frame emits nothing downstream, so its only spans are its
    /// source deliveries: every trace opened here records `sources`, as
    /// the runtime's per-frame path would have. Returns the tag of the
    /// last trace opened (0 if none), which the caller sets on the source
    /// PEs' output FIFOs. Only the frames where something happens are
    /// visited, so a run costs one lock plus a few compares per sampled or
    /// expiring frame.
    pub fn advance_quiet(
        &self,
        first: u64,
        frames: u64,
        sources: &[SourceSpan],
        open: &mut Vec<u64>,
    ) -> u64 {
        if self.sampler.idle() {
            return 0;
        }
        let end = first.saturating_add(frames);
        let mut inner = self.inner.lock().expect("a tracer call panicked");
        let mut last = 0;
        let mut frame = first;
        // Forced credits only run out here, so once the sampler turns idle
        // every later frame of the run is an early-exit no-op.
        while !self.sampler.idle() {
            let hit = frame.saturating_add(self.sampler.quiet_run(frame));
            // An idle stretch may have left a trace past its linger frame:
            // it expires at the first non-idle frame, this one.
            let expiry = inner
                .open
                .iter()
                .map(|t| t.root_frame.saturating_add(self.linger_frames).max(frame))
                .min()
                .unwrap_or(u64::MAX);
            frame = hit.min(expiry);
            if frame >= end {
                break;
            }
            let tag = self.begin_locked(&mut inner, frame);
            if tag != 0 {
                for s in sources {
                    self.delivery_locked(
                        &mut inner, tag, None, s.to, s.to_name, s.tokens, s.bytes, s.costs,
                    );
                }
                last = tag;
            }
            frame += 1;
        }
        open.clear();
        open.extend(inner.open.iter().map(|t| t.id));
        last
    }

    fn expire(&self, inner: &mut TracerInner, frame: u64) {
        let linger = self.linger_frames;
        let mut k = 0;
        while k < inner.open.len() {
            if frame >= inner.open[k].root_frame.saturating_add(linger) {
                let stale = inner.open.remove(k);
                self.close(inner, stale);
            } else {
                k += 1;
            }
        }
    }

    fn close(&self, inner: &mut TracerInner, mut build: TraceBuild) {
        let trace = TraceId(build.id);
        let root = SpanRecord {
            trace,
            id: SpanId(0),
            parent: None,
            kind: SpanKind::Frame,
            node: NO_NODE,
            to_node: NO_NODE,
            name: "frame",
            begin_ns: 0,
            end_ns: build.clock_ns,
            tokens: 0,
            bytes: 0,
        };
        build.spans.insert(0, root);
        let record = TraceRecord {
            id: trace,
            root_frame: build.root_frame,
            spans: build.spans,
            dropped_spans: build.dropped,
        };
        if let Some(sink) = self.sink() {
            if sink.enabled() {
                for span in &record.spans {
                    sink.event(Event {
                        frame: record.root_frame,
                        kind: EventKind::Span(span.clone()),
                    });
                }
            }
        }
        inner.completed += 1;
        if inner.done.len() >= inner.done_capacity {
            let evicted = inner.done.remove(0);
            self.dropped_spans_total
                .fetch_add(evicted.spans.len() as u64, Ordering::Relaxed);
        }
        inner.done.push(record);
    }

    fn push_span(&self, build: &mut TraceBuild, span: SpanRecord) -> bool {
        if build.spans.len() >= MAX_SPANS_PER_TRACE {
            build.dropped += 1;
            self.dropped_spans_total.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        build.spans.push(span);
        true
    }

    /// Records one delivery burst into trace `tag`'s span tree (see
    /// [`TraceEvent::Delivery`]); a closed trace ignores it.
    #[allow(clippy::too_many_arguments)]
    fn delivery_locked(
        &self,
        inner: &mut TracerInner,
        tag: u64,
        from: Option<(u8, &'static str)>,
        to: u8,
        to_name: &'static str,
        tokens: u32,
        bytes: u64,
        costs: DeliveryCosts,
    ) {
        let Some(build) = inner.open.iter_mut().find(|t| t.id == tag) else {
            return;
        };
        let trace = TraceId(build.id);
        let t0 = build.clock_ns;
        let total = costs
            .noc_ns
            .saturating_add(costs.wait_ns)
            .saturating_add(costs.cross_ns)
            .saturating_add(costs.service_ns);
        let parent = build.alloc_span();
        if !self.push_span(
            build,
            SpanRecord {
                trace,
                id: parent,
                parent: Some(SpanId(0)),
                kind: SpanKind::PeService,
                node: to,
                to_node: NO_NODE,
                name: to_name,
                begin_ns: t0,
                end_ns: t0 + total,
                tokens,
                bytes,
            },
        ) {
            // Span capacity exhausted: stop growing the tree but keep the
            // clock honest so the root still covers the activity.
            build.clock_ns = t0 + total;
            return;
        }
        let mut cursor = t0;
        if let Some((from_slot, from_name)) = from {
            let id = build.alloc_span();
            self.push_span(
                build,
                SpanRecord {
                    trace,
                    id,
                    parent: Some(parent),
                    kind: SpanKind::NocHop,
                    node: from_slot,
                    to_node: to,
                    name: from_name,
                    begin_ns: cursor,
                    end_ns: cursor + costs.noc_ns,
                    tokens,
                    bytes,
                },
            );
            cursor += costs.noc_ns;
        }
        if costs.wait_ns > 0 {
            let id = build.alloc_span();
            self.push_span(
                build,
                SpanRecord {
                    trace,
                    id,
                    parent: Some(parent),
                    kind: SpanKind::FifoWait,
                    node: to,
                    to_node: NO_NODE,
                    name: to_name,
                    begin_ns: cursor,
                    end_ns: cursor + costs.wait_ns,
                    tokens,
                    bytes: 0,
                },
            );
            cursor += costs.wait_ns;
        }
        if costs.cross_ns > 0 {
            let id = build.alloc_span();
            self.push_span(
                build,
                SpanRecord {
                    trace,
                    id,
                    parent: Some(parent),
                    kind: SpanKind::DomainCross,
                    node: to,
                    to_node: NO_NODE,
                    name: to_name,
                    begin_ns: cursor,
                    end_ns: cursor + costs.cross_ns,
                    tokens,
                    bytes: 0,
                },
            );
        }
        build.clock_ns = t0 + total;
    }

    /// Records radio framing into trace `tag`'s span tree; a closed trace
    /// ignores it.
    fn radio_locked(
        &self,
        inner: &mut TracerInner,
        tag: u64,
        node: u8,
        tokens: u32,
        bytes: u64,
        ns: u64,
    ) {
        let Some(build) = inner.open.iter_mut().find(|t| t.id == tag) else {
            return;
        };
        let trace = TraceId(build.id);
        let t0 = build.clock_ns;
        let id = build.alloc_span();
        self.push_span(
            build,
            SpanRecord {
                trace,
                id,
                parent: Some(SpanId(0)),
                kind: SpanKind::RadioFrame,
                node,
                to_node: NO_NODE,
                name: "radio",
                begin_ns: t0,
                end_ns: t0 + ns,
                tokens,
                bytes,
            },
        );
        build.clock_ns = t0 + ns;
    }

    /// Commits a frame's buffered trace events under one lock.
    ///
    /// Events land in buffer order, under one lock per frame instead of
    /// one per burst, which is what keeps sampled tracing cheap on
    /// burst-heavy pipelines. Events whose trace has closed are silently
    /// dropped.
    pub fn record_batch(&self, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        for ev in events {
            match *ev {
                TraceEvent::Delivery {
                    tag,
                    from,
                    to,
                    to_name,
                    tokens,
                    bytes,
                    costs,
                } => {
                    self.delivery_locked(&mut inner, tag, from, to, to_name, tokens, bytes, costs);
                }
                TraceEvent::Radio {
                    tag,
                    node,
                    tokens,
                    bytes,
                    ns,
                } => {
                    self.radio_locked(&mut inner, tag, node, tokens, bytes, ns);
                }
            }
        }
    }

    /// Fills `open` with the ids of currently open traces (cleared first).
    ///
    /// The open set only changes at frame boundaries
    /// ([`Tracer::begin_frame_into`], [`Tracer::advance_quiet`]; deliveries
    /// never close a trace), so a runtime that refreshes this at each frame
    /// start can answer "is this tag still live?" with a local membership
    /// test instead of a lock per burst.
    pub fn open_tags_into(&self, open: &mut Vec<u64>) {
        open.clear();
        let inner = self.inner.lock().unwrap();
        open.extend(inner.open.iter().map(|t| t.id));
    }

    /// Called by the runtime at the top of every frame. Returns the trace
    /// tag for this frame's source deliveries (0 = untraced), after
    /// expiring traces past their linger window, and snapshots the
    /// post-expiry open set into `open` under the same lock. When the
    /// sampler is idle the early exit leaves `open` untouched — idle
    /// frames cannot change the open set, so a cached copy stays valid.
    pub fn begin_frame_into(&self, frame: u64, open: &mut Vec<u64>) -> u64 {
        if self.sampler.idle() {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap();
        let tag = self.begin_locked(&mut inner, frame);
        open.clear();
        open.extend(inner.open.iter().map(|t| t.id));
        tag
    }

    /// Attributes a closed-loop stimulation command to the most recent
    /// trace sampled at or before `detect_frame`. Open traces get a
    /// [`SpanKind::StimPulse`] span appended on their clock; already-closed
    /// traces still in the retention ring are patched in place (and the
    /// span streamed to the sink). Returns `true` if a trace claimed it.
    pub fn note_stim(&self, detect_frame: u64, channels: u32, latency_ns: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        // Prefer the newest open trace that started at or before detection.
        if let Some(build) = inner
            .open
            .iter_mut()
            .filter(|t| t.root_frame <= detect_frame)
            .max_by_key(|t| t.root_frame)
        {
            let trace = TraceId(build.id);
            let t0 = build.clock_ns;
            let id = build.alloc_span();
            self.push_span(
                build,
                SpanRecord {
                    trace,
                    id,
                    parent: Some(SpanId(0)),
                    kind: SpanKind::StimPulse,
                    node: NO_NODE,
                    to_node: NO_NODE,
                    name: "stim",
                    begin_ns: t0,
                    end_ns: t0 + latency_ns,
                    tokens: channels,
                    bytes: 0,
                },
            );
            build.clock_ns = t0 + latency_ns;
            return true;
        }
        // Fall back to a completed trace in the retention ring.
        if let Some(record) = inner
            .done
            .iter_mut()
            .filter(|t| t.root_frame <= detect_frame)
            .max_by_key(|t| t.root_frame)
        {
            let t0 = record.spans.first().map_or(0, |r| r.end_ns);
            let id = SpanId(record.spans.iter().map(|s| s.id.0).max().unwrap_or(0) + 1);
            let span = SpanRecord {
                trace: record.id,
                id,
                parent: Some(SpanId(0)),
                kind: SpanKind::StimPulse,
                node: NO_NODE,
                to_node: NO_NODE,
                name: "stim",
                begin_ns: t0,
                end_ns: t0 + latency_ns,
                tokens: channels,
                bytes: 0,
            };
            record.spans.push(span.clone());
            if let Some(root) = record.spans.first_mut() {
                root.end_ns = t0 + latency_ns;
            }
            let frame = record.root_frame;
            drop(inner);
            if let Some(sink) = self.sink() {
                if sink.enabled() {
                    sink.event(Event {
                        frame,
                        kind: EventKind::Span(span),
                    });
                }
            }
            return true;
        }
        false
    }

    /// Closes every open trace (end of stream).
    pub fn finalize_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        while let Some(build) = inner.open.pop() {
            self.close(&mut inner, build);
        }
        // `close` pushes in pop order (newest first); restore root order.
        inner.done.sort_by_key(|t| t.id.0);
    }

    /// Completed traces, oldest first.
    pub fn trees(&self) -> Vec<TraceRecord> {
        self.inner.lock().unwrap().done.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TraceStats {
        let inner = self.inner.lock().unwrap();
        TraceStats {
            sampled: self.sampled_total.load(Ordering::Relaxed),
            dropped_spans: self.dropped_spans_total.load(Ordering::Relaxed),
            completed: inner.completed,
            open: inner.open.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens frame `frame` as the runtime does, returning its tag.
    fn begin(tracer: &Tracer, frame: u64) -> u64 {
        tracer.begin_frame_into(frame, &mut Vec::new())
    }

    #[test]
    fn sampler_is_deterministic() {
        let a = TraceSampler::new(7, 64);
        let b = TraceSampler::new(7, 64);
        for f in 0..4096 {
            assert_eq!(a.would_sample(f), b.would_sample(f));
        }
    }

    #[test]
    fn sampler_hits_once_per_window() {
        let s = TraceSampler::new(99, 32);
        for w in 0..64 {
            let hits = (w * 32..(w + 1) * 32)
                .filter(|&f| s.would_sample(f))
                .count();
            assert_eq!(hits, 1, "window {w}");
        }
    }

    #[test]
    fn disabled_sampler_is_idle_until_forced() {
        let s = TraceSampler::disabled(1);
        assert!(s.idle());
        assert!(!s.sample(5));
        s.force_next(2);
        assert!(!s.idle());
        assert!(s.sample(6));
        assert!(s.sample(7));
        assert!(!s.sample(8));
        assert!(s.idle());
    }

    #[test]
    fn delivery_builds_nested_spans_and_advances_clock() {
        let tracer = Tracer::new(3, 4).with_linger_frames(4);
        // Frame guaranteed sampled via forced credit.
        tracer.sampler().force_next(1);
        let tag = begin(&tracer, 0);
        assert_ne!(tag, 0);
        tracer.record_batch(&[
            TraceEvent::Delivery {
                tag,
                from: None,
                to: 2,
                to_name: "FFT",
                tokens: 8,
                bytes: 16,
                costs: DeliveryCosts {
                    noc_ns: 0,
                    wait_ns: 5,
                    cross_ns: 0,
                    service_ns: 40,
                },
            },
            TraceEvent::Delivery {
                tag,
                from: Some((2, "FFT")),
                to: 3,
                to_name: "SVM",
                tokens: 1,
                bytes: 4,
                costs: DeliveryCosts {
                    noc_ns: 87,
                    wait_ns: 0,
                    cross_ns: 3,
                    service_ns: 20,
                },
            },
            TraceEvent::Radio {
                tag,
                node: 5,
                tokens: 1,
                bytes: 4,
                ns: 694,
            },
        ]);
        tracer.finalize_all();
        let trees = tracer.trees();
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.end_to_end_ns(), 45 + 110 + 694);
        let root = &t.spans[0];
        assert_eq!(root.kind, SpanKind::Frame);
        assert_eq!(root.id, SpanId(0));
        assert!(root.parent.is_none());
        // Every non-root span nests inside its parent.
        for s in &t.spans[1..] {
            let p = t
                .spans
                .iter()
                .find(|c| Some(c.id) == Some(s.parent.unwrap()))
                .unwrap();
            assert!(s.begin_ns >= p.begin_ns && s.end_ns <= p.end_ns, "{s:?}");
        }
        let hop = t.spans.iter().find(|s| s.kind == SpanKind::NocHop).unwrap();
        assert_eq!((hop.node, hop.to_node), (2, 3));
    }

    #[test]
    fn quiet_run_predicts_the_sampler() {
        let s = TraceSampler::new(42, 16);
        for f in 0..1024u64 {
            let q = s.quiet_run(f);
            // The promised run really is unsampled…
            for k in 0..q.min(64) {
                assert!(!s.would_sample(f + k), "frame {f} + {k}");
            }
            // …and ends exactly at a sampled frame.
            assert!(s.would_sample(f + q), "frame {f} quiet {q}");
        }
        // Forced credits kill quiet runs until consumed.
        s.force_next(1);
        assert_eq!(s.quiet_run(0), 0);
        assert!(s.sample(0));
        // Disabled sampler with no credits: unbounded quiet.
        let d = TraceSampler::disabled(9);
        assert_eq!(d.quiet_run(123), u64::MAX);
    }

    #[test]
    fn one_batch_equals_one_batch_per_event() {
        let costs = DeliveryCosts {
            noc_ns: 7,
            wait_ns: 3,
            cross_ns: 1,
            service_ns: 20,
        };
        let run = |batch: bool| -> Vec<TraceRecord> {
            let tracer = Tracer::new(3, 0).with_linger_frames(100);
            tracer.sampler().force_next(1);
            let mut open = Vec::new();
            let tag = tracer.begin_frame_into(0, &mut open);
            assert_eq!(open, vec![tag]);
            let events = [
                TraceEvent::Delivery {
                    tag,
                    from: None,
                    to: 1,
                    to_name: "FFT",
                    tokens: 8,
                    bytes: 16,
                    costs,
                },
                TraceEvent::Delivery {
                    tag,
                    from: Some((1, "FFT")),
                    to: 2,
                    to_name: "SVM",
                    tokens: 1,
                    bytes: 4,
                    costs,
                },
                TraceEvent::Radio {
                    tag,
                    node: 2,
                    tokens: 1,
                    bytes: 4,
                    ns: 55,
                },
                // A closed/unknown tag is silently dropped.
                TraceEvent::Radio {
                    tag: 9999,
                    node: 2,
                    tokens: 1,
                    bytes: 4,
                    ns: 55,
                },
            ];
            if batch {
                tracer.record_batch(&events);
            } else {
                for event in events {
                    tracer.record_batch(&[event]);
                }
            }
            tracer.finalize_all();
            tracer.trees()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn closed_trace_rejects_deliveries() {
        let tracer = Tracer::new(1, 2).with_linger_frames(1);
        tracer.sampler().force_next(1);
        let tag = begin(&tracer, 0);
        assert_ne!(tag, 0);
        // Next frame expires the lingering trace before sampling.
        let mut open = Vec::new();
        let _ = tracer.begin_frame_into(1, &mut open);
        assert!(!open.contains(&tag));
        tracer.record_batch(&[TraceEvent::Delivery {
            tag,
            from: None,
            to: 0,
            to_name: "LZ",
            tokens: 1,
            bytes: 2,
            costs: DeliveryCosts::default(),
        }]);
        let trees = tracer.trees();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].spans.len(), 1, "only the root span");
    }

    #[test]
    fn stim_attributes_to_most_recent_trace() {
        let tracer = Tracer::new(11, 0).with_linger_frames(100);
        tracer.sampler().force_next(2);
        let t1 = begin(&tracer, 10);
        let t2 = begin(&tracer, 20);
        assert!(t1 != 0 && t2 != 0);
        assert!(tracer.note_stim(25, 4, 1_000));
        tracer.finalize_all();
        let trees = tracer.trees();
        let with_stim: Vec<_> = trees
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.kind == SpanKind::StimPulse))
            .collect();
        assert_eq!(with_stim.len(), 1);
        assert_eq!(with_stim[0].root_frame, 20);
    }

    #[test]
    fn stats_track_sampling_and_completion() {
        let tracer = Tracer::new(5, 0);
        tracer.sampler().force_next(3);
        for f in 0..3 {
            assert_ne!(begin(&tracer, f), 0);
        }
        tracer.finalize_all();
        let stats = tracer.stats();
        assert_eq!(stats.sampled, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.open, 0);
    }
}
