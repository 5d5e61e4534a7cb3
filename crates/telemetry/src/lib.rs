//! Observability layer for the HALO simulator.
//!
//! The simulator crates (`halo-pe`, `halo-noc`, `halo-power`, `halo-core`)
//! report what the modeled hardware is doing through the [`TelemetrySink`]
//! trait. Two implementations ship here:
//!
//! * [`NullSink`] — the default. Every method is an empty body behind an
//!   `enabled() == false` gate, so an uninstrumented run pays nothing and
//!   produces bit-identical results to a run without any sink wired in.
//! * [`Recorder`] — per-PE, per-link and device totals folded from each
//!   sampling window's [`WindowReport`], plus a bounded ring buffer of
//!   timestamped [`Event`]s (timestamps are sample frame indices,
//!   convertible to wall time via the sample rate), all under one lock.
//!   Each window with frames in it is one ring entry, a [`WindowRecord`]:
//!   the report without its frame-latency samples, under the PE names
//!   declared when it closed.
//!
//! A [`Recorder`] can be rendered two ways:
//!
//! * [`chrome_trace::render`] — Chrome Trace Format JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`, drawn
//!   from those window entries: one slice track per active PE, NoC and
//!   radio rate tracks, and per-clock-domain power and per-FIFO depth
//!   tracks.
//! * [`expose::render`] — Prometheus text-format exposition for scraping,
//!   CI diffing, or reading in a terminal.
//!
//! Layered on top of the [`Recorder`] sits the *active* side of the
//! observability stack: [`HealthMonitor`] wraps a recorder, judges each
//! sampling window's readings against the safety envelopes (power budget,
//! closed-loop deadline, radio ceiling), raises
//! structured [`HealthAlert`]s under a configurable [`AlertPolicy`], and
//! latches a black-box post-mortem JSON dump on any critical alert or
//! runtime error. A [`ContinuousTelemetry`] store installed in the monitor
//! keeps the last readings of each envelope as bounded history ([`tsdb`])
//! and judges SLO burn rates over them ([`slo`]), in the same pass (sink
//! chain `Runtime → HealthMonitor → Recorder`). Latency distributions
//! (end-to-end frame latency per pipeline, window service time per PE)
//! are kept in fixed-size log-bucketed [`LogHistogram`]s with
//! p50/p90/p99/max digests in every snapshot.
//!
//! Orthogonal to the aggregate counters sits *causal tracing*
//! ([`tracing`]): a deterministic [`TraceSampler`] tags selected input
//! frames, the runtime propagates the tag through PEs/FIFOs/NoC as a
//! compact context, and the [`Tracer`] assembles per-frame span trees
//! ([`span_tree`]) whose critical-path attribution explains *which hop*
//! dominated the traced frame's latency. Captured runs serialize to
//! binary-stable [`replay::TraceLog`]s that replay bit-identically.
//!
//! The crate is std-only by design: traces are hand-rolled JSON (see
//! [`json`]) so the simulator keeps building in offline environments.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use halo_telemetry::{Recorder, SlotWindow, TelemetrySink, WindowReport};
//!
//! let rec = Arc::new(Recorder::new(1024).with_sample_rate_hz(30_000));
//! rec.declare_pe(0, "LZ");
//! rec.window(&WindowReport {
//!     start: 0,
//!     frames: 30,
//!     slots: vec![SlotWindow {
//!         busy_cycles: 2240,
//!         bytes_in: 100,
//!         bytes_out: 60,
//!         milliwatts: 0.4,
//!         ..SlotWindow::default()
//!     }],
//!     ..WindowReport::default()
//! });
//! let snap = rec.snapshot();
//! assert_eq!(snap.pes[0].busy_cycles, 2240);
//! assert_eq!(snap.frames, 30);
//! let trace = halo_telemetry::chrome_trace::render(&rec);
//! halo_telemetry::json::validate(&trace).unwrap();
//! ```

pub mod chrome_trace;
pub mod expose;
pub mod health;
pub mod histogram;
pub mod json;
pub mod profile;
pub mod recorder;
pub mod replay;
pub mod sink;
pub mod slo;
pub mod span_tree;
pub mod tracing;
pub mod tsdb;

pub use health::{
    AlertKind, AlertPolicy, CoalescedAlert, HealthAlert, HealthConfig, HealthMonitor, HealthStatus,
};
pub use histogram::{HistogramSummary, LogHistogram};
pub use profile::{CycleProfile, Phase, ProfileRow};
pub use recorder::{LinkSnapshot, PeSnapshot, PipelineLatency, Recorder, RecorderSnapshot};
pub use replay::{ReplayReport, StimRecord, TraceLog};
pub use sink::{
    Event, EventKind, LinkWindow, NullSink, Severity, SlotWindow, TelemetrySink, WindowRecord,
    WindowReport,
};
pub use slo::{BurnRateFiring, BurnRatePolicy, SloConfig, SloEngine, SloStatus};
pub use span_tree::{CriticalPathSummary, HopCost, SpanTree, TreeError};
pub use tracing::{
    DeliveryCosts, SourceSpan, SpanId, SpanKind, SpanRecord, TraceEvent, TraceId, TraceRecord,
    TraceSampler, TraceStats, Tracer,
};
pub use tsdb::{
    ContinuousConfig, ContinuousStatus, ContinuousTelemetry, Point, SeriesKind, Tsdb, TsdbConfig,
};

/// Maximum number of PE slots a [`Recorder`] tracks. The HALO fabric in the
/// paper has 14 PE kinds and the simulator instantiates well under this many
/// slots per pipeline; counters for slots `>= MAX_PES` are silently dropped.
pub const MAX_PES: usize = 64;
