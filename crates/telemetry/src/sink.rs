//! The [`TelemetrySink`] trait and its zero-cost [`NullSink`] default.

/// Where a counter update happened in the modeled system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// A processing element, identified by its runtime slot index.
    Pe(u8),
    /// A circuit-switched NoC link between two node slots.
    Link { from: u8, to: u8 },
    /// The RV32 control processor.
    Controller,
    /// Whole-device counters (frames ingested, radio bytes, ...).
    System,
}

/// What is being counted. Not every counter is meaningful in every
/// [`Scope`]; the mapping is documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Cycles a PE spent doing useful work (`Scope::Pe`), or cycles retired
    /// by the control processor (`Scope::Controller`).
    BusyCycles,
    /// Cycles a PE was ready but back-pressured by a non-empty output FIFO
    /// (`Scope::Pe`).
    StallCycles,
    /// Payload bytes entering a PE (`Scope::Pe`).
    BytesIn,
    /// Payload bytes leaving a PE (`Scope::Pe`) or crossing a link
    /// (`Scope::Link`).
    BytesOut,
    /// Transfers on a link (`Scope::Link`).
    TokensOut,
    /// High-water mark of a PE's output FIFO in tokens (`Scope::Pe`,
    /// use [`TelemetrySink::hwm`]).
    FifoHighWater,
    /// Peak *end-of-window* occupancy of a PE's output FIFO in tokens
    /// (`Scope::Pe`, use [`TelemetrySink::hwm`]). Unlike
    /// [`Counter::FifoHighWater`] — the within-burst peak, which sizes the
    /// hardware buffer — this counts tokens still queued when a sampling
    /// window closed, i.e. sustained backpressure the consumer never
    /// caught up with.
    FifoPeakDepth,
    /// Instructions retired by the control processor (`Scope::Controller`).
    Instructions,
    /// Complete switch-programming sequences executed (`Scope::Controller`).
    SwitchPrograms,
    /// Individual switch words written over MMIO (`Scope::Controller`).
    SwitchWords,
    /// Stimulation pulses commanded (`Scope::Controller`).
    StimPulses,
    /// Bytes handed to the radio for off-implant transmission
    /// (`Scope::System`).
    RadioBytes,
    /// Sample frames ingested from the electrode array (`Scope::System`).
    Frames,
}

/// How bad a [`EventKind::Health`] alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no envelope at risk.
    Info,
    /// An envelope is under pressure (backpressure, throughput nearing a
    /// ceiling); the run is still safe.
    Warning,
    /// A hard safety envelope was violated (power budget, closed-loop
    /// deadline); the flight recorder dumps a post-mortem.
    Critical,
}

impl Severity {
    /// Lower-case label used by exporters.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// Discriminated payload of a timeline [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Aggregated activity of one PE over a sampling window.
    PeWindow {
        slot: u8,
        name: &'static str,
        /// Window length in sample frames.
        frames: u32,
        busy_cycles: u64,
        stall_cycles: u64,
        bytes_in: u64,
        bytes_out: u64,
    },
    /// Aggregated NoC traffic over a sampling window.
    NocWindow {
        /// Window length in sample frames.
        frames: u32,
        bytes: u64,
        transfers: u64,
    },
    /// Modeled power of one clock domain at this instant, in milliwatts.
    PowerSample {
        slot: u8,
        name: &'static str,
        milliwatts: f64,
    },
    /// The controller reprogrammed the fabric switches. `generation` is the
    /// fabric's configuration generation after the program completed, so a
    /// post-mortem can say exactly which routing epoch was live.
    SwitchProgram { words: u32, generation: u64 },
    /// End-of-window occupancy of one PE's output FIFO: `depth` tokens were
    /// still queued when the sampling window closed, `peak` is the FIFO's
    /// all-time high-water mark in tokens.
    FifoWindow {
        slot: u8,
        name: &'static str,
        depth: u32,
        peak: u32,
    },
    /// Radio traffic over a sampling window: `bytes` handed to the radio
    /// across `frames` sample frames.
    RadioWindow { frames: u32, bytes: u64 },
    /// A closed-loop response completed: a detection at `detect_frame` was
    /// answered by stimulation `latency_frames` sample frames later
    /// (controller decision + command path, converted to frames).
    ClosedLoop {
        detect_frame: u64,
        latency_frames: u64,
    },
    /// A health-monitor alert: envelope `name` observed `value` against
    /// configured `limit`.
    Health {
        name: &'static str,
        severity: Severity,
        value: f64,
        limit: f64,
    },
    /// The controller commanded a stimulation pulse.
    Stim { channel: u8, amplitude_ua: u32 },
    /// A detector (movement intent / seizure) fired.
    Detection { positive: bool },
    /// Free-form annotation (pipeline reconfigured, run boundaries, ...).
    Marker { name: &'static str },
    /// A fault was injected by the chaos harness (see `halo-faults`).
    /// `detected` says whether a modeled integrity check (FIFO parity,
    /// residue code, fabric validation) surfaced a typed error at the
    /// point of damage; an undetected injection landed on empty state and
    /// was physically harmless. The flight recorder keeps the most recent
    /// of these so every post-mortem attributes its failure.
    Fault {
        /// Stable fault-class label (`fifo_bit_flip`, `rogue_mmio`, ...).
        kind: &'static str,
        /// Primary PE slot targeted, or `u8::MAX` for fabric-wide faults.
        slot: u8,
        /// Class-specific scalar (bit index / stall cycles / raw word).
        detail: u64,
        /// Whether an integrity check raised a typed error.
        detected: bool,
    },
    /// One span of a sampled causal trace (see [`crate::tracing`]). The
    /// tracer streams a completed trace's spans into the recorder ring with
    /// `frame` set to the trace's root frame.
    Span(crate::tracing::SpanRecord),
}

/// A timestamped entry in the telemetry timeline. `frame` is the index of
/// the sample frame at which the event was recorded — divide by the sample
/// rate to get seconds of biological time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub frame: u64,
    pub kind: EventKind,
}

/// Passive receiver for simulator instrumentation.
///
/// All methods take `&self` so one sink can be shared across the runtime,
/// controller, and power model behind an `Arc<dyn TelemetrySink>`.
/// Implementations must be cheap when disabled: instrumentation sites are
/// allowed to call [`TelemetrySink::add`] unconditionally on hot paths, but
/// sites that need to *compute* something first should gate the computation
/// on [`TelemetrySink::enabled`].
pub trait TelemetrySink: Send + Sync {
    /// Whether this sink wants data at all. Hot paths use this to skip
    /// constructing events.
    fn enabled(&self) -> bool;

    /// Announce that PE slot `slot` holds a PE named `name`. Idempotent.
    fn declare_pe(&self, slot: u8, name: &'static str) {
        let _ = (slot, name);
    }

    /// Increment `counter` within `scope` by `delta`.
    fn add(&self, scope: Scope, counter: Counter, delta: u64) {
        let _ = (scope, counter, delta);
    }

    /// Raise `counter` within `scope` to at least `value` (monotonic max).
    fn hwm(&self, scope: Scope, counter: Counter, value: u64) {
        let _ = (scope, counter, value);
    }

    /// Append `event` to the timeline.
    fn event(&self, event: Event) {
        let _ = event;
    }

    /// Record one latency sample of `nanos` nanoseconds. `Scope::System`
    /// is end-to-end frame latency of the active pipeline; `Scope::Pe(slot)`
    /// is that PE's service time for one sampling window. Sinks that keep
    /// histograms override this; the default drops the sample.
    fn latency(&self, scope: Scope, nanos: u64) {
        let _ = (scope, nanos);
    }

    /// Record many latency samples under one `scope` in a single call.
    /// Producers that sample on a per-frame cadence buffer samples and
    /// flush them at window boundaries through this method, so a locking
    /// sink pays one synchronization per window instead of one per frame.
    /// The default forwards each sample to [`TelemetrySink::latency`].
    fn latency_batch(&self, scope: Scope, samples: &[u64]) {
        for &nanos in samples {
            self.latency(scope, nanos);
        }
    }
}

/// A sink that drops everything. This is the default wired into the
/// runtime; it reports `enabled() == false` so instrumentation sites skip
/// all bookkeeping that is not already part of the simulation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let sink = NullSink;
        assert!(!sink.enabled());
        // Default methods must be callable without effect.
        sink.declare_pe(0, "LZ");
        sink.add(Scope::Pe(0), Counter::BusyCycles, 10);
        sink.hwm(Scope::Pe(0), Counter::FifoHighWater, 4);
        sink.latency(Scope::System, 33_000);
        sink.event(Event {
            frame: 0,
            kind: EventKind::Marker { name: "noop" },
        });
    }

    #[test]
    fn null_sink_is_object_safe() {
        let sink: std::sync::Arc<dyn TelemetrySink> = std::sync::Arc::new(NullSink);
        assert!(!sink.enabled());
    }
}
