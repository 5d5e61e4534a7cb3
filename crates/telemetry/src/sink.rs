//! The [`TelemetrySink`] trait, the [`WindowReport`] it receives once per
//! sampling window, and the zero-cost [`NullSink`] default.

/// How bad a [`EventKind::Health`] alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no envelope at risk.
    Info,
    /// An envelope is under pressure (throughput nearing a ceiling, a
    /// slow SLO burn); the run is still safe.
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
    /// One closed sampling window with frames in it, stamped at its start
    /// frame. Boxed so the window's slots and links do not grow every
    /// event in the ring.
    Window(Box<WindowRecord>),
    /// The controller reprogrammed the fabric switches. `generation` is the
    /// fabric's configuration generation after the program completed, so a
    /// post-mortem can say exactly which routing epoch was live.
    SwitchProgram { words: u32, generation: u64 },
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
    /// `detected` says whether the fabric's validation surfaced a typed
    /// error; an undetected injection (a link degradation) only charged
    /// stall cycles. The flight recorder keeps the most recent of these so
    /// every post-mortem attributes its failure.
    Fault {
        /// Stable fault-class label (`link_degrade`, `rogue_mmio`).
        kind: &'static str,
        /// Primary PE slot targeted, or `u8::MAX` for fabric-wide faults.
        slot: u8,
        /// Class-specific scalar (stall cycles / raw word).
        detail: u64,
        /// Whether the injection raised a typed error.
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

/// One PE slot's share of a [`WindowReport`]: its ledger deltas over the
/// window, plus the slot's FIFO high-water mark, power and service time.
/// The slot's kind name is what [`TelemetrySink::declare_pe`] declared.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlotWindow {
    /// Modeled busy cycles (tokens in × the kind's cycles-per-token).
    pub busy_cycles: u64,
    /// Pushes that found the slot's output FIFO still occupied.
    pub stall_cycles: u64,
    /// Payload bytes entering the slot.
    pub bytes_in: u64,
    /// Payload bytes leaving the slot.
    pub bytes_out: u64,
    /// All-time high-water mark of the slot's output FIFO, tokens.
    pub fifo_high_water: u64,
    /// Modeled power of the slot's clock domain over the window, mW.
    /// Idle domains still leak.
    pub milliwatts: f64,
    /// The window's busy cycles at the domain's anchor clock, ns.
    pub service_ns: u64,
}

impl SlotWindow {
    /// Whether the slot did anything this window.
    pub(crate) fn is_active(&self) -> bool {
        self.busy_cycles != 0 || self.stall_cycles != 0 || self.bytes_in != 0 || self.bytes_out != 0
    }
}

/// Traffic one NoC link carried over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    pub from: u8,
    pub to: u8,
    pub bytes: u64,
    pub transfers: u64,
}

/// One closed sampling window of the runtime's cost ledger, handed to a
/// sink in a single [`TelemetrySink::window`] call. Windowed deltas sum to
/// the stream's totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowReport {
    /// First frame of the window.
    pub start: u64,
    /// Window length in sample frames: zero for the drain-only window a
    /// stream ending on a window boundary closes.
    pub frames: u32,
    /// Per-slot deltas, indexed by slot.
    pub slots: Vec<SlotWindow>,
    /// Every link that carried a transfer this window.
    pub links: Vec<LinkWindow>,
    /// Framed bytes handed to the radio.
    pub radio_bytes: u64,
    /// End-to-end latency of each of the window's frames, ns.
    pub frame_latency_ns: Vec<u64>,
}

impl WindowReport {
    /// The frame the window closed at.
    pub fn end(&self) -> u64 {
        self.start + u64::from(self.frames)
    }

    /// Summed domain power over the window, mW, added in slot order.
    pub(crate) fn milliwatts(&self) -> f64 {
        self.slots.iter().fold(0.0, |mw, slot| mw + slot.milliwatts)
    }

    /// `(bytes, transfers)` summed over the window's links.
    pub(crate) fn noc(&self) -> (u64, u64) {
        self.links
            .iter()
            .fold((0, 0), |(b, t), l| (b + l.bytes, t + l.transfers))
    }
}

/// A closed window as the recorder's ring keeps it: the [`WindowReport`]
/// without its frame-latency samples, which the recorder folds into
/// histograms instead, and each slot's PE name as declared when the
/// window closed.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// The window; `frame_latency_ns` is always empty.
    pub report: WindowReport,
    /// Each slot's declared name, indexed like `report.slots`; `"?"` for
    /// a slot never declared.
    pub names: Vec<&'static str>,
}

/// Passive receiver for simulator instrumentation.
///
/// All methods take `&self` so one sink can be shared across the runtime
/// and controller behind an `Arc<dyn TelemetrySink>`. Implementations must
/// be cheap when disabled: producers gate any work they would do only for
/// a sink on [`TelemetrySink::enabled`].
pub trait TelemetrySink: Send + Sync {
    /// Whether this sink wants data at all. Hot paths use this to skip
    /// building reports and events.
    fn enabled(&self) -> bool;

    /// Announce that PE slot `slot` holds a PE named `name`. Idempotent.
    fn declare_pe(&self, slot: u8, name: &'static str) {
        let _ = (slot, name);
    }

    /// Take in one closed sampling window of the runtime's ledger.
    fn window(&self, report: &WindowReport) {
        let _ = report;
    }

    /// Count one firmware run of the control processor: `cycles` retired
    /// over `instructions`. Switch programs, switch words and stimulation
    /// pulses arrive as the run's [`EventKind::SwitchProgram`] and
    /// [`EventKind::Stim`] events.
    fn controller(&self, cycles: u64, instructions: u64) {
        let _ = (cycles, instructions);
    }

    /// Append `event` to the timeline.
    fn event(&self, event: Event) {
        let _ = event;
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
        sink.window(&WindowReport::default());
        sink.controller(100, 40);
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
