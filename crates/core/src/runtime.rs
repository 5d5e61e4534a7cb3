//! The streaming runtime: pushes ADC frames through a PE graph on the
//! circuit-switched fabric.

use std::collections::VecDeque;
use std::sync::Arc;

use halo_noc::{Fabric, FabricError, LinkTraffic, NodeId, Route};
use halo_pe::{PeError, ProcessingElement, Token};
use halo_power::DomainPowerModel;
use halo_telemetry::health::RADIO_CEILING_BPS;
use halo_telemetry::{
    CycleProfile, DeliveryCosts, LinkWindow, NullSink, Phase, ProfileRow, SlotWindow, SourceSpan,
    TelemetrySink, TraceEvent, Tracer, WindowReport,
};

/// Input-adapter applied where the ADC stream enters a PE.
///
/// §IV-D: "an interconnect wrapper provides a FIFO interface for the input
/// and output of each PE; the adapter also modifies the output … to match
/// the fixed width interface of the interconnect." Byte-oriented PEs (LZ,
/// AES) receive the 16-bit samples serialized little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adapter {
    /// Deliver samples unchanged.
    Direct,
    /// Serialize each sample into two little-endian bytes.
    SamplesToBytes,
}

/// A route from the ADC stream into the PE array.
#[derive(Debug, Clone, Copy)]
pub struct SourceRoute {
    /// Destination PE slot.
    pub to: NodeId,
    /// Destination input port.
    pub port: usize,
    /// Input adapter.
    pub adapter: Adapter,
}

/// Errors raised while streaming.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A PE rejected a token.
    Pe(PeError),
    /// The fabric configuration is invalid.
    Fabric(FabricError),
    /// A route or source targets a node beyond the installed PE array
    /// (e.g. an MMIO-programmed switch word routing off the edge).
    NoSuchNode(NodeId),
    /// A block handed to [`Runtime::push_block`] is not a whole number of
    /// frames.
    BadBlock {
        /// Samples in the block.
        len: usize,
        /// Samples per frame.
        frame_len: usize,
    },
}

impl From<PeError> for RuntimeError {
    fn from(e: PeError) -> Self {
        Self::Pe(e)
    }
}

impl From<FabricError> for RuntimeError {
    fn from(e: FabricError) -> Self {
        Self::Fabric(e)
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Pe(e) => write!(f, "{e}"),
            Self::Fabric(e) => write!(f, "{e}"),
            Self::NoSuchNode(n) => write!(f, "stream routed to missing {n}"),
            Self::BadBlock { len, frame_len } => {
                write!(
                    f,
                    "block of {len} samples is not a multiple of the {frame_len}-sample frame"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// One deterministic fault in the fabric the controller programs over
/// MMIO, injected between frames through
/// [`crate::HaloSystem::inject_faults`].
///
/// [`FaultAction::RogueMmio`] is caught by the fabric's validation pass;
/// [`FaultAction::LinkDegrade`] is non-corrupting on a circuit-switched
/// fabric and only charges stall cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Degrade the link into one PE: the SEND-ACK handshake retries for
    /// `stall_cycles` consumer cycles. Circuit-switched links never
    /// corrupt in this model, so outputs are unchanged — the cost shows
    /// up in stall telemetry only.
    LinkDegrade {
        /// Consumer end of the link.
        to: NodeId,
        /// Stall cycles charged to the consumer.
        stall_cycles: u64,
    },
    /// Write a rogue word into the switch MMIO space. An illegal word is
    /// caught by the fabric re-validation the write triggers; recovery is
    /// reprogramming the captured legal words in place.
    RogueMmio {
        /// The raw switch word to program.
        word: u32,
    },
}

impl FaultAction {
    /// Short stable label for telemetry and triage JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Self::LinkDegrade { .. } => "link_degrade",
            Self::RogueMmio { .. } => "rogue_mmio",
        }
    }

    /// Primary slot the fault targets, or `u8::MAX` for fabric-wide ones.
    pub fn slot(&self) -> u8 {
        match self {
            Self::LinkDegrade { to, .. } => to.0.min(u8::MAX as usize) as u8,
            Self::RogueMmio { .. } => u8::MAX,
        }
    }

    /// Scalar detail for telemetry (stall cycles / raw word).
    pub fn detail(&self) -> u64 {
        match self {
            Self::LinkDegrade { stall_cycles, .. } => *stall_cycles,
            Self::RogueMmio { word } => *word as u64,
        }
    }
}

/// Modeled NoC serialization cost: interconnect links clock at the
/// fabric's link capacity, one byte per handshake.
const NS_PER_LINK_BYTE: f64 = 1.0e9 / Fabric::LINK_CAPACITY_BYTES_PER_S as f64;

/// Modeled radio serialization cost at the 46 Mbps paper ceiling.
const NS_PER_RADIO_BYTE: f64 = 8.0e9 / RADIO_CEILING_BPS;

/// Sentinel slot index for "no node designated" (radio/MCU/probe taps).
const NO_SLOT: usize = usize::MAX;

/// Whether two of `targets` name the same slot.
fn shares_slot(targets: impl Iterator<Item = NodeId> + Clone) -> bool {
    let all = targets.clone();
    targets
        .enumerate()
        .any(|(k, a)| all.clone().take(k).any(|b| b == a))
}

/// Collects the byte stream headed for the radio, applying the same block
/// framing the monolithic codecs use so compression outputs can be
/// verified by decompression.
#[derive(Debug, Default)]
struct RadioCollector {
    pending: Vec<u8>,
    framed: Vec<u8>,
    /// Whether a [`Token::BlockEnd`] has ever arrived — i.e. the stream is
    /// block-framed (compression output) rather than raw payload.
    saw_block_end: bool,
}

impl RadioCollector {
    fn consume(&mut self, token: &Token) {
        match token {
            Token::Byte(b) => self.pending.push(*b),
            Token::Sample(s) => self.pending.extend_from_slice(&s.to_le_bytes()),
            // In a framed stream, flags are control traffic (detector
            // alerts), not block payload: a flag byte spliced between
            // compressed bytes would shift every later byte of the block
            // and break decoding. Raw streams keep them as payload.
            Token::Flag(f) => {
                if !self.saw_block_end {
                    self.pending.push(*f as u8);
                }
            }
            Token::Value(v) => self.pending.extend_from_slice(&v.to_le_bytes()),
            Token::Coeff(c) => self.pending.extend_from_slice(&c.to_le_bytes()),
            Token::BlockEnd { raw_len } => {
                self.saw_block_end = true;
                self.framed.extend_from_slice(&raw_len.to_le_bytes());
                self.framed
                    .extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
                self.framed.append(&mut self.pending);
            }
            Token::Op(_) | Token::Prob { .. } | Token::Bits { .. } | Token::Vector(_) => {}
        }
    }

    fn finish(&mut self) {
        if self.saw_block_end && !self.pending.is_empty() {
            // A framed stream ended mid-block (the producer never emitted
            // the closing marker, so the block cannot be decoded). Frame
            // the tail with a zero raw length so block parsers skip it
            // instead of misreading bare bytes as a header.
            self.framed.extend_from_slice(&0u32.to_le_bytes());
            self.framed
                .extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        }
        // A raw stream is all payload: it becomes the framed stream by a
        // swap, not a copy.
        if self.framed.is_empty() {
            std::mem::swap(&mut self.framed, &mut self.pending);
        } else {
            self.framed.append(&mut self.pending);
        }
    }
}

/// Always-on per-slot activity totals.
///
/// The runtime maintains these plain counters on every run — they cost a
/// handful of integer adds per delivered burst and never observe the sink — so
/// [`crate::metrics::TaskMetrics::pe_activity`] is identical whether a
/// recorder, a [`NullSink`], or nothing at all is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotTotals {
    /// Modeled busy cycles (tokens in × the kind's cycles-per-token).
    pub busy_cycles: u64,
    /// Pushes that found the slot's output FIFO still occupied.
    pub stall_cycles: u64,
    /// Payload bytes pushed into the slot.
    pub bytes_in: u64,
    /// Payload bytes pulled out of the slot.
    pub bytes_out: u64,
    /// Tokens pushed into the slot.
    pub tokens_in: u64,
    /// Tokens pulled out of the slot.
    pub tokens_out: u64,
}

/// The per-task streaming engine.
///
/// One [`Runtime::push_frame`] call delivers one multi-channel ADC frame;
/// tokens propagate along the configured routes until quiescent. Nodes
/// designated as the radio or micro-controller sink have their outputs
/// collected instead of (or in addition to) being routed.
pub struct Runtime {
    pes: Vec<Box<dyn ProcessingElement>>,
    fabric: Fabric,
    sources: Vec<SourceRoute>,
    /// Slot index of the radio / MCU / probe tap, or [`NO_SLOT`] — plain
    /// integer compares once per delivered burst.
    radio_slot: usize,
    mcu_slot: usize,
    probe_slot: usize,
    radio: RadioCollector,
    mcu_flags: Vec<(u64, bool)>,
    probed: Vec<(usize, i64)>,
    frame_idx: u64,
    finished: bool,
    /// Cached `kind().cycles_per_token()` per slot (hot path).
    cycles_per_token: Vec<u64>,
    /// Per-node fan-out table (`route_table[from]` = routes leaving
    /// `from`, in programming order), so [`Runtime::propagate`] never
    /// scans or allocates per token. Rebuilt — and the fabric re-validated
    /// — whenever `fabric.generation()` moves off `route_gen`.
    route_table: Vec<Vec<Route>>,
    route_gen: u64,
    /// Scratch queue for [`Runtime::propagate`]'s FIFO drains, empty
    /// between bursts: each drain swaps a PE's queued tokens into it
    /// ([`halo_pe::Fifo::drain_into`]), and the emptied buffer goes back to
    /// that FIFO ([`halo_pe::Fifo::reclaim`]), so steady state copies and
    /// allocates nothing.
    burst: VecDeque<Token>,
    /// Second scratch queue: copies of a burst for all but the last
    /// consumer of a fanned-out producer, and byte-adapted source frames.
    copy: VecDeque<Token>,
    /// The per-slot cost ledger: [`Runtime::charge`] books every busy and
    /// stall cycle. Telemetry windows, latency samples, span costs and
    /// cycle profiles are all read from it.
    totals: Vec<SlotTotals>,
    /// Each slot's busy cycles split by the [`Phase`] they were charged
    /// under (indexed by `Phase as usize`), so every row sums to the
    /// slot's `busy_cycles`.
    phases: Vec<[u64; Phase::ALL.len()]>,
    /// The phase [`Runtime::charge`] books cycles under.
    phase: Phase,
    sink: Arc<dyn TelemetrySink>,
    /// Totals at the start of the current telemetry window.
    window_base: Vec<SlotTotals>,
    /// Fabric link traffic at the start of the window.
    link_base: Vec<LinkTraffic>,
    /// Framed radio bytes already reported to the sink.
    radio_base: u64,
    window_frames: u64,
    window_start: u64,
    sample_rate_hz: u32,
    /// Wall nanoseconds per busy cycle per slot at each domain's anchor
    /// frequency — prices latency samples, window service times and spans.
    ns_per_cycle: Vec<f64>,
    /// Per-slot busy cycles at the start of the in-flight frames — scratch
    /// for the end-to-end frame-latency sample (telemetry only).
    frame_base: Vec<u64>,
    /// The open window's report: frame-latency samples accumulate in it
    /// frame by frame, and [`Runtime::emit_window`] fills in the rest and
    /// hands it to the sink in one call. Reused, so steady state
    /// allocates nothing.
    report: WindowReport,
    /// Causal-trace collector, when [`Runtime::attach_tracing`] wired one.
    /// Untraced frames cost one sampler check; traced frames snapshot
    /// consumer stalls around each burst and record per-delivery spans.
    tracer: Option<Arc<Tracer>>,
    /// Batched quiet-frame dispatch toggle (on by default). Quiet
    /// stretches — upcoming whole frames guaranteed to produce zero
    /// output tokens at every source PE — are delivered through one
    /// [`ProcessingElement::push_samples`] call per source instead of one
    /// delivery per frame, and propagation is skipped entirely. Outputs,
    /// counters, telemetry, and traces are bit-identical either way.
    block_dispatch: bool,
    /// Span events buffered during a traced frame and recorded under one
    /// tracer lock per frame instead of one per delivery burst.
    trace_buf: Vec<TraceEvent>,
    /// Cached ids of the tracer's open traces, refreshed at every frame
    /// boundary and quiet chunk — span acceptance (sticky-tag keep/clear) is decided by
    /// membership here without taking the tracer lock per burst.
    open_tags: Vec<u64>,
    /// Reusable per-consumer stall baseline for traced bursts.
    trace_stall_scratch: Vec<u64>,
    /// Reusable source-delivery spans of a traced frame or quiet chunk.
    source_spans: Vec<SourceSpan>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("pes", &self.pes.len())
            .field("routes", &self.fabric.routes().len())
            .field("frames", &self.frame_idx)
            .finish()
    }
}

impl Runtime {
    /// Builds a runtime over a PE array and configured fabric.
    ///
    /// # Errors
    ///
    /// Returns a fabric validation error if any route is ill-typed.
    pub fn new(
        pes: Vec<Box<dyn ProcessingElement>>,
        fabric: Fabric,
        sources: Vec<SourceRoute>,
        radio_from: Option<NodeId>,
        mcu_from: Option<NodeId>,
    ) -> Result<Self, RuntimeError> {
        let refs: Vec<&dyn ProcessingElement> = pes.iter().map(|b| b.as_ref()).collect();
        fabric.validate(&refs)?;
        let cycles_per_token = pes.iter().map(|p| p.kind().cycles_per_token()).collect();
        let ns_per_cycle = pes
            .iter()
            .map(|p| 1.0e9 / DomainPowerModel::new(p.kind()).anchor_hz())
            .collect();
        let totals = vec![SlotTotals::default(); pes.len()];
        let mut runtime = Self {
            window_base: totals.clone(),
            phases: vec![[0; Phase::ALL.len()]; pes.len()],
            phase: Phase::Compute,
            cycles_per_token,
            ns_per_cycle,
            totals,
            route_table: Vec::new(),
            route_gen: 0,
            burst: VecDeque::new(),
            copy: VecDeque::new(),
            pes,
            fabric,
            sources,
            radio_slot: radio_from.map_or(NO_SLOT, |n| n.0),
            mcu_slot: mcu_from.map_or(NO_SLOT, |n| n.0),
            probe_slot: NO_SLOT,
            radio: RadioCollector::default(),
            mcu_flags: Vec::new(),
            probed: Vec::new(),
            frame_idx: 0,
            finished: false,
            sink: Arc::new(NullSink),
            link_base: Vec::new(),
            radio_base: 0,
            window_frames: 0,
            window_start: 0,
            sample_rate_hz: 30_000,
            frame_base: Vec::new(),
            report: WindowReport::default(),
            tracer: None,
            block_dispatch: true,
            trace_buf: Vec::new(),
            open_tags: Vec::new(),
            trace_stall_scratch: Vec::new(),
            source_spans: Vec::new(),
        };
        runtime.rebuild_route_table();
        Ok(runtime)
    }

    /// Rebuilds the per-node fan-out table from the fabric's route list.
    /// Inner vectors are reused, so steady-state reprogramming does not
    /// allocate either.
    fn rebuild_route_table(&mut self) {
        for fan_out in &mut self.route_table {
            fan_out.clear();
        }
        self.route_table.resize_with(self.pes.len(), Vec::new);
        for route in self.fabric.routes() {
            // Routes from a missing node can never fire (there is no PE to
            // pull from); they are caught by `sync_fabric`'s validation
            // when programmed mid-run.
            if let Some(fan_out) = self.route_table.get_mut(route.from.0) {
                fan_out.push(*route);
            }
        }
        self.route_gen = self.fabric.generation();
    }

    /// Re-validates the fabric against the PE array and rebuilds the route
    /// table — the slow path taken once after mid-run reprogramming.
    ///
    /// # Errors
    ///
    /// Returns the fabric's validation error; the stream stays unusable
    /// (every subsequent push re-reports it) until the fabric is
    /// reprogrammed with legal routes.
    fn sync_fabric(&mut self) -> Result<(), RuntimeError> {
        let refs: Vec<&dyn ProcessingElement> = self.pes.iter().map(|b| b.as_ref()).collect();
        self.fabric.validate(&refs)?;
        self.rebuild_route_table();
        Ok(())
    }

    /// Attaches a telemetry sink. The sink immediately learns every PE
    /// slot's name; thereafter it receives one [`WindowReport`] every
    /// `window_frames` frames (plus a final partial window at
    /// [`Runtime::finish`]). `sample_rate_hz` converts frame counts to the
    /// wall time used by the power timeline.
    pub fn attach_telemetry(
        &mut self,
        sink: Arc<dyn TelemetrySink>,
        sample_rate_hz: u32,
        window_frames: u64,
    ) {
        // Re-attachment mid-stream: close the partial window to the
        // outgoing sink first so each sink's totals cover exactly the
        // frames it was attached for.
        self.close_window();
        for (slot, pe) in self.pes.iter().enumerate() {
            sink.declare_pe(slot as u8, pe.kind().name());
        }
        self.sample_rate_hz = sample_rate_hz.max(1);
        self.window_frames = window_frames.max(1);
        self.sink = sink;
        self.restart_window();
    }

    /// Attaches a causal tracer. Each pushed frame asks the tracer's
    /// sampler whether to open a trace; sampled frames have a compact
    /// trace tag propagated along their token flow (sticky on each PE's
    /// output FIFO), and every delivery burst, radio frame, and domain
    /// crossing is recorded as a span. Unsampled frames pay one relaxed
    /// atomic load per frame and one tag read per burst.
    pub fn attach_tracing(&mut self, tracer: Arc<Tracer>) {
        tracer.open_tags_into(&mut self.open_tags);
        self.tracer = Some(tracer);
    }

    /// Enables or disables batched quiet-frame dispatch (on by default).
    /// Off forces the per-frame scalar path for every pushed block — the
    /// A/B knob the equivalence tests and benchmarks flip.
    pub fn set_block_dispatch(&mut self, on: bool) {
        self.block_dispatch = on;
    }

    /// The stream's [`CycleProfile`] so far, rooted at `device` with its
    /// rows under `pipeline`: each slot's busy cycles split by the phase
    /// (ingest / compute / drain / quiet-skip) [`Runtime::charge`] booked
    /// them under. Deterministic — read from the cost ledger, never a wall
    /// clock — and callable mid-stream (drain cycles appear once
    /// [`Runtime::finish`] ran). Per-slot energy is the slot's
    /// [`DomainPowerModel`] window draw over the stream at
    /// `sample_rate_hz`, apportioned across phases by cycle share.
    pub fn profile(&self, device: &str, pipeline: &str, sample_rate_hz: u32) -> CycleProfile {
        let mut out = CycleProfile::new(device);
        out.frames = self.frame_idx;
        let stream_s = self.frame_idx as f64 / sample_rate_hz as f64;
        for (slot, phases) in self.phases.iter().enumerate() {
            let busy = self.totals[slot].busy_cycles;
            if busy == 0 {
                continue;
            }
            let energy_uj = if stream_s > 0.0 {
                // window_mw over the whole stream × stream seconds: mW·s
                // = µJ... (1 mW × 1 s = 1 mJ = 1000 µJ).
                DomainPowerModel::new(self.pes[slot].kind()).window_mw(busy, stream_s)
                    * stream_s
                    * 1000.0
            } else {
                0.0
            };
            let name = self.pes[slot].kind().name();
            for phase in Phase::ALL {
                let cycles = phases[phase as usize];
                if cycles == 0 {
                    continue;
                }
                out.add(ProfileRow {
                    pipeline: pipeline.to_string(),
                    slot: slot as u8,
                    pe: name.to_string(),
                    phase,
                    cycles,
                    energy_uj: energy_uj * cycles as f64 / busy as f64,
                });
            }
        }
        out
    }

    /// The per-slot activity totals accumulated so far.
    pub fn slot_totals(&self) -> &[SlotTotals] {
        &self.totals
    }

    /// Taps every [`Token::Value`] pushed *into* `node` (feature capture
    /// for offline SVM training / threshold calibration).
    pub fn probe_into(&mut self, node: NodeId) {
        self.probe_slot = node.0;
    }

    /// The installed PEs (power/memory introspection).
    pub fn pes(&self) -> &[Box<dyn ProcessingElement>] {
        &self.pes
    }

    /// The fabric (traffic statistics).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable access to the fabric — the mid-run reprogramming path (a
    /// micro-controller poking switch words while the stream is live).
    /// Any reconfiguration bumps the fabric's generation counter; the next
    /// push re-validates the result against the PE array and surfaces an
    /// `Err` (rather than a panic) if a switch word routed off the
    /// installed array.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Frames processed so far.
    pub fn frames(&self) -> u64 {
        self.frame_idx
    }

    /// Pushes one ADC frame (one sample per channel).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if a PE rejects a token.
    pub fn push_frame(&mut self, frame: &[i16]) -> Result<(), RuntimeError> {
        assert!(!self.finished, "runtime already finished");
        self.push_frame_inner(frame)
    }

    /// Pushes a contiguous block of frame-major samples (`frame_len`
    /// samples per frame, e.g. [`halo_signal::Recording::samples`] with
    /// `frame_len` = channels), amortizing per-frame dispatch across the
    /// whole block. Token order, telemetry counters, window emission, and
    /// the radio stream are identical to pushing each frame through
    /// [`Runtime::push_frame`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadBlock`] if `block` is not a whole number
    /// of frames, or any streaming error a per-frame push would raise.
    pub fn push_block(&mut self, block: &[i16], frame_len: usize) -> Result<(), RuntimeError> {
        assert!(!self.finished, "runtime already finished");
        if frame_len == 0 || !block.len().is_multiple_of(frame_len) {
            return Err(RuntimeError::BadBlock {
                len: block.len(),
                frame_len,
            });
        }
        // Byte-adapted sources deliver two tokens per sample with
        // per-byte accounting the batch path does not reproduce; routes
        // off the installed array must surface the scalar path's error.
        // Sources sharing a slot take their samples interleaved, one per
        // source in turn, which a chunk per source would reorder.
        let batchable = self.block_dispatch
            && self
                .sources
                .iter()
                .all(|s| s.adapter == Adapter::Direct && s.to.0 < self.pes.len())
            && !shares_slot(self.sources.iter().map(|s| s.to));
        if !batchable {
            for frame in block.chunks_exact(frame_len) {
                self.push_frame_inner(frame)?;
            }
            return Ok(());
        }
        let frames = block.len() / frame_len;
        let mut f = 0usize;
        while f < frames {
            // How many upcoming whole frames are *quiet* — guaranteed to
            // produce zero output tokens at every source PE? Quiet frames
            // cause no propagation, stalls, MCU flags, radio bytes, or
            // probe captures, so their entire effect is source-side
            // ingest, which `push_quiet_chunk` batches.
            let mut quiet = u64::MAX;
            for src in &self.sources {
                quiet = quiet.min(self.pes[src.to.0].quiet_frames(frame_len));
                if quiet == 0 {
                    break;
                }
            }
            let sink_on = self.sink.enabled();
            if sink_on {
                // Stop at the telemetry window boundary so `emit_window`
                // fires at exactly the scalar cadence.
                quiet = quiet.min(self.window_frames - (self.frame_idx - self.window_start));
            }
            let chunk = quiet.min((frames - f) as u64) as usize;
            if chunk == 0 {
                self.push_frame_inner(&block[f * frame_len..(f + 1) * frame_len])?;
                f += 1;
                continue;
            }
            let samples = &block[f * frame_len..(f + chunk) * frame_len];
            self.push_quiet_chunk(samples, frame_len, chunk, sink_on)?;
            f += chunk;
        }
        Ok(())
    }

    /// Delivers `chunk` quiet frames (`frame_len` samples each) to every
    /// source PE in one batched call per source, replicating the scalar
    /// path's accounting without per-frame dispatch or propagation. The
    /// caller guarantees quietness: no source PE emits a token for any of
    /// these frames, so output FIFOs stay empty (no stalls or bursts) and
    /// a trace opened on one of them records only its source deliveries —
    /// one [`Tracer::advance_quiet`] call covers the whole chunk.
    fn push_quiet_chunk(
        &mut self,
        samples: &[i16],
        frame_len: usize,
        chunk: usize,
        sink_on: bool,
    ) -> Result<(), RuntimeError> {
        if sink_on {
            self.open_frames();
        }
        self.phase = Phase::QuietSkip;
        for k in 0..self.sources.len() {
            let src = self.sources[k];
            let tokens = (chunk * frame_len) as u64;
            self.charge(src.to.0, tokens, 2 * tokens, 0);
            // Sources carry Token::Sample only, so the probe tap (which
            // records Token::Value) can never fire on this path.
            self.pes[src.to.0].push_samples(src.port, samples)?;
        }
        // Before the window flush below: an alert raised there escalates
        // the sampler from the chunk's next frame on, as on the scalar path.
        if let Some(tracer) = &self.tracer {
            let mut spans = std::mem::take(&mut self.source_spans);
            self.price_sources(frame_len, None, &mut spans);
            let tag =
                tracer.advance_quiet(self.frame_idx, chunk as u64, &spans, &mut self.open_tags);
            self.source_spans = spans;
            if tag != 0 {
                self.tag_sources(tag);
            }
        }
        self.frame_idx += chunk as u64;
        if sink_on {
            self.close_frames(chunk as u64);
        }
        Ok(())
    }

    fn push_frame_inner(&mut self, frame: &[i16]) -> Result<(), RuntimeError> {
        let sink_on = self.sink.enabled();
        if sink_on {
            self.open_frames();
        }
        // Ask the sampler whether this frame is traced. Unsampled frames
        // (the overwhelming majority) fall straight through to the same
        // source loop with `tag == 0`.
        // The frame boundary also refreshes the cached open-trace set used
        // by the buffered span recorders — one tracer lock covers both.
        let tag = match &self.tracer {
            Some(t) => t.begin_frame_into(self.frame_idx, &mut self.open_tags),
            None => 0,
        };
        let stall_base: Vec<u64> = if tag != 0 {
            self.totals.iter().map(|t| t.stall_cycles).collect()
        } else {
            Vec::new()
        };
        // Each source takes the whole frame in one delivery, unless two
        // sources share a slot: that PE then sees the samples interleaved,
        // one per source in turn, as the ADC emits them.
        let step = if shares_slot(self.sources.iter().map(|s| s.to)) {
            1
        } else {
            frame.len().max(1)
        };
        self.phase = Phase::Ingest;
        for part in frame.chunks(step) {
            for k in 0..self.sources.len() {
                let src = self.sources[k];
                match src.adapter {
                    Adapter::Direct => self.deliver_samples(src.to.0, src.port, part)?,
                    Adapter::SamplesToBytes => {
                        let mut bytes = std::mem::take(&mut self.copy);
                        bytes.clear();
                        bytes.extend(part.iter().flat_map(|s| s.to_le_bytes()).map(Token::Byte));
                        let res =
                            self.deliver(src.to.0, src.port, &mut bytes, 2 * part.len() as u64);
                        self.copy = bytes;
                        res?;
                    }
                }
            }
        }
        if tag != 0 {
            self.trace_sources(tag, frame.len(), &stall_base);
        }
        self.frame_idx += 1;
        self.phase = Phase::Compute;
        self.propagate()?;
        self.flush_trace_buf();
        if sink_on {
            self.close_frames(1);
        }
        Ok(())
    }

    /// Opens the end-to-end latency sample of the frames about to be
    /// pushed: snapshots every slot's busy cycles (reused scratch — no
    /// steady-state allocation).
    fn open_frames(&mut self) {
        self.frame_base.clear();
        self.frame_base
            .extend(self.totals.iter().map(|t| t.busy_cycles));
    }

    /// Closes the `frames` frames [`Runtime::open_frames`] opened, which
    /// split the busy cycles charged since evenly (a quiet chunk charges
    /// each of its frames alike), and closes a full telemetry window.
    /// Each frame's sample is every domain's busy-cycle delta at its own
    /// anchor frequency: the modeled fabric pipelines PEs, but summing
    /// serialized service time is the conservative upper bound a deadline
    /// check wants. Samples ride in the window's report.
    fn close_frames(&mut self, frames: u64) {
        let mut nanos = 0.0f64;
        for (slot, t) in self.totals.iter().enumerate() {
            let delta = (t.busy_cycles - self.frame_base[slot]) / frames;
            if delta != 0 {
                nanos += self.nanos(slot, delta);
            }
        }
        self.report
            .frame_latency_ns
            .extend(std::iter::repeat_n(nanos as u64, frames as usize));
        if self.frame_idx - self.window_start >= self.window_frames {
            self.emit_window();
        }
    }

    /// Injects one fault between frames, before the next frame's samples
    /// are ingested: a link degradation charges its stall cycles, a rogue
    /// switch word returns the error the fabric's re-validation raises.
    pub(crate) fn apply_fault(&mut self, action: &FaultAction) -> Result<(), RuntimeError> {
        match *action {
            FaultAction::LinkDegrade { to, stall_cycles } => {
                if to.0 >= self.pes.len() {
                    return Err(RuntimeError::NoSuchNode(to));
                }
                self.charge(to.0, 0, 0, stall_cycles);
                Ok(())
            }
            FaultAction::RogueMmio { word } => {
                self.fabric.program(word)?;
                // The MMIO write triggers re-validation immediately — an
                // illegal word surfaces here, before any sample of this
                // frame is ingested, and keeps surfacing until the fabric
                // is reprogrammed with legal words.
                self.sync_fabric()
            }
        }
    }

    /// Ends the stream: flushes every PE and drains remaining tokens.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if a PE rejects a token during draining.
    pub fn finish(&mut self) -> Result<(), RuntimeError> {
        if self.finished {
            return Ok(());
        }
        self.phase = Phase::Drain;
        for i in 0..self.pes.len() {
            self.pes[i].flush();
            self.propagate()?;
        }
        self.flush_trace_buf();
        self.radio.finish();
        self.finished = true;
        self.close_window();
        Ok(())
    }

    /// Closes the open telemetry window to an enabled sink, partial or
    /// not — at the end of the stream, before the sink changes, and
    /// wherever the device hands the stream off (a runtime error, a
    /// reconfiguration).
    pub(crate) fn close_window(&mut self) {
        if self.sink.enabled() {
            self.emit_window();
        }
    }

    /// Hands the current telemetry window to the sink as one
    /// [`WindowReport`]: the deltas of the slot and link ledgers and of the
    /// radio stream since the window opened, so windowed deltas always sum
    /// to the stream's totals, with each slot's FIFO high-water mark,
    /// window power and service time, and the window's frame-latency
    /// samples. The zero-frame window [`Runtime::finish`] closes when the
    /// stream ends on a window boundary carries only the drain's counters.
    fn emit_window(&mut self) {
        let mut report = std::mem::take(&mut self.report);
        report.start = self.window_start;
        report.frames = (self.frame_idx - self.window_start) as u32;
        let window_s = f64::from(report.frames) / self.sample_rate_hz as f64;
        report.links.clear();
        for (k, link) in self.fabric.link_traffic().iter().enumerate() {
            let base = self
                .link_base
                .get(k)
                .map_or((0, 0), |b| (b.transfers, b.bytes));
            let (transfers, bytes) = (link.transfers - base.0, link.bytes - base.1);
            if transfers != 0 {
                report.links.push(LinkWindow {
                    from: link.from.0 as u8,
                    to: link.to.0 as u8,
                    bytes,
                    transfers,
                });
            }
        }
        report.slots.clear();
        for slot in 0..self.pes.len() {
            let (now, base) = (self.totals[slot], self.window_base[slot]);
            let busy = now.busy_cycles - base.busy_cycles;
            let pe = &self.pes[slot];
            report.slots.push(SlotWindow {
                busy_cycles: busy,
                stall_cycles: now.stall_cycles - base.stall_cycles,
                bytes_in: now.bytes_in - base.bytes_in,
                bytes_out: now.bytes_out - base.bytes_out,
                fifo_high_water: pe.output_fifo().high_water() as u64,
                milliwatts: DomainPowerModel::new(pe.kind()).window_mw(busy, window_s),
                service_ns: self.nanos(slot, busy) as u64,
            });
        }
        report.radio_bytes = self.radio.framed.len() as u64 - self.radio_base;
        self.sink.window(&report);
        report.frame_latency_ns.clear();
        self.report = report;
        self.restart_window();
    }

    /// Starts a telemetry window at the current frame: its report will
    /// carry the ledgers' deltas from where they stand now.
    fn restart_window(&mut self) {
        self.window_base.clone_from(&self.totals);
        self.link_base.clear();
        self.link_base.extend_from_slice(self.fabric.link_traffic());
        self.radio_base = self.radio.framed.len() as u64;
        self.window_start = self.frame_idx;
    }

    /// Busy cycles `tokens` pushes into `slot` cost: the cost model's one
    /// read of `cycles_per_token`.
    fn cycles(&self, slot: usize, tokens: u64) -> u64 {
        self.cycles_per_token[slot] * tokens
    }

    /// Wall nanoseconds `cycles` busy cycles of `slot` take at its
    /// domain's anchor clock.
    fn nanos(&self, slot: usize, cycles: u64) -> f64 {
        cycles as f64 * self.ns_per_cycle[slot]
    }

    /// Charges `tokens` pushes of `bytes` wire bytes into `slot`, `stalls`
    /// of which found its output FIFO still occupied — the consumer had not
    /// kept up, which counts as back-pressure. The busy cycles also go to
    /// the slot's row for the current phase.
    fn charge(&mut self, slot: usize, tokens: u64, bytes: u64, stalls: u64) {
        let cycles = self.cycles(slot, tokens);
        let t = &mut self.totals[slot];
        t.tokens_in += tokens;
        t.bytes_in += bytes;
        t.busy_cycles += cycles;
        t.stall_cycles += stalls;
        self.phases[slot][self.phase as usize] += cycles;
    }

    /// Delivers a burst (`bytes` wire bytes in all) into `to`'s input
    /// `port` in one [`ProcessingElement::push_burst`] call, which counts
    /// its stalls, and accounts it once.
    fn deliver(
        &mut self,
        to: usize,
        port: usize,
        tokens: &mut VecDeque<Token>,
        bytes: u64,
    ) -> Result<(), RuntimeError> {
        let Some(pe) = self.pes.get_mut(to) else {
            return Err(RuntimeError::NoSuchNode(NodeId(to)));
        };
        if self.probe_slot == to {
            self.probed.extend(tokens.iter().filter_map(|t| match t {
                Token::Value(v) => Some((port, *v)),
                _ => None,
            }));
        }
        let n = tokens.len() as u64;
        let stalls = pe.push_burst(port, tokens)?;
        self.charge(to, n, bytes, stalls);
        Ok(())
    }

    /// [`Runtime::deliver`] for ADC samples. `push_samples` counts no
    /// stalls, so samples go one at a time while the output FIFO is empty
    /// and the stalled remainder (every later sample, by the stall rule of
    /// [`ProcessingElement::push_burst`]) goes through one
    /// [`ProcessingElement::push_samples`] call. A PE whose output FIFO is
    /// empty and that promises a quiet frame on port 0 takes the whole
    /// delivery in that call: token by token, every push would find the
    /// FIFO still empty, so none stalls.
    fn deliver_samples(
        &mut self,
        to: usize,
        port: usize,
        samples: &[i16],
    ) -> Result<(), RuntimeError> {
        let Some(pe) = self.pes.get_mut(to) else {
            return Err(RuntimeError::NoSuchNode(NodeId(to)));
        };
        if port == 0 && pe.output_fifo().is_empty() && pe.quiet_frames(samples.len()) >= 1 {
            pe.push_samples(port, samples)?;
            let n = samples.len() as u64;
            self.charge(to, n, 2 * n, 0);
            return Ok(());
        }
        let mut pushed = 0;
        while pushed < samples.len() && pe.output_fifo().is_empty() {
            pe.push(port, Token::Sample(samples[pushed]))?;
            pushed += 1;
        }
        if pushed < samples.len() {
            pe.push_samples(port, &samples[pushed..])?;
        }
        let n = samples.len() as u64;
        self.charge(to, n, 2 * n, n - pushed as u64);
        Ok(())
    }

    /// Flushes the frame's buffered span events into the tracer under a
    /// single lock. Called once per scalar frame (after propagation runs
    /// to quiescence) and once at [`Runtime::finish`] — span trees come
    /// out identical to the old eager per-burst recording because events
    /// replay in emission order.
    fn flush_trace_buf(&mut self) {
        if self.trace_buf.is_empty() {
            return;
        }
        if let Some(tracer) = &self.tracer {
            tracer.record_batch(&self.trace_buf);
        }
        self.trace_buf.clear();
    }

    /// Buffers one source-delivery span per ADC route for a traced frame.
    /// `tag` was opened by this frame's `begin_frame_into`, so the trace
    /// accepts them. Traced frames only — the per-frame Vec snapshots are
    /// off the untraced hot path.
    fn trace_sources(&mut self, tag: u64, channels: usize, stall_base: &[u64]) {
        let mut spans = std::mem::take(&mut self.source_spans);
        self.price_sources(channels, Some(stall_base), &mut spans);
        self.trace_buf
            .extend(spans.iter().map(|s| TraceEvent::Delivery {
                tag,
                from: None,
                to: s.to,
                to_name: s.to_name,
                tokens: s.tokens,
                bytes: s.bytes,
                costs: s.costs,
            }));
        self.source_spans = spans;
        self.tag_sources(tag);
    }

    /// Prices one source-delivery span per ADC route into `out`: the
    /// ingest cost of a frame's `channels` samples at each entry PE, with
    /// the back-pressure counted since `stall_base` attributed to the
    /// first route that feeds each destination. `None` prices a quiet
    /// frame, which cannot stall.
    fn price_sources(
        &self,
        channels: usize,
        stall_base: Option<&[u64]>,
        out: &mut Vec<SourceSpan>,
    ) {
        out.clear();
        for (k, src) in self.sources.iter().enumerate() {
            let to = src.to.0;
            if to >= self.pes.len() {
                continue;
            }
            let (tokens, bytes) = match src.adapter {
                Adapter::Direct => (channels as u64, 2 * channels as u64),
                Adapter::SamplesToBytes => (2 * channels as u64, 2 * channels as u64),
            };
            let wait = match stall_base {
                Some(base) if !self.sources[..k].iter().any(|s| s.to.0 == to) => {
                    self.totals[to].stall_cycles - base[to]
                }
                _ => 0,
            };
            out.push(SourceSpan {
                to: to as u8,
                to_name: self.pes[to].kind().name(),
                tokens: tokens as u32,
                bytes,
                costs: self.price(None, to, tokens, bytes, wait),
            });
        }
    }

    /// Sets `tag` on every source PE's output FIFO, so the frame's output
    /// inherits its trace.
    fn tag_sources(&mut self, tag: u64) {
        for src in &self.sources {
            if let Some(pe) = self.pes.get_mut(src.to.0) {
                pe.output_fifo_mut().set_trace_tag(tag);
            }
        }
    }

    /// Prices one delivery span: `n` tokens of `bytes` wire bytes into
    /// `to` from the PE `from` (or from the ADC), `wait` of whose pushes
    /// stalled. ADC deliveries cross no link and no clock domain.
    fn price(
        &self,
        from: Option<usize>,
        to: usize,
        n: u64,
        bytes: u64,
        wait: u64,
    ) -> DeliveryCosts {
        let ns = &self.ns_per_cycle;
        let (noc_ns, cross_ns) = match from {
            None => (0, 0),
            Some(from) => (
                (bytes as f64 * NS_PER_LINK_BYTE) as u64,
                // Clock-domain crossing: one consumer-domain cycle of
                // synchronizer latency when producer and consumer run at
                // different anchor frequencies (§IV-D dual-clock FIFOs).
                if ns[from] != ns[to] { ns[to] as u64 } else { 0 },
            ),
        };
        DeliveryCosts {
            noc_ns,
            wait_ns: self.nanos(to, wait) as u64,
            cross_ns,
            service_ns: self.nanos(to, self.cycles(to, n)) as u64,
        }
    }

    /// Drains every PE output until the array is quiescent.
    ///
    /// This is the streaming hot path. Each drained burst reaches each of
    /// its consumers in one [`Runtime::deliver`] call and is accounted once
    /// per burst: producer and consumer totals, the fabric's link traffic,
    /// and the radio, MCU and probe taps. Fan-out is looked up
    /// in the precomputed route table, and bursts move through two reusable
    /// scratch queues, so steady state allocates nothing.
    fn propagate(&mut self) -> Result<(), RuntimeError> {
        if self.route_gen != self.fabric.generation() {
            self.sync_fabric()?;
        }
        // The scratch queues leave `self` for the duration of the sweep so
        // PEs can be drained into them while routes are consulted. On an
        // error mid-burst the undelivered remainder is discarded — the
        // stream is dead once a push fails.
        let mut burst = std::mem::take(&mut self.burst);
        let mut copy = std::mem::take(&mut self.copy);
        let result = self.propagate_burst(&mut burst, &mut copy);
        burst.clear();
        copy.clear();
        self.burst = burst;
        self.copy = copy;
        result
    }

    fn propagate_burst(
        &mut self,
        burst: &mut VecDeque<Token>,
        copy: &mut VecDeque<Token>,
    ) -> Result<(), RuntimeError> {
        loop {
            let mut moved = false;
            for i in 0..self.pes.len() {
                // Idle PEs (the common case between block boundaries) cost
                // one occupancy read. A drain into the empty `burst` lends
                // it the FIFO's buffer and reports the burst's wire bytes.
                let fifo = self.pes[i].output_fifo_mut();
                if fifo.is_empty() {
                    continue;
                }
                let bytes = fifo.drain_into(burst);
                // Sticky causal context: a traced frame tags its producers'
                // output FIFOs, so every downstream burst inherits the tag.
                let tag = if self.tracer.is_some() {
                    fifo.trace_tag()
                } else {
                    0
                };
                moved = true;
                let n = burst.len() as u64;
                let t = &mut self.totals[i];
                t.tokens_out += n;
                t.bytes_out += bytes;
                let is_radio = self.radio_slot == i;
                if is_radio {
                    for token in burst.iter() {
                        self.radio.consume(token);
                    }
                }
                if self.mcu_slot == i {
                    let frame = self.frame_idx;
                    self.mcu_flags.extend(burst.iter().filter_map(|t| match t {
                        Token::Flag(f) => Some((frame, *f)),
                        _ => None,
                    }));
                }
                // Traced bursts price each span's wait from the consumer's
                // stall counter before and after the delivery.
                let mut stall_base = std::mem::take(&mut self.trace_stall_scratch);
                stall_base.clear();
                if tag != 0 {
                    stall_base.extend(
                        self.route_table[i]
                            .iter()
                            .map(|r| self.totals[r.to.0].stall_cycles),
                    );
                }
                let fan_out = self.route_table[i].len();
                if shares_slot(self.route_table[i].iter().map(|r| r.to)) {
                    // Two routes into one slot: that PE's state depends on
                    // the order its ports see tokens, so stay interleaved.
                    while let Some(token) = burst.pop_front() {
                        let b = token.wire_bytes() as u64;
                        for k in 0..fan_out {
                            let route = self.route_table[i][k];
                            copy.clear();
                            copy.push_back(token.clone());
                            self.deliver(route.to.0, route.to_port, copy, b)?;
                        }
                    }
                } else {
                    // Each consumer takes the whole burst: a copy for all
                    // but the last, which takes the burst itself.
                    for k in 0..fan_out {
                        let route = self.route_table[i][k];
                        if k + 1 < fan_out {
                            copy.clear();
                            copy.extend(burst.iter().cloned());
                            self.deliver(route.to.0, route.to_port, copy, bytes)?;
                        } else {
                            self.deliver(route.to.0, route.to_port, burst, bytes)?;
                        }
                    }
                }
                for route in &self.route_table[i] {
                    self.fabric.record_transfers(route.from, route.to, n, bytes);
                }
                if tag != 0 {
                    self.trace_burst(tag, i, n, bytes, &stall_base, is_radio);
                }
                self.trace_stall_scratch = stall_base;
                // Hand the lent buffer back, so each FIFO keeps its own
                // capacity. A producer with no routes (a tap only) leaves
                // its burst whole.
                burst.clear();
                self.pes[i].output_fifo_mut().reclaim(burst);
            }
            if !moved {
                return Ok(());
            }
        }
    }

    /// Buffers the spans for one traced delivery burst out of slot `from`:
    /// a PeService span per consumer (with NocHop / FifoWait / DomainCross
    /// children priced from the burst's size and observed back-pressure),
    /// plus a RadioFrame span if this slot feeds the radio. Consumers that
    /// accept the delivery inherit the trace tag on their output FIFOs;
    /// once every delivery is refused (trace closed or expired) the
    /// producer's tag is cleared so the context stops propagating.
    /// Acceptance is the cached open-set membership — openness only moves
    /// at frame boundaries, so it matches what the eager recorder's lock
    /// would have answered mid-frame.
    fn trace_burst(
        &mut self,
        tag: u64,
        from: usize,
        n: u64,
        total_bytes: u64,
        stall_base: &[u64],
        is_radio: bool,
    ) {
        if self.tracer.is_none() {
            return;
        }
        let accepted = self.open_tags.contains(&tag);
        let from_name = self.pes[from].kind().name();
        let mut keep = false;
        for (k, &base) in stall_base.iter().enumerate() {
            let to = self.route_table[from][k].to.0;
            let wait = self.totals[to].stall_cycles - base;
            let costs = self.price(Some(from), to, n, total_bytes, wait);
            if accepted {
                self.trace_buf.push(TraceEvent::Delivery {
                    tag,
                    from: Some((from as u8, from_name)),
                    to: to as u8,
                    to_name: self.pes[to].kind().name(),
                    tokens: n as u32,
                    bytes: total_bytes,
                    costs,
                });
                keep = true;
                self.pes[to].output_fifo_mut().set_trace_tag(tag);
            }
        }
        if is_radio && accepted {
            let ns = (total_bytes as f64 * NS_PER_RADIO_BYTE) as u64;
            self.trace_buf.push(TraceEvent::Radio {
                tag,
                node: from as u8,
                tokens: n as u32,
                bytes: total_bytes,
                ns,
            });
            keep = true;
        }
        if !keep {
            self.pes[from].output_fifo_mut().clear_trace_tag();
        }
    }

    /// The framed radio stream (compressed blocks or raw payload). Empty
    /// once [`HaloSystem::finalize`](crate::HaloSystem::finalize) has
    /// moved it into the run's metrics.
    pub fn radio_stream(&self) -> &[u8] {
        &self.radio.framed
    }

    /// Flags delivered to the micro-controller, with the frame index at
    /// which each arrived. Empty once
    /// [`HaloSystem::finalize`](crate::HaloSystem::finalize) has moved
    /// them into the run's metrics.
    pub fn mcu_flags(&self) -> &[(u64, bool)] {
        &self.mcu_flags
    }

    /// Whether [`Runtime::finish`] has ended the stream.
    pub(crate) fn finished(&self) -> bool {
        self.finished
    }

    /// Moves the radio stream and the MCU flag record out, leaving both
    /// empty: each output is recorded once and handed on, not copied.
    pub(crate) fn take_outputs(&mut self) -> (Vec<u8>, Vec<(u64, bool)>) {
        // Windows count radio bytes from the stream's length, which
        // restarts at zero.
        self.radio_base = 0;
        (
            std::mem::take(&mut self.radio.framed),
            std::mem::take(&mut self.mcu_flags),
        )
    }

    /// `(port, value)` pairs captured by [`Runtime::probe_into`], in
    /// arrival order.
    pub fn probed(&self) -> &[(usize, i64)] {
        &self.probed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_kernels::Threshold;
    use halo_noc::Route;
    use halo_pe::pes::{GatePe, NeoPe, ThrPe};

    /// Builds the NEO spike-detection graph by hand and checks end-to-end
    /// token flow: ADC -> NEO -> THR -> GATE(ctrl), ADC -> GATE(data).
    fn spike_runtime(threshold: i64) -> Runtime {
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(NeoPe::with_channels(1)),
            Box::new(ThrPe::new(Threshold::above(threshold))),
            Box::new(GatePe::with_channels(2, 1, 1)),
        ];
        let mut fabric = Fabric::new();
        fabric
            .connect(Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port: 0,
            })
            .unwrap();
        fabric
            .connect(Route {
                from: NodeId(1),
                to: NodeId(2),
                to_port: 1,
            })
            .unwrap();
        let sources = vec![
            SourceRoute {
                to: NodeId(0),
                port: 0,
                adapter: Adapter::Direct,
            },
            SourceRoute {
                to: NodeId(2),
                port: 0,
                adapter: Adapter::Direct,
            },
        ];
        Runtime::new(pes, fabric, sources, Some(NodeId(2)), Some(NodeId(1))).unwrap()
    }

    #[test]
    fn spike_graph_gates_quiet_samples() {
        let mut rt = spike_runtime(100_000);
        // Quiet stream: nothing passes.
        for _ in 0..50 {
            rt.push_frame(&[3]).unwrap();
        }
        rt.finish().unwrap();
        assert!(rt.radio_stream().is_empty(), "quiet stream leaked");
    }

    #[test]
    fn spike_graph_passes_spikes() {
        let mut rt = spike_runtime(100_000);
        for t in 0..50i16 {
            let s = if t == 25 { 2_000 } else { 0 };
            rt.push_frame(&[s]).unwrap();
        }
        rt.finish().unwrap();
        // The spike sample (and the hold window) reached the radio.
        assert!(!rt.radio_stream().is_empty());
        assert!(rt.radio_stream().len() <= 2 * 4, "gate passed too much");
        // THR flags reached the MCU sink.
        assert!(rt.mcu_flags().iter().any(|&(_, f)| f));
    }

    #[test]
    fn fabric_traffic_is_accounted() {
        let mut rt = spike_runtime(1);
        for _ in 0..10 {
            rt.push_frame(&[500]).unwrap();
        }
        rt.finish().unwrap();
        assert!(rt.fabric().transfers() > 0);
        assert!(rt.fabric().bus_bytes() > 0);
    }

    #[test]
    fn probe_captures_values_into_node() {
        let mut rt = spike_runtime(i64::MAX);
        rt.probe_into(NodeId(1)); // values entering THR
        for t in 0..10i16 {
            rt.push_frame(&[t * 100]).unwrap();
        }
        rt.finish().unwrap();
        assert_eq!(rt.probed().len(), 10);
    }

    /// Regression: a switch word naming a node the PE array does not have
    /// used to crash the stream with an out-of-bounds panic on the next
    /// token. It must surface as a validation error instead — and keep
    /// surfacing until the fabric is reprogrammed with legal routes.
    #[test]
    fn bad_switch_word_mid_run_errors_not_panics() {
        let mut rt = spike_runtime(1);
        rt.push_frame(&[500]).unwrap();
        // MMIO write path: raw word, no validation at program time.
        let rogue = Fabric::encode_route(Route {
            from: NodeId(1),
            to: NodeId(9),
            to_port: 0,
        });
        rt.fabric_mut().program(rogue).unwrap();
        assert!(rt.push_frame(&[500]).is_err(), "rogue route accepted");
        assert!(rt.push_frame(&[500]).is_err(), "error did not persist");
    }

    /// A teardown-and-reprogram with legal routes recovers the stream
    /// after a rogue word poisoned it.
    #[test]
    fn reprogramming_after_bad_word_recovers() {
        let mut rt = spike_runtime(1);
        let rogue = Fabric::encode_route(Route {
            from: NodeId(1),
            to: NodeId(9),
            to_port: 0,
        });
        rt.fabric_mut().program(rogue).unwrap();
        assert!(rt.push_frame(&[500]).is_err());
        rt.fabric_mut().program(Fabric::WORD_CLEAR).unwrap();
        for route in [
            Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port: 0,
            },
            Route {
                from: NodeId(1),
                to: NodeId(2),
                to_port: 1,
            },
        ] {
            rt.fabric_mut()
                .program(Fabric::encode_route(route))
                .unwrap();
        }
        rt.push_frame(&[500])
            .expect("legal reprogram did not recover");
    }

    /// Block pushes are an accounting-identical batching of frame pushes:
    /// every per-slot counter and the radio stream must match exactly.
    #[test]
    fn push_block_matches_push_frame() {
        let samples: Vec<i16> = (0..64).map(|t| if t % 7 == 0 { 900 } else { t }).collect();
        let mut by_frame = spike_runtime(1);
        for s in &samples {
            by_frame.push_frame(&[*s]).unwrap();
        }
        by_frame.finish().unwrap();
        let mut by_block = spike_runtime(1);
        by_block.push_block(&samples, 1).unwrap();
        by_block.finish().unwrap();
        assert_eq!(by_frame.slot_totals(), by_block.slot_totals());
        assert_eq!(by_frame.radio_stream(), by_block.radio_stream());
        assert_eq!(by_frame.mcu_flags(), by_block.mcu_flags());
        assert_eq!(by_frame.fabric().bus_bytes(), by_block.fabric().bus_bytes());
    }

    /// Telemetry attachment must not perturb the simulation, and the
    /// per-burst counter updates must equal the fabric's own
    /// accounting: slot totals, radio stream, and fabric counters are
    /// identical with and without a recorder, and the recorder's link,
    /// frame, and latency totals reconcile with the runtime's.
    #[test]
    fn recorder_attachment_is_accounting_neutral() {
        let samples: Vec<i16> = (0..64).map(|t| if t % 7 == 0 { 900 } else { t }).collect();
        let mut bare = spike_runtime(1);
        bare.push_block(&samples, 1).unwrap();
        bare.finish().unwrap();

        let recorder = Arc::new(halo_telemetry::Recorder::new(4096));
        let mut observed = spike_runtime(1);
        observed.attach_telemetry(recorder.clone(), 30_000, 16);
        observed.push_block(&samples, 1).unwrap();
        observed.finish().unwrap();

        assert_eq!(bare.slot_totals(), observed.slot_totals());
        assert_eq!(bare.radio_stream(), observed.radio_stream());
        assert_eq!(bare.fabric().bus_bytes(), observed.fabric().bus_bytes());

        let snap = recorder.snapshot();
        assert_eq!(snap.frames, observed.frames());
        assert_eq!(snap.noc_bytes(), observed.fabric().bus_bytes());
        assert_eq!(snap.noc_transfers(), observed.fabric().transfers());
        // One end-to-end latency sample per frame survives the batching.
        let sampled: u64 = recorder
            .pipeline_histograms()
            .iter()
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(sampled, observed.frames());
    }

    #[test]
    fn push_block_rejects_ragged_blocks() {
        let mut rt = spike_runtime(1);
        assert!(matches!(
            rt.push_block(&[1, 2, 3], 2),
            Err(RuntimeError::BadBlock {
                len: 3,
                frame_len: 2
            })
        ));
        assert!(matches!(
            rt.push_block(&[1, 2, 3], 0),
            Err(RuntimeError::BadBlock { .. })
        ));
    }

    /// Regression: a framed (compressed) stream that ends mid-block used
    /// to drop bare tail bytes after the last complete frame, which a
    /// block parser would misread as a header. The tail must be framed
    /// with a zero raw-length marker.
    #[test]
    fn radio_finish_frames_partial_tail_block() {
        let mut rc = RadioCollector::default();
        rc.consume(&Token::Byte(0xAA));
        rc.consume(&Token::BlockEnd { raw_len: 4 });
        rc.consume(&Token::Byte(7));
        rc.consume(&Token::Byte(8));
        rc.finish();
        let mut expected = Vec::new();
        expected.extend_from_slice(&4u32.to_le_bytes()); // raw len
        expected.extend_from_slice(&1u32.to_le_bytes()); // comp len
        expected.push(0xAA);
        expected.extend_from_slice(&0u32.to_le_bytes()); // tail marker
        expected.extend_from_slice(&2u32.to_le_bytes()); // tail comp len
        expected.extend_from_slice(&[7, 8]);
        assert_eq!(rc.framed, expected);
    }

    /// Regression: detector flags arriving on a framed stream are control
    /// traffic and must not be spliced into compressed payload.
    #[test]
    fn radio_flags_not_spliced_into_framed_payload() {
        let mut rc = RadioCollector::default();
        rc.consume(&Token::Byte(1));
        rc.consume(&Token::BlockEnd { raw_len: 1 });
        rc.consume(&Token::Flag(true));
        rc.consume(&Token::Byte(2));
        rc.consume(&Token::BlockEnd { raw_len: 1 });
        let mut expected = Vec::new();
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.push(1);
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.push(2);
        assert_eq!(rc.framed, expected, "flag byte leaked into a block");
    }
}
