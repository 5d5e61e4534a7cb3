//! The traced pass's per-layer numbers, each measured from outside the
//! program through its public calls:
//!
//! * PEs: every PE of `Pipeline::build` replayed alone over the exact
//!   token sequence it received, in 1 ms slices. A shadow copy of the
//!   pipeline, driven with the runtime's delivery order, records that
//!   sequence and must reproduce the system's radio stream, detector flags
//!   and per-slot token counts.
//! * Runtime: the bare system's time minus the PEs' — dispatch, routing
//!   and accounting.
//! * Kernels and codecs on slices of the workload's own signal.
//! * Controller firmware, system calls, telemetry and fleet reporting.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use halo_core::runtime::Adapter;
use halo_core::{Controller, HaloConfig, HaloSystem, Pipeline, SystemError, Task, TaskMetrics};
use halo_fleet::registry::{fleet_profile, render_exposition};
use halo_fleet::triage::render_triage;
use halo_fleet::{SessionReport, SessionSpec};
use halo_kernels::{
    Aes128, Bbf, BbfDesign, ChannelBlock, Dwt, DwtmaCodec, Fft, Gate, Lz4Codec, LzMatcher,
    LzmaCodec, Neo, StreamingXcor, Threshold, XcorConfig,
};
use halo_noc::Fabric;
use halo_pe::{ProcessingElement, Token};
use halo_signal::Recording;
use halo_telemetry::{
    ContinuousConfig, ContinuousTelemetry, HealthConfig, HealthMonitor, Recorder, Tracer,
};

use crate::stats::median;
use crate::workloads::{interleaved, Device, CHUNK_FRAMES, TRIAGE_K};

/// Slices replayed under one clock read pair, so timer cost stays far
/// below the work of even the cheapest PE.
const SLICES_PER_TIMING: usize = 10;

/// Values by metric name: per-layer metrics, or the detail behind them.
pub type Layers = BTreeMap<String, f64>;

/// One recorded delivery into a PE.
enum Op {
    Token(usize, Token),
    /// A quiet chunk: `push_samples(port, recording[range])`.
    Samples(usize, std::ops::Range<usize>),
    /// End of a 1 ms slice: the runtime has drained the PE by now.
    Drain,
    Flush,
}

/// A pipeline stepped with the runtime's delivery order: per frame every
/// sample goes to every source in order, then PE outputs propagate in
/// slot sweeps until quiescent; stretches every source promises to absorb
/// silently go in as one batch. It records what each PE received.
struct Shadow {
    pes: Vec<Box<dyn ProcessingElement>>,
    fan_out: Vec<Vec<(usize, usize)>>,
    sources: Vec<(usize, usize, Adapter)>,
    radio: Option<usize>,
    mcu: Option<usize>,
    frame: u64,
    ops: Vec<Vec<Op>>,
    tokens_in: Vec<u64>,
    tokens_out: Vec<u64>,
    burst: VecDeque<Token>,
    radio_pending: Vec<u8>,
    radio_framed: Vec<u8>,
    radio_framed_blocks: bool,
    flags: Vec<(u64, bool)>,
}

impl Shadow {
    fn new(p: Pipeline) -> Shadow {
        let n = p.pes.len();
        let mut fan_out = vec![Vec::new(); n];
        for r in &p.routes {
            fan_out[r.from.0].push((r.to.0, r.to_port));
        }
        Shadow {
            pes: p.pes,
            fan_out,
            sources: p
                .sources
                .iter()
                .map(|s| (s.to.0, s.port, s.adapter))
                .collect(),
            radio: p.radio_from.map(|n| n.0),
            mcu: p.mcu_from.map(|n| n.0),
            frame: 0,
            ops: (0..n).map(|_| Vec::new()).collect(),
            tokens_in: vec![0; n],
            tokens_out: vec![0; n],
            burst: VecDeque::new(),
            radio_pending: Vec::new(),
            radio_framed: Vec::new(),
            radio_framed_blocks: false,
            flags: Vec::new(),
        }
    }

    fn deliver(&mut self, to: usize, port: usize, token: Token) -> Result<(), SystemError> {
        self.tokens_in[to] += 1;
        self.ops[to].push(Op::Token(port, token.clone()));
        self.pes[to]
            .push(port, token)
            .map_err(|e| SystemError::Runtime(e.into()))
    }

    /// One block of frame-major samples starting at `offset` in `all`.
    fn push_block(
        &mut self,
        all: &[i16],
        offset: usize,
        len: usize,
        frame_len: usize,
    ) -> Result<(), SystemError> {
        let batchable = self.sources.iter().all(|s| s.2 == Adapter::Direct);
        let frames = len / frame_len;
        let mut f = 0;
        while f < frames {
            let mut quiet = if batchable { u64::MAX } else { 0 };
            for &(to, _, _) in &self.sources {
                if quiet == 0 {
                    break;
                }
                quiet = quiet.min(self.pes[to].quiet_frames(frame_len));
            }
            let chunk = quiet.min((frames - f) as u64) as usize;
            let start = offset + f * frame_len;
            if chunk == 0 {
                for &sample in &all[start..start + frame_len] {
                    for k in 0..self.sources.len() {
                        let (to, port, adapter) = self.sources[k];
                        match adapter {
                            Adapter::Direct => self.deliver(to, port, Token::Sample(sample))?,
                            Adapter::SamplesToBytes => {
                                for b in sample.to_le_bytes() {
                                    self.deliver(to, port, Token::Byte(b))?;
                                }
                            }
                        }
                    }
                }
                self.frame += 1;
                self.propagate()?;
                f += 1;
                continue;
            }
            let range = start..start + chunk * frame_len;
            for &(to, port, _) in &self.sources {
                self.tokens_in[to] += range.len() as u64;
                self.ops[to].push(Op::Samples(port, range.clone()));
                self.pes[to]
                    .push_samples(port, &all[range.clone()])
                    .map_err(|e| SystemError::Runtime(e.into()))?;
            }
            self.frame += chunk as u64;
            f += chunk;
        }
        for ops in &mut self.ops {
            ops.push(Op::Drain);
        }
        Ok(())
    }

    fn propagate(&mut self) -> Result<(), SystemError> {
        let mut burst = std::mem::take(&mut self.burst);
        loop {
            let mut moved = false;
            for i in 0..self.pes.len() {
                burst.clear();
                self.pes[i].drain_output(&mut burst);
                if burst.is_empty() {
                    continue;
                }
                moved = true;
                self.tokens_out[i] += burst.len() as u64;
                while let Some(token) = burst.pop_front() {
                    if self.radio == Some(i) {
                        self.radio_consume(&token);
                    }
                    if self.mcu == Some(i) {
                        if let Token::Flag(f) = token {
                            self.flags.push((self.frame, f));
                        }
                    }
                    for k in 0..self.fan_out[i].len() {
                        let (to, port) = self.fan_out[i][k];
                        self.deliver(to, port, token.clone())?;
                    }
                }
            }
            if !moved {
                self.burst = burst;
                return Ok(());
            }
        }
    }

    /// The runtime's radio framing: payload bytes are framed per block
    /// once a block marker has been seen; flags are payload only in raw
    /// streams.
    fn radio_consume(&mut self, token: &Token) {
        match token {
            Token::Byte(b) => self.radio_pending.push(*b),
            Token::Sample(s) => self.radio_pending.extend_from_slice(&s.to_le_bytes()),
            Token::Flag(f) => {
                if !self.radio_framed_blocks {
                    self.radio_pending.push(*f as u8);
                }
            }
            Token::Value(v) => self.radio_pending.extend_from_slice(&v.to_le_bytes()),
            Token::Coeff(c) => self.radio_pending.extend_from_slice(&c.to_le_bytes()),
            Token::BlockEnd { raw_len } => {
                self.radio_framed_blocks = true;
                self.radio_framed.extend_from_slice(&raw_len.to_le_bytes());
                self.radio_framed
                    .extend_from_slice(&(self.radio_pending.len() as u32).to_le_bytes());
                self.radio_framed.append(&mut self.radio_pending);
            }
            Token::Op(_) | Token::Prob { .. } | Token::Bits { .. } | Token::Vector(_) => {}
        }
    }

    fn finish(&mut self) -> Result<(), SystemError> {
        for i in 0..self.pes.len() {
            self.pes[i].flush();
            self.ops[i].push(Op::Flush);
            self.propagate()?;
        }
        for ops in &mut self.ops {
            ops.push(Op::Drain);
        }
        if self.radio_framed_blocks && !self.radio_pending.is_empty() {
            self.radio_framed.extend_from_slice(&0u32.to_le_bytes());
            self.radio_framed
                .extend_from_slice(&(self.radio_pending.len() as u32).to_le_bytes());
        }
        self.radio_framed.append(&mut self.radio_pending);
        Ok(())
    }
}

/// What the standalone replay of one pipeline found.
struct PeReplay {
    /// PE kind names, by slot.
    kinds: Vec<&'static str>,
    /// Host ns each PE spent on its own input, by slot.
    pe_ns: Vec<u64>,
    /// Tokens each PE received, by slot.
    tokens_in: Vec<u64>,
    /// Whether the shadow reproduced the system's outputs and counts, and
    /// the replayed PEs emitted what the shadow's did.
    reproduced: bool,
}

/// Replays each PE of `task`'s pipeline alone over the token sequence the
/// runtime would deliver it, timing it slice by slice; `bare` is a bare
/// system's run of the same recording to check the sequence against.
fn replay_pes(
    task: Task,
    config: &HaloConfig,
    rec: &Recording,
    bare: &SystemRun,
) -> Result<PeReplay, SystemError> {
    let mut shadow = Shadow::new(Pipeline::build(task, config)?);
    let mut alone = Pipeline::build(task, config)?.pes;
    let kinds = alone.iter().map(|p| p.kind().name()).collect();
    let mut pe_ns = vec![0u64; alone.len()];
    let mut replay_out = vec![0u64; alone.len()];
    let mut out = VecDeque::new();
    let all = rec.samples();
    let frame_len = rec.channels();
    let step = CHUNK_FRAMES * frame_len;
    let mut replay = |shadow: &mut Shadow| -> Result<(), SystemError> {
        for (slot, pe) in alone.iter_mut().enumerate() {
            let ops = std::mem::take(&mut shadow.ops[slot]);
            let t = Instant::now();
            for op in ops {
                match op {
                    Op::Token(port, token) => pe.push(port, token),
                    Op::Samples(port, range) => pe.push_samples(port, &all[range]),
                    Op::Drain => {
                        pe.drain_output(&mut out);
                        replay_out[slot] += out.len() as u64;
                        out.clear();
                        Ok(())
                    }
                    Op::Flush => {
                        pe.flush();
                        Ok(())
                    }
                }
                .map_err(|e| SystemError::Runtime(e.into()))?;
            }
            pe_ns[slot] += t.elapsed().as_nanos() as u64;
        }
        Ok(())
    };
    for (i, offset) in (0..all.len()).step_by(step).enumerate() {
        let len = step.min(all.len() - offset);
        shadow.push_block(all, offset, len, frame_len)?;
        if (i + 1) % SLICES_PER_TIMING == 0 {
            replay(&mut shadow)?;
        }
    }
    shadow.finish()?;
    replay(&mut shadow)?;
    let reproduced = shadow.radio_framed == bare.metrics.radio_stream
        && shadow.flags == bare.metrics.detections
        && shadow.tokens_in == bare.tokens_in
        && replay_out == shadow.tokens_out;
    Ok(PeReplay {
        kinds,
        pe_ns,
        tokens_in: shadow.tokens_in,
        reproduced,
    })
}

/// Instrumentation attached for a system run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stack {
    /// Nothing attached.
    Bare,
    /// Every instrument a deployed workload attaches: the record-policy
    /// watchdog and 1-in-64 tracer of `closedloop-96ch`, and the
    /// continuous telemetry (around that watchdog) and cycle profiler of a
    /// fleet session. No single deployment carries all of them: fleet
    /// sessions keep steady-state tracing off.
    Full,
}

/// One timed system run.
struct SystemRun {
    /// `HaloSystem::new` ns.
    new_ns: u64,
    /// Σ `push_block` ns over 1 ms chunks.
    push_ns: u64,
    /// `finalize` ns.
    finalize_ns: u64,
    /// `power_report` ns.
    power_ns: u64,
    /// The run's metrics.
    metrics: TaskMetrics,
    /// Per-slot token totals.
    tokens_in: Vec<u64>,
    /// Per-slot stall totals.
    stalls: Vec<u64>,
    /// The finished session, for the full stack.
    report: Option<SessionReport>,
}

/// Streams `rec` through a fresh `task` device in 1 ms chunks.
fn run_system(
    task: Task,
    config: &HaloConfig,
    rec: &Recording,
    stack: Stack,
    seed: u64,
) -> Result<SystemRun, SystemError> {
    let t = Instant::now();
    let mut sys = HaloSystem::new(task, config.clone())?;
    let new_ns = t.elapsed().as_nanos() as u64;
    let handles = (stack == Stack::Full).then(|| {
        let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(config.sample_rate_hz));
        let monitor = Arc::new(HealthMonitor::new(
            recorder.clone(),
            HealthConfig::default(),
        ));
        let continuous = Arc::new(ContinuousTelemetry::new(
            monitor.clone(),
            ContinuousConfig::default(),
        ));
        let tracer = Arc::new(Tracer::new(seed, 64));
        sys.attach_continuous(continuous.clone());
        sys.attach_tracing(tracer.clone());
        sys.attach_profile();
        (recorder, monitor, continuous, tracer)
    });
    let t = Instant::now();
    for chunk in rec.samples().chunks(CHUNK_FRAMES * rec.channels()) {
        sys.push_block(std::hint::black_box(chunk))?;
    }
    let push_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let metrics = sys.finalize()?;
    let finalize_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let power = std::hint::black_box(sys.power_report(&metrics));
    let power_ns = t.elapsed().as_nanos() as u64;
    let totals = sys.runtime().slot_totals();
    let report = handles.map(|(recorder, monitor, continuous, tracer)| SessionReport {
        spec: SessionSpec {
            id: 0,
            task,
            patient_seed: seed,
            channels: rec.channels(),
            frames: rec.samples_per_channel(),
        },
        frames_pushed: metrics.frames,
        metrics: Some(metrics.clone()),
        error: None,
        recorder,
        monitor,
        continuous: Some(continuous),
        tracer,
        device_mw: power.device_mw(),
        processing_mw: power.processing_mw(),
        profile: sys.profile("0"),
    });
    Ok(SystemRun {
        new_ns,
        push_ns,
        finalize_ns,
        power_ns,
        tokens_in: totals.iter().map(|t| t.tokens_in).collect(),
        stalls: totals.iter().map(|t| t.stall_cycles).collect(),
        metrics,
        report,
    })
}

/// Decomposes every stream of `device`: PE replay, runtime residual,
/// system calls, controller firmware and telemetry. Fills `layers` with
/// the per-layer metrics and `detail` with their per-pipeline breakdown;
/// returns whether every replay reproduced its system, and the sessions
/// the full-stack runs produced.
pub fn decompose(
    device: &Device,
    seed: u64,
    layers: &mut Layers,
    detail: &mut Layers,
) -> Result<(bool, Vec<SessionReport>), SystemError> {
    let configs = device.calibrated_configs()?;
    let mut reproduced = true;
    let (mut frames, mut pe_total, mut system_total, mut full_total) = (0u64, 0u64, 0u64, 0u64);
    let (mut tokens, mut stalls, mut bus) = (0u64, 0u64, 0u64);
    let (mut new_us, mut finalize_us, mut power_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tsdb_us, mut profile_us) = (Vec::new(), Vec::new());
    let (mut spans, mut events) = (0u64, 0u64);
    let mut reports = Vec::new();
    // Per-pipeline totals, named `<layer>.<key>.<what>_per_frame`; divided
    // by that pipeline's frames at the end.
    let mut per_key: BTreeMap<String, f64> = BTreeMap::new();
    let mut key_frames: BTreeMap<&str, u64> = BTreeMap::new();
    for (id, (stream, config)) in device.streams.iter().zip(&configs).enumerate() {
        let rec = &device.recordings[stream.rec];
        let bare = run_system(stream.task, config, rec, Stack::Bare, seed)?;
        let full = run_system(stream.task, config, rec, Stack::Full, seed)?;
        let replay = replay_pes(stream.task, config, rec, &bare)?;
        reproduced &= replay.reproduced;

        let n = bare.metrics.frames;
        let system_ns = bare.push_ns + bare.finalize_ns;
        let pe_ns: u64 = replay.pe_ns.iter().sum();
        frames += n;
        pe_total += pe_ns;
        system_total += system_ns;
        full_total += full.push_ns + full.finalize_ns;
        tokens += replay.tokens_in.iter().sum::<u64>();
        stalls += bare.stalls.iter().sum::<u64>();
        bus += bare.metrics.bus_bytes;
        new_us.push(bare.new_ns as f64 / 1e3);
        finalize_us.push(bare.finalize_ns as f64 / 1e3);
        power_us.push(bare.power_ns as f64 / 1e3);

        let k = stream.key;
        *key_frames.entry(k).or_default() += n;
        let mut add = |name: String, v: f64| *per_key.entry(name).or_default() += v;
        for (kind, ns) in replay.kinds.iter().zip(&replay.pe_ns) {
            add(format!("pe.{k}.{kind}.ns_per_frame"), *ns as f64);
        }
        add(
            format!("runtime.{k}.residual_ns_per_frame"),
            system_ns as f64 - pe_ns as f64,
        );
        add(
            format!("runtime.{k}.tokens_per_frame"),
            replay.tokens_in.iter().sum::<u64>() as f64,
        );
        add(
            format!("runtime.{k}.stall_cycles_per_frame"),
            bare.stalls.iter().sum::<u64>() as f64,
        );
        add(
            format!("noc.{k}.bus_bytes_per_frame"),
            bare.metrics.bus_bytes as f64,
        );
        detail.insert(
            format!("check.{k}.{id}.reproduced"),
            f64::from(u8::from(replay.reproduced)),
        );

        let mut report = full.report.expect("full stack keeps its session");
        report.spec.id = id as u64;
        if let Some(c) = &report.continuous {
            let t = Instant::now();
            std::hint::black_box(c.snapshot_json());
            tsdb_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        if let Some(p) = &report.profile {
            let t = Instant::now();
            std::hint::black_box(p.to_json());
            profile_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        spans += report
            .tracer
            .trees()
            .iter()
            .map(|t| t.spans.len() as u64)
            .sum::<u64>();
        events += report.recorder.events().len() as u64 + report.recorder.dropped_events();
        reports.push(report);
    }
    for (name, total) in per_key {
        let k = name.split('.').nth(1).expect("keyed name");
        let per_frame = total / key_frames[k] as f64;
        detail.insert(name, per_frame);
    }
    let frames = frames.max(1) as f64;
    layers.insert("pe.ns_per_frame".into(), pe_total as f64 / frames);
    layers.insert(
        "runtime.residual_ns_per_frame".into(),
        (system_total as f64 - pe_total as f64) / frames,
    );
    layers.insert("runtime.tokens_per_frame".into(), tokens as f64 / frames);
    layers.insert(
        "runtime.stall_cycles_per_frame".into(),
        stalls as f64 / frames,
    );
    layers.insert("noc.bus_bytes_per_frame".into(), bus as f64 / frames);
    layers.insert("system.new_us".into(), median(&new_us));
    layers.insert("system.finalize_us".into(), median(&finalize_us));
    layers.insert("power.report_us".into(), median(&power_us));
    layers.insert(
        "telemetry.attached_overhead".into(),
        full_total as f64 / system_total.max(1) as f64 - 1.0,
    );
    layers.insert("telemetry.spans".into(), spans as f64);
    layers.insert("telemetry.events".into(), events as f64);
    layers.insert("telemetry.tsdb_snapshot_us".into(), median(&tsdb_us));
    layers.insert("telemetry.profile_snapshot_us".into(), median(&profile_us));
    controller(device, &configs, layers)?;
    Ok((reproduced, reports))
}

/// Median ns of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Switch programming for every stream's routes and one closed-loop
/// stimulation, each on a fresh controller running its RV32 firmware.
fn controller(
    device: &Device,
    configs: &[HaloConfig],
    layers: &mut Layers,
) -> Result<(), SystemError> {
    let mut program_ns = Vec::new();
    for (stream, config) in device.streams.iter().zip(configs) {
        let routes = Pipeline::build(stream.task, config)?.routes;
        program_ns.push(time_median(20, || {
            let mut fabric = Fabric::new();
            Controller::new()
                .program_switches(&mut fabric, &routes)
                .expect("stock routes program");
            std::hint::black_box(fabric);
        }));
    }
    let channels = device.base.stim_channels;
    let stim_ns = time_median(20, || {
        std::hint::black_box(
            Controller::new()
                .stimulate(channels, 500)
                .expect("stimulation firmware"),
        );
    });
    let mut c = Controller::new();
    c.stimulate(channels, 500)?;
    layers.insert(
        "controller.program_switches_us".into(),
        median(&program_ns) / 1e3,
    );
    layers.insert("controller.stimulate_us".into(), stim_ns / 1e3);
    layers.insert("controller.cycles_per_stim".into(), c.cycles() as f64);
    Ok(())
}

/// Fleet reporting over `reports`: exposition, triage and profile merge.
pub fn reporting(reports: &[SessionReport], layers: &mut Layers) {
    let ms = |ns: f64| ns / 1e6;
    layers.insert(
        "report.exposition_ms".into(),
        ms(time_median(3, || {
            drop(std::hint::black_box(render_exposition(reports)))
        })),
    );
    layers.insert(
        "report.triage_ms".into(),
        ms(time_median(3, || {
            drop(std::hint::black_box(render_triage(reports, TRIAGE_K)))
        })),
    );
    layers.insert(
        "report.profile_merge_ms".into(),
        ms(time_median(3, || {
            drop(std::hint::black_box(fleet_profile(reports)))
        })),
    );
}

/// ns per element of `f`, which processes `elems` elements per call:
/// calls are repeated until 10 ms pass, three times, and the median batch
/// is kept.
fn per_elem(elems: usize, mut f: impl FnMut()) -> f64 {
    f();
    let batches: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed().as_millis() < 10 {
                f();
                calls += 1;
            }
            t.elapsed().as_nanos() as f64 / (calls * elems as u64) as f64
        })
        .collect();
    median(&batches)
}

/// Kernel and codec speed on slices of `rec` at `config`'s shapes. Each
/// scalar kernel is timed beside its structure-of-arrays twin on the same
/// input.
pub fn kernels(config: &HaloConfig, rec: &Recording, layers: &mut Layers) {
    use std::hint::black_box as bb;
    let mut put = |name: &str, v: f64| {
        layers.insert(name.to_string(), v);
    };
    let ch = rec.channels();
    let ch0 = rec.channel(0);
    let lanes = ch.min(8);
    let bytes: Vec<u8> = interleaved(rec, config.interleave_depth)
        .take(config.block_bytes)
        .collect();
    let samples: Vec<i16> = bytes
        .chunks_exact(2)
        .map(|b| i16::from_le_bytes([b[0], b[1]]))
        .collect();

    let lz4 = Lz4Codec::new(config.lz_history)
        .expect("history")
        .with_block_size(config.block_bytes);
    put(
        "codec.lz4.ns_per_byte",
        per_elem(bytes.len(), || drop(bb(lz4.compress(bb(&bytes))))),
    );
    let lzma = LzmaCodec::new(config.lz_history)
        .expect("history")
        .with_block_size(config.block_bytes);
    put(
        "codec.lzma.ns_per_byte",
        per_elem(bytes.len(), || drop(bb(lzma.compress(bb(&bytes))))),
    );
    let dwtma = DwtmaCodec::new(config.dwt_levels_compress)
        .expect("levels")
        .with_block_samples(config.block_bytes / 2);
    put(
        "codec.dwtma.ns_per_byte",
        per_elem(bytes.len(), || drop(bb(dwtma.compress(bb(&samples))))),
    );
    let lz = LzMatcher::new(config.lz_history).expect("history");
    put(
        "kernels.lz_parse.ns_per_byte",
        per_elem(bytes.len(), || drop(bb(lz.parse(bb(&bytes))))),
    );

    put(
        "kernels.neo.ns_per_elem",
        per_elem(ch0.len(), || drop(bb(Neo::process_block(bb(&ch0))))),
    );
    let mut energy = Neo::process_block(&ch0);
    energy.truncate(ch0.len());

    // DWT over `lanes` channels of one 1024-sample block each.
    let dwt = Dwt::new(config.dwt_levels_spike).expect("levels");
    let block = 1024.min(ch0.len()) / dwt.block_multiple() * dwt.block_multiple();
    let per_lane: Vec<Vec<i32>> = (0..lanes)
        .map(|c| {
            rec.channel(c)[..block]
                .iter()
                .map(|&s| i32::from(s))
                .collect()
        })
        .collect();
    let lane_major: Vec<i32> = (0..block)
        .flat_map(|i| per_lane.iter().map(move |l| l[i]))
        .collect();
    put(
        "kernels.dwt_forward.ns_per_elem",
        per_elem(block * lanes, || {
            for l in &per_lane {
                let mut buf = l.clone();
                dwt.forward(&mut buf);
                bb(buf);
            }
        }),
    );
    put(
        "kernels.dwt_forward_lanes.ns_per_elem",
        per_elem(block * lanes, || {
            let mut buf = lane_major.clone();
            dwt.forward_lanes(&mut buf, lanes);
            bb(buf);
        }),
    );

    // Threshold and gate on the NEO energies of channel 0, as the spike
    // pipeline chains them, with triggers as rare as spikes are.
    let mut sorted = energy.clone();
    sorted.sort_unstable();
    let thr = Threshold::above(sorted[sorted.len() * 199 / 200]);
    let mut checked = Vec::new();
    put(
        "kernels.thr_check.ns_per_elem",
        per_elem(energy.len(), || {
            checked.clear();
            checked.extend(bb(&energy).iter().map(|&e| thr.check(e)));
        }),
    );
    let mut packed = Vec::new();
    put(
        "kernels.thr_check_block_packed.ns_per_elem",
        per_elem(energy.len(), || {
            packed.clear();
            thr.check_block_packed(bb(&energy), &mut packed);
        }),
    );
    let flags = thr.check_block(&energy);
    let data = &ch0[..flags.len()];
    let mut gate = Gate::new(config.spike_gate_hold);
    let mut gated = Vec::new();
    put(
        "kernels.gate_process.ns_per_elem",
        per_elem(data.len(), || {
            gated.clear();
            gated.extend(
                bb(data)
                    .iter()
                    .zip(&flags)
                    .filter_map(|(&d, &c)| gate.process(d, c)),
            );
        }),
    );
    put(
        "kernels.gate_process_packed.ns_per_elem",
        per_elem(data.len(), || {
            gated.clear();
            gate.process_packed(bb(data), &packed, &mut gated);
        }),
    );

    let aes = Aes128::new(config.aes_key);
    let plain = &bytes[..bytes.len() / 64 * 64];
    put(
        "kernels.aes_ecb.ns_per_elem",
        per_elem(plain.len(), || {
            for chunk in plain.chunks_exact(16) {
                let mut block: [u8; 16] = chunk.try_into().expect("16-byte chunk");
                aes.encrypt_block(&mut block);
                bb(block);
            }
        }),
    );
    put(
        "kernels.aes_bitsliced.ns_per_elem",
        per_elem(plain.len(), || drop(bb(aes.encrypt_ecb(bb(plain))))),
    );

    // FFT at the configured size over the analysis channels.
    let fft = Fft::new(config.fft_points).expect("fft size");
    let n = config.fft_points;
    let fft_lanes = config.analysis_channels.len();
    let windows: Vec<Vec<i32>> = config
        .analysis_channels
        .iter()
        .map(|&c| {
            rec.channel(c as usize)
                .iter()
                .take(n)
                .map(|&s| i32::from(s))
                .collect()
        })
        .collect();
    let windows_lanes: Vec<i32> = (0..n)
        .flat_map(|i| windows.iter().map(move |w| w[i]))
        .collect();
    put(
        "kernels.fft_transform.ns_per_elem",
        per_elem(n * fft_lanes, || {
            for w in &windows {
                let (mut re, mut im) = (w.clone(), vec![0; n]);
                fft.transform(&mut re, &mut im);
                bb((re, im));
            }
        }),
    );
    put(
        "kernels.fft_transform_lanes.ns_per_elem",
        per_elem(n * fft_lanes, || {
            let (mut re, mut im) = (windows_lanes.clone(), vec![0; n * fft_lanes]);
            fft.transform_lanes(&mut re, &mut im, fft_lanes);
            bb((re, im));
        }),
    );

    // XCOR over one window of whole frames.
    let xcor_config = XcorConfig::new(ch, config.xcor_window, config.xcor_lag, config.xcor_pairs())
        .expect("xcor config");
    let frames = config.xcor_window.min(rec.samples_per_channel());
    let window = &rec.samples()[..frames * ch];
    let mut scalar = StreamingXcor::new(xcor_config.clone());
    put(
        "kernels.xcor_push.ns_per_elem",
        per_elem(window.len(), || {
            for frame in window.chunks_exact(ch) {
                bb(scalar.push_frame(bb(frame)));
            }
        }),
    );
    let mut soa = StreamingXcor::new(xcor_config);
    let mut block = ChannelBlock::new();
    let mut out = Vec::new();
    put(
        "kernels.xcor_push_block.ns_per_elem",
        per_elem(window.len(), || {
            block.fill_from_interleaved(bb(window), ch);
            out.clear();
            soa.push_block(&block, &mut out);
        }),
    );

    let design =
        BbfDesign::new(config.bbf_band.0, config.bbf_band.1, config.sample_rate_hz).expect("band");
    let mut bbf = Bbf::new(&design);
    put(
        "kernels.bbf_process.ns_per_elem",
        per_elem(ch0.len(), || {
            for &s in &ch0 {
                bb(bbf.process(bb(s)));
            }
        }),
    );
    put(
        "kernels.bbf_process_block.ns_per_elem",
        per_elem(ch0.len(), || drop(bb(bbf.process_block(bb(&ch0))))),
    );

    let svm = config.svm_or_placeholder();
    let features: Vec<i32> = ch0
        .iter()
        .cycle()
        .take(svm.weights().len())
        .map(|&s| i32::from(s))
        .collect();
    put(
        "kernels.svm_decision.ns_per_elem",
        per_elem(features.len(), || {
            bb(svm.decision(bb(&features)));
        }),
    );
    put(
        "kernels.svm_decision_lanes.ns_per_elem",
        per_elem(features.len(), || {
            bb(svm.decision_lanes(bb(&features)));
        }),
    );
}
