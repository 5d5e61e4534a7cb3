//! Golden byte-identity net for the runtime's token delivery.
//!
//! Every stock pipeline runs at the `small_test` geometry in four setups
//! (bare; health watchdog with a 1-in-4 tracer; cycle profiler with the
//! continuous-telemetry layer; batched quiet-frame dispatch off). Each run
//! is reduced to one FNV-1a digest over everything delivery feeds: the
//! task metrics (radio stream, detections, stimulation, per-PE activity
//! with stall cycles and FIFO high-water), the raw slot totals, the
//! assembled span trees, the folded cycle profile, and the health and
//! continuous expositions. The pinned digests were produced by the
//! token-at-a-time runtime, so any change to how tokens are delivered must
//! leave every observable byte where it was.

use std::sync::Arc;

use halo::core::tasks::spike;
use halo::core::{Adapter, HaloConfig, HaloSystem, Runtime, SourceRoute, Task};
use halo::kernels::{Dwt, Threshold};
use halo::noc::{Fabric, NodeId, Route};
use halo::pe::pes::{DwtMode, DwtPe, GatePe, InterleaverPe, NeoPe, ThrPe};
use halo::pe::{Fifo, InterfaceKind, PeError, PeKind, ProcessingElement, Token};
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::{
    expose, ContinuousConfig, ContinuousTelemetry, HealthConfig, HealthMonitor, Recorder, SpanTree,
    Tracer,
};

const CHANNELS: usize = 8;

/// FNV-1a over the UTF-8 bytes of `text`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Debug, Clone, Copy)]
enum Setup {
    Bare,
    HealthTraced,
    ProfiledContinuous,
    ScalarDispatch,
}

const SETUPS: [Setup; 4] = [
    Setup::Bare,
    Setup::HealthTraced,
    Setup::ProfiledContinuous,
    Setup::ScalarDispatch,
];

fn digest(task: Task, setup: Setup) -> u64 {
    let config = HaloConfig::small_test(CHANNELS);
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .duration_ms(80)
        .generate(0x901d);
    let mut sys = HaloSystem::new(task, config).unwrap();
    let mut monitor = None;
    let mut continuous = None;
    let mut tracer = None;
    match setup {
        Setup::Bare => {}
        Setup::HealthTraced => {
            let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
            let m = Arc::new(HealthMonitor::new(recorder, HealthConfig::default()));
            let t = Arc::new(Tracer::new(3, 4));
            sys.attach_health(m.clone());
            sys.attach_tracing(t.clone());
            monitor = Some(m);
            tracer = Some(t);
        }
        Setup::ProfiledContinuous => {
            let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
            let m = Arc::new(HealthMonitor::new(recorder, HealthConfig::default()));
            let c = Arc::new(ContinuousTelemetry::new(
                m.clone(),
                ContinuousConfig::default(),
            ));
            sys.attach_continuous(c.clone());
            sys.attach_profile();
            monitor = Some(m);
            continuous = Some(c);
        }
        Setup::ScalarDispatch => sys.set_block_dispatch(false),
    }
    let metrics = sys.process(&rec).unwrap();
    let mut text = format!("{metrics:?}\n{:?}\n", sys.runtime().slot_totals());
    if let Some(t) = &tracer {
        for record in t.trees() {
            match SpanTree::assemble(record) {
                Ok(tree) => text.push_str(&tree.to_json()),
                Err(e) => text.push_str(&format!("{e:?}")),
            }
            text.push('\n');
        }
    }
    if let Some(profile) = sys.profile("golden") {
        text.push_str(&profile.folded());
    }
    if let Some(m) = &monitor {
        text.push_str(&expose::render_health(m));
    }
    if let Some(c) = &continuous {
        text.push_str(&expose::render_continuous(&c.status()));
    }
    fnv(&text)
}

/// Digests per task, in [`SETUPS`] order. The `ProfiledContinuous`
/// column digests the continuous exposition's tsdb and SLO families. The
/// profiled digests of the four interleaver-fed pipelines (DWT spike
/// detection, LZ4, LZMA, DWTMA) carry the interleaver's quiet frames as
/// `quiet-skip` rather than `ingest` cycles, with the same totals: its
/// whole-frame `quiet_frames` lets those frames take the batched
/// quiet-chunk path.
const GOLDEN: [(Task, [u64; 4]); 8] = [
    (
        Task::SpikeDetectNeo,
        [
            0x833ee3a02cf6ef22,
            0x98fb2f4459bda237,
            0xc3f6538426a1b23e,
            0x833ee3a02cf6ef22,
        ],
    ),
    (
        Task::SpikeDetectDwt,
        [
            0x728598aa86ec021a,
            0xacbb694788f6cdbc,
            0xe10656a6c3736936,
            0x728598aa86ec021a,
        ],
    ),
    (
        Task::CompressLz4,
        [
            0xde9b0c76e8054f35,
            0xd4783c363c051238,
            0xcd585e4b0077ef89,
            0xde9b0c76e8054f35,
        ],
    ),
    (
        Task::CompressLzma,
        [
            0x036c9f567dc25725,
            0xcb1eb989b225cb58,
            0xdb2b16b58cb29205,
            0x036c9f567dc25725,
        ],
    ),
    (
        Task::CompressDwtma,
        [
            0x3662c96e320899cb,
            0x072cabec657b9b0a,
            0xd43f10c4f6a44fa9,
            0x3662c96e320899cb,
        ],
    ),
    (
        Task::MovementIntent,
        [
            0xe22b175776d82fe0,
            0xeabba497e29d4722,
            0xd7a33fc845e3dfa3,
            0xe22b175776d82fe0,
        ],
    ),
    (
        Task::SeizurePrediction,
        [
            0x554d046a96ef70b9,
            0xef7580f8aa470d8b,
            0x975de4602e4158ce,
            0x554d046a96ef70b9,
        ],
    ),
    (
        Task::EncryptRaw,
        [
            0x8cb93c052c72b66d,
            0xf10c3c88052b7b24,
            0x156eb8fe29ec8b4c,
            0x8cb93c052c72b66d,
        ],
    ),
];

#[test]
fn every_pipeline_matches_its_golden_digests() {
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    for (task, want) in GOLDEN {
        let digests = SETUPS.map(|setup| digest(task, setup));
        for (k, setup) in SETUPS.iter().enumerate() {
            if digests[k] != want[k] {
                mismatches.push(format!("{task:?}/{setup:?}"));
            }
        }
        got.push(format!(
            "    (Task::{task:?}, [{}]),",
            digests.map(|d| format!("{d:#018x}")).join(", ")
        ));
    }
    assert!(
        mismatches.is_empty(),
        "delivery changed observable output for {mismatches:?}; digests now:\n{}",
        got.join("\n")
    );
}

/// The probe tap captures detector inputs in arrival order; threshold
/// calibration reduces them to one number. Both must be unchanged.
#[test]
fn spike_calibration_probe_matches_golden() {
    let config = HaloConfig::small_test(CHANNELS);
    let baseline = RecordingConfig::new(RegionProfile::quiescent())
        .channels(CHANNELS)
        .duration_ms(80)
        .generate(0x901e);
    let mut got = Vec::new();
    for task in [Task::SpikeDetectNeo, Task::SpikeDetectDwt] {
        let values = spike::detector_values(task, &config, &baseline).unwrap();
        let threshold = spike::calibrate_threshold(task, &config, &baseline, 1.5).unwrap();
        got.push((task, fnv(&format!("{values:?}")), threshold));
    }
    let want = [
        (Task::SpikeDetectNeo, 8648024012911799535u64, 271i64),
        (Task::SpikeDetectDwt, 15189932310480634748, 21),
    ];
    assert_eq!(got, want);
}

/// Logs every arrival as `port * 1_000_000 + value`, in arrival order.
struct ArrivalLog {
    ports: [InterfaceKind; 2],
    out: Fifo,
}

fn arrival_log(kind: InterfaceKind) -> Box<dyn ProcessingElement> {
    Box::new(ArrivalLog {
        ports: [kind; 2],
        out: Fifo::new(),
    })
}

/// The bytes the radio receives from an [`ArrivalLog`] fed `arrivals`.
fn logged(arrivals: &[(usize, i64)]) -> Vec<u8> {
    arrivals
        .iter()
        .flat_map(|&(port, v)| (port as i64 * 1_000_000 + v).to_le_bytes())
        .collect()
}

impl ProcessingElement for ArrivalLog {
    fn kind(&self) -> PeKind {
        PeKind::Thr
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &self.ports
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Values
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        let v = match token {
            Token::Value(v) => v,
            Token::Sample(s) => s as i64,
            _ => return Ok(()),
        };
        self.out.push(Token::Value(port as i64 * 1_000_000 + v));
        Ok(())
    }

    fn flush(&mut self) {}

    fn memory_bytes(&self) -> usize {
        0
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }
}

const LOG_CHANNELS: usize = 3;

fn log_samples() -> Vec<i16> {
    (0..30).map(|t| (t * 37 % 23) as i16 * 50).collect()
}

/// Each frame lands on an empty log FIFO, twice over: the first push is
/// free and every later one stalls.
fn log_stalls(samples: &[i16]) -> u64 {
    let frames = (samples.len() / LOG_CHANNELS) as u64;
    frames * (2 * LOG_CHANNELS as u64 - 1)
}

/// A producer routed to two ports of one PE: that PE must see each token
/// on port 0 and then on port 1 before the next token arrives, exactly as
/// token-at-a-time delivery hands them over.
#[test]
fn two_routes_into_one_slot_stay_token_interleaved() {
    let pes = vec![
        Box::new(NeoPe::with_channels(LOG_CHANNELS)) as Box<dyn ProcessingElement>,
        arrival_log(InterfaceKind::Values),
    ];
    let mut fabric = Fabric::new();
    for to_port in 0..2 {
        fabric
            .connect(Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port,
            })
            .unwrap();
    }
    let source = SourceRoute {
        to: NodeId(0),
        port: 0,
        adapter: Adapter::Direct,
    };
    let mut rt = Runtime::new(pes, fabric, vec![source], Some(NodeId(1)), None).unwrap();
    rt.probe_into(NodeId(1));
    let samples = log_samples();
    rt.push_block(&samples, LOG_CHANNELS).unwrap();
    rt.finish().unwrap();

    let mut neo = NeoPe::with_channels(LOG_CHANNELS);
    for &s in &samples {
        neo.push(0, Token::Sample(s)).unwrap();
    }
    let arrivals: Vec<(usize, i64)> = std::iter::from_fn(|| neo.pull())
        .flat_map(|t| match t {
            Token::Value(v) => [(0, v), (1, v)],
            other => panic!("NEO emitted {other:?}"),
        })
        .collect();
    assert_eq!(rt.probed(), &arrivals[..]);
    assert_eq!(rt.radio_stream(), &logged(&arrivals)[..]);
    assert_eq!(rt.slot_totals()[1].stall_cycles, log_stalls(&samples));
}

/// Two ADC sources into one PE: it sees each sample on port 0 and then
/// on port 1, in the order the ADC emits them.
#[test]
fn two_sources_into_one_slot_stay_sample_interleaved() {
    let sources = (0..2)
        .map(|port| SourceRoute {
            to: NodeId(0),
            port,
            adapter: Adapter::Direct,
        })
        .collect();
    let pes = vec![arrival_log(InterfaceKind::Samples)];
    let mut rt = Runtime::new(pes, Fabric::new(), sources, Some(NodeId(0)), None).unwrap();
    let samples = log_samples();
    rt.push_block(&samples, LOG_CHANNELS).unwrap();
    rt.finish().unwrap();

    let arrivals: Vec<(usize, i64)> = samples
        .iter()
        .flat_map(|&s| [(0, s as i64), (1, s as i64)])
        .collect();
    assert_eq!(rt.radio_stream(), &logged(&arrivals)[..]);
    assert_eq!(rt.slot_totals()[0].stall_cycles, log_stalls(&samples));
}

/// Streams `samples` through two runtimes from `build`, one by
/// `push_frame` per frame and one by a single `push_block`, and checks
/// that both deliver the same radio stream, MCU flags and slot totals.
fn assert_block_matches_frames(build: impl Fn() -> Runtime, samples: &[i16], frame_len: usize) {
    let mut framed = build();
    for frame in samples.chunks_exact(frame_len) {
        framed.push_frame(frame).unwrap();
    }
    framed.finish().unwrap();
    let mut blocked = build();
    blocked.push_block(samples, frame_len).unwrap();
    blocked.finish().unwrap();
    assert!(
        !framed.radio_stream().is_empty(),
        "nothing reached the radio"
    );
    assert_eq!(blocked.radio_stream(), framed.radio_stream());
    assert_eq!(blocked.mcu_flags(), framed.mcu_flags());
    assert_eq!(blocked.slot_totals(), framed.slot_totals());
}

fn port0_source(slot: usize) -> SourceRoute {
    SourceRoute {
        to: NodeId(slot),
        port: 0,
        adapter: Adapter::Direct,
    }
}

/// Source PEs that promise quiet frames (INTERLEAVER, GATE) behind two
/// port-0 sources: each frame reaches them twice over, sample by sample
/// in turn, so `push_block` must not hand each source a chunk of its own.
#[test]
fn shared_source_slots_keep_block_dispatch_sample_interleaved() {
    const DEPTH: usize = 8;
    let samples: Vec<i16> = (0..LOG_CHANNELS * DEPTH * 5)
        .map(|t| (t * 37 % 101) as i16 * 13 - 600)
        .collect();

    // ADC → INTERLEAVER twice over → radio.
    let interleaver = || {
        let pes =
            vec![Box::new(InterleaverPe::new(LOG_CHANNELS, DEPTH)) as Box<dyn ProcessingElement>];
        let sources = vec![port0_source(0), port0_source(0)];
        Runtime::new(pes, Fabric::new(), sources, Some(NodeId(0)), None).unwrap()
    };
    assert_block_matches_frames(interleaver, &samples, LOG_CHANNELS);

    // ADC → INTERLEAVER → DWT → THR → GATE.ctrl; ADC → GATE.data twice
    // over; GATE → radio. The threshold passes every flag, so the gate
    // forwards its data queue in arrival order.
    let gate = || {
        let dwt = Dwt::new(2).unwrap();
        let granule = dwt.block_multiple();
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(InterleaverPe::new(LOG_CHANNELS, DEPTH)),
            Box::new(DwtPe::new(dwt, DwtMode::SpikeDetect, DEPTH)),
            Box::new(ThrPe::new(Threshold::above(i64::MIN))),
            Box::new(GatePe::with_channels(0, 1, granule)),
        ];
        let mut fabric = Fabric::new();
        for (from, to, to_port) in [(0, 1, 0), (1, 2, 0), (2, 3, 1)] {
            fabric
                .connect(Route {
                    from: NodeId(from),
                    to: NodeId(to),
                    to_port,
                })
                .unwrap();
        }
        let sources = vec![port0_source(0), port0_source(3), port0_source(3)];
        Runtime::new(pes, fabric, sources, Some(NodeId(3)), None).unwrap()
    };
    assert_block_matches_frames(gate, &samples, LOG_CHANNELS);
}
