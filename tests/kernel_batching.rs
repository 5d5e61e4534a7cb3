//! Scalar ↔ vector kernel equivalence: every SoA-batched or bit-sliced
//! kernel must be *bit-identical* to its scalar reference — same Q15
//! rounding, same per-stage scaling, same output bytes — across sizes,
//! channel counts (including non-multiples of the lane width), and
//! extreme fixed-point inputs.
//!
//! Inputs come from the deterministic [`SimRng`], so every run covers the
//! same cases and any failure reproduces exactly. The suite runs in CI
//! both in debug (where `chunks_exact` loops stay scalar) and under
//! `--release` (where the autovectorizer lifts them to SIMD) — the
//! contract is identical output either way.

use std::sync::Arc;

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::kernels::{
    hjorth::{hjorth, hjorth_lanes},
    Aes128, Bbf, BbfDesign, BlockXcor, ChannelBlock, Dwt, Fft, Gate, LinearSvm, StreamingXcor,
    Threshold, XcorConfig,
};
use halo::signal::{RecordingConfig, RegionProfile, SimRng};
use halo::telemetry::Tracer;

/// Samples with the Q15 extremes overrepresented: full-scale rails hit
/// the widening/overflow edge cases ordinary noise never reaches.
fn extreme_samples(rng: &mut SimRng, len: usize) -> Vec<i16> {
    (0..len)
        .map(|_| match rng.range_u64(0, 8) {
            0 => i16::MIN,
            1 => i16::MAX,
            2 => i16::MIN + 1,
            3 => -1,
            _ => rng.samples(1)[0],
        })
        .collect()
}

#[test]
fn channel_block_round_trips_interleaved() {
    let mut rng = SimRng::new(0x7001);
    for _ in 0..32 {
        let channels = rng.range_usize(1, 17);
        let frames = rng.range_usize(1, 200);
        let interleaved = extreme_samples(&mut rng, channels * frames);
        let mut block = ChannelBlock::new();
        block.fill_from_interleaved(&interleaved, channels);
        assert_eq!(block.channels(), channels);
        assert_eq!(block.frames(), frames);
        for c in 0..channels {
            let row: Vec<i16> = interleaved
                .iter()
                .skip(c)
                .step_by(channels)
                .copied()
                .collect();
            assert_eq!(block.channel(c), &row[..]);
        }
        let mut back = Vec::new();
        block.write_interleaved(&mut back);
        assert_eq!(back, interleaved);
    }
}

#[test]
fn fft_lanes_match_scalar_spectra() {
    let mut rng = SimRng::new(0x7002);
    for points in [8usize, 32, 256] {
        let fft = Fft::new(points).unwrap();
        // Lane counts straddling the autovectorizer's natural widths.
        for lanes in [1usize, 2, 3, 5, 8, 13] {
            let windows: Vec<Vec<i16>> = (0..lanes)
                .map(|_| extreme_samples(&mut rng, points))
                .collect();
            let refs: Vec<&[i16]> = windows.iter().map(|w| w.as_slice()).collect();
            let batched = fft.power_spectrum_lanes(&refs);
            for (l, w) in windows.iter().enumerate() {
                assert_eq!(
                    batched[l],
                    fft.power_spectrum(w),
                    "points={points} lanes={lanes} lane={l}"
                );
            }
        }
    }
}

#[test]
fn dwt_lanes_match_scalar_lifting() {
    let mut rng = SimRng::new(0x7003);
    for levels in 1..=5 {
        let dwt = Dwt::new(levels).unwrap();
        for lanes in [1usize, 2, 3, 7] {
            let n = rng.range_usize(1, 9) * dwt.block_multiple();
            let mut soa = vec![0i32; n * lanes];
            let mut scalar: Vec<Vec<i32>> = vec![Vec::with_capacity(n); lanes];
            for i in 0..n {
                for (l, chan) in scalar.iter_mut().enumerate() {
                    let v = extreme_samples(&mut rng, 1)[0] as i32;
                    soa[i * lanes + l] = v;
                    chan.push(v);
                }
            }
            dwt.forward_lanes(&mut soa, lanes);
            for (l, chan) in scalar.iter_mut().enumerate() {
                dwt.forward(chan);
                let got: Vec<i32> = (0..n).map(|i| soa[i * lanes + l]).collect();
                assert_eq!(&got, chan, "levels={levels} lanes={lanes} lane={l}");
            }
        }
    }
}

#[test]
fn xcor_block_pushes_match_frame_pushes() {
    let mut rng = SimRng::new(0x7004);
    for case in 0..24 {
        let channels = rng.range_usize(2, 7);
        let window = rng.range_usize(4, 65);
        let lag = rng.range_usize(0, (window - 2).min(8) + 1);
        let pairs: Vec<(u8, u8)> = (0..channels as u8 - 1).map(|c| (c, c + 1)).collect();
        let config = XcorConfig::new(channels, window, lag, pairs).unwrap();
        let frames = rng.range_usize(1, 6) * window + rng.range_usize(0, window);
        let stream = extreme_samples(&mut rng, frames * channels);

        // Streaming engine: SoA block push vs per-frame scalar.
        let mut scalar = StreamingXcor::new(config.clone());
        let mut expect: Vec<Vec<f64>> = Vec::new();
        for frame in stream.chunks_exact(channels) {
            if let Some(r) = scalar.push_frame(frame) {
                expect.push(r);
            }
        }
        let mut block = ChannelBlock::new();
        block.fill_from_interleaved(&stream, channels);
        let mut got: Vec<Vec<f64>> = Vec::new();
        StreamingXcor::new(config.clone()).push_block(&block, &mut got);
        assert_eq!(got.len(), expect.len(), "case {case}");
        for (g, e) in got.iter().zip(&expect) {
            let gb: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u64> = e.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, eb, "case {case}: streaming correlations drifted");
        }

        // Naive engine: interleaved block push vs per-frame scalar.
        let mut scalar = BlockXcor::new(config.clone());
        let mut expect: Vec<Vec<f64>> = Vec::new();
        for frame in stream.chunks_exact(channels) {
            if let Some(r) = scalar.push_frame(frame) {
                expect.push(r);
            }
        }
        let mut got: Vec<Vec<f64>> = Vec::new();
        BlockXcor::new(config).push_interleaved(&stream, &mut got);
        assert_eq!(got.len(), expect.len(), "case {case}");
        for (g, e) in got.iter().zip(&expect) {
            let gb: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u64> = e.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, eb, "case {case}: naive correlations drifted");
        }
    }
}

#[test]
fn hjorth_lanes_match_scalar_windows() {
    let mut rng = SimRng::new(0x7005);
    for _ in 0..24 {
        let lanes = rng.range_usize(1, 10);
        let len = rng.range_usize(3, 300);
        let windows: Vec<Vec<i16>> = (0..lanes).map(|_| extreme_samples(&mut rng, len)).collect();
        let refs: Vec<&[i16]> = windows.iter().map(|w| w.as_slice()).collect();
        let batched = hjorth_lanes(&refs);
        for (l, w) in windows.iter().enumerate() {
            let scalar = hjorth(w);
            assert_eq!(
                batched[l].to_features(),
                scalar.to_features(),
                "lane {l} of {lanes}, len {len}"
            );
        }
    }
}

#[test]
fn svm_lanes_match_scalar_decision() {
    let mut rng = SimRng::new(0x7006);
    for _ in 0..48 {
        // Feature counts straddling the 8-lane split, weights/features at
        // Q15-scale extremes (products stay exact in i64).
        let n = rng.range_usize(1, 40);
        let weights: Vec<i32> = extreme_samples(&mut rng, n)
            .iter()
            .map(|&v| v as i32)
            .collect();
        let features: Vec<i32> = extreme_samples(&mut rng, n)
            .iter()
            .map(|&v| v as i32 * 4096)
            .collect();
        let bias = rng.range_u64(0, 1 << 40) as i64 - (1 << 39);
        let svm = LinearSvm::new(weights, bias).unwrap();
        assert_eq!(svm.decision_lanes(&features), svm.decision(&features));
    }
}

#[test]
fn threshold_packed_words_match_scalar_bits() {
    let mut rng = SimRng::new(0x7007);
    for _ in 0..32 {
        let value = rng.range_u64(0, 1 << 32) as i64 - (1 << 31);
        let thr = if rng.range_u64(0, 2) == 0 {
            Threshold::above(value)
        } else {
            Threshold::below(value)
        };
        // Lengths around the 64-bit word boundary, inputs including the
        // exact threshold and i64 rails.
        let len = rng.range_usize(1, 200);
        let inputs: Vec<i64> = (0..len)
            .map(|_| match rng.range_u64(0, 8) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => value,
                3 => value - 1,
                4 => value + 1,
                _ => rng.range_u64(0, 1 << 33) as i64 - (1 << 32),
            })
            .collect();
        let mut packed = Vec::new();
        thr.check_block_packed(&inputs, &mut packed);
        assert_eq!(packed.len(), len.div_ceil(64));
        for (k, &x) in inputs.iter().enumerate() {
            let bit = packed[k / 64] >> (k % 64) & 1;
            assert_eq!(bit == 1, thr.check(x), "bit {k} for input {x}");
        }
        // Unused high bits of the tail word must be zero.
        if !len.is_multiple_of(64) {
            assert_eq!(packed[len / 64] >> (len % 64), 0);
        }
    }
}

#[test]
fn gate_packed_control_matches_scalar_stream() {
    let mut rng = SimRng::new(0x7008);
    for _ in 0..32 {
        let hold = rng.range_usize(0, 100);
        let mut scalar = Gate::new(hold);
        let mut packed_gate = Gate::new(hold);
        // Several consecutive blocks so hold state carries across calls;
        // control densities from all-closed to all-open exercise the
        // whole-word short-circuits.
        for _ in 0..4 {
            let len = rng.range_usize(1, 300);
            let data = extreme_samples(&mut rng, len);
            let density = rng.range_u64(0, 101);
            let control: Vec<bool> = (0..len).map(|_| rng.range_u64(0, 100) < density).collect();
            let mut words = vec![0u64; len.div_ceil(64)];
            for (k, &c) in control.iter().enumerate() {
                words[k / 64] |= (c as u64) << (k % 64);
            }
            let expect: Vec<i16> = data
                .iter()
                .zip(&control)
                .filter_map(|(&d, &c)| scalar.process(d, c))
                .collect();
            let mut got = Vec::new();
            packed_gate.process_packed(&data, &words, &mut got);
            assert_eq!(got, expect, "hold={hold} len={len} density={density}");
        }
    }
}

#[test]
fn aes_bitsliced_groups_match_scalar_blocks() {
    let mut rng = SimRng::new(0x7009);
    for _ in 0..24 {
        let mut key = [0u8; 16];
        key.copy_from_slice(&rng.bytes(16));
        let aes = Aes128::new(key);
        // ECB is block-wise `encrypt_block`, the trailing partial block
        // zero-padded.
        let len = rng.range_usize(1, 24 * 16);
        let data = rng.bytes(len);
        let fast = aes.encrypt_ecb(&data);
        let mut expect = Vec::with_capacity(data.len());
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            aes.encrypt_block(&mut block);
            expect.extend_from_slice(&block);
        }
        assert_eq!(fast, expect, "{len} bytes");
    }
}

#[test]
fn bbf_energy_of_matches_per_sample_filtering() {
    let mut rng = SimRng::new(0x700a);
    let design = BbfDesign::new(50.0, 150.0, 1000).unwrap();
    for case in 0..16 {
        let mut scalar = Bbf::new(&design);
        let mut batched = Bbf::new(&design);
        // Split one stream into ragged segments: `energy_of` must carry
        // filter state across calls exactly like per-sample processing.
        for seg in 0..5 {
            let len = rng.range_usize(1, 400);
            let xs = extreme_samples(&mut rng, len);
            let mut expect = 0i64;
            for &x in &xs {
                let y = scalar.process(x);
                expect += y as i64 * y as i64;
            }
            assert_eq!(
                batched.energy_of(&xs),
                expect,
                "case {case} segment {seg} (len {len})"
            );
        }
    }
}

/// Every stock pipeline must produce byte-identical outputs with the
/// runtime's batched quiet-frame dispatch on (the default) and off (the
/// pure per-frame scalar path): radio stream, detector flags, stim
/// events, and every per-PE activity counter.
#[test]
fn pipelines_are_byte_identical_with_block_dispatch_on_and_off() {
    let channels = 8;
    let config = HaloConfig::small_test(channels);
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(80)
        .generate(9);
    for task in Task::all() {
        let run = |on: bool| {
            let mut sys = HaloSystem::new(task, config.clone()).unwrap();
            sys.set_block_dispatch(on);
            sys.process(&rec).unwrap()
        };
        let scalar = run(false);
        let batched = run(true);
        assert_eq!(batched.frames, scalar.frames, "{task:?}: frames");
        assert_eq!(
            batched.radio_stream, scalar.radio_stream,
            "{task:?}: radio stream"
        );
        assert_eq!(
            batched.detections, scalar.detections,
            "{task:?}: MCU detections"
        );
        assert_eq!(
            batched.stim_events.len(),
            scalar.stim_events.len(),
            "{task:?}: stim events"
        );
        assert_eq!(
            batched.pe_activity, scalar.pe_activity,
            "{task:?}: per-PE activity"
        );
        assert_eq!(batched.bus_bytes, scalar.bus_bytes, "{task:?}: bus bytes");
    }
}

/// Block dispatch must also leave causal traces untouched: with a 1-in-64
/// sampler attached, each quiet chunk's one tracer call must sample,
/// expire and record exactly what the per-frame path does, yielding span
/// trees identical to the scalar path's.
#[test]
fn traced_pipelines_produce_identical_span_trees_either_way() {
    let channels = 8;
    let config = HaloConfig::small_test(channels);
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(80)
        .generate(11);
    for task in [Task::MovementIntent, Task::SeizurePrediction] {
        let run = |on: bool| {
            let mut sys = HaloSystem::new(task, config.clone()).unwrap();
            let tracer = Arc::new(Tracer::new(7, 64));
            sys.attach_tracing(tracer.clone());
            sys.set_block_dispatch(on);
            let metrics = sys.process(&rec).unwrap();
            (metrics, tracer.trees(), tracer.stats())
        };
        let (scalar_m, scalar_trees, scalar_stats) = run(false);
        let (batched_m, batched_trees, batched_stats) = run(true);
        assert_eq!(batched_m.radio_stream, scalar_m.radio_stream, "{task:?}");
        assert_eq!(batched_m.pe_activity, scalar_m.pe_activity, "{task:?}");
        assert_eq!(batched_stats, scalar_stats, "{task:?}: trace stats");
        assert_eq!(batched_trees, scalar_trees, "{task:?}: span trees");
    }
}
