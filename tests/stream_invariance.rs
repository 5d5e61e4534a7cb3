//! System-level invariance of every stock pipeline's outputs.
//!
//! How a stream is chunked into [`HaloSystem::push_block`] calls, whether
//! batched quiet-frame dispatch is on, and which instruments are attached
//! must not be observable in what the device produces. For each of the
//! eight pipelines at the `small_test(8)` geometry, every subset of
//! {recorder, health monitor, continuous telemetry, tracer, profiler},
//! with block dispatch on and off, streams the same recording in a random
//! frame-aligned partition (a partial frame is tried on the way and must
//! be rejected without touching the stream). The radio stream, the MCU
//! detections, the stimulation frames and the runtime's `slot_totals()`
//! must equal those of one bare whole-block run.
//!
//! Partitions come from the deterministic [`SimRng`], so every run covers
//! the same cases and a failure reproduces exactly.

use std::sync::Arc;

use halo::core::tasks::seizure;
use halo::core::{HaloConfig, HaloSystem, RuntimeError, SlotTotals, SystemError, Task};
use halo::signal::{Recording, RecordingConfig, RegionProfile, SimRng};
use halo::telemetry::{
    ContinuousConfig, ContinuousTelemetry, HealthConfig, HealthMonitor, Recorder, Tracer,
};

const CHANNELS: usize = 8;

/// The instruments a subset bitmask can attach, in attachment order.
const INSTRUMENTS: [&str; 5] = ["recorder", "health", "continuous", "tracer", "profiler"];

/// Everything the device hands on: radio bytes, MCU flags, the frames
/// stimulation fired at, and the per-slot cost ledger.
#[derive(Debug, PartialEq)]
struct Outputs {
    radio: Vec<u8>,
    detections: Vec<(u64, bool)>,
    stim_frames: Vec<u64>,
    totals: Vec<SlotTotals>,
}

/// The geometry and recording `task` runs on. Seizure prediction gets an
/// SVM trained on its own session, whose ictal episode spans feature
/// windows 2 to 4, so stimulation fires three times after the two-window
/// warm-up; every other pipeline streams 100 ms.
fn scenario(task: Task) -> (HaloConfig, Recording) {
    let config = HaloConfig::small_test(CHANNELS);
    let window = config.feature_window_frames();
    let signal = RecordingConfig::new(RegionProfile::arm()).channels(CHANNELS);
    if task != Task::SeizurePrediction {
        return (config, signal.duration_ms(100).generate(0x1a7a));
    }
    let rec = signal
        .duration_ms(400)
        .seizure_at(2 * window, 5 * window)
        .generate(0x1a7a);
    let svm = seizure::train(&config, &[&rec]).unwrap();
    (config.with_svm(svm), rec)
}

/// Attaches the instruments named by the bits of `mask`.
fn attach(sys: &mut HaloSystem, mask: usize, seed: u64) {
    let recorder = || Arc::new(Recorder::new(1024).with_sample_rate_hz(30_000));
    let monitor = || Arc::new(HealthMonitor::new(recorder(), HealthConfig::default()));
    if mask & 1 != 0 {
        sys.attach_telemetry(recorder());
    }
    if mask & 2 != 0 {
        sys.attach_health(monitor());
    }
    if mask & 4 != 0 {
        sys.attach_continuous(Arc::new(ContinuousTelemetry::new(
            monitor(),
            ContinuousConfig::default(),
        )));
    }
    if mask & 8 != 0 {
        sys.attach_tracing(Arc::new(Tracer::new(seed, 4)));
    }
    if mask & 16 != 0 {
        sys.attach_profile();
    }
}

fn finish(mut sys: HaloSystem) -> Outputs {
    let metrics = sys.finalize().unwrap();
    Outputs {
        totals: sys.runtime().slot_totals().to_vec(),
        stim_frames: metrics.stim_events.iter().map(|e| e.frame).collect(),
        radio: metrics.radio_stream,
        detections: metrics.detections,
    }
}

/// Streams `samples` as random frame-aligned blocks (empty ones
/// included), trying a partial frame now and then, which must fail with
/// [`RuntimeError::BadBlock`] and leave the stream where it was.
fn push_partitioned(sys: &mut HaloSystem, samples: &[i16], rng: &mut SimRng) {
    let frames = samples.len() / CHANNELS;
    let mut at = 0;
    while at < frames {
        let take = match rng.range_usize(0, 4) {
            0 => 0,
            1 => 1,
            2 => rng.range_usize(1, 64),
            _ => rng.range_usize(1, frames + 1),
        }
        .min(frames - at);
        let block = &samples[at * CHANNELS..(at + take) * CHANNELS];
        if rng.range_usize(0, 8) == 0 {
            let ragged = &samples[at * CHANNELS..at * CHANNELS + rng.range_usize(1, CHANNELS)];
            assert!(
                matches!(
                    sys.push_block(ragged),
                    Err(SystemError::Runtime(RuntimeError::BadBlock { .. }))
                ),
                "a partial frame was accepted"
            );
        }
        sys.push_block(block).unwrap();
        at += take;
    }
}

#[test]
fn outputs_ignore_partition_dispatch_and_instruments() {
    let mut rng = SimRng::new(0x5eed_b10c);
    for task in Task::all() {
        let (config, rec) = scenario(task);
        let mut bare = HaloSystem::new(task, config.clone()).unwrap();
        bare.push_block(rec.samples()).unwrap();
        let want = finish(bare);
        for mask in 0..1usize << INSTRUMENTS.len() {
            for dispatch in [true, false] {
                let mut sys = HaloSystem::new(task, config.clone()).unwrap();
                sys.set_block_dispatch(dispatch);
                attach(&mut sys, mask, rng.next_u64());
                push_partitioned(&mut sys, rec.samples(), &mut rng);
                let got = finish(sys);
                if got != want {
                    let on: Vec<_> = INSTRUMENTS
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| mask & (1 << k) != 0)
                        .map(|(_, name)| *name)
                        .collect();
                    panic!(
                        "{task}: outputs moved with block dispatch {dispatch} and \
                         instruments {on:?} (radio {} vs {} B, detections {} vs {}, \
                         stim {:?} vs {:?})",
                        got.radio.len(),
                        want.radio.len(),
                        got.detections.len(),
                        want.detections.len(),
                        got.stim_frames,
                        want.stim_frames,
                    );
                }
            }
        }
    }
}
