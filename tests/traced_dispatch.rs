//! Traced frames stay batched: a tracer attached to a device must not
//! change how the runtime dispatches quiet frames, nor anything the
//! tracer itself reports.
//!
//! * [`Tracer::advance_quiet`] over a run of frames equals
//!   [`Tracer::begin_frame_into`] on each of them (a `SimRng` property).
//! * A cycle profile is the same with or without a tracer attached.
//! * A critical alert raised at a window flush inside a quiet chunk
//!   escalates the sampler from the next frame on, with block dispatch on
//!   or off.

use std::sync::Arc;

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{Recording, RecordingConfig, RegionProfile, SimRng};
use halo::telemetry::{
    expose, DeliveryCosts, HealthConfig, HealthMonitor, Recorder, SourceSpan, SpanTree, TraceEvent,
    Tracer,
};

const CHANNELS: usize = 8;

fn recording(seed: u64) -> Recording {
    RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .duration_ms(80)
        .generate(seed)
}

/// Two source routes' spans, as a runtime would price a quiet frame.
fn sources() -> [SourceSpan; 2] {
    let span = |to, to_name, service_ns| SourceSpan {
        to,
        to_name,
        tokens: 8,
        bytes: 16,
        costs: DeliveryCosts {
            service_ns,
            ..DeliveryCosts::default()
        },
    };
    [span(0, "FFT", 40), span(2, "XCOR", 25)]
}

/// One frame of the per-frame path: open (or not), then record the
/// source deliveries the way the runtime buffers them.
fn begin_scalar(tracer: &Tracer, frame: u64, open: &mut Vec<u64>) -> u64 {
    let tag = tracer.begin_frame_into(frame, open);
    if tag != 0 {
        let events: Vec<TraceEvent> = sources()
            .iter()
            .map(|s| TraceEvent::Delivery {
                tag,
                from: None,
                to: s.to,
                to_name: s.to_name,
                tokens: s.tokens,
                bytes: s.bytes,
                costs: s.costs,
            })
            .collect();
        tracer.record_batch(&events);
    }
    tag
}

/// Advancing over a run gives the same tags, open set, stats and trees
/// as `begin_frame_into` on each frame, whatever the rate, linger,
/// forced credits (running out mid-run leaves the sampler idle) and the
/// way the stream splits into quiet runs and per-frame stretches.
#[test]
fn advance_quiet_equals_begin_frame_on_every_frame() {
    let mut rng = SimRng::new(0x7ace_0001);
    let mut saw_cap = false;
    for case in 0..300 {
        let every = if rng.range_u64(0, 4) == 0 {
            0
        } else {
            rng.range_u64(1, 65)
        };
        let linger = rng.range_u64(1, 130);
        let seed = rng.next_u64();
        let frames = rng.range_u64(1, 1500);
        let tracer = || Tracer::new(seed, every).with_linger_frames(linger);
        let (scalar, batched) = (tracer(), tracer());
        let (mut open_s, mut open_b) = (Vec::new(), Vec::new());
        let mut f = 0;
        while f < frames {
            let len = rng.range_u64(1, 200).min(frames - f);
            if rng.range_u64(0, 4) == 0 {
                let n = rng.range_u64(1, 40);
                scalar.sampler().force_next(n);
                batched.sampler().force_next(n);
            }
            let mut last = 0;
            for g in f..f + len {
                last = match begin_scalar(&scalar, g, &mut open_s) {
                    0 => last,
                    tag => tag,
                };
            }
            let ctx = format!("case {case} (every {every}, linger {linger}) run {f}+{len}");
            if rng.range_u64(0, 4) == 0 {
                // A stretch the runtime pushes frame by frame.
                for g in f..f + len {
                    begin_scalar(&batched, g, &mut open_b);
                }
            } else {
                let tag = batched.advance_quiet(f, len, &sources(), &mut open_b);
                assert_eq!(tag, last, "{ctx}: last opened tag");
            }
            assert_eq!(open_b, open_s, "{ctx}: open set");
            assert_eq!(batched.stats(), scalar.stats(), "{ctx}: stats");
            assert_eq!(
                batched.sampler().forced_pending(),
                scalar.sampler().forced_pending(),
                "{ctx}: forced credits"
            );
            saw_cap |= scalar.stats().open == 8;
            f += len;
        }
        assert_eq!(batched.trees(), scalar.trees(), "case {case}: trees");
        scalar.finalize_all();
        batched.finalize_all();
        assert_eq!(batched.trees(), scalar.trees(), "case {case}: final trees");
        assert_eq!(batched.stats(), scalar.stats(), "case {case}: final stats");
    }
    assert!(saw_cap, "no case filled the open-trace cap");
}

/// The cycle profile charges a quiet frame to `quiet-skip` whether or not
/// a tracer samples it or expires a trace on it.
#[test]
fn cycle_profiles_do_not_depend_on_the_tracer() {
    let config = HaloConfig::small_test(CHANNELS);
    let rec = recording(0x0f11e);
    for task in Task::all() {
        let folded = |tracer: Option<Tracer>| {
            let mut sys = HaloSystem::new(task, config.clone()).unwrap();
            sys.attach_profile();
            if let Some(t) = tracer {
                sys.attach_tracing(Arc::new(t));
            }
            sys.process(&rec).unwrap();
            sys.profile("dev").unwrap().folded()
        };
        let bare = folded(None);
        assert_eq!(folded(Some(Tracer::new(3, 4))), bare, "{task:?}: 1-in-4");
        assert_eq!(folded(Some(Tracer::new(3, 64))), bare, "{task:?}: 1-in-64");
    }
}

/// A watchdog over budget on every window raises a critical alert at a
/// window flush, which force-samples the frames after it. With 100-frame
/// windows the flushes land inside quiet chunks, so the chunk's tracer
/// call must come before the flush for the escalated frames to be the
/// ones the per-frame path traces.
#[test]
fn escalation_after_a_window_flush_is_the_same_with_block_dispatch_on_or_off() {
    let config = HaloConfig::small_test(CHANNELS);
    let rec = recording(0xe5ca);
    for task in [Task::MovementIntent, Task::SeizurePrediction] {
        for every in [0, 16] {
            let run = |on: bool| {
                let mut sys = HaloSystem::new(task, config.clone()).unwrap();
                let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
                let monitor = Arc::new(HealthMonitor::new(
                    recorder.clone(),
                    HealthConfig {
                        budget_mw: 0.0001,
                        ..HealthConfig::default()
                    },
                ));
                let tracer = Arc::new(Tracer::new(3, every));
                sys.attach_health(monitor.clone());
                sys.attach_tracing(tracer.clone());
                sys.runtime_mut()
                    .attach_telemetry(monitor.clone(), 30_000, 100);
                sys.set_block_dispatch(on);
                sys.process(&rec).unwrap();
                let trees: Vec<String> = tracer
                    .trees()
                    .into_iter()
                    .map(|r| SpanTree::assemble(r).unwrap().to_json())
                    .collect();
                (
                    trees,
                    tracer.stats(),
                    recorder.events(),
                    expose::render_health(&monitor),
                    monitor.postmortem(),
                )
            };
            let (trees, stats, events, exposition, postmortem) = run(true);
            let scalar = run(false);
            let ctx = format!("{task:?}, every {every}");
            assert!(stats.sampled > 0, "{ctx}: nothing traced");
            assert!(postmortem.is_some(), "{ctx}: no critical alert");
            assert_eq!(stats, scalar.1, "{ctx}: trace stats");
            assert_eq!(trees, scalar.0, "{ctx}: span trees");
            assert_eq!(events, scalar.2, "{ctx}: recorder events");
            assert_eq!(exposition, scalar.3, "{ctx}: health exposition");
            assert_eq!(postmortem, scalar.4, "{ctx}: post-mortem");
        }
    }
}
