//! End-to-end causal-tracing tests: deterministic sampling, well-formed
//! span trees across the stock pipelines, zero perturbation of device
//! outputs, and bit-identical capture/replay of every pipeline's run,
//! closed-loop seizure prediction included.

use std::sync::Arc;

use halo::core::tasks::seizure;
use halo::core::{trace, HaloConfig, HaloSystem, Task, TaskMetrics};
use halo::signal::{Recording, RecordingConfig, RegionProfile};
use halo::telemetry::{SpanKind, SpanTree, TraceLog, TraceSampler, Tracer};

/// A task configuration and session recording known to exercise the whole
/// pipeline — for seizure prediction, an SVM trained on labeled recordings
/// and a session whose ictal episode triggers closed-loop stimulation.
fn scenario(task: Task) -> (HaloConfig, Recording) {
    match task {
        Task::SeizurePrediction => {
            let channels = 8;
            let config = HaloConfig::small_test(channels).channels(channels);
            let window = config.feature_window_frames();
            let train_a = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(700)
                .seizure_at(6 * window, 14 * window)
                .generate(9);
            let train_b = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(700)
                .seizure_at(12 * window, 20 * window)
                .generate(19);
            let svm = seizure::train(&config, &[&train_a, &train_b]).unwrap();
            let session = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(700)
                .seizure_at(8 * window, 16 * window)
                .generate(10);
            (config.with_svm(svm), session)
        }
        _ => {
            let channels = 4;
            let config = HaloConfig::small_test(channels);
            let session = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(200)
                .generate(7);
            (config, session)
        }
    }
}

/// The sampler is a pure function of (seed, frame): two instances agree
/// frame-for-frame, and its hit rate lands within ±1 of the configured
/// 1-in-N over any horizon.
#[test]
fn sampler_is_deterministic_and_rate_accurate() {
    const FRAMES: u64 = 10_000;
    const EVERY: u64 = 64;
    let a = TraceSampler::new(0xC0FFEE, EVERY);
    let b = TraceSampler::new(0xC0FFEE, EVERY);
    let mut hits = 0u64;
    for frame in 0..FRAMES {
        let hit = a.would_sample(frame);
        assert_eq!(hit, b.would_sample(frame), "diverged at frame {frame}");
        hits += u64::from(hit);
    }
    let expected = FRAMES / EVERY;
    assert!(
        hits.abs_diff(expected) <= 1,
        "{hits} hits over {FRAMES} frames, expected ~{expected}"
    );
    // A different seed picks different frames (same rate).
    let c = TraceSampler::new(0xBEEF, EVERY);
    assert!((0..FRAMES).any(|f| a.would_sample(f) != c.would_sample(f)));
    // Rate zero never samples until escalation forces it.
    let idle = TraceSampler::new(1, 0);
    assert!((0..FRAMES).all(|f| !idle.would_sample(f)));
}

/// Every stock pipeline yields complete, well-formed span trees: one per
/// sampled frame, each assembling into a tree whose per-hop attribution
/// tiles the end-to-end latency.
#[test]
fn stock_pipelines_yield_well_formed_trees() {
    for task in [
        Task::SpikeDetectNeo,
        Task::CompressLz4,
        Task::CompressLzma,
        Task::MovementIntent,
        Task::SeizurePrediction,
    ] {
        let (config, session) = scenario(task);
        let tracer = Arc::new(Tracer::new(0x51D, 64).with_done_capacity(4096));
        let mut system = HaloSystem::new(task, config).unwrap();
        system.attach_tracing(tracer.clone());
        system.process(&session).unwrap();

        let stats = tracer.stats();
        let trees = tracer.trees();
        assert!(stats.sampled > 0, "{task:?}: nothing sampled");
        assert_eq!(
            stats.completed, stats.sampled,
            "{task:?}: a sampled frame did not close into a tree"
        );
        assert_eq!(trees.len() as u64, stats.completed, "{task:?}");
        for record in &trees {
            let tree = SpanTree::assemble(record.clone())
                .unwrap_or_else(|e| panic!("{task:?}: malformed tree: {e}"));
            let total = tree.end_to_end_ns();
            assert!(total > 0, "{task:?}: empty trace");
            // Frames that flow through the fabric must record PE service.
            assert!(
                record.spans.iter().any(|s| s.kind == SpanKind::PeService),
                "{task:?}: no PE service spans"
            );
            // Attribution is a tiling of the root interval: the per-hop
            // self-times sum to the end-to-end latency exactly.
            let attributed: u64 = tree.attribution().iter().map(|h| h.ns).sum();
            assert_eq!(
                attributed, total,
                "{task:?}: attribution covers {attributed} of {total} ns"
            );
        }
    }
}

/// Tracing is observation: a run with a 1-in-64 tracer attached produces
/// byte-identical outputs to an untraced run.
#[test]
fn tracing_does_not_perturb_outputs() {
    let (config, session) = scenario(Task::CompressLzma);
    let mut plain = HaloSystem::new(Task::CompressLzma, config.clone()).unwrap();
    let plain_metrics = plain.process(&session).unwrap();

    let mut traced = HaloSystem::new(Task::CompressLzma, config).unwrap();
    traced.attach_tracing(Arc::new(Tracer::new(7, 64)));
    let traced_metrics = traced.process(&session).unwrap();

    assert_eq!(plain_metrics.radio_stream, traced_metrics.radio_stream);
    assert_eq!(plain_metrics.detections, traced_metrics.detections);
    assert_eq!(plain_metrics.pe_activity, traced_metrics.pe_activity);
    assert_eq!(plain_metrics.bus_bytes, traced_metrics.bus_bytes);
}

/// Runs `task`'s scenario under a 1-in-64 tracer, captures it to a trace
/// log, checks that the log holds the run's outputs and survives
/// serialization bit-exactly, and replays it through a fresh device,
/// which must reproduce every output byte. Returns the run's metrics.
fn capture_replays_bit_identically(task: Task) -> TaskMetrics {
    let (config, session) = scenario(task);
    let tracer = Arc::new(Tracer::new(0xA11CE, 64));
    let mut system = HaloSystem::new(task, config.clone()).unwrap();
    system.attach_tracing(tracer.clone());
    let metrics = system.process(&session).unwrap();

    let log = trace::capture(&system, &session, &metrics);
    assert!(
        !log.radio.is_empty() || !log.mcu_flags.is_empty(),
        "{task}: the scenario produced no output to capture"
    );
    assert_eq!(log.radio, metrics.radio_stream, "{task}: radio");
    assert_eq!(log.mcu_flags, metrics.detections, "{task}: MCU flags");
    // Serialization is binary-stable: write -> read -> write is a fixpoint.
    let text = log.write();
    let reread = TraceLog::read(&text).unwrap();
    assert_eq!(reread, log);
    assert_eq!(reread.write(), text);

    let (replayed, report) = trace::replay(&reread, config).unwrap();
    assert!(report.identical(), "{task}: replay diverged: {report}");
    assert_eq!(replayed.radio_stream, metrics.radio_stream);
    assert_eq!(replayed.detections, metrics.detections);
    assert_eq!(replayed.stim_events.len(), metrics.stim_events.len());
    metrics
}

/// The flagship acceptance path: a traced closed-loop seizure run is
/// captured to a trace log, the log survives serialization bit-exactly,
/// and replaying it through a fresh device reproduces every output byte.
#[test]
fn seizure_closed_loop_capture_replays_bit_identically() {
    let metrics = capture_replays_bit_identically(Task::SeizurePrediction);
    assert!(
        !metrics.stim_events.is_empty(),
        "scenario must trigger closed-loop stimulation"
    );
}

/// Capture and replay hold for every other stock pipeline too.
#[test]
fn every_pipeline_capture_replays_bit_identically() {
    for task in Task::all() {
        if task != Task::SeizurePrediction {
            capture_replays_bit_identically(task);
        }
    }
}
