//! End-to-end telemetry tests: instrument full task pipelines with a
//! [`Recorder`], and check that the observability layer (a) agrees with the
//! task metrics it shadows, (b) respects its memory bounds, and (c) is
//! invisible when disabled.

use std::sync::Arc;

use halo::core::tasks::seizure;
use halo::core::{HaloConfig, HaloSystem, Task, TaskMetrics};
use halo::signal::{Recording, RecordingConfig, RegionProfile};
use halo::telemetry::{chrome_trace, json, EventKind, NullSink, Recorder};

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
                .duration_ms(300)
                .generate(7);
            (config, session)
        }
    }
}

fn run(task: Task, recorder: Option<Arc<Recorder>>) -> TaskMetrics {
    let (config, session) = scenario(task);
    let mut system = HaloSystem::new(task, config).unwrap();
    if let Some(r) = recorder {
        system.attach_telemetry(r);
    }
    system.process(&session).unwrap()
}

/// Conservation along the pipeline: everything the radio sent was emitted
/// by some PE first, so per-PE bytes-out must cover the radio stream. The
/// windowed counters also sum to the runtime's own totals, including when
/// the stream ends on a window boundary.
#[test]
fn pe_bytes_out_cover_radio_bytes() {
    for task in [Task::SeizurePrediction, Task::CompressLzma] {
        let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
        let metrics = run(task, Some(recorder.clone()));
        let snap = recorder.snapshot();

        assert!(
            metrics.radio_bytes > 0,
            "{task:?}: nothing reached the radio"
        );
        let recorded_out: u64 = snap.pes.iter().map(|p| p.bytes_out).sum();
        assert!(
            recorded_out >= metrics.radio_bytes,
            "{task:?}: PEs recorded {recorded_out} bytes out but radio sent {}",
            metrics.radio_bytes
        );
        // The recorder's view and the metrics' view of the same run agree.
        let activity_out: u64 = metrics.pe_activity.iter().map(|p| p.bytes_out).sum();
        assert_eq!(recorded_out, activity_out, "{task:?}");
        assert_eq!(snap.radio_bytes, metrics.radio_bytes, "{task:?}");
        assert_eq!(snap.frames, metrics.frames, "{task:?}");
        // NoC traffic was recorded per link and matches the bus total.
        assert_eq!(snap.noc_bytes(), metrics.bus_bytes, "{task:?}");
        assert!(!snap.links.is_empty(), "{task:?}: no NoC links recorded");
    }

    // A stream that ends on a window boundary leaves the end-of-stream
    // drain to a window with no frames in it; its counters must still
    // reach the sink. 3000-byte codec blocks do not divide a window's
    // 32 KiB of samples, so every codec has a partial block to drain.
    for task in [Task::CompressLz4, Task::CompressLzma, Task::CompressDwtma] {
        let channels = 8;
        let config = HaloConfig::small_test(channels).block_bytes(3000);
        let frames = 4 * config.feature_window_frames();
        let session = RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(300)
            .generate(7);
        let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
        let mut system = HaloSystem::new(task, config).unwrap();
        system.attach_telemetry(recorder.clone());
        system
            .push_block(&session.samples()[..frames * channels])
            .unwrap();
        let metrics = system.finalize().unwrap();
        let snap = recorder.snapshot();
        let runtime = system.runtime();

        assert_eq!(snap.frames, frames as u64, "{task:?}");
        assert_eq!(snap.radio_bytes, metrics.radio_bytes, "{task:?}");
        assert_eq!(snap.pes.len(), runtime.slot_totals().len(), "{task:?}");
        for (pe, t) in snap.pes.iter().zip(runtime.slot_totals()) {
            assert_eq!(
                [pe.busy_cycles, pe.stall_cycles, pe.bytes_in, pe.bytes_out],
                [t.busy_cycles, t.stall_cycles, t.bytes_in, t.bytes_out],
                "{task:?}: slot {} counters differ from the runtime's totals",
                pe.slot
            );
        }
        let mut recorded: Vec<_> = snap
            .links
            .iter()
            .map(|l| (l.from, l.to, l.bytes, l.transfers))
            .collect();
        let mut links: Vec<_> = runtime
            .fabric()
            .link_traffic()
            .iter()
            .map(|l| (l.from.0 as u8, l.to.0 as u8, l.bytes, l.transfers))
            .collect();
        recorded.sort_unstable();
        links.sort_unstable();
        assert_eq!(recorded, links, "{task:?}: link counters");
    }
}

/// The event ring is bounded: a tiny capacity cannot grow, and overflow is
/// counted instead of silently lost.
#[test]
fn event_ring_respects_bound() {
    let small = Arc::new(Recorder::new(8));
    run(Task::SeizurePrediction, Some(small.clone()));
    assert_eq!(small.event_capacity(), 8);
    assert!(small.events().len() <= 8);
    assert!(
        small.dropped_events() > 0,
        "a 700 ms seizure run must overflow an 8-event ring"
    );

    // A roomy ring keeps everything, in frame order.
    let big = Arc::new(Recorder::new(65536));
    let metrics = run(Task::SeizurePrediction, Some(big.clone()));
    assert_eq!(big.dropped_events(), 0);
    assert!(!metrics.stim_events.is_empty(), "scenario must stimulate");
    let events = big.events();
    assert!(events.windows(2).all(|w| w[0].frame <= w[1].frame));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Window(_))));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Detection { positive: true })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Stim { .. })));
}

/// Telemetry is observation, not simulation: a run with the disabled
/// [`NullSink`] attached produces byte-identical metrics to a run with no
/// sink attached at all.
#[test]
fn null_sink_is_invisible() {
    for task in [Task::SeizurePrediction, Task::CompressLzma] {
        let (config, session) = scenario(task);

        let mut plain = HaloSystem::new(task, config.clone()).unwrap();
        let plain_metrics = plain.process(&session).unwrap();

        let mut nulled = HaloSystem::new(task, config).unwrap();
        nulled.attach_telemetry(Arc::new(NullSink));
        let nulled_metrics = nulled.process(&session).unwrap();

        assert_eq!(
            plain_metrics.radio_stream, nulled_metrics.radio_stream,
            "{task:?}"
        );
        assert_eq!(
            plain_metrics.pe_activity, nulled_metrics.pe_activity,
            "{task:?}"
        );
        assert_eq!(
            plain_metrics.radio_bytes, nulled_metrics.radio_bytes,
            "{task:?}"
        );
        assert_eq!(
            plain_metrics.bus_bytes, nulled_metrics.bus_bytes,
            "{task:?}"
        );
        assert_eq!(plain_metrics.frames, nulled_metrics.frames, "{task:?}");
        assert_eq!(
            plain_metrics.detections, nulled_metrics.detections,
            "{task:?}"
        );
        assert_eq!(
            plain_metrics.controller_cycles, nulled_metrics.controller_cycles,
            "{task:?}"
        );
    }
}

/// The Chrome trace of a real run is valid JSON and carries one track per
/// active PE plus the NoC and power timelines.
#[test]
fn chrome_trace_of_real_run_is_valid() {
    let recorder = Arc::new(Recorder::new(65536).with_sample_rate_hz(30_000));
    let metrics = run(Task::SeizurePrediction, Some(recorder.clone()));
    let trace = chrome_trace::render(&recorder);
    json::validate(&trace).expect("trace must be valid JSON");

    // One named track per active PE.
    for pe in recorder.snapshot().pes {
        assert!(
            trace.contains(&format!("\"tid\":{}", 100 + pe.slot)),
            "no track for PE slot {}",
            pe.slot
        );
    }
    assert!(trace.contains("NoC bytes/s"), "missing NoC counter track");
    assert!(trace.contains("power PE"), "missing power timeline track");
    assert!(metrics.frames > 0);
}

/// Exposition conformance: the text format rules exporters most often
/// violate, checked over a real instrumented run.
mod exposition_conformance {
    use super::*;
    use halo::telemetry::expose::{self, escape_label, is_valid_metric_name, Exposition};
    use halo::telemetry::{HealthConfig, HealthMonitor};

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        assert_eq!(escape_label("\\\"\n"), "\\\\\\\"\\n");
    }

    #[test]
    fn metric_name_grammar_is_enforced() {
        for good in ["halo_frames_total", "_x", "a:b:c", "A9"] {
            assert!(is_valid_metric_name(good), "{good:?} should be legal");
        }
        for bad in ["", "9a", "halo-frames", "halo frames", "é", "a{b}"] {
            assert!(!is_valid_metric_name(bad), "{bad:?} should be illegal");
        }
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_family_declaration_panics() {
        let mut e = Exposition::new();
        e.family("halo_dup", "counter", "first");
        e.family("halo_dup", "counter", "second");
    }

    #[test]
    #[should_panic(expected = "invalid metric family name")]
    fn invalid_family_name_panics() {
        let mut e = Exposition::new();
        e.family("bad-name", "counter", "nope");
    }

    #[test]
    fn help_text_is_escaped_and_headers_appear_once() {
        let mut e = Exposition::new();
        e.family("halo_x", "gauge", "line one\nline two \\ done");
        e.value("halo_x", "k=\"v\"", 1);
        let text = e.finish();
        assert!(text.contains("# HELP halo_x line one\\nline two \\\\ done\n"));
        assert_eq!(text.matches("# HELP halo_x").count(), 1);
        assert_eq!(text.matches("# TYPE halo_x").count(), 1);
    }

    /// Health exposition over a real run: HELP/TYPE exactly once per
    /// family (recorder + health + tracing sections share one declaration
    /// table), stable ordering across renders, and every sample value
    /// parses back to the number rendered.
    #[test]
    fn health_exposition_is_conformant_and_stable() {
        let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
        let monitor = Arc::new(HealthMonitor::new(recorder, HealthConfig::default()));
        let (config, recording) = scenario(Task::CompressLz4);
        let mut system = HaloSystem::new(Task::CompressLz4, config).unwrap();
        system.attach_health(monitor.clone());
        system.process(&recording).unwrap();

        let first = expose::render_health(&monitor);
        let second = expose::render_health(&monitor);
        assert_eq!(first, second, "same monitor must render byte-identically");

        let mut helps: Vec<&str> = Vec::new();
        let mut types: Vec<&str> = Vec::new();
        for line in first.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(!helps.contains(&name), "duplicate HELP for {name}");
                helps.push(name);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(!types.contains(&name), "duplicate TYPE for {name}");
                types.push(name);
            } else if !line.is_empty() {
                let metric = line.split(['{', ' ']).next().unwrap();
                assert!(
                    is_valid_metric_name(metric),
                    "illegal metric name {metric:?}"
                );
                let value = line.rsplit(' ').next().unwrap();
                let parsed: f64 = value.parse().expect("sample value must parse");
                // Round-trip: rendering the parsed value reproduces the
                // token (integers stay integers, floats stay floats).
                assert_eq!(format!("{parsed}"), value, "lossy sample {line:?}");
            }
        }
        assert_eq!(helps, types, "HELP/TYPE declarations must pair up");
    }
}
