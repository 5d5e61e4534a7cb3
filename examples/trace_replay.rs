//! Causal frame tracing and deterministic replay: run the seizure
//! closed-loop task with a 1-in-64 trace sampler, assemble the sampled
//! frames' span trees, print the critical-path attribution ("where did
//! the latency go?"), then capture the run to a trace log and replay it
//! through a fresh device, asserting bit-identical outputs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_replay [-- <out-dir>]
//! ```
//!
//! Writes `trace_log.json`, `trace_perfetto.json`, and
//! `trace_exposition.prom` under `<out-dir>` (default
//! `target/trace_replay` — generated artifacts stay out of the
//! repository; CI validates and archives all three; load the Perfetto
//! file at <https://ui.perfetto.dev> to see the span slices and flow
//! arrows).

use std::path::PathBuf;
use std::sync::Arc;

use halo::core::tasks::seizure;
use halo::core::{trace, HaloConfig, HaloSystem, Task};
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::{
    chrome_trace, expose, json, CriticalPathSummary, Recorder, SpanTree, TraceLog, Tracer,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("target/trace_replay"), PathBuf::from);
    let channels = 8;
    let config = HaloConfig::small_test(channels).channels(channels);
    let window = config.feature_window_frames();

    // --- Offline personalization, as in the seizure_closed_loop example ---
    let train_rec = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(800)
        .seizure_at(8 * window, 16 * window)
        .generate(11);
    let svm = seizure::train(&config, &[&train_rec])?;
    let config = config.with_svm(svm);

    // --- Run with a recorder and a 1-in-64 deterministic trace sampler ---
    let recorder = Arc::new(Recorder::new(65536).with_sample_rate_hz(config.sample_rate_hz));
    let tracer = Arc::new(Tracer::new(0xA11CE, 64).with_done_capacity(4096));
    let mut system = HaloSystem::new(Task::SeizurePrediction, config.clone())?;
    system.attach_telemetry(recorder.clone());
    system.attach_tracing(tracer.clone());

    let session = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(800)
        .seizure_at(10 * window, 20 * window)
        .generate(23);
    let metrics = system.process(&session)?;
    println!(
        "processed {} frames, {} stimulation events",
        metrics.frames,
        metrics.stim_events.len()
    );
    assert!(
        !metrics.stim_events.is_empty(),
        "scenario must trigger closed-loop stimulation"
    );

    // --- Span trees and critical-path attribution ---
    let stats = tracer.stats();
    let trees = tracer.trees();
    println!(
        "\nsampled {} of {} frames -> {} complete span trees",
        stats.sampled, metrics.frames, stats.completed
    );
    assert!(stats.sampled > 0, "1-in-64 sampling must fire");
    assert_eq!(
        stats.completed, stats.sampled,
        "every sampled frame must close into a tree"
    );
    for record in &trees {
        let tree = SpanTree::assemble(record.clone())?;
        let total = tree.end_to_end_ns();
        let attributed: u64 = tree.attribution().iter().map(|h| h.ns).sum();
        // Acceptance: attribution covers 100% (±1%) of end-to-end latency.
        assert!(
            (attributed as f64 - total as f64).abs() <= total as f64 * 0.01,
            "attribution covers {attributed} of {total} ns"
        );
    }
    let agg = CriticalPathSummary::from_traces(&trees);
    let exposition = expose::render_tracing(&tracer);
    assert!(exposition.contains("halo_trace_sampled_total"));
    println!("{exposition}");
    if let Some((hop, fraction)) = agg.dominant() {
        println!(
            "=> p99-style verdict: latency dominated by {} ({}), {:.0}%",
            hop.label,
            hop.kind.label(),
            fraction * 100.0
        );
    }

    // --- Artifacts: trace log, Perfetto JSON, Prometheus exposition ---
    std::fs::create_dir_all(&out_dir)?;
    let log_path = out_dir.join("trace_log.json");
    let log = trace::capture(&system, &session, &metrics);
    let log_text = log.write();
    std::fs::write(&log_path, &log_text)?;
    println!("wrote {} ({} bytes)", log_path.display(), log_text.len());

    let perfetto = chrome_trace::render(&recorder);
    json::validate(&perfetto).expect("Perfetto trace must be valid JSON");
    assert!(
        perfetto.contains("\"cat\":\"trace\""),
        "span slices missing from the Perfetto trace"
    );
    let perfetto_path = out_dir.join("trace_perfetto.json");
    std::fs::write(&perfetto_path, &perfetto)?;
    println!(
        "wrote {} ({} bytes)",
        perfetto_path.display(),
        perfetto.len()
    );

    let exposition_path = out_dir.join("trace_exposition.prom");
    std::fs::write(&exposition_path, &exposition)?;
    println!(
        "wrote {} ({} bytes)",
        exposition_path.display(),
        exposition.len()
    );

    // --- Deterministic replay through a fresh device ---
    let reread = TraceLog::read(&std::fs::read_to_string(&log_path)?)?;
    assert_eq!(reread, log, "trace log must survive serialization");
    let (replayed, report) = trace::replay(&reread, config)?;
    println!("\nreplay: {report}");
    assert!(report.identical(), "replay diverged: {report}");
    assert_eq!(replayed.radio_stream, metrics.radio_stream);
    println!(
        "replay reproduced {} radio bytes, {} detections, {} stim events bit-identically",
        replayed.radio_bytes,
        replayed.detections.len(),
        replayed.stim_events.len()
    );
    Ok(())
}
