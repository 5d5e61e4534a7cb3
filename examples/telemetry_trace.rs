//! Minimal telemetry walkthrough: instrument a compression pipeline,
//! print the counter exposition, and export a Perfetto-loadable trace.
//!
//! ```text
//! cargo run --release --example telemetry_trace [-- <out.json>]
//! ```
//!
//! The trace goes to `<out.json>` (default
//! `target/telemetry_trace/trace.json` — generated artifacts stay out of
//! the repository). Open it at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one track per processing element with its busy
//! windows, a counter track for NoC traffic, and per-clock-domain power
//! timelines.

use std::path::PathBuf;
use std::sync::Arc;

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::{chrome_trace, expose, Recorder};

fn main() {
    let out = std::env::args().nth(1).map_or_else(
        || PathBuf::from("target/telemetry_trace/trace.json"),
        PathBuf::from,
    );

    let channels = 8;
    let config = HaloConfig::small_test(channels).channels(channels);
    let sample_rate = config.sample_rate_hz;
    let mut system = HaloSystem::new(Task::CompressLzma, config).unwrap();

    // A Recorder is a TelemetrySink folding each window's report into
    // totals and a bounded event ring; share it with the system, keep a
    // handle for export.
    let recorder = Arc::new(Recorder::new(16_384).with_sample_rate_hz(sample_rate));
    system.attach_telemetry(recorder.clone());

    let recording = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(250)
        .generate(42);
    let metrics = system.process(&recording).unwrap();

    println!("{}", expose::render(&recorder));
    println!(
        "compression ratio {:.2}, NoC bus utilization {:.4}%",
        metrics.compression_ratio().unwrap_or(1.0),
        100.0 * metrics.noc_bus_utilization()
    );

    let trace = chrome_trace::render(&recorder);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(&out, &trace).unwrap();
    println!(
        "wrote {} ({} bytes) — open at ui.perfetto.dev",
        out.display(),
        trace.len()
    );
}
