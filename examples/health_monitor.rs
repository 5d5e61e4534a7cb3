//! Runtime health monitoring: run the seizure closed-loop task under the
//! safety-envelope watchdog, force a power-budget violation by lowering
//! the budget far below what the pipeline draws, and dump the black-box
//! post-mortem plus a Prometheus-style exposition.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example health_monitor [-- <out-dir>]
//! ```
//!
//! Writes `postmortem.json` and `exposition.prom` under `<out-dir>`
//! (default `target/health_monitor` — generated artifacts stay out of
//! the repository; CI validates and archives both).

use std::path::PathBuf;
use std::sync::Arc;

use halo::core::tasks::seizure;
use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::{
    expose, json, AlertKind, AlertPolicy, HealthConfig, HealthMonitor, Recorder,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("target/health_monitor"), PathBuf::from);
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

    // --- Attach the watchdog with an induced overload ---
    // The real envelope is 15 mW; pretend the battery controller demanded
    // 1 µW so every sampling window violates the budget and the flight
    // recorder latches a post-mortem.
    let recorder = Arc::new(Recorder::new(65536).with_sample_rate_hz(30_000));
    let monitor = Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            budget_mw: 0.001,
            policy: AlertPolicy::Record,
            ..HealthConfig::default()
        },
    ));
    let mut system = HaloSystem::new(Task::SeizurePrediction, config)?;
    system.attach_health(monitor.clone());

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
    for stim in &metrics.stim_events {
        println!(
            "  stim at frame {}: {} channels, {} frame(s) detection-to-pulse",
            stim.frame,
            stim.commands.len(),
            stim.latency_frames
        );
    }

    // --- What did the watchdog see? ---
    let status = monitor.status();
    println!(
        "\nhealth: {} alerts ({} critical), worst window {:.3} mW vs {:.3} mW budget",
        status.total_alerts(),
        status.severity_counts[halo::telemetry::Severity::Critical as usize],
        status.worst_window.map_or(0.0, |(_, mw)| mw),
        status.budget_mw
    );
    let power_alerts = status
        .alerts
        .iter()
        .filter(|a| matches!(a.kind(), AlertKind::PowerBudget { .. }))
        .count();
    assert!(power_alerts >= 1, "induced overload must raise an alert");

    // --- Black-box post-mortem ---
    let dump = monitor
        .postmortem()
        .expect("a critical alert latches the flight recorder");
    json::validate(&dump).expect("post-mortem must be valid JSON");
    std::fs::create_dir_all(&out_dir)?;
    let postmortem_path = out_dir.join("postmortem.json");
    std::fs::write(&postmortem_path, &dump)?;
    println!("wrote {} ({} bytes)", postmortem_path.display(), dump.len());

    // --- Prometheus exposition ---
    let exposition = expose::render_health(&monitor);
    assert!(exposition.contains("halo_frame_latency_ns_count"));
    println!("\n{exposition}");
    let exposition_path = out_dir.join("exposition.prom");
    std::fs::write(&exposition_path, &exposition)?;
    println!(
        "wrote {} ({} bytes)",
        exposition_path.display(),
        exposition.len()
    );
    Ok(())
}
