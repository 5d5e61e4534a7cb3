//! Burn-rate alerting under a battery brownout: the slow-burn SLO alert
//! fires while the implant is still *inside* its hard power envelope,
//! long before the envelope itself trips.
//!
//! The narrative: a calibration pass measures the pipeline's steady
//! per-window draw, then the session re-runs under a shrinking power
//! budget — a mild brownout (budget squeezed to just above the draw, so
//! utilization climbs past the SLO margin but nothing hard-fails)
//! followed by a deep brownout (budget below the draw, tripping the
//! `PowerBudget` critical). The continuous-telemetry layer's burn-rate
//! engine must raise its `SloBurnRate` warning during the mild phase —
//! strictly earlier than the hard trip — which is the entire point of
//! error-budget alerting: hours of warning instead of a page.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example slo_burnrate [-- <out-dir>]
//! ```
//!
//! Writes `tsdb_snapshot.json` and `continuous.prom` under `<out-dir>`
//! (default `target/slo_burnrate`).

use std::path::PathBuf;
use std::sync::Arc;

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::faults::BrownoutWindow;
use halo::signal::{Recording, RecordingConfig, RegionProfile};
use halo::telemetry::{
    expose, json, AlertKind, AlertPolicy, ContinuousConfig, ContinuousTelemetry, HealthConfig,
    HealthMonitor, Recorder, Severity, SloConfig,
};

const CHANNELS: usize = 8;
const SAMPLE_RATE_HZ: u32 = 30_000;

/// Builds a fresh system + continuous layer for one run over `frames`.
fn build(
    frames: u64,
    budget_mw: f64,
) -> Result<(HaloSystem, Arc<ContinuousTelemetry>), Box<dyn std::error::Error>> {
    let config = HaloConfig::small_test(CHANNELS).channels(CHANNELS);
    let recorder = Arc::new(Recorder::new(65_536).with_sample_rate_hz(SAMPLE_RATE_HZ));
    let monitor = Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            budget_mw,
            policy: AlertPolicy::Record,
            ..HealthConfig::default()
        },
    ));
    let continuous = Arc::new(ContinuousTelemetry::new(
        monitor,
        ContinuousConfig {
            slo: SloConfig::scaled_to(frames),
            ..ContinuousConfig::default()
        },
    ));
    let mut system = HaloSystem::new(Task::CompressLz4, config)?;
    system.attach_continuous(continuous.clone());
    Ok((system, continuous))
}

/// Per-window draws from a finished run's time-series snapshot, dropping
/// the final (possibly partial) window.
fn window_draws(continuous: &ContinuousTelemetry) -> Vec<f64> {
    let snapshot = json::parse(&continuous.snapshot_json()).expect("snapshot must parse");
    let series = snapshot
        .get("series")
        .and_then(|s| s.as_array())
        .expect("series array");
    let power = series
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("power_mw"))
        .expect("power_mw series");
    let mut draws: Vec<f64> = power
        .get("raw")
        .and_then(|r| r.as_array())
        .expect("raw points")
        .iter()
        .filter_map(|p| p.get("v").and_then(|v| v.as_f64()))
        .collect();
    draws.pop();
    draws
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("target/slo_burnrate"), PathBuf::from);
    let config = HaloConfig::small_test(CHANNELS).channels(CHANNELS);
    let window = config.feature_window_frames() as u64;
    let frames = 240 * window;
    let recording: Recording = RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .samples(frames as usize)
        .generate(41);

    // --- Calibration: what does this pipeline actually draw? ---
    let (mut reference, ref_continuous) = build(frames, HealthConfig::default().budget_mw)?;
    reference.process(&recording)?;
    let draws = window_draws(&ref_continuous);
    let steady_max = draws.iter().cloned().fold(f64::MIN, f64::max);
    let steady_min = draws.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "calibration: {} windows, draw {:.4}..{:.4} mW",
        draws.len(),
        steady_min,
        steady_max
    );

    // --- The brownout schedule ---
    // Healthy: utilization ~0.5, well under the 0.8 SLO margin. Mild
    // brownout: budget just above the worst window — nothing trips, but
    // every window burns error budget. Deep brownout: budget below the
    // *best* window, so the hard envelope must trip.
    let healthy_mw = steady_max * 2.0;
    let mild = BrownoutWindow {
        start_frame: frames / 4,
        end_frame: frames * 85 / 100,
        budget_mw: steady_max * 1.02,
    };
    let deep = BrownoutWindow {
        start_frame: frames * 88 / 100,
        end_frame: frames,
        budget_mw: steady_min * 0.9,
    };
    println!(
        "budgets: healthy {:.3} mW, mild {:.3} mW @ [{}, {}), deep {:.3} mW @ [{}, {})",
        healthy_mw,
        mild.budget_mw,
        mild.start_frame,
        mild.end_frame,
        deep.budget_mw,
        deep.start_frame,
        deep.end_frame
    );

    // --- Stream the session, browning out the budget mid-flight ---
    let (mut system, continuous) = build(frames, healthy_mw)?;
    let monitor = continuous.monitor().clone();
    let samples = recording.samples();
    let mut frame = 0u64;
    while frame < frames {
        let batch = window.min(frames - frame);
        let budget = if deep.contains(frame) {
            deep.budget_mw
        } else if mild.contains(frame) {
            mild.budget_mw
        } else {
            healthy_mw
        };
        if budget != monitor.budget_mw() {
            monitor.set_budget_mw(budget);
        }
        let lo = (frame as usize) * CHANNELS;
        let hi = lo + (batch as usize) * CHANNELS;
        system.push_block(&samples[lo..hi])?;
        frame += batch;
    }
    let metrics = system.finalize()?;
    println!("processed {} frames\n", metrics.frames);

    // --- The punchline: slow burn fires before the envelope trips ---
    let status = monitor.status();
    let first_burn = status
        .alerts
        .iter()
        .filter(|a| matches!(a.kind(), AlertKind::SloBurnRate { .. }))
        .map(|a| a.first_frame)
        .min()
        .expect("the mild brownout must fire a burn-rate alert");
    let first_trip = status
        .alerts
        .iter()
        .filter(|a| matches!(a.kind(), AlertKind::PowerBudget { .. }))
        .map(|a| a.first_frame)
        .min()
        .expect("the deep brownout must trip the power envelope");
    assert!(
        first_burn < first_trip,
        "burn-rate warning (frame {first_burn}) must precede the hard trip (frame {first_trip})"
    );
    println!(
        "slo burn-rate alert at frame {} — {} windows of warning before the envelope tripped at frame {}",
        first_burn,
        (first_trip - first_burn) / window,
        first_trip
    );
    for alert in &status.alerts {
        println!(
            "  [{}] {} frames {}..{} (x{})",
            alert.severity().label(),
            alert.kind().name(),
            alert.first_frame,
            alert.last_frame,
            alert.repeat_count
        );
    }
    assert!(
        status.severity_counts[Severity::Critical as usize] > 0,
        "deep brownout must raise criticals"
    );

    // --- Continuous-layer state: series and burn rates ---
    let cs = continuous.status();
    let exposition = expose::render_continuous(&cs);
    assert!(exposition.contains("halo_slo_burn_rate"));
    println!("\n{exposition}");

    std::fs::create_dir_all(&out_dir)?;
    let snapshot = continuous.snapshot_json();
    json::validate(&snapshot).expect("snapshot must be valid JSON");
    let snapshot_path = out_dir.join("tsdb_snapshot.json");
    std::fs::write(&snapshot_path, &snapshot)?;
    println!(
        "wrote {} ({} bytes)",
        snapshot_path.display(),
        snapshot.len()
    );

    let prom_path = out_dir.join("continuous.prom");
    std::fs::write(&prom_path, &exposition)?;
    println!("wrote {} ({} bytes)", prom_path.display(), exposition.len());
    Ok(())
}
