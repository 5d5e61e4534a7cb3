//! End-to-end tests for the continuous-telemetry layer: the embedded
//! time-series store scraping a real pipeline run, byte-stable
//! snapshots, and burn-rate alerting under a shrinking power budget.

use std::sync::Arc;

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{Recording, RecordingConfig, RegionProfile};
use halo::telemetry::{
    expose, json, AlertKind, AlertPolicy, ContinuousConfig, ContinuousTelemetry, HealthConfig,
    HealthMonitor, Recorder, SeriesKind, SloConfig, TsdbConfig,
};

const CHANNELS: usize = 8;

fn session(frames: usize, seed: u64) -> Recording {
    RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .samples(frames)
        .generate(seed)
}

/// A compression system with the continuous layer attached, under the
/// default 15 mW budget.
fn build(layer: ContinuousConfig) -> (HaloSystem, Arc<ContinuousTelemetry>) {
    let config = HaloConfig::small_test(CHANNELS).channels(CHANNELS);
    let recorder = Arc::new(Recorder::new(65_536).with_sample_rate_hz(30_000));
    let monitor = Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            policy: AlertPolicy::Record,
            ..HealthConfig::default()
        },
    ));
    let continuous = Arc::new(ContinuousTelemetry::new(monitor, layer));
    let mut system = HaloSystem::new(Task::CompressLz4, config).expect("system");
    system.attach_continuous(continuous.clone());
    (system, continuous)
}

#[test]
fn pipeline_run_populates_every_power_series() {
    let config = HaloConfig::small_test(CHANNELS).channels(CHANNELS);
    let window = config.feature_window_frames() as u64;
    let (mut system, continuous) = build(ContinuousConfig::default());
    system.process(&session(120 * window as usize, 3)).unwrap();

    let status = continuous.status();
    let points = |kind: SeriesKind| {
        status
            .series
            .iter()
            .find(|(k, ..)| *k == kind)
            .map(|(_, total, ..)| *total)
            .unwrap_or(0)
    };
    // One power window per feature window, the last closed by `finish`.
    assert_eq!(points(SeriesKind::PowerMw), 120);
    assert_eq!(points(SeriesKind::PowerUtilization), 120);
    assert!(points(SeriesKind::RadioBps) > 0, "radio windows scraped");
    assert!(points(SeriesKind::FrameLatencyNs) > 0, "latency scraped");
    // Utilization is draw over budget, so it must sit strictly inside
    // (0, 1) under the generous default envelope.
    let (.., latest) = status
        .series
        .iter()
        .find(|(k, ..)| *k == SeriesKind::PowerUtilization)
        .unwrap();
    let utilization = latest.as_ref().map(|p| p.value).unwrap();
    assert!(utilization > 0.0 && utilization < 1.0, "{utilization}");
}

#[test]
fn a_run_longer_than_the_ring_keeps_only_its_last_points() {
    let config = HaloConfig::small_test(CHANNELS).channels(CHANNELS);
    let window = config.feature_window_frames() as u64;
    let (mut system, continuous) = build(ContinuousConfig {
        tsdb: TsdbConfig { raw_capacity: 16 },
        ..ContinuousConfig::default()
    });
    system.process(&session(40 * window as usize, 5)).unwrap();

    let snapshot = json::parse(&continuous.snapshot_json()).unwrap();
    let series = snapshot.get("series").and_then(|s| s.as_array()).unwrap();
    let power = series
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("power_mw"))
        .unwrap();
    let count = |key: &str| power.get(key).and_then(|v| v.as_u64()).unwrap();
    // 40 power windows through a 16-point ring: the last 16 stay, the
    // other 24 are only counted.
    assert_eq!((count("total"), count("dropped")), (40, 24));
    let frames: Vec<u64> = power
        .get("raw")
        .and_then(|r| r.as_array())
        .unwrap()
        .iter()
        .map(|p| p.get("f").and_then(|f| f.as_u64()).unwrap())
        .collect();
    // Each power window is stamped with its closing frame: windows 25..=40.
    let kept: Vec<u64> = (25..=40).map(|w| w * window).collect();
    assert_eq!(frames, kept);
}

#[test]
fn snapshots_are_byte_stable_across_identical_runs_and_repeated_flushes() {
    let run = || {
        let (mut system, continuous) = build(ContinuousConfig::default());
        system.process(&session(4096, 7)).unwrap();
        continuous
    };
    let a = run();
    let b = run();
    let snap_a = a.snapshot_json();
    assert_eq!(snap_a, b.snapshot_json(), "identical histories must match");
    // Snapshotting reads the store without changing it.
    assert_eq!(snap_a, a.snapshot_json(), "re-snapshot must be stable");
    json::parse(&snap_a).expect("snapshot must be valid JSON");
}

#[test]
fn budget_squeeze_fires_burn_rate_alert_through_the_monitor() {
    let config = HaloConfig::small_test(CHANNELS).channels(CHANNELS);
    let window = config.feature_window_frames() as u64;
    let frames = 120 * window;
    let (mut system, continuous) = build(ContinuousConfig {
        slo: SloConfig::scaled_to(frames),
        ..ContinuousConfig::default()
    });
    let monitor = continuous.monitor().clone();
    let recording = session(frames as usize, 13);
    let samples = recording.samples();

    // First half healthy, second half browned out to just above the
    // draw: utilization crosses the SLO margin without a hard trip.
    let half = (frames / 2) as usize * CHANNELS;
    system.push_block(&samples[..half]).unwrap();
    let draw = continuous
        .status()
        .series
        .iter()
        .find(|(k, ..)| *k == SeriesKind::PowerMw)
        .and_then(|(.., latest)| latest.as_ref().map(|p| p.value))
        .expect("draw measured");
    monitor.set_budget_mw(draw * 1.05);
    system.push_block(&samples[half..]).unwrap();
    system.finalize().unwrap();

    let status = monitor.status();
    let burn_alerts: Vec<_> = status
        .alerts
        .iter()
        .filter(|a| matches!(a.kind(), AlertKind::SloBurnRate { .. }))
        .collect();
    assert!(!burn_alerts.is_empty(), "squeeze must fire a burn alert");
    let squeeze_frame = frames / 2;
    assert!(
        burn_alerts.iter().all(|a| a.first_frame > squeeze_frame),
        "burn alerts must postdate the squeeze"
    );
    // No hard envelope violation: the budget stayed above the draw.
    assert!(
        !status
            .alerts
            .iter()
            .any(|a| matches!(a.kind(), AlertKind::PowerBudget { .. })),
        "soft alert must not come with a hard trip"
    );
    assert!(continuous.status().slo.total_fired() > 0);
}

#[test]
fn continuous_families_surface_in_the_exposition() {
    let (mut system, continuous) = build(ContinuousConfig::default());
    system.process(&session(4096, 19)).unwrap();
    let exposition = expose::render_continuous(&continuous.status());
    for family in [
        "halo_tsdb_points_total",
        "halo_tsdb_last_value",
        "halo_slo_burn_rate",
        "halo_slo_firing",
    ] {
        assert!(exposition.contains(family), "missing {family}");
    }
    assert!(exposition.contains("series=\"power_mw\""));
}
