//! Golden byte-identity net for the telemetry a violated envelope leaves
//! behind.
//!
//! Every stock pipeline runs at the `small_test` geometry over twelve
//! feature windows of arm signal with the whole observability stack
//! attached: a recording watchdog whose 0.05 mW budget every window
//! breaks, the continuous layer with SLO windows scaled to the stream, and
//! a 1-in-4 tracer. Each run is reduced to one FNV-1a digest over the
//! latched post-mortem, the tsdb snapshot, the health and continuous
//! expositions, and the coalesced alert log. `delivery_golden.rs` runs
//! at the default budget, where nothing fires; this net pins the paths
//! that only run once alerts do: post-mortem rendering, the SLO engine's
//! firings, and the power-window readings the tsdb stores.

use std::sync::Arc;

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::{
    expose, AlertPolicy, ContinuousConfig, ContinuousTelemetry, HealthConfig, HealthMonitor,
    Recorder, SloConfig, Tracer,
};

const CHANNELS: usize = 8;
const WINDOWS: usize = 12;

/// FNV-1a over the UTF-8 bytes of `text`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one run leaves behind: its digest, the alert kinds in log order,
/// the severity totals, and whether a post-mortem latched.
struct Run {
    digest: u64,
    alerts: Vec<&'static str>,
    severity_counts: [u64; 3],
    postmortem: bool,
}

fn run(task: Task) -> Run {
    let config = HaloConfig::small_test(CHANNELS);
    let frames = WINDOWS * config.feature_window_frames();
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .samples(frames)
        .generate(0x7e1e);
    let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(config.sample_rate_hz));
    let monitor = Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            budget_mw: 0.05,
            policy: AlertPolicy::Record,
            ..HealthConfig::default()
        },
    ));
    let continuous = Arc::new(ContinuousTelemetry::new(
        monitor.clone(),
        ContinuousConfig {
            slo: SloConfig::scaled_to(frames as u64),
            ..ContinuousConfig::default()
        },
    ));
    let mut sys = HaloSystem::new(task, config).unwrap();
    sys.attach_continuous(continuous.clone());
    sys.attach_tracing(Arc::new(Tracer::new(3, 4)));
    sys.process(&rec).unwrap();

    let postmortem = monitor.postmortem();
    let mut text = postmortem.clone().unwrap_or_default();
    text.push_str(&continuous.snapshot_json());
    text.push_str(&expose::render_health(&monitor));
    text.push_str(&expose::render_continuous(&continuous.status()));
    let status = monitor.status();
    for a in &status.alerts {
        text.push_str(&format!(
            "{} {}..{} x{}\n",
            a.kind().name(),
            a.first_frame,
            a.last_frame,
            a.repeat_count
        ));
    }
    Run {
        digest: fnv(&text),
        alerts: status.alerts.iter().map(|a| a.kind().name()).collect(),
        severity_counts: status.severity_counts,
        postmortem: postmortem.is_some(),
    }
}

/// Digest per task. The continuous exposition carries the tsdb and SLO
/// families, and each tsdb series snapshots its raw ring only.
const GOLDEN: [(Task, u64); 8] = [
    (Task::SpikeDetectNeo, 0xd2ce048f24a379e8),
    (Task::SpikeDetectDwt, 0x3839d26d8a5bd061),
    (Task::CompressLz4, 0x0562da925f006a7e),
    (Task::CompressLzma, 0xa9b771eaaf1091a1),
    (Task::CompressDwtma, 0x4a9ce62eb3d1d00c),
    (Task::MovementIntent, 0x92891956fd1c0f7d),
    (Task::SeizurePrediction, 0xd3f09d1eeccb7ebd),
    (Task::EncryptRaw, 0x07bec8b047875bee),
];

#[test]
fn violated_envelopes_leave_their_golden_telemetry() {
    assert_eq!(GOLDEN.map(|(t, _)| t).to_vec(), Task::all().to_vec());
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    for (task, want) in GOLDEN {
        let run = run(task);
        // Not vacuous: every window breaks the budget, the slow-burn SLO
        // fires once mid-stream, and the first critical latches a dump.
        assert_eq!(
            run.alerts,
            ["power_budget", "slo_burn_rate", "power_budget"],
            "{task:?}"
        );
        assert_eq!(run.severity_counts, [0, 1, WINDOWS as u64], "{task:?}");
        assert!(run.postmortem, "{task:?}: no post-mortem latched");
        if run.digest != want {
            mismatches.push(format!("{task:?}"));
        }
        got.push(format!("    (Task::{task:?}, {:#018x}),", run.digest));
    }
    assert!(
        mismatches.is_empty(),
        "telemetry output changed for {mismatches:?}; digests now:\n{}",
        got.join("\n")
    );
}
