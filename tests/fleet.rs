//! Fleet observatory integration: merged exposition arithmetic, text
//! conformance, and triage round-trips over real multi-session runs.

use halo::fleet::{registry, triage, FleetConfig, SessionReport, SessionSpec};
use halo::telemetry::json;

fn run_fleet(sessions: usize, config: &FleetConfig) -> Vec<SessionReport> {
    let specs = SessionSpec::mixed(sessions, config);
    let reports = halo::fleet::run(specs, config).unwrap().into_reports();
    assert_eq!(reports.len(), sessions);
    reports
}

/// All samples of `family` in a text exposition as `(labels, value)`.
fn samples<'a>(exposition: &'a str, family: &str) -> Vec<(&'a str, f64)> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|line| {
            let (metric, value) = line.rsplit_once(' ')?;
            let (name, labels) = match metric.split_once('{') {
                Some((n, rest)) => (n, rest.trim_end_matches('}')),
                None => (metric, ""),
            };
            (name == family).then(|| (labels, value.parse::<f64>().unwrap()))
        })
        .collect()
}

fn single(exposition: &str, family: &str) -> f64 {
    let s = samples(exposition, family);
    assert_eq!(s.len(), 1, "{family} should have exactly one sample");
    s[0].1
}

/// FNV-1a over the text, as in `tests/delivery_golden.rs`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pinned `(budget_mw, exposition, triage)` digests of a 16-session
/// mixed fleet at 1,200 frames per session: the stock 15 mW envelope,
/// and a starved budget under which every session latches a post-mortem
/// that the triage document embeds.
const FLEET_GOLDEN: [(Option<f64>, u64, u64); 2] = [
    (None, 0xe818_3c50_537a_b505, 0x9761_3df7_9b1b_d202),
    (Some(0.0001), 0x94d9_5f69_a14a_decc, 0x8e58_8e0d_590f_575d),
];

#[test]
fn fleet_reports_match_golden_digests_at_any_worker_count() {
    let mut mismatches = Vec::new();
    for (budget, exposition, triage) in FLEET_GOLDEN {
        for threads in [1, 4] {
            let mut config = FleetConfig::default()
                .frames_per_session(1200)
                .threads(threads);
            if let Some(mw) = budget {
                config = config.budget_mw(mw);
            }
            let reports = run_fleet(16, &config);
            let got = (
                fnv(&registry::render_exposition(&reports)),
                fnv(&triage::render_triage(&reports, 4)),
            );
            if got != (exposition, triage) {
                mismatches.push(format!(
                    "budget {budget:?}, {threads} worker(s): exposition {:#018x}, triage {:#018x}",
                    got.0, got.1
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn fleet_totals_equal_sum_of_session_totals() {
    let config = FleetConfig::default().frames_per_session(300);
    let reports = run_fleet(12, &config);
    let text = registry::render_exposition(&reports);

    for (fleet_family, session_family) in [
        ("halo_fleet_frames_total", "halo_session_frames_total"),
        (
            "halo_fleet_radio_bytes_total",
            "halo_session_radio_bytes_total",
        ),
    ] {
        let fleet_total = single(&text, fleet_family);
        let per_session = samples(&text, session_family);
        assert_eq!(per_session.len(), 12);
        let sum: f64 = per_session.iter().map(|(_, v)| v).sum();
        assert_eq!(
            fleet_total, sum,
            "{fleet_family} != sum of {session_family}"
        );
    }

    // Aggregate power is the sum of per-session gauges (floats: compare
    // with a tolerance).
    let fleet_mw = single(&text, "halo_fleet_power_mw");
    let session_mw: f64 = samples(&text, "halo_session_power_mw")
        .iter()
        .map(|(_, v)| v)
        .sum();
    assert!((fleet_mw - session_mw).abs() < 1e-6);

    // Alert totals roll up by severity.
    for severity in ["info", "warning", "critical"] {
        let key = format!("severity=\"{severity}\"");
        let fleet: f64 = samples(&text, "halo_fleet_alerts_total")
            .iter()
            .filter(|(l, _)| l.contains(&key))
            .map(|(_, v)| v)
            .sum();
        let sessions: f64 = samples(&text, "halo_session_alerts_total")
            .iter()
            .filter(|(l, _)| l.contains(&key))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(fleet, sessions, "severity {severity}");
    }

    // The merged latency histogram saw exactly one sample per frame.
    let hist_count = single(&text, "halo_fleet_frame_latency_ns_count");
    assert_eq!(hist_count, single(&text, "halo_fleet_frames_total"));
}

#[test]
fn fleet_exposition_is_conformant_and_stable() {
    let config = FleetConfig::default().frames_per_session(240);
    let reports = run_fleet(8, &config);
    let first = registry::render_exposition(&reports);
    let second = registry::render_exposition(&reports);
    assert_eq!(
        first, second,
        "render must be byte-stable over same reports"
    );

    // Every family declares HELP and TYPE exactly once, before its
    // samples; every sample value parses.
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
            let family = metric
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                types.contains(&family) || types.contains(&metric),
                "sample {metric} precedes its TYPE header"
            );
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value {value:?}"
            );
        }
    }
    assert_eq!(helps, types, "HELP and TYPE sets must match in order");

    // Histogram buckets are cumulative and end at the count.
    let buckets = samples(&first, "halo_fleet_frame_latency_ns_bucket");
    assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
    assert_eq!(
        buckets.last().unwrap().1,
        single(&first, "halo_fleet_frame_latency_ns_count")
    );
}

#[test]
fn triage_document_round_trips_and_embeds_postmortems() {
    // Starve the power budget so every session trips critical alerts and
    // latches a flight-recorder dump.
    let config = FleetConfig::default()
        .frames_per_session(400)
        .budget_mw(0.0001);
    let reports = run_fleet(6, &config);
    let doc = triage::render_triage(&reports, 3);
    let value = json::parse(&doc).expect("triage must be valid JSON");

    assert_eq!(value.get("sessions").and_then(|v| v.as_u64()), Some(6));
    let critical = value
        .get("alerts")
        .and_then(|a| a.get("critical"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(critical > 0, "starved budget must raise critical alerts");

    let worst = value.get("worst").and_then(|v| v.as_array()).unwrap();
    assert_eq!(worst.len(), 3);
    for row in worst {
        // The embedded post-mortem is a JSON object (the session's raw
        // flight-recorder dump), not a string blob.
        let pm = row.get("postmortem").expect("postmortem key");
        assert!(
            pm.get("alerts").is_some() || pm.get("reason").is_some(),
            "postmortem must embed the flight recorder verbatim"
        );
    }

    // Scores are non-increasing.
    let scores: Vec<f64> = worst
        .iter()
        .map(|r| r.get("score").and_then(|v| v.as_f64()).unwrap())
        .collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn exemplar_traces_cover_the_fleet_deterministically() {
    let config = FleetConfig::default().frames_per_session(600);
    let reports = run_fleet(16, &config);
    let traces = halo::fleet::exemplar::collect(&reports);
    assert!(!traces.is_empty(), "elections must produce exemplar traces");

    // Election is derived from the fleet seed alone: a rerun elects the
    // same sessions and frames.
    let reports2 = run_fleet(16, &config);
    let traces2 = halo::fleet::exemplar::collect(&reports2);
    let key = |ts: &[halo::fleet::ExemplarTrace]| {
        ts.iter()
            .map(|t| (t.session, t.root_frame))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&traces), key(&traces2));

    // Sampling stays stratified: traced sessions span more than one
    // election group (16 sessions / group_size 8 = 2 groups).
    let mut groups: Vec<u64> = traces.iter().map(|t| t.session / 8).collect();
    groups.sort_unstable();
    groups.dedup();
    assert_eq!(groups.len(), 2);
}

#[test]
fn continuous_tsdb_snapshots_are_byte_identical_across_thread_counts() {
    // The continuous layer rides inside each session's deterministic
    // stream, so its serialized history must not depend on how the
    // scheduler interleaved sessions across workers.
    let snapshots_at = |threads: usize| -> Vec<(u64, String)> {
        let config = FleetConfig::default()
            .frames_per_session(600)
            .threads(threads);
        let mut out: Vec<(u64, String)> = run_fleet(8, &config)
            .iter()
            .map(|r| {
                let continuous = r.continuous.as_ref().expect("fleet runs with tsdb");
                (r.spec.id, continuous.snapshot_json())
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    };
    let serial = snapshots_at(1);
    let parallel = snapshots_at(4);
    assert_eq!(serial.len(), 8);
    for ((id_a, snap_a), (id_b, snap_b)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(id_a, id_b);
        json::parse(snap_a).expect("snapshot must be valid JSON");
        assert_eq!(
            snap_a, snap_b,
            "session {id_a} tsdb snapshot differs across thread counts"
        );
    }
    // And the histories are non-trivial: every session recorded power.
    for (_, snap) in &serial {
        assert!(snap.contains("\"power_mw\""));
    }
}

#[test]
fn triage_carries_slo_and_profile_sections() {
    let config = FleetConfig::default().frames_per_session(400);
    let reports = run_fleet(6, &config);
    let doc = triage::render_triage(&reports, 3);
    let value = json::parse(&doc).expect("triage must parse");
    assert!(value.get("slo").is_some(), "fleet slo totals missing");
    // The fleet-level profile verdict and its dominant frame.
    let profile = value.get("profile").expect("fleet profile section");
    assert!(
        profile
            .get("total_cycles")
            .and_then(|v| v.as_u64())
            .unwrap()
            > 0
    );
    assert!(profile.get("dominant").is_some());
    let worst = value.get("worst").and_then(|v| v.as_array()).unwrap();
    for row in worst {
        assert!(row.get("slo").is_some(), "per-session slo section missing");
        let profile = row.get("profile").expect("per-session profile section");
        assert!(profile.get("divergence").and_then(|v| v.as_f64()).is_some());
    }
}

#[test]
fn session_profiles_are_byte_identical_across_thread_counts() {
    // The profiler rides the deterministic busy-cycle counters, so a
    // session's folded flamegraph must not depend on how the scheduler
    // interleaved sessions across workers.
    let profiles_at = |threads: usize| -> Vec<(u64, String, String)> {
        let config = FleetConfig::default()
            .frames_per_session(600)
            .threads(threads);
        let mut out: Vec<(u64, String, String)> = run_fleet(8, &config)
            .iter()
            .map(|r| {
                let profile = r.profile.as_ref().expect("fleet sessions are profiled");
                (r.spec.id, profile.folded(), profile.to_json())
            })
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    };
    let serial = profiles_at(1);
    let parallel = profiles_at(4);
    assert_eq!(serial.len(), 8);
    for ((id_a, folded_a, json_a), (id_b, folded_b, json_b)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(id_a, id_b);
        assert!(!folded_a.is_empty(), "session {id_a} profile is empty");
        assert_eq!(
            folded_a, folded_b,
            "session {id_a} flamegraph differs across thread counts"
        );
        assert_eq!(json_a, json_b);
        json::parse(json_a).expect("profile JSON must parse");
    }
}

#[test]
fn fleet_profile_merges_sessions_and_lands_in_the_exposition() {
    let config = FleetConfig::default().frames_per_session(300);
    let reports = run_fleet(6, &config);
    let fleet = registry::fleet_profile(&reports);
    assert_eq!(fleet.device, "fleet");
    let session_total: u64 = reports
        .iter()
        .filter_map(|r| r.profile.as_ref())
        .map(|p| p.total_cycles())
        .sum();
    assert_eq!(fleet.total_cycles(), session_total);
    let session_frames: u64 = reports
        .iter()
        .filter_map(|r| r.profile.as_ref())
        .map(|p| p.frames)
        .sum();
    assert_eq!(fleet.frames, session_frames);

    let text = registry::render_exposition(&reports);
    let cycles = samples(&text, "halo_profile_cycles_total");
    assert!(!cycles.is_empty(), "profile families missing from rollup");
    assert!(cycles.iter().all(|(l, _)| l.contains("device=\"fleet\"")));
    let exported: f64 = cycles.iter().map(|(_, v)| v).sum();
    assert_eq!(exported, session_total as f64);
}
