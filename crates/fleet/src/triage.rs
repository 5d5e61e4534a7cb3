//! Fleet health triage: rank the worst sessions and assemble the fleet
//! post-mortem.
//!
//! An operator staring at a 256-session fleet needs the answer to "who
//! is hurting and why" in one document. [`render_triage`] scores every
//! session — critical alerts and runtime errors dominate, then warning
//! alerts, then tail latency — and emits a JSON report with fleet
//! totals, the top-K worst sessions, and, for any session that latched
//! a flight-recorder dump, that session's post-mortem embedded verbatim
//! (it is already JSON, so the triage document stays machine-parseable
//! end to end).

use halo_telemetry::{json, CycleProfile};

use crate::exemplar;
use crate::registry::fleet_profile;
use crate::session::SessionReport;

/// One scored row of the triage table.
#[derive(Debug)]
pub struct TriageRow<'a> {
    /// The session under triage.
    pub report: &'a SessionReport,
    /// Composite badness score (higher = worse); see [`score`] — plus the
    /// profile-divergence term added by [`worst_sessions`].
    pub score: f64,
    /// How far the session's cycle attribution sits from the fleet norm
    /// for its pipeline (max absolute share delta over its frames).
    pub divergence: f64,
    /// The session profile's dominant frame and its cycle share.
    pub dominant: Option<(String, f64)>,
}

/// Composite badness: a runtime error or critical alert is always worse
/// than any number of warnings, which in turn dominate tail latency. The
/// p99 term (in microseconds) breaks ties between healthy sessions so the
/// triage table stays fully ordered and deterministic.
pub fn score(report: &SessionReport) -> f64 {
    let status = report.monitor.status();
    let critical = status.severity_counts[2] as f64;
    let warning = status.severity_counts[1] as f64;
    let error = if report.error.is_some() { 1.0 } else { 0.0 };
    let p99_us = worst_p99_ns(report) as f64 / 1e3;
    (critical + error) * 1e9 + warning * 1e6 + p99_us
}

fn worst_p99_ns(report: &SessionReport) -> u64 {
    report
        .recorder
        .pipeline_histograms()
        .iter()
        .map(|(_, h)| h.summary().p99)
        .max()
        .unwrap_or(0)
}

/// Per-frame-path cycle shares within `pipeline`, as fractions of that
/// pipeline's total cycles — run length cancels, so sessions of any
/// duration compare directly.
fn pipeline_shares(profile: &CycleProfile, pipeline: &str) -> Vec<(String, f64)> {
    let total: u64 = profile
        .rows
        .iter()
        .filter(|r| r.pipeline == pipeline)
        .map(|r| r.cycles)
        .sum();
    if total == 0 {
        return Vec::new();
    }
    profile
        .rows
        .iter()
        .filter(|r| r.pipeline == pipeline)
        .map(|r| (r.frame(), r.cycles as f64 / total as f64))
        .collect()
}

/// Dominant-frame divergence: the largest absolute difference between
/// the session's per-frame cycle shares and the fleet norm for its
/// pipeline (frames present on only one side count at their full share).
/// A session whose time goes to the same places as its peers scores 0; a
/// session burning its cycles somewhere unusual — a drain phase the rest
/// of the fleet barely touches, say — scores up to 1.
pub fn profile_divergence(report: &SessionReport, fleet: &CycleProfile) -> f64 {
    let Some(profile) = &report.profile else {
        return 0.0;
    };
    let pipeline = report.spec.task.label();
    let session = pipeline_shares(profile, pipeline);
    let norm = pipeline_shares(fleet, pipeline);
    let mut max = 0.0f64;
    for (frame, share) in &session {
        let fleet_share = norm
            .iter()
            .find(|(f, _)| f == frame)
            .map_or(0.0, |(_, s)| *s);
        max = max.max((share - fleet_share).abs());
    }
    for (frame, share) in &norm {
        if !session.iter().any(|(f, _)| f == frame) {
            max = max.max(*share);
        }
    }
    max
}

/// Scores every session and returns the `k` worst, worst first. The
/// profile-divergence term (scaled to stay below one warning alert)
/// ranks attribution outliers above merely slow sessions, without ever
/// outranking a real alert. Ties break toward the lower session id so
/// the ordering is total.
pub fn worst_sessions(reports: &[SessionReport], k: usize) -> Vec<TriageRow<'_>> {
    let fleet = fleet_profile(reports);
    let mut rows: Vec<TriageRow> = reports
        .iter()
        .map(|report| {
            let divergence = profile_divergence(report, &fleet);
            TriageRow {
                report,
                score: score(report) + divergence * 1e4,
                divergence,
                dominant: report.profile.as_ref().and_then(|p| p.dominant_frame()),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.report.spec.id.cmp(&b.report.spec.id))
    });
    rows.truncate(k);
    rows
}

/// Renders the fleet triage document: totals, the top-`k` worst
/// sessions, offending sessions' embedded post-mortems, and the
/// exemplar-trace digest. The output is valid JSON (checked by tests
/// with [`json::parse`]).
pub fn render_triage(reports: &[SessionReport], k: usize) -> String {
    let mut severity = [0u64; 3];
    let mut frames = 0u64;
    let mut completed = 0u64;
    let mut slo_firings = 0u64;
    let mut max_burn = 0.0f64;
    for report in reports {
        let status = report.monitor.status();
        for (total, n) in severity.iter_mut().zip(status.severity_counts) {
            *total += n;
        }
        frames += report.recorder.snapshot().frames;
        if report.completed() {
            completed += 1;
        }
        if let Some(continuous) = &report.continuous {
            let cs = continuous.status();
            slo_firings += cs.slo.total_fired();
            max_burn = max_burn.max(cs.slo.max_burn_rate());
        }
    }

    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"sessions\": {},\n", reports.len()));
    out.push_str(&format!("  \"completed\": {completed},\n"));
    out.push_str(&format!(
        "  \"failed\": {},\n",
        reports.len() as u64 - completed
    ));
    out.push_str(&format!("  \"frames\": {frames},\n"));
    out.push_str(&format!(
        "  \"alerts\": {{\"info\": {}, \"warning\": {}, \"critical\": {}}},\n",
        severity[0], severity[1], severity[2]
    ));
    out.push_str(&format!(
        "  \"slo\": {{\"firings\": {slo_firings}, \"max_burn_rate\": {}}},\n",
        json::number(max_burn)
    ));

    // The merged fleet profile's one-line verdict: where the fleet's
    // cycles go, fleet-wide.
    let fleet = fleet_profile(reports);
    let fleet_dominant = match fleet.dominant_frame() {
        Some((frame, share)) => format!(
            "{{\"frame\": {}, \"share\": {}}}",
            json::string(&frame),
            json::number(share)
        ),
        None => "null".to_string(),
    };
    out.push_str(&format!(
        "  \"profile\": {{\"total_cycles\": {}, \"frames\": {}, \"dominant\": {fleet_dominant}}},\n",
        fleet.total_cycles(),
        fleet.frames
    ));

    out.push_str("  \"worst\": [\n");
    let rows = worst_sessions(reports, k);
    for (i, row) in rows.iter().enumerate() {
        let r = row.report;
        let status = r.monitor.status();
        out.push_str("    {\n");
        out.push_str(&format!("      \"session\": {},\n", r.spec.id));
        out.push_str(&format!(
            "      \"pipeline\": {},\n",
            json::string(r.spec.task.label())
        ));
        out.push_str(&format!("      \"score\": {},\n", json::number(row.score)));
        out.push_str(&format!(
            "      \"alerts\": {{\"info\": {}, \"warning\": {}, \"critical\": {}}},\n",
            status.severity_counts[0], status.severity_counts[1], status.severity_counts[2]
        ));
        out.push_str(&format!("      \"p99_ns\": {},\n", worst_p99_ns(r)));
        let dominant = match &row.dominant {
            Some((frame, share)) => format!(
                "{{\"frame\": {}, \"share\": {}}}",
                json::string(frame),
                json::number(*share)
            ),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "      \"profile\": {{\"dominant\": {dominant}, \"divergence\": {}}},\n",
            json::number(row.divergence)
        ));
        match &r.continuous {
            Some(continuous) => {
                let cs = continuous.status();
                let mut burns = Vec::new();
                for (name, state) in &cs.slo.objectives {
                    let burn = state.burn_rate[0].max(state.burn_rate[1]);
                    let fired = state.fired[0] + state.fired[1];
                    if burn > 0.0 || fired > 0 {
                        burns.push(format!(
                            "{{\"objective\": {}, \"burn_rate\": {}, \"firings\": {fired}}}",
                            json::string(name),
                            json::number(burn)
                        ));
                    }
                }
                out.push_str(&format!("      \"slo\": [{}],\n", burns.join(", ")));
            }
            None => out.push_str("      \"slo\": null,\n"),
        }
        match status.worst_window {
            Some((frame, mw)) => out.push_str(&format!(
                "      \"worst_window\": {{\"frame\": {frame}, \"mw\": {}}},\n",
                json::number(mw)
            )),
            None => out.push_str("      \"worst_window\": null,\n"),
        }
        match &r.error {
            Some(e) => out.push_str(&format!("      \"error\": {},\n", json::string(e))),
            None => out.push_str("      \"error\": null,\n"),
        }
        // The flight recorder's dump is already a JSON object; embed it
        // verbatim so nested fields stay queryable.
        match r.monitor.postmortem() {
            Some(pm) => out.push_str(&format!("      \"postmortem\": {pm}\n")),
            None => out.push_str("      \"postmortem\": null\n"),
        }
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");

    out.push_str("  \"exemplars\": [\n");
    let traces = exemplar::collect(reports);
    for (i, t) in traces.iter().enumerate() {
        let dominant = match &t.dominant {
            Some((label, fraction)) => format!(
                "{{\"hop\": {}, \"fraction\": {}}}",
                json::string(label),
                json::number(*fraction)
            ),
            None => "null".to_string(),
        };
        // Cross-link the traced session's profile verdict: the exemplar
        // explains one frame's latency, the profile says whether that
        // session's aggregate attribution agrees.
        let profile_dominant = reports
            .iter()
            .find(|r| r.spec.id == t.session)
            .and_then(|r| r.profile.as_ref())
            .and_then(|p| p.dominant_frame())
            .map_or("null".to_string(), |(frame, share)| {
                format!(
                    "{{\"frame\": {}, \"share\": {}}}",
                    json::string(&frame),
                    json::number(share)
                )
            });
        out.push_str(&format!(
            "    {{\"session\": {}, \"pipeline\": {}, \"frame\": {}, \"end_to_end_ns\": {}, \"dominant\": {dominant}, \"profile_dominant\": {profile_dominant}}}{}\n",
            t.session,
            json::string(t.pipeline),
            t.root_frame,
            t.end_to_end_ns,
            if i + 1 == traces.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{FleetConfig, SessionSpec};

    #[test]
    fn triage_is_valid_json_and_ranks_tripped_sessions_first() {
        // Starve the budget so every session raises critical power alerts
        // and latches a post-mortem.
        let config = FleetConfig::default()
            .frames_per_session(400)
            .budget_mw(0.0001);
        let specs = SessionSpec::mixed(4, &config);
        let registry = crate::run(specs, &config).unwrap();
        let reports = registry.into_reports();
        let doc = render_triage(&reports, 2);

        let value = json::parse(&doc).expect("triage must parse");
        assert_eq!(value.get("sessions").and_then(|v| v.as_u64()), Some(4));
        let worst = value
            .get("worst")
            .and_then(|v| v.as_array())
            .expect("worst array");
        assert_eq!(worst.len(), 2);
        // Every starved session latched a post-mortem, so the embedded
        // dump must be a JSON object, not null.
        for row in worst {
            assert!(row.get("postmortem").is_some());
            assert!(
                row.get("postmortem")
                    .and_then(|p| p.get("reason"))
                    .is_some()
                    || row
                        .get("postmortem")
                        .and_then(|p| p.get("alerts"))
                        .is_some(),
                "postmortem should be embedded verbatim"
            );
        }
    }

    #[test]
    fn healthy_fleet_triage_orders_by_tail_latency() {
        let config = FleetConfig::default().frames_per_session(300);
        let specs = SessionSpec::mixed(6, &config);
        let registry = crate::run(specs, &config).unwrap();
        let reports = registry.into_reports();
        let rows = worst_sessions(&reports, 6);
        assert!(rows.windows(2).all(|w| w[0].score >= w[1].score));
        // No alerts expected under the real 15 mW envelope.
        assert!(rows.iter().all(|r| r.score < 1e6));
        let doc = render_triage(&reports, 3);
        json::parse(&doc).expect("triage must parse");
    }
}
