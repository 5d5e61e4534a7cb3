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
//! end to end). Everything but the post-mortems and the exemplar span
//! trees comes from the [`FleetRollup`]'s per-session digests.

use halo_telemetry::{json, CycleProfile};

use crate::exemplar;
use crate::registry::{FleetRollup, SessionDigest};
use crate::session::SessionReport;

/// One scored row of the triage table.
#[derive(Debug)]
pub struct TriageRow<'a> {
    /// The session under triage.
    pub session: &'a SessionDigest<'a>,
    /// Composite badness score (higher = worse); see [`score`] — plus the
    /// profile-divergence term added by [`FleetRollup::worst_sessions`].
    pub score: f64,
    /// How far the session's cycle attribution sits from the fleet norm
    /// for its pipeline (max absolute share delta over its frames).
    pub divergence: f64,
}

/// Composite badness: a runtime error or critical alert is always worse
/// than any number of warnings, which in turn dominate tail latency. The
/// p99 term (in microseconds) breaks ties between healthy sessions so the
/// triage table stays fully ordered and deterministic.
pub fn score(session: &SessionDigest) -> f64 {
    let [_, warning, critical] = session.health.severity_counts.map(|n| n as f64);
    let error = session.report.error.as_ref().map_or(0.0, |_| 1.0);
    let p99_us = session.worst_p99_ns as f64 / 1e3;
    (critical + error) * 1e9 + warning * 1e6 + p99_us
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

/// `{"info": …, "warning": …, "critical": …}` for alert totals.
fn alerts_json(counts: [u64; 3]) -> String {
    format!(
        "{{\"info\": {}, \"warning\": {}, \"critical\": {}}}",
        counts[0], counts[1], counts[2]
    )
}

/// `{"frame": …, "share": …}` for a profile's dominant frame, or `null`.
fn dominant_json(dominant: Option<&(String, f64)>) -> String {
    dominant.map_or("null".to_string(), |(frame, share)| {
        format!(
            "{{\"frame\": {}, \"share\": {}}}",
            json::string(frame),
            json::number(*share)
        )
    })
}

impl FleetRollup<'_> {
    /// Scores every session and returns the `k` worst, worst first. The
    /// profile-divergence term (scaled to stay below one warning alert)
    /// ranks attribution outliers above merely slow sessions, without
    /// ever outranking a real alert. Ties break toward the lower session
    /// id so the ordering is total.
    pub fn worst_sessions(&self, k: usize) -> Vec<TriageRow<'_>> {
        let mut rows: Vec<TriageRow> = self
            .digests
            .iter()
            .map(|session| {
                let divergence = profile_divergence(session.report, &self.profile);
                TriageRow {
                    session,
                    score: score(session) + divergence * 1e4,
                    divergence,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.session.report.spec.id.cmp(&b.session.report.spec.id))
        });
        rows.truncate(k);
        rows
    }

    /// Renders the fleet triage document: totals, the top-`k` worst
    /// sessions, offending sessions' embedded post-mortems, and the
    /// exemplar-trace digest. The output is valid JSON (checked by tests
    /// with [`json::parse`]).
    pub fn render_triage(&self, k: usize) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"sessions\": {},\n", self.sessions));
        out.push_str(&format!("  \"completed\": {},\n", self.completed));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!("  \"frames\": {},\n", self.frames));
        out.push_str(&format!(
            "  \"alerts\": {},\n",
            alerts_json(self.severity_counts)
        ));
        out.push_str(&format!(
            "  \"slo\": {{\"firings\": {}, \"max_burn_rate\": {}}},\n",
            self.slo_firings,
            json::number(self.max_burn_rate)
        ));
        // The merged fleet profile's one-line verdict: where the fleet's
        // cycles go, fleet-wide.
        out.push_str(&format!(
            "  \"profile\": {{\"total_cycles\": {}, \"frames\": {}, \"dominant\": {}}},\n",
            self.profile.total_cycles(),
            self.profile.frames,
            dominant_json(self.profile.dominant_frame().as_ref())
        ));

        out.push_str("  \"worst\": [\n");
        let rows = self.worst_sessions(k);
        for (i, row) in rows.iter().enumerate() {
            let (d, r) = (row.session, row.session.report);
            out.push_str("    {\n");
            out.push_str(&format!("      \"session\": {},\n", r.spec.id));
            out.push_str(&format!(
                "      \"pipeline\": {},\n",
                json::string(r.spec.task.label())
            ));
            out.push_str(&format!("      \"score\": {},\n", json::number(row.score)));
            out.push_str(&format!(
                "      \"alerts\": {},\n",
                alerts_json(d.health.severity_counts)
            ));
            out.push_str(&format!("      \"p99_ns\": {},\n", d.worst_p99_ns));
            out.push_str(&format!(
                "      \"profile\": {{\"dominant\": {}, \"divergence\": {}}},\n",
                dominant_json(d.dominant.as_ref()),
                json::number(row.divergence)
            ));
            match &d.slo {
                Some(slo) => {
                    let mut burns = Vec::new();
                    for (name, state) in &slo.objectives {
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
            match d.health.worst_window {
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
            // The flight recorder's dump is already a JSON object; embed
            // it verbatim so nested fields stay queryable. Only the rows
            // shown read it, so it stays out of the digest.
            let pm = r.monitor.postmortem().unwrap_or_else(|| "null".to_string());
            out.push_str(&format!("      \"postmortem\": {pm}\n    }}"));
            out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n");

        out.push_str("  \"exemplars\": [\n");
        let traces = exemplar::collect(self.digests.iter().map(|d| d.report));
        for (i, t) in traces.iter().enumerate() {
            let dominant = match &t.dominant {
                Some((label, fraction)) => format!(
                    "{{\"hop\": {}, \"fraction\": {}}}",
                    json::string(label),
                    json::number(*fraction)
                ),
                None => "null".to_string(),
            };
            // Cross-link the traced session's profile verdict: the
            // exemplar explains one frame's latency, the profile says
            // whether that session's aggregate attribution agrees.
            let profile_dominant =
                dominant_json(self.digest(t.session).and_then(|d| d.dominant.as_ref()));
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
}

/// Renders the fleet triage document over `reports`, reading each
/// session once through a [`FleetRollup`]; see
/// [`FleetRollup::render_triage`].
pub fn render_triage(reports: &[SessionReport], k: usize) -> String {
    FleetRollup::from_reports(reports).render_triage(k)
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
        let rollup = FleetRollup::from_reports(&reports);
        let rows = rollup.worst_sessions(6);
        assert!(rows.windows(2).all(|w| w[0].score >= w[1].score));
        // No alerts expected under the real 15 mW envelope.
        assert!(rows.iter().all(|r| r.score < 1e6));
        let doc = render_triage(&reports, 3);
        json::parse(&doc).expect("triage must parse");
    }
}
