//! Sharded fleet registry and the merged telemetry rollup.
//!
//! Workers admit finished sessions concurrently, so reports land in a
//! sharded [`FleetRegistry`] (lock contention scales with shard count,
//! not fleet size). The rollup side is pure: [`FleetRollup::from_reports`]
//! reads each session's live handles once into a [`SessionDigest`] and
//! merges per-session counters, log-bucket latency histograms (exact
//! bucket-wise merge via [`LogHistogram::merge`]), power totals and cycle
//! profiles. The exposition and the triage document render from that
//! rollup alone: [`render_exposition`] turns it into one Prometheus text
//! exposition carrying both pre-aggregated `halo_fleet_*` families and
//! per-session series labeled `session`/`pipeline`.

use std::sync::Mutex;

use halo_telemetry::expose::{escape_label, sample, Exposition};
use halo_telemetry::{
    CycleProfile, HealthStatus, HistogramSummary, LogHistogram, Severity, SloStatus,
};

use crate::session::SessionReport;

/// Concurrent collection point for finished sessions.
#[derive(Debug)]
pub struct FleetRegistry {
    shards: Vec<Mutex<Vec<SessionReport>>>,
}

impl FleetRegistry {
    /// A registry with `shards` independent completion buckets.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Admits one finished session (shard chosen by session id).
    pub fn admit(&self, report: SessionReport) {
        let shard = (report.spec.id % self.shards.len() as u64) as usize;
        self.shards[shard].lock().unwrap().push(report);
    }

    /// Sessions admitted so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no session has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every shard into one list ordered by session id.
    pub fn into_reports(self) -> Vec<SessionReport> {
        let mut out = Vec::new();
        for shard in self.shards {
            out.append(&mut shard.into_inner().unwrap());
        }
        out.sort_by_key(|r| r.spec.id);
        out
    }
}

/// Per-pipeline slice of the fleet rollup.
#[derive(Debug, Default)]
pub struct PipelineRollup {
    /// Pipeline display label.
    pub pipeline: &'static str,
    /// Sessions configured into this pipeline.
    pub sessions: u64,
    /// Frames streamed across those sessions.
    pub frames: u64,
    /// Radio bytes across those sessions.
    pub radio_bytes: u64,
    /// Summed modeled device power, milliwatts.
    pub device_mw: f64,
    /// Merged end-to-end frame-latency histogram.
    pub latency: LogHistogram,
}

/// One finished session as the fleet reports see it: what
/// [`FleetRollup::from_reports`] read from its live handles, once.
#[derive(Debug)]
pub struct SessionDigest<'a> {
    /// The session's report (spec, error, profile, post-mortem).
    pub report: &'a SessionReport,
    /// Frames ingested, from the recorder.
    pub frames: u64,
    /// Radio bytes transmitted, from the recorder.
    pub radio_bytes: u64,
    /// The watchdog's alert counts and worst power window.
    pub health: HealthStatus,
    /// SLO burn-rate state, when the session ran a continuous layer.
    pub slo: Option<SloStatus>,
    /// Frame latency merged over the session's pipelines.
    pub latency: HistogramSummary,
    /// Largest per-pipeline p99 frame latency, nanoseconds.
    pub worst_p99_ns: u64,
    /// The session profile's dominant frame and its cycle share.
    pub dominant: Option<(String, f64)>,
}

/// Fleet-wide aggregation of every session report. The triage side
/// ([`FleetRollup::render_triage`], [`FleetRollup::worst_sessions`])
/// lives in [`crate::triage`].
#[derive(Debug, Default)]
pub struct FleetRollup<'a> {
    /// Sessions in the fleet.
    pub sessions: u64,
    /// Sessions that finalized cleanly.
    pub completed: u64,
    /// Sessions that ended in an error.
    pub failed: u64,
    /// Total frames streamed (sum of per-session recorder counters).
    pub frames: u64,
    /// Total radio bytes.
    pub radio_bytes: u64,
    /// Total NoC bytes.
    pub noc_bytes: u64,
    /// Alert totals indexed by [`Severity`] as usize.
    pub severity_counts: [u64; 3],
    /// SLO burn-rate firing transitions across the fleet.
    pub slo_firings: u64,
    /// Worst current SLO burn rate of any session.
    pub max_burn_rate: f64,
    /// Summed modeled device power, milliwatts.
    pub device_mw: f64,
    /// Summed modeled processing power, milliwatts.
    pub processing_mw: f64,
    /// Merged frame-latency histogram across every session and pipeline.
    pub latency: LogHistogram,
    /// Per-pipeline slices in first-seen (session-id) order.
    pub pipelines: Vec<PipelineRollup>,
    /// Exemplar frames tagged for tracing across the fleet.
    pub traces_sampled: u64,
    /// Exemplar traces completed across the fleet.
    pub traces_completed: u64,
    /// Every session's cycle profile merged (see [`fleet_profile`]).
    pub profile: CycleProfile,
    /// One digest per session, in session-id order.
    pub digests: Vec<SessionDigest<'a>>,
}

impl<'a> FleetRollup<'a> {
    /// Aggregates `reports` (any order; grouping is by session id order).
    /// This is the one place the fleet reports read a session's recorder,
    /// watchdog status, SLO status and latency histograms.
    pub fn from_reports(reports: &'a [SessionReport]) -> FleetRollup<'a> {
        let mut ordered: Vec<&SessionReport> = reports.iter().collect();
        ordered.sort_by_key(|r| r.spec.id);

        let mut rollup = FleetRollup {
            sessions: ordered.len() as u64,
            profile: fleet_profile(reports),
            digests: Vec::with_capacity(ordered.len()),
            ..FleetRollup::default()
        };
        for report in ordered {
            if report.completed() {
                rollup.completed += 1;
            } else {
                rollup.failed += 1;
            }
            let snap = report.recorder.snapshot();
            rollup.frames += snap.frames;
            rollup.radio_bytes += snap.radio_bytes;
            rollup.noc_bytes += snap.noc_bytes();
            let health = report.monitor.status();
            for (total, n) in rollup
                .severity_counts
                .iter_mut()
                .zip(health.severity_counts)
            {
                *total += n;
            }
            let slo = report.continuous.as_ref().map(|c| c.status().slo);
            if let Some(slo) = &slo {
                rollup.slo_firings += slo.total_fired();
                rollup.max_burn_rate = rollup.max_burn_rate.max(slo.max_burn_rate());
            }
            rollup.device_mw += report.device_mw;
            rollup.processing_mw += report.processing_mw;
            let stats = report.tracer.stats();
            rollup.traces_sampled += stats.sampled;
            rollup.traces_completed += stats.completed;

            let label = report.spec.task.label();
            let slot = match rollup.pipelines.iter().position(|p| p.pipeline == label) {
                Some(i) => i,
                None => {
                    rollup.pipelines.push(PipelineRollup {
                        pipeline: label,
                        ..PipelineRollup::default()
                    });
                    rollup.pipelines.len() - 1
                }
            };
            let slice = &mut rollup.pipelines[slot];
            slice.sessions += 1;
            slice.frames += snap.frames;
            slice.radio_bytes += snap.radio_bytes;
            slice.device_mw += report.device_mw;
            let mut latency = LogHistogram::new();
            let mut worst_p99_ns = 0;
            for (_, hist) in report.recorder.pipeline_histograms() {
                worst_p99_ns = worst_p99_ns.max(hist.percentile(99.0));
                latency.merge(&hist);
                slice.latency.merge(&hist);
                rollup.latency.merge(&hist);
            }
            rollup.digests.push(SessionDigest {
                report,
                frames: snap.frames,
                radio_bytes: snap.radio_bytes,
                health,
                slo,
                latency: latency.summary(),
                worst_p99_ns,
                dominant: report.profile.as_ref().and_then(|p| p.dominant_frame()),
            });
        }
        rollup
    }

    /// The digest of session `id`, if it is in the fleet.
    pub(crate) fn digest(&self, id: u64) -> Option<&SessionDigest<'a>> {
        let i = self.digests.partition_point(|d| d.report.spec.id < id);
        self.digests.get(i).filter(|d| d.report.spec.id == id)
    }

    /// Renders the fleet as one Prometheus text exposition: pre-aggregated
    /// `halo_fleet_*` families first, then per-session series labeled
    /// `session="<id>",pipeline="<label>"`, then the merged fleet
    /// flamegraph as `halo_profile_*` families rooted at
    /// `device="fleet"`. Everything is in insertion or session-id order,
    /// so the render is byte-stable at any worker count.
    pub fn render_exposition(&self) -> String {
        let mut e = Exposition::new();

        e.family(
            "halo_fleet_sessions",
            "gauge",
            "Patient sessions in the fleet.",
        );
        e.value("halo_fleet_sessions", "", self.sessions);
        e.family(
            "halo_fleet_sessions_completed",
            "gauge",
            "Sessions whose stream finalized cleanly.",
        );
        e.value("halo_fleet_sessions_completed", "", self.completed);
        e.family(
            "halo_fleet_sessions_failed",
            "gauge",
            "Sessions that ended in a runtime error.",
        );
        e.value("halo_fleet_sessions_failed", "", self.failed);

        e.family(
            "halo_fleet_frames_total",
            "counter",
            "Sample frames ingested across every session.",
        );
        e.value("halo_fleet_frames_total", "", self.frames);
        e.family(
            "halo_fleet_radio_bytes_total",
            "counter",
            "Radio bytes transmitted across every session.",
        );
        e.value("halo_fleet_radio_bytes_total", "", self.radio_bytes);
        e.family(
            "halo_fleet_noc_bytes_total",
            "counter",
            "NoC bytes moved across every session.",
        );
        e.value("halo_fleet_noc_bytes_total", "", self.noc_bytes);

        e.family(
            "halo_fleet_alerts_total",
            "counter",
            "Watchdog alerts raised across the fleet, by severity.",
        );
        for sev in SEVERITIES {
            e.value(
                "halo_fleet_alerts_total",
                &format!("severity=\"{}\"", sev.label()),
                self.severity_counts[sev as usize],
            );
        }

        e.family(
            "halo_fleet_power_mw",
            "gauge",
            "Summed modeled whole-device power across the fleet, milliwatts.",
        );
        e.value("halo_fleet_power_mw", "", sample(self.device_mw));
        e.family(
            "halo_fleet_processing_power_mw",
            "gauge",
            "Summed modeled processing power across the fleet, milliwatts.",
        );
        e.value(
            "halo_fleet_processing_power_mw",
            "",
            sample(self.processing_mw),
        );

        e.family(
            "halo_fleet_frame_latency_ns",
            "histogram",
            "End-to-end frame latency merged across every session, nanoseconds.",
        );
        e.histogram("halo_fleet_frame_latency_ns", "", &self.latency);

        e.family(
            "halo_fleet_frame_latency_quantile_ns",
            "gauge",
            "Per-pipeline fleet frame-latency quantiles, nanoseconds.",
        );
        for p in &self.pipelines {
            e.quantiles(
                "halo_fleet_frame_latency_quantile_ns",
                &format!("pipeline=\"{}\"", escape_label(p.pipeline)),
                &p.latency.summary(),
            );
        }

        e.family(
            "halo_fleet_traces_sampled_total",
            "counter",
            "Frames tagged for exemplar tracing across the fleet.",
        );
        e.value("halo_fleet_traces_sampled_total", "", self.traces_sampled);
        e.family(
            "halo_fleet_traces_completed_total",
            "counter",
            "Exemplar span trees completed across the fleet.",
        );
        e.value(
            "halo_fleet_traces_completed_total",
            "",
            self.traces_completed,
        );

        // --- Per-session series ---
        let labels: Vec<String> = self.digests.iter().map(session_labels).collect();
        e.family(
            "halo_session_up",
            "gauge",
            "1 when the session finalized cleanly, 0 when it failed.",
        );
        for (d, l) in self.digests.iter().zip(&labels) {
            e.value("halo_session_up", l, u64::from(d.report.completed()));
        }
        e.family(
            "halo_session_frames_total",
            "counter",
            "Sample frames ingested per session.",
        );
        for (d, l) in self.digests.iter().zip(&labels) {
            e.value("halo_session_frames_total", l, d.frames);
        }
        e.family(
            "halo_session_radio_bytes_total",
            "counter",
            "Radio bytes transmitted per session.",
        );
        for (d, l) in self.digests.iter().zip(&labels) {
            e.value("halo_session_radio_bytes_total", l, d.radio_bytes);
        }
        e.family(
            "halo_session_power_mw",
            "gauge",
            "Modeled whole-device power per session, milliwatts.",
        );
        for (d, l) in self.digests.iter().zip(&labels) {
            e.value("halo_session_power_mw", l, sample(d.report.device_mw));
        }
        e.family(
            "halo_session_alerts_total",
            "counter",
            "Watchdog alerts per session, by severity.",
        );
        for d in &self.digests {
            for sev in SEVERITIES {
                e.value(
                    "halo_session_alerts_total",
                    &format!(
                        "session=\"{}\",severity=\"{}\"",
                        d.report.spec.id,
                        sev.label()
                    ),
                    d.health.severity_counts[sev as usize],
                );
            }
        }
        e.family(
            "halo_session_frame_latency_ns",
            "gauge",
            "Per-session end-to-end frame-latency quantiles, nanoseconds.",
        );
        for (d, l) in self.digests.iter().zip(&labels) {
            e.quantiles("halo_session_frame_latency_ns", l, &d.latency);
        }

        self.profile.render_exposition_into(&mut e);
        e.finish()
    }
}

const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

/// Renders the fleet as one Prometheus text exposition; see
/// [`FleetRollup::render_exposition`]. Output over the same reports is
/// byte-identical.
pub fn render_exposition(reports: &[SessionReport]) -> String {
    FleetRollup::from_reports(reports).render_exposition()
}

/// Merges every session's cycle profile into one fleet-rooted
/// [`CycleProfile`] (device `"fleet"`). Sessions without a profile (none,
/// in a stock fleet) contribute nothing; merge order is session-id order,
/// so the summed energies are byte-stable across worker counts.
pub fn fleet_profile(reports: &[SessionReport]) -> CycleProfile {
    let mut ordered: Vec<&SessionReport> = reports.iter().collect();
    ordered.sort_by_key(|r| r.spec.id);
    let mut fleet = CycleProfile::new("fleet");
    for profile in ordered.iter().filter_map(|r| r.profile.as_ref()) {
        fleet.merge(profile);
    }
    fleet
}

fn session_labels(session: &SessionDigest) -> String {
    format!(
        "session=\"{}\",pipeline=\"{}\"",
        session.report.spec.id,
        escape_label(session.report.spec.task.label())
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_orders_reports_by_id() {
        let config = crate::FleetConfig::default().frames_per_session(120);
        let mut specs = crate::SessionSpec::mixed(5, &config);
        specs.reverse(); // admit out of order
        let registry = crate::run(specs, &config).unwrap();
        let reports = registry.into_reports();
        let ids: Vec<u64> = reports.iter().map(|r| r.spec.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
