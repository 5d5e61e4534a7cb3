//! Seeded fleet-wide chaos campaigns.
//!
//! A campaign runs N independent [`ChaosSession`]s concurrently — each
//! with its own pipeline, fault plan, and synthetic patient — and rolls
//! the verdicts into one triage document: per-session outcome
//! (recovered / degraded / dead), fleet totals, ARQ counters, and the
//! in-place fabric repairs. Every per-session seed derives from the
//! single campaign seed, so the same seed replays the same schedules
//! and the same triage JSON bit-for-bit, regardless of worker count.
//!
//! The triage document records only whether each session's flight
//! recorder latched a post-mortem; [`CampaignSessionReport::postmortem`]
//! hands the full dump to callers (the `fault_campaign` example writes
//! them as sibling artifacts). Every latency a post-mortem carries is
//! modelled from cycles, so the dumps are as bit-stable as the triage.

use halo_core::Task;
use halo_faults::{ChaosConfig, ChaosReport, ChaosSession, Outcome};
use halo_signal::SimRng;
use halo_telemetry::json;

use crate::scheduler::resolve_threads;

/// Configuration for one chaos campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every per-session plan and recording seed derives
    /// from it.
    pub seed: u64,
    /// Number of concurrent sessions. Pipelines round-robin over
    /// [`Task::all`].
    pub sessions: usize,
    /// Electrode channels per session.
    pub channels: usize,
    /// Stream length per session, in milliseconds of biological time.
    pub duration_ms: usize,
    /// Frames per scheduler batch.
    pub batch_frames: usize,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Rogue MMIO switch words per session.
    pub rogue_mmio: u32,
    /// NoC link-degradation faults per session.
    pub link_faults: u32,
    /// Give every k-th session a brownout window (0 = never).
    pub brownout_every: usize,
    /// Brownout window length in frames.
    pub brownout_frames: u64,
    /// Radio frame drop probability, per mille.
    pub radio_drop_permille: u32,
    /// Radio frame corruption probability, per mille.
    pub radio_corrupt_permille: u32,
    /// Raw bytes per compression block (small blocks frame radio
    /// traffic mid-stream, exercising the ARQ link).
    pub block_bytes: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0x000F_1EE7,
            sessions: 8,
            channels: 4,
            duration_ms: 40,
            batch_frames: 32,
            threads: 0,
            rogue_mmio: 1,
            link_faults: 1,
            brownout_every: 4,
            brownout_frames: 256,
            radio_drop_permille: 150,
            radio_corrupt_permille: 80,
            block_bytes: 512,
        }
    }
}

impl CampaignConfig {
    /// Sets the campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the session count.
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Sets the per-session stream length in milliseconds.
    pub fn duration_ms(mut self, ms: usize) -> Self {
        self.duration_ms = ms;
        self
    }

    /// Sets the worker-thread count (0 = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builds the per-session chaos configs. Deterministic: session `i`
    /// always receives the same pipeline and seeds for a given campaign
    /// seed, independent of thread count.
    pub fn session_configs(&self) -> Vec<ChaosConfig> {
        let tasks = Task::all();
        let mut rng = SimRng::new(self.seed);
        (0..self.sessions)
            .map(|i| {
                let plan_seed = rng.next_u64();
                let recording_seed = rng.next_u64();
                let mut cfg = ChaosConfig::new(tasks[i % tasks.len()]);
                cfg.channels = self.channels;
                cfg.duration_ms = self.duration_ms;
                cfg.batch_frames = self.batch_frames;
                cfg.block_bytes = self.block_bytes;
                cfg.recording_seed = recording_seed;
                cfg.plan.seed = plan_seed;
                cfg.plan.rogue_mmio = self.rogue_mmio;
                cfg.plan.link_faults = self.link_faults;
                cfg.plan.radio_drop_permille = self.radio_drop_permille;
                cfg.plan.radio_corrupt_permille = self.radio_corrupt_permille;
                cfg.plan.brownouts =
                    if self.brownout_every > 0 && (i + 1) % self.brownout_every == 0 {
                        1
                    } else {
                        0
                    };
                cfg.plan.brownout_frames = self.brownout_frames;
                cfg
            })
            .collect()
    }
}

/// One campaign session's verdict.
#[derive(Debug)]
pub struct CampaignSessionReport {
    /// Campaign-wide session index.
    pub id: usize,
    /// The session's configuration (pipeline, seeds, plan parameters).
    pub config: ChaosConfig,
    /// The chaos report, or the setup error that prevented the run.
    pub report: Result<ChaosReport, String>,
}

impl CampaignSessionReport {
    /// The session's outcome; a setup failure counts as dead.
    pub fn outcome(&self) -> Outcome {
        match &self.report {
            Ok(r) => r.outcome,
            Err(_) => Outcome::Dead,
        }
    }

    /// The latched flight-recorder post-mortem, if any. Its latencies are
    /// modelled from cycles, so it replays bit-for-bit like the triage
    /// JSON; write it as a sibling artifact next to it.
    pub fn postmortem(&self) -> Option<&str> {
        self.report
            .as_ref()
            .ok()
            .and_then(|r| r.postmortem.as_deref())
    }
}

/// Runs the campaign: N chaos sessions striped across worker threads.
/// Results come back indexed by session id, so the report order (and
/// the rendered triage) is identical for any thread count. A panicking
/// worker never takes the campaign down: its unfinished sessions are
/// marked dead with synthetic error reports and every other stripe's
/// verdicts stand.
pub fn run_campaign(config: &CampaignConfig) -> Vec<CampaignSessionReport> {
    run_campaign_with(config, |cfg| {
        ChaosSession::new(cfg).run().map_err(|e| e.to_string())
    })
}

/// [`run_campaign`] with the per-session runner injected — the seam the
/// worker-panic regression test uses to crash one stripe on purpose.
fn run_campaign_with(
    config: &CampaignConfig,
    runner: impl Fn(ChaosConfig) -> Result<ChaosReport, String> + Sync,
) -> Vec<CampaignSessionReport> {
    let configs = config.session_configs();
    let threads = resolve_threads(config.threads).max(1);
    let mut slots: Vec<Option<CampaignSessionReport>> = Vec::new();
    slots.resize_with(configs.len(), || None);
    let runner = &runner;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let stripe: Vec<(usize, ChaosConfig)> = configs
                .iter()
                .enumerate()
                .skip(t)
                .step_by(threads)
                .map(|(i, c)| (i, c.clone()))
                .collect();
            handles.push(scope.spawn(move || {
                stripe
                    .into_iter()
                    .map(|(id, cfg)| {
                        let report = runner(cfg.clone());
                        CampaignSessionReport {
                            id,
                            config: cfg,
                            report,
                        }
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(reports) => {
                    for report in reports {
                        let id = report.id;
                        slots[id] = Some(report);
                    }
                }
                Err(payload) => {
                    // The worker died mid-stripe. Every session it never
                    // delivered gets a synthetic dead report carrying the
                    // panic message, filled in below once all surviving
                    // stripes have landed their results.
                    let reason = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic".to_string());
                    for (id, slot) in slots.iter_mut().enumerate() {
                        if slot.is_none() {
                            *slot = Some(CampaignSessionReport {
                                id,
                                config: configs[id].clone(),
                                report: Err(format!("campaign worker panicked: {reason}")),
                            });
                        }
                    }
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every session produces a report"))
        .collect()
}

/// Fleet outcome totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTotals {
    /// Sessions byte-identical to their fault-free reference.
    pub recovered: usize,
    /// Sessions that survived with a degraded marker.
    pub degraded: usize,
    /// Sessions that could not recover (or silently diverged).
    pub dead: usize,
}

/// Tallies outcomes across the campaign.
pub fn totals(reports: &[CampaignSessionReport]) -> CampaignTotals {
    let mut t = CampaignTotals::default();
    for r in reports {
        match r.outcome() {
            Outcome::Recovered => t.recovered += 1,
            Outcome::Degraded => t.degraded += 1,
            Outcome::Dead => t.dead += 1,
        }
    }
    t
}

fn hex64(v: u64) -> String {
    json::string(&format!("{v:#018x}"))
}

/// Renders the campaign triage document. Deterministic for a given
/// campaign seed and session count: only seeded quantities appear, so
/// replaying the campaign reproduces this JSON bit-for-bit (checked by
/// tests with [`json::parse`] and a cross-thread-count comparison).
pub fn render_campaign(config: &CampaignConfig, reports: &[CampaignSessionReport]) -> String {
    let t = totals(reports);
    let mut injected = 0usize;
    let mut detected = 0usize;
    let mut fabric_repairs = 0usize;
    let mut arq = [0u64; 6];
    for r in reports.iter().filter_map(|r| r.report.as_ref().ok()) {
        injected += r.faults_injected;
        detected += r.faults_detected;
        fabric_repairs += r.recoveries.len();
        for (slot, v) in arq.iter_mut().zip([
            r.arq.accepted,
            r.arq.retries,
            r.arq.giveups,
            r.arq.crc_rejects,
            r.arq.duplicates,
            r.arq.delivered,
        ]) {
            *slot += v;
        }
    }

    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"campaign_seed\": {},\n", hex64(config.seed)));
    out.push_str(&format!("  \"sessions\": {},\n", reports.len()));
    out.push_str(&format!(
        "  \"outcomes\": {{\"recovered\": {}, \"degraded\": {}, \"dead\": {}}},\n",
        t.recovered, t.degraded, t.dead
    ));
    out.push_str(&format!(
        "  \"faults\": {{\"injected\": {injected}, \"detected\": {detected}}},\n"
    ));
    out.push_str(&format!(
        "  \"recoveries\": {{\"fabric_reprogram\": {fabric_repairs}}},\n"
    ));
    out.push_str(&format!(
        "  \"arq\": {{\"accepted\": {}, \"retries\": {}, \"giveups\": {}, \"crc_rejects\": {}, \"duplicates\": {}, \"delivered\": {}}},\n",
        arq[0], arq[1], arq[2], arq[3], arq[4], arq[5]
    ));

    out.push_str("  \"sessions_detail\": [\n");
    for (i, row) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"session\": {},\n", row.id));
        out.push_str(&format!(
            "      \"pipeline\": {},\n",
            json::string(row.config.task.label())
        ));
        out.push_str(&format!(
            "      \"outcome\": {},\n",
            json::string(row.outcome().label())
        ));
        match &row.report {
            Ok(r) => {
                out.push_str(&format!(
                    "      \"plan_fingerprint\": {},\n",
                    hex64(r.plan_fingerprint)
                ));
                out.push_str(&format!("      \"frames\": {},\n", r.frames));
                out.push_str(&format!(
                    "      \"faults\": {{\"injected\": {}, \"detected\": {}}},\n",
                    r.faults_injected, r.faults_detected
                ));
                out.push_str(&format!("      \"recoveries\": {},\n", r.recoveries.len()));
                out.push_str(&format!(
                    "      \"degraded_frames\": {},\n",
                    r.degraded_frames
                ));
                out.push_str(&format!(
                    "      \"brownout_violations\": {},\n",
                    r.brownout_violations
                ));
                out.push_str(&format!(
                    "      \"arq\": {{\"accepted\": {}, \"retries\": {}, \"giveups\": {}, \"crc_rejects\": {}, \"duplicates\": {}, \"delivered\": {}}},\n",
                    r.arq.accepted,
                    r.arq.retries,
                    r.arq.giveups,
                    r.arq.crc_rejects,
                    r.arq.duplicates,
                    r.arq.delivered
                ));
                out.push_str(&format!("      \"radio_bytes\": {},\n", r.radio_bytes));
                match &r.reason {
                    Some(reason) => {
                        out.push_str(&format!("      \"reason\": {},\n", json::string(reason)))
                    }
                    None => out.push_str("      \"reason\": null,\n"),
                }
                out.push_str(&format!(
                    "      \"postmortem_latched\": {}\n",
                    r.postmortem.is_some()
                ));
            }
            Err(e) => {
                out.push_str(&format!("      \"reason\": {},\n", json::string(e)));
                out.push_str("      \"postmortem_latched\": false\n");
            }
        }
        out.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign() -> CampaignConfig {
        CampaignConfig::default()
            .sessions(4)
            .duration_ms(20)
            .seed(0xCA_F0_0D)
    }

    #[test]
    fn campaign_replays_bit_identically_across_thread_counts() {
        let single = run_campaign(&small_campaign().threads(1));
        let striped = run_campaign(&small_campaign().threads(3));
        let doc_a = render_campaign(&small_campaign(), &single);
        let doc_b = render_campaign(&small_campaign(), &striped);
        assert_eq!(doc_a, doc_b, "triage must replay bit-for-bit");
        json::parse(&doc_a).expect("triage must parse");
        for (a, b) in single.iter().zip(&striped) {
            assert_eq!(a.outcome(), b.outcome());
            let (ra, rb) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
            assert_eq!(ra.plan_fingerprint, rb.plan_fingerprint);
            assert_eq!(ra.recoveries, rb.recoveries);
            assert_eq!(ra.arq, rb.arq);
        }
    }

    #[test]
    fn stock_campaign_ends_recovered_or_degraded() {
        // One session per stock pipeline, with radio loss, rogue MMIO,
        // link degradation, and a brownout in the mix.
        let config = CampaignConfig::default().sessions(8).duration_ms(30);
        let reports = run_campaign(&config);
        let t = totals(&reports);
        assert_eq!(t.dead, 0, "no session may die: {reports:#?}");
        assert!(t.recovered >= 1, "some sessions must fully recover");
        assert_eq!(t.recovered + t.degraded, 8);

        let doc = render_campaign(&config, &reports);
        let value = json::parse(&doc).expect("triage must parse");
        assert_eq!(
            value
                .get("outcomes")
                .and_then(|o| o.get("dead"))
                .and_then(|v| v.as_u64()),
            Some(0)
        );
        let detail = value
            .get("sessions_detail")
            .and_then(|v| v.as_array())
            .expect("sessions_detail array");
        assert_eq!(detail.len(), 8);
        // Any session that detected a fault latched a post-mortem whose
        // dump embeds the recent injected faults (rendered by the
        // health monitor); here we check the latch is reported.
        for (row, report) in detail.iter().zip(&reports) {
            let latched = report.postmortem().is_some();
            if latched {
                assert!(report.postmortem().unwrap().contains("recent_faults"));
            }
            assert_eq!(
                row.get("postmortem_latched").and_then(|v| v.as_bool()),
                Some(latched)
            );
        }
    }

    #[test]
    fn panicked_worker_marks_its_sessions_dead_without_killing_the_campaign() {
        // Striped over 2 threads: sessions 1 and 3 belong to the stripe
        // whose runner panics mid-way. The campaign must still return a
        // report per session, with the panicked stripe's sessions dead
        // (synthetic error reports), the other stripe's verdicts sound,
        // and the rendered triage still valid JSON.
        let config = small_campaign().threads(2);
        // Crash the worker when it reaches session 1 — the first session
        // of stripe 1, so sessions 1 and 3 both go undelivered.
        let crash_seed = config.session_configs()[1].recording_seed;
        let reports = run_campaign_with(&config, move |cfg| {
            if cfg.recording_seed == crash_seed {
                panic!("injected worker crash");
            }
            ChaosSession::new(cfg).run().map_err(|e| e.to_string())
        });
        assert_eq!(reports.len(), 4, "every session must get a report");
        for (id, report) in reports.iter().enumerate() {
            assert_eq!(report.id, id);
        }
        let dead: Vec<usize> = reports
            .iter()
            .filter(|r| r.outcome() == Outcome::Dead)
            .map(|r| r.id)
            .collect();
        assert!(!dead.is_empty(), "the crashed stripe must surface as dead");
        for id in &dead {
            let err = reports[*id].report.as_ref().unwrap_err();
            assert!(
                err.contains("campaign worker panicked") && err.contains("injected worker crash"),
                "synthetic report must carry the panic: {err}"
            );
        }
        // The surviving stripe's sessions ran to a real verdict.
        assert!(
            reports.iter().any(|r| r.report.is_ok()),
            "surviving stripes must keep their verdicts"
        );
        let t = totals(&reports);
        assert_eq!(t.dead, dead.len());
        let doc = render_campaign(&config, &reports);
        json::parse(&doc).expect("triage with dead stripe must still parse");
    }

    #[test]
    fn session_configs_round_robin_tasks_and_vary_seeds() {
        let configs = CampaignConfig::default().sessions(10).session_configs();
        assert_eq!(configs[0].task, Task::all()[0]);
        assert_eq!(configs[8].task, Task::all()[0]);
        assert_ne!(configs[0].plan.seed, configs[1].plan.seed);
        assert_ne!(configs[0].recording_seed, configs[8].recording_seed);
        // Every 4th session carries the brownout.
        assert_eq!(configs[3].plan.brownouts, 1);
        assert_eq!(configs[0].plan.brownouts, 0);
    }
}
