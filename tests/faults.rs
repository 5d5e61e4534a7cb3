//! Fault-injection integration: the chaos machinery must behave
//! identically with the runtime's quiet-frame block dispatch on and
//! off. Every plan fault must be injected at its own frame (the harness
//! splits its batches there), and checkpoint recovery must be
//! byte-identical whichever dispatch mode snapshotted or restored the
//! run. A golden net pins the campaign
//! triage and every latched post-mortem at 1 and 4 workers.

use std::sync::Arc;

use halo::core::runtime::{FaultAction, RuntimeError};
use halo::core::{HaloConfig, HaloSystem, SystemError, Task};
use halo::faults::{ChaosConfig, ChaosSession, Checkpoint, FaultPlan, FaultPlanConfig, Outcome};
use halo::fleet::{campaign, CampaignConfig};
use halo::noc::{Fabric, NodeId, Route};
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::{json, HealthConfig, HealthMonitor, Recorder};

fn chaos_config(task: Task, block_dispatch: bool) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(task);
    cfg.block_dispatch = block_dispatch;
    cfg.block_bytes = 512;
    cfg.plan.data_faults = 4;
    cfg.plan.rogue_mmio = 2;
    cfg.plan.link_faults = 1;
    cfg.plan.radio_drop_permille = 200;
    cfg.plan.radio_corrupt_permille = 100;
    cfg
}

#[test]
fn fault_plan_replays_from_seed() {
    let config = FaultPlanConfig::default();
    let a = FaultPlan::generate(&config);
    let b = FaultPlan::generate(&config);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.schedule, b.schedule);
    let mut other = FaultPlanConfig::default();
    other.seed ^= 1;
    assert_ne!(a.fingerprint(), FaultPlan::generate(&other).fingerprint());
}

/// The pipelines whose sources take quiet chunks run a plan with block
/// dispatch on and off. Every fault inside the stream is injected, and
/// each rogue MMIO word (always detected) is recovered at exactly its
/// scheduled frame, never at a later chunk boundary.
#[test]
fn plan_faults_are_injected_at_their_own_frames_with_dispatch_on_and_off() {
    for task in [
        Task::MovementIntent,
        Task::SeizurePrediction,
        Task::SpikeDetectDwt,
    ] {
        let mut recoveries = Vec::new();
        for block_dispatch in [true, false] {
            let mut cfg = ChaosConfig::new(task);
            cfg.block_dispatch = block_dispatch;
            cfg.plan.data_faults = 3;
            cfg.plan.rogue_mmio = 5;
            cfg.plan.link_faults = 1;
            cfg.plan.radio_drop_permille = 0;
            cfg.plan.radio_corrupt_permille = 0;
            let report = ChaosSession::new(cfg.clone()).run().unwrap();
            assert_eq!(report.outcome, Outcome::Recovered, "{report:?}");

            // The plan the session ran, regenerated from its config.
            let mut plan_cfg = cfg.plan.clone();
            plan_cfg.frames = report.frames;
            plan_cfg.pe_slots = task.pe_kinds().len() as u8;
            let plan = FaultPlan::generate(&plan_cfg);
            assert_eq!(plan.fingerprint(), report.plan_fingerprint);
            assert_eq!(report.faults_injected, plan.schedule.len());
            let mut rogue: Vec<u64> = plan
                .schedule
                .iter()
                .filter(|f| matches!(f.action, FaultAction::RogueMmio { .. }))
                .map(|f| f.frame)
                .collect();
            rogue.dedup();
            let recovered: Vec<u64> = report
                .recoveries
                .iter()
                .filter(|r| r.kind == "rogue_mmio")
                .map(|r| r.frame)
                .collect();
            assert_eq!(
                recovered, rogue,
                "{task:?}, block dispatch {block_dispatch}"
            );
            recoveries.push(report.recoveries);
        }
        assert_eq!(recoveries[0], recoveries[1], "{task:?}");
    }
}

/// The same chaos plan recovers with block dispatch on and off, and
/// both verdicts are strict byte-identity against their references.
#[test]
fn chaos_recovers_with_dispatch_on_and_off() {
    let on = ChaosSession::new(chaos_config(Task::CompressLz4, true))
        .run()
        .unwrap();
    let off = ChaosSession::new(chaos_config(Task::CompressLz4, false))
        .run()
        .unwrap();
    assert_eq!(on.outcome, Outcome::Recovered, "reason: {:?}", on.reason);
    assert_eq!(off.outcome, Outcome::Recovered, "reason: {:?}", off.reason);
    assert_eq!(on.plan_fingerprint, off.plan_fingerprint);
    assert_eq!(on.faults_injected, off.faults_injected);
    assert_eq!(on.faults_detected, off.faults_detected);
}

/// Property: snapshot under one dispatch mode, restore under the other
/// (all four combinations, several seeds) — the resumed outputs must be
/// byte-identical to an uninterrupted reference run.
#[test]
fn checkpoint_recovery_is_byte_identical_across_dispatch_modes() {
    for seed in [3u64, 11, 29] {
        let config = HaloConfig::small_test(2).block_bytes(256);
        let rec = RecordingConfig::new(RegionProfile::arm())
            .channels(2)
            .duration_ms(30)
            .generate(seed);
        let samples = rec.samples();

        let mut reference = HaloSystem::new(Task::CompressLzma, config.clone()).unwrap();
        let expected = reference.process(&rec).unwrap();

        // Seed-varied cut point, aligned to whole frames.
        let cut = {
            let frames = samples.len() / 2;
            let frame = frames / 3 + (seed as usize * 17) % (frames / 3);
            frame * 2
        };
        for snap_dispatch in [true, false] {
            for restore_dispatch in [true, false] {
                let mut first = HaloSystem::new(Task::CompressLzma, config.clone()).unwrap();
                first.set_block_dispatch(snap_dispatch);
                first.push_block(&samples[..cut]).unwrap();
                let ckpt = Checkpoint::snapshot(&first, &samples[..cut]);
                drop(first);

                let mut resumed = ckpt.restore(config.clone(), restore_dispatch).unwrap();
                resumed.push_block(&samples[cut..]).unwrap();
                let got = resumed.finalize().unwrap();
                assert_eq!(
                    got.radio_stream, expected.radio_stream,
                    "seed {seed}: snap={snap_dispatch} restore={restore_dispatch}"
                );
                assert_eq!(got.detections, expected.detections);
                assert_eq!(got.frames, expected.frames);
            }
        }
    }
}

/// FNV-1a over the text, as in `tests/delivery_golden.rs`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pinned `(seed, triage, post-mortems)` digests of a 16-session chaos
/// campaign: the triage document `render_campaign` writes, then each
/// session's latched post-mortem in session order (`None` where none was
/// latched). The first seed is CI's `fault_campaign --sessions 16`.
const CAMPAIGN_GOLDEN: [(u64, u64, [Option<u64>; 16]); 2] = [
    (
        0x000F_1EE7,
        0x4752_66b0_ae8f_ac02,
        [
            Some(0xca6d_3f78_09e4_049f),
            Some(0x2925_9f3b_37ce_0588),
            Some(0x421d_f6c8_f266_3bbf),
            Some(0x76e7_6b57_1a6b_e01c),
            Some(0xcec2_b293_04e2_a1ba),
            Some(0xd02f_de34_26f4_dfc0),
            Some(0x40c3_d6bd_2150_c259),
            Some(0x0025_5687_77d9_5ccf),
            Some(0xa6a7_e053_d088_d58e),
            Some(0x2764_2679_be7f_f017),
            Some(0xe6fb_0796_325d_bc1c),
            Some(0xe373_e43d_be5a_8a12),
            Some(0xe9fb_d19c_3c18_c2d1),
            Some(0x23e6_16d5_ca7b_2645),
            Some(0xd982_2a6a_0cd7_14d4),
            Some(0x4a1b_0bc8_56db_a07c),
        ],
    ),
    (
        7,
        0xdb24_a660_981c_700a,
        [
            Some(0x8d22_f3e8_251b_1304),
            Some(0x8bb9_1059_e664_5ef8),
            Some(0x3e5b_8fd0_8ed6_44ad),
            Some(0x7faf_0044_d18a_7a84),
            Some(0x844b_e401_7ace_a95b),
            Some(0xe99d_9c35_5a19_4c1c),
            Some(0x3837_58b1_2c6b_5572),
            Some(0x3013_2607_281c_11fa),
            Some(0xdffc_81df_f64e_3bfd),
            Some(0x7dcf_609a_1ef5_2f14),
            Some(0x0b1b_9fa7_7c2e_3720),
            Some(0x0bf1_4cd6_6676_0d6f),
            Some(0x26af_727f_8854_1a4b),
            Some(0x50eb_402b_0198_e86e),
            Some(0x2aae_8b81_ada4_b659),
            Some(0x2bf0_0ec4_6498_be3a),
        ],
    ),
];

#[test]
fn campaign_triage_and_postmortems_match_golden_digests_at_any_worker_count() {
    let mut mismatches = Vec::new();
    for (seed, triage, postmortems) in CAMPAIGN_GOLDEN {
        for threads in [1, 4] {
            let config = CampaignConfig::default()
                .sessions(16)
                .seed(seed)
                .threads(threads);
            let reports = campaign::run_campaign(&config);
            let got_triage = fnv(&campaign::render_campaign(&config, &reports));
            let got: Vec<Option<u64>> = reports.iter().map(|r| r.postmortem().map(fnv)).collect();
            if got_triage != triage || got != postmortems {
                let rows: Vec<String> = got
                    .iter()
                    .map(|d| d.map_or("None".to_string(), |d| format!("Some({d:#018x})")))
                    .collect();
                mismatches.push(format!(
                    "seed {seed:#x}, {threads} worker(s): ({seed:#x}, {got_triage:#018x}, [{}])",
                    rows.join(", ")
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Pinned FNV-1a of the post-mortem two rogue MMIO words at one frame
/// latch.
const TWO_ROGUE_WORDS_POSTMORTEM: u64 = 0xd9a6_6e57_6a68_5481;

/// Two faults due at the same frame are both applied and both reported
/// before the first error reaches the flight recorder, so the latched
/// post-mortem lists each of them.
#[test]
fn two_faults_at_one_frame_both_reach_the_postmortem() {
    let channels = 2;
    let rogue = |to: usize| {
        Fabric::encode_route(Route {
            from: NodeId(0),
            to: NodeId(to),
            to_port: 0,
        })
    };
    let words = [rogue(0xE1), rogue(0xE2)];
    let mut system =
        HaloSystem::new(Task::SpikeDetectNeo, HaloConfig::small_test(channels)).unwrap();
    let monitor = Arc::new(HealthMonitor::new(
        Arc::new(Recorder::new(256)),
        HealthConfig::default(),
    ));
    system.attach_health(monitor.clone());
    let samples: Vec<i16> = (0..64 * channels as i16).map(|t| (t * 37) % 500).collect();
    system.push_block(&samples[..40 * channels]).unwrap();
    let injected = system.inject_faults(&words.map(|word| FaultAction::RogueMmio { word }));
    assert!(
        matches!(
            injected,
            Err(SystemError::Runtime(
                RuntimeError::Fabric(_) | RuntimeError::NoSuchNode(_)
            ))
        ),
        "{injected:?}"
    );
    assert_eq!(system.runtime().frames(), 40);

    let postmortem = monitor
        .postmortem()
        .expect("the error latches a post-mortem");
    let doc = json::parse(&postmortem).unwrap();
    let faults = doc.get("recent_faults").and_then(|f| f.as_array()).unwrap();
    let listed: Vec<(u64, &str, u64, bool)> = faults
        .iter()
        .map(|f| {
            (
                f.get("frame").and_then(|v| v.as_u64()).unwrap(),
                f.get("kind").and_then(|v| v.as_str()).unwrap(),
                f.get("detail").and_then(|v| v.as_u64()).unwrap(),
                f.get("detected").and_then(|v| v.as_bool()).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        listed,
        words
            .iter()
            .map(|&w| (40, "rogue_mmio", w as u64, true))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        fnv(&postmortem),
        TWO_ROGUE_WORDS_POSTMORTEM,
        "post-mortem digest {:#018x}",
        fnv(&postmortem)
    );
}
