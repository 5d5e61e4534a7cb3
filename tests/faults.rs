//! Fault-injection integration: every fault the default plan draws
//! changes the device it is injected into, and the chaos machinery
//! behaves identically with the runtime's quiet-frame block dispatch on
//! and off. Every plan fault must be injected at its own frame (the
//! harness splits its batches there). A golden net pins the campaign
//! triage and every latched post-mortem at 1 and 4 workers.

use std::collections::BTreeSet;
use std::sync::Arc;

use halo::core::runtime::{FaultAction, RuntimeError};
use halo::core::{HaloConfig, HaloSystem, SystemError, Task};
use halo::faults::{ChaosConfig, ChaosSession, FaultPlan, FaultPlanConfig, Outcome};
use halo::fleet::{campaign, CampaignConfig};
use halo::noc::{Fabric, NodeId, Route};
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::{json, HealthConfig, HealthMonitor, Recorder};

fn chaos_config(task: Task, block_dispatch: bool) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(task);
    cfg.block_dispatch = block_dispatch;
    cfg.block_bytes = 512;
    cfg.plan.rogue_mmio = 2;
    cfg.plan.link_faults = 1;
    cfg.plan.radio_drop_permille = 150;
    cfg.plan.radio_corrupt_permille = 80;
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
    assert!(on.arq.retries > 0, "the lossy link must retry");
    assert_eq!(on.arq, off.arq);
}

/// Every fault of the default plan, injected into each stock pipeline at
/// its own frame, has an effect: a rogue switch word fails typed (and is
/// repaired the way the chaos harness repairs it), and a link degradation
/// charges exactly its stall cycles to its own slot. A fault class that
/// cannot fire fails here instead of reading as harmless in a campaign.
#[test]
fn every_default_plan_fault_has_an_effect_on_every_pipeline() {
    let channels = 4;
    let recording = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(40)
        .generate(0xBC1);
    let samples = recording.samples();
    let stalls = |system: &HaloSystem| -> Vec<u64> {
        let totals = system.runtime().slot_totals();
        totals.iter().map(|t| t.stall_cycles).collect()
    };
    let mut seen = BTreeSet::new();
    for task in Task::all() {
        let plan = FaultPlan::generate(&FaultPlanConfig {
            frames: recording.samples_per_channel() as u64,
            pe_slots: task.pe_kinds().len() as u8,
            ..Default::default()
        });
        let mut system = HaloSystem::new(task, HaloConfig::small_test(channels)).unwrap();
        let legal = system.runtime().fabric().encoded_routes();
        let mut at = 0;
        for fault in &plan.schedule {
            let frame = fault.frame as usize;
            system
                .push_block(&samples[at * channels..frame * channels])
                .unwrap();
            at = frame;
            let before = stalls(&system);
            let effect = match system.inject_faults(&[fault.action]) {
                Err(SystemError::Runtime(_)) => {
                    let fabric = system.runtime_mut().fabric_mut();
                    fabric.program(Fabric::WORD_CLEAR).unwrap();
                    for &word in &legal {
                        fabric.program(word).unwrap();
                    }
                    "typed error"
                }
                Ok(()) => {
                    let FaultAction::LinkDegrade {
                        to, stall_cycles, ..
                    } = fault.action
                    else {
                        panic!(
                            "{task:?}: {:?} at frame {frame} had no effect",
                            fault.action
                        );
                    };
                    let mut expected = before;
                    expected[to.0] += stall_cycles;
                    assert_eq!(stalls(&system), expected, "{task:?} at frame {frame}");
                    "stall cycles"
                }
                Err(other) => panic!("{task:?}: {:?} failed untyped: {other}", fault.action),
            };
            seen.insert((fault.action.name(), effect));
        }
        system.push_block(&samples[at * channels..]).unwrap();
        system.finalize().unwrap();
    }
    for kind in [
        ("rogue_mmio", "typed error"),
        ("link_degrade", "stall cycles"),
    ] {
        assert!(seen.contains(&kind), "{seen:?}");
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
        0xfa58_b8f5_9074_a5cc,
        [
            Some(0x4072_a2fb_eb11_6a0d),
            Some(0x4f7d_2ac2_a5c6_b47e),
            Some(0x41a0_929c_cd03_017b),
            Some(0x84e7_bb46_259e_f38b),
            Some(0x246a_139e_0835_c69b),
            Some(0x07da_516e_ae6f_4437),
            Some(0x32c3_b492_393a_8fbb),
            Some(0xd8d2_a05b_d141_c5c1),
            Some(0xa49c_9614_03ea_1c37),
            Some(0x377d_9235_a3e0_e3db),
            Some(0xfd63_a04d_f720_8ed1),
            Some(0x4bd3_3939_702b_f3f4),
            Some(0x8226_a2b3_a3de_a50e),
            Some(0xa763_470a_201f_ace1),
            Some(0xb117_4002_ed0b_af59),
            Some(0xf2d3_c026_d30d_07b3),
        ],
    ),
    (
        7,
        0xe929_5674_c5c5_dacc,
        [
            Some(0xc1b6_717b_fd51_7df4),
            Some(0x5f9b_a9b7_a4bb_1f36),
            Some(0x4115_3479_b20f_2ce7),
            Some(0x47f9_b2a0_194f_9f7d),
            Some(0xed57_2e6d_7efe_57f4),
            Some(0xf54b_f482_01da_b1db),
            Some(0xe9e4_8343_e7ee_4095),
            Some(0x748b_abe8_bf13_2e1a),
            Some(0xeb66_bc16_1e2f_460d),
            Some(0x5321_dd97_d331_b1ac),
            Some(0x70f8_82ea_e8ee_4f2c),
            Some(0xe205_fd77_9833_ad89),
            Some(0x20c0_5b13_adbb_4a36),
            Some(0xab80_040d_804d_52b8),
            Some(0xa65e_4e76_d15e_59ca),
            Some(0x4134_92c9_aeba_e82b),
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

/// A runtime error closes the open telemetry window before the flight
/// recorder latches, so the post-mortem counts every frame up to the
/// failure and the busy cycles the ledger charged for them.
#[test]
fn runtime_error_postmortem_carries_counters_up_to_the_failing_frame() {
    let channels = 2;
    let mut system =
        HaloSystem::new(Task::SpikeDetectNeo, HaloConfig::small_test(channels)).unwrap();
    let monitor = Arc::new(HealthMonitor::new(
        Arc::new(Recorder::new(256)),
        HealthConfig::default(),
    ));
    system.attach_health(monitor.clone());
    let samples: Vec<i16> = (0..300 * channels as i16).map(|t| (t * 37) % 500).collect();
    system.push_block(&samples).unwrap();
    let rogue = Fabric::encode_route(Route {
        from: NodeId(0),
        to: NodeId(0xE1),
        to_port: 0,
    });
    let injected = system.inject_faults(&[FaultAction::RogueMmio { word: rogue }]);
    assert!(injected.is_err(), "{injected:?}");

    let doc = json::parse(&monitor.postmortem().unwrap()).unwrap();
    let field = |v: &json::Value, key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap();
    assert_eq!(field(&doc, "frame"), 300);
    assert_eq!(field(doc.get("counters").unwrap(), "frames"), 300);
    let busy: Vec<u64> = doc
        .get("pes")
        .and_then(|p| p.as_array())
        .unwrap()
        .iter()
        .map(|pe| field(pe, "busy_cycles"))
        .collect();
    let ledger: Vec<u64> = system
        .runtime()
        .slot_totals()
        .iter()
        .map(|t| t.busy_cycles)
        .collect();
    assert!(ledger.iter().any(|&b| b > 0));
    assert_eq!(busy, ledger);
}

/// Pinned FNV-1a of the post-mortem two rogue MMIO words at one frame
/// latch.
const TWO_ROGUE_WORDS_POSTMORTEM: u64 = 0x94b2_b051_76c6_b250;

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
