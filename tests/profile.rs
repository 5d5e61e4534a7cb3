//! Cycle-profiler integration: accounting neutrality, exact phase
//! tiling, batched-dispatch equivalence, and reconfiguration epochs over
//! real end-to-end streams.

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{Recording, RecordingConfig, RegionProfile};
use halo::telemetry::{json, CycleProfile, Phase};

const CHANNELS: usize = 8;

fn recording(ms: usize, seed: u64) -> Recording {
    RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .duration_ms(ms)
        .generate(seed)
}

fn profiled_run(task: Task, rec: &Recording) -> (HaloSystem, CycleProfile) {
    let mut sys = HaloSystem::new(task, HaloConfig::small_test(CHANNELS)).unwrap();
    sys.attach_profile();
    sys.process(rec).unwrap();
    let profile = sys.profile("dev").expect("profiler attached");
    (sys, profile)
}

/// FNV-1a over the text, as in `tests/delivery_golden.rs`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of each pipeline's `CycleProfile::to_json` at 8 channels,
/// 100 ms of arm signal, seed 21, device `"bench"`, in `Task::all` order.
const PROFILE_GOLDEN: [(&str, u64); 8] = [
    ("SpikeDet(NEO)", 0x23da_a26b_cd69_353c),
    ("SpikeDet(DWT)", 0x24d1_d42b_7e13_82e5),
    ("Compr(LZ4)", 0xfbf7_f290_71c2_2fa0),
    ("Compr(LZMA)", 0xf8d7_b509_2185_eb0c),
    ("Compr(DWTMA)", 0xde8a_d510_81ec_8b5c),
    ("MoveIntent", 0xe9af_4f66_f4a7_0865),
    ("SeizurePred", 0xa4e0_3a5c_5eb0_5738),
    ("Encrypt(Raw)", 0x6471_a462_f967_01be),
];

#[test]
fn armed_profiler_is_accounting_neutral() {
    // The profiler observes the deterministic counters; arming it must
    // not perturb a single one of them, on any pipeline.
    let rec = recording(60, 11);
    for task in Task::all() {
        let mut bare = HaloSystem::new(task, HaloConfig::small_test(CHANNELS)).unwrap();
        let bare_metrics = bare.process(&rec).unwrap();
        let (armed, _) = profiled_run(task, &rec);
        assert_eq!(
            bare.runtime().slot_totals(),
            armed.runtime().slot_totals(),
            "{}: slot totals diverged under profiling",
            task.label()
        );
        let mut armed2 = HaloSystem::new(task, HaloConfig::small_test(CHANNELS)).unwrap();
        armed2.attach_profile();
        let armed_metrics = armed2.process(&rec).unwrap();
        assert_eq!(bare_metrics.frames, armed_metrics.frames);
        assert_eq!(bare_metrics.input_bytes, armed_metrics.input_bytes);
        assert_eq!(bare_metrics.radio_stream, armed_metrics.radio_stream);
    }
}

#[test]
fn phases_tile_busy_cycles_exactly() {
    // ingest + compute + drain + quiet-skip must equal the slot's busy
    // cycles with no residue — the attribution is a partition, not an
    // estimate.
    let rec = recording(60, 12);
    for task in Task::all() {
        let (sys, profile) = profiled_run(task, &rec);
        let busy: u64 = sys
            .runtime()
            .slot_totals()
            .iter()
            .map(|t| t.busy_cycles)
            .sum();
        assert_eq!(
            profile.total_cycles(),
            busy,
            "{}: phases do not tile busy cycles",
            task.label()
        );
        assert!(profile.total_energy_uj().is_finite());
        assert!(profile.total_energy_uj() >= 0.0);
    }
}

#[test]
fn batched_dispatch_shifts_phases_but_preserves_totals() {
    // Quiet chunks dispatched on the batched fast path are attributed to
    // quiet-skip in one charge; the scalar path attributes the same
    // frames to ingest/compute. Either way the totals must agree — the
    // two paths are bit-identical, so their attribution mass is too.
    let rec = recording(80, 13);
    for task in [Task::SeizurePrediction, Task::MovementIntent] {
        let run = |block_dispatch: bool| {
            let mut sys = HaloSystem::new(task, HaloConfig::small_test(CHANNELS)).unwrap();
            sys.set_block_dispatch(block_dispatch);
            sys.attach_profile();
            sys.process(&rec).unwrap();
            sys.profile("dev").expect("profiler attached")
        };
        let batched = run(true);
        let scalar = run(false);
        assert_eq!(batched.frames, scalar.frames);
        assert_eq!(
            batched.total_cycles(),
            scalar.total_cycles(),
            "{}: dispatch mode changed total attribution",
            task.label()
        );
        let quiet = |p: &CycleProfile| -> u64 {
            p.rows
                .iter()
                .filter(|r| r.phase == Phase::QuietSkip)
                .map(|r| r.cycles)
                .sum()
        };
        assert_eq!(
            quiet(&scalar),
            0,
            "scalar path must never charge quiet-skip"
        );
        assert!(
            quiet(&batched) > 0,
            "{}: batched path found no quiet chunks",
            task.label()
        );
    }
}

#[test]
fn identical_runs_diff_empty_and_profiles_are_deterministic() {
    let rec = recording(60, 14);
    let (_, a) = profiled_run(Task::CompressLzma, &rec);
    let (_, b) = profiled_run(Task::CompressLzma, &rec);
    assert_eq!(a, b);
    assert_eq!(a.folded(), b.folded());
    assert_eq!(a.to_json(), b.to_json());
    json::parse(&a.to_json()).expect("profile JSON parses");
    // A run twice as long pays the same per-frame ingest cost, so the
    // steady-state phases agree per frame. (Drain is a fixed end-of-stream
    // cost and the adaptive compressor's compute is data-dependent, so
    // those phases may genuinely move — that is signal, not noise.)
    let (_, long) = profiled_run(Task::CompressLzma, &recording(120, 14));
    let per_frame = |p: &CycleProfile, frame: &str| {
        p.rows
            .iter()
            .find(|r| r.frame() == frame)
            .map_or(0.0, |r| r.cycles as f64 / p.frames as f64)
    };
    let steady: Vec<String> = a
        .rows
        .iter()
        .chain(&long.rows)
        .map(|r| r.frame())
        .filter(|f| f.ends_with(";ingest") || f.ends_with(";quiet-skip"))
        .collect();
    assert!(!steady.is_empty());
    for frame in &steady {
        let (short, long) = (per_frame(&a, frame), per_frame(&long, frame));
        assert!(
            (long - short).abs() <= 0.05 * short,
            "{frame}: run length leaked into cycles per frame ({short} -> {long})"
        );
    }
}

#[test]
fn reconfigure_banks_attribution_across_pipeline_epochs() {
    // Swapping tasks mid-session must not lose the retiring pipeline's
    // cycles: the profile accumulates one subtree per pipeline epoch.
    let rec = recording(50, 15);
    let mut sys = HaloSystem::new(Task::CompressLz4, HaloConfig::small_test(CHANNELS)).unwrap();
    sys.attach_profile();
    sys.process(&rec).unwrap();
    let first_epoch = sys.profile("dev").unwrap();
    sys.reconfigure(Task::SpikeDetectNeo).unwrap();
    sys.process(&rec).unwrap();
    let both = sys.profile("dev").unwrap();

    let pipelines: Vec<&str> = {
        let mut p: Vec<&str> = both.rows.iter().map(|r| r.pipeline.as_str()).collect();
        p.sort();
        p.dedup();
        p
    };
    assert_eq!(pipelines, vec!["Compr(LZ4)", "SpikeDet(NEO)"]);
    assert_eq!(both.frames, 2 * first_epoch.frames);
    let lz4_cycles = |p: &CycleProfile| -> u64 {
        p.rows
            .iter()
            .filter(|r| r.pipeline == "Compr(LZ4)")
            .map(|r| r.cycles)
            .sum()
    };
    assert_eq!(
        lz4_cycles(&both),
        lz4_cycles(&first_epoch),
        "reconfigure lost the retiring epoch's attribution"
    );
    assert!(both.folded().starts_with("dev;"));

    // Block dispatch is a device setting: the runtime a reconfigure brings
    // up keeps the scalar path, so neither epoch books quiet-skip cycles.
    let mut scalar =
        HaloSystem::new(Task::MovementIntent, HaloConfig::small_test(CHANNELS)).unwrap();
    scalar.set_block_dispatch(false);
    scalar.attach_profile();
    scalar.process(&rec).unwrap();
    scalar.reconfigure(Task::SeizurePrediction).unwrap();
    scalar.process(&rec).unwrap();
    let epochs = scalar.profile("dev").unwrap();
    for pipeline in ["MoveIntent", "SeizurePred"] {
        assert!(
            epochs.rows.iter().any(|r| r.pipeline == pipeline),
            "{pipeline}: epoch missing"
        );
    }
    let quiet: Vec<String> = epochs
        .rows
        .iter()
        .filter(|r| r.phase == Phase::QuietSkip)
        .map(|r| r.frame())
        .collect();
    assert!(quiet.is_empty(), "dispatch off, yet quiet-skip: {quiet:?}");
}

#[test]
fn profile_armed_mid_stream_equals_one_armed_before_it() {
    // The runtime charges phases on every run and arming only enables
    // reporting, so the moment the profile is armed cannot move the
    // attribution.
    let rec = recording(60, 16);
    let half = rec.samples().len() / CHANNELS / 2 * CHANNELS;
    let (first, second) = rec.samples().split_at(half);
    for task in Task::all() {
        let run = |arm_mid_stream: bool| {
            let mut sys = HaloSystem::new(task, HaloConfig::small_test(CHANNELS)).unwrap();
            if !arm_mid_stream {
                sys.attach_profile();
            }
            sys.push_block(first).unwrap();
            if arm_mid_stream {
                sys.attach_profile();
            }
            sys.push_block(second).unwrap();
            sys.finalize().unwrap();
            sys.profile("dev").expect("profiler attached")
        };
        assert_eq!(run(true), run(false), "{}", task.label());
    }
}

#[test]
fn committed_bench_profiles_regenerate_exactly() {
    // The modelled attribution baseline: every pipeline's profile text,
    // pinned by digest. Moving one modelled cycle or microjoule moves it.
    let rec = recording(100, 21);
    let got: Vec<(&str, u64)> = Task::all()
        .into_iter()
        .map(|task| {
            let (sys, _) = profiled_run(task, &rec);
            let profile = sys.profile("bench").expect("profiler attached");
            (task.label(), fnv(&profile.to_json()))
        })
        .collect();
    assert_eq!(
        got, PROFILE_GOLDEN,
        "modelled attribution moved off the pinned baseline: {got:#x?}"
    );
}
