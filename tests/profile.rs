//! Cycle-profiler integration: accounting neutrality, exact phase
//! tiling, batched-dispatch equivalence, and reconfiguration epochs over
//! real end-to-end streams.

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{Recording, RecordingConfig, RegionProfile};
use halo::telemetry::{json, CycleProfile, Phase, ProfileDiff};

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
    assert_eq!(a.folded(), b.folded());
    assert_eq!(a.to_json(), b.to_json());
    json::parse(&a.to_json()).expect("profile JSON parses");
    assert!(ProfileDiff::between(&a, &b, 0.001).is_empty());
    // A run twice as long pays the same per-frame ingest cost: the
    // diff's normalization must cancel the length difference out of the
    // steady-state phases. (Drain is a fixed end-of-stream cost and the
    // adaptive compressor's compute is data-dependent, so those phases
    // may genuinely move — that is signal, not noise.)
    let (_, long) = profiled_run(Task::CompressLzma, &recording(120, 14));
    let diff = ProfileDiff::between(&a, &long, 0.05);
    let steady: Vec<&str> = diff
        .rows
        .iter()
        .map(|r| r.frame.as_str())
        .filter(|f| f.ends_with(";ingest") || f.ends_with(";quiet-skip"))
        .collect();
    assert!(
        steady.is_empty(),
        "run length leaked into steady-state per-frame deltas: {steady:?}"
    );
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
    // The `profiles` section of BENCH_runtime.json is the modeled
    // attribution baseline the bench sentinel diffs against. Regenerated
    // at the runtime bench's setup (`deterministic_profile`: 8 channels,
    // 100 ms of arm signal, seed 21), every pipeline's profile must match
    // it exactly.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_runtime.json");
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let baseline = json::parse(&doc).expect("BENCH_runtime.json parses");
    let entries = baseline
        .get("profiles")
        .and_then(|v| v.as_array())
        .expect("BENCH_runtime.json has a profiles section");
    assert_eq!(entries.len(), Task::all().len());
    let rec = recording(100, 21);
    for (task, entry) in Task::all().into_iter().zip(entries) {
        assert_eq!(
            entry.get("task").and_then(|t| t.as_str()),
            Some(task.label())
        );
        let committed = entry
            .get("profile")
            .and_then(CycleProfile::from_json)
            .expect("committed profile parses");
        let (_, fresh) = profiled_run(task, &rec);
        assert_eq!(
            (fresh.frames, &fresh.rows),
            (committed.frames, &committed.rows),
            "{}: modeled attribution moved off the committed baseline",
            task.label()
        );
    }
}
