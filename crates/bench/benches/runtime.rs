//! End-to-end streaming-runtime throughput: frames/s per pipeline family.
//!
//! This is the repo's throughput baseline for the hot path exercised by
//! every Figure 4–9 experiment: `HaloSystem::process` replaying a
//! synthetic ADC stream through a PE graph. Each result is the median of
//! repeated full-stream replays, reported as ADC frames per second and
//! as a multiple of the 30 kHz real-time rate the hardware must sustain.
//!
//! Run with `--json <path>` to also write the machine-readable
//! `BENCH_runtime.json` consumed by `docs/performance.md` and the CI
//! bench smoke step.

use std::sync::Arc;
use std::time::{Duration, Instant};

use halo_core::runtime::{FaultAction, ScheduledFault};
use halo_core::{HaloConfig, HaloSystem, Task};
use halo_signal::{Recording, RecordingConfig, RegionProfile};
use halo_telemetry::{
    json, AlertPolicy, ContinuousConfig, ContinuousTelemetry, CycleProfile, HealthConfig,
    HealthMonitor, NullSink, ProfileDiff, Recorder, Tracer,
};

/// Frames/s measured at the pre-optimization baseline commit (route
/// table, bulk FIFO drains, dense link matrix, and thin-LTO release
/// profile all absent). Medians of six runs interleaved with the
/// optimized binary on the same machine, so both sides saw the same
/// load; regenerate by grafting this bench onto the parent of the
/// hot-path commit and alternating the two binaries. Keyed by task
/// label.
const BASELINE_FRAMES_PER_S: &[(&str, f64)] = &[
    ("SpikeDet(NEO)", 660_000.0),
    ("SpikeDet(DWT)", 1_044_000.0),
    ("Compr(LZ4)", 535_000.0),
    ("Compr(LZMA)", 218_000.0),
    ("Compr(DWTMA)", 480_000.0),
    ("MoveIntent", 7_114_000.0),
    ("SeizurePred", 2_201_000.0),
    ("Encrypt(Raw)", 1_710_000.0),
];

struct PipelineResult {
    task: Task,
    frames: u64,
    median_s: f64,
    frames_per_s: f64,
    /// Relative interquartile spread of the replicate times — the run's
    /// own noise estimate, which `--check` folds into its threshold.
    spread: f64,
}

fn median_run(task: Task, channels: usize, rec: &Recording) -> PipelineResult {
    let config = HaloConfig::small_test(channels);
    // One warm-up replay, then size the sample count for ~300 ms.
    let mut sys = HaloSystem::new(task, config.clone()).unwrap();
    let t0 = Instant::now();
    let metrics = sys.process(std::hint::black_box(rec)).unwrap();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let frames = metrics.frames;

    let samples = (Duration::from_millis(300).as_nanos() / once.as_nanos()).clamp(3, 200) as usize;
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        times.push(t.elapsed());
    }
    times.sort_unstable();
    let median_s = times[times.len() / 2].as_secs_f64().max(1e-12);
    let spread = (times[times.len() * 3 / 4].as_secs_f64() - times[times.len() / 4].as_secs_f64())
        / median_s;
    PipelineResult {
        task,
        frames,
        median_s,
        frames_per_s: frames as f64 / median_s,
        spread,
    }
}

/// Telemetry sink to attach to each replay of the health-overhead A/B.
#[derive(Clone, Copy)]
enum SinkVariant {
    /// No sink at all — the pre-telemetry baseline.
    Bare,
    /// The disabled `NullSink` (the `enabled()` gate must make this free).
    Null,
    /// A `Recorder` wrapped in a `HealthMonitor` — full active telemetry.
    Health,
}

struct OverheadResult {
    task: Task,
    bare_s: f64,
    null_s: f64,
    health_s: f64,
}

/// A/B/C the watchdog's overhead on one task: replays of the same stream
/// with the three sink variants interleaved round-robin, so slow drift on
/// the host machine hits every variant equally. Returns per-variant
/// median replay time.
fn health_overhead(task: Task, channels: usize, rec: &Recording, rounds: usize) -> OverheadResult {
    let config = HaloConfig::small_test(channels);
    let replay = |variant: SinkVariant| {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        match variant {
            SinkVariant::Bare => {}
            SinkVariant::Null => sys.attach_telemetry(Arc::new(NullSink)),
            SinkVariant::Health => {
                let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
                sys.attach_health(Arc::new(HealthMonitor::new(
                    recorder,
                    HealthConfig {
                        policy: AlertPolicy::Record,
                        ..HealthConfig::default()
                    },
                )));
            }
        }
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        t.elapsed()
    };
    // Warm-up one replay per variant, then measure interleaved.
    let mut times: [Vec<Duration>; 3] = Default::default();
    for variant in [SinkVariant::Bare, SinkVariant::Null, SinkVariant::Health] {
        replay(variant);
    }
    for _ in 0..rounds {
        for (i, variant) in [SinkVariant::Bare, SinkVariant::Null, SinkVariant::Health]
            .into_iter()
            .enumerate()
        {
            times[i].push(replay(variant));
        }
    }
    let median = |v: &mut Vec<Duration>| {
        v.sort_unstable();
        v[v.len() / 2].as_secs_f64().max(1e-12)
    };
    OverheadResult {
        task,
        bare_s: median(&mut times[0]),
        null_s: median(&mut times[1]),
        health_s: median(&mut times[2]),
    }
}

/// Tracer variant to attach to each replay of the tracing-overhead A/B.
#[derive(Clone, Copy)]
enum TracerVariant {
    /// No tracer at all — the pre-tracing baseline.
    Bare,
    /// Tracer attached with sampling rate 0: the hot path pays the
    /// per-frame sampler check and per-burst tag read, nothing else.
    SamplingOff,
    /// Tracer attached at the 1-in-64 production sampling rate.
    OneIn64,
}

struct TracingOverheadResult {
    task: Task,
    bare_s: f64,
    off_s: f64,
    sampled_s: f64,
}

/// A/B/C the causal tracer's overhead on one task, interleaved round-robin
/// like [`health_overhead`] so host drift hits every variant equally.
fn tracing_overhead(
    task: Task,
    channels: usize,
    rec: &Recording,
    rounds: usize,
) -> TracingOverheadResult {
    let config = HaloConfig::small_test(channels);
    let replay = |variant: TracerVariant| {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        match variant {
            TracerVariant::Bare => {}
            TracerVariant::SamplingOff => sys.attach_tracing(Arc::new(Tracer::new(7, 0))),
            TracerVariant::OneIn64 => sys.attach_tracing(Arc::new(Tracer::new(7, 64))),
        }
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        t.elapsed()
    };
    let variants = [
        TracerVariant::Bare,
        TracerVariant::SamplingOff,
        TracerVariant::OneIn64,
    ];
    let mut times: [Vec<Duration>; 3] = Default::default();
    for variant in variants {
        replay(variant);
    }
    for _ in 0..rounds {
        for (i, variant) in variants.into_iter().enumerate() {
            times[i].push(replay(variant));
        }
    }
    let median = |v: &mut Vec<Duration>| {
        v.sort_unstable();
        v[v.len() / 2].as_secs_f64().max(1e-12)
    };
    TracingOverheadResult {
        task,
        bare_s: median(&mut times[0]),
        off_s: median(&mut times[1]),
        sampled_s: median(&mut times[2]),
    }
}

struct ContinuousOverheadResult {
    task: Task,
    health_s: f64,
    continuous_s: f64,
}

/// A/B the continuous-telemetry layer against the bare watchdog,
/// interleaved round-robin like [`health_overhead`] so host drift hits
/// both variants equally. Both sides run a full `HealthMonitor`; the
/// "continuous" side additionally scrapes every window into the embedded
/// tsdb and polls the SLO/anomaly engines — the cost this measures is the
/// whole history-keeping layer, which must stay within the ≤2% envelope.
fn continuous_overhead(
    task: Task,
    channels: usize,
    rec: &Recording,
    rounds: usize,
) -> ContinuousOverheadResult {
    let config = HaloConfig::small_test(channels);
    let replay = |attach_continuous: bool| {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
        let monitor = Arc::new(HealthMonitor::new(
            recorder,
            HealthConfig {
                policy: AlertPolicy::Record,
                ..HealthConfig::default()
            },
        ));
        if attach_continuous {
            sys.attach_continuous(Arc::new(ContinuousTelemetry::new(
                monitor,
                ContinuousConfig::default(),
            )));
        } else {
            sys.attach_health(monitor);
        }
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        t.elapsed()
    };
    let mut times: [Vec<Duration>; 2] = Default::default();
    replay(false);
    replay(true);
    for _ in 0..rounds {
        times[0].push(replay(false));
        times[1].push(replay(true));
    }
    let median = |v: &mut Vec<Duration>| {
        v.sort_unstable();
        v[v.len() / 2].as_secs_f64().max(1e-12)
    };
    ContinuousOverheadResult {
        task,
        health_s: median(&mut times[0]),
        continuous_s: median(&mut times[1]),
    }
}

struct BlockDispatchResult {
    task: Task,
    off_s: f64,
    on_s: f64,
}

/// A/B the runtime's batched quiet-frame dispatch against the per-frame
/// scalar path on one task, interleaved round-robin like
/// [`health_overhead`] so host drift hits both variants equally. The two
/// paths produce byte-identical outputs (asserted by the
/// `kernel_batching` suite); this measures only the speed difference.
fn block_dispatch_ab(
    task: Task,
    channels: usize,
    rec: &Recording,
    rounds: usize,
) -> BlockDispatchResult {
    let config = HaloConfig::small_test(channels);
    let replay = |on: bool| {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        sys.set_block_dispatch(on);
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        t.elapsed()
    };
    let mut times: [Vec<Duration>; 2] = Default::default();
    replay(false);
    replay(true);
    for _ in 0..rounds {
        times[0].push(replay(false));
        times[1].push(replay(true));
    }
    let median = |v: &mut Vec<Duration>| {
        v.sort_unstable();
        v[v.len() / 2].as_secs_f64().max(1e-12)
    };
    BlockDispatchResult {
        task,
        off_s: median(&mut times[0]),
        on_s: median(&mut times[1]),
    }
}

struct FaultOverheadResult {
    task: Task,
    off_s: f64,
    armed_s: f64,
}

/// A/B the fault-injection hook, interleaved round-robin like
/// [`health_overhead`] so host drift hits both variants equally. "Off"
/// is the shipped default — no schedule attached, the hook is a single
/// `Option` check. "Armed" attaches a schedule whose only fault sits
/// past the end of the stream, so every frame pays the cursor check but
/// nothing ever fires — the worst the hook can cost without injecting.
fn fault_overhead(
    task: Task,
    channels: usize,
    rec: &Recording,
    rounds: usize,
) -> FaultOverheadResult {
    let config = HaloConfig::small_test(channels);
    let replay = |armed: bool| {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        if armed {
            sys.runtime_mut().attach_faults(vec![ScheduledFault {
                frame: u64::MAX,
                action: FaultAction::FifoBitFlip { slot: 0, bit: 0 },
            }]);
        }
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        t.elapsed()
    };
    let mut times: [Vec<Duration>; 2] = Default::default();
    replay(false);
    replay(true);
    for _ in 0..rounds {
        times[0].push(replay(false));
        times[1].push(replay(true));
    }
    let median = |v: &mut Vec<Duration>| {
        v.sort_unstable();
        v[v.len() / 2].as_secs_f64().max(1e-12)
    };
    FaultOverheadResult {
        task,
        off_s: median(&mut times[0]),
        armed_s: median(&mut times[1]),
    }
}

/// One profiled replay of `task`. The profile is deterministic — pure
/// cost-model cycle attribution, no wall clock — so a single replay is
/// exact and byte-stable across machines, which is what lets `--check`
/// diff it against the committed baseline.
fn deterministic_profile(task: Task, channels: usize, rec: &Recording) -> CycleProfile {
    let config = HaloConfig::small_test(channels);
    let mut sys = HaloSystem::new(task, config).unwrap();
    sys.attach_profile();
    sys.process(rec).unwrap();
    sys.profile("bench").expect("profiler attached")
}

/// Regression-sentinel mode: re-measure every pipeline and compare
/// against the committed `BENCH_runtime.json` medians. A pipeline fails
/// when its fresh throughput is below the baseline by more than the
/// noise-aware threshold: `max(--check-threshold, replicate spread)` of
/// either side. Returns the number of regressed pipelines.
///
/// `HALO_BENCH_SYNTHETIC_SLOWDOWN` (a fraction, e.g. `0.10`) inflates
/// every fresh measurement before comparison — CI uses it to prove the
/// gate actually fails on a real slowdown.
fn check_against_baseline(
    baseline: &json::Value,
    threshold_floor: f64,
    slowdown: f64,
    results: &[PipelineResult],
) -> Vec<String> {
    let pipelines = baseline
        .get("pipelines")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("baseline has no pipelines array"));

    if slowdown != 0.0 {
        println!(
            "check: applying synthetic slowdown of {:.1}%",
            slowdown * 100.0
        );
    }

    let mut regressed = Vec::new();
    for r in results {
        let baseline = pipelines
            .iter()
            .find(|p| p.get("task").and_then(|t| t.as_str()) == Some(r.task.label()));
        let Some(baseline) = baseline else {
            println!("check/{:<16} SKIP (no baseline entry)", r.task.label());
            continue;
        };
        let base_fps = baseline
            .get("frames_per_s")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("baseline entry for {} lacks frames_per_s", r.task.label()));
        let fresh_fps = r.frames_per_s / (1.0 + slowdown);
        let delta = fresh_fps / base_fps - 1.0;
        // Noise-aware: both sides' interquartile spreads count. An old
        // baseline (before spreads were recorded) contributes zero.
        let base_spread = baseline
            .get("spread")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let threshold = threshold_floor.max(r.spread).max(base_spread);
        let verdict = if delta < -threshold {
            regressed.push(r.task.label().to_string());
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "check/{:<16} {:>10.0} vs {:>10.0} frames/s  ({:>+5.1}%, threshold {:>4.1}%)  {verdict}",
            r.task.label(),
            fresh_fps,
            base_fps,
            delta * 100.0,
            threshold * 100.0,
        );
    }
    regressed
}

/// Differential regression explanation: replay every stock pipeline with
/// the cycle profiler attached, diff the merged profile against the
/// `profiles` section of the committed baseline, and write the verdict
/// (`verdict.json`) plus the fresh folded flamegraph
/// (`profile_fresh.folded`) under `target/bench_check/` for CI to
/// archive. Returns the top-k annotation lines so the sentinel can name
/// the regressed attribution frame in its failure message.
///
/// The profile is deterministic, so a synthetic slowdown would otherwise
/// be invisible to it; when `HALO_BENCH_SYNTHETIC_SLOWDOWN` is set the
/// fresh profile's dominant frame is scaled by the same factor, modeling
/// a slowdown concentrated in the hottest section — which is exactly
/// what the CI probe asserts the diff can name.
fn explain_check(
    baseline: &json::Value,
    regressed: &[String],
    channels: usize,
    rec: &Recording,
    slowdown: f64,
) -> Vec<String> {
    let base = baseline
        .get("profiles")
        .and_then(|v| v.as_array())
        .map(|entries| {
            let mut merged = CycleProfile::new("bench");
            for entry in entries {
                let profile = entry
                    .get("profile")
                    .and_then(CycleProfile::from_json)
                    .unwrap_or_else(|| panic!("baseline profiles entry is malformed"));
                merged.merge(&profile);
            }
            merged
        });

    let mut fresh = CycleProfile::new("bench");
    for task in Task::all() {
        fresh.merge(&deterministic_profile(task, channels, rec));
    }
    if slowdown != 0.0 {
        if let Some((frame, _)) = fresh.dominant_frame() {
            for row in &mut fresh.rows {
                if row.frame() == frame {
                    row.cycles = (row.cycles as f64 * (1.0 + slowdown)) as u64;
                }
            }
        }
    }

    let diff = match &base {
        Some(base) => ProfileDiff::between(base, &fresh, 0.02),
        None => {
            println!("check: baseline has no profiles section; skipping profile diff");
            ProfileDiff::default()
        }
    };
    let annotations = diff.annotate(5);
    for line in &annotations {
        println!("check/profile  {line}");
    }
    if base.is_some() && diff.is_empty() {
        println!("check/profile  no attribution frame moved past 2% cycles/frame");
    }

    let dir = halo_bench::workspace_path("target/bench_check");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    let mut verdict = String::from("{");
    verdict.push_str(&format!(
        "\"synthetic_slowdown\":{slowdown},\"regressed\":[{}],",
        regressed
            .iter()
            .map(|t| json::string(t))
            .collect::<Vec<_>>()
            .join(",")
    ));
    verdict.push_str(&format!(
        "\"profile_diff\":{},\"annotations\":[{}]}}",
        diff.to_json(),
        annotations
            .iter()
            .map(|a| json::string(a))
            .collect::<Vec<_>>()
            .join(",")
    ));
    debug_assert!(json::validate(&verdict).is_ok());
    std::fs::write(dir.join("verdict.json"), verdict)
        .unwrap_or_else(|e| panic!("writing verdict.json: {e}"));
    std::fs::write(dir.join("profile_fresh.folded"), fresh.folded())
        .unwrap_or_else(|e| panic!("writing profile_fresh.folded: {e}"));
    println!("check: wrote {}", dir.join("verdict.json").display());
    annotations
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let check = args.iter().any(|a| a == "--check");
    let check_baseline = args
        .iter()
        .position(|a| a == "--check-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    let check_threshold: f64 = args
        .iter()
        .position(|a| a == "--check-threshold")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);

    let channels = 8;
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(100)
        .generate(21);

    let mut results = Vec::new();
    for task in Task::all() {
        let r = median_run(task, channels, &rec);
        let baseline = BASELINE_FRAMES_PER_S
            .iter()
            .find(|(label, _)| *label == r.task.label())
            .map(|&(_, f)| f);
        let speedup = baseline.map_or(String::new(), |b| format!("  {:>5.2}x", r.frames_per_s / b));
        println!(
            "runtime/{:<16} {:>10.0} frames/s  ({:>6.1}x real-time, {:>9.3} ms/replay){speedup}",
            r.task.label(),
            r.frames_per_s,
            r.frames_per_s / 30_000.0,
            r.median_s * 1e3,
        );
        results.push(r);
    }

    if check {
        let path = halo_bench::workspace_path(&check_baseline);
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading baseline {}: {e}", path.display()));
        let baseline = json::parse(&doc)
            .unwrap_or_else(|e| panic!("parsing baseline {}: {e:?}", path.display()));
        let slowdown: f64 = std::env::var("HALO_BENCH_SYNTHETIC_SLOWDOWN")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        let regressed = check_against_baseline(&baseline, check_threshold, slowdown, &results);
        let annotations = explain_check(&baseline, &regressed, channels, &rec, slowdown);
        if !regressed.is_empty() {
            eprintln!(
                "check: {} pipeline(s) regressed past the noise-aware threshold: {}",
                regressed.len(),
                regressed.join(", ")
            );
            match annotations.first() {
                Some(top) => eprintln!("check: dominant attribution delta: {top}"),
                None => eprintln!("check: no attribution frame moved past 2% cycles/frame"),
            }
            std::process::exit(1);
        }
        println!("check: all pipelines within threshold of {check_baseline}");
        return;
    }

    // Health-monitor overhead A/B: the watchdog must be free when
    // telemetry is disabled (NullSink within noise of no sink at all) and
    // cheap when recording. Two representative tasks: the flagship
    // closed-loop pipeline and the heaviest throughput pipeline.
    let mut overheads = Vec::new();
    for task in [Task::SeizurePrediction, Task::CompressLz4] {
        let o = health_overhead(task, channels, &rec, 41);
        println!(
            "health/{:<17} bare {:>8.3} ms  null {:>8.3} ms ({:>+5.1}%)  health {:>8.3} ms ({:>+5.1}%)",
            o.task.label(),
            o.bare_s * 1e3,
            o.null_s * 1e3,
            (o.null_s / o.bare_s - 1.0) * 100.0,
            o.health_s * 1e3,
            (o.health_s / o.bare_s - 1.0) * 100.0,
        );
        overheads.push(o);
    }

    // Continuous-telemetry overhead A/B: keeping history (tsdb scrape +
    // SLO budgets + drift detection) on top of the watchdog must cost
    // ≤2% over the watchdog alone. More rounds than the other A/Bs: the
    // seizure replay is ~0.2 ms, so its median needs the extra samples
    // to settle inside that envelope.
    let mut continuous_overheads = Vec::new();
    for task in [Task::SeizurePrediction, Task::CompressLz4] {
        let o = continuous_overhead(task, channels, &rec, 101);
        println!(
            "continuous/{:<13} health {:>8.3} ms  +tsdb {:>8.3} ms ({:>+5.1}%)",
            o.task.label(),
            o.health_s * 1e3,
            o.continuous_s * 1e3,
            (o.continuous_s / o.health_s - 1.0) * 100.0,
        );
        continuous_overheads.push(o);
    }

    // Causal-tracing overhead A/B: an attached tracer with sampling off
    // must stay within the <2% envelope of no tracer at all; 1-in-64
    // production sampling should remain cheap.
    let mut trace_overheads = Vec::new();
    for task in [Task::SeizurePrediction, Task::CompressLz4] {
        let o = tracing_overhead(task, channels, &rec, 41);
        println!(
            "tracing/{:<16} bare {:>8.3} ms  off {:>8.3} ms ({:>+5.1}%)  1-in-64 {:>8.3} ms ({:>+5.1}%)",
            o.task.label(),
            o.bare_s * 1e3,
            o.off_s * 1e3,
            (o.off_s / o.bare_s - 1.0) * 100.0,
            o.sampled_s * 1e3,
            (o.sampled_s / o.bare_s - 1.0) * 100.0,
        );
        trace_overheads.push(o);
    }

    // Fault-hook A/B: the chaos harness's injection hook must be free
    // when no schedule is attached (the shipped default) and within the
    // ≤2% envelope even armed-but-idle.
    let mut fault_overheads = Vec::new();
    for task in [Task::SeizurePrediction, Task::CompressLz4] {
        let o = fault_overhead(task, channels, &rec, 41);
        println!(
            "faults/{:<17} off {:>8.3} ms  armed {:>8.3} ms ({:>+5.1}%)",
            o.task.label(),
            o.off_s * 1e3,
            o.armed_s * 1e3,
            (o.armed_s / o.off_s - 1.0) * 100.0,
        );
        fault_overheads.push(o);
    }

    // Batched-dispatch A/B: quiet-chunk SoA dispatch vs the per-frame
    // scalar path on the two short feature pipelines it targets.
    let mut block_abs = Vec::new();
    for task in [Task::MovementIntent, Task::SeizurePrediction] {
        let o = block_dispatch_ab(task, channels, &rec, 41);
        println!(
            "block/{:<18} off {:>8.3} ms  on {:>8.3} ms  ({:>5.2}x)",
            o.task.label(),
            o.off_s * 1e3,
            o.on_s * 1e3,
            o.off_s / o.on_s,
        );
        block_abs.push(o);
    }

    if let Some(path) = json_path {
        let mut json = String::from("{\"bench\":\"runtime\",\"channels\":8,\"pipelines\":[");
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let baseline = BASELINE_FRAMES_PER_S
                .iter()
                .find(|(label, _)| *label == r.task.label())
                .map(|&(_, f)| f);
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"frames\":{},\"median_s\":{:.6},\"frames_per_s\":{:.0},\"spread\":{:.4},\"baseline_frames_per_s\":{},\"speedup\":{}}}",
                r.task.label(),
                r.frames,
                r.median_s,
                r.frames_per_s,
                r.spread,
                baseline.map_or("null".to_string(), |b| format!("{b:.0}")),
                baseline.map_or("null".to_string(), |b| format!(
                    "{:.2}",
                    r.frames_per_s / b
                )),
            ));
        }
        json.push_str("],\"health_overhead\":[");
        for (i, o) in overheads.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"bare_s\":{:.6},\"null_s\":{:.6},\"health_s\":{:.6},\"null_overhead\":{:.4},\"health_overhead\":{:.4}}}",
                o.task.label(),
                o.bare_s,
                o.null_s,
                o.health_s,
                o.null_s / o.bare_s - 1.0,
                o.health_s / o.bare_s - 1.0,
            ));
        }
        json.push_str("],\"continuous_telemetry\":[");
        for (i, o) in continuous_overheads.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"health_s\":{:.6},\"continuous_s\":{:.6},\"continuous_overhead\":{:.4}}}",
                o.task.label(),
                o.health_s,
                o.continuous_s,
                o.continuous_s / o.health_s - 1.0,
            ));
        }
        json.push_str("],\"tracing_overhead\":[");
        for (i, o) in trace_overheads.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"bare_s\":{:.6},\"off_s\":{:.6},\"sampled_s\":{:.6},\"off_overhead\":{:.4},\"sampled_overhead\":{:.4}}}",
                o.task.label(),
                o.bare_s,
                o.off_s,
                o.sampled_s,
                o.off_s / o.bare_s - 1.0,
                o.sampled_s / o.bare_s - 1.0,
            ));
        }
        json.push_str("],\"fault_overhead\":[");
        for (i, o) in fault_overheads.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"off_s\":{:.6},\"armed_s\":{:.6},\"armed_overhead\":{:.4}}}",
                o.task.label(),
                o.off_s,
                o.armed_s,
                o.armed_s / o.off_s - 1.0,
            ));
        }
        // Deterministic per-pipeline cycle profiles: the committed
        // attribution baseline `--check` diffs fresh profiles against.
        json.push_str("],\"profiles\":[");
        for (i, task) in Task::all().into_iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let profile = deterministic_profile(task, channels, &rec);
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"profile\":{}}}",
                task.label(),
                profile.to_json(),
            ));
        }
        json.push_str("],\"block_dispatch\":[");
        for (i, o) in block_abs.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"off_s\":{:.6},\"on_s\":{:.6},\"speedup\":{:.2}}}",
                o.task.label(),
                o.off_s,
                o.on_s,
                o.off_s / o.on_s,
            ));
        }
        json.push_str("]}");
        let out = halo_bench::workspace_path(&path);
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
        println!("wrote {}", out.display());
    }
}
