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

/// Instrumentation one variant of an interleaved A/B attaches to a fresh
/// system before its replay is timed.
type Setup<'a> = &'a dyn Fn(&mut HaloSystem);

/// Per task, each variant's median replay seconds, in variant order.
type AbRows<const N: usize> = Vec<(Task, [f64; N])>;

/// Median replay seconds of each variant on each task, measured
/// interleaved: one warm-up replay per variant, then `rounds` round-robin
/// passes, so slow drift on the host machine hits every variant equally.
/// Each replay builds a fresh system and applies its variant's setup;
/// only `process` is timed.
fn interleaved<const N: usize>(
    tasks: [Task; 2],
    channels: usize,
    rec: &Recording,
    rounds: usize,
    variants: [Setup; N],
) -> AbRows<N> {
    let config = HaloConfig::small_test(channels);
    let measure = |task: Task| {
        let replay = |setup: Setup| {
            let mut sys = HaloSystem::new(task, config.clone()).unwrap();
            setup(&mut sys);
            let t = Instant::now();
            std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
            t.elapsed()
        };
        for setup in variants {
            replay(setup);
        }
        let mut times: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::with_capacity(rounds));
        for _ in 0..rounds {
            for (i, setup) in variants.into_iter().enumerate() {
                times[i].push(replay(setup));
            }
        }
        times.map(|mut v| {
            v.sort_unstable();
            v[v.len() / 2].as_secs_f64().max(1e-12)
        })
    };
    tasks
        .into_iter()
        .map(|task| (task, measure(task)))
        .collect()
}

/// Prints one line per task: each variant's median, and after the first
/// its change against the first.
fn print_ab<const N: usize>(section: &str, names: [&str; N], rows: &AbRows<N>) {
    for (task, s) in rows {
        let mut line = format!("{:<24}", format!("{section}/{}", task.label()));
        for (i, (name, v)) in names.iter().zip(s).enumerate() {
            line.push_str(&format!(" {name} {:>8.3} ms", v * 1e3));
            if i > 0 {
                line.push_str(&format!(" ({:>+5.1}%)", (v / s[0] - 1.0) * 100.0));
            }
        }
        println!("{line}");
    }
}

/// The `--json` rows of an overhead A/B: per task, `<name>_s` for each
/// variant's median, then `<name>_overhead` against the first variant for
/// the others.
fn overhead_json<const N: usize>(names: [&str; N], rows: &AbRows<N>) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(task, s)| {
            let mut row = format!("{{\"task\":\"{}\"", task.label());
            for (name, v) in names.iter().zip(s) {
                row.push_str(&format!(",\"{name}_s\":{v:.6}"));
            }
            for (name, v) in names.iter().zip(s).skip(1) {
                row.push_str(&format!(",\"{name}_overhead\":{:.4}", v / s[0] - 1.0));
            }
            row.push('}');
            row
        })
        .collect();
    rows.join(",")
}

/// A recording watchdog over a fresh recorder.
fn watchdog() -> Arc<HealthMonitor> {
    let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
    Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            policy: AlertPolicy::Record,
            ..HealthConfig::default()
        },
    ))
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
    let pair = [Task::SeizurePrediction, Task::CompressLz4];
    let health_names = ["bare", "null", "health"];
    let health = interleaved(
        pair,
        channels,
        &rec,
        41,
        [
            &|_| {},
            &|sys| sys.attach_telemetry(Arc::new(NullSink)),
            &|sys| sys.attach_health(watchdog()),
        ],
    );
    print_ab("health", health_names, &health);

    // Continuous-telemetry overhead A/B: both sides run the watchdog; the
    // continuous side also records every window reading into the tsdb
    // and polls the SLO burn-rate engine at each power window, which must
    // cost ≤2% over the watchdog alone. More rounds than the other A/Bs:
    // the seizure replay is ~0.2 ms, so its median needs the extra
    // samples to settle inside that envelope.
    let continuous_names = ["health", "continuous"];
    let continuous = interleaved(
        pair,
        channels,
        &rec,
        101,
        [&|sys| sys.attach_health(watchdog()), &|sys| {
            sys.attach_continuous(Arc::new(ContinuousTelemetry::new(
                watchdog(),
                ContinuousConfig::default(),
            )))
        }],
    );
    print_ab("continuous", continuous_names, &continuous);

    // Causal-tracing overhead A/B: an attached tracer with sampling off
    // (the hot path pays the per-frame sampler check and per-burst tag
    // read, nothing else) must stay within the <2% envelope of no tracer
    // at all; 1-in-64 production sampling should remain cheap.
    let tracing_names = ["bare", "off", "sampled"];
    let tracing = interleaved(
        pair,
        channels,
        &rec,
        41,
        [
            &|_| {},
            &|sys| sys.attach_tracing(Arc::new(Tracer::new(7, 0))),
            &|sys| sys.attach_tracing(Arc::new(Tracer::new(7, 64))),
        ],
    );
    print_ab("tracing", tracing_names, &tracing);

    // Batched-dispatch A/B: quiet-chunk SoA dispatch vs the per-frame
    // scalar path on the two short feature pipelines it targets. Both
    // produce byte-identical outputs (the `kernel_batching` suite); this
    // measures only the speed difference.
    let block = interleaved(
        [Task::MovementIntent, Task::SeizurePrediction],
        channels,
        &rec,
        41,
        [&|sys| sys.set_block_dispatch(false), &|sys| {
            sys.set_block_dispatch(true)
        }],
    );
    print_ab("block", ["off", "on"], &block);

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
        for (key, rows) in [
            ("health_overhead", overhead_json(health_names, &health)),
            (
                "continuous_telemetry",
                overhead_json(continuous_names, &continuous),
            ),
            ("tracing_overhead", overhead_json(tracing_names, &tracing)),
        ] {
            json.push_str(&format!("],\"{key}\":[{rows}"));
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
        let block: Vec<String> = block
            .iter()
            .map(|(task, [off_s, on_s])| {
                format!(
                    "{{\"task\":\"{}\",\"off_s\":{off_s:.6},\"on_s\":{on_s:.6},\"speedup\":{:.2}}}",
                    task.label(),
                    off_s / on_s,
                )
            })
            .collect();
        json.push_str(&block.join(","));
        json.push_str("]}");
        let out = halo_bench::workspace_path(&path);
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
        println!("wrote {}", out.display());
    }
}
