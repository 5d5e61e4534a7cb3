//! The HALO benchmark: four workloads measured end to end with tracing
//! off, a separate traced pass for per-layer host time, and a `compare`
//! of two result files. See `README.md` beside this file.
//!
//! ```text
//! benchmark run   (--workload W | --all) [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark trace (--workload W | --all) [--seed N] [--out PATH]
//! benchmark compare A.json B.json
//! ```
//!
//! Run from the repository root: `BENCHMARK.json` there lists the
//! workloads and metrics, and results go under `target/benchmark/`. The
//! last line a single-workload run prints is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exit code 2 means bad
//! arguments or a refused `BENCHMARK.json`.

mod layers;
mod manifest;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

use halo_telemetry::json::{self, Value};

use manifest::{Manifest, MetricDef, END_TO_END, PER_LAYER};
use stats::{headline, percentile_sorted, quartiles, Spans, Verdict};
use workloads::{Fnv, Workload};

/// Version of the result-file layout; bumped only when a field tightens.
const SCHEMA: u64 = 1;

/// The seed a run uses unless told otherwise; its outputs are pinned.
const DEFAULT_SEED: u64 = 1;

/// Combined output digest of each workload's verification round at
/// [`DEFAULT_SEED`]. A change that alters any radio stream, detection or
/// stimulation of these runs must say so by updating the pin.
const PINNED_DIGESTS: [(&str, u64); 4] = [
    ("compress-96ch", 0x84e2_7985_e05a_7657),
    ("stream-96ch", 0x4dde_a93d_51cd_9340),
    ("closedloop-96ch", 0x0b9d_9619_b757_3984),
    ("fleet-8ch", 0xac0a_59f4_543d_aa9a),
];

/// Timed rounds of the traced pass.
const TRACED_ROUNDS: u32 = 3;

/// Fewest timed rounds a run makes, so quartiles exist.
const MIN_ROUNDS: usize = 3;

/// The workload whose `chunk_p99_us` is not reported: its tail is the few
/// chunks that close a feature window, and it moved by more than its
/// bound of a tenth between two runs of the same code.
const UNREPEATABLE_P99: &str = "closedloop-96ch";

/// Most worker threads the fleet workload uses.
const FLEET_MAX_THREADS: usize = 2;

const OUT_DIR: &str = "target/benchmark";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark run|trace (--workload W | --all) [--seed N] [--seconds S] \
                 [--trace 0|1] [--out PATH]\n       benchmark compare A.json B.json"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Parsed `run`/`trace` options.
struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: None,
        trace,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--all" => r.all = true,
            "--workload" => r.workload = Some(value()?.clone()),
            "--seed" => {
                r.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                r.seconds = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or("--seconds takes a positive whole number")?,
                )
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => r.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if r.all == r.workload.is_some() {
        return Err("give exactly one of --workload W and --all".into());
    }
    Ok(r)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let (cmd, rest) = args.split_first().ok_or("no subcommand")?;
    match cmd.as_str() {
        "run" | "trace" => {
            let r = parse_run_args(rest, cmd == "trace")?;
            let manifest = manifest::load("BENCHMARK.json").map_err(|e| e.to_string())?;
            if r.all {
                run_all(&manifest, &r)
            } else {
                let name = r.workload.as_deref().expect("checked above");
                if !manifest.workloads.iter().any(|w| w == name) {
                    return Err(format!("workload {name:?} is not in BENCHMARK.json"));
                }
                run_one(&manifest, name, &r)
            }
        }
        "compare" => match rest {
            [a, b] => {
                let manifest = manifest::load("BENCHMARK.json").map_err(|e| e.to_string())?;
                compare(&manifest, a, b)
            }
            _ => Err("compare takes two result files".into()),
        },
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// Runs every workload in its own child process, one after another, so
/// each reports its own peak memory; merges their result files.
fn run_all(manifest: &Manifest, r: &RunArgs) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mode = if r.trace { "trace" } else { "run" };
    let seconds = r.seconds.unwrap_or(manifest.run_seconds);
    let mut runs = Vec::new();
    let mut code = 0;
    for w in &manifest.workloads {
        let out = format!("{OUT_DIR}/{w}.{mode}.json");
        let status = Command::new(&exe)
            .args([
                "run",
                "--workload",
                w,
                "--trace",
                if r.trace { "1" } else { "0" },
            ])
            .args([
                "--seed",
                &r.seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--out",
                &out,
            ])
            .status()
            .map_err(|e| format!("starting {w}: {e}"))?;
        if !status.success() {
            eprintln!("benchmark: {w} exited with {status}");
            code = 1;
            continue;
        }
        let run = std::fs::read_to_string(&out).map_err(|e| format!("{out}: {e}"))?;
        if !load_run(&out, &run)?.iter().all(|r| r.correct) {
            eprintln!("benchmark: {w} produced wrong output");
            code = 1;
        }
        runs.push(run);
    }
    let out = r
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/{mode}.json"));
    write(
        &out,
        &format!("{{\"schema\":{SCHEMA},\"runs\":[{}]}}", runs.join(",")),
    )?;
    println!("wrote {out}");
    Ok(code)
}

fn write(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Samples of one metric, with its definition.
struct Measured {
    def: MetricDef,
    samples: Vec<f64>,
}

/// Metrics by name.
type MetricMap = BTreeMap<&'static str, Measured>;

fn put(map: &mut MetricMap, defs: &[MetricDef], name: &str, samples: Vec<f64>) {
    if !samples.is_empty() {
        let def = *defs
            .iter()
            .find(|d| d.name == name)
            .expect("catalogued metric");
        map.insert(def.name, Measured { def, samples });
    }
}

/// What the timed (or traced) rounds of one run measured.
struct Timed {
    rounds: u32,
    attempted: u64,
    failed: u64,
    rtf: Vec<f64>,
    setup_s: Vec<f64>,
    chunk_p50_us: Vec<f64>,
    chunk_p99_us: Vec<f64>,
    peak_mb: f64,
    spans: Spans,
    /// The last traced round, kept for its fleet reports.
    last: Option<workloads::Round>,
}

/// Runs rounds — `TRACED_ROUNDS` of them with spans kept when tracing,
/// otherwise until `seconds` pass — and counts an operation as failed
/// when it errs or its digest differs from the verification round's.
fn timed_rounds(wl: &Workload, trace: bool, seconds: Duration, expected: &[Option<u64>]) -> Timed {
    let mut t = Timed {
        rounds: 0,
        attempted: 0,
        failed: 0,
        rtf: Vec::new(),
        setup_s: Vec::new(),
        chunk_p50_us: Vec::new(),
        chunk_p99_us: Vec::new(),
        peak_mb: 0.0,
        spans: Spans::new(trace),
        last: None,
    };
    let mut chunk_ns = Vec::new();
    let start = Instant::now();
    while if trace {
        t.rounds < TRACED_ROUNDS
    } else {
        (t.rounds as usize) < MIN_ROUNDS || start.elapsed() < seconds
    } {
        t.spans.set_round(t.rounds);
        chunk_ns.clear();
        let round = wl.round(&mut t.spans, &mut chunk_ns);
        t.attempted += round.digests.len() as u64;
        t.failed += round
            .digests
            .iter()
            .enumerate()
            .filter(|(i, d)| d.is_none() || expected.get(*i).is_some_and(|e| e != *d))
            .count() as u64;
        t.rtf
            .push(round.signal_s / (round.host_ns.max(1) as f64 / 1e9));
        t.setup_s.push(round.setup_ns as f64 / 1e9);
        if !chunk_ns.is_empty() {
            chunk_ns.sort_by(f64::total_cmp);
            t.chunk_p50_us
                .push(percentile_sorted(&chunk_ns, 50.0) / 1e3);
            if stats::highest_supported_percentile(chunk_ns.len()).is_some_and(|p| p >= 99.0) {
                t.chunk_p99_us
                    .push(percentile_sorted(&chunk_ns, 99.0) / 1e3);
            }
        }
        t.rounds += 1;
        // Memory is read after a fixed amount of work, so a build that
        // fits more rounds into the run does not read as a bigger one.
        if t.rounds as usize == MIN_ROUNDS {
            t.peak_mb = peak_rss_mb();
        }
        if trace {
            t.last = Some(round);
        }
    }
    t
}

/// The traced pass's per-layer metrics and their per-pipeline and
/// per-span detail; returns whether every standalone replay reproduced
/// its system.
fn traced_layers(
    wl: &Workload,
    seed: u64,
    t: &Timed,
    metrics: &mut MetricMap,
    detail: &mut layers::Layers,
) -> bool {
    let mut ok = true;
    let mut layer = layers::Layers::new();
    layer.insert("trace.rtf".into(), headline(&t.rtf, true));
    let device = &wl.device;
    match layers::decompose(device, seed, &mut layer, detail) {
        Ok((reproduced, reports)) => {
            if !reproduced {
                eprintln!("a standalone PE replay did not reproduce its system");
                ok = false;
            }
            let fleet = t
                .last
                .as_ref()
                .map(|l| &l.reports)
                .filter(|r| !r.is_empty());
            layers::reporting(fleet.unwrap_or(&reports), &mut layer);
        }
        Err(e) => {
            eprintln!("decomposition failed: {e}");
            ok = false;
        }
    }
    layers::kernels(&device.base, &device.recordings[0], &mut layer);
    if let Some(stats) = t.last.as_ref().and_then(|l| l.fleet_stats.as_ref()) {
        detail.insert("fleet.steals".into(), stats.steals as f64);
        detail.insert("fleet.batches".into(), stats.batches as f64);
    }
    for (span, ns) in stats::self_time_ns(t.spans.spans()) {
        detail.insert(
            format!("self_ms.{span}"),
            ns as f64 / 1e6 / f64::from(t.rounds),
        );
    }
    for (name, v) in layer {
        put(metrics, &PER_LAYER, &name, vec![v]);
    }
    ok
}

fn run_one(manifest: &Manifest, name: &str, r: &RunArgs) -> Result<i32, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if name == "fleet-8ch" {
        FLEET_MAX_THREADS.min(nproc)
    } else {
        1
    };
    eprintln!("{name}: generating inputs (seed {})", r.seed);
    let wl = Workload::new(name, r.seed, threads);

    // Untimed verification round (it doubles as the warm-up): its digests
    // are what every timed round must reproduce.
    let (expected, modeled, mut correct) = match wl.verify() {
        Ok(round) => (round.digests.clone(), modeled(&wl, &round), true),
        Err(e) => {
            eprintln!("{name}: verification failed: {e}");
            (Vec::new(), Vec::new(), false)
        }
    };
    let digest = combine(&expected);
    if r.seed == DEFAULT_SEED {
        let pinned = PINNED_DIGESTS.iter().find(|(w, _)| *w == name).map(|p| p.1);
        if pinned != Some(digest) {
            eprintln!("{name}: output digest {digest:016x} differs from the pinned {pinned:016x?}");
            correct = false;
        }
    }

    let seconds = Duration::from_secs(r.seconds.unwrap_or(manifest.run_seconds));
    let mut t = timed_rounds(&wl, r.trace, seconds, &expected);
    let mut metrics = MetricMap::new();
    let mut detail = layers::Layers::new();
    if r.trace {
        correct &= traced_layers(&wl, r.seed, &t, &mut metrics, &mut detail);
    }
    // A failed check leaves no output that can be vouched for, so every
    // operation of the run counts as failed.
    if !correct {
        t.failed = t.attempted;
    }
    correct &= t.failed == 0;
    if !r.trace {
        let m = &mut metrics;
        put(m, &END_TO_END, "rtf", t.rtf.clone());
        put(m, &END_TO_END, "setup_s", t.setup_s.clone());
        put(m, &END_TO_END, "peak_rss_mb", vec![t.peak_mb]);
        put(
            m,
            &END_TO_END,
            "fail_rate",
            vec![t.failed as f64 / t.attempted.max(1) as f64],
        );
        put(m, &END_TO_END, "chunk_p50_us", t.chunk_p50_us.clone());
        if name != UNREPEATABLE_P99 {
            put(m, &END_TO_END, "chunk_p99_us", t.chunk_p99_us.clone());
        }
        for (metric, v) in modeled {
            put(m, &END_TO_END, metric, vec![v]);
        }
    }

    for m in metrics.values() {
        let [q1, q2, q3] = quartiles(&m.samples);
        println!(
            "{name:<16} {:<44} {:>16.6} {:<12} n={:<4} q1={q1:.6} median={q2:.6} q3={q3:.6}",
            m.def.name,
            headline(&m.samples, m.def.higher_is_better),
            m.def.unit,
            m.samples.len()
        );
    }
    let degenerate = name == "fleet-8ch" && nproc <= 2;
    if degenerate {
        println!("{name:<16} {threads} worker(s) on {nproc} core(s): degenerate parallelism, not a scaling point");
    }

    let mode = if r.trace { "trace" } else { "run" };
    let header = format!(
        "\"schema\":{SCHEMA},\"git_rev\":{},\"nproc\":{nproc},\"workload\":{},\"mode\":\"{mode}\",\
         \"seed\":{},\"rounds\":{},\"threads\":{threads},\"degenerate_parallelism\":{degenerate},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{},\"digest\":\"{digest:016x}\"",
        json::string(&git_rev()),
        json::string(name),
        r.seed,
        t.rounds,
        t.attempted,
        t.failed,
    );
    let out = r
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/{name}.{mode}.json"));
    write(&out, &result_json(&header, &metrics, &detail, &t.spans))?;
    eprintln!("{name}: wrote {out}");

    // The contract line: every metric `BENCHMARK.json` lists for this
    // mode, by name.
    let listed = if r.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut fields = Vec::new();
    for l in listed {
        let m = metrics
            .get(l.def.name)
            .ok_or_else(|| format!("{name} did not measure {}", l.def.name))?;
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::string(l.def.name),
            json::number(headline(&m.samples, m.def.higher_is_better)),
            json::string(l.def.unit)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted.max(1),
        t.failed,
        fields.join(",")
    );
    Ok(0)
}

/// One run's result file: the header fields, every metric's samples, the
/// detail map and the spans.
fn result_json(
    header: &str,
    metrics: &MetricMap,
    detail: &layers::Layers,
    spans: &Spans,
) -> String {
    let join = |items: Vec<String>| items.join(",");
    let metrics = join(
        metrics
            .values()
            .map(|m| {
                format!(
                    "{}:{{\"unit\":{},\"higher_is_better\":{},\"samples\":[{}]}}",
                    json::string(m.def.name),
                    json::string(m.def.unit),
                    m.def.higher_is_better,
                    join(m.samples.iter().map(|v| json::number(*v)).collect())
                )
            })
            .collect(),
    );
    let detail = join(
        detail
            .iter()
            .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
            .collect(),
    );
    let spans = join(
        spans
            .spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "[{},{},{},{parent},{}]",
                    json::string(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.round
                )
            })
            .collect(),
    );
    format!("{{{header},\"metrics\":{{{metrics}}},\"detail\":{{{detail}}},\"spans\":[{spans}]}}")
}

/// The modeled outputs of a device workload's verification round: mean
/// whole-device power, and for an all-compression workload the ratio of
/// raw to transmitted bytes.
fn modeled(wl: &Workload, round: &workloads::Round) -> Vec<(&'static str, f64)> {
    if wl.is_fleet() {
        return Vec::new();
    }
    let runs: Vec<_> = round.outputs.iter().flatten().collect();
    let mw = runs.iter().map(|o| o.device_mw).sum::<f64>() / runs.len().max(1) as f64;
    let mut out = vec![("device_mw", mw)];
    if wl.device.streams.iter().all(|s| s.task.is_compression()) {
        let input: u64 = runs.iter().map(|o| o.input_bytes).sum();
        let radio: u64 = runs.iter().map(|o| o.radio_bytes).sum();
        out.push(("compression_ratio", input as f64 / radio.max(1) as f64));
    }
    out
}

/// One digest over every operation's output; a failed one counts as 0.
fn combine(digests: &[Option<u64>]) -> u64 {
    let mut h = Fnv::default();
    for d in digests {
        h.bytes(&d.unwrap_or(0).to_le_bytes());
    }
    h.0
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
        None => Some(head),
    };
    rev.map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A run object from a result file: its workload, mode, output check, and
/// metric samples.
struct RunResult {
    workload: String,
    mode: String,
    correct: bool,
    failed: f64,
    attempted: f64,
    metrics: Vec<(String, Vec<f64>)>,
    detail: Vec<(String, f64)>,
}

fn load_runs(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    load_run(path, &text)
}

/// The runs of result file `text` (read from `path`): one run, or the
/// merged runs of `run --all`.
fn load_run(path: &str, text: &str) -> Result<Vec<RunResult>, String> {
    let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let runs = match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.to_vec(),
        None => vec![doc],
    };
    let bad = |what: &str| format!("{path}: run without {what}");
    runs.iter()
        .map(|r| {
            let members = |key: &str| match r.get(key) {
                Some(Value::Object(m)) => Ok(m.clone()),
                _ => Err(bad(key)),
            };
            Ok(RunResult {
                workload: r
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("workload"))?
                    .into(),
                mode: r
                    .get("mode")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("mode"))?
                    .into(),
                correct: r
                    .get("correct")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| bad("correct"))?,
                failed: r
                    .get("failed")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad("failed"))?,
                attempted: r
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad("attempted"))?,
                metrics: members("metrics")?
                    .into_iter()
                    .map(|(k, v)| {
                        let samples = v
                            .get("samples")
                            .and_then(Value::as_array)
                            .map(|s| s.iter().filter_map(Value::as_f64).collect::<Vec<_>>())
                            .filter(|s| !s.is_empty())
                            .ok_or_else(|| bad("metric samples"))?;
                        Ok((k, samples))
                    })
                    .collect::<Result<_, String>>()?,
                detail: members("detail")?
                    .into_iter()
                    .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

/// Compares result file `b` against base `a`: per (workload, metric) the
/// reported value (the fast decile, see [`headline`]) and the quartiles of
/// both sides, and a verdict on the reported value against the metric's
/// bound; for traced runs, the per-layer and self-time changes ranked by
/// size, naming the host layer that moved. Exit code 1 on any end-to-end
/// regression, a higher fail rate, or wrong output in `b`.
fn compare(manifest: &Manifest, a: &str, b: &str) -> Result<i32, String> {
    let (base, new) = (load_runs(a)?, load_runs(b)?);
    let mut regressed = false;
    for ra in &base {
        let Some(rb) = new
            .iter()
            .find(|r| r.workload == ra.workload && r.mode == ra.mode)
        else {
            println!("{} ({}): missing from {b}", ra.workload, ra.mode);
            continue;
        };
        for (r, path) in [(ra, a), (rb, b)] {
            if !r.correct {
                println!("{} ({}): wrong output in {path}", r.workload, r.mode);
            }
        }
        regressed |= !rb.correct;
        let rate = |r: &RunResult| r.failed / r.attempted.max(1.0);
        if rate(rb) > rate(ra) {
            println!(
                "{}: fail rate rose from {} to {}",
                ra.workload,
                rate(ra),
                rate(rb)
            );
            regressed = true;
        }
        let mut moves = Vec::new();
        for (name, sa) in &ra.metrics {
            let Some((_, sb)) = rb.metrics.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let def = END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name);
            let Some(def) = def else { continue };
            let (ha, hb) = (
                headline(sa, def.higher_is_better),
                headline(sb, def.higher_is_better),
            );
            let delta = stats::worsening(ha, hb, def.higher_is_better);
            if ra.mode == "trace" {
                moves.push((delta, name.clone(), ha, hb));
                continue;
            }
            let bound = manifest.bound(name);
            let v = stats::verdict(sa, sb, def.higher_is_better, bound);
            regressed |= v == Verdict::Worse;
            let [a1, a2, a3] = quartiles(sa);
            let [b1, b2, b3] = quartiles(sb);
            println!(
                "{:<16} {:<18} {ha:>14.6} (q1 {a1:.6} median {a2:.6} q3 {a3:.6} n={}) -> {hb:>14.6} (q1 {b1:.6} median {b2:.6} q3 {b3:.6} n={}) {:>+7.2}% worse (bound {:.0}%) {}",
                ra.workload,
                name,
                sa.len(),
                sb.len(),
                delta * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        if ra.mode == "trace" {
            for (name, va) in &ra.detail {
                if let Some((_, vb)) = rb.detail.iter().find(|(n, _)| n == name) {
                    moves.push((stats::worsening(*va, *vb, false), name.clone(), *va, *vb));
                }
            }
            moves.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
            println!(
                "{}: host layers that moved most (share worse, base -> new)",
                ra.workload
            );
            for (delta, name, va, vb) in moves.iter().take(12) {
                println!("  {:>+8.2}%  {name:<48} {va:.6} -> {vb:.6}", delta * 100.0);
            }
        }
    }
    Ok(i32::from(regressed))
}
