//! Fleet observatory: run hundreds of concurrent patient sessions and
//! roll their telemetry up into one exposition plus a triage report.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p halo-fleet --example fleet_observatory
//! cargo run --release -p halo-fleet --example fleet_observatory -- \
//!     --sessions 64 --frames 1200 --threads 4 --out-dir target/fleet
//! ```
//!
//! Writes `fleet_exposition.prom` and `fleet_triage.json` under
//! `--out-dir` (default `target/fleet`; nothing is written to the
//! repository root). Exits nonzero if any session raised a critical
//! watchdog alert or failed — CI runs this as the fleet smoke test.

use std::path::PathBuf;

use halo_fleet::{scheduler, FleetConfig, FleetRollup, FleetSession, SessionSpec};

struct Args {
    sessions: usize,
    frames: usize,
    batch: usize,
    threads: usize,
    top: usize,
    budget_mw: Option<f64>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sessions: 256,
        frames: 600,
        batch: 64,
        threads: 0,
        top: 5,
        budget_mw: None,
        out_dir: PathBuf::from("target/fleet"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sessions" => {
                args.sessions = val("--sessions")?.parse().map_err(|e| format!("{e}"))?
            }
            "--frames" => args.frames = val("--frames")?.parse().map_err(|e| format!("{e}"))?,
            "--batch" => args.batch = val("--batch")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => args.threads = val("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--top" => args.top = val("--top")?.parse().map_err(|e| format!("{e}"))?,
            "--budget-mw" => {
                args.budget_mw = Some(val("--budget-mw")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out-dir" => args.out_dir = PathBuf::from(val("--out-dir")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| {
        format!("{e}\nflags: --sessions --frames --batch --threads --top --budget-mw --out-dir")
    })?;

    let mut config = FleetConfig::default()
        .frames_per_session(args.frames)
        .batch_frames(args.batch)
        .threads(args.threads);
    if let Some(mw) = args.budget_mw {
        config = config.budget_mw(mw);
    }

    let specs = SessionSpec::mixed(args.sessions, &config);
    println!(
        "fleet observatory: {} sessions x {} frames, batch {} frames, {} worker thread(s)",
        args.sessions,
        args.frames,
        config.batch_frames,
        scheduler::resolve_threads(config.threads),
    );

    // Build every session up front (shared seizure SVM trained once),
    // then drive them concurrently.
    let svm = halo_fleet::session::train_shared_svm(&config)?;
    let mut sessions = Vec::with_capacity(specs.len());
    for spec in specs {
        sessions.push(FleetSession::build(spec, &config, Some(&svm))?);
    }
    let fleet_registry = halo_fleet::FleetRegistry::new(config.shards);
    let stats = scheduler::run_sessions(sessions, &config, &fleet_registry);
    let reports = fleet_registry.into_reports();

    // One rollup reads every session once; the summary, both written
    // reports and the top rows all render from it.
    let rollup = FleetRollup::from_reports(&reports);
    println!(
        "completed {}/{} sessions in {:.2?} ({:.1} sessions/s, {} batches, {} steals)",
        rollup.completed,
        rollup.sessions,
        stats.elapsed,
        stats.sessions_per_sec(),
        stats.batches,
        stats.steals,
    );
    println!(
        "fleet: {} frames, {} radio bytes, {:.2} mW aggregate, alerts info/warn/crit = {}/{}/{}",
        rollup.frames,
        rollup.radio_bytes,
        rollup.device_mw,
        rollup.severity_counts[0],
        rollup.severity_counts[1],
        rollup.severity_counts[2],
    );
    println!(
        "exemplar tracing: {} frames sampled, {} span trees completed",
        rollup.traces_sampled, rollup.traces_completed,
    );

    std::fs::create_dir_all(&args.out_dir)?;
    let expo_path = args.out_dir.join("fleet_exposition.prom");
    std::fs::write(&expo_path, rollup.render_exposition())?;
    let triage_path = args.out_dir.join("fleet_triage.json");
    std::fs::write(&triage_path, rollup.render_triage(args.top))?;
    println!(
        "wrote {} and {}",
        expo_path.display(),
        triage_path.display()
    );

    println!("\ntop {} sessions by triage score:", args.top);
    for row in rollup.worst_sessions(args.top) {
        let (counts, report) = (row.session.health.severity_counts, row.session.report);
        println!(
            "  session {:>3} [{}] score {:>12.1}  alerts i/w/c {}/{}/{}  {}",
            report.spec.id,
            report.spec.task.label(),
            row.score,
            counts[0],
            counts[1],
            counts[2],
            report.error.as_deref().unwrap_or(if report.completed() {
                "ok"
            } else {
                "incomplete"
            }),
        );
    }

    // CI contract: a healthy fleet raises no critical alerts and loses
    // no sessions. (An induced-overload run via --budget-mw is expected
    // to fail here; that is the point.)
    let criticals = rollup.severity_counts[2];
    if criticals > 0 || rollup.failed > 0 {
        eprintln!(
            "FLEET UNHEALTHY: {criticals} critical alert(s), {} failed session(s)",
            rollup.failed
        );
        std::process::exit(1);
    }
    Ok(())
}
