//! `--telemetry` — instrumented demo runs with Chrome-trace export and a
//! machine-readable `BENCH_telemetry.json` baseline.
//!
//! Runs the seizure-prediction and LZMA-compression pipelines with a
//! [`Recorder`] attached, prints the Prometheus exposition of each, writes
//! the seizure run's Chrome Trace (load it at `ui.perfetto.dev` or
//! `chrome://tracing`) to the requested path, and rewrites the committed
//! `BENCH_telemetry.json` counter baseline at the workspace root (a unit
//! test checks the committed file regenerates byte for byte).

use std::sync::Arc;

use halo_core::tasks::seizure;
use halo_core::{HaloConfig, HaloSystem, Task, TaskMetrics};
use halo_signal::{Recording, RecordingConfig, RegionProfile};
use halo_telemetry::{chrome_trace, expose, json, Recorder};

/// The demo tasks, in baseline order.
const TASKS: [Task; 2] = [Task::SeizurePrediction, Task::CompressLzma];

/// A demo scenario for `task`: a config (trained where the task needs it)
/// and a session recording that exercises the full pipeline.
fn scenario(task: Task) -> (HaloConfig, Recording) {
    match task {
        Task::SeizurePrediction => {
            let channels = 8;
            let config = HaloConfig::small_test(channels).channels(channels);
            let window = config.feature_window_frames();
            let train_a = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(700)
                .seizure_at(6 * window, 14 * window)
                .generate(9);
            let train_b = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(700)
                .seizure_at(12 * window, 20 * window)
                .generate(19);
            let svm = seizure::train(&config, &[&train_a, &train_b]).expect("training");
            let session = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(700)
                .seizure_at(8 * window, 16 * window)
                .generate(10);
            (config.with_svm(svm), session)
        }
        _ => {
            let channels = 8;
            let config = HaloConfig::small_test(channels).channels(channels);
            let session = RecordingConfig::new(RegionProfile::arm())
                .channels(channels)
                .duration_ms(400)
                .generate(7);
            (config, session)
        }
    }
}

fn instrumented_run(task: Task) -> (Task, Arc<Recorder>, TaskMetrics) {
    let (config, session) = scenario(task);
    let sample_rate = config.sample_rate_hz;
    let mut system = HaloSystem::new(task, config).expect("system");
    let recorder = Arc::new(Recorder::new(65_536).with_sample_rate_hz(sample_rate));
    system.attach_telemetry(recorder.clone());
    // Reprogram the switches under telemetry so the firmware-driven
    // bring-up (switch words, controller cycles) lands in the trace too.
    system.reconfigure(task).expect("reconfigure");
    let metrics = system.process(&session).expect("process");
    (task, recorder, metrics)
}

/// One task's entry in `BENCH_telemetry.json`.
fn task_json(task: Task, recorder: &Recorder, metrics: &TaskMetrics) -> String {
    let snap = recorder.snapshot();
    let pes: Vec<String> = snap
        .pes
        .iter()
        .map(|p| {
            format!(
                "{{\"slot\":{},\"name\":{},\"busy_cycles\":{},\"stall_cycles\":{},\
                 \"bytes_in\":{},\"bytes_out\":{},\"fifo_high_water\":{}}}",
                p.slot,
                json::string(p.name),
                p.busy_cycles,
                p.stall_cycles,
                p.bytes_in,
                p.bytes_out,
                p.fifo_high_water
            )
        })
        .collect();
    let links: Vec<String> = snap
        .links
        .iter()
        .map(|l| {
            format!(
                "{{\"from\":{},\"to\":{},\"bytes\":{},\"transfers\":{}}}",
                l.from, l.to, l.bytes, l.transfers
            )
        })
        .collect();
    format!(
        "{{\"task\":{},\"frames\":{},\"duration_s\":{},\"input_bytes\":{},\
         \"radio_bytes\":{},\"bus_bytes\":{},\"switches\":{},\
         \"noc_bus_utilization\":{},\"total_busy_cycles\":{},\
         \"controller_cycles\":{},\"dropped_events\":{},\
         \"pes\":[{}],\"links\":[{}]}}",
        json::string(task.label()),
        metrics.frames,
        json::number(metrics.duration_s),
        metrics.input_bytes,
        metrics.radio_bytes,
        metrics.bus_bytes,
        metrics.switches,
        json::number(metrics.noc_bus_utilization()),
        metrics.total_busy_cycles(),
        metrics.controller_cycles,
        recorder.dropped_events(),
        pes.join(","),
        links.join(",")
    )
}

/// The `BENCH_telemetry.json` document for one instrumented run per
/// task in [`TASKS`] order.
fn baseline(runs: &[(Task, Arc<Recorder>, TaskMetrics)]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|(task, recorder, metrics)| task_json(*task, recorder, metrics))
        .collect();
    let doc = format!("{{\"tasks\":[{}]}}", entries.join(","));
    json::validate(&doc).expect("baseline must be valid JSON");
    doc
}

/// Runs the instrumented demos. Writes the seizure run's Chrome trace to
/// `trace_path` and the counter baseline to `BENCH_telemetry.json`.
pub fn run(trace_path: &str) {
    println!("telemetry demo — instrumented pipeline runs\n");

    let runs = TASKS.map(instrumented_run);
    for (task, recorder, _) in &runs {
        println!("{}", expose::render(recorder));
        if *task == Task::SeizurePrediction {
            let trace = chrome_trace::render(recorder);
            json::validate(&trace).expect("trace must be valid JSON");
            if let Err(e) = std::fs::write(trace_path, &trace) {
                eprintln!("error: cannot write {trace_path}: {e}");
                std::process::exit(1);
            }
            println!(
                "wrote {trace_path} ({} bytes) — open at ui.perfetto.dev\n",
                trace.len()
            );
        }
    }

    let doc = baseline(&runs);
    let path = crate::workspace_path("BENCH_telemetry.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} bytes)", path.display(), doc.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_regenerates_exactly() {
        let path = crate::workspace_path("BENCH_telemetry.json");
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert!(
            baseline(&TASKS.map(instrumented_run)) == committed,
            "BENCH_telemetry.json no longer matches the instrumented runs; \
             regenerate it with `experiments -- --telemetry <trace.json>`"
        );
    }
}
