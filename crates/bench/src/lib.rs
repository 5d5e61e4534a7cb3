//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§VI) against the simulator and the synthetic-data
//! substrate.
//!
//! Each module owns one artifact and prints the same rows/series the paper
//! reports:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table I — device capability comparison |
//! | [`table3`] | Table III — PE inventory and parameters |
//! | [`table4`] | Table IV — per-PE power/frequency/area and task sums |
//! | [`fig4`] | Figure 4 — HALO vs RISC-V software vs monolithic ASICs |
//! | [`fig5`] | Figure 5 — per-task power stacks and leak/dyn splits |
//! | [`fig6`] | Figure 6 — XCOR and LZMA co-design ladders |
//! | [`fig7`] | Figure 7 — history-length and interleave-depth sweeps |
//! | [`fig8`] | Figure 8 — compression block-size sweep |
//! | [`fig9`] | Figure 9 — arm vs leg regions, ratio and power |
//! | [`ablate`] | design-choice ablations (contexts, parser, counters, DWT depth, §VII BWT) |
//! | [`trace`] | `--telemetry` — instrumented runs, Chrome-trace export, `BENCH_telemetry.json` |
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p halo-bench --bin experiments -- all
//! ```
//!
//! Absolute numbers at the Table IV anchor points are the paper's own
//! (that is what "anchored model" means); measured quantities —
//! compression ratios, detector bandwidth fractions, radio rates — come
//! from running the actual pipelines over synthetic recordings, so shapes
//! (who wins, where sweeps peak, what busts the budget) are genuine
//! outputs of this reproduction.

pub mod ablate;
pub mod data;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod trace;

/// `path` under the workspace root, where the committed
/// `BENCH_telemetry.json` lives: unit tests run with the package directory
/// as CWD, and `experiments` may be started from anywhere. Host speed is
/// not measured here; the benchmark package (`benchmark run|trace|compare`)
/// does that and writes under `target/benchmark/`.
pub fn workspace_path(path: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// The nominal processing rate of the paper's design point, bytes/second.
pub const NOMINAL_RATE_BPS: f64 = 5_760_000.0;

/// Raw radio power at the nominal rate (200 pJ/bit × 46.08 Mbps).
pub const RAW_RADIO_MW: f64 = 9.216;

/// Steady-state controller power (leakage + 30% activity), mW.
pub fn controller_steady_mw() -> f64 {
    let a = halo_power::controller_anchor();
    (a.logic_leak_mw + a.mem_leak_mw)
        + (a.logic_dyn_mw + a.mem_dyn_mw) * halo_core::power::CONTROLLER_STEADY_ACTIVITY
}
