//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p halo-bench --bin experiments -- all
//! cargo run --release -p halo-bench --bin experiments -- fig4 fig9
//! cargo run --release -p halo-bench --bin experiments -- --telemetry trace.json
//! ```
//!
//! `--telemetry <out.json>` runs instrumented demo pipelines instead of
//! (or alongside) the paper artifacts: it prints each run's Prometheus
//! exposition, writes a Perfetto-loadable Chrome trace to `<out.json>`, and
//! rewrites the committed counter baseline `BENCH_telemetry.json`.

use halo_bench::{ablate, fig4, fig5, fig6, fig7, fig8, fig9, table1, table3, table4, trace};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // `--telemetry <path>` is an experiment of its own.
    let mut telemetry_out = None;
    if let Some(i) = args.iter().position(|a| a == "--telemetry") {
        if i + 1 >= args.len() {
            eprintln!("--telemetry requires an output path, e.g. --telemetry trace.json");
            std::process::exit(2);
        }
        telemetry_out = Some(args[i + 1].clone());
        args.drain(i..=i + 1);
    }
    if let Some(path) = &telemetry_out {
        trace::run(path);
        if args.is_empty() {
            return;
        }
        println!("\n{}\n", "=".repeat(78));
    }

    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1", "table3", "table4", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablate",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for (i, name) in selected.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(78));
        }
        match *name {
            "table1" => table1::run(),
            "table3" => table3::run(),
            "table4" => table4::run(),
            "fig4" => fig4::run(),
            "fig5" => fig5::run(),
            "fig6" => fig6::run(),
            "fig7" => fig7::run(),
            "fig8" => fig8::run(),
            "fig9" => fig9::run(),
            "ablate" => ablate::run(),
            other => {
                eprintln!("unknown experiment `{other}`");
                eprintln!(
                    "available: table1 table3 table4 fig4 fig5 fig6 fig7 fig8 fig9 ablate all, \
                     plus --telemetry <out.json>"
                );
                std::process::exit(2);
            }
        }
    }
}
