//! Figure 4: task power for HALO vs the best 1–64-core RISC-V software
//! design vs monolithic per-task ASICs, with the HALO-no-NoC idealization.

use crate::data::{measure_ratios, region_dataset, MEASURE_CHANNELS};
use crate::table4::model_task_total;
use crate::{controller_steady_mw, NOMINAL_RATE_BPS, RAW_RADIO_MW};
use halo_core::tasks::spike;
use halo_core::{HaloConfig, HaloSystem, Task};
use halo_pe::PeKind;
use halo_power::{circuit_switched_power_mw, MonolithicAsic, SoftwareBaseline};
use halo_signal::{RecordingConfig, RegionProfile};

/// Software cycles-per-byte on the Ibex core for each task, used by the
/// Figure 4 baseline. The NEO figure is grounded by executing a hand-
/// written RV32 NEO kernel on the simulator (see `tests/controller.rs`);
/// the rest are analytic estimates documented in EXPERIMENTS.md.
pub fn software_cycles_per_byte(task: Task) -> f64 {
    match task {
        Task::SpikeDetectNeo => 25.0,
        Task::SpikeDetectDwt => 40.0,
        Task::CompressLz4 => 120.0,
        Task::CompressLzma => 300.0,
        Task::CompressDwtma => 150.0,
        Task::MovementIntent => 30.0,
        Task::SeizurePrediction => 250.0,
        Task::EncryptRaw => 110.0,
    }
}

/// Radio power per task at the design rate, from quantities measured on
/// the synthetic data (compression ratios, spike-gate bandwidth).
pub fn measured_radio_mw() -> Vec<(Task, f64)> {
    // Compression ratios from the arm dataset (the less compressible
    // region — conservative).
    let ds = region_dataset(RegionProfile::arm(), 1, 1001);
    let rec = &ds.trials()[0].recording;
    let config = HaloConfig::new();
    let r = measure_ratios(
        rec,
        config.lz_history,
        config.block_bytes,
        config.interleave_depth,
    );

    // Spike-gate pass fraction from an end-to-end run.
    let spike_fraction = {
        let channels = MEASURE_CHANNELS;
        let cfg = HaloConfig::new().channels(channels);
        let baseline = RecordingConfig::new(RegionProfile::arm().without_spikes())
            .channels(channels)
            .duration_ms(100)
            .generate(1002);
        let thr = spike::calibrate_threshold(Task::SpikeDetectNeo, &cfg, &baseline, 1.5)
            .expect("calibration");
        let cfg = cfg.spike_threshold(thr);
        let mut sys = HaloSystem::new(Task::SpikeDetectNeo, cfg).expect("system");
        let rec = RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(200)
            .generate(1003);
        let m = sys.process(&rec).expect("run");
        m.bandwidth_fraction()
    };

    Task::all()
        .into_iter()
        .map(|task| {
            let mw = match task {
                Task::EncryptRaw => RAW_RADIO_MW,
                Task::CompressLz4 => RAW_RADIO_MW / r.lz4,
                Task::CompressLzma => RAW_RADIO_MW / r.lzma,
                Task::CompressDwtma => RAW_RADIO_MW / r.dwtma,
                Task::SpikeDetectNeo | Task::SpikeDetectDwt => RAW_RADIO_MW * spike_fraction,
                Task::MovementIntent | Task::SeizurePrediction => 0.05, // alerts only
            };
            (task, mw)
        })
        .collect()
}

/// One Figure 4 bar group.
pub struct Fig4Row {
    /// The task.
    pub task: Task,
    /// Best software configuration (cores, mW including radio), if feasible.
    pub software: Option<(usize, f64)>,
    /// HALO total (PEs + control + radio + stim + NoC).
    pub halo: f64,
    /// Monolithic-ASIC total.
    pub asic: f64,
    /// HALO without the configurable NoC.
    pub halo_no_noc: f64,
}

/// Computes the Figure 4 rows.
pub fn compute() -> Vec<Fig4Row> {
    let radios = measured_radio_mw();
    let noc = circuit_switched_power_mw(8, NOMINAL_RATE_BPS);
    radios
        .into_iter()
        .map(|(task, radio)| {
            let stim = if task.uses_stimulation() { 0.48 } else { 0.0 };
            let pes = model_task_total(task);
            let control = controller_steady_mw();
            let halo = pes + control + radio + stim + noc;
            let halo_no_noc = pes + control + radio + stim;
            let kinds: Vec<PeKind> = task
                .pe_kinds()
                .into_iter()
                .filter(|k| *k != PeKind::Interleaver)
                .collect();
            let asic = MonolithicAsic::power(&kinds).total_mw() + control + radio + stim;
            let software = SoftwareBaseline::new(software_cycles_per_byte(task))
                .best(NOMINAL_RATE_BPS)
                .map(|c| (c.cores, c.power_mw + radio + stim));
            Fig4Row {
                task,
                software,
                halo,
                asic,
                halo_no_noc,
            }
        })
        .collect()
}

/// Prints Figure 4.
pub fn run() {
    println!("Figure 4: task power (mW) — RISC-V software vs HALO vs monolithic ASIC");
    println!("(12 mW processing budget; log-scale in the paper)\n");
    println!(
        "{:<16} {:>16} {:>9} {:>9} {:>12} {:>9}",
        "task", "RISC-V (cores)", "HALO", "ASIC", "HALO-no-NoC", "SW/HALO"
    );
    for row in compute() {
        let (sw_str, ratio_str) = match row.software {
            Some((cores, mw)) => (
                format!("{mw:8.2} ({cores:2})"),
                format!("{:8.1}x", mw / row.halo),
            ),
            None => ("infeasible".to_string(), "-".to_string()),
        };
        println!(
            "{:<16} {:>16} {:>9.2} {:>9.2} {:>12.2} {:>9}",
            row.task.label(),
            sw_str,
            row.halo,
            row.asic,
            row.halo_no_noc,
            ratio_str
        );
    }
    println!(
        "\nshape checks: HALO under 12 mW everywhere; software multiples above;\nASIC ~2x HALO on heavy pipelines; the NoC costs <0.3 mW of configurability."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape_holds() {
        for row in compute() {
            assert!(row.halo <= 12.0, "{}: HALO {:.2}", row.task, row.halo);
            assert!(
                row.halo - row.halo_no_noc < 0.3,
                "{}: NoC overhead too large",
                row.task
            );
            if let Some((_, sw)) = row.software {
                assert!(
                    sw >= 4.0 * row.halo,
                    "{}: software {sw:.2} mW is under 4x HALO's {:.2} mW",
                    row.task,
                    row.halo
                );
            }
            assert!(row.asic > row.halo, "{}: ASIC should lose", row.task);
        }
    }
}
