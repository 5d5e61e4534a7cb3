//! The Figure 4 comparison points: all-software RISC-V arrays and
//! monolithic per-task ASICs.

use crate::model::PePower;
use crate::table::{controller_anchor, pe_anchor};
use halo_pe::PeKind;
use halo_riscv::CORE_SWEEP;

/// A feasible software design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareConfig {
    /// Core count.
    pub cores: usize,
    /// Per-core clock, MHz.
    pub core_mhz: f64,
    /// Total processing power, mW.
    pub power_mw: f64,
}

/// The all-software baseline: the task runs on 1–64 Ibex cores with the 96
/// channel streams partitioned across them (§VI-A).
///
/// Cores are the taped-out 25 MHz design scaled with
/// voltage-and-frequency: dynamic power ∝ f·V², leakage ∝ V, with
/// V(f) = 0.7 + 0.3·(f/25 MHz) clamped to 1.2 (mild overdrive allowed,
/// at quadratic cost). This is why the paper's per-task best
/// configurations land at different core counts: more cores lower the
/// per-core frequency and voltage (cubic dynamic savings) but pay linear
/// leakage.
///
/// # Example
///
/// ```
/// use halo_power::SoftwareBaseline;
/// // NEO-style spike detection at ~25 cycles/byte over 5.76 MB/s.
/// let sw = SoftwareBaseline::new(25.0);
/// let best = sw.best(5_760_000.0).expect("feasible");
/// assert!(best.power_mw > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareBaseline {
    cycles_per_byte: f64,
}

/// Maximum per-core frequency the overdriven Ibex supports, MHz.
pub const MAX_CORE_MHZ: f64 = 50.0;

const ANCHOR_MHZ: f64 = 25.0;
const V_ANCHOR: f64 = 1.0;

fn voltage(f_mhz: f64) -> f64 {
    (0.7 + 0.3 * (f_mhz / ANCHOR_MHZ)).clamp(0.7, 1.2)
}

impl SoftwareBaseline {
    /// Creates a baseline for a kernel costing `cycles_per_byte` on Ibex.
    ///
    /// # Panics
    ///
    /// Panics unless `cycles_per_byte` is positive.
    pub fn new(cycles_per_byte: f64) -> Self {
        assert!(cycles_per_byte > 0.0, "cycle cost must be positive");
        Self { cycles_per_byte }
    }

    /// The configured cycle cost.
    pub fn cycles_per_byte(&self) -> f64 {
        self.cycles_per_byte
    }

    /// Power of an `n`-core partitioning at `bytes_per_second`, or `None`
    /// if the per-core frequency exceeds [`MAX_CORE_MHZ`].
    pub fn power_at(&self, cores: usize, bytes_per_second: f64) -> Option<SoftwareConfig> {
        assert!(cores > 0, "need at least one core");
        let total_mhz = self.cycles_per_byte * bytes_per_second / 1e6;
        let core_mhz = total_mhz / cores as f64;
        if core_mhz > MAX_CORE_MHZ {
            return None;
        }
        let a = controller_anchor();
        let v = voltage(core_mhz);
        let leak = (a.logic_leak_mw + a.mem_leak_mw) * (v / V_ANCHOR);
        let dyn_anchor = a.logic_dyn_mw + a.mem_dyn_mw;
        let dyn_mw = dyn_anchor * (core_mhz / ANCHOR_MHZ) * (v / V_ANCHOR).powi(2);
        let power_mw = cores as f64 * (leak + dyn_mw);
        Some(SoftwareConfig {
            cores,
            core_mhz,
            power_mw,
        })
    }

    /// The lowest-power feasible configuration over the paper's 1–64
    /// power-of-two sweep, or `None` if even 64 cores cannot sustain the
    /// rate.
    pub fn best(&self, bytes_per_second: f64) -> Option<SoftwareConfig> {
        CORE_SWEEP
            .iter()
            .filter_map(|&n| self.power_at(n, bytes_per_second))
            .min_by(|a, b| a.power_mw.total_cmp(&b.power_mw))
    }
}

/// The monolithic per-task ASIC baseline (§I, §VI-A): one fused accelerator
/// per task, in a single clock domain, *without* HALO's co-design
/// optimizations.
///
/// Two penalties relative to HALO's PE array:
///
/// * **Single clock domain** — every kernel's logic clocks at the fastest
///   constituent's frequency instead of its own minimum (§IV's central
///   claim), inflating dynamic power by `f_max / f_kernel`.
/// * **No co-design** — the Figure 6 ladders run in reverse: spatial
///   reprogramming (2.2× on XCOR, 1.5× on LZ), the MA/RC locality split
///   (2×), initialization circuits (1.8×), pipelining and precision
///   trimming (1.2–1.6×) are all absent.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonolithicAsic;

impl MonolithicAsic {
    /// The Figure 6-derived inflation factor for a kernel implemented
    /// without HALO's co-design techniques.
    pub fn unoptimized_factor(kind: PeKind) -> f64 {
        match kind {
            // Figure 6 left: 13 mW initial vs 4.6 mW final.
            PeKind::Xcor => 2.8,
            // §IV-B: spatial reprogramming alone buys 1.5x on LZ.
            PeKind::Lz => 1.5,
            // Figure 3 / Figure 6 right: unsplit MA + no counter
            // saturation + standalone init phase.
            PeKind::Ma => 2.0,
            // §IV-B: 32-bit instead of 16-bit integers in RC costs 1.6x.
            PeKind::Rc => 1.6,
            // Generic loss of pipelining/precision tuning elsewhere.
            _ => 1.2,
        }
    }

    /// Power of the fused ASIC implementing `kinds` as one block.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    pub fn power(kinds: &[PeKind]) -> PePower {
        assert!(!kinds.is_empty(), "a task needs at least one kernel");
        let f_max = kinds
            .iter()
            .map(|&k| pe_anchor(k).freq_mhz)
            .fold(0.0f64, f64::max);
        let mut total = PePower::default();
        for &kind in kinds {
            let a = pe_anchor(kind);
            let factor = Self::unoptimized_factor(kind) * (f_max / a.freq_mhz);
            let p = PePower {
                logic_leak_mw: a.logic_leak_mw,
                logic_dyn_mw: a.logic_dyn_mw * factor,
                mem_leak_mw: a.mem_leak_mw,
                mem_dyn_mw: a.mem_dyn_mw * factor,
            };
            total = total.add(&p);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 5_760_000.0; // 46 Mbps in bytes/s

    #[test]
    fn infeasible_rates_return_none() {
        let sw = SoftwareBaseline::new(10_000.0); // absurd kernel
        assert!(sw.best(RATE).is_none());
        assert!(sw.power_at(64, RATE).is_none());
    }

    #[test]
    fn best_balances_leakage_and_voltage() {
        let sw = SoftwareBaseline::new(100.0); // 576 MHz aggregate
        let best = sw.best(RATE).expect("feasible at >=16 cores");
        // All feasible configs cost at least the best.
        for n in CORE_SWEEP {
            if let Some(c) = sw.power_at(n, RATE) {
                assert!(c.power_mw >= best.power_mw - 1e-12, "n={n}");
            }
        }
        assert!(best.cores >= 16, "576 MHz needs at least 12 cores");
    }

    #[test]
    fn software_is_multiples_of_halo() {
        // LZMA-style: ~250 cycles/byte in software vs 7.2 mW on HALO PEs.
        let sw = SoftwareBaseline::new(250.0).best(RATE).expect("feasible");
        let ratio = sw.power_mw / 7.162;
        assert!(ratio > 4.0, "software/HALO ratio {ratio} (paper: 4-57x)");
    }

    #[test]
    fn monolithic_asic_is_about_twice_halo() {
        let halo: f64 = [PeKind::Lz, PeKind::Ma, PeKind::Rc]
            .iter()
            .map(|&k| pe_anchor(k).total_mw())
            .sum();
        let asic = MonolithicAsic::power(&[PeKind::Lz, PeKind::Ma, PeKind::Rc]).total_mw();
        let ratio = asic / halo;
        assert!(
            (1.7..=3.0).contains(&ratio),
            "ASIC/HALO ratio {ratio} (paper: ~2x)"
        );
        // And it breaks the processing budget once the radio is added
        // ("monolithic ASICs exceed the 15mW power budget in many cases").
        assert!(asic + 4.6 > crate::budget::PROCESSING_BUDGET_MW);
    }

    #[test]
    fn single_domain_penalizes_slow_kernels() {
        // BBF alone at 6 MHz vs fused with XCOR at 85 MHz.
        let alone = MonolithicAsic::power(&[PeKind::Bbf]).total_mw();
        let fused = MonolithicAsic::power(&[PeKind::Bbf, PeKind::Xcor]).total_mw()
            - MonolithicAsic::power(&[PeKind::Xcor]).total_mw();
        assert!(fused > 2.0 * alone, "fused {fused} vs alone {alone}");
    }

    #[test]
    fn voltage_model_clamps() {
        assert!((voltage(0.1) - 0.7012).abs() < 1e-9);
        assert_eq!(voltage(1000.0), 1.2);
        assert!((voltage(25.0) - 1.0).abs() < 1e-12);
    }
}
