//! Windowed power timelines for telemetry.
//!
//! The Table IV model in [`crate::model`] evaluates *steady-state* power at
//! an operating point. Telemetry wants power over *time*: how hot each
//! clock domain ran during each sampling window of a task. This module
//! bridges the two: a [`DomainPowerModel`] converts a window's observed
//! busy-cycle rate into an activity factor against the domain's anchor
//! frequency and evaluates the anchor model there.
//!
//! The resulting milliwatt samples ride in each telemetry window report
//! (`SlotWindow::milliwatts`), which the recorder keeps as one window
//! entry and the Chrome trace draws as per-domain counter tracks.

use crate::model::PePowerModel;
use crate::table::pe_anchor;
use halo_pe::PeKind;

/// Per-clock-domain window power evaluator.
///
/// # Example
///
/// ```
/// use halo_power::DomainPowerModel;
/// use halo_pe::PeKind;
///
/// let dom = DomainPowerModel::new(PeKind::Lz);
/// let idle = dom.window_mw(0, 0.001);
/// let busy = dom.window_mw(129_000, 0.001); // anchor rate for 1 ms
/// assert!(idle < busy);
/// // Idle still pays leakage.
/// assert!(idle > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DomainPowerModel {
    kind: PeKind,
    anchor_hz: f64,
}

impl DomainPowerModel {
    /// A domain model for `kind`, anchored at its Table IV frequency.
    pub fn new(kind: PeKind) -> Self {
        Self {
            kind,
            anchor_hz: pe_anchor(kind).freq_mhz * 1e6,
        }
    }

    /// The PE kind this domain hosts.
    pub fn kind(&self) -> PeKind {
        self.kind
    }

    /// The domain's anchor frequency in Hz.
    pub fn anchor_hz(&self) -> f64 {
        self.anchor_hz
    }

    /// Power over a window in which the domain retired `busy_cycles` of
    /// work in `window_s` seconds of biological time, in milliwatts.
    ///
    /// Activity is the observed cycle rate over the anchor rate, clamped
    /// to [0, 1] — a pausable clock (§IV-D) cannot exceed its generator
    /// frequency, and leakage is paid regardless.
    pub fn window_mw(&self, busy_cycles: u64, window_s: f64) -> f64 {
        let activity = if window_s > 0.0 && self.anchor_hz > 0.0 {
            (busy_cycles as f64 / window_s / self.anchor_hz).min(1.0)
        } else {
            0.0
        };
        PePowerModel::new(self.kind)
            .activity(activity)
            .power()
            .total_mw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::pe_anchor;

    #[test]
    fn idle_window_pays_leakage_only() {
        let dom = DomainPowerModel::new(PeKind::Lz);
        let a = pe_anchor(PeKind::Lz);
        let idle = dom.window_mw(0, 0.001);
        assert!((idle - (a.logic_leak_mw + a.mem_leak_mw)).abs() < 1e-12);
    }

    #[test]
    fn anchor_rate_window_reproduces_table_iv() {
        let dom = DomainPowerModel::new(PeKind::Ma);
        let a = pe_anchor(PeKind::Ma);
        let cycles = (a.freq_mhz * 1e6 * 0.01) as u64; // 10 ms at anchor rate
        let p = dom.window_mw(cycles, 0.01);
        assert!((p - a.total_mw()).abs() < 1e-6, "{p} vs {}", a.total_mw());
    }

    #[test]
    fn activity_saturates_at_the_anchor_frequency() {
        let dom = DomainPowerModel::new(PeKind::Neo);
        let at_anchor = dom.window_mw(3_000_000, 1.0);
        let overdriven = dom.window_mw(30_000_000, 1.0);
        assert!((at_anchor - overdriven).abs() < 1e-12);
    }

    #[test]
    fn zero_length_window_is_idle() {
        let dom = DomainPowerModel::new(PeKind::Xcor);
        assert_eq!(dom.window_mw(1000, 0.0), dom.window_mw(0, 1.0));
    }

    #[test]
    fn power_scales_monotonically_with_load() {
        let dom = DomainPowerModel::new(PeKind::Fft);
        let mut last = -1.0;
        for cycles in [0u64, 1000, 100_000, 10_000_000] {
            let p = dom.window_mw(cycles, 1.0);
            assert!(p >= last);
            last = p;
        }
    }
}
