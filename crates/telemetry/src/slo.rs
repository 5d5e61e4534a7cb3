//! SLO error budgets and multi-window burn-rate alerts.
//!
//! HALO's safety envelopes (power ≤ 15 mW, closed-loop deadline, radio
//! ≤ 46 Mbps) are hard limits the [`crate::health`]
//! watchdog trips on instantly. This module treats the same envelopes as
//! *SLOs*: each objective's SLI is the corresponding utilization series in
//! the [`crate::tsdb`] store (observed value ÷ live limit), a point is
//! *good* while utilization stays under a soft margin (default 0.8), and
//! the objective carries an error budget — the fraction of points allowed
//! to be bad (default 5%).
//!
//! Alerting follows the multi-window, multi-burn-rate recipe from the SRE
//! workbook: the *burn rate* over a window is the observed bad fraction
//! divided by the error budget (burn 1 = exactly consuming budget), and an
//! alert fires only when **both** a short and a long window exceed the
//! policy's threshold — the short window makes alerts reset quickly once
//! the condition clears, the long window keeps one bad sample from paging.
//! Two policies run per objective:
//!
//! | policy | windows (default) | burn threshold | severity  |
//! |--------|-------------------|----------------|-----------|
//! | fast   | 5 m + 1 h         | 14.4           | critical  |
//! | slow   | 1 h + 6 h         | 6.0            | warning   |
//!
//! Default windows are expressed in sample frames at 30 kHz; tests and
//! short sessions shrink them via [`SloConfig`]'s public fields.
//!
//! A window counts only the points the tsdb still holds: each series
//! keeps its last [`raw_capacity`](crate::tsdb::TsdbConfig::raw_capacity)
//! points (512 by default, about 9 minutes of power windows at the §V-A
//! design point). A lookback longer than that ring — the default 1 h and
//! 6 h windows — is judged over the retained points, so its burn rate is
//! the rate over the ring's span, not over the nominal window.
//!
//! The [`crate::health::HealthMonitor`] raises each firing transition as
//! an [`crate::health::AlertKind::SloBurnRate`] alert, so fast-burn firings
//! latch flight-recorder post-mortems and escalate causal tracing exactly
//! like a hard envelope violation — but minutes earlier.

use crate::sink::Severity;
use crate::tsdb::{SeriesKind, Tsdb};

/// Number of SLO objectives (one per safety envelope).
pub const OBJECTIVE_COUNT: usize = 3;

/// Burn-rate policies evaluated per objective.
pub const POLICY_COUNT: usize = 2;

/// One service-level objective: a name and the utilization series that is
/// its SLI.
#[derive(Debug, Clone, Copy)]
pub struct SloObjective {
    pub name: &'static str,
    pub series: SeriesKind,
}

/// The three envelope-backed objectives, in evaluation order.
pub const OBJECTIVES: [SloObjective; OBJECTIVE_COUNT] = [
    SloObjective {
        name: "power",
        series: SeriesKind::PowerUtilization,
    },
    SloObjective {
        name: "deadline",
        series: SeriesKind::DeadlineUtilization,
    },
    SloObjective {
        name: "radio",
        series: SeriesKind::RadioUtilization,
    },
];

/// One multi-window burn-rate policy: fire when the burn rate over *both*
/// the short and the long lookback exceeds `threshold`.
#[derive(Debug, Clone, Copy)]
pub struct BurnRatePolicy {
    /// Short lookback, sample frames.
    pub short_frames: u64,
    /// Long lookback, sample frames.
    pub long_frames: u64,
    /// Minimum burn rate (bad fraction ÷ error budget) in both windows.
    pub threshold: f64,
    /// Severity of the raised alert.
    pub severity: Severity,
}

/// Burn-rate engine configuration.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Soft utilization margin: a point is *bad* above this. 0.8 leaves a
    /// 20% guard band under the hard envelope.
    pub margin: f64,
    /// Error budget: allowed bad fraction (0.05 = 95% of points good).
    pub error_budget: f64,
    /// Minimum points in a window before its burn rate is meaningful;
    /// windows with fewer points never fire.
    pub min_points: u64,
    /// Fast-burn policy (page-now): short windows, high threshold.
    pub fast: BurnRatePolicy,
    /// Slow-burn policy (degrading): long windows, lower threshold.
    pub slow: BurnRatePolicy,
}

impl Default for SloConfig {
    fn default() -> Self {
        // 5 m / 1 h / 6 h of biological time at 30 kHz.
        const MINUTE: u64 = 30_000 * 60;
        Self {
            margin: 0.8,
            error_budget: 0.05,
            min_points: 4,
            fast: BurnRatePolicy {
                short_frames: 5 * MINUTE,
                long_frames: 60 * MINUTE,
                threshold: 14.4,
                severity: Severity::Critical,
            },
            slow: BurnRatePolicy {
                short_frames: 60 * MINUTE,
                long_frames: 360 * MINUTE,
                threshold: 6.0,
                severity: Severity::Warning,
            },
        }
    }
}

impl SloConfig {
    /// The default policy table rescaled so the fast-burn long window is
    /// `horizon_frames` (everything else keeps its default ratio to it:
    /// fast short = 1/12, slow short = 1, slow long = 6×). Lets tests and
    /// short sessions exercise the same shape at any timescale.
    pub fn scaled_to(horizon_frames: u64) -> Self {
        let hour = horizon_frames.max(12);
        Self {
            fast: BurnRatePolicy {
                short_frames: hour / 12,
                long_frames: hour,
                ..SloConfig::default().fast
            },
            slow: BurnRatePolicy {
                short_frames: hour,
                long_frames: hour * 6,
                ..SloConfig::default().slow
            },
            ..SloConfig::default()
        }
    }
}

/// A firing transition returned by [`SloEngine::poll`]: objective `name`
/// entered the firing state under the fast or slow policy.
#[derive(Debug, Clone, Copy)]
pub struct BurnRateFiring {
    pub objective: &'static str,
    /// `true` for the fast-burn policy, `false` for slow-burn.
    pub fast: bool,
    /// The constraining burn rate (minimum of the two windows).
    pub burn_rate: f64,
    pub threshold: f64,
    pub severity: Severity,
}

/// Per-objective engine state, indexed `[fast, slow]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObjectiveState {
    /// Whether each policy is currently firing.
    pub firing: [bool; POLICY_COUNT],
    /// Last constraining burn rate per policy (0 until enough points).
    pub burn_rate: [f64; POLICY_COUNT],
    /// Total firing transitions per policy.
    pub fired: [u64; POLICY_COUNT],
}

/// Point-in-time digest of the engine, for expositions and triage.
#[derive(Debug, Clone)]
pub struct SloStatus {
    pub margin: f64,
    pub error_budget: f64,
    /// `(objective name, state)` in [`OBJECTIVES`] order.
    pub objectives: Vec<(&'static str, ObjectiveState)>,
}

impl SloStatus {
    /// Worst current burn rate across all objectives and policies.
    pub fn max_burn_rate(&self) -> f64 {
        self.objectives
            .iter()
            .flat_map(|(_, s)| s.burn_rate)
            .fold(0.0, f64::max)
    }

    /// Total firing transitions across all objectives and policies.
    pub fn total_fired(&self) -> u64 {
        self.objectives
            .iter()
            .flat_map(|(_, s)| s.fired)
            .sum::<u64>()
    }
}

/// The burn-rate engine. Holds only per-objective firing state — the
/// series themselves live in the [`Tsdb`] passed to [`SloEngine::poll`].
#[derive(Debug)]
pub struct SloEngine {
    config: SloConfig,
    states: [ObjectiveState; OBJECTIVE_COUNT],
}

impl SloEngine {
    pub fn new(config: SloConfig) -> Self {
        Self {
            config,
            states: [ObjectiveState::default(); OBJECTIVE_COUNT],
        }
    }

    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Burn rate of `series` over the `window_frames` ending at `now`
    /// (over the retained points, when the window reaches past the
    /// series' ring), or `None` with fewer than `min_points` points in it.
    fn burn_rate(
        &self,
        tsdb: &Tsdb,
        series: SeriesKind,
        now: u64,
        window_frames: u64,
    ) -> Option<f64> {
        let cutoff = now.saturating_sub(window_frames);
        let (total, bad) = tsdb
            .series(series)
            .window_counts(cutoff, self.config.margin);
        if total < self.config.min_points {
            return None;
        }
        Some(bad as f64 / total as f64 / self.config.error_budget)
    }

    /// Evaluate every objective against both policies at frame `now`,
    /// returning the firing *transitions* (not-firing → firing). Cleared
    /// conditions reset silently; re-entering fires again.
    pub fn poll(&mut self, tsdb: &Tsdb, now: u64) -> Vec<BurnRateFiring> {
        let mut out = Vec::new();
        for (i, objective) in OBJECTIVES.iter().enumerate() {
            let policies = [self.config.fast, self.config.slow];
            for (p, policy) in policies.iter().enumerate() {
                let short = self.burn_rate(tsdb, objective.series, now, policy.short_frames);
                let long = self.burn_rate(tsdb, objective.series, now, policy.long_frames);
                let (Some(short), Some(long)) = (short, long) else {
                    self.states[i].firing[p] = false;
                    continue;
                };
                let burn = short.min(long);
                self.states[i].burn_rate[p] = burn;
                let firing = burn >= policy.threshold;
                if firing && !self.states[i].firing[p] {
                    self.states[i].fired[p] += 1;
                    out.push(BurnRateFiring {
                        objective: objective.name,
                        fast: p == 0,
                        burn_rate: burn,
                        threshold: policy.threshold,
                        severity: policy.severity,
                    });
                }
                self.states[i].firing[p] = firing;
            }
        }
        out
    }

    pub fn status(&self) -> SloStatus {
        SloStatus {
            margin: self.config.margin,
            error_budget: self.config.error_budget,
            objectives: OBJECTIVES
                .iter()
                .zip(self.states.iter())
                .map(|(o, s)| (o.name, *s))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::TsdbConfig;

    fn config() -> SloConfig {
        SloConfig {
            min_points: 2,
            fast: BurnRatePolicy {
                short_frames: 20,
                long_frames: 100,
                threshold: 14.4,
                severity: Severity::Critical,
            },
            slow: BurnRatePolicy {
                short_frames: 100,
                long_frames: 600,
                threshold: 6.0,
                severity: Severity::Warning,
            },
            ..SloConfig::default()
        }
    }

    fn tsdb() -> Tsdb {
        Tsdb::new(&TsdbConfig { raw_capacity: 1024 })
    }

    #[test]
    fn healthy_utilization_never_fires() {
        let mut db = tsdb();
        let mut engine = SloEngine::new(config());
        for i in 0..200u64 {
            db.record(SeriesKind::PowerUtilization, i * 5, 0.5);
            assert!(engine.poll(&db, i * 5).is_empty());
        }
        let status = engine.status();
        assert_eq!(status.total_fired(), 0);
        assert!(status.max_burn_rate() < 1e-12);
    }

    #[test]
    fn sustained_violation_fires_slow_then_not_again_while_firing() {
        let mut db = tsdb();
        let mut engine = SloEngine::new(config());
        let mut firings = Vec::new();
        // 0.9 utilization on every point: bad fraction 1.0, burn 20 —
        // above both thresholds once the long windows have points.
        for i in 0..200u64 {
            db.record(SeriesKind::PowerUtilization, i * 5, 0.9);
            firings.extend(engine.poll(&db, i * 5));
        }
        let power: Vec<_> = firings.iter().filter(|f| f.objective == "power").collect();
        assert_eq!(power.len(), 2, "one fast + one slow transition: {power:?}");
        assert!(power.iter().any(|f| f.fast));
        assert!(power.iter().any(|f| !f.fast));
        for f in &power {
            assert!(f.burn_rate >= f.threshold);
        }
        // Other objectives have no points and must not fire.
        assert_eq!(firings.len(), 2);
    }

    #[test]
    fn short_window_resets_before_long() {
        let mut db = tsdb();
        let mut engine = SloEngine::new(config());
        for i in 0..100u64 {
            db.record(SeriesKind::PowerUtilization, i * 5, 0.9);
            engine.poll(&db, i * 5);
        }
        assert!(engine.status().objectives[0].1.firing[0]);
        // Recovery: good points fill the short window; the long window
        // still holds bad history, but both must exceed to keep firing.
        for i in 100..140u64 {
            db.record(SeriesKind::PowerUtilization, i * 5, 0.1);
            engine.poll(&db, i * 5);
        }
        let state = engine.status().objectives[0].1;
        assert!(!state.firing[0], "fast policy must clear after recovery");
        assert_eq!(state.fired[0], 1);
    }

    #[test]
    fn refires_after_clearing() {
        let mut db = tsdb();
        let mut engine = SloEngine::new(config());
        let mut transitions = 0;
        for phase in 0..2 {
            let base = phase * 300;
            for i in 0..60u64 {
                db.record(SeriesKind::PowerUtilization, (base + i) * 5, 0.9);
                transitions += engine
                    .poll(&db, (base + i) * 5)
                    .iter()
                    .filter(|f| f.fast)
                    .count();
            }
            for i in 60..130u64 {
                db.record(SeriesKind::PowerUtilization, (base + i) * 5, 0.1);
                engine.poll(&db, (base + i) * 5);
            }
        }
        assert_eq!(transitions, 2, "each burn episode fires once");
    }

    #[test]
    fn min_points_gates_sparse_series() {
        let mut db = tsdb();
        let mut engine = SloEngine::new(SloConfig {
            min_points: 50,
            ..config()
        });
        for i in 0..30u64 {
            db.record(SeriesKind::PowerUtilization, i, 0.99);
            assert!(engine.poll(&db, i).is_empty());
        }
    }

    #[test]
    fn scaled_config_keeps_policy_ratios() {
        let c = SloConfig::scaled_to(1200);
        assert_eq!(c.fast.short_frames, 100);
        assert_eq!(c.fast.long_frames, 1200);
        assert_eq!(c.slow.short_frames, 1200);
        assert_eq!(c.slow.long_frames, 7200);
        assert_eq!(c.fast.threshold, SloConfig::default().fast.threshold);
    }
}
