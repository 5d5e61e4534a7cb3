//! Cross-session exemplar tracing.
//!
//! Tracing every session all the time is the per-session overhead story
//! all over again, multiplied by the fleet. Instead, the fleet elects a
//! rotating *exemplar*: sessions are partitioned into groups of
//! [`ExemplarConfig::group_size`], and in every election window exactly
//! one member of each group is chosen to capture a short burst of traced
//! frames. Election reuses the deterministic splitmix64 rule inside
//! [`TraceSampler`] — the elected member for window `w` is the session
//! whose member index equals `splitmix64(seed ^ w) % group_size` — so
//! any observer (or a test) can recompute the schedule offline, and two
//! runs of the same fleet elect the same exemplars regardless of how the
//! scheduler interleaved them.
//!
//! Elected sessions receive [`TraceSampler::force_next`] credits on
//! their otherwise-disabled per-session samplers, so the steady-state
//! hot path keeps its one-branch `idle()` early-exit everywhere else.

use halo_telemetry::{SpanTree, TraceSampler};

use crate::session::SessionReport;

/// Fleet-wide exemplar election parameters.
#[derive(Debug, Clone)]
pub struct ExemplarConfig {
    /// Sessions per election group; one member per group is elected each
    /// window. `0` disables exemplar tracing entirely.
    pub group_size: u64,
    /// Election window length in sample frames.
    pub window_frames: u64,
    /// Forced-trace credits granted to the elected session per window.
    pub trace_frames: u64,
}

impl Default for ExemplarConfig {
    fn default() -> Self {
        Self {
            group_size: 8,
            window_frames: 256,
            trace_frames: 4,
        }
    }
}

/// Per-session view of the fleet election schedule.
///
/// Each [`FleetSession`](crate::FleetSession) owns one elector seeded by
/// the fleet seed and its group index; as the session streams frames the
/// scheduler asks [`Elector::credits`] how many forced-trace credits the
/// windows just entered grant this session.
#[derive(Debug)]
pub struct Elector {
    sampler: TraceSampler,
    member: u64,
    group_size: u64,
    window_frames: u64,
    trace_frames: u64,
    next_window: u64,
}

impl Elector {
    /// Elector for `session_id` under the given fleet seed, or `None`
    /// when exemplar tracing is disabled.
    pub fn new(fleet_seed: u64, session_id: u64, config: &ExemplarConfig) -> Option<Elector> {
        if config.group_size == 0 || config.window_frames == 0 {
            return None;
        }
        let group = session_id / config.group_size;
        Some(Elector {
            // Distinct groups get decorrelated schedules; members of one
            // group share a sampler seed so the election is a permutation
            // within the group, not independent coin flips.
            sampler: TraceSampler::new(
                fleet_seed ^ group.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                config.group_size,
            ),
            member: session_id % config.group_size,
            group_size: config.group_size,
            window_frames: config.window_frames,
            trace_frames: config.trace_frames,
            next_window: 0,
        })
    }

    /// Whether this session is the group's exemplar in `window`.
    pub fn elected(&self, window: u64) -> bool {
        self.sampler
            .would_sample(window * self.group_size + self.member)
    }

    /// Forced-trace credits granted by the election windows first entered
    /// while streaming frames `[start, start + frames)`. Each window is
    /// granted at most once, monotonically.
    pub fn credits(&mut self, start: u64, frames: u64) -> u64 {
        if frames == 0 {
            return 0;
        }
        let first = (start / self.window_frames).max(self.next_window);
        let last = (start + frames - 1) / self.window_frames;
        let mut credits = 0;
        for window in first..=last {
            if self.elected(window) {
                credits += self.trace_frames;
            }
        }
        if last >= self.next_window {
            self.next_window = last + 1;
        }
        credits
    }

    /// Election window length in frames.
    pub fn window_frames(&self) -> u64 {
        self.window_frames
    }
}

/// One exemplar trace surfaced to the fleet rollup: which session, which
/// frame, how long end to end, and which hop dominated.
#[derive(Debug, Clone)]
pub struct ExemplarTrace {
    /// Session the trace was captured on.
    pub session: u64,
    /// The session's pipeline label.
    pub pipeline: &'static str,
    /// Sample-frame index of the traced input frame.
    pub root_frame: u64,
    /// End-to-end latency of the traced frame, nanoseconds.
    pub end_to_end_ns: u64,
    /// Dominant critical-path hop as `(label, fraction_of_total)`, when
    /// the span tree assembled cleanly.
    pub dominant: Option<(String, f64)>,
}

/// Collects every completed exemplar trace across the fleet, ordered by
/// session id then root frame.
pub fn collect<'r>(reports: impl IntoIterator<Item = &'r SessionReport>) -> Vec<ExemplarTrace> {
    let mut out = Vec::new();
    for report in reports {
        for record in report.tracer.trees() {
            let (root_frame, end_to_end_ns) = (record.root_frame, record.end_to_end_ns());
            let dominant = SpanTree::assemble(record)
                .ok()
                .and_then(|tree| tree.dominant().map(|(hop, f)| (hop.label, f)));
            out.push(ExemplarTrace {
                session: report.spec.id,
                pipeline: report.spec.task.label(),
                root_frame,
                end_to_end_ns,
                dominant,
            });
        }
    }
    out.sort_by_key(|t| (t.session, t.root_frame));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_exemplar_per_group_per_window() {
        let config = ExemplarConfig {
            group_size: 8,
            window_frames: 128,
            trace_frames: 2,
        };
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            for group in 0..8u64 {
                let electors: Vec<Elector> = (0..config.group_size)
                    .map(|m| Elector::new(seed, group * config.group_size + m, &config).unwrap())
                    .collect();
                for window in 0..200u64 {
                    let elected = electors.iter().filter(|e| e.elected(window)).count();
                    assert_eq!(elected, 1, "seed {seed} group {group} window {window}");
                }
            }
        }
    }

    #[test]
    fn election_rotates_across_windows() {
        let config = ExemplarConfig::default();
        let elector = Elector::new(42, 3, &config).unwrap();
        let wins: Vec<bool> = (0..64).map(|w| elector.elected(w)).collect();
        // A fixed member must not win every window nor none of them over
        // a horizon of group_size × 8 windows (probability of either is
        // (7/8)^64 ≈ 2e-4 per seed; the seed here is fixed, so this is a
        // regression guard, not a statistical test).
        assert!(wins.iter().any(|&w| w));
        assert!(wins.iter().any(|&w| !w));
    }

    #[test]
    fn credits_grant_each_window_once() {
        let config = ExemplarConfig {
            group_size: 1, // always elected
            window_frames: 100,
            trace_frames: 3,
        };
        let mut e = Elector::new(1, 0, &config).unwrap();
        // First batch covers windows 0 and 1.
        assert_eq!(e.credits(0, 150), 6);
        // Overlapping re-entry of window 1 grants nothing new.
        assert_eq!(e.credits(150, 10), 0);
        // Jumping ahead grants the skipped windows' successors only once.
        assert_eq!(e.credits(160, 340), 9); // windows 2, 3, 4
        assert_eq!(e.credits(500, 1), 3); // window 5
    }

    #[test]
    fn disabled_config_yields_no_elector() {
        let off = ExemplarConfig {
            group_size: 0,
            ..ExemplarConfig::default()
        };
        assert!(Elector::new(9, 0, &off).is_none());
    }
}
