//! Seeded, declarative fault plans.
//!
//! A [`FaultPlan`] is everything a chaos run injects, generated
//! bit-for-bit reproducibly from one seed: a sorted schedule of
//! [`ScheduledFault`]s the chaos harness injects, a set of
//! [`BrownoutWindow`]s that temporarily shrink the power budget, and a
//! [`RadioPlan`] parameterizing the lossy ARQ channel. The same
//! [`FaultPlanConfig`] always produces the same plan, so a campaign can
//! be replayed exactly from its seed alone; [`FaultPlan::fingerprint`]
//! hashes the whole plan so triage output can prove it.

use halo_core::runtime::FaultAction;
use halo_noc::{Fabric, NodeId, Route};
use halo_signal::SimRng;

/// A fault pinned to the frame it fires at: the harness injects it
/// through [`halo_core::HaloSystem::inject_faults`] before that frame's
/// samples are ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Frame index at which the fault is applied.
    pub frame: u64,
    /// The fault itself.
    pub action: FaultAction,
}

/// Parameters for [`FaultPlan::generate`]. Counts are totals over the
/// whole run; frames are sample-frame indices into the stream.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
    /// Stream length in frames; injected fault frames land in
    /// `1..frames` so every fault fires before the stream ends.
    pub frames: u64,
    /// Number of PE slots in the target pipeline (fault targets are
    /// drawn from `0..pe_slots`).
    pub pe_slots: u8,
    /// Data-plane faults: FIFO bit flips, FIFO overflow pressure, and
    /// transient PE output corruption, drawn uniformly.
    pub data_faults: u32,
    /// Rogue MMIO switch words (well-formed but routing off the array).
    pub rogue_mmio: u32,
    /// NoC link degradations (extra stall cycles on one link).
    pub link_faults: u32,
    /// Power brownouts (temporary budget shrink).
    pub brownouts: u32,
    /// Length of each brownout window, frames.
    pub brownout_frames: u64,
    /// Shrunken budget during a brownout, mW. `0.0` means "auto": the
    /// harness replaces it with the midpoint between the primary and
    /// fallback pipelines' steady draw, guaranteeing the brownout bites.
    pub brownout_budget_mw: f64,
    /// Per-transmission radio drop probability, in permille.
    pub radio_drop_permille: u32,
    /// Per-transmission radio corruption probability, in permille.
    pub radio_corrupt_permille: u32,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_FA17,
            frames: 1024,
            pe_slots: 3,
            data_faults: 3,
            rogue_mmio: 1,
            link_faults: 1,
            brownouts: 0,
            brownout_frames: 256,
            brownout_budget_mw: 0.0,
            radio_drop_permille: 80,
            radio_corrupt_permille: 40,
        }
    }
}

/// A temporary power-budget shrink: between `start_frame` (inclusive)
/// and `end_frame` (exclusive) the device must fit in `budget_mw`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutWindow {
    /// First frame of the brownout.
    pub start_frame: u64,
    /// First frame after the brownout.
    pub end_frame: u64,
    /// The shrunken whole-device budget, mW.
    pub budget_mw: f64,
}

impl BrownoutWindow {
    /// Whether `frame` falls inside this window.
    pub fn contains(&self, frame: u64) -> bool {
        frame >= self.start_frame && frame < self.end_frame
    }
}

/// Seeded loss model for the radio channel (see
/// [`PlanChannel`](crate::PlanChannel)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadioPlan {
    /// Seed for the channel's private RNG stream.
    pub seed: u64,
    /// Per-transmission drop probability, permille.
    pub drop_permille: u32,
    /// Per-transmission corruption probability, permille.
    pub corrupt_permille: u32,
}

/// A fully materialized chaos plan. See the module docs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Injected faults, sorted by frame.
    pub schedule: Vec<ScheduledFault>,
    /// Brownout windows, sorted and non-overlapping.
    pub brownouts: Vec<BrownoutWindow>,
    /// The radio loss model.
    pub radio: RadioPlan,
}

impl FaultPlan {
    /// Generates the plan for `config`. Deterministic: the same config
    /// always yields the same plan, independent of host or build.
    pub fn generate(config: &FaultPlanConfig) -> Self {
        let mut rng = SimRng::new(config.seed);
        let horizon = config.frames.max(2);
        let mut schedule = Vec::new();
        for _ in 0..config.data_faults {
            let frame = rng.range_u64(1, horizon);
            let slot = rng.range_u64(0, config.pe_slots.max(1) as u64) as usize;
            let action = match rng.range_u64(0, 3) {
                0 => FaultAction::FifoBitFlip {
                    slot,
                    bit: rng.range_u64(0, 64) as u32,
                },
                1 => FaultAction::FifoOverflow { slot },
                _ => FaultAction::PeOutputCorrupt {
                    slot,
                    bit: rng.range_u64(0, 64) as u32,
                },
            };
            schedule.push(ScheduledFault { frame, action });
        }
        for _ in 0..config.rogue_mmio {
            let frame = rng.range_u64(1, horizon);
            schedule.push(ScheduledFault {
                frame,
                action: FaultAction::RogueMmio {
                    word: rogue_word(&mut rng),
                },
            });
        }
        for _ in 0..config.link_faults {
            let frame = rng.range_u64(1, horizon);
            let n = config.pe_slots.max(2) as u64;
            let to = rng.range_u64(0, n) as usize;
            let from = (to + 1) % n as usize;
            schedule.push(ScheduledFault {
                frame,
                action: FaultAction::LinkDegrade {
                    from: NodeId(from),
                    to: NodeId(to),
                    stall_cycles: rng.range_u64(100, 10_000),
                },
            });
        }
        schedule.sort_by_key(|f| f.frame);

        // Brownouts are spaced evenly and never overlap: window i is
        // centered in the i-th of `brownouts` equal segments.
        let mut brownouts = Vec::new();
        let n = config.brownouts as u64;
        for i in 0..n {
            let seg = horizon / n.max(1);
            let start = i * seg + seg / 4;
            let end = (start + config.brownout_frames).min((i + 1) * seg);
            if end > start {
                brownouts.push(BrownoutWindow {
                    start_frame: start,
                    end_frame: end,
                    budget_mw: config.brownout_budget_mw,
                });
            }
        }

        Self {
            schedule,
            brownouts,
            radio: RadioPlan {
                seed: rng.next_u64(),
                drop_permille: config.radio_drop_permille.min(1000),
                corrupt_permille: config.radio_corrupt_permille.min(1000),
            },
        }
    }

    /// FNV-1a hash of every scheduled fault, brownout window, and radio
    /// parameter. Two plans with equal fingerprints injected the exact
    /// same chaos — triage JSON records this so a replayed campaign can
    /// prove bit-identical scheduling.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for f in &self.schedule {
            h.write(f.frame);
            h.write(fault_code(&f.action));
            h.write(f.action.slot() as u64);
            h.write(f.action.detail());
        }
        for w in &self.brownouts {
            h.write(w.start_frame);
            h.write(w.end_frame);
            h.write(w.budget_mw.to_bits());
        }
        h.write(self.radio.seed);
        h.write(self.radio.drop_permille as u64);
        h.write(self.radio.corrupt_permille as u64);
        h.finish()
    }
}

/// A well-formed switch word routing node 0 to a node far beyond any
/// installed PE array: the fabric's MMIO path accepts it, and the
/// immediate re-validation against the PE array rejects it — exactly the
/// failure a corrupted controller write produces.
fn rogue_word(rng: &mut SimRng) -> u32 {
    let to = 0xE0 + rng.range_u64(0, 16) as usize;
    Fabric::encode_route(Route {
        from: NodeId(0),
        to: NodeId(to),
        to_port: 0,
    })
}

/// Stable per-class code for fingerprinting (labels are stable too, but
/// a fixed code keeps the hash independent of label spelling).
fn fault_code(action: &FaultAction) -> u64 {
    match action {
        FaultAction::FifoBitFlip { .. } => 1,
        FaultAction::FifoOverflow { .. } => 2,
        FaultAction::PeOutputCorrupt { .. } => 3,
        FaultAction::LinkDegrade { .. } => 4,
        FaultAction::RogueMmio { .. } => 5,
    }
}

/// Minimal FNV-1a accumulator over `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let config = FaultPlanConfig {
            brownouts: 2,
            ..FaultPlanConfig::default()
        };
        let a = FaultPlan::generate(&config);
        let b = FaultPlan::generate(&config);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.brownouts, b.brownouts);
        assert_eq!(a.radio, b.radio);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seed_different_plan() {
        let a = FaultPlan::generate(&FaultPlanConfig::default());
        let b = FaultPlan::generate(&FaultPlanConfig {
            seed: 99,
            ..FaultPlanConfig::default()
        });
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn schedule_is_sorted_and_in_horizon() {
        let config = FaultPlanConfig {
            data_faults: 16,
            rogue_mmio: 4,
            link_faults: 4,
            frames: 500,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&config);
        assert_eq!(plan.schedule.len(), 24);
        let frames: Vec<u64> = plan.schedule.iter().map(|f| f.frame).collect();
        let mut sorted = frames.clone();
        sorted.sort_unstable();
        assert_eq!(frames, sorted);
        assert!(frames.iter().all(|&f| (1..500).contains(&f)));
    }

    #[test]
    fn brownout_windows_do_not_overlap() {
        let config = FaultPlanConfig {
            brownouts: 3,
            brownout_frames: 100,
            frames: 900,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&config);
        assert_eq!(plan.brownouts.len(), 3);
        for pair in plan.brownouts.windows(2) {
            assert!(pair[0].end_frame <= pair[1].start_frame);
        }
    }

    #[test]
    fn rogue_words_are_well_formed_but_off_array() {
        let mut rng = SimRng::new(7);
        for _ in 0..32 {
            let word = rogue_word(&mut rng);
            let mut fabric = Fabric::new();
            fabric.program(word).expect("rogue word must program");
            let to = fabric.routes()[0].to;
            assert!(to.0 >= 0xE0, "rogue target {to} must be off-array");
        }
    }
}
