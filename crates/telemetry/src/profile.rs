//! Deterministic cycle/energy profiler with hierarchical attribution.
//!
//! The monitoring stack answers "is the device healthy?"; this module
//! answers "*where do the cycles go?*". A [`CycleProfile`] attributes the
//! modeled cost (from `PeKind::cycles_per_token` and the `DomainPowerModel`
//! anchors — the same tables every other subsystem prices against) over
//! the tree *device → pipeline → PE → kernel phase*:
//!
//! * **ingest** — cycles charged pushing source tokens into the fabric's
//!   entry PEs, per frame.
//! * **compute** — cycles the PE graph burned propagating and transforming
//!   tokens downstream of the sources. The runtime books every charge
//!   under exactly one phase, so the four always tile a slot's busy
//!   cycles.
//! * **drain** — cycles spent flushing residual state at end of stream.
//! * **quiet-skip** — cycles accounted on the batched `push_block` fast
//!   path for provably-quiet frame chunks that never individually
//!   propagated.
//!
//! Everything here is *derived from deterministic counters*, not wall
//! clocks: two runs over the same recording produce byte-identical
//! profiles regardless of host, thread count, or scheduler interleaving.
//! That makes profiles mergeable (fleet rollups sum frame-for-frame) and
//! diffable ([`ProfileDiff`] normalizes per frame, so a 10% longer run is
//! not a 10% regression).
//!
//! Export formats:
//!
//! * [`CycleProfile::folded`] — collapsed-stack ("folded") lines,
//!   `device;pipeline;PE@slot;phase cycles`, directly consumable by
//!   inferno / speedscope / `flamegraph.pl`.
//! * [`CycleProfile::render_exposition`] — `halo_profile_*` Prometheus
//!   families.
//! * [`ProfileDiff::to_json`] — per-frame-normalized A/B deltas, used by
//!   the bench regression sentinel to name the regressed frame.

use crate::expose::{escape_label, Exposition};
use crate::json;

/// Kernel phase a slice of cycles is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Source tokens entering the fabric, per scalar frame.
    Ingest,
    /// Everything the PE graph did downstream of ingest.
    Compute,
    /// End-of-stream flush of residual kernel state.
    Drain,
    /// Batched accounting for provably-quiet frame chunks.
    QuietSkip,
}

impl Phase {
    /// All phases in canonical (sort/render) order.
    pub const ALL: [Phase; 4] = [
        Phase::Ingest,
        Phase::Compute,
        Phase::Drain,
        Phase::QuietSkip,
    ];

    /// Stable label used in folded stacks, expositions, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Ingest => "ingest",
            Phase::Compute => "compute",
            Phase::Drain => "drain",
            Phase::QuietSkip => "quiet-skip",
        }
    }
}

/// One leaf of the attribution tree: a (pipeline, PE slot, phase) cell
/// with its cycle count and apportioned energy.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Pipeline label the cycles ran under (stable task label).
    pub pipeline: String,
    /// Fabric slot index of the PE.
    pub slot: u8,
    /// PE kind name (Table III mnemonic, e.g. `LZ`, `SVM`).
    pub pe: String,
    /// Kernel phase.
    pub phase: Phase,
    /// Modeled cycles attributed to this cell.
    pub cycles: u64,
    /// Modeled energy in microjoules, apportioned by cycle share of the
    /// slot's window power draw.
    pub energy_uj: f64,
}

impl ProfileRow {
    /// The row's frame path below the device root:
    /// `pipeline;PE@slot;phase`.
    pub fn frame(&self) -> String {
        format!(
            "{};{}@{};{}",
            self.pipeline,
            self.pe,
            self.slot,
            self.phase.label()
        )
    }
}

/// A hierarchical cycle/energy profile for one device (or a merged fleet).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleProfile {
    /// Root frame: the device (session) identity, `"fleet"` after a merge.
    pub device: String,
    /// Scalar frames the profiled stream covered.
    pub frames: u64,
    /// Attribution leaves in canonical order (pipeline, slot, phase).
    pub rows: Vec<ProfileRow>,
}

impl CycleProfile {
    /// An empty profile rooted at `device`.
    pub fn new(device: impl Into<String>) -> Self {
        Self {
            device: device.into(),
            frames: 0,
            rows: Vec::new(),
        }
    }

    /// Canonical row order: (pipeline, slot, phase). Sorting is what makes
    /// folded output and expositions byte-stable however rows were added.
    fn sort(&mut self) {
        self.rows
            .sort_by(|a, b| (&a.pipeline, a.slot, a.phase).cmp(&(&b.pipeline, b.slot, b.phase)));
    }

    /// Add one attribution cell (no-op for zero cycles). Rows with the
    /// same (pipeline, slot, phase) key accumulate.
    pub fn add(&mut self, row: ProfileRow) {
        if row.cycles == 0 && row.energy_uj == 0.0 {
            return;
        }
        if let Some(existing) = self
            .rows
            .iter_mut()
            .find(|r| r.pipeline == row.pipeline && r.slot == row.slot && r.phase == row.phase)
        {
            existing.cycles += row.cycles;
            existing.energy_uj += row.energy_uj;
        } else {
            self.rows.push(row);
        }
        self.sort();
    }

    /// Fold `other` into `self`: frames add, matching (pipeline, slot,
    /// phase) cells sum. The device root is unchanged — set it to the
    /// merged identity (e.g. `"fleet"`) on the accumulator.
    pub fn merge(&mut self, other: &CycleProfile) {
        self.frames += other.frames;
        for row in &other.rows {
            if let Some(existing) = self
                .rows
                .iter_mut()
                .find(|r| r.pipeline == row.pipeline && r.slot == row.slot && r.phase == row.phase)
            {
                existing.cycles += row.cycles;
                existing.energy_uj += row.energy_uj;
            } else {
                self.rows.push(row.clone());
            }
        }
        self.sort();
    }

    /// Total cycles across every leaf.
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    /// Total modeled energy in microjoules.
    pub fn total_energy_uj(&self) -> f64 {
        self.rows.iter().map(|r| r.energy_uj).sum()
    }

    /// The frame (below the device root) with the most self cycles, with
    /// its share of the total — the profile's one-line verdict.
    pub fn dominant_frame(&self) -> Option<(String, f64)> {
        let total = self.total_cycles();
        if total == 0 {
            return None;
        }
        self.rows
            .iter()
            .max_by(|a, b| (a.cycles, b.frame()).cmp(&(b.cycles, a.frame())))
            .map(|r| (r.frame(), r.cycles as f64 / total as f64))
    }

    /// Per-frame cycle share of each frame path: `frame -> cycles`.
    /// Used by diffing and divergence scoring; rows are already unique by
    /// frame path so this is a plain projection.
    pub fn frame_cycles(&self) -> Vec<(String, u64)> {
        self.rows.iter().map(|r| (r.frame(), r.cycles)).collect()
    }

    /// Collapsed-stack ("folded") flamegraph lines:
    /// `device;pipeline;PE@slot;phase cycles\n`, in canonical order,
    /// zero-cycle rows skipped. inferno / speedscope / `flamegraph.pl`
    /// consume this directly.
    pub fn folded(&self) -> String {
        let mut out = String::with_capacity(64 * self.rows.len());
        for row in &self.rows {
            if row.cycles == 0 {
                continue;
            }
            out.push_str(&self.device);
            out.push(';');
            out.push_str(&row.frame());
            out.push(' ');
            out.push_str(&row.cycles.to_string());
            out.push('\n');
        }
        out
    }

    /// Render the `halo_profile_*` Prometheus families into `e`.
    pub fn render_exposition_into(&self, e: &mut Exposition) {
        e.family(
            "halo_profile_cycles_total",
            "counter",
            "Modeled cycles attributed per device, pipeline, PE, and kernel phase.",
        );
        for row in &self.rows {
            e.value("halo_profile_cycles_total", &self.labels(row), row.cycles);
        }
        e.family(
            "halo_profile_energy_microjoules",
            "gauge",
            "Modeled energy apportioned by cycle share, microjoules.",
        );
        for row in &self.rows {
            e.value(
                "halo_profile_energy_microjoules",
                &self.labels(row),
                crate::expose::sample(row.energy_uj),
            );
        }
        e.family(
            "halo_profile_frames_total",
            "counter",
            "Scalar frames covered by the profile.",
        );
        e.value(
            "halo_profile_frames_total",
            &format!("device=\"{}\"", escape_label(&self.device)),
            self.frames,
        );
    }

    /// Standalone `halo_profile_*` exposition.
    pub fn render_exposition(&self) -> String {
        let mut e = Exposition::new();
        self.render_exposition_into(&mut e);
        e.finish()
    }

    fn labels(&self, row: &ProfileRow) -> String {
        format!(
            "device=\"{}\",pipeline=\"{}\",pe=\"{}\",slot=\"{}\",phase=\"{}\"",
            escape_label(&self.device),
            escape_label(&row.pipeline),
            escape_label(&row.pe),
            row.slot,
            row.phase.label()
        )
    }

    /// Serialize to a flat JSON object (used by the bench baseline and
    /// verdict files). Inverse of [`CycleProfile::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + 96 * self.rows.len());
        out.push_str("{\"device\":");
        out.push_str(&json::string(&self.device));
        out.push_str(&format!(",\"frames\":{},\"rows\":[", self.frames));
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"pipeline\":{},\"slot\":{},\"pe\":{},\"phase\":{},\"cycles\":{},\"energy_uj\":{}}}",
                json::string(&row.pipeline),
                row.slot,
                json::string(&row.pe),
                json::string(row.phase.label()),
                row.cycles,
                json::number(row.energy_uj),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parse a profile serialized by [`CycleProfile::to_json`].
    pub fn from_json(value: &json::Value) -> Option<CycleProfile> {
        let device = value.get("device")?.as_str()?.to_string();
        let frames = value.get("frames")?.as_u64()?;
        let mut rows = Vec::new();
        for row in value.get("rows")?.as_array()? {
            let phase = match row.get("phase")?.as_str()? {
                "ingest" => Phase::Ingest,
                "compute" => Phase::Compute,
                "drain" => Phase::Drain,
                "quiet-skip" => Phase::QuietSkip,
                _ => return None,
            };
            rows.push(ProfileRow {
                pipeline: row.get("pipeline")?.as_str()?.to_string(),
                slot: u8::try_from(row.get("slot")?.as_u64()?).ok()?,
                pe: row.get("pe")?.as_str()?.to_string(),
                phase,
                cycles: row.get("cycles")?.as_u64()?,
                energy_uj: row.get("energy_uj")?.as_f64()?,
            });
        }
        let mut profile = CycleProfile {
            device,
            frames,
            rows,
        };
        profile.sort();
        Some(profile)
    }
}

/// One per-frame-normalized attribution delta between two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Frame path below the device root (`pipeline;PE@slot;phase`).
    pub frame: String,
    /// Baseline cycles per scalar frame.
    pub base_cpf: f64,
    /// Fresh cycles per scalar frame.
    pub fresh_cpf: f64,
    /// Relative change: `fresh_cpf / base_cpf - 1` (clamped when the
    /// baseline had no cycles on this frame).
    pub delta_ratio: f64,
    /// Absolute per-frame cycle change (`fresh_cpf - base_cpf`).
    pub delta_cpf: f64,
}

/// An A/B profile comparison with per-frame normalization: run lengths
/// cancel out, so only genuine per-frame cost changes surface.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDiff {
    /// Frames whose per-frame cycles moved by at least `min_ratio`,
    /// largest absolute per-frame delta first.
    pub rows: Vec<DiffRow>,
}

impl ProfileDiff {
    /// Ratio reported when a frame appears on only one side (a baseline
    /// of zero cycles makes the true ratio infinite; the clamp keeps the
    /// JSON finite and the sort sane).
    pub const NEW_FRAME_RATIO: f64 = 99.99;

    /// Diff `fresh` against `base`, keeping frames whose per-frame cycle
    /// cost moved by at least `min_ratio` (e.g. `0.02` = 2%). Both sides
    /// are normalized by their own frame count before comparing.
    pub fn between(base: &CycleProfile, fresh: &CycleProfile, min_ratio: f64) -> ProfileDiff {
        let base_frames = base.frames.max(1) as f64;
        let fresh_frames = fresh.frames.max(1) as f64;
        let base_cycles = base.frame_cycles();
        let fresh_cycles = fresh.frame_cycles();
        let mut frames: Vec<&String> = base_cycles
            .iter()
            .chain(fresh_cycles.iter())
            .map(|(f, _)| f)
            .collect();
        frames.sort();
        frames.dedup();
        let lookup = |set: &[(String, u64)], frame: &str| -> u64 {
            set.iter()
                .find(|(f, _)| f == frame)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        let mut rows = Vec::new();
        for frame in frames {
            let base_cpf = lookup(&base_cycles, frame) as f64 / base_frames;
            let fresh_cpf = lookup(&fresh_cycles, frame) as f64 / fresh_frames;
            let delta_cpf = fresh_cpf - base_cpf;
            let delta_ratio = if base_cpf > 0.0 {
                fresh_cpf / base_cpf - 1.0
            } else if fresh_cpf > 0.0 {
                Self::NEW_FRAME_RATIO
            } else {
                0.0
            };
            if delta_ratio.abs() >= min_ratio {
                rows.push(DiffRow {
                    frame: frame.clone(),
                    base_cpf,
                    fresh_cpf,
                    delta_ratio,
                    delta_cpf,
                });
            }
        }
        rows.sort_by(|a, b| {
            b.delta_cpf
                .abs()
                .partial_cmp(&a.delta_cpf.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.frame.cmp(&b.frame))
        });
        ProfileDiff { rows }
    }

    /// True when no frame moved past the threshold.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The top-`k` rows as human-readable annotation lines, e.g.
    /// `"Compress(Lzma);RC@3;drain +38.0% self cycles (12.4 -> 17.1 c/f)"`.
    pub fn annotate(&self, k: usize) -> Vec<String> {
        self.rows
            .iter()
            .take(k)
            .map(|r| {
                format!(
                    "{} {}{:.1}% self cycles ({:.1} -> {:.1} c/f)",
                    r.frame,
                    if r.delta_ratio >= 0.0 { "+" } else { "" },
                    100.0 * r.delta_ratio,
                    r.base_cpf,
                    r.fresh_cpf
                )
            })
            .collect()
    }

    /// The diff as a JSON array, largest per-frame delta first.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"frame\":{},\"base_cycles_per_frame\":{},\"fresh_cycles_per_frame\":{},\"delta_ratio\":{},\"delta_cycles_per_frame\":{}}}",
                json::string(&row.frame),
                json::number(row.base_cpf),
                json::number(row.fresh_cpf),
                json::number(row.delta_ratio),
                json::number(row.delta_cpf),
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pipeline: &str, slot: u8, pe: &str, phase: Phase, cycles: u64) -> ProfileRow {
        ProfileRow {
            pipeline: pipeline.to_string(),
            slot,
            pe: pe.to_string(),
            phase,
            cycles,
            energy_uj: cycles as f64 * 0.001,
        }
    }

    fn sample() -> CycleProfile {
        let mut p = CycleProfile::new("dev0");
        p.frames = 100;
        p.add(row("Compress(Lzma)", 0, "LZ", Phase::Ingest, 200));
        p.add(row("Compress(Lzma)", 0, "LZ", Phase::Compute, 2_000));
        p.add(row("Compress(Lzma)", 3, "RC", Phase::Compute, 1_200));
        p.add(row("Compress(Lzma)", 3, "RC", Phase::Drain, 300));
        p
    }

    #[test]
    fn folded_lines_are_sorted_and_skip_zero_rows() {
        let mut p = sample();
        p.add(row("Compress(Lzma)", 5, "AES", Phase::QuietSkip, 0));
        let folded = p.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "dev0;Compress(Lzma);LZ@0;ingest 200");
        assert_eq!(lines[1], "dev0;Compress(Lzma);LZ@0;compute 2000");
        assert!(!folded.contains("AES"));
        let mut sorted = lines.clone();
        sorted.sort();
        // Canonical order groups by (pipeline, slot, phase), which for a
        // single pipeline is also stable across renders.
        assert_eq!(p.folded(), folded, "render must be deterministic");
    }

    #[test]
    fn merge_sums_matching_cells_and_frames() {
        let mut fleet = CycleProfile::new("fleet");
        fleet.merge(&sample());
        fleet.merge(&sample());
        assert_eq!(fleet.frames, 200);
        assert_eq!(fleet.total_cycles(), 2 * sample().total_cycles());
        assert_eq!(fleet.rows.len(), sample().rows.len());
        let (frame, share) = fleet.dominant_frame().unwrap();
        assert_eq!(frame, "Compress(Lzma);LZ@0;compute");
        assert!((share - 2000.0 / 3700.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let text = p.to_json();
        let value = json::parse(&text).expect("profile json parses");
        let back = CycleProfile::from_json(&value).expect("profile json loads");
        assert_eq!(p, back);
    }

    #[test]
    fn diff_normalizes_per_frame_and_names_the_regressed_frame() {
        let base = sample();
        let mut fresh = sample();
        // Twice the frames at the same per-frame cost, except RC drain
        // got 40% slower per frame.
        fresh.frames = 200;
        for row in &mut fresh.rows {
            row.cycles *= 2;
            if row.pe == "RC" && row.phase == Phase::Drain {
                row.cycles = (row.cycles as f64 * 1.4) as u64;
            }
        }
        let diff = ProfileDiff::between(&base, &fresh, 0.02);
        assert_eq!(diff.rows.len(), 1, "only the slowed frame moves: {diff:?}");
        assert_eq!(diff.rows[0].frame, "Compress(Lzma);RC@3;drain");
        assert!((diff.rows[0].delta_ratio - 0.4).abs() < 1e-9);
        let note = &diff.annotate(1)[0];
        assert!(note.contains("RC@3;drain"), "{note}");
        assert!(note.contains("+40.0%"), "{note}");
        json::parse(&diff.to_json()).expect("diff json parses");
    }

    #[test]
    fn identical_profiles_diff_empty_even_across_run_lengths() {
        let base = sample();
        let mut fresh = sample();
        fresh.frames = 300;
        for row in &mut fresh.rows {
            row.cycles *= 3;
        }
        assert!(ProfileDiff::between(&base, &fresh, 0.02).is_empty());
    }

    #[test]
    fn frame_only_on_one_side_gets_the_clamped_ratio() {
        let base = sample();
        let mut fresh = sample();
        fresh.add(row("Compress(Lzma)", 7, "AES", Phase::Compute, 5_000));
        let diff = ProfileDiff::between(&base, &fresh, 0.02);
        let added = diff
            .rows
            .iter()
            .find(|r| r.frame.contains("AES"))
            .expect("new frame surfaces");
        assert_eq!(added.delta_ratio, ProfileDiff::NEW_FRAME_RATIO);
        assert_eq!(added.base_cpf, 0.0);
    }

    #[test]
    fn exposition_is_conformant_and_carries_all_families() {
        let text = sample().render_exposition();
        for family in [
            "halo_profile_cycles_total",
            "halo_profile_energy_microjoules",
            "halo_profile_frames_total",
        ] {
            assert!(text.contains(&format!("# HELP {family}")), "{family}");
            assert!(text.contains(&format!("# TYPE {family}")), "{family}");
        }
        assert!(text.contains("device=\"dev0\""));
        assert!(text.contains("phase=\"drain\""));
    }
}
