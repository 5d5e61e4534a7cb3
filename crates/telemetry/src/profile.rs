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
//! pinnable (a change that moves modelled cost moves a pinned digest).
//! Host time is not in a profile: the benchmark package measures it layer
//! by layer (`benchmark trace`) and ranks what moved (`benchmark compare`).
//!
//! Export formats:
//!
//! * [`CycleProfile::folded`] — collapsed-stack ("folded") lines,
//!   `device;pipeline;PE@slot;phase cycles`, directly consumable by
//!   inferno / speedscope / `flamegraph.pl`.
//! * [`CycleProfile::render_exposition`] — `halo_profile_*` Prometheus
//!   families.
//! * [`CycleProfile::to_json`] — one flat JSON object, the text whose
//!   digests `tests/profile.rs` pins.

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

    /// Serialize to a flat JSON object.
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
