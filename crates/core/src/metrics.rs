//! Task execution metrics.

use crate::controller::StimCommand;
use crate::task::Task;

/// A closed-loop stimulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StimEvent {
    /// Frame index at which the detector fired.
    pub frame: u64,
    /// Commands the controller issued.
    pub commands: Vec<StimCommand>,
    /// Detection-to-stimulation latency in sample frames: the firmware
    /// cycles the stimulation routine took, converted through the 25 MHz
    /// controller clock to the 30 kHz sample timeline (rounded up).
    pub latency_frames: u64,
}

/// Telemetry-derived activity of one PE slot over a whole run.
///
/// These totals are accumulated by the runtime itself (not by a telemetry
/// sink), so they are present — and identical — whether or not a recorder
/// is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeActivity {
    /// Runtime slot index.
    pub slot: usize,
    /// PE name (Table III).
    pub name: &'static str,
    /// Modeled busy cycles ([`halo_pe::PeKind::cycles_per_token`] per
    /// input token).
    pub busy_cycles: u64,
    /// Pushes that found the PE's output FIFO still occupied
    /// (back-pressure indicator).
    pub stall_cycles: u64,
    /// Payload bytes pushed into the PE.
    pub bytes_in: u64,
    /// Payload bytes pulled out of the PE.
    pub bytes_out: u64,
    /// High-water mark of the output FIFO, in tokens.
    pub fifo_high_water: u64,
}

/// What happened while streaming a recording through a task.
#[derive(Debug, Clone)]
pub struct TaskMetrics {
    /// The executed task.
    pub task: Task,
    /// Frames streamed.
    pub frames: u64,
    /// Wall-clock duration represented by the stream, in seconds.
    pub duration_s: f64,
    /// Raw input bytes (frames × channels × 2).
    pub input_bytes: u64,
    /// Bytes handed to the radio (after compression/gating/encryption).
    pub radio_bytes: u64,
    /// The framed radio stream (decompressible for compression tasks),
    /// moved out of the runtime at
    /// [`HaloSystem::finalize`](crate::HaloSystem::finalize).
    pub radio_stream: Vec<u8>,
    /// Detector flags delivered to the micro-controller `(frame, flag)`:
    /// every flag the detector emits, at 16 B each, so a spike detector at
    /// the 96-ch × 30 kHz design point records 46 MB per second of signal.
    /// [`HaloSystem::finalize`](crate::HaloSystem::finalize) moves the
    /// runtime's record here rather than copying it.
    pub detections: Vec<(u64, bool)>,
    /// Closed-loop stimulation events.
    pub stim_events: Vec<StimEvent>,
    /// SEND-ACK bus traffic in bytes.
    pub bus_bytes: u64,
    /// Programmed switch points.
    pub switches: usize,
    /// Micro-controller cycles spent on configuration and stimulation.
    pub controller_cycles: u64,
    /// Per-PE activity totals, ordered by slot.
    pub pe_activity: Vec<PeActivity>,
}

impl TaskMetrics {
    /// Compression ratio (raw/transmitted), when the task transmits data.
    pub fn compression_ratio(&self) -> Option<f64> {
        if self.radio_bytes == 0 {
            return None;
        }
        Some(self.input_bytes as f64 / self.radio_bytes as f64)
    }

    /// Radio bit rate in bits per second.
    pub fn radio_bits_per_second(&self) -> f64 {
        if self.duration_s == 0.0 {
            return 0.0;
        }
        self.radio_bytes as f64 * 8.0 / self.duration_s
    }

    /// Frames of detector windows that fired.
    pub fn positive_detections(&self) -> Vec<u64> {
        self.detections
            .iter()
            .filter(|(_, f)| *f)
            .map(|(frame, _)| *frame)
            .collect()
    }

    /// Fraction of the raw stream the radio actually transmitted.
    pub fn bandwidth_fraction(&self) -> f64 {
        if self.input_bytes == 0 {
            return 0.0;
        }
        self.radio_bytes as f64 / self.input_bytes as f64
    }

    /// Total modeled busy cycles across every PE slot.
    pub fn total_busy_cycles(&self) -> u64 {
        self.pe_activity.iter().map(|a| a.busy_cycles).sum()
    }

    /// Mean utilization of the NoC's configured links: observed bus bytes
    /// over what the programmed switches could have carried for the run's
    /// duration at [`halo_noc::Fabric::LINK_CAPACITY_BYTES_PER_S`].
    /// Returns 0.0 for zero-duration runs or unswitched configurations.
    pub fn noc_bus_utilization(&self) -> f64 {
        if self.duration_s <= 0.0 || self.switches == 0 {
            return 0.0;
        }
        let capacity = self.duration_s
            * self.switches as f64
            * halo_noc::Fabric::LINK_CAPACITY_BYTES_PER_S as f64;
        self.bus_bytes as f64 / capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> TaskMetrics {
        TaskMetrics {
            task: Task::CompressLz4,
            frames: 3000,
            duration_s: 0.1,
            input_bytes: 600_000,
            radio_bytes: 200_000,
            radio_stream: vec![],
            detections: vec![(10, false), (20, true), (30, true)],
            stim_events: vec![],
            bus_bytes: 1_000,
            switches: 3,
            controller_cycles: 500,
            pe_activity: vec![
                PeActivity {
                    slot: 0,
                    name: "LZ",
                    busy_cycles: 4_000,
                    stall_cycles: 10,
                    bytes_in: 600_000,
                    bytes_out: 200_000,
                    fifo_high_water: 4,
                },
                PeActivity {
                    slot: 1,
                    name: "LIC",
                    busy_cycles: 1_000,
                    stall_cycles: 0,
                    bytes_in: 200_000,
                    bytes_out: 200_000,
                    fifo_high_water: 2,
                },
            ],
        }
    }

    #[test]
    fn derived_quantities() {
        let m = metrics();
        assert_eq!(m.compression_ratio(), Some(3.0));
        assert!((m.radio_bits_per_second() - 16_000_000.0).abs() < 1.0);
        assert_eq!(m.positive_detections(), vec![20, 30]);
        assert!((m.bandwidth_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_radio_means_no_ratio() {
        let mut m = metrics();
        m.radio_bytes = 0;
        assert_eq!(m.compression_ratio(), None);
    }

    #[test]
    fn busy_cycles_sum_over_slots() {
        assert_eq!(metrics().total_busy_cycles(), 5_000);
    }

    #[test]
    fn noc_utilization_is_a_small_fraction_here() {
        let m = metrics();
        // 1000 bytes over 0.1 s across 3 links of 46.08 MB/s capacity.
        let expected = 1_000.0 / (0.1 * 3.0 * 46_080_000.0);
        assert!((m.noc_bus_utilization() - expected).abs() < 1e-15);
        assert!(m.noc_bus_utilization() > 0.0);
        assert!(m.noc_bus_utilization() < 1.0);
    }

    #[test]
    fn zero_duration_run_has_zero_utilization_and_rate() {
        let mut m = metrics();
        m.duration_s = 0.0;
        assert_eq!(m.noc_bus_utilization(), 0.0);
        assert_eq!(m.radio_bits_per_second(), 0.0);
    }

    #[test]
    fn unswitched_configuration_has_zero_utilization() {
        let mut m = metrics();
        m.switches = 0;
        assert_eq!(m.noc_bus_utilization(), 0.0);
    }

    #[test]
    fn zero_input_bytes_edge_cases() {
        let mut m = metrics();
        m.input_bytes = 0;
        assert_eq!(m.bandwidth_fraction(), 0.0);
        // compression_ratio still defined by radio_bytes, not input.
        assert_eq!(m.compression_ratio(), Some(0.0));
    }

    #[test]
    fn empty_activity_totals_are_zero() {
        let mut m = metrics();
        m.pe_activity.clear();
        assert_eq!(m.total_busy_cycles(), 0);
    }
}
