//! Capture and deterministic replay of device runs.
//!
//! A [`capture`] packages everything a finished run consumed and produced
//! into a binary-stable [`TraceLog`]: the task, a fingerprint of the
//! configuration, the programmed switch words, the raw input samples, and
//! the outputs (radio stream, MCU flags, stimulation events). [`replay`]
//! rebuilds a fresh [`HaloSystem`] from the log, refuses to run if the
//! configuration or fabric differs from capture time, re-drives the exact
//! input, and reports whether every output is bit-identical — the
//! simulator is deterministic, so any divergence is a regression.

use halo_signal::Recording;
use halo_telemetry::replay::verify;
use halo_telemetry::{ReplayReport, StimRecord, TraceLog};

use crate::config::HaloConfig;
use crate::metrics::TaskMetrics;
use crate::system::{HaloSystem, SystemError};
use crate::task::Task;

/// Errors raised while rebuilding a device from a trace log.
#[derive(Debug)]
pub enum ReplayError {
    /// The log names a task this build does not know.
    UnknownTask(String),
    /// The supplied configuration does not fingerprint-match the capture.
    ConfigMismatch {
        /// Fingerprint recorded in the log.
        expected: u64,
        /// Fingerprint of the configuration supplied for replay.
        got: u64,
    },
    /// The rebuilt fabric programmed different switch words than the
    /// capture recorded — the pipeline topology changed.
    FabricMismatch {
        /// Switch words recorded in the log.
        expected: Vec<u32>,
        /// Switch words the rebuilt system programmed.
        got: Vec<u32>,
    },
    /// The rebuilt system refused the log's channel count, or failed to
    /// configure or stream.
    System(SystemError),
}

impl From<SystemError> for ReplayError {
    fn from(e: SystemError) -> Self {
        Self::System(e)
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownTask(label) => write!(f, "trace log names unknown task {label:?}"),
            Self::ConfigMismatch { expected, got } => write!(
                f,
                "config fingerprint {got:#018x} does not match captured {expected:#018x}"
            ),
            Self::FabricMismatch { expected, got } => write!(
                f,
                "rebuilt fabric programmed {} switch words, capture recorded {}",
                got.len(),
                expected.len()
            ),
            Self::System(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Projects the closed-loop stimulation events of a finished run into the
/// compact records a [`TraceLog`] stores.
fn stim_records(metrics: &TaskMetrics) -> Vec<StimRecord> {
    metrics
        .stim_events
        .iter()
        .map(|e| StimRecord {
            frame: e.frame,
            latency_frames: e.latency_frames,
            commands: e.commands.len() as u32,
        })
        .collect()
}

/// Captures a finished run as a replayable [`TraceLog`].
///
/// Call after [`HaloSystem::process`] returned `metrics` for `recording`
/// on `system`; the log records the exact inputs (samples, fabric
/// programming, configuration fingerprint) and the outputs `metrics`
/// carries (radio bytes, MCU flags, stimulation events) so [`replay`] can
/// verify bit-identity.
pub fn capture(system: &HaloSystem, recording: &Recording, metrics: &TaskMetrics) -> TraceLog {
    TraceLog {
        task: system.task().label().to_string(),
        config_fingerprint: system.config().fingerprint(),
        channels: system.config().channels as u32,
        sample_rate_hz: system.config().sample_rate_hz,
        switch_words: system.runtime().fabric().encoded_routes(),
        samples: recording.samples().to_vec(),
        radio: metrics.radio_stream.clone(),
        mcu_flags: metrics.detections.clone(),
        stim: stim_records(metrics),
    }
}

/// Replays a captured log through a freshly built system and verifies
/// the outputs byte-for-byte.
///
/// `config` must be equivalent to the capture-time configuration (same
/// fingerprint) — replay is only meaningful against the same device
/// setup. Returns the fresh run's metrics alongside the comparison
/// report; [`ReplayReport::identical`] is the determinism verdict.
///
/// # Errors
///
/// Returns [`ReplayError`] if the log names an unknown task, if the
/// configuration, channel count or fabric differs from capture time, or
/// if the rebuilt system fails to stream the logged samples.
pub fn replay(
    log: &TraceLog,
    config: HaloConfig,
) -> Result<(TaskMetrics, ReplayReport), ReplayError> {
    let task =
        Task::from_label(&log.task).ok_or_else(|| ReplayError::UnknownTask(log.task.clone()))?;
    let fingerprint = config.fingerprint();
    if fingerprint != log.config_fingerprint {
        return Err(ReplayError::ConfigMismatch {
            expected: log.config_fingerprint,
            got: fingerprint,
        });
    }
    if log.channels as usize != config.channels {
        return Err(SystemError::GeometryMismatch {
            expected: config.channels,
            got: log.channels as usize,
        }
        .into());
    }
    let mut system = HaloSystem::new(task, config)?;
    let programmed = system.runtime().fabric().encoded_routes();
    if programmed != log.switch_words {
        return Err(ReplayError::FabricMismatch {
            expected: log.switch_words.clone(),
            got: programmed,
        });
    }
    system.push_block(&log.samples)?;
    let metrics = system.finalize()?;
    let stim = stim_records(&metrics);
    let report = verify(log, &metrics.radio_stream, &metrics.detections, &stim);
    Ok((metrics, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_signal::{RecordingConfig, RegionProfile};

    fn run_once(task: Task, config: &HaloConfig, seed: u64) -> (TraceLog, TaskMetrics) {
        let rec = RecordingConfig::new(RegionProfile::arm())
            .channels(config.channels)
            .duration_ms(30)
            .generate(seed);
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        let metrics = sys.process(&rec).unwrap();
        (capture(&sys, &rec, &metrics), metrics)
    }

    #[test]
    fn capture_then_replay_is_bit_identical() {
        let config = HaloConfig::small_test(4);
        let (log, metrics) = run_once(Task::CompressLz4, &config, 11);
        assert!(!metrics.radio_stream.is_empty());
        let (replayed, report) = replay(&log, config).unwrap();
        assert!(report.identical(), "{report}");
        assert_eq!(replayed.radio_stream, metrics.radio_stream);
    }

    #[test]
    fn replay_round_trips_through_serialized_log() {
        let config = HaloConfig::small_test(4);
        let (log, _) = run_once(Task::SpikeDetectNeo, &config, 5);
        let text = log.write();
        let reread = TraceLog::read(&text).unwrap();
        let (_, report) = replay(&reread, config).unwrap();
        assert!(report.identical(), "{report}");
    }

    #[test]
    fn replay_rejects_mismatched_config() {
        let config = HaloConfig::small_test(4);
        let (log, _) = run_once(Task::EncryptRaw, &config, 3);
        let other = HaloConfig::small_test(4).channels(2);
        assert!(matches!(
            replay(&log, other),
            Err(ReplayError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn replay_detects_tampered_radio_bytes() {
        let config = HaloConfig::small_test(2);
        let (mut log, _) = run_once(Task::EncryptRaw, &config, 8);
        assert!(!log.radio.is_empty());
        log.radio[0] ^= 0xFF;
        let (_, report) = replay(&log, config).unwrap();
        assert!(!report.identical());
        assert_eq!(report.first_radio_divergence, Some(0));
    }
}
