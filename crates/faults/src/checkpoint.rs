//! Checkpoint/restore built on the binary-stable trace-log format.
//!
//! The simulator is deterministic, so a mid-run snapshot does not need
//! to serialize internal state: it records the *consumed input prefix*
//! plus the outputs produced so far (the [`TraceLog`] that
//! [`trace::snapshot`] builds). [`Checkpoint::restore`] rebuilds a fresh
//! system through [`trace::rebuild`], the same checks a replay makes,
//! re-drives the prefix, and proves byte-identity of every output before
//! handing the system back — the resumed run is indistinguishable from
//! one that never died. Samples whose outputs had not left the fabric at
//! snapshot time prove nothing on replay; the trace log's samples digest,
//! checked by [`Checkpoint::read`], covers them.
//!
//! A fault injected through [`HaloSystem::inject_faults`] fires before
//! the next frame's samples are ingested, so a poisoned system's outputs
//! are still clean and [`Checkpoint::snapshot`] taken at the point of
//! failure names the exact resume frame.

use halo_core::trace::{self, ReplayError};
use halo_core::{HaloConfig, HaloSystem};
use halo_telemetry::TraceLog;

/// A restorable mid-run snapshot. Serialization is the trace-log text
/// format ([`Checkpoint::write`]/[`Checkpoint::read`]), so checkpoints
/// survive process death and travel as ordinary artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    log: TraceLog,
}

impl Checkpoint {
    /// Snapshots `system` mid-run. `consumed` must be exactly the
    /// frame-major samples the system has ingested so far (i.e.
    /// `frames() * channels` values); the outputs produced for that
    /// prefix are captured from the live runtime.
    pub fn snapshot(system: &HaloSystem, consumed: &[i16]) -> Self {
        debug_assert_eq!(
            consumed.len() as u64,
            system.runtime().frames() * system.config().channels as u64,
            "consumed slice must cover exactly the ingested frames"
        );
        Self {
            log: trace::snapshot(system, consumed),
        }
    }

    /// The frame index execution resumes from.
    pub fn frame(&self) -> u64 {
        if self.log.channels == 0 {
            0
        } else {
            self.log.samples.len() as u64 / self.log.channels as u64
        }
    }

    /// The underlying trace log.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Serializes to the trace-log text format.
    pub fn write(&self) -> String {
        self.log.write()
    }

    /// Parses a serialized checkpoint.
    ///
    /// # Errors
    ///
    /// Returns the trace-log parser's message on malformed input,
    /// including samples that do not match the digest written with them.
    pub fn read(text: &str) -> Result<Self, String> {
        Ok(Self {
            log: TraceLog::read(text)?,
        })
    }

    /// Rebuilds a fresh system, replays the consumed prefix, and
    /// verifies every output byte-identically before returning the
    /// system, positioned at [`Checkpoint::frame`] and ready for the
    /// rest of the stream. `block_dispatch` sets the rebuilt runtime's
    /// quiet-frame batching — restore is byte-identical either way.
    ///
    /// # Errors
    ///
    /// Returns the [`ReplayError`] of [`trace::rebuild`] if the
    /// configuration or fabric differs from snapshot time,
    /// [`ReplayError::System`] if the replay fails, and
    /// [`ReplayError::Diverged`] if any replayed output differs.
    pub fn restore(
        &self,
        config: HaloConfig,
        block_dispatch: bool,
    ) -> Result<HaloSystem, ReplayError> {
        let mut system = trace::rebuild(&self.log, config)?;
        system.set_block_dispatch(block_dispatch);
        system.push_block(&self.log.samples)?;
        let runtime = system.runtime();
        let what = if runtime.frames() != self.frame() {
            "frame count"
        } else if runtime.radio_stream() != self.log.radio {
            "radio stream"
        } else if runtime.mcu_flags() != self.log.mcu_flags {
            "mcu flags"
        } else {
            return Ok(system);
        };
        Err(ReplayError::Diverged { what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_core::Task;
    use halo_signal::{RecordingConfig, RegionProfile};

    fn recording(channels: usize, ms: usize, seed: u64) -> halo_signal::Recording {
        RecordingConfig::new(RegionProfile::arm())
            .channels(channels)
            .duration_ms(ms)
            .generate(seed)
    }

    /// Snapshot mid-run, "die", restore, push the rest: outputs must be
    /// byte-identical to an uninterrupted run.
    #[test]
    fn snapshot_then_restore_resumes_byte_identically() {
        let config = HaloConfig::small_test(4).block_bytes(512);
        let rec = recording(4, 40, 21);
        let samples = rec.samples();

        let mut uninterrupted = HaloSystem::new(Task::CompressLzma, config.clone()).unwrap();
        let expected = uninterrupted.process(&rec).unwrap();

        let mut first = HaloSystem::new(Task::CompressLzma, config.clone()).unwrap();
        let cut = samples.len() / 2 - (samples.len() / 2) % 4;
        first.push_block(&samples[..cut]).unwrap();
        let ckpt = Checkpoint::snapshot(&first, &samples[..cut]);
        drop(first); // the run dies here

        let mut resumed = ckpt.restore(config, true).unwrap();
        resumed.push_block(&samples[cut..]).unwrap();
        let got = resumed.finalize().unwrap();
        assert_eq!(got.radio_stream, expected.radio_stream);
        assert_eq!(got.detections, expected.detections);
        assert_eq!(got.frames, expected.frames);
    }

    /// The serialized form round-trips and still restores.
    #[test]
    fn checkpoint_survives_serialization() {
        let config = HaloConfig::small_test(2);
        let rec = recording(2, 30, 5);
        let samples = rec.samples();
        let mut sys = HaloSystem::new(Task::EncryptRaw, config.clone()).unwrap();
        let cut = samples.len() / 2;
        sys.push_block(&samples[..cut]).unwrap();
        let ckpt = Checkpoint::snapshot(&sys, &samples[..cut]);

        let reread = Checkpoint::read(&ckpt.write()).unwrap();
        assert_eq!(reread, ckpt);
        let restored = reread.restore(config, true).unwrap();
        assert_eq!(restored.runtime().frames(), ckpt.frame());
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let config = HaloConfig::small_test(4);
        let rec = recording(4, 10, 2);
        let mut sys = HaloSystem::new(Task::CompressLz4, config).unwrap();
        sys.push_block(rec.samples()).unwrap();
        let ckpt = Checkpoint::snapshot(&sys, rec.samples());
        let other = HaloConfig::small_test(4).channels(2);
        assert!(matches!(
            ckpt.restore(other, true),
            Err(ReplayError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn tampered_checkpoint_is_caught_at_restore() {
        let config = HaloConfig::small_test(2).block_bytes(256);
        let rec = recording(2, 20, 8);
        let mut sys = HaloSystem::new(Task::CompressLz4, config.clone()).unwrap();
        sys.push_block(rec.samples()).unwrap();
        let mut ckpt = Checkpoint::snapshot(&sys, rec.samples());
        assert!(!ckpt.log.radio.is_empty());
        ckpt.log.radio[0] ^= 0xFF;
        assert!(matches!(
            ckpt.restore(config, true),
            Err(ReplayError::Diverged {
                what: "radio stream"
            })
        ));
    }
}
