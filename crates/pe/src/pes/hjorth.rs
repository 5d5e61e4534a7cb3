//! Hjorth-parameter processing element (§VII extension).
//!
//! Packages the [`halo_kernels::hjorth`] kernel as an additional feature
//! PE for the seizure-prediction pipeline: per feature window it emits
//! three values (activity, mobility, complexity) per selected channel,
//! demonstrating the extensibility claim of §IV ("our architecture will
//! naturally permit insertion of additional PEs for emerging
//! neuroscientific algorithms").
//!
//! It reuses the DWT PE's Table IV power class (small logic, window
//! memory) via [`PeKind::Dwt`]-adjacent accounting in experiments; for
//! the framework it reports under its own kind-less wrapper is not
//! possible, so it reuses [`PeKind::Svm`]'s conservative anchor when
//! reported. The power delta is negligible either way (<0.2 mW).

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::hjorth::hjorth;
use halo_kernels::ChannelBlock;

/// The Hjorth feature PE.
#[derive(Debug)]
pub struct HjorthPe {
    channels: usize,
    window_frames: usize,
    lanes: Vec<Option<Vec<i16>>>,
    frame_pos: usize,
    frames_seen: usize,
    out: Fifo,
    // Reusable SoA pivot for the batched push path.
    scratch: ChannelBlock,
}

impl HjorthPe {
    /// Creates a Hjorth PE over `channels` interleaved channels computing
    /// features for the selected subset per window of `window_frames`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `window_frames` is zero, `select` is empty,
    /// or a selected channel is out of range.
    pub fn new(channels: usize, select: &[u8], window_frames: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(window_frames > 0, "window must be positive");
        assert!(!select.is_empty(), "select at least one channel");
        let mut lanes: Vec<Option<Vec<i16>>> = vec![None; channels];
        for &c in select {
            assert!((c as usize) < channels, "selected channel {c} out of range");
            lanes[c as usize] = Some(Vec::with_capacity(window_frames));
        }
        Self {
            channels,
            window_frames,
            lanes,
            frame_pos: 0,
            frames_seen: 0,
            out: Fifo::new(),
            scratch: ChannelBlock::new(),
        }
    }

    /// Values emitted per window (3 per selected channel).
    pub fn values_per_window(&self) -> usize {
        3 * self.lanes.iter().flatten().count()
    }

    fn emit_window(&mut self) {
        for lane in self.lanes.iter_mut().flatten() {
            let params = hjorth(lane);
            for v in params.to_features() {
                self.out.push(Token::Value(v));
            }
            lane.clear();
        }
        self.frames_seen = 0;
    }
}

impl ProcessingElement for HjorthPe {
    fn kind(&self) -> PeKind {
        // No Table IV row exists for this extension PE; account it under
        // the SVM anchor (same order of logic+window memory).
        PeKind::Svm
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Samples]
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Values
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Sample(s) => {
                let c = self.frame_pos;
                if let Some(lane) = &mut self.lanes[c] {
                    lane.push(s);
                }
                self.frame_pos = (self.frame_pos + 1) % self.channels;
                if self.frame_pos == 0 {
                    self.frames_seen += 1;
                    if self.frames_seen == self.window_frames {
                        self.emit_window();
                    }
                }
            }
            Token::BlockEnd { .. } => self.out.push(token),
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn quiet_frames(&self, frame_samples: usize) -> u64 {
        if frame_samples != self.channels || self.frame_pos != 0 {
            return 0;
        }
        // The window-completing frame itself is not quiet.
        ((self.window_frames - self.frames_seen) as u64).saturating_sub(1)
    }

    fn push_samples(&mut self, port: usize, samples: &[i16]) -> Result<(), PeError> {
        self.check_port(port, &Token::Sample(0))?;
        if self.frame_pos != 0 || !samples.len().is_multiple_of(self.channels) {
            for &s in samples {
                self.push(port, Token::Sample(s))?;
            }
            return Ok(());
        }
        let frames = samples.len() / self.channels;
        self.scratch.fill_from_interleaved(samples, self.channels);
        let mut f = 0;
        while f < frames {
            let run = (self.window_frames - self.frames_seen).min(frames - f);
            // Bulk-extend each selected lane from its contiguous row —
            // one memcpy per lane instead of a strided push per sample.
            for (c, lane) in self.lanes.iter_mut().enumerate() {
                if let Some(lane) = lane {
                    lane.extend_from_slice(&self.scratch.channel(c)[f..f + run]);
                }
            }
            self.frames_seen += run;
            f += run;
            if self.frames_seen == self.window_frames {
                self.emit_window();
            }
        }
        Ok(())
    }

    fn flush(&mut self) {
        if self.frames_seen > 0 {
            self.emit_window();
        }
        self.frame_pos = 0;
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        self.lanes.iter().flatten().count() * self.window_frames * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(pe: &mut HjorthPe) -> Vec<i64> {
        std::iter::from_fn(|| pe.pull())
            .filter_map(|t| match t {
                Token::Value(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn emits_three_features_per_selected_channel() {
        let mut pe = HjorthPe::new(3, &[0, 2], 16);
        assert_eq!(pe.values_per_window(), 6);
        for t in 0..16 {
            for c in 0..3i16 {
                pe.push(0, Token::Sample(t as i16 * (c + 1) * 50)).unwrap();
            }
        }
        let v = drain(&mut pe);
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn matches_the_kernel() {
        let samples: Vec<i16> = (0..64)
            .map(|t| (3000.0 * (std::f64::consts::TAU * t as f64 / 16.0).sin()) as i16)
            .collect();
        let mut pe = HjorthPe::new(1, &[0], 64);
        for &s in &samples {
            pe.push(0, Token::Sample(s)).unwrap();
        }
        let got = drain(&mut pe);
        let want = hjorth(&samples).to_features();
        assert_eq!(got, want.to_vec());
    }

    #[test]
    fn flush_emits_partial_window() {
        let mut pe = HjorthPe::new(1, &[0], 100);
        for s in 0..30i16 {
            pe.push(0, Token::Sample(s * 100)).unwrap();
        }
        assert!(drain(&mut pe).is_empty());
        pe.flush();
        assert_eq!(drain(&mut pe).len(), 3);
    }
}
