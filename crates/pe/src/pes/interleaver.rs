//! The standalone interleaver.
//!
//! §IV: "Many of our PEs, like LZ and FFT, require computational resources
//! that scale with the number of sensor channels … we implement a
//! standalone interleaver that buffers and rearranges data so that these
//! PEs can be time-multiplexed to operate on a single channel at a time."
//! The interleave depth is the Figure 7 (right) design-space knob.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};

/// The interleaver PE: converts a frame-interleaved sample stream
/// (`c0 c1 … cN-1, c0 c1 …`) into per-channel runs of `depth` samples
/// (`c0×depth, c1×depth, …`).
#[derive(Debug)]
pub struct InterleaverPe {
    channels: usize,
    depth: usize,
    buffers: Vec<Vec<i16>>,
    next_channel: usize,
    out: Fifo,
}

impl InterleaverPe {
    /// Creates an interleaver for `channels` channels with runs of `depth`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `depth` is zero.
    pub fn new(channels: usize, depth: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(depth > 0, "depth must be positive");
        Self {
            channels,
            depth,
            buffers: vec![Vec::new(); channels],
            next_channel: 0,
            out: Fifo::new(),
        }
    }

    /// Configured channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Configured interleave depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    fn push_sample(&mut self, s: i16) {
        self.buffers[self.next_channel].push(s);
        self.next_channel = (self.next_channel + 1) % self.channels;
        if self.next_channel == 0 && self.buffers[self.channels - 1].len() == self.depth {
            self.emit_runs();
        }
    }

    fn emit_runs(&mut self) {
        for buf in &mut self.buffers {
            for s in buf.drain(..) {
                self.out.push(Token::Sample(s));
            }
        }
    }
}

impl ProcessingElement for InterleaverPe {
    fn kind(&self) -> PeKind {
        PeKind::Interleaver
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Samples]
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Samples
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Sample(s) => self.push_sample(s),
            Token::BlockEnd { .. } => {
                self.emit_runs();
                self.next_channel = 0;
                self.out.push(token);
            }
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn pull(&mut self) -> Option<Token> {
        self.out.pop()
    }

    fn push_samples(&mut self, port: usize, samples: &[i16]) -> Result<(), PeError> {
        let Some(&first) = samples.first() else {
            return Ok(());
        };
        self.check_port(port, &Token::Sample(first))?;
        let mut rest = samples;
        while self.next_channel != 0 {
            let Some((&s, tail)) = rest.split_first() else {
                break;
            };
            self.push_sample(s);
            rest = tail;
        }
        // At a frame boundary every buffer holds the same number of frames:
        // transpose whole frames up to the one that completes the runs.
        while rest.len() >= self.channels {
            let frames = (rest.len() / self.channels).min(self.depth - self.buffers[0].len());
            let (now, tail) = rest.split_at(frames * self.channels);
            for (c, buf) in self.buffers.iter_mut().enumerate() {
                buf.extend(now[c..].iter().step_by(self.channels));
            }
            if self.buffers[0].len() == self.depth {
                self.emit_runs();
            }
            rest = tail;
        }
        for &s in rest {
            self.push_sample(s);
        }
        Ok(())
    }

    /// At a frame boundary, whole frames emit nothing until the one that
    /// fills every run to `depth`; mid-frame or for other frame shapes,
    /// nothing is promised.
    fn quiet_frames(&self, frame_samples: usize) -> u64 {
        if frame_samples != self.channels || self.next_channel != 0 {
            return 0;
        }
        (self.depth - 1 - self.buffers[0].len()) as u64
    }

    fn flush(&mut self) {
        self.emit_runs();
        self.next_channel = 0;
    }

    fn output_fifo(&self) -> Option<&Fifo> {
        Some(&self.out)
    }

    fn output_fifo_mut(&mut self) -> Option<&mut Fifo> {
        Some(&mut self.out)
    }

    fn memory_bytes(&self) -> usize {
        self.channels * self.depth * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(pe: &mut InterleaverPe) -> Vec<i16> {
        std::iter::from_fn(|| pe.pull())
            .map(|t| match t {
                Token::Sample(s) => s,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn reorders_into_channel_runs() {
        let mut pe = InterleaverPe::new(3, 2);
        // Frames: (1,2,3), (4,5,6)
        for s in [1i16, 2, 3, 4, 5, 6] {
            pe.push(0, Token::Sample(s)).unwrap();
        }
        assert_eq!(drain(&mut pe), vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn depth_one_is_identity() {
        let mut pe = InterleaverPe::new(4, 1);
        for s in 0..8i16 {
            pe.push(0, Token::Sample(s)).unwrap();
        }
        assert_eq!(drain(&mut pe), (0..8).collect::<Vec<i16>>());
    }

    #[test]
    fn flush_emits_partial_runs() {
        let mut pe = InterleaverPe::new(2, 4);
        for s in [1i16, 10, 2, 20, 3] {
            pe.push(0, Token::Sample(s)).unwrap();
        }
        assert_eq!(drain(&mut pe), Vec::<i16>::new());
        pe.flush();
        assert_eq!(drain(&mut pe), vec![1, 2, 3, 10, 20]);
    }

    #[test]
    fn memory_scales_with_depth() {
        assert_eq!(InterleaverPe::new(96, 128).memory_bytes(), 96 * 128 * 2);
    }
}
