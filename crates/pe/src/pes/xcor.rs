//! XCOR processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::{BlockXcor, ChannelBlock, StreamingXcor, XcorConfig};

/// Which XCOR algorithm the PE runs — the Figure 6 (left) ablation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XcorVariant {
    /// Algorithm 2: buffer the window, compute in a burst.
    Naive,
    /// Algorithm 3: spatially-reprogrammed streaming computation.
    Streaming,
}

enum Engine {
    Naive(BlockXcor),
    Streaming(StreamingXcor),
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Naive(_) => f.write_str("Engine::Naive"),
            Engine::Streaming(_) => f.write_str("Engine::Streaming"),
        }
    }
}

/// The cross-correlation PE: interleaved frames in, fixed-point
/// correlations (Q14, one [`Token::Value`] per pair) out at each window
/// boundary.
#[derive(Debug)]
pub struct XcorPe {
    engine: Engine,
    channels: usize,
    frame: Vec<i16>,
    out: Fifo,
    // Reusable SoA pivot for the batched push path.
    scratch: ChannelBlock,
}

impl XcorPe {
    /// Fixed-point scale of emitted correlations (Q14).
    pub const SCALE: f64 = 16_384.0;

    /// Creates an XCOR PE.
    pub fn new(config: XcorConfig, variant: XcorVariant) -> Self {
        let channels = config.channels();
        let engine = match variant {
            XcorVariant::Naive => Engine::Naive(BlockXcor::new(config)),
            XcorVariant::Streaming => Engine::Streaming(StreamingXcor::new(config)),
        };
        Self {
            engine,
            channels,
            frame: Vec::new(),
            out: Fifo::new(),
            scratch: ChannelBlock::new(),
        }
    }

    /// Which algorithm this instance runs.
    pub fn variant(&self) -> XcorVariant {
        match self.engine {
            Engine::Naive(_) => XcorVariant::Naive,
            Engine::Streaming(_) => XcorVariant::Streaming,
        }
    }

    fn push_frame(&mut self) {
        let result = match &mut self.engine {
            Engine::Naive(x) => x.push_frame(&self.frame),
            Engine::Streaming(x) => x.push_frame(&self.frame),
        };
        self.frame.clear();
        if let Some(correlations) = result {
            for r in correlations {
                self.out.push(Token::Value((r * Self::SCALE) as i64));
            }
        }
    }
}

impl ProcessingElement for XcorPe {
    fn kind(&self) -> PeKind {
        PeKind::Xcor
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
                self.frame.push(s);
                if self.frame.len() == self.channels {
                    self.push_frame();
                }
            }
            Token::BlockEnd { .. } => self.out.push(token),
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn quiet_frames(&self, frame_samples: usize) -> u64 {
        if frame_samples != self.channels || !self.frame.is_empty() {
            return 0;
        }
        let until = match &self.engine {
            Engine::Naive(x) => x.frames_until_emit(),
            Engine::Streaming(x) => x.frames_until_emit(),
        };
        // The emitting frame itself is not quiet.
        (until as u64).saturating_sub(1)
    }

    fn push_samples(&mut self, port: usize, samples: &[i16]) -> Result<(), PeError> {
        self.check_port(port, &Token::Sample(0))?;
        // Mid-frame state or ragged input: keep the per-sample adapter.
        if !self.frame.is_empty() || !samples.len().is_multiple_of(self.channels) {
            for &s in samples {
                self.push(port, Token::Sample(s))?;
            }
            return Ok(());
        }
        let mut results = Vec::new();
        match &mut self.engine {
            Engine::Naive(x) => x.push_interleaved(samples, &mut results),
            Engine::Streaming(x) => {
                self.scratch.fill_from_interleaved(samples, self.channels);
                x.push_block(&self.scratch, &mut results);
            }
        }
        for correlations in results {
            for r in correlations {
                self.out.push(Token::Value((r * Self::SCALE) as i64));
            }
        }
        Ok(())
    }

    fn flush(&mut self) {
        self.frame.clear();
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        2 * match &self.engine {
            Engine::Naive(x) => x.buffer_samples(),
            Engine::Streaming(x) => x.buffer_samples(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> XcorConfig {
        XcorConfig::new(2, 16, 0, vec![(0, 1)]).unwrap()
    }

    #[test]
    fn variants_agree() {
        let mut a = XcorPe::new(config(), XcorVariant::Naive);
        let mut b = XcorPe::new(config(), XcorVariant::Streaming);
        for t in 0..64i16 {
            for ch in [t * 3 % 50, t * 7 % 50 - 25] {
                a.push(0, Token::Sample(ch)).unwrap();
                b.push(0, Token::Sample(ch)).unwrap();
            }
        }
        let va: Vec<_> = std::iter::from_fn(|| a.pull()).collect();
        let vb: Vec<_> = std::iter::from_fn(|| b.pull()).collect();
        assert_eq!(va.len(), 4); // 64 frames / 16-frame windows
        assert_eq!(va, vb);
    }

    #[test]
    fn identical_channels_score_full_scale() {
        let mut pe = XcorPe::new(config(), XcorVariant::Streaming);
        for t in 0..16i16 {
            let v = t * 11 % 40 - 20;
            pe.push(0, Token::Sample(v)).unwrap();
            pe.push(0, Token::Sample(v)).unwrap();
        }
        match pe.pull() {
            Some(Token::Value(v)) => assert_eq!(v, XcorPe::SCALE as i64),
            other => panic!("expected value, got {other:?}"),
        }
    }

    #[test]
    fn streaming_buffer_is_smaller() {
        let cfg = XcorConfig::new(8, 512, 16, vec![(0, 1)]).unwrap();
        let naive = XcorPe::new(cfg.clone(), XcorVariant::Naive);
        let streaming = XcorPe::new(cfg, XcorVariant::Streaming);
        assert!(streaming.memory_bytes() < naive.memory_bytes() / 4);
    }
}
