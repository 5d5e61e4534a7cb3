//! DWT processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::Dwt;

/// Operating mode of the DWT PE — the configurability that lets spike
/// detection and compression share it (§IV-A: "spike detection requires
/// recursive applications of DWT … while compression requires only one").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DwtMode {
    /// Spike detection: emit deepest-level detail magnitudes as values.
    SpikeDetect,
    /// Compression: emit all coefficients followed by a block marker, for
    /// the MA/RC pair downstream.
    Compress,
}

/// The discrete-wavelet-transform PE.
#[derive(Debug)]
pub struct DwtPe {
    dwt: Dwt,
    mode: DwtMode,
    block_samples: usize,
    buffer: Vec<i16>,
    out: Fifo,
}

impl DwtPe {
    /// Creates a DWT PE operating on blocks of `block_samples` (rounded up
    /// to the transform granularity).
    ///
    /// # Panics
    ///
    /// Panics if `block_samples` is zero.
    pub fn new(dwt: Dwt, mode: DwtMode, block_samples: usize) -> Self {
        assert!(block_samples > 0, "block size must be positive");
        let m = dwt.block_multiple();
        Self {
            dwt,
            mode,
            block_samples: block_samples.div_ceil(m) * m,
            buffer: Vec::new(),
            out: Fifo::new(),
        }
    }

    /// Configured recursion depth.
    pub fn levels(&self) -> usize {
        self.dwt.levels()
    }

    /// Configured block size in samples.
    pub fn block_samples(&self) -> usize {
        self.block_samples
    }

    fn run_block(&mut self, raw_len: usize) {
        if raw_len == 0 {
            return;
        }
        let m = self.dwt.block_multiple();
        let padded = raw_len.div_ceil(m) * m;
        let mut coeffs: Vec<i32> = self.buffer.iter().map(|&s| s as i32).collect();
        coeffs.resize(padded, 0);
        self.dwt.forward(&mut coeffs);
        match self.mode {
            DwtMode::SpikeDetect => {
                let details = self.dwt.deepest_detail(&coeffs);
                self.out
                    .extend(details.iter().map(|&d| Token::Value(d.abs() as i64)));
            }
            DwtMode::Compress => {
                self.out.extend(coeffs.iter().map(|&c| Token::Coeff(c)));
                self.out.push(Token::BlockEnd {
                    raw_len: raw_len as u32,
                });
            }
        }
        self.buffer.clear();
    }
}

impl ProcessingElement for DwtPe {
    fn kind(&self) -> PeKind {
        PeKind::Dwt
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Samples]
    }

    fn output_kind(&self) -> InterfaceKind {
        match self.mode {
            DwtMode::SpikeDetect => InterfaceKind::Values,
            DwtMode::Compress => InterfaceKind::Coeffs,
        }
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Sample(s) => {
                self.buffer.push(s);
                if self.buffer.len() == self.block_samples {
                    self.run_block(self.block_samples);
                }
            }
            Token::BlockEnd { .. } => {
                let len = self.buffer.len();
                self.run_block(len);
            }
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn flush(&mut self) {
        let len = self.buffer.len();
        self.run_block(len);
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Hardware requirement: lifting line buffers per level plus a
        // small reorder FIFO (Table IV charges DWT no memory macro). The
        // software block buffer is a simulation convenience.
        self.dwt.levels() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_mode_emits_coeffs_and_marker() {
        let dwt = Dwt::new(1).unwrap();
        let mut pe = DwtPe::new(dwt, DwtMode::Compress, 8);
        for s in 0..8i16 {
            pe.push(0, Token::Sample(s * 100)).unwrap();
        }
        let tokens: Vec<_> = std::iter::from_fn(|| pe.pull()).collect();
        assert_eq!(tokens.len(), 9);
        assert!(matches!(tokens[8], Token::BlockEnd { raw_len: 8 }));
        // Coefficients match the kernel directly.
        let want = Dwt::new(1)
            .unwrap()
            .forward_i16(&(0..8).map(|s| s * 100).collect::<Vec<i16>>());
        for (t, w) in tokens[..8].iter().zip(want) {
            assert_eq!(*t, Token::Coeff(w));
        }
    }

    #[test]
    fn spike_mode_lights_up_on_transient() {
        let dwt = Dwt::new(3).unwrap();
        let mut pe = DwtPe::new(dwt, DwtMode::SpikeDetect, 64);
        for i in 0..64 {
            let s = if i == 32 { 12_000 } else { 0 };
            pe.push(0, Token::Sample(s)).unwrap();
        }
        let values: Vec<i64> = std::iter::from_fn(|| pe.pull())
            .map(|t| match t {
                Token::Value(v) => v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(values.len(), 8); // 64 / 2^3
        assert!(values.iter().any(|&v| v > 1000), "{values:?}");
    }

    #[test]
    fn flush_pads_partial_block() {
        let dwt = Dwt::new(2).unwrap();
        let mut pe = DwtPe::new(dwt, DwtMode::Compress, 16);
        for s in 0..5i16 {
            pe.push(0, Token::Sample(s)).unwrap();
        }
        pe.flush();
        let tokens: Vec<_> = std::iter::from_fn(|| pe.pull()).collect();
        // Padded to 8 coefficients + marker with the true length.
        assert_eq!(tokens.len(), 9);
        assert!(matches!(tokens[8], Token::BlockEnd { raw_len: 5 }));
    }
}
