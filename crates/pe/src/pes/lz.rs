//! LZ processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::LzMatcher;

/// The Lempel-Ziv PE: bytes in, parse ops out, block markers at block
/// boundaries.
///
/// Shared front-end of the LZ4 and LZMA pipelines (§IV-A). The history
/// length is the doctor-tunable knob ("the doctor/technician can reduce
/// history size via the micro-controller … we power-gate unused memory
/// banks").
#[derive(Debug)]
pub struct LzPe {
    matcher: LzMatcher,
    block_size: usize,
    buffer: Vec<u8>,
    from_samples: bool,
    out: Fifo,
}

impl LzPe {
    /// Creates an LZ PE with the given matcher and block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(matcher: LzMatcher, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            matcher,
            block_size,
            buffer: Vec::new(),
            from_samples: false,
            out: Fifo::new(),
        }
    }

    /// Configures the input adapter to accept 16-bit samples, serializing
    /// them little-endian (§IV-D: the FIFO adapter "transfers data from the
    /// network into the form expected by the PE").
    pub fn from_samples(mut self) -> Self {
        self.from_samples = true;
        self
    }

    /// Configured history window.
    pub fn history(&self) -> usize {
        self.matcher.history()
    }

    /// Configured block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn run_block(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.out
            .extend(self.matcher.parse(&self.buffer).into_iter().map(Token::Op));
        self.out.push(Token::BlockEnd {
            raw_len: self.buffer.len() as u32,
        });
        self.buffer.clear();
    }
}

impl ProcessingElement for LzPe {
    fn kind(&self) -> PeKind {
        PeKind::Lz
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        if self.from_samples {
            &[InterfaceKind::Samples]
        } else {
            &[InterfaceKind::Bytes]
        }
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Ops
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Byte(b) => {
                self.buffer.push(b);
                if self.buffer.len() >= self.block_size {
                    self.run_block();
                }
            }
            Token::Sample(s) => {
                self.buffer.extend_from_slice(&s.to_le_bytes());
                if self.buffer.len() >= self.block_size {
                    self.run_block();
                }
            }
            Token::BlockEnd { .. } => self.run_block(),
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn flush(&mut self) {
        self.run_block();
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Hardware requirement: head/chain arrays plus the history window
        // (Table III). The software block staging buffer is a simulation
        // convenience — the hardware streams through its window and resets
        // tables at block boundaries.
        self.matcher.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_kernels::LzOp;

    #[test]
    fn parse_matches_kernel() {
        let data = b"alpha beta alpha beta alpha".to_vec();
        let want = LzMatcher::new(256).unwrap().parse(&data);
        let mut pe = LzPe::new(LzMatcher::new(256).unwrap(), 1024);
        for &b in &data {
            pe.push(0, Token::Byte(b)).unwrap();
        }
        pe.flush();
        let mut got = Vec::new();
        let mut marker = None;
        while let Some(t) = pe.pull() {
            match t {
                Token::Op(op) => got.push(op),
                Token::BlockEnd { raw_len } => marker = Some(raw_len),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(got, want);
        assert_eq!(marker, Some(data.len() as u32));
    }

    #[test]
    fn blocks_split_at_block_size() {
        let mut pe = LzPe::new(LzMatcher::new(256).unwrap(), 4);
        for b in 0..8u8 {
            pe.push(0, Token::Byte(b)).unwrap();
        }
        let markers = std::iter::from_fn(|| pe.pull())
            .filter(|t| matches!(t, Token::BlockEnd { .. }))
            .count();
        assert_eq!(markers, 2);
    }

    #[test]
    fn literals_for_unique_bytes() {
        let mut pe = LzPe::new(LzMatcher::new(256).unwrap(), 16);
        for b in [1u8, 2, 3] {
            pe.push(0, Token::Byte(b)).unwrap();
        }
        pe.flush();
        let ops: Vec<_> = std::iter::from_fn(|| pe.pull()).collect();
        assert_eq!(
            &ops[..3],
            &[
                Token::Op(LzOp::Literal(1)),
                Token::Op(LzOp::Literal(2)),
                Token::Op(LzOp::Literal(3))
            ]
        );
    }
}
