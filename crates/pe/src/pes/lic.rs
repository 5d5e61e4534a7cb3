//! LIC processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::{lic_encode, LzOp};

/// The linear-integer-coding PE: LZ ops in, LZ4-format bytes out.
///
/// Emits each block's payload bytes followed by the block marker so the
/// task layer can frame them for the radio.
#[derive(Debug, Default)]
pub struct LicPe {
    ops: Vec<LzOp>,
    out: Fifo,
}

impl LicPe {
    /// Creates an empty LIC PE.
    pub fn new() -> Self {
        Self::default()
    }

    fn run_block(&mut self, raw_len: u32) {
        let payload = lic_encode(&self.ops);
        self.ops.clear();
        self.out.extend(payload.into_iter().map(Token::Byte));
        self.out.push(Token::BlockEnd { raw_len });
    }
}

impl ProcessingElement for LicPe {
    fn kind(&self) -> PeKind {
        PeKind::Lic
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Ops]
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Bytes
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Op(op) => self.ops.push(op),
            Token::BlockEnd { raw_len } => self.run_block(raw_len),
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn flush(&mut self) {
        if !self.ops.is_empty() {
            let raw_len: u32 = self
                .ops
                .iter()
                .map(|op| match op {
                    LzOp::Literal(_) => 1,
                    LzOp::Match { len, .. } => *len,
                })
                .sum();
            self.run_block(raw_len);
        }
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Table III: a 256-byte literal array plus a small staging FIFO.
        // (The hardware encodes ops as they arrive; whole-block op staging
        // here is a simulation convenience.)
        256 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_kernels::{lic_decode, LzMatcher};

    #[test]
    fn pipeline_output_equals_monolithic_encoder() {
        let data = b"gamma oscillations gamma oscillations".to_vec();
        let ops = LzMatcher::new(256).unwrap().parse(&data);
        let want = lic_encode(&ops);
        let mut pe = LicPe::new();
        for &op in &ops {
            pe.push(0, Token::Op(op)).unwrap();
        }
        pe.push(
            0,
            Token::BlockEnd {
                raw_len: data.len() as u32,
            },
        )
        .unwrap();
        let mut got = Vec::new();
        while let Some(t) = pe.pull() {
            if let Token::Byte(b) = t {
                got.push(b);
            }
        }
        assert_eq!(got, want);
        assert_eq!(lic_decode(&got).unwrap(), data);
    }

    #[test]
    fn flush_computes_raw_length() {
        let mut pe = LicPe::new();
        pe.push(0, Token::Op(LzOp::Literal(7))).unwrap();
        pe.push(0, Token::Op(LzOp::Literal(7))).unwrap();
        pe.flush();
        let marker = std::iter::from_fn(|| pe.pull()).find(|t| matches!(t, Token::BlockEnd { .. }));
        assert_eq!(marker, Some(Token::BlockEnd { raw_len: 2 }));
    }
}
