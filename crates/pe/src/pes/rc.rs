//! RC processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{burst_loop, PeKind, ProcessingElement};
use halo_kernels::RangeEncoder;
use std::collections::VecDeque;

/// The range-coder PE: probability triples and direct bits in, encoded
/// bytes out. The encoder state (blue in Figure 3) lives here; the
/// frequency tables live upstream in MA.
///
/// Bytes stream out as the coder renormalizes; at each block marker the
/// coder flushes, emits its tail bytes, forwards the marker, and restarts.
/// A burst moves the renormalized bytes to the FIFO once, at its end.
#[derive(Debug)]
pub struct RcPe {
    enc: Option<RangeEncoder>,
    emitted: usize,
    out: Fifo,
}

impl Default for RcPe {
    fn default() -> Self {
        Self::new()
    }
}

impl RcPe {
    /// Creates an RC PE with a fresh encoder.
    pub fn new() -> Self {
        Self {
            enc: Some(RangeEncoder::new()),
            emitted: 0,
            out: Fifo::new(),
        }
    }

    fn encoder(&mut self) -> &mut RangeEncoder {
        self.enc.as_mut().expect("encoder present between blocks")
    }

    /// Whether renormalized bytes wait in the encoder, not yet in the FIFO.
    fn bytes_pending(&self) -> bool {
        self.enc
            .as_ref()
            .is_some_and(|enc| enc.bytes_written() > self.emitted)
    }

    /// Streams any newly renormalized bytes out of the encoder.
    fn drain_encoder(&mut self) {
        // Disjoint field borrows: read the encoder's append-only buffer
        // while pushing into the output FIFO, no intermediate copy.
        let Self { enc, emitted, out } = self;
        let enc = enc.as_ref().expect("encoder present between blocks");
        let n = enc.bytes_written();
        if n > *emitted {
            out.extend(enc.as_bytes()[*emitted..n].iter().map(|&b| Token::Byte(b)));
            *emitted = n;
        }
    }
}

impl ProcessingElement for RcPe {
    fn kind(&self) -> PeKind {
        PeKind::Rc
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Probs]
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Bytes
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Prob { cum, freq, total } => {
                self.encoder().encode(cum, freq, total);
                self.drain_encoder();
            }
            Token::Bits { value, bits } => {
                self.encoder().encode_bits(value, bits);
                self.drain_encoder();
            }
            Token::BlockEnd { raw_len } => {
                let enc = self.enc.take().expect("encoder present between blocks");
                let bytes = enc.finish();
                self.out
                    .extend(bytes[self.emitted..].iter().map(|&b| Token::Byte(b)));
                self.out.push(Token::BlockEnd { raw_len });
                self.enc = Some(RangeEncoder::new());
                self.emitted = 0;
            }
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    /// Encodes the burst's probability tokens without draining the encoder
    /// per token; its bytes reach the FIFO before any other token is
    /// pushed and at the burst's end. Bytes waiting in the encoder count
    /// as occupying the FIFO, so the stall count is the per-token one.
    fn push_burst(&mut self, port: usize, tokens: &mut VecDeque<Token>) -> Result<u64, PeError> {
        let occupied = |pe: &Self| !pe.out.is_empty() || pe.bytes_pending();
        let result = burst_loop(self, tokens, occupied, |pe, token| {
            match token {
                Token::Prob { cum, freq, total } if port == 0 => {
                    pe.encoder().encode(cum, freq, total)
                }
                Token::Bits { value, bits } if port == 0 => pe.encoder().encode_bits(value, bits),
                token => {
                    pe.drain_encoder();
                    return pe.push(port, token);
                }
            }
            Ok(())
        });
        self.drain_encoder();
        result
    }

    fn flush(&mut self) {}

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Coder registers only — Table IV charges RC no memory macro.
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_kernels::RangeDecoder;

    #[test]
    fn pipeline_bytes_decode_correctly() {
        // Encode a fixed symbol sequence through the PE and decode with the
        // kernel decoder.
        let freqs = [(0u32, 5u32), (5, 3), (8, 2)]; // (cum, freq), total 10
        let symbols = [0usize, 1, 0, 2, 0, 0, 1];
        let mut pe = RcPe::new();
        for &s in &symbols {
            let (cum, freq) = freqs[s];
            pe.push(
                0,
                Token::Prob {
                    cum,
                    freq,
                    total: 10,
                },
            )
            .unwrap();
        }
        pe.push(
            0,
            Token::BlockEnd {
                raw_len: symbols.len() as u32,
            },
        )
        .unwrap();
        let mut bytes = Vec::new();
        while let Some(t) = pe.pull() {
            if let Token::Byte(b) = t {
                bytes.push(b);
            }
        }
        let mut dec = RangeDecoder::new(&bytes);
        for &s in &symbols {
            let target = dec.decode_freq(10);
            let sym = freqs.iter().rposition(|&(c, _)| c <= target).unwrap();
            assert_eq!(sym, s);
            let (cum, freq) = freqs[sym];
            dec.decode_update(cum, freq, 10);
        }
    }

    #[test]
    fn block_end_restarts_encoder() {
        let mut pe = RcPe::new();
        pe.push(
            0,
            Token::Prob {
                cum: 0,
                freq: 1,
                total: 2,
            },
        )
        .unwrap();
        pe.push(0, Token::BlockEnd { raw_len: 1 }).unwrap();
        let first: Vec<_> = std::iter::from_fn(|| pe.pull()).collect();
        pe.push(
            0,
            Token::Prob {
                cum: 0,
                freq: 1,
                total: 2,
            },
        )
        .unwrap();
        pe.push(0, Token::BlockEnd { raw_len: 1 }).unwrap();
        let second: Vec<_> = std::iter::from_fn(|| pe.pull()).collect();
        assert_eq!(first, second, "fresh encoder per block");
    }
}
