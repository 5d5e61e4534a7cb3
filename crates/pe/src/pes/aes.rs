//! AES processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::Aes128;

/// The AES-128 PE: plaintext bytes in, ECB ciphertext bytes out.
///
/// Buffers 16-byte blocks; `flush` zero-pads a trailing partial block, as
/// the exfiltration framing records true lengths out of band.
#[derive(Debug)]
pub struct AesPe {
    aes: Aes128,
    block: Vec<u8>,
    from_samples: bool,
    out: Fifo,
}

impl AesPe {
    /// Creates an AES PE with the given 128-bit key.
    pub fn new(key: [u8; 16]) -> Self {
        Self {
            aes: Aes128::new(key),
            block: Vec::with_capacity(16),
            from_samples: false,
            out: Fifo::new(),
        }
    }

    /// Configures the input adapter to accept 16-bit samples, serializing
    /// them little-endian.
    pub fn from_samples(mut self) -> Self {
        self.from_samples = true;
        self
    }

    /// Encrypts the staged block, zero-padded to 16 bytes.
    fn emit_block(&mut self) {
        let mut buf = [0u8; 16];
        buf[..self.block.len()].copy_from_slice(&self.block);
        self.block.clear();
        self.emit(buf);
    }

    fn emit(&mut self, mut block: [u8; 16]) {
        self.aes.encrypt_block(&mut block);
        self.out.extend(block.map(Token::Byte));
    }

    fn stage_sample(&mut self, s: i16) {
        self.block.extend_from_slice(&s.to_le_bytes());
        if self.block.len() >= 16 {
            self.emit_block();
        }
    }
}

impl ProcessingElement for AesPe {
    fn kind(&self) -> PeKind {
        PeKind::Aes
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        if self.from_samples {
            &[InterfaceKind::Samples]
        } else {
            &[InterfaceKind::Bytes]
        }
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Bytes
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Byte(b) => {
                self.block.push(b);
                if self.block.len() == 16 {
                    self.emit_block();
                }
            }
            Token::Sample(s) => self.stage_sample(s),
            Token::BlockEnd { .. } => {
                if !self.block.is_empty() {
                    self.emit_block();
                }
                self.out.push(token);
            }
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn push_samples(&mut self, port: usize, samples: &[i16]) -> Result<(), PeError> {
        let Some(&first) = samples.first() else {
            return Ok(());
        };
        self.check_port(port, &Token::Sample(first))?;
        // Top up a staged partial block, then encrypt whole blocks of
        // eight samples straight from the slice and stage the tail.
        let mut rest = samples;
        while !self.block.is_empty() {
            let Some((&s, tail)) = rest.split_first() else {
                break;
            };
            self.stage_sample(s);
            rest = tail;
        }
        let mut blocks = rest.chunks_exact(8);
        for chunk in &mut blocks {
            let mut block = [0u8; 16];
            for (bytes, s) in block.chunks_exact_mut(2).zip(chunk) {
                bytes.copy_from_slice(&s.to_le_bytes());
            }
            self.emit(block);
        }
        for &s in blocks.remainder() {
            self.block.extend_from_slice(&s.to_le_bytes());
        }
        Ok(())
    }

    fn flush(&mut self) {
        if !self.block.is_empty() {
            self.emit_block();
        }
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Round keys (11 × 16) + state + staging block.
        11 * 16 + 16 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_kernel_ecb() {
        let key = [3u8; 16];
        let data: Vec<u8> = (0..40).collect(); // 2.5 blocks
        let want = Aes128::new(key).encrypt_ecb(&data);
        let mut pe = AesPe::new(key);
        for &b in &data {
            pe.push(0, Token::Byte(b)).unwrap();
        }
        pe.flush();
        let got: Vec<u8> = std::iter::from_fn(|| pe.pull())
            .filter_map(|t| match t {
                Token::Byte(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn ciphertext_decrypts_back() {
        let key = [9u8; 16];
        let data = b"neural telemetry".to_vec(); // exactly one block
        let mut pe = AesPe::new(key);
        for &b in &data {
            pe.push(0, Token::Byte(b)).unwrap();
        }
        let ct: Vec<u8> = std::iter::from_fn(|| pe.pull())
            .filter_map(|t| match t {
                Token::Byte(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(Aes128::new(key).decrypt_ecb(&ct), data);
    }

    #[test]
    fn no_output_until_block_fills() {
        let mut pe = AesPe::new([0u8; 16]);
        for b in 0..15u8 {
            pe.push(0, Token::Byte(b)).unwrap();
        }
        assert_eq!(pe.pull(), None);
        pe.push(0, Token::Byte(15)).unwrap();
        assert!(pe.pull().is_some());
    }
}
