//! Typed token streams exchanged between PEs.

use halo_kernels::LzOp;

/// One message on the inter-PE interconnect.
///
/// §IV-D: "HALO's interconnect sends messages in streams of bytes, bits,
/// and tokens (packets of multiple values)." Each variant corresponds to a
/// wire-level stream format; [`Token::kind`] gives the interface type used
/// for route validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A 16-bit ADC sample.
    Sample(i16),
    /// A raw byte (serialized streams, compressed output).
    Byte(u8),
    /// A single bit (THR output, GATE control).
    Flag(bool),
    /// A scalar value (NEO energy, band power, correlation).
    Value(i64),
    /// A DWT coefficient.
    Coeff(i32),
    /// An LZ parse op (LZ → LIC / MA).
    Op(LzOp),
    /// A probability triple (MA → RC), exactly the counter values Table III
    /// says MA "emits to RC for each input".
    Prob {
        /// Cumulative frequency below the symbol.
        cum: u32,
        /// Symbol frequency.
        freq: u32,
        /// Table total.
        total: u32,
    },
    /// Raw bits routed through RC at uniform probability (MA → RC).
    Bits {
        /// The bit payload.
        value: u32,
        /// Number of bits (≤ 32).
        bits: u32,
    },
    /// End-of-block control marker carrying the raw byte/sample count of
    /// the finished block. Valid on every interface.
    BlockEnd {
        /// Uncompressed length of the block just ended.
        raw_len: u32,
    },
    /// A packet of values. No PE emits it and no port accepts
    /// [`InterfaceKind::Vectors`]; it stays while the benchmark package's
    /// replay still names it. The payload is boxed so it does not widen
    /// every other token.
    Vector(Box<Vec<i32>>),
}

/// The interface type of a PE port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceKind {
    /// 16-bit samples.
    Samples,
    /// Raw bytes.
    Bytes,
    /// Single bits.
    Flags,
    /// 64-bit scalars.
    Values,
    /// 32-bit DWT coefficients.
    Coeffs,
    /// LZ parse ops.
    Ops,
    /// Probability triples and direct bits.
    Probs,
    /// Value packets.
    Vectors,
}

impl std::fmt::Display for InterfaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Samples => "samples",
            Self::Bytes => "bytes",
            Self::Flags => "flags",
            Self::Values => "values",
            Self::Coeffs => "coeffs",
            Self::Ops => "ops",
            Self::Probs => "probs",
            Self::Vectors => "vectors",
        };
        f.write_str(s)
    }
}

impl Token {
    /// The interface this token travels on, or `None` for control markers
    /// ([`Token::BlockEnd`]) which are valid on every interface.
    pub fn kind(&self) -> Option<InterfaceKind> {
        match self {
            Token::Sample(_) => Some(InterfaceKind::Samples),
            Token::Byte(_) => Some(InterfaceKind::Bytes),
            Token::Flag(_) => Some(InterfaceKind::Flags),
            Token::Value(_) => Some(InterfaceKind::Values),
            Token::Coeff(_) => Some(InterfaceKind::Coeffs),
            Token::Op(_) => Some(InterfaceKind::Ops),
            Token::Prob { .. } | Token::Bits { .. } => Some(InterfaceKind::Probs),
            Token::BlockEnd { .. } => None,
            Token::Vector(_) => Some(InterfaceKind::Vectors),
        }
    }

    /// Flips one payload bit in place — the single-event-upset model the
    /// fault-injection harness uses. `bit` is reduced modulo the payload
    /// width, so any index lands deterministically. Control markers
    /// ([`Token::BlockEnd`]) and ops flip their numeric fields; an empty
    /// [`Token::Vector`] has no payload and is left unchanged.
    pub fn flip_bit(&mut self, bit: u32) {
        fn flip<const N: u32>(v: u64, bit: u32) -> u64 {
            v ^ (1 << (bit % N))
        }
        match self {
            Token::Sample(s) => *s = flip::<16>(*s as u64, bit) as i16,
            Token::Byte(b) => *b = flip::<8>(*b as u64, bit) as u8,
            Token::Flag(f) => *f = !*f,
            Token::Value(v) => *v = flip::<64>(*v as u64, bit) as i64,
            Token::Coeff(c) => *c = flip::<32>(*c as u64, bit) as i32,
            Token::Op(_) => {}
            Token::Prob { cum, .. } => *cum = flip::<32>(*cum as u64, bit) as u32,
            Token::Bits { value, .. } => *value = flip::<32>(*value as u64, bit) as u32,
            Token::BlockEnd { raw_len } => *raw_len = flip::<32>(*raw_len as u64, bit) as u32,
            Token::Vector(v) => {
                if !v.is_empty() {
                    let idx = (bit / 32) as usize % v.len();
                    v[idx] ^= 1 << (bit % 32);
                }
            }
        }
    }

    /// Payload size on the 8-bit interconnect bus, in bytes — what the
    /// SEND-ACK accounting charges per transfer.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Token::Sample(_) => 2,
            Token::Byte(_) => 1,
            Token::Flag(_) => 1,
            Token::Value(_) => 8,
            Token::Coeff(_) => 4,
            Token::Op(_) => 5,
            Token::Prob { .. } => 8,
            Token::Bits { .. } => 5,
            Token::BlockEnd { .. } => 4,
            Token::Vector(v) => 4 * v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Token::Sample(0).kind(), Some(InterfaceKind::Samples));
        assert_eq!(Token::Byte(0).kind(), Some(InterfaceKind::Bytes));
        assert_eq!(Token::Flag(true).kind(), Some(InterfaceKind::Flags));
        assert_eq!(Token::Value(1).kind(), Some(InterfaceKind::Values));
        assert_eq!(Token::Coeff(1).kind(), Some(InterfaceKind::Coeffs));
        assert_eq!(
            Token::Prob {
                cum: 0,
                freq: 1,
                total: 2
            }
            .kind(),
            Some(InterfaceKind::Probs)
        );
        assert_eq!(
            Token::Bits { value: 0, bits: 1 }.kind(),
            Some(InterfaceKind::Probs)
        );
        assert_eq!(Token::BlockEnd { raw_len: 0 }.kind(), None);
        assert_eq!(
            Token::Vector(Box::default()).kind(),
            Some(InterfaceKind::Vectors)
        );
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        assert_eq!(Token::Byte(1).wire_bytes(), 1);
        assert_eq!(Token::Sample(1).wire_bytes(), 2);
        assert_eq!(Token::Vector(Box::new(vec![1, 2, 3])).wire_bytes(), 12);
    }

    /// Every FIFO and burst moves tokens by value, so a token's size is
    /// the unit of the hot path's memory traffic; a payload wider than
    /// 12 bytes belongs behind a box, as [`Token::Vector`]'s is.
    #[test]
    fn token_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Token>(), 16);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(InterfaceKind::Samples.to_string(), "samples");
        assert_eq!(InterfaceKind::Probs.to_string(), "probs");
    }
}
