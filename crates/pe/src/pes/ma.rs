//! MA processing element.
//!
//! The MA/RC split is the paper's marquee *locality refactoring* (§IV-A,
//! Figure 3): after refactoring, MA owns the frequency table (green) and RC
//! owns the encoder state (blue); MA emits `(cumulative, frequency, total)`
//! triples and raw bits, which is exactly the token traffic modeled here.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::dwtma::COEFF_CLASSES;
use halo_kernels::lz::MIN_MATCH;
use halo_kernels::lzma::{LiteralHistory, LITERAL_CONTEXTS};
use halo_kernels::{AdaptiveModel, LzOp};

/// Which pipeline the MA PE is serving — Table III: "counters for each
/// input type (literal, length, offset in LZ and predict, updates in DWT)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaMode {
    /// LZMA: model LZ ops (flag, parity-context literals, length and
    /// distance classes).
    Lzma,
    /// DWTMA: model DWT coefficients (approximation/detail class split);
    /// the depth must match the upstream DWT PE.
    Dwt {
        /// DWT recursion depth of the upstream PE.
        levels: usize,
    },
}

struct LzmaModels {
    flag: AdaptiveModel,
    literal: Vec<AdaptiveModel>,
    len_class: AdaptiveModel,
    dist_class: AdaptiveModel,
    history: LiteralHistory,
}

impl LzmaModels {
    fn new(counter_bits: u32) -> Self {
        Self {
            flag: AdaptiveModel::with_counter_bits(2, counter_bits),
            literal: (0..LITERAL_CONTEXTS)
                .map(|_| AdaptiveModel::with_counter_bits(256, counter_bits))
                .collect(),
            len_class: AdaptiveModel::with_counter_bits(17, counter_bits),
            dist_class: AdaptiveModel::with_counter_bits(14, counter_bits),
            history: LiteralHistory::new(),
        }
    }

    /// Block-boundary re-initialization in place (§IV-B's initialization
    /// circuit): identical state to a fresh model set, no reallocation.
    fn reset(&mut self) {
        self.flag.reset();
        for m in &mut self.literal {
            m.reset();
        }
        self.len_class.reset();
        self.dist_class.reset();
        self.history = LiteralHistory::new();
    }
}

struct DwtModels {
    approx: AdaptiveModel,
    detail: AdaptiveModel,
    coeffs: Vec<i32>,
}

impl DwtModels {
    fn new(counter_bits: u32) -> Self {
        Self {
            approx: AdaptiveModel::with_counter_bits(COEFF_CLASSES, counter_bits),
            detail: AdaptiveModel::with_counter_bits(COEFF_CLASSES, counter_bits),
            coeffs: Vec::new(),
        }
    }
}

enum State {
    Lzma(LzmaModels),
    Dwt(DwtModels),
}

/// The Markov-model PE: parse ops or DWT coefficients in, probability
/// triples and direct bits out.
pub struct MaPe {
    mode: MaMode,
    counter_bits: u32,
    state: State,
    out: Fifo,
}

impl std::fmt::Debug for MaPe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaPe")
            .field("mode", &self.mode)
            .field("counter_bits", &self.counter_bits)
            .finish_non_exhaustive()
    }
}

impl MaPe {
    /// Creates an MA PE for a pipeline mode with the given counter width.
    ///
    /// # Panics
    ///
    /// Panics if a DWT mode's `levels` is outside 1–5.
    pub fn new(mode: MaMode, counter_bits: u32) -> Self {
        let state = match mode {
            MaMode::Lzma => State::Lzma(LzmaModels::new(counter_bits)),
            MaMode::Dwt { levels } => {
                assert!((1..=5).contains(&levels), "dwt levels {levels} invalid");
                State::Dwt(DwtModels::new(counter_bits))
            }
        };
        Self {
            mode,
            counter_bits,
            state,
            out: Fifo::new(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> MaMode {
        self.mode
    }

    fn emit_probe(out: &mut Fifo, model: &mut AdaptiveModel, symbol: usize) {
        let (cum, freq, total) = model.probe(symbol);
        out.push(Token::Prob { cum, freq, total });
    }

    fn emit_classed(out: &mut Fifo, model: &mut AdaptiveModel, v: u32) {
        let class = 32 - v.leading_zeros();
        Self::emit_probe(out, model, class as usize);
        if class > 1 {
            out.push(Token::Bits {
                value: v & ((1 << (class - 1)) - 1),
                bits: class - 1,
            });
        }
    }

    fn handle_op(&mut self, op: LzOp) {
        let State::Lzma(m) = &mut self.state else {
            panic!("op token arrived at MA PE in DWT mode");
        };
        match op {
            LzOp::Literal(b) => {
                Self::emit_probe(&mut self.out, &mut m.flag, 0);
                let ctx = m.history.context();
                Self::emit_probe(&mut self.out, &mut m.literal[ctx], b as usize);
                m.history.push_literal(b);
            }
            LzOp::Match { len, dist } => {
                Self::emit_probe(&mut self.out, &mut m.flag, 1);
                Self::emit_classed(&mut self.out, &mut m.len_class, len - MIN_MATCH as u32);
                Self::emit_classed(&mut self.out, &mut m.dist_class, dist - 1);
                m.history.push_match(len as usize);
            }
        }
    }

    fn handle_block_end(&mut self, raw_len: u32) {
        match &mut self.state {
            State::Lzma(m) => {
                m.reset();
            }
            State::Dwt(m) => {
                // The upstream DWT PE emits padded coefficient blocks; the
                // approximation band is the first `padded >> levels`.
                let MaMode::Dwt { levels } = self.mode else {
                    unreachable!("state/mode agree by construction");
                };
                let DwtModels {
                    approx,
                    detail,
                    coeffs,
                } = m;
                let approx_len = coeffs.len() >> levels;
                for (i, &c) in coeffs.iter().enumerate() {
                    let z = ((c << 1) ^ (c >> 31)) as u32;
                    let model = if i < approx_len {
                        &mut *approx
                    } else {
                        &mut *detail
                    };
                    Self::emit_classed(&mut self.out, model, z);
                }
                // In-place block-boundary reset; the coefficient staging
                // buffer keeps its capacity for the next block.
                coeffs.clear();
                approx.reset();
                detail.reset();
            }
        }
        self.out.push(Token::BlockEnd { raw_len });
    }
}

impl ProcessingElement for MaPe {
    fn kind(&self) -> PeKind {
        PeKind::Ma
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        match self.mode {
            MaMode::Lzma => &[InterfaceKind::Ops],
            MaMode::Dwt { .. } => &[InterfaceKind::Coeffs],
        }
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Probs
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Op(op) => self.handle_op(op),
            Token::Coeff(c) => {
                let State::Dwt(m) = &mut self.state else {
                    unreachable!("coeff tokens only validate in DWT mode");
                };
                m.coeffs.push(c);
            }
            Token::BlockEnd { raw_len } => self.handle_block_end(raw_len),
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn flush(&mut self) {}

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Table III: literal counters 256 bytes at 2 bytes each, plus
        // length/offset tables and the Fenwick structure; max 16.25 KB.
        match &self.state {
            State::Lzma(_) => 2 * (2 + LITERAL_CONTEXTS * 256 + 17 + 14) + 512,
            // Coefficient staging is a simulation convenience; the
            // hardware streams class probes as coefficients arrive.
            State::Dwt(_) => 2 * 2 * COEFF_CLASSES + 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_probes_carry_valid_triples() {
        let mut pe = MaPe::new(MaMode::Lzma, 16);
        pe.push(0, Token::Op(LzOp::Literal(65))).unwrap();
        let flag = pe.pull().expect("flag probe");
        let lit = pe.pull().expect("literal probe");
        for t in [flag, lit] {
            match t {
                Token::Prob { cum, freq, total } => {
                    assert!(freq > 0 && cum + freq <= total);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn match_emits_flag_class_and_bits() {
        let mut pe = MaPe::new(MaMode::Lzma, 16);
        pe.push(0, Token::Op(LzOp::Match { len: 12, dist: 100 }))
            .unwrap();
        let tokens: Vec<_> = std::iter::from_fn(|| pe.pull()).collect();
        // flag + len class + len bits + dist class + dist bits
        assert_eq!(tokens.len(), 5);
        assert!(matches!(tokens[2], Token::Bits { .. }));
        assert!(matches!(tokens[4], Token::Bits { .. }));
    }

    #[test]
    fn block_end_resets_models() {
        let mut a = MaPe::new(MaMode::Lzma, 16);
        // Warm up with some symbols, then reset.
        for _ in 0..10 {
            a.push(0, Token::Op(LzOp::Literal(1))).unwrap();
        }
        a.push(0, Token::BlockEnd { raw_len: 10 }).unwrap();
        while a.pull().is_some() {}
        // After reset, the first literal's probe equals a fresh PE's.
        let mut b = MaPe::new(MaMode::Lzma, 16);
        a.push(0, Token::Op(LzOp::Literal(1))).unwrap();
        b.push(0, Token::Op(LzOp::Literal(1))).unwrap();
        assert_eq!(a.pull(), b.pull());
        assert_eq!(a.pull(), b.pull());
    }

    #[test]
    fn dwt_mode_rejects_ops() {
        let mut pe = MaPe::new(MaMode::Dwt { levels: 1 }, 16);
        assert!(pe.push(0, Token::Op(LzOp::Literal(0))).is_err());
    }
}
