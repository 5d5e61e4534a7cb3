//! THR processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::Threshold;

/// The threshold PE: values in, flags out.
///
/// The shared terminator of the movement-intent and spike-detection
/// pipelines (PE reuse generalization, §IV-A).
#[derive(Debug)]
pub struct ThrPe {
    thr: Threshold,
    out: Fifo,
}

impl ThrPe {
    /// Creates a THR PE with the given comparator.
    pub fn new(thr: Threshold) -> Self {
        Self {
            thr,
            out: Fifo::new(),
        }
    }

    /// The configured comparator.
    pub fn threshold(&self) -> Threshold {
        self.thr
    }

    /// Reconfigures the comparator (micro-controller parameter write).
    pub fn set_threshold(&mut self, thr: Threshold) {
        self.thr = thr;
    }
}

impl ProcessingElement for ThrPe {
    fn kind(&self) -> PeKind {
        PeKind::Thr
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Values]
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Flags
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Value(v) => self.out.push(Token::Flag(self.thr.check(v))),
            Token::BlockEnd { .. } => self.out.push(token),
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
        8 // the 32-bit user threshold plus comparator state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_match_comparator() {
        let mut pe = ThrPe::new(Threshold::above(10));
        for v in [5i64, 15, 10, 11] {
            pe.push(0, Token::Value(v)).unwrap();
        }
        let flags: Vec<_> = std::iter::from_fn(|| pe.pull()).collect();
        assert_eq!(
            flags,
            vec![
                Token::Flag(false),
                Token::Flag(true),
                Token::Flag(false),
                Token::Flag(true)
            ]
        );
    }

    #[test]
    fn reconfigurable_at_runtime() {
        let mut pe = ThrPe::new(Threshold::above(0));
        pe.set_threshold(Threshold::below(0));
        pe.push(0, Token::Value(-5)).unwrap();
        assert_eq!(pe.pull(), Some(Token::Flag(true)));
    }

    #[test]
    fn rejects_samples() {
        let mut pe = ThrPe::new(Threshold::above(0));
        assert!(pe.push(0, Token::Sample(1)).is_err());
    }
}
