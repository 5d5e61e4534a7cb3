//! NEO processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::Neo;

/// The nonlinear-energy-operator PE: samples in, energies out.
///
/// The hardware PE runs directly on the frame-interleaved ADC stream at
/// ~3 MHz (Table IV) with per-channel delay registers, so the operator
/// never mixes neighbouring channels. Until a channel is primed (two
/// samples seen) the PE emits zero energy, keeping the output stream in
/// lock-step with the input — the GATE PE downstream pairs data and
/// control one-to-one.
#[derive(Debug)]
pub struct NeoPe {
    lanes: Vec<Neo>,
    next: usize,
    out: Fifo,
}

impl Default for NeoPe {
    fn default() -> Self {
        Self::new()
    }
}

impl NeoPe {
    /// Creates a single-channel NEO PE.
    pub fn new() -> Self {
        Self::with_channels(1)
    }

    /// Creates a NEO PE for a `channels`-way interleaved stream.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        Self {
            lanes: vec![Neo::new(); channels],
            next: 0,
            out: Fifo::new(),
        }
    }

    /// Number of interleaved channels.
    pub fn channels(&self) -> usize {
        self.lanes.len()
    }
}

impl ProcessingElement for NeoPe {
    fn kind(&self) -> PeKind {
        PeKind::Neo
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
                let psi = self.lanes[self.next].process(s).unwrap_or(0);
                self.next = (self.next + 1) % self.lanes.len();
                self.out.push(Token::Value(psi));
            }
            Token::BlockEnd { .. } => {
                for lane in &mut self.lanes {
                    lane.reset();
                }
                self.next = 0;
                self.out.push(token);
            }
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn flush(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.next = 0;
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Two sample registers per channel (register file, not a macro —
        // Table IV charges NEO no memory power).
        4 * self.lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_values(pe: &mut NeoPe) -> Vec<i64> {
        std::iter::from_fn(|| pe.pull())
            .filter_map(|t| match t {
                Token::Value(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_channel_matches_kernel_after_priming() {
        let xs = [5i16, -3, 17, 200, -40, 8];
        let want = Neo::process_block(&xs);
        let mut pe = NeoPe::new();
        for &x in &xs {
            pe.push(0, Token::Sample(x)).unwrap();
        }
        let got = drain_values(&mut pe);
        assert_eq!(got.len(), xs.len(), "one output per input");
        assert_eq!(&got[..2], &[0, 0], "priming zeros");
        assert_eq!(&got[2..], &want[..got.len() - 2]);
    }

    #[test]
    fn channels_do_not_mix() {
        // Channel 0: a big spike; channel 1: all zeros. Interleave them.
        let mut pe = NeoPe::with_channels(2);
        let ch0 = [0i16, 0, 1000, 0, 0];
        for &a in &ch0 {
            pe.push(0, Token::Sample(a)).unwrap();
            pe.push(0, Token::Sample(0)).unwrap();
        }
        let got = drain_values(&mut pe);
        // Outputs alternate ch0, ch1; every ch1 output must be zero.
        let ch1_energy: i64 = got.iter().skip(1).step_by(2).map(|v| v.abs()).sum();
        assert_eq!(ch1_energy, 0, "channel 1 polluted: {got:?}");
        let ch0_peak = got.iter().step_by(2).cloned().max().unwrap();
        assert_eq!(ch0_peak, 1000 * 1000);
    }

    #[test]
    fn output_rate_equals_input_rate() {
        let mut pe = NeoPe::with_channels(3);
        for i in 0..30i16 {
            pe.push(0, Token::Sample(i)).unwrap();
        }
        assert_eq!(drain_values(&mut pe).len(), 30);
    }

    #[test]
    fn rejects_wrong_interface() {
        let mut pe = NeoPe::new();
        assert!(pe.push(0, Token::Byte(1)).is_err());
        assert!(pe.push(1, Token::Sample(1)).is_err());
    }
}
