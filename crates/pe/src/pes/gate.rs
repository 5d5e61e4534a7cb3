//! GATE processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::Gate;
use std::collections::VecDeque;

/// The stream-gate PE: data on port 0, THR control bits on port 1.
///
/// Data and control tokens are paired in arrival order, matching the
/// lock-step SEND-ACK streams of the hardware. Per-channel hold state keeps
/// a spike on one channel from opening the gate for its neighbours, and a
/// hold window keeps the gate open long enough to pass whole waveforms —
/// this is what turns spike *detection* into radio-bandwidth *reduction*
/// (§III). Data waits for its control bit as bare samples.
#[derive(Debug)]
pub struct GatePe {
    lanes: Vec<Gate>,
    data_per_control: usize,
    data: VecDeque<i16>,
    control: VecDeque<bool>,
    next_lane: usize,
    budget: usize,
    budget_open: bool,
    out: Fifo,
    passed: u64,
    dropped: u64,
}

impl GatePe {
    /// Creates a single-channel gate holding `hold` extra samples per
    /// trigger.
    pub fn new(hold: usize) -> Self {
        Self::with_channels(hold, 1, 1)
    }

    /// Creates a gate for a `channels`-way interleaved data stream where
    /// each control bit covers `data_per_control` data tokens (e.g. a
    /// DWT-based detector emits one flag per `2^levels` samples).
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `data_per_control` is zero.
    pub fn with_channels(hold: usize, channels: usize, data_per_control: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(
            data_per_control > 0,
            "control must cover at least one token"
        );
        Self {
            lanes: vec![Gate::new(hold); channels],
            data_per_control,
            data: VecDeque::new(),
            control: VecDeque::new(),
            next_lane: 0,
            budget: 0,
            budget_open: false,
            out: Fifo::new(),
            passed: 0,
            dropped: 0,
        }
    }

    /// Tokens passed through so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Tokens suppressed so far — the bandwidth reduction spike detection
    /// achieves.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn drain_pairs(&mut self) {
        loop {
            if self.budget == 0 {
                let Some(c) = self.control.pop_front() else {
                    return;
                };
                self.budget_open = self.lanes[self.next_lane].process((), c).is_some();
                self.next_lane += 1;
                if self.next_lane == self.lanes.len() {
                    self.next_lane = 0;
                }
                self.budget = self.data_per_control;
            }
            while self.budget > 0 {
                let Some(d) = self.data.pop_front() else {
                    return;
                };
                self.budget -= 1;
                if self.budget_open {
                    self.passed += 1;
                    self.out.push(Token::Sample(d));
                } else {
                    self.dropped += 1;
                }
            }
        }
    }
}

impl ProcessingElement for GatePe {
    fn kind(&self) -> PeKind {
        PeKind::Gate
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Samples, InterfaceKind::Flags]
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Samples
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match (port, token) {
            (0, t @ Token::BlockEnd { .. }) => self.out.push(t),
            (1, Token::BlockEnd { .. }) => {}
            (0, Token::Sample(s)) => {
                self.data.push_back(s);
                self.drain_pairs();
            }
            (1, Token::Flag(c)) => {
                self.control.push_back(c);
                self.drain_pairs();
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
        // Pairing consumes data in arrival order, so queueing the whole
        // slice before one pairing pass emits what per-token pushes would.
        self.data.extend(samples);
        self.drain_pairs();
        Ok(())
    }

    /// Data alone cannot pass the gate: with no control bit queued and no
    /// open budget, every sample is queued or dropped, however many come.
    fn quiet_frames(&self, _frame_samples: usize) -> u64 {
        if self.control.is_empty() && (self.budget == 0 || !self.budget_open) {
            u64::MAX
        } else {
            0
        }
    }

    fn flush(&mut self) {
        self.data.clear();
        self.control.clear();
        self.budget = 0;
        self.budget_open = false;
        self.next_lane = 0;
        for lane in &mut self.lanes {
            lane.reset();
        }
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Pairing FIFOs plus per-channel hold counters (Table IV charges
        // GATE a small memory macro).
        64 + self.lanes.len() * 4 + self.data_per_control * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(pe: &mut GatePe) -> Vec<Token> {
        std::iter::from_fn(|| pe.pull()).collect()
    }

    #[test]
    fn passes_only_triggered_data() {
        let mut pe = GatePe::new(0);
        for (s, c) in [(1i16, false), (2, true), (3, false), (4, true)] {
            pe.push(0, Token::Sample(s)).unwrap();
            pe.push(1, Token::Flag(c)).unwrap();
        }
        assert_eq!(drain(&mut pe), vec![Token::Sample(2), Token::Sample(4)]);
        assert_eq!(pe.passed(), 2);
        assert_eq!(pe.dropped(), 2);
    }

    #[test]
    fn tolerates_out_of_order_stream_arrival() {
        // All control bits first, then all data — pairing must still align.
        let mut pe = GatePe::new(0);
        for c in [true, false, true] {
            pe.push(1, Token::Flag(c)).unwrap();
        }
        for s in [10i16, 20, 30] {
            pe.push(0, Token::Sample(s)).unwrap();
        }
        assert_eq!(drain(&mut pe), vec![Token::Sample(10), Token::Sample(30)]);
    }

    #[test]
    fn hold_window_extends_pass() {
        let mut pe = GatePe::new(2);
        let controls = [true, false, false, false];
        for (i, &c) in controls.iter().enumerate() {
            pe.push(0, Token::Sample(i as i16)).unwrap();
            pe.push(1, Token::Flag(c)).unwrap();
        }
        assert_eq!(
            drain(&mut pe),
            vec![Token::Sample(0), Token::Sample(1), Token::Sample(2)]
        );
    }

    #[test]
    fn per_channel_hold_is_independent() {
        // Two channels; trigger only channel 0. With hold 1, channel 0
        // passes two frames' worth, channel 1 passes nothing.
        let mut pe = GatePe::with_channels(1, 2, 1);
        let frames = [(true, false), (false, false), (false, false)];
        for (i, (c0, c1)) in frames.into_iter().enumerate() {
            let i = i as i16;
            pe.push(0, Token::Sample(i)).unwrap();
            pe.push(1, Token::Flag(c0)).unwrap();
            pe.push(0, Token::Sample(100 + i)).unwrap();
            pe.push(1, Token::Flag(c1)).unwrap();
        }
        assert_eq!(drain(&mut pe), vec![Token::Sample(0), Token::Sample(1)]);
    }

    #[test]
    fn control_covers_multiple_data_tokens() {
        // One flag per 4 data tokens (DWT level-2 detector shape).
        let mut pe = GatePe::with_channels(0, 1, 4);
        for s in 0..8i16 {
            pe.push(0, Token::Sample(s)).unwrap();
        }
        pe.push(1, Token::Flag(false)).unwrap();
        pe.push(1, Token::Flag(true)).unwrap();
        assert_eq!(
            drain(&mut pe),
            vec![
                Token::Sample(4),
                Token::Sample(5),
                Token::Sample(6),
                Token::Sample(7)
            ]
        );
    }

    #[test]
    fn control_port_rejects_samples() {
        let mut pe = GatePe::new(0);
        assert!(pe.push(1, Token::Sample(1)).is_err());
    }
}
