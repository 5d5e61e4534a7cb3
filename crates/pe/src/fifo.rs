//! FIFO adapters between PEs and the interconnect.
//!
//! §IV-D: "We use per-PE FIFO buffers as logical adapters to transfer data
//! from the network into the form expected by the PE." The FIFO tracks its
//! high-water mark so experiments can size the hardware buffers a pipeline
//! would need.

use crate::token::Token;
use std::collections::VecDeque;

/// A token FIFO with occupancy statistics.
///
/// # Example
///
/// ```
/// use halo_pe::{Fifo, Token};
/// let mut f = Fifo::new();
/// f.push(Token::Byte(1));
/// f.push(Token::Byte(2));
/// assert_eq!(f.high_water(), 2);
/// assert_eq!(f.pop(), Some(Token::Byte(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    queue: VecDeque<Token>,
    high_water: usize,
    /// Wire bytes of the queued tokens, kept as they enter and leave so a
    /// drain reports its burst's bytes without walking it.
    wire_bytes: u64,
    /// Sticky causal-trace context: the id of the sampled frame trace whose
    /// tokens most recently flowed through this FIFO, or `0` when untraced.
    /// The runtime stamps it when a traced delivery lands on the owning PE
    /// and clears it once the trace closes, so downstream bursts drained
    /// from this FIFO inherit the trace attribution without any per-token
    /// bookkeeping (one `u64` per FIFO, zero allocation).
    trace_tag: u64,
}

impl Fifo {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a token.
    pub fn push(&mut self, token: Token) {
        self.wire_bytes += token.wire_bytes() as u64;
        self.queue.push_back(token);
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Enqueues a run of tokens in order, as [`Fifo::push`] on each would,
    /// in one call: a PE that emits a block's worth of output at once
    /// queues it without a capacity check and high-water update per token.
    // `map` is the measured form: `Map` passes the source's exact length
    // on to `VecDeque::extend`.
    #[allow(clippy::manual_inspect)]
    pub fn extend(&mut self, tokens: impl IntoIterator<Item = Token>) {
        let bytes = &mut self.wire_bytes;
        self.queue.extend(tokens.into_iter().map(|token| {
            *bytes += token.wire_bytes() as u64;
            token
        }));
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Dequeues the oldest token.
    pub fn pop(&mut self) -> Option<Token> {
        let token = self.queue.pop_front()?;
        self.wire_bytes -= token.wire_bytes() as u64;
        Some(token)
    }

    /// Flips `bit` of the oldest queued token ([`Token::flip_bit`]) — the
    /// fault-injection point for modeled FIFO bit flips. Returns whether
    /// a token was there to flip.
    pub fn flip_front_bit(&mut self, bit: u32) -> bool {
        let Some(token) = self.queue.front_mut() else {
            return false;
        };
        token.flip_bit(bit);
        true
    }

    /// Moves every queued token into `out`, preserving order, and returns
    /// their wire bytes. An empty `out` takes the whole buffer in one swap
    /// and leaves its own (empty) buffer here; give it back with
    /// [`Fifo::reclaim`] once it is emptied, or capacities migrate between
    /// FIFOs. A non-empty `out` gets the tokens appended. The high-water
    /// statistic is unaffected.
    pub fn drain_into(&mut self, out: &mut VecDeque<Token>) -> u64 {
        if out.is_empty() {
            std::mem::swap(&mut self.queue, out);
        } else {
            out.append(&mut self.queue);
        }
        std::mem::take(&mut self.wire_bytes)
    }

    /// Takes back the buffer [`Fifo::drain_into`] lent, once the caller
    /// has emptied it: the two empty buffers swap back, so each FIFO keeps
    /// its own capacity. Does nothing unless both are empty.
    pub fn reclaim(&mut self, buf: &mut VecDeque<Token>) {
        if buf.is_empty() && self.queue.is_empty() {
            std::mem::swap(&mut self.queue, buf);
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Maximum occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Wire bytes of the queued tokens ([`Token::wire_bytes`] summed).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Current trace context (`0` = untraced).
    pub fn trace_tag(&self) -> u64 {
        self.trace_tag
    }

    /// Stamps the trace context carried by tokens flowing through this FIFO.
    pub fn set_trace_tag(&mut self, tag: u64) {
        self.trace_tag = tag;
    }

    /// Clears the trace context (the owning trace closed).
    pub fn clear_trace_tag(&mut self) {
        self.trace_tag = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut f = Fifo::new();
        for i in 0..5i16 {
            f.push(Token::Sample(i));
        }
        for i in 0..5i16 {
            assert_eq!(f.pop(), Some(Token::Sample(i)));
        }
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn statistics_accumulate() {
        let mut f = Fifo::new();
        f.push(Token::Sample(1));
        f.push(Token::Sample(2));
        f.pop();
        f.push(Token::Sample(3));
        assert_eq!(f.high_water(), 2);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert_eq!(f.wire_bytes(), 4);
    }

    #[test]
    fn bit_flip_keeps_the_wire_byte_sum() {
        let mut f = Fifo::new();
        assert!(!f.flip_front_bit(0), "nothing to flip");
        f.push(Token::Byte(1));
        f.push(Token::Value(2));
        assert!(f.flip_front_bit(1));
        assert_eq!(f.wire_bytes(), 9);
        assert_eq!(f.pop(), Some(Token::Byte(3)));
    }

    #[test]
    fn extend_equals_push_per_token() {
        let run = [
            Token::Byte(1),
            Token::Value(2),
            Token::BlockEnd { raw_len: 3 },
        ];
        let (mut a, mut b) = (Fifo::new(), Fifo::new());
        a.push(Token::Sample(0));
        b.push(Token::Sample(0));
        a.extend(run.clone());
        for t in run {
            b.push(t);
        }
        assert_eq!((a.len(), a.high_water(), a.wire_bytes()), (4, 4, 15));
        assert_eq!((b.len(), b.high_water(), b.wire_bytes()), (4, 4, 15));
        assert!(std::iter::from_fn(|| a.pop()).eq(std::iter::from_fn(|| b.pop())));
    }

    #[test]
    fn drain_lends_the_buffer_and_reclaim_returns_it() {
        let mut f = Fifo::new();
        for b in 0..100u8 {
            f.push(Token::Byte(b));
        }
        f.push(Token::Value(7));
        let own = f.queue.capacity();
        let mut burst = VecDeque::new();
        assert_eq!(f.drain_into(&mut burst), 108);
        assert_eq!(
            (burst.len(), burst.capacity()),
            (101, own),
            "swapped, not copied"
        );
        assert_eq!((f.len(), f.wire_bytes()), (0, 0));
        assert_eq!(f.high_water(), 101);
        // A non-empty destination is appended to, in order.
        f.push(Token::Sample(3));
        assert_eq!(f.drain_into(&mut burst), 2);
        assert_eq!(burst.back(), Some(&Token::Sample(3)));
        burst.clear();
        f.reclaim(&mut burst);
        assert_eq!(f.queue.capacity(), own);
        assert!(burst.capacity() < own);
    }
}
