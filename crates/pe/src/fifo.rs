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
        self.queue.push_back(token);
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Dequeues the oldest token.
    pub fn pop(&mut self) -> Option<Token> {
        self.queue.pop_front()
    }

    /// Mutable access to the oldest queued token — the fault-injection
    /// point for modeled FIFO bit flips. `None` when empty.
    pub fn front_mut(&mut self) -> Option<&mut Token> {
        self.queue.front_mut()
    }

    /// Moves every queued token into `out`, preserving order, in one bulk
    /// copy (`VecDeque::append`), so the runtime drains a whole burst
    /// without popping token by token. Both queues keep their capacity.
    /// The high-water statistic is unaffected.
    pub fn drain_into(&mut self, out: &mut VecDeque<Token>) {
        out.append(&mut self.queue);
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
    }
}
