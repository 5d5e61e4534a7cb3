//! The processing-element contract.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use std::collections::VecDeque;

/// Identity of a PE type — the key into the power model's Table IV anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// Lempel-Ziv match search.
    Lz,
    /// Linear integer coding.
    Lic,
    /// Markov adaptive frequency model.
    Ma,
    /// Range coder.
    Rc,
    /// Discrete wavelet transform.
    Dwt,
    /// Nonlinear energy operator.
    Neo,
    /// Fast Fourier transform.
    Fft,
    /// Pairwise cross-correlation.
    Xcor,
    /// Butterworth bandpass filter.
    Bbf,
    /// Support vector machine.
    Svm,
    /// Threshold comparator.
    Thr,
    /// Stream gate.
    Gate,
    /// AES-128 encryption.
    Aes,
    /// The standalone interleaver (§IV).
    Interleaver,
}

impl PeKind {
    /// All kinds with Table IV power anchors (everything except the
    /// interleaver, which the paper folds into the NoC overhead line).
    pub fn all() -> [PeKind; 14] {
        [
            PeKind::Lz,
            PeKind::Lic,
            PeKind::Ma,
            PeKind::Rc,
            PeKind::Dwt,
            PeKind::Neo,
            PeKind::Fft,
            PeKind::Xcor,
            PeKind::Bbf,
            PeKind::Svm,
            PeKind::Thr,
            PeKind::Gate,
            PeKind::Aes,
            PeKind::Interleaver,
        ]
    }

    /// Table III name.
    pub fn name(&self) -> &'static str {
        match self {
            PeKind::Lz => "LZ",
            PeKind::Lic => "LIC",
            PeKind::Ma => "MA",
            PeKind::Rc => "RC",
            PeKind::Dwt => "DWT",
            PeKind::Neo => "NEO",
            PeKind::Fft => "FFT",
            PeKind::Xcor => "XCOR",
            PeKind::Bbf => "BBF",
            PeKind::Svm => "SVM",
            PeKind::Thr => "THR",
            PeKind::Gate => "GATE",
            PeKind::Aes => "AES",
            PeKind::Interleaver => "INTERLEAVER",
        }
    }

    /// The kind whose [`PeKind::name`] is `name`, if any — maps profiler
    /// frame paths and exposition labels back to the cost model.
    pub fn from_name(name: &str) -> Option<PeKind> {
        PeKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Nominal clock cycles this PE charges per input token.
    ///
    /// Derived from Table IV: each PE's anchor frequency is the minimum
    /// sustaining the 46 Mbps array rate, so cycles-per-token is that
    /// frequency divided by the token rate offered at the PE's pipeline
    /// position (5.76 M tokens/s for byte streams, 2.88 M tokens/s for
    /// sample streams), rounded to an integer. E.g. LZ: 129 MHz at
    /// 5.76 MB/s ≈ 22 cycles/byte. These drive telemetry's busy-cycle
    /// counters; they are a first-order model, not an RTL-accurate count.
    /// SVM sees low-rate feature tokens, so it is charged its per-class
    /// dot-product cost instead of a rate-derived value.
    pub fn cycles_per_token(&self) -> u64 {
        match self {
            PeKind::Lz => 22,
            PeKind::Lic => 4,
            PeKind::Ma => 16,
            PeKind::Rc => 16,
            PeKind::Dwt => 1,
            PeKind::Neo => 1,
            PeKind::Fft => 5,
            PeKind::Xcor => 30,
            PeKind::Bbf => 2,
            PeKind::Svm => 50,
            PeKind::Thr => 6,
            PeKind::Gate => 2,
            PeKind::Aes => 1,
            PeKind::Interleaver => 1,
        }
    }
}

impl std::fmt::Display for PeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A hardware processing element.
///
/// PEs are push/pull stream machines: the runtime pushes tokens into typed
/// input ports and drains the output FIFO. `flush` signals end of stream so
/// block-based PEs (LZ, DWT, XCOR, FFT) can finalize a partial block.
///
/// Implementations must be [`Send`]: a configured device (and therefore
/// every PE in its array) is moved onto a worker thread when many sessions
/// are served concurrently, so PE state may not be thread-pinned.
///
/// # Example
///
/// ```
/// use halo_pe::{pes::NeoPe, ProcessingElement, Token};
/// let mut neo = NeoPe::new();
/// for s in [0i16, 100, 0] {
///     neo.push(0, Token::Sample(s)).unwrap();
/// }
/// // Two priming zeros keep the stream in lock-step, then ψ = 100².
/// assert_eq!(neo.pull(), Some(Token::Value(0)));
/// assert_eq!(neo.pull(), Some(Token::Value(0)));
/// assert_eq!(neo.pull(), Some(Token::Value(10_000)));
/// ```
pub trait ProcessingElement: Send {
    /// Which PE this is (power-model key).
    fn kind(&self) -> PeKind;

    /// Interface types of the input ports (port 0 is the data port; GATE
    /// adds port 1 for control).
    fn input_ports(&self) -> &[InterfaceKind];

    /// Interface type of the output stream.
    fn output_kind(&self) -> InterfaceKind;

    /// Pushes a token into `port`.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] if the port does not exist or the token's
    /// interface does not match ([`Token::BlockEnd`] is accepted anywhere).
    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError>;

    /// Drains one output token, if any.
    fn pull(&mut self) -> Option<Token>;

    /// Pushes a burst of tokens into `port`, taking them from the front of
    /// `tokens`.
    ///
    /// Semantically identical to calling [`ProcessingElement::push`] per
    /// token; the default does exactly that. Being a provided method, it
    /// is monomorphised per PE, so the runtime pays one virtual call per
    /// burst. On error the failing token is dropped and the tokens after
    /// it stay in `tokens`.
    ///
    /// # Errors
    ///
    /// Returns the first [`PeError`] a push raises.
    fn push_burst(&mut self, port: usize, tokens: &mut VecDeque<Token>) -> Result<(), PeError> {
        while let Some(token) = tokens.pop_front() {
            self.push(port, token)?;
        }
        Ok(())
    }

    /// Moves every queued output token into `into`, preserving order.
    ///
    /// Semantically identical to `while let Some(t) = self.pull()`, but a
    /// FIFO-backed PE hands over its whole buffer in one bulk copy (see
    /// [`Fifo::drain_into`]), so the streaming runtime drains a burst with
    /// one virtual call.
    fn drain_output(&mut self, into: &mut VecDeque<Token>) {
        match self.output_fifo_mut() {
            Some(f) => f.drain_into(into),
            None => {
                while let Some(t) = self.pull() {
                    into.push_back(t);
                }
            }
        }
    }

    /// Signals end of stream: block-based PEs finalize partial state.
    fn flush(&mut self);

    /// Private memory the current configuration occupies, in bytes.
    fn memory_bytes(&self) -> usize;

    /// The PE's output FIFO, if it exposes one for observability (every
    /// shipped PE does). Telemetry reads occupancy high-water marks and
    /// push totals from here without disturbing the stream.
    fn output_fifo(&self) -> Option<&Fifo> {
        None
    }

    /// Mutable access to the output FIFO — the bulk-drain hook behind
    /// [`ProcessingElement::drain_output`]. Implementations exposing
    /// [`ProcessingElement::output_fifo`] should expose it here too.
    fn output_fifo_mut(&mut self) -> Option<&mut Fifo> {
        None
    }

    /// How many upcoming *whole frames* of `frame_samples` samples this PE
    /// is guaranteed to absorb on port 0 without producing a single output
    /// token, given its current fill state.
    ///
    /// The runtime uses the minimum across a pipeline's source PEs to
    /// dispatch quiet stretches as one batched push (SoA block fill, no
    /// per-sample virtual calls, no NoC propagation) while staying
    /// *bit-identical* to per-token streaming — a quiet frame has no
    /// outputs, so there is nothing to propagate, stall, or trace. A
    /// single source PE that promises a quiet frame also takes that
    /// frame in one [`ProcessingElement::push_samples`] call.
    ///
    /// `0` (the conservative default) means "the next frame may emit";
    /// the runtime then falls back to the scalar per-token path for that
    /// frame. Implementations must never overestimate: emitting a token
    /// inside a promised-quiet window would corrupt delivery order.
    fn quiet_frames(&self, _frame_samples: usize) -> u64 {
        0
    }

    /// Pushes a contiguous run of samples into `port` at once.
    ///
    /// Semantically identical to pushing `Token::Sample` per element; the
    /// default does exactly that, in one virtual call. PEs override it to
    /// take the slice whole (structure-of-arrays kernels, one port check,
    /// one queue extend) — same arithmetic, same output order. The runtime
    /// hands it a quiet chunk of frames, a single quiet frame, or the tail
    /// of a frame that arrives while the output FIFO is occupied.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] if the port does not exist or is not a sample
    /// port.
    fn push_samples(&mut self, port: usize, samples: &[i16]) -> Result<(), PeError> {
        for &s in samples {
            self.push(port, Token::Sample(s))?;
        }
        Ok(())
    }

    /// Validates an incoming token against a port (helper for
    /// implementations).
    fn check_port(&self, port: usize, token: &Token) -> Result<(), PeError> {
        let ports = self.input_ports();
        let expected = *ports.get(port).ok_or(PeError::NoSuchPort {
            pe: self.kind().name(),
            port,
        })?;
        match token.kind() {
            None => Ok(()), // control markers pass everywhere
            Some(k) if k == expected => Ok(()),
            got => Err(PeError::WrongInterface {
                pe: self.kind().name(),
                port,
                expected,
                got,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique() {
        let names: Vec<_> = PeKind::all().iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn from_name_round_trips_every_kind() {
        for kind in PeKind::all() {
            assert_eq!(PeKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(PeKind::from_name("lz"), None, "lookup is case-exact");
        assert_eq!(PeKind::from_name("NOPE"), None);
    }
}
