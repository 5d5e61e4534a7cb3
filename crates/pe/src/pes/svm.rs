//! SVM processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{PeKind, ProcessingElement};
use halo_kernels::LinearSvm;

/// The SVM PE: collects a feature vector of values and emits one
/// classification flag per completed vector.
///
/// Figure 2 shows FFT, XCOR, and BBF feeding the SVM *in parallel*, so the
/// PE exposes one input port per upstream producer. Each port owns a fixed
/// slice of the feature vector (`port_dims`); features are assembled in
/// port order regardless of token arrival interleaving, which keeps
/// training and inference feature layouts identical.
///
/// Feature values are clamped into `i32` before the multiply-accumulate,
/// matching the PE's 32-bit datapath.
#[derive(Debug)]
pub struct SvmPe {
    svm: LinearSvm,
    ports: Vec<InterfaceKind>,
    port_dims: Vec<usize>,
    buffers: Vec<Vec<i32>>,
    out: Fifo,
}

impl SvmPe {
    /// Creates a single-port SVM PE whose vector length equals the weight
    /// count.
    pub fn new(svm: LinearSvm) -> Self {
        let dim = svm.weights().len();
        Self::with_ports(svm, vec![dim])
    }

    /// Creates an SVM PE with one input port per entry of `port_dims`;
    /// port `i` contributes `port_dims[i]` features per classification.
    ///
    /// # Panics
    ///
    /// Panics if `port_dims` is empty, any dimension is zero, or the
    /// dimensions do not sum to the weight count.
    pub fn with_ports(svm: LinearSvm, port_dims: Vec<usize>) -> Self {
        assert!(!port_dims.is_empty(), "need at least one port");
        assert!(
            port_dims.iter().all(|&d| d > 0),
            "every port must contribute features"
        );
        assert_eq!(
            port_dims.iter().sum::<usize>(),
            svm.weights().len(),
            "port dimensions must sum to the weight count"
        );
        let ports = vec![InterfaceKind::Values; port_dims.len()];
        let buffers = port_dims.iter().map(|_| Vec::new()).collect();
        Self {
            svm,
            ports,
            port_dims,
            buffers,
            out: Fifo::new(),
        }
    }

    /// Total features per classification.
    pub fn dim(&self) -> usize {
        self.svm.weights().len()
    }

    /// Features each port contributes.
    pub fn port_dims(&self) -> &[usize] {
        &self.port_dims
    }

    /// Replaces the weights (micro-controller personalization write,
    /// Table III: "up to 5000 user-defined integer weights").
    ///
    /// # Panics
    ///
    /// Panics if the new weight count differs from the configured port
    /// layout.
    pub fn set_weights(&mut self, svm: LinearSvm) {
        assert_eq!(
            svm.weights().len(),
            self.dim(),
            "weight count must match the port layout"
        );
        self.svm = svm;
        for b in &mut self.buffers {
            b.clear();
        }
    }

    fn try_classify(&mut self) {
        let ready = self
            .buffers
            .iter()
            .zip(&self.port_dims)
            .all(|(b, &d)| b.len() >= d);
        if !ready {
            return;
        }
        let mut features = Vec::with_capacity(self.dim());
        for (b, &d) in self.buffers.iter_mut().zip(&self.port_dims) {
            features.extend(b.drain(..d));
        }
        self.out.push(Token::Flag(self.svm.classify(&features)));
    }
}

impl ProcessingElement for SvmPe {
    fn kind(&self) -> PeKind {
        PeKind::Svm
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &self.ports
    }

    fn output_kind(&self) -> InterfaceKind {
        InterfaceKind::Flags
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Value(v) => {
                self.buffers[port].push(v.clamp(i32::MIN as i64, i32::MAX as i64) as i32);
                self.try_classify();
            }
            Token::BlockEnd { .. } => {
                if port == 0 {
                    self.out.push(token);
                }
            }
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn flush(&mut self) {
        for b in &mut self.buffers {
            b.clear();
        }
    }

    fn output_fifo(&self) -> &Fifo {
        &self.out
    }

    fn output_fifo_mut(&mut self) -> &mut Fifo {
        &mut self.out
    }

    fn memory_bytes(&self) -> usize {
        // Weight memory dominates (Table IV: SVM carries a memory macro).
        self.dim() * 4 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_on_full_feature_vector() {
        let svm = LinearSvm::new(vec![1, -1], 0).unwrap();
        let mut pe = SvmPe::new(svm);
        pe.push(0, Token::Value(10)).unwrap();
        assert_eq!(pe.pull(), None); // not enough features yet
        pe.push(0, Token::Value(3)).unwrap();
        assert_eq!(pe.pull(), Some(Token::Flag(true))); // 10 - 3 > 0
        pe.push(0, Token::Value(1)).unwrap();
        pe.push(0, Token::Value(5)).unwrap();
        assert_eq!(pe.pull(), Some(Token::Flag(false)));
    }

    #[test]
    fn port_order_defines_feature_order() {
        // Weights pick out port contributions: w = [1, 100].
        let svm = LinearSvm::new(vec![1, 100], -199).unwrap();
        let mut a = SvmPe::with_ports(svm.clone(), vec![1, 1]);
        // Port 1 arrives first; feature order must still be [p0, p1].
        a.push(1, Token::Value(2)).unwrap();
        a.push(0, Token::Value(1)).unwrap();
        // 1*1 + 100*2 - 199 = 2 > 0.
        assert_eq!(a.pull(), Some(Token::Flag(true)));

        let mut b = SvmPe::with_ports(svm, vec![1, 1]);
        b.push(0, Token::Value(2)).unwrap();
        b.push(1, Token::Value(1)).unwrap();
        // 1*2 + 100*1 - 199 = -97 <= 0.
        assert_eq!(b.pull(), Some(Token::Flag(false)));
    }

    #[test]
    fn clamps_oversized_features() {
        let svm = LinearSvm::new(vec![1], 0).unwrap();
        let mut pe = SvmPe::new(svm);
        pe.push(0, Token::Value(i64::MAX)).unwrap();
        assert_eq!(pe.pull(), Some(Token::Flag(true)));
    }

    #[test]
    #[should_panic(expected = "sum to the weight count")]
    fn mismatched_port_dims_rejected() {
        let svm = LinearSvm::new(vec![1, 2, 3], 0).unwrap();
        let _ = SvmPe::with_ports(svm, vec![1, 1]);
    }

    #[test]
    fn reweighting_clears_partial_vectors() {
        let svm = LinearSvm::new(vec![1, 1], 0).unwrap();
        let mut pe = SvmPe::new(svm);
        pe.push(0, Token::Value(1)).unwrap();
        pe.set_weights(LinearSvm::new(vec![-1, -1], 1).unwrap());
        pe.push(0, Token::Value(1)).unwrap();
        pe.push(0, Token::Value(1)).unwrap();
        assert_eq!(pe.pull(), Some(Token::Flag(false)));
    }
}
