//! Signal-processing, compression, and crypto kernels for HALO.
//!
//! HALO (§IV-A) decomposes BCI tasks into computational *kernels*, each of
//! which becomes a hardware processing element (PE). This crate implements
//! every kernel from Table III of the paper, bit-faithfully and from scratch:
//!
//! | Kernel | Module | Used by |
//! |---|---|---|
//! | LZ match search | [`lz`] | LZ4, LZMA compression |
//! | LIC linear integer coding | [`lic`] | LZ4 |
//! | MA Markov frequency model (Fenwick tree, saturating counters) | [`markov`], [`fenwick`] | LZMA, DWTMA |
//! | RC range coder | [`range`] | LZMA, DWTMA |
//! | DWT discrete wavelet transform | [`dwt`] | Spike detection, DWTMA |
//! | NEO nonlinear energy operator | [`neo`] | Spike detection |
//! | FFT | [`fft`] | Seizure prediction, movement intent |
//! | XCOR cross-correlation | [`xcor`] | Seizure prediction |
//! | BBF Butterworth bandpass | [`bbf`] | Seizure prediction |
//! | SVM classifier | [`svm`] | Seizure prediction |
//! | THR threshold | [`thr`] | Movement intent, spike detection |
//! | GATE stream gate | [`gate`] | Spike detection, closed loop |
//! | AES-128 | [`aes`] | Encrypted exfiltration |
//!
//! The composed codecs ([`lz4`], [`lzma`], [`dwtma`], and the §VII
//! extension [`bwt`]) pair every encoder with a full decoder so
//! losslessness — a hard requirement the paper inherits from the
//! neuroscience community (§III) — is provable by round-trip tests. The
//! paper's §VII kernel roadmap is also implemented: [`bwt`] (Bzip2-style
//! compression reusing MA/RC), [`hjorth`], [`apen`], and [`hann`].
//!
//! Kernels are implemented the way the hardware computes them: fixed-point
//! arithmetic ([`fixed`]), 16-bit saturating counters, bounded histories.
//! Where the paper describes two algorithmic variants (the naive block XCOR
//! of Algorithm 2 and the spatially-reprogrammed streaming XCOR of
//! Algorithm 3), both are implemented and tested for output equivalence.

pub mod aes;
pub mod apen;
pub mod bbf;
pub mod block;
pub mod bwt;
pub mod dwt;
pub mod dwtma;
pub mod fenwick;
pub mod fft;
pub mod fixed;
pub mod gate;
pub mod hann;
pub mod hjorth;
pub mod lic;
pub mod lz;
pub mod lz4;
pub mod lzma;
pub mod markov;
pub mod neo;
pub mod range;
pub mod svm;
pub mod thr;
pub mod xcor;

pub use aes::Aes128;
pub use bbf::{Bbf, BbfDesign, BbfFloat};
pub use block::ChannelBlock;
pub use bwt::BwtmaCodec;
pub use dwt::Dwt;
pub use dwtma::DwtmaCodec;
pub use fenwick::FenwickTree;
pub use fft::Fft;
pub use gate::Gate;
pub use lic::{lic_decode, lic_encode};
pub use lz::{LzMatcher, LzOp};
pub use lz4::Lz4Codec;
pub use lzma::LzmaCodec;
pub use markov::AdaptiveModel;
pub use neo::Neo;
pub use range::{RangeDecoder, RangeEncoder};
pub use svm::LinearSvm;
pub use thr::Threshold;
pub use xcor::{BlockXcor, StreamingXcor, XcorConfig};
