//! The PE registry the contract and property tests walk: one instance of
//! every wrapper, small enough that short bursts cross block boundaries.
//! Shared by `crates/pe/tests/contract.rs` and the workspace's
//! `tests/pe_props.rs`, so a PE added here is held to both.

use halo_kernels::{BbfDesign, Dwt, Fft, LinearSvm, LzMatcher, Threshold, XcorConfig};
use halo_pe::pes::{
    AesPe, BbfMode, BbfPe, DwtMode, DwtPe, FftPe, GatePe, HjorthPe, InterleaverPe, LicPe, LzPe,
    MaMode, MaPe, NeoPe, RcPe, SvmPe, ThrPe, XcorPe, XcorVariant,
};
use halo_pe::ProcessingElement;

/// A fresh instance of every PE wrapper.
pub fn registry() -> Vec<Box<dyn ProcessingElement>> {
    let bbf = BbfDesign::new(10.0, 100.0, 1000).expect("band");
    vec![
        Box::new(NeoPe::with_channels(2)),
        Box::new(ThrPe::new(Threshold::above(0))),
        Box::new(GatePe::with_channels(1, 2, 1)),
        Box::new(BbfPe::with_channels(&bbf, BbfMode::Stream, 2, &[0])),
        Box::new(FftPe::with_channels(
            Fft::new(16).expect("size"),
            1000,
            vec![(0.0, 500.0)],
            2,
            &[0],
            1,
        )),
        Box::new(XcorPe::new(
            XcorConfig::new(2, 8, 0, vec![(0, 1)]).expect("config"),
            XcorVariant::Streaming,
        )),
        Box::new(SvmPe::new(LinearSvm::new(vec![1, 1], 0).expect("weights"))),
        Box::new(DwtPe::new(
            Dwt::new(2).expect("levels"),
            DwtMode::Compress,
            8,
        )),
        Box::new(LzPe::new(LzMatcher::new(256).expect("history"), 64)),
        Box::new(LzPe::new(LzMatcher::new(256).expect("history"), 64).from_samples()),
        Box::new(LicPe::new()),
        Box::new(MaPe::new(MaMode::Lzma, 16)),
        Box::new(MaPe::new(MaMode::Dwt { levels: 2 }, 16)),
        Box::new(RcPe::new()),
        Box::new(AesPe::new([0u8; 16])),
        Box::new(InterleaverPe::new(2, 4)),
        Box::new(HjorthPe::new(2, &[0], 8)),
    ]
}
