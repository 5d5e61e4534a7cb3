//! Figure 6: the hardware-software co-design ladders for XCOR (left) and
//! LZMA (right).
//!
//! The power factors of each rung are the paper's reported savings
//! (§IV-B); what this reproduction contributes is *functional* evidence
//! for the rungs: the spatially-reprogrammed XCOR is implemented and
//! verified bit-identical to the naive algorithm, with its buffer
//! reduction measured from the live PEs, and the MA/RC split is verified
//! byte-identical to the unsplit codec.

use halo_kernels::XcorConfig;
use halo_pe::pes::{XcorPe, XcorVariant};
use halo_pe::{PeKind, ProcessingElement};
use halo_power::pe_anchor;

/// One ladder rung.
pub struct Rung {
    /// Technique applied at this rung.
    pub label: &'static str,
    /// PE (or PE-group) power after the rung, mW.
    pub power_mw: f64,
}

/// The XCOR ladder: initial → +spatial reprogramming (2.2×) → +pipelining
/// and other microarchitectural optimizations (1.4×), landing on the
/// Table IV anchor.
pub fn xcor_ladder() -> Vec<Rung> {
    let optimized = pe_anchor(PeKind::Xcor).total_mw();
    vec![
        Rung {
            label: "XCOR-initial",
            power_mw: optimized * 2.2 * 1.4,
        },
        Rung {
            label: "+spt-prg",
            power_mw: optimized * 1.4,
        },
        Rung {
            label: "+opt",
            power_mw: optimized,
        },
    ]
}

/// The LZMA ladder: initial (~20 mW) → +spatial reprogramming (1.5× on
/// LZ) → +MA/RC locality split (→11.2 mW) → +other optimizations, landing
/// on the Table IV pipeline sum.
pub fn lzma_ladder() -> Vec<Rung> {
    let lz = pe_anchor(PeKind::Lz).total_mw();
    let ma = pe_anchor(PeKind::Ma).total_mw();
    let rc = pe_anchor(PeKind::Rc).total_mw();
    let optimized = lz + ma + rc; // ~7.2 mW
    let after_split = 11.2; // paper's reported post-split point
    let after_sptprg = optimized / 7.162 * 13.3; // unsplit MA, pre-pipelining
    vec![
        Rung {
            label: "LZMA-initial",
            power_mw: 20.0,
        },
        Rung {
            label: "+spt-prg",
            power_mw: after_sptprg,
        },
        Rung {
            label: "+MA-RC-split",
            power_mw: after_split,
        },
        Rung {
            label: "+opt",
            power_mw: optimized,
        },
    ]
}

/// Prints Figure 6 with the functional evidence for each rung.
pub fn run() {
    println!("Figure 6 (left): XCOR co-design ladder (12 mW line)\n");
    for r in xcor_ladder() {
        println!("  {:<14} {:>6.2} mW", r.label, r.power_mw);
    }

    // Functional evidence: buffer reduction measured from the live PEs.
    let config = XcorConfig::new(96, 4096, 16, vec![(0, 1), (2, 3)]).expect("config");
    let naive = XcorPe::new(config.clone(), XcorVariant::Naive);
    let streaming = XcorPe::new(config, XcorVariant::Streaming);
    println!(
        "\n  measured buffers: naive {} KB -> streaming {} KB ({}x reduction);",
        naive.memory_bytes() / 1024,
        streaming.memory_bytes().div_ceil(1024),
        naive.memory_bytes() / streaming.memory_bytes().max(1)
    );
    println!("  outputs verified bit-identical (tests/props.rs::xcor_streaming_equals_block)");

    println!("\nFigure 6 (right): LZMA co-design ladder (12 mW line)\n");
    for r in lzma_ladder() {
        println!("  {:<14} {:>6.2} mW", r.label, r.power_mw);
    }
    println!(
        "\n  MA/RC split verified byte-identical to the unsplit codec\n  (tests/decomposition.rs::lzma_pipeline_is_bit_identical_to_the_monolithic_codec)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_monotone_and_end_under_budget() {
        for ladder in [xcor_ladder(), lzma_ladder()] {
            for pair in ladder.windows(2) {
                assert!(pair[0].power_mw > pair[1].power_mw);
            }
            assert!(ladder.first().expect("nonempty").power_mw > 12.0);
            assert!(ladder.last().expect("nonempty").power_mw < 12.0);
        }
        // DESIGN.md §3: XCOR steps of 2.2x then 1.4x, and LZMA rungs of
        // 20 -> ~13 -> 11.2 -> ~7 mW.
        let xcor = xcor_ladder();
        assert_eq!(xcor.len(), 3);
        for (pair, step) in xcor.windows(2).zip([2.2, 1.4]) {
            let got = pair[0].power_mw / pair[1].power_mw;
            assert!((got - step).abs() <= 0.1, "{}: {got:.2}x", pair[1].label);
        }
        let lzma = lzma_ladder();
        assert_eq!(lzma.len(), 4);
        for (rung, mw) in lzma.iter().zip([20.0, 13.0, 11.2, 7.0]) {
            assert!(
                (rung.power_mw - mw).abs() <= 0.5,
                "{}: {:.2} mW",
                rung.label,
                rung.power_mw
            );
        }
    }

    #[test]
    fn streaming_buffer_reduction_is_an_order_of_magnitude() {
        let config = XcorConfig::new(96, 4096, 16, vec![(0, 1)]).expect("config");
        let naive = XcorPe::new(config.clone(), XcorVariant::Naive);
        let streaming = XcorPe::new(config, XcorVariant::Streaming);
        assert!(naive.memory_bytes() > 50 * streaming.memory_bytes());
    }
}
