//! Randomized-input tests at the PE layer: the decomposed PE chains must
//! equal their monolithic kernels for arbitrary inputs, multi-channel PEs
//! must never mix channels, fixed-point datapaths must stay within their
//! error budgets, and a burst push must equal pushing token by token.
//!
//! Inputs come from the deterministic [`SimRng`], so every run covers the
//! same cases and failures reproduce exactly.

#[path = "../crates/pe/tests/registry/mod.rs"]
mod registry;

use halo::kernels::range::MAX_TOTAL;
use halo::kernels::{Bbf, BbfDesign, BbfFloat, LzMatcher, LzOp, LzmaCodec, Neo};
use halo::pe::pes::{LzPe, MaMode, MaPe, NeoPe, RcPe};
use halo::pe::{InterfaceKind, ProcessingElement, Token};
use halo::signal::SimRng;
use std::collections::VecDeque;

/// Runs bytes through the LZ→MA→RC PE chain, returning the framed stream.
fn run_lzma_chain(data: &[u8], history: usize, block: usize) -> Vec<u8> {
    let matcher = LzMatcher::new(history).unwrap().with_min_match(8);
    let mut pes: Vec<Box<dyn ProcessingElement>> = vec![
        Box::new(LzPe::new(matcher, block)),
        Box::new(MaPe::new(MaMode::Lzma, 16)),
        Box::new(RcPe::new()),
    ];
    let mut framed = Vec::new();
    let mut pending = Vec::new();
    let drain = |pes: &mut Vec<Box<dyn ProcessingElement>>,
                 framed: &mut Vec<u8>,
                 pending: &mut Vec<u8>| loop {
        let mut moved = false;
        for i in 0..pes.len() {
            while let Some(t) = pes[i].pull() {
                moved = true;
                if i + 1 < pes.len() {
                    pes[i + 1].push(0, t).unwrap();
                } else {
                    match t {
                        Token::Byte(b) => pending.push(b),
                        Token::BlockEnd { raw_len } => {
                            framed.extend_from_slice(&raw_len.to_le_bytes());
                            framed.extend_from_slice(&(pending.len() as u32).to_le_bytes());
                            framed.append(pending);
                        }
                        _ => {}
                    }
                }
            }
        }
        if !moved {
            break;
        }
    };
    for &b in data {
        pes[0].push(0, Token::Byte(b)).unwrap();
        drain(&mut pes, &mut framed, &mut pending);
    }
    for i in 0..pes.len() {
        pes[i].flush();
        drain(&mut pes, &mut framed, &mut pending);
    }
    framed
}

/// For ARBITRARY bytes, the decomposed LZ→MA→RC pipeline equals the
/// monolithic codec bit for bit, and decodes losslessly — the §IV-A
/// invariant as a property, not an example.
#[test]
fn lzma_chain_equals_codec() {
    let mut rng = SimRng::new(0x2241);
    for case in 0..32 {
        let len = rng.range_usize(0, 3000);
        let data = rng.bytes(len);
        let block = rng.range_usize(256, 2048);
        let codec = LzmaCodec::new(1024).unwrap().with_block_size(block);
        let want = codec.compress(&data);
        let got = run_lzma_chain(&data, 1024, block);
        assert_eq!(got, want, "case {case}: block {block}, len {}", data.len());
        assert_eq!(codec.decompress(&got).unwrap(), data, "case {case}");
    }
}

/// The multi-channel NEO PE equals per-channel scalar kernels on
/// arbitrary interleaved data.
#[test]
fn multichannel_neo_equals_per_channel_kernels() {
    let mut rng = SimRng::new(0x2242);
    for case in 0..32 {
        let channels = 3;
        let nframes = rng.range_usize(3, 64);
        let frames: Vec<Vec<i16>> = (0..nframes).map(|_| rng.samples(channels)).collect();
        let mut pe = NeoPe::with_channels(channels);
        for f in &frames {
            for &s in f {
                pe.push(0, Token::Sample(s)).unwrap();
            }
        }
        let got: Vec<i64> = std::iter::from_fn(|| pe.pull())
            .filter_map(|t| match t {
                Token::Value(v) => Some(v),
                _ => None,
            })
            .collect();
        // Reference: run the scalar kernel per channel, reinterleave.
        let mut want = vec![0i64; frames.len() * channels];
        for c in 0..channels {
            let series: Vec<i16> = frames.iter().map(|f| f[c]).collect();
            let psi = Neo::process_block(&series);
            for (t, &v) in psi.iter().enumerate() {
                // Kernel output for x[n] arrives when x[n+1] does.
                want[(t + 2) * channels + c] = v;
            }
        }
        assert_eq!(got, want, "case {case}: {nframes} frames");
    }
}

/// The fixed-point BBF tracks the floating-point reference within 1%
/// RMS for arbitrary band edges and white input (the paper's <0.1%
/// claim is for its narrow design bands; wide random bands get a
/// looser but still-tight bound).
#[test]
fn bbf_fixed_point_error_bounded() {
    let mut rng = SimRng::new(0x2243);
    let mut checked = 0;
    while checked < 32 {
        let lo_bin = rng.range_u64(1, 20);
        let width = rng.range_u64(1, 20);
        let fs = 1000u32;
        let lo = lo_bin as f64 * 10.0;
        let hi = lo + width as f64 * 10.0;
        if hi >= 480.0 {
            continue;
        }
        let design = BbfDesign::new(lo, hi, fs).unwrap();
        let mut fixed = Bbf::new(&design);
        let mut float = BbfFloat::new(&design);
        let mut state = rng.next_u64() | 1;
        let mut err_acc = 0.0f64;
        let mut sig_acc = 0.0f64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 48) as i16) / 2;
            let yf = float.process(x as f64);
            let yx = fixed.process(x) as f64;
            err_acc += (yf - yx) * (yf - yx);
            sig_acc += yf * yf;
        }
        if sig_acc <= 1e4 {
            continue; // skip degenerate all-zero cases
        }
        checked += 1;
        let rel = (err_acc / sig_acc).sqrt();
        assert!(rel < 0.01, "band [{lo}, {hi}]: relative error {rel}");
    }
}

/// GATE never emits more tokens than it receives, and `passed + dropped`
/// exactly accounts for every paired token.
#[test]
fn gate_conservation() {
    use halo::pe::pes::GatePe;
    let mut pe = GatePe::with_channels(3, 2, 1);
    let n = 500;
    let mut pushed = 0u64;
    for i in 0..n {
        pe.push(0, Token::Sample(i as i16)).unwrap();
        pe.push(1, Token::Flag(i % 7 == 0)).unwrap();
        pushed += 1;
    }
    let emitted = std::iter::from_fn(|| pe.pull()).count() as u64;
    assert_eq!(pe.passed(), emitted);
    assert_eq!(pe.passed() + pe.dropped(), pushed);
    assert!(emitted < pushed);
}

/// A random token of `kind` that every registry PE taking `kind` accepts:
/// LZ ops within the MA and LIC code spaces, coder intervals within
/// [`MAX_TOTAL`], coefficients within the DWT-mode MA's classes.
fn token_of(kind: InterfaceKind, rng: &mut SimRng) -> Token {
    match kind {
        InterfaceKind::Samples => Token::Sample(rng.any_i16()),
        InterfaceKind::Bytes => Token::Byte(rng.any_u8()),
        InterfaceKind::Flags => Token::Flag(rng.next_u64() & 1 == 1),
        InterfaceKind::Values => Token::Value(rng.next_u32() as i32 as i64),
        InterfaceKind::Coeffs => Token::Coeff(rng.any_i16() as i32 * 64),
        InterfaceKind::Ops if rng.next_u64() & 1 == 0 => Token::Op(LzOp::Literal(rng.any_u8())),
        InterfaceKind::Ops => Token::Op(LzOp::Match {
            len: rng.range_u64(4, 300) as u32,
            dist: rng.range_u64(1, 4096) as u32,
        }),
        InterfaceKind::Probs if rng.range_usize(0, 4) == 0 => {
            let bits = rng.range_u64(0, 33) as u32;
            let value = (rng.next_u64() & ((1u64 << bits) - 1)) as u32;
            Token::Bits { value, bits }
        }
        InterfaceKind::Probs => {
            let total = rng.range_u64(1, MAX_TOTAL as u64 + 1) as u32;
            let freq = rng.range_u64(1, total as u64 + 1) as u32;
            let cum = rng.range_u64(0, (total - freq) as u64 + 1) as u32;
            Token::Prob { cum, freq, total }
        }
        InterfaceKind::Vectors => Token::Vector(Box::new(vec![rng.next_u32() as i32])),
    }
}

/// Drains `pe`'s output FIFO, checking its running wire-byte sum first.
fn drain(pe: &mut dyn ProcessingElement) -> Vec<Token> {
    let bytes = pe.output_fifo().wire_bytes();
    let out: Vec<Token> = std::iter::from_fn(|| pe.pull()).collect();
    let sum: u64 = out.iter().map(|t| t.wire_bytes() as u64).sum();
    assert_eq!(bytes, sum, "{}: FIFO wire-byte sum", pe.kind());
    assert_eq!(pe.output_fifo().wire_bytes(), 0);
    out
}

/// For every PE of the contract registry, `push_burst` equals `push` per
/// token: the same output tokens, FIFO high-water mark and wire bytes, a
/// stall count equal to the pushes that found the output FIFO occupied,
/// and on a wrong-interface token or a missing port the same error, with
/// the failing token dropped and the ones after it left queued. Bursts of
/// up to 200 tokens with block markers at random points straddle LZ (64 B)
/// and DWT (8-sample) block fills, RC renormalisations and AES 16-byte
/// blocks; half of them start with the previous burst's output queued.
#[test]
fn push_burst_equals_per_token_push() {
    const KINDS: [InterfaceKind; 8] = [
        InterfaceKind::Samples,
        InterfaceKind::Bytes,
        InterfaceKind::Flags,
        InterfaceKind::Values,
        InterfaceKind::Coeffs,
        InterfaceKind::Ops,
        InterfaceKind::Probs,
        InterfaceKind::Vectors,
    ];
    let mut rng = SimRng::new(0x2244);
    let (mut stalled, mut errors) = (0u64, 0u32);
    for case in 0..24 {
        for (mut burst_pe, mut token_pe) in
            registry::registry().into_iter().zip(registry::registry())
        {
            let name = burst_pe.kind();
            let ports = burst_pe.input_ports().to_vec();
            for round in 0..32 {
                let ctx = format!("case {case} {name} round {round}");
                // Some bursts go to a port the PE does not have.
                let port = rng.range_usize(0, ports.len() + usize::from(round % 8 == 7));
                let kind = ports.get(port).copied().unwrap_or(ports[0]);
                let len = rng.range_usize(0, 200);
                let mut tokens: VecDeque<Token> = (0..len)
                    .map(|_| match rng.range_usize(0, 16) {
                        0 => Token::BlockEnd {
                            raw_len: rng.range_u64(0, 5000) as u32,
                        },
                        _ => token_of(kind, &mut rng),
                    })
                    .collect();
                if len > 0 && rng.range_usize(0, 4) == 0 {
                    let wrong = loop {
                        let k = KINDS[rng.range_usize(0, KINDS.len())];
                        if k != kind {
                            break k;
                        }
                    };
                    tokens[rng.range_usize(0, len)] = token_of(wrong, &mut rng);
                }
                if rng.next_u64() & 1 == 0 {
                    assert_eq!(drain(&mut *burst_pe), drain(&mut *token_pe), "{ctx}");
                }
                let mut rest = tokens.clone();
                let got = burst_pe.push_burst(port, &mut tokens);
                let mut stalls = 0;
                let mut want = Ok(());
                while let Some(token) = rest.pop_front() {
                    stalls += u64::from(!token_pe.output_fifo().is_empty());
                    want = token_pe.push(port, token);
                    if want.is_err() {
                        break;
                    }
                }
                match (got, want) {
                    (Ok(got), Ok(())) => assert_eq!(got, stalls, "{ctx}: stalls"),
                    (Err(got), Err(want)) => {
                        assert_eq!(got, want, "{ctx}: error");
                        assert_eq!(tokens, rest, "{ctx}: tokens left after the error");
                        errors += 1;
                    }
                    (got, want) => panic!("{ctx}: push_burst {got:?}, push {want:?}"),
                }
                stalled += stalls;
                let (a, b) = (burst_pe.output_fifo(), token_pe.output_fifo());
                assert_eq!(a.high_water(), b.high_water(), "{ctx}: high water");
                assert_eq!(a.wire_bytes(), b.wire_bytes(), "{ctx}: wire bytes");
            }
            burst_pe.flush();
            token_pe.flush();
            assert_eq!(
                drain(&mut *burst_pe),
                drain(&mut *token_pe),
                "case {case} {name}"
            );
        }
    }
    assert!(
        stalled > 0 && errors > 0,
        "the campaign must stall and fail"
    );
}
