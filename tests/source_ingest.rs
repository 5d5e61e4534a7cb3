//! Source fast paths: the PEs the ADC feeds directly take a whole frame in
//! one `push_samples` call and promise quiet frames through `quiet_frames`,
//! and the runtime relies on both to skip per-sample dispatch. Neither may
//! be observable: for every source PE of the stock pipelines (INTERLEAVER,
//! GATE, AES with their own slice paths, NEO through the trait default),
//! any slicing of a sample run must give the same output tokens, FIFO
//! high-water and later behaviour as pushing it token by token; a wrong
//! port must fail with the same error and leave the PE as it was; and
//! `quiet_frames(n)` must never promise a frame that emits.
//!
//! Inputs come from the deterministic [`SimRng`], so every run covers the
//! same cases and failures reproduce exactly.

use halo::pe::pes::{AesPe, GatePe, InterleaverPe, NeoPe};
use halo::pe::{ProcessingElement, Token};
use halo::signal::SimRng;

/// One randomly configured source PE, built twice from the same
/// parameters: one copy is fed token by token, the other by slices.
struct Case {
    name: String,
    make: Box<dyn Fn() -> Box<dyn ProcessingElement>>,
    /// Samples per ADC frame.
    frame: usize,
    /// Whether port 1 takes control flags (GATE).
    control: bool,
}

fn fifo_state(pe: &dyn ProcessingElement) -> (usize, usize) {
    let fifo = pe.output_fifo().expect("every source PE exposes its FIFO");
    (fifo.len(), fifo.high_water())
}

/// Pushes `samples` into `pe` as random slices, empty ones included.
fn push_sliced(pe: &mut dyn ProcessingElement, samples: &[i16], rng: &mut SimRng) {
    let mut rest = samples;
    loop {
        let k = rng.range_usize(0, rest.len() + 1);
        pe.push_samples(0, &rest[..k]).unwrap();
        rest = &rest[k..];
        if rest.is_empty() {
            break;
        }
    }
}

/// Drives both copies of `case` through one random history and checks
/// they never diverge. Returns how many quiet promises were tested.
fn exercise(case: &Case, rng: &mut SimRng) -> usize {
    let name = &case.name;
    let mut token = (case.make)();
    let mut sliced = (case.make)();
    let (mut out_token, mut out_sliced) = (Vec::new(), Vec::new());
    let mut promises = 0;
    for step in 0..48 {
        let quiet = token.quiet_frames(case.frame);
        assert_eq!(
            quiet,
            sliced.quiet_frames(case.frame),
            "{name} step {step}: quiet promise diverged"
        );
        match rng.range_usize(0, 10) {
            0..=5 => {
                // Either exactly the promised quiet frames (at most 16), or
                // a run of any length, partial frames included.
                let promised = quiet >= 1 && rng.range_usize(0, 2) == 0;
                let len = if promised {
                    promises += 1;
                    quiet.min(16) as usize * case.frame
                } else {
                    rng.range_usize(0, 4 * case.frame + 3)
                };
                let samples = rng.samples(len);
                let before = fifo_state(&*token).0;
                for &s in &samples {
                    token.push(0, Token::Sample(s)).unwrap();
                }
                if promised {
                    assert_eq!(
                        fifo_state(&*token).0,
                        before,
                        "{name} step {step}: a frame promised quiet ({quiet}) emitted"
                    );
                }
                push_sliced(&mut *sliced, &samples, rng);
            }
            6 if case.control => {
                for _ in 0..rng.range_usize(1, 6) {
                    let flag = Token::Flag(rng.range_usize(0, 3) == 0);
                    token.push(1, flag.clone()).unwrap();
                    sliced.push(1, flag).unwrap();
                }
            }
            6 | 7 => {
                let end = Token::BlockEnd {
                    raw_len: rng.range_usize(0, 64) as u32,
                };
                token.push(0, end.clone()).unwrap();
                sliced.push(0, end).unwrap();
            }
            8 => {
                for _ in 0..rng.range_usize(0, 3 * case.frame + 1) {
                    out_token.extend(token.pull());
                    out_sliced.extend(sliced.pull());
                }
            }
            _ => {
                // A sample slice on a port that takes no samples (GATE's
                // control port) or does not exist.
                let port = rng.range_usize(1, 3);
                let len = rng.range_usize(1, 6);
                let samples = rng.samples(len);
                let want = token.push(port, Token::Sample(samples[0])).unwrap_err();
                let got = sliced.push_samples(port, &samples).unwrap_err();
                assert_eq!(got, want, "{name} step {step}: port {port}");
            }
        }
        assert_eq!(
            fifo_state(&*sliced),
            fifo_state(&*token),
            "{name} step {step}: (occupancy, high-water) diverged"
        );
    }
    token.flush();
    sliced.flush();
    out_token.extend(std::iter::from_fn(|| token.pull()));
    out_sliced.extend(std::iter::from_fn(|| sliced.pull()));
    assert_eq!(out_sliced, out_token, "{name}: output stream diverged");
    assert_eq!(
        fifo_state(&*sliced).1,
        fifo_state(&*token).1,
        "{name}: high-water diverged"
    );
    promises
}

/// Runs `cases` random configurations from `build` and returns the number
/// of quiet promises checked.
fn run(seed: u64, cases: usize, build: impl Fn(&mut SimRng) -> Case) -> usize {
    let mut rng = SimRng::new(seed);
    (0..cases)
        .map(|_| {
            let case = build(&mut rng);
            exercise(&case, &mut rng)
        })
        .sum()
}

#[test]
fn interleaver_slices_match_token_pushes() {
    let promises = run(0x1e1, 200, |rng| {
        let channels = rng.range_usize(1, 13);
        let depth = rng.range_usize(1, 9);
        Case {
            name: format!("INTERLEAVER({channels}x{depth})"),
            make: Box::new(move || Box::new(InterleaverPe::new(channels, depth))),
            frame: channels,
            control: false,
        }
    });
    assert!(promises > 100, "only {promises} quiet promises exercised");
}

#[test]
fn gate_slices_match_token_pushes() {
    let promises = run(0x6a7e, 200, |rng| {
        let hold = rng.range_usize(0, 5);
        let channels = rng.range_usize(1, 7);
        let per_control = rng.range_usize(1, 5);
        Case {
            name: format!("GATE(hold {hold}, {channels} ch, {per_control}/flag)"),
            make: Box::new(move || Box::new(GatePe::with_channels(hold, channels, per_control))),
            frame: channels,
            control: true,
        }
    });
    assert!(promises > 100, "only {promises} quiet promises exercised");
}

#[test]
fn neo_slices_match_token_pushes() {
    run(0x4e0, 200, |rng| {
        let channels = rng.range_usize(1, 13);
        Case {
            name: format!("NEO({channels} ch)"),
            make: Box::new(move || Box::new(NeoPe::with_channels(channels))),
            frame: channels,
            control: false,
        }
    });
}

#[test]
fn aes_slices_match_token_pushes() {
    run(0xae5, 200, |rng| {
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let channels = rng.range_usize(1, 20);
        Case {
            name: format!("AES({channels} ch, key {key:02x?})"),
            make: Box::new(move || Box::new(AesPe::new(key).from_samples())),
            frame: channels,
            control: false,
        }
    });
}

#[test]
fn byte_fed_aes_rejects_sample_slices_like_token_pushes() {
    let mut token = AesPe::new([7; 16]);
    let mut sliced = AesPe::new([7; 16]);
    let want = token.push(0, Token::Sample(3)).unwrap_err();
    assert_eq!(sliced.push_samples(0, &[3, 4, 5]).unwrap_err(), want);
    assert_eq!(
        sliced.push_samples(0, &[]),
        Ok(()),
        "an empty slice pushes nothing"
    );
    for b in 0..16 {
        token.push(0, Token::Byte(b)).unwrap();
        sliced.push(0, Token::Byte(b)).unwrap();
    }
    let drain = |pe: &mut AesPe| std::iter::from_fn(|| pe.pull()).collect::<Vec<_>>();
    assert_eq!(drain(&mut sliced), drain(&mut token));
}
