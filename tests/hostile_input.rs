//! Hostile input against the readers of untrusted text: `json::parse`,
//! `json::validate` and `TraceLog::read` return `Ok` or `Err` on
//! anything, never panic or overflow the stack, and reject integers too
//! wide for their field instead of truncating them. Any trace-log text
//! that reads also replays to a `ReplayReport` or a typed `ReplayError`,
//! and reads only with the samples it was written with. The fabric's MMIO
//! switch-word decoder gets the same treatment: any 32-bit word either
//! loads a route that re-encodes to it or fails with a typed error.
//!
//! Mutations are drawn from the workspace's deterministic [`SimRng`], so
//! every run explores the same inputs and a failure reproduces exactly.

use std::collections::BTreeMap;
use std::panic::catch_unwind;

use halo::core::runtime::RuntimeError;
use halo::core::tasks::movement;
use halo::core::trace::{capture, replay, ReplayError};
use halo::core::{HaloConfig, HaloSystem, SystemError, Task};
use halo::noc::{Fabric, FabricError};
use halo::signal::{RecordingConfig, RegionProfile, SimRng};
use halo::telemetry::{json, TraceLog};

/// Far deeper than any stack holds one recursion level per bracket.
const HOSTILE_DEPTH: usize = 100_000;

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(HOSTILE_DEPTH);
    let err = json::parse(&deep).unwrap_err();
    assert!(err.starts_with("nesting deeper than"), "{err}");
    assert_eq!(json::validate(&deep), Err(err));

    let objects = "{\"a\":".repeat(HOSTILE_DEPTH);
    assert!(json::parse(&objects).is_err());
    for log in [
        deep.clone(),
        format!("{{\"halo_trace_log\":2,\"switch_words\":{deep}"),
    ] {
        let err = TraceLog::read(&log).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }
}

/// A closed-loop movement-intent run captured with `TraceLog::write`: its
/// switch words, MCU flags and stimulation records are all non-empty.
fn captured_log() -> String {
    let channels = 4;
    let config = HaloConfig::small_test(channels);
    let window = config.feature_window_frames();
    let calib = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(500)
        .movement_at(3 * window, 7 * window)
        .generate(11);
    let threshold = movement::calibrate_threshold(&config, &calib).unwrap();
    let session = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(500)
        .movement_at(5 * window, 10 * window)
        .generate(18);
    let mut sys =
        HaloSystem::new(Task::MovementIntent, config.movement_threshold(threshold)).unwrap();
    let metrics = sys.process(&session).unwrap();
    let mut log = capture(&sys, &session, &metrics);
    assert!(!log.switch_words.is_empty() && !log.mcu_flags.is_empty() && !log.stim.is_empty());
    // Short hex payloads, so mutations land on the document's structure
    // about as often as inside a hex string.
    log.samples.truncate(64);
    log.radio.truncate(32);
    let text = log.write();
    assert_eq!(TraceLog::read(&text).unwrap(), log, "the log round-trips");
    text
}

#[test]
fn truncated_and_corrupted_trace_logs_never_panic() {
    let text = captured_log();
    assert!(text.is_ascii(), "every cut is a char boundary");
    let mut rng = SimRng::new(0x7e1e_10c5);
    for case in 0..2000 {
        let cut = rng.range_usize(0, text.len());
        let at = rng.range_usize(0, text.len());
        let byte = rng.range_u64(0, 0x80) as u8;
        let mut bytes = text.clone().into_bytes();
        bytes[at] = byte;
        let corrupted = String::from_utf8(bytes).unwrap();
        for input in [&text[..cut], corrupted.as_str()] {
            let outcome = catch_unwind(|| {
                let _ = json::validate(input);
                let _ = TraceLog::read(input);
            });
            assert!(
                outcome.is_ok(),
                "case {case}: panicked (cut at {cut}, byte {byte:#04x} at {at})"
            );
        }
    }
}

/// A 48-frame, two-channel LZ4 run with 64-byte blocks, as
/// `TraceLog::write` serializes its capture, and the configuration it
/// replays under. Its sample, radio and switch-word payloads are all short.
fn captured_lz4_log() -> (HaloConfig, String) {
    let config = HaloConfig::small_test(2).block_bytes(64);
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(2)
        .samples(48)
        .generate(3);
    let mut sys = HaloSystem::new(Task::CompressLz4, config.clone()).unwrap();
    let metrics = sys.process(&rec).unwrap();
    let log = capture(&sys, &rec, &metrics);
    assert!(!log.radio.is_empty() && !log.switch_words.is_empty());
    assert!(replay(&log, config.clone()).unwrap().1.identical());
    (config, log.write())
}

/// 2,000 SimRng truncations and single-byte substitutions of a captured
/// LZ4 log: every text `TraceLog::read` accepts replays to a report or a
/// typed `ReplayError`, none panics, and every text that reads carries
/// the original samples.
#[test]
fn truncated_and_corrupted_trace_logs_replay_or_fail_typed() {
    let (config, text) = captured_lz4_log();
    assert!(text.is_ascii(), "every cut is a char boundary");
    let samples = TraceLog::read(&text).unwrap().samples;
    let mut rng = SimRng::new(0xc4ec_4901);
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for case in 0..2000 {
        let cut = rng.range_usize(0, text.len());
        let at = rng.range_usize(0, text.len());
        let byte = rng.range_u64(0, 0x80) as u8;
        let mut bytes = text.clone().into_bytes();
        bytes[at] = byte;
        let corrupted = String::from_utf8(bytes).unwrap();
        for input in [&text[..cut], corrupted.as_str()] {
            let outcome = catch_unwind(|| {
                let log = TraceLog::read(input).ok()?;
                if log.samples != samples {
                    return Some("read altered samples");
                }
                Some(match replay(&log, config.clone()) {
                    Ok((_, report)) if report.identical() => "identical",
                    Ok(_) => "divergent",
                    Err(ReplayError::UnknownTask(_)) => "unknown task",
                    Err(ReplayError::ConfigMismatch { .. }) => "config mismatch",
                    Err(ReplayError::FabricMismatch { .. }) => "fabric mismatch",
                    Err(ReplayError::System(_)) => "system",
                })
            });
            let outcome = outcome.unwrap_or_else(|_| {
                panic!("case {case}: panicked (cut at {cut}, byte {byte:#04x} at {at})")
            });
            *outcomes.entry(outcome.unwrap_or("unread")).or_default() += 1;
        }
    }
    // Not vacuous: mutations reach replay and are caught there.
    for seen in ["identical", "divergent", "unread"] {
        assert!(outcomes.contains_key(seen), "{outcomes:?}");
    }
    assert!(outcomes.len() >= 5, "{outcomes:?}");
    assert!(
        !outcomes.contains_key("read altered samples"),
        "{outcomes:?}"
    );
}

/// A log whose channel count is zero or differs from the configuration's,
/// or whose samples are not whole frames, still reads; replay refuses it
/// with a typed error, never a panic.
#[test]
fn trace_logs_with_a_bad_channel_count_replay_to_typed_errors() {
    let (config, text) = captured_lz4_log();
    assert_eq!(TraceLog::read(&text).unwrap().samples.len(), 96);
    for channels in [0, 5] {
        let hostile = text.replacen("\"channels\":2,", &format!("\"channels\":{channels},"), 1);
        let log = TraceLog::read(&hostile).unwrap();
        assert_eq!(log.channels, channels);
        let replayed = replay(&log, config.clone());
        assert!(
            matches!(
                replayed,
                Err(ReplayError::System(SystemError::GeometryMismatch { expected: 2, got }))
                    if got == channels as usize
            ),
            "{channels} channels: {replayed:?}"
        );
    }
    let mut odd = TraceLog::read(&text).unwrap();
    odd.samples.pop();
    let odd = TraceLog::read(&odd.write()).unwrap();
    let replayed = replay(&odd, config);
    assert!(
        matches!(
            replayed,
            Err(ReplayError::System(SystemError::Runtime(
                RuntimeError::BadBlock {
                    len: 95,
                    frame_len: 2
                }
            )))
        ),
        "{replayed:?}"
    );
}

/// Every sample a log carries is covered by its digest, so one altered
/// hex digit of the last sample is refused at read time, before a replay
/// could judge it.
#[test]
fn trace_log_with_an_altered_last_sample_fails_to_read() {
    let (_, text) = captured_lz4_log();
    let start = text.find("\"samples\":\"").unwrap() + "\"samples\":\"".len();
    let end = start + text[start..].find('"').unwrap();
    // One hex digit of the last sample's four.
    let at = end - 4;
    let digit = u8::from_str_radix(&text[at..=at], 16).unwrap();
    let altered = format!("{}{:x}{}", &text[..at], digit ^ 0x8, &text[at + 1..]);
    let err = TraceLog::read(&altered).unwrap_err();
    assert!(err.starts_with("samples_fnv"), "{err}");
}

/// `value` plus 2^32: an `as u32` cast would read it back as `value`.
fn wrapped_u32(value: u32) -> u64 {
    u64::from(value) + (1 << 32)
}

#[test]
fn trace_log_integers_wider_than_their_field_are_errors() {
    let text = captured_log();
    let log = TraceLog::read(&text).unwrap();
    for (field, value) in [
        ("channels", log.channels),
        ("sample_rate_hz", log.sample_rate_hz),
        ("commands", log.stim[0].commands),
    ] {
        let from = format!("\"{field}\":{value}");
        assert!(text.contains(&from), "{field} is written as {from}");
        let hostile = text.replacen(&from, &format!("\"{field}\":{}", wrapped_u32(value)), 1);
        let err = TraceLog::read(&hostile).unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
    }
    // The widest value that fits still reads.
    let from = format!("\"channels\":{}", log.channels);
    let widest = text.replacen(&from, &format!("\"channels\":{}", u32::MAX), 1);
    assert_eq!(TraceLog::read(&widest).unwrap().channels, u32::MAX);
}

/// §IV-E: the controller programs routes as 32-bit MMIO words, and
/// `Fabric::encoded_routes` must reproduce exactly the words it was fed.
/// 100,000 SimRng words (half with VALID forced, a quarter of those with
/// the reserved bits cleared too) go into one fabric, cleared every 256
/// words: none may panic, every accepted route word re-encodes to itself,
/// and every rejected word fails as a bad word or a contended port.
#[test]
fn random_switch_words_reencode_or_fail_typed() {
    let mut rng = SimRng::new(0x5717_c4e5);
    let mut fabric = Fabric::new();
    let (mut accepted, mut bad, mut contended) = (0, 0, 0);
    for n in 0..100_000u32 {
        if n % 256 == 0 {
            fabric.program(Fabric::WORD_CLEAR).unwrap();
        }
        let mut word = rng.next_u64() as u32;
        if rng.range_u64(0, 2) == 0 {
            word |= Fabric::WORD_VALID;
            if rng.range_u64(0, 4) == 0 {
                word &= !0x7F00_0000;
            }
        }
        match fabric.program(word) {
            Ok(()) if word == Fabric::WORD_CLEAR => {}
            Ok(()) => {
                accepted += 1;
                assert_eq!(
                    fabric.encoded_routes().last(),
                    Some(&word),
                    "{word:#010x} loaded a route that re-encodes differently"
                );
            }
            Err(FabricError::BadSwitchWord(w)) => {
                assert_eq!(w, word);
                bad += 1;
            }
            Err(FabricError::PortContention { .. }) => contended += 1,
            Err(other) => panic!("{word:#010x}: unexpected {other:?}"),
        }
    }
    assert!(
        accepted > 1_000 && bad > 1_000 && contended > 0,
        "{accepted} {bad} {contended}"
    );
}
