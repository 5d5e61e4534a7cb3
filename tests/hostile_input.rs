//! Hostile input against the readers of untrusted text: `json::parse`,
//! `json::validate` and `TraceLog::read` return `Ok` or `Err` on anything,
//! and never panic or overflow the stack.
//!
//! Mutations are drawn from the workspace's deterministic [`SimRng`], so
//! every run explores the same inputs and a failure reproduces exactly.

use std::panic::catch_unwind;

use halo::core::tasks::movement;
use halo::core::trace::capture;
use halo::core::{HaloConfig, HaloSystem, Task};
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
        format!("{{\"halo_trace_log\":1,\"switch_words\":{deep}"),
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
