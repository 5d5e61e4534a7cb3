//! End-to-end tests for the active observability layer: the
//! safety-envelope watchdog on a real seizure closed-loop run, recorder
//! ring-buffer wraparound, snapshot determinism under concurrent
//! recording, and randomized checks that histogram percentile digests
//! bound the true sample quantiles.

use std::sync::Arc;
use std::thread;

use halo::core::tasks::seizure;
use halo::core::{HaloConfig, HaloSystem, SystemError, Task};
use halo::signal::{Recording, RecordingConfig, RegionProfile, SimRng};
use halo::telemetry::{
    expose, json, AlertKind, AlertPolicy, ContinuousConfig, ContinuousTelemetry, Event, EventKind,
    HealthConfig, HealthMonitor, LinkWindow, LogHistogram, Recorder, Severity, SloConfig,
    SlotWindow, TelemetrySink, Tracer, WindowReport,
};

/// The seizure closed-loop scenario: an SVM trained on labeled recordings
/// and a session whose ictal episode triggers stimulation.
fn seizure_scenario() -> (HaloConfig, Recording) {
    let channels = 8;
    let config = HaloConfig::small_test(channels).channels(channels);
    let window = config.feature_window_frames();
    let train_a = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(700)
        .seizure_at(6 * window, 14 * window)
        .generate(9);
    let train_b = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(700)
        .seizure_at(12 * window, 20 * window)
        .generate(19);
    let svm = seizure::train(&config, &[&train_a, &train_b]).unwrap();
    let session = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(700)
        .seizure_at(8 * window, 16 * window)
        .generate(10);
    (config.with_svm(svm), session)
}

fn monitor_with(budget_mw: f64, policy: AlertPolicy) -> Arc<HealthMonitor> {
    let recorder = Arc::new(Recorder::new(65536).with_sample_rate_hz(30_000));
    Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            budget_mw,
            policy,
            ..HealthConfig::default()
        },
    ))
}

/// The ISSUE acceptance scenario: a seizure closed-loop run against an
/// artificially lowered power budget must raise at least one structured
/// `PowerBudget` alert, latch a valid post-mortem JSON dump, and surface
/// the worst window and non-empty latency percentiles in the Prometheus
/// exposition.
#[test]
fn lowered_budget_raises_power_alert_with_postmortem() {
    let (config, session) = seizure_scenario();
    // Far below what any pipeline draws, so every window violates.
    let monitor = monitor_with(0.001, AlertPolicy::Record);
    let mut system = HaloSystem::new(Task::SeizurePrediction, config).unwrap();
    system.attach_health(monitor.clone());
    let metrics = system.process(&session).unwrap();
    assert!(!metrics.stim_events.is_empty(), "scenario must stimulate");
    for stim in &metrics.stim_events {
        // Firmware latency is real (cycles > 0) but comfortably inside
        // the 30-frame (1 ms) deadline.
        assert!(stim.latency_frames > 0);
        assert!(stim.latency_frames <= 30);
    }

    let status = monitor.status();
    let power_alerts = status
        .alerts
        .iter()
        .filter(|a| matches!(a.kind(), AlertKind::PowerBudget { .. }))
        .count();
    assert!(power_alerts >= 1, "no PowerBudget alert raised");
    assert!(status.headroom_fraction().unwrap() < 0.0);
    assert_eq!(status.active_pipeline, Task::SeizurePrediction.label());

    let dump = monitor
        .postmortem()
        .expect("critical alert must latch dump");
    json::validate(&dump).expect("post-mortem must be valid JSON");
    assert!(dump.contains("power_budget"));
    assert!(dump.contains("recent_events"));

    let exposition = expose::render_health(&monitor);
    assert!(exposition.contains("halo_power_worst_window_mw "));
    assert!(exposition.contains("halo_frame_latency_ns_count"));
    assert!(exposition.contains("quantile=\"0.99\""));
    assert!(exposition.contains("kind=\"power_budget\",severity=\"critical\""));

    // The percentile digests are non-empty and ordered.
    let snap = monitor.recorder().snapshot();
    let pipeline = &snap.pipelines[0];
    assert!(pipeline.latency.count > 0);
    assert!(pipeline.latency.p50 > 0);
    assert!(pipeline.latency.p99 >= pipeline.latency.p50);
}

/// Dropping an instrumented device frees its instruments. The monitor
/// keeps the tracer for post-mortems and the tracer streams spans into
/// the monitor; only the first link is strong, so there is no cycle. A
/// monitor that outlives its device still dumps the tracer's span trees.
#[test]
fn dropped_device_frees_monitor_and_tracer() {
    let channels = 8;
    let config = HaloConfig::small_test(channels);
    let session = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(40)
        .generate(5);
    let monitor = monitor_with(0.001, AlertPolicy::Record);
    let tracer = Arc::new(Tracer::new(1, 4));
    let mut system = HaloSystem::new(Task::CompressLz4, config).unwrap();
    system.attach_tracing(tracer.clone());
    system.attach_health(monitor.clone());
    system.process(&session).unwrap();
    let weak_monitor = Arc::downgrade(&monitor);
    let weak_tracer = Arc::downgrade(&tracer);
    drop(system);
    drop(tracer);

    let dump = monitor
        .postmortem()
        .expect("critical alert must latch dump");
    json::validate(&dump).expect("post-mortem must be valid JSON");
    assert!(
        dump.contains("\"span_trees\":[{"),
        "span trees lost: {dump}"
    );
    drop(monitor);
    assert!(weak_monitor.upgrade().is_none(), "monitor leaked");
    assert!(weak_tracer.upgrade().is_none(), "tracer leaked");
}

/// Under a fail-fast policy the same overload aborts the run with a
/// structured error instead of returning metrics.
#[test]
fn failfast_policy_aborts_the_run() {
    let (config, session) = seizure_scenario();
    let monitor = monitor_with(0.001, AlertPolicy::FailFast);
    let mut system = HaloSystem::new(Task::SeizurePrediction, config).unwrap();
    system.attach_health(monitor.clone());
    match system.process(&session) {
        Err(SystemError::Health { alert }) => assert_eq!(alert, "power_budget"),
        other => panic!("expected health trip, got {other:?}"),
    }
    assert!(monitor.tripped());
    assert!(monitor.postmortem().is_some());
}

/// A post-mortem latched by a critical power alert reads the ledger of
/// exactly the window that broke the budget: its frame counter equals its
/// frame, and its per-PE and per-link counts equal a bare device's ledger
/// after that many frames.
#[test]
fn power_alert_postmortem_reads_its_own_window() {
    let config = HaloConfig::small_test(8);
    let window = config.feature_window_frames();
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(8)
        .samples(3 * window)
        .generate(0x7e1e);
    let monitor = monitor_with(0.05, AlertPolicy::Record);
    let mut system = HaloSystem::new(Task::CompressLz4, config.clone()).unwrap();
    system.attach_health(monitor.clone());
    system.process(&rec).unwrap();
    let dump = json::parse(&monitor.postmortem().unwrap()).unwrap();
    let field = |v: &json::Value, key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap();
    let frame = field(&dump, "frame");
    assert_eq!(frame, window as u64, "the first window breaks the budget");
    assert_eq!(field(dump.get("counters").unwrap(), "frames"), frame);

    let mut bare = HaloSystem::new(Task::CompressLz4, config).unwrap();
    bare.push_block(&rec.samples()[..frame as usize * 8])
        .unwrap();
    let ledger = bare.runtime();
    let pes = dump.get("pes").and_then(|v| v.as_array()).unwrap();
    assert_eq!(pes.len(), ledger.slot_totals().len());
    for (pe, t) in pes.iter().zip(ledger.slot_totals()) {
        let got = ["busy_cycles", "stall_cycles", "bytes_in", "bytes_out"].map(|k| field(pe, k));
        assert_eq!(
            got,
            [t.busy_cycles, t.stall_cycles, t.bytes_in, t.bytes_out],
            "slot {}",
            field(pe, "slot")
        );
    }
    let links: Vec<[u64; 4]> = dump
        .get("links")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|l| ["from", "to", "bytes", "transfers"].map(|k| field(l, k)))
        .collect();
    let mut want: Vec<[u64; 4]> = ledger
        .fabric()
        .link_traffic()
        .iter()
        .filter(|l| l.transfers > 0)
        .map(|l| [l.from.0 as u64, l.to.0 as u64, l.bytes, l.transfers])
        .collect();
    want.sort();
    assert!(!want.is_empty());
    assert_eq!(links, want);
}

/// `reconfigure` closes the retiring runtime's open window, so a recorder
/// attached across a mid-window switch counts both pipelines' frames and
/// each slot's busy cycles from both ledgers.
#[test]
fn reconfigure_closes_the_retiring_runtimes_window() {
    let config = HaloConfig::small_test(8);
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(8)
        .samples(1000)
        .generate(3);
    let recorder = Arc::new(Recorder::new(4096));
    let mut system = HaloSystem::new(Task::CompressLz4, config).unwrap();
    system.attach_telemetry(recorder.clone());
    system.push_block(rec.samples()).unwrap();
    let lz4: Vec<u64> = system
        .runtime()
        .slot_totals()
        .iter()
        .map(|t| t.busy_cycles)
        .collect();
    system.reconfigure(Task::SpikeDetectNeo).unwrap();
    system.push_block(rec.samples()).unwrap();
    system.finalize().unwrap();
    let neo = system.runtime().slot_totals();

    let snap = recorder.snapshot();
    assert_eq!(snap.frames, 2000);
    for pe in &snap.pes {
        let slot = pe.slot as usize;
        let want = lz4.get(slot).copied().unwrap_or(0) + neo.get(slot).map_or(0, |t| t.busy_cycles);
        assert_eq!(pe.busy_cycles, want, "slot {slot}");
    }
    // The retiring window keeps the LZ4 names it closed under, although
    // NEO has since redeclared the slots.
    let retired = recorder
        .events()
        .into_iter()
        .find_map(|e| match e.kind {
            EventKind::Window(w) if w.report.end() == 1000 => Some(w),
            _ => None,
        })
        .expect("the LZ4 window closed at the switch");
    assert_eq!(retired.names, ["INTERLEAVER", "LZ", "LIC"]);
    assert_eq!(snap.active_pipeline, Task::SpikeDetectNeo.label());
    assert!(snap
        .pes
        .iter()
        .all(|pe| !["INTERLEAVER", "LZ", "LIC"].contains(&pe.name)));
}

/// The stream's last power window is judged before the run returns: a
/// fail-fast monitor trips on it and a callback sees it, whether the
/// watchdog is attached alone or under the continuous layer. Streams of
/// up to 68 ms fit in one 2048-frame window.
#[test]
fn last_power_window_is_judged_before_the_run_returns() {
    let config = HaloConfig::small_test(8);
    let session = |ms| {
        RecordingConfig::new(RegionProfile::arm())
            .channels(8)
            .duration_ms(ms)
            .generate(5)
    };
    let system = |monitor: &Arc<HealthMonitor>, continuous: bool| {
        let mut system = HaloSystem::new(Task::CompressLz4, config.clone()).unwrap();
        if continuous {
            system.attach_continuous(Arc::new(ContinuousTelemetry::new(
                monitor.clone(),
                ContinuousConfig::default(),
            )));
        } else {
            system.attach_health(monitor.clone());
        }
        system
    };
    for ms in [5, 20, 50, 68, 69] {
        for continuous in [false, true] {
            let monitor = monitor_with(0.001, AlertPolicy::FailFast);
            match system(&monitor, continuous).process(&session(ms)) {
                Err(SystemError::Health { alert }) => assert_eq!(alert, "power_budget"),
                other => panic!(
                    "{ms} ms, continuous {continuous}: expected a health trip, got {:?}",
                    other.map(|m| m.frames)
                ),
            }
        }
    }
    let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let fired_in_cb = fired.clone();
    let monitor = monitor_with(
        0.001,
        AlertPolicy::Callback(Arc::new(move |_| {
            fired_in_cb.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })),
    );
    system(&monitor, false).process(&session(68)).unwrap();
    assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 1);
}

/// A generous budget raises nothing: the monitor is pure observation on a
/// healthy run, and the callback policy never fires.
#[test]
fn healthy_run_raises_no_alerts() {
    let (config, session) = seizure_scenario();
    let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let fired_in_cb = fired.clone();
    let monitor = monitor_with(
        1.0e6,
        AlertPolicy::Callback(Arc::new(move |_| {
            fired_in_cb.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })),
    );
    let mut system = HaloSystem::new(Task::SeizurePrediction, config).unwrap();
    system.attach_health(monitor.clone());
    system.process(&session).unwrap();
    let status = monitor.status();
    // Power/deadline/radio envelopes hold; FIFO backpressure may warn but
    // nothing critical happens and no post-mortem latches.
    assert_eq!(status.severity_counts[Severity::Critical as usize], 0);
    assert!(monitor.postmortem().is_none());
    assert!(!monitor.tripped());
    assert_eq!(
        fired.load(std::sync::atomic::Ordering::Relaxed) as u64,
        status.total_alerts()
    );
    assert!(status.power_windows > 0, "watchdog saw no power windows");
}

/// An injected over-deadline `ClosedLoop` event raises the critical
/// deadline-miss alert (natural runs respond within a frame or two, so
/// the envelope is exercised by construction).
#[test]
fn deadline_miss_is_judged_from_closed_loop_events() {
    let monitor = monitor_with(15.0, AlertPolicy::Record);
    monitor.event(Event {
        frame: 900,
        kind: EventKind::ClosedLoop {
            detect_frame: 900,
            latency_frames: 31,
        },
    });
    let status = monitor.status();
    assert_eq!(status.alerts.len(), 1);
    assert!(matches!(
        status.alerts[0].kind(),
        AlertKind::DeadlineMiss {
            latency_frames: 31,
            deadline_frames: 30,
        }
    ));
    assert_eq!(status.alerts[0].severity(), Severity::Critical);
    let dump = monitor.postmortem().unwrap();
    json::validate(&dump).unwrap();
    assert!(dump.contains("deadline_miss"));
}

/// Closed-loop responses are scanned once the stream's last window has
/// been judged, and the deadline SLO still judges them. With the deadline
/// at the firmware's own worst latency, every response sits over the 80%
/// margin without breaking the hard limit, so the deadline objective's
/// fast burn is the only critical alert, and it trips a fail-fast run.
#[test]
fn late_stimulation_fires_the_deadline_burn_rate() {
    let (config, session) = seizure_scenario();
    let bare = HaloSystem::new(Task::SeizurePrediction, config.clone())
        .unwrap()
        .process(&session)
        .unwrap();
    let latencies: Vec<u64> = bare.stim_events.iter().map(|s| s.latency_frames).collect();
    let deadline_frames = *latencies.iter().max().unwrap();
    assert!(latencies.len() >= 3, "{latencies:?}");
    assert!(
        latencies
            .iter()
            .all(|&l| l as f64 > 0.8 * deadline_frames as f64),
        "{latencies:?}"
    );

    let recorder = Arc::new(Recorder::new(65536).with_sample_rate_hz(30_000));
    let monitor = Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            deadline_frames,
            policy: AlertPolicy::FailFast,
            ..HealthConfig::default()
        },
    ));
    // A fast-burn short window spanning the whole session, judged from
    // its three responses.
    let frames = session.samples_per_channel() as u64;
    let layer = ContinuousConfig {
        slo: SloConfig {
            min_points: 3,
            ..SloConfig::scaled_to(12 * frames)
        },
        ..ContinuousConfig::default()
    };
    let continuous = Arc::new(ContinuousTelemetry::new(monitor.clone(), layer));
    let mut system = HaloSystem::new(Task::SeizurePrediction, config).unwrap();
    system.attach_continuous(continuous.clone());
    match system.process(&session) {
        Err(SystemError::Health { alert }) => assert_eq!(alert, "slo_burn_rate"),
        other => panic!("expected a deadline burn trip, got {other:?}"),
    }
    // Only the deadline objective burns: no hard limit broke.
    let kinds: Vec<_> = monitor.status().alerts.iter().map(|a| a.kind()).collect();
    assert!(
        kinds.iter().all(|k| matches!(
            k,
            AlertKind::SloBurnRate {
                objective: "deadline",
                ..
            }
        )),
        "{kinds:?}"
    );
    let slo = continuous.status().slo;
    let (_, deadline) = slo
        .objectives
        .iter()
        .find(|(n, _)| *n == "deadline")
        .unwrap();
    assert_eq!(deadline.fired[0], 1);
    assert!(deadline.burn_rate[0] >= 14.4);
}

/// Ring wraparound: a full ring keeps exactly the newest `capacity`
/// events in order and counts, rather than silently loses, the rest.
#[test]
fn recorder_ring_wraps_to_the_newest_events() {
    let capacity = 32;
    let rec = Recorder::new(capacity);
    for i in 0..(capacity as u64 * 3) {
        rec.event(Event {
            frame: i,
            kind: EventKind::Detection {
                positive: i % 2 == 0,
            },
        });
    }
    let events = rec.events();
    assert_eq!(events.len(), capacity);
    assert_eq!(rec.dropped_events(), capacity as u64 * 2);
    // The survivors are the newest `capacity` events, oldest first.
    let expected_first = capacity as u64 * 2;
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event.frame, expected_first + i as u64);
    }
}

/// Concurrent `window()` calls from many threads produce the same
/// snapshot as the sequential sum — each report folds under the
/// recorder's one lock, so nothing is lost or double-counted.
#[test]
fn snapshot_is_deterministic_under_concurrent_adds() {
    let threads = 8u64;
    let per_thread = 1000u64;
    let rec = Arc::new(Recorder::new(16));
    rec.declare_pe(0, "LZ");
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let rec = rec.clone();
            thread::spawn(move || {
                for i in 0..per_thread {
                    rec.window(&WindowReport {
                        start: i,
                        frames: 1,
                        slots: vec![SlotWindow {
                            busy_cycles: 3,
                            fifo_high_water: t * per_thread + i,
                            service_ns: 500,
                            ..SlotWindow::default()
                        }],
                        links: vec![LinkWindow {
                            from: 0,
                            to: 1,
                            bytes: 2,
                            transfers: 1,
                        }],
                        frame_latency_ns: vec![1000 + i],
                        ..WindowReport::default()
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = rec.snapshot();
    assert_eq!(snap.frames, threads * per_thread);
    assert_eq!(snap.pes[0].busy_cycles, threads * per_thread * 3);
    assert_eq!(snap.links[0].bytes, threads * per_thread * 2);
    assert_eq!(snap.links[0].transfers, threads * per_thread);
    // The high-water mark is the max over every thread's sequence.
    assert_eq!(snap.pes[0].fifo_high_water, threads * per_thread - 1);
    assert_eq!(snap.pes[0].service.count, threads * per_thread);
    assert_eq!(snap.pes[0].service.p50, 500);
    assert_eq!(snap.pipelines[0].latency.count, threads * per_thread);
    // Identical reruns of snapshot() agree (snapshots don't drain state).
    let again = rec.snapshot();
    assert_eq!(snap.pes[0], again.pes[0]);
    assert_eq!(snap.pipelines[0].latency, again.pipelines[0].latency);
}

/// Property-style check (deterministic [`SimRng`], per repo convention):
/// for arbitrary insert sequences, every percentile digest is an upper
/// bound on the true sample quantile, and is tight to within one
/// sub-bucket (≤25% relative error).
#[test]
fn histogram_percentiles_bound_true_quantiles() {
    let mut rng = SimRng::new(0x4A11);
    for case in 0..64 {
        let len = rng.range_usize(1, 4000);
        // Mix scales: uniform small, uniform wide, and heavy-tailed.
        let mut samples: Vec<u64> = (0..len)
            .map(|_| match rng.range_u64(0, 3) {
                0 => rng.range_u64(0, 100),
                1 => rng.range_u64(0, 1_000_000),
                _ => 1u64 << rng.range_u64(0, 50),
            })
            .collect();
        let mut hist = LogHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        for p in [50.0, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * len as f64).ceil().max(1.0) as usize;
            let truth = samples[rank - 1];
            let est = hist.percentile(p);
            assert!(
                est >= truth,
                "case {case}: p{p} estimate {est} below true quantile {truth}"
            );
            assert!(
                est <= truth + truth / 4 + 1,
                "case {case}: p{p} estimate {est} too loose for {truth}"
            );
        }
        assert_eq!(hist.max(), *samples.last().unwrap());
        assert_eq!(hist.count(), len as u64);
    }
}

/// The disabled path stays invisible: attaching a health monitor and then
/// running with `NullSink` semantics (enabled() == false) is covered by
/// `telemetry.rs`; here we check the monitor itself forwards counters so
/// the wrapped recorder agrees with an unwrapped one.
#[test]
fn monitor_forwards_everything_to_its_recorder() {
    let (config, session) = seizure_scenario();

    let bare = Arc::new(Recorder::new(65536).with_sample_rate_hz(30_000));
    let mut direct = HaloSystem::new(Task::SeizurePrediction, config.clone()).unwrap();
    direct.attach_telemetry(bare.clone());
    let m1 = direct.process(&session).unwrap();

    let monitor = monitor_with(1.0e6, AlertPolicy::Record);
    let mut wrapped = HaloSystem::new(Task::SeizurePrediction, config).unwrap();
    wrapped.attach_health(monitor.clone());
    let m2 = wrapped.process(&session).unwrap();

    assert_eq!(m1.radio_stream, m2.radio_stream);
    let s1 = bare.snapshot();
    let s2 = monitor.recorder().snapshot();
    assert_eq!(s1.frames, s2.frames);
    assert_eq!(s1.radio_bytes, s2.radio_bytes);
    assert_eq!(s1.noc_bytes(), s2.noc_bytes());
    for (a, b) in s1.pes.iter().zip(&s2.pes) {
        assert_eq!(a, b);
    }
    assert_eq!(s1.pipelines[0].latency, s2.pipelines[0].latency);
}
