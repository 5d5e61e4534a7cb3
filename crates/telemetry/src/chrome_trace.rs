//! Chrome Trace Format exporter.
//!
//! Renders a [`Recorder`] into the JSON object format documented at
//! <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>
//! and understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`. Track layout:
//!
//! * pid 0, tid `100 + slot` — one slice track per PE. Each
//!   [`EventKind::Window`] entry gives every slot active in it a complete
//!   (`"X"`) slice whose duration is the sampling window, with busy/stall
//!   cycles and byte counts in `args`.
//! * Counter (`"C"`) tracks fed by the same entries: `"NoC bytes/s"` and
//!   `"radio bits/s"` at the window's start; at its end one
//!   `"power PE<slot> <KIND> (mW)"` track per clock domain, and one
//!   `"fifo PE<slot> <KIND> (tokens)"` track per output FIFO once it has
//!   held data.
//! * pid 0, tid 99 — the controller track: instant (`"i"`) events for
//!   switch programming, stimulation pulses, and detections.
//! * Causal-trace spans ([`EventKind::Span`]) become `"X"` slices on their
//!   PE's track (system spans land on the controller track), offset from
//!   the traced frame's timestamp by their begin time on the trace clock.
//!   Each NoC-hop span additionally emits a flow-event pair
//!   (`ph:"s"`/`ph:"f"`) so Perfetto draws the causal arrow from the
//!   producer's track to the consumer's.
//!
//! Tracks carry `thread_sort_index` metadata (controller first, then PEs by
//! slot) so the UI lists them in placement order instead of hash order.
//!
//! Timestamps are microseconds of *biological* time: event frame indices
//! divided by the recorder's sample rate.

use crate::json;
use crate::recorder::Recorder;
use crate::sink::{EventKind, WindowRecord};
use crate::tracing::{SpanKind, NO_NODE};

/// tid of the controller/annotation track.
const CONTROLLER_TID: u32 = 99;
/// tid offset for PE tracks (tid = PE_TID_BASE + slot).
const PE_TID_BASE: u32 = 100;

/// Render `recorder` as a Chrome Trace Format JSON document.
pub fn render(recorder: &Recorder) -> String {
    let snap = recorder.snapshot();
    let events = recorder.events();
    let us_per_frame = 1.0e6 / recorder.sample_rate_hz() as f64;
    let ts = |frame: u64| json::number(frame as f64 * us_per_frame);

    let mut entries: Vec<String> = Vec::new();

    // Metadata: name the process and one thread per declared/active PE.
    entries.push(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"HALO device\"}}"
            .to_string(),
    );
    entries.push(format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{CONTROLLER_TID},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"controller\"}}}}"
    ));
    // Explicit sort indices: controller on top, then PEs in placement
    // (slot) order. Without these the UI falls back to ordering tracks by
    // name hash, which scatters the pipeline.
    entries.push(format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{CONTROLLER_TID},\"name\":\"thread_sort_index\",\
         \"args\":{{\"sort_index\":0}}}}"
    ));
    for pe in &snap.pes {
        entries.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{name}}}}}",
            tid = PE_TID_BASE + pe.slot as u32,
            name = json::string(&format!("PE{} {}", pe.slot, pe.name)),
        ));
        entries.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{idx}}}}}",
            tid = PE_TID_BASE + pe.slot as u32,
            idx = pe.slot as u32 + 1,
        ));
    }

    for event in &events {
        match &event.kind {
            EventKind::Window(window) => {
                let WindowRecord { report, names } = &**window;
                let window_s = report.frames as f64 / recorder.sample_rate_hz() as f64;
                let (start, end) = (ts(event.frame), ts(report.end()));
                let dur = json::number(report.frames as f64 * us_per_frame);
                for (slot, (w, name)) in report.slots.iter().zip(names).enumerate() {
                    if w.is_active() {
                        entries.push(format!(
                            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{start},\"dur\":{dur},\
                             \"cat\":\"pe\",\"name\":{name},\"args\":{{\
                             \"busy_cycles\":{busy},\"stall_cycles\":{stall},\
                             \"bytes_in\":{bytes_in},\"bytes_out\":{bytes_out}}}}}",
                            tid = PE_TID_BASE + slot as u32,
                            name = json::string(name),
                            busy = w.busy_cycles,
                            stall = w.stall_cycles,
                            bytes_in = w.bytes_in,
                            bytes_out = w.bytes_out,
                        ));
                    }
                    if w.fifo_high_water != 0 {
                        entries.push(format!(
                            "{{\"ph\":\"C\",\"pid\":0,\"ts\":{end},\"name\":{name},\
                             \"args\":{{\"peak\":{peak}}}}}",
                            name = json::string(&format!("fifo PE{slot} {name} (tokens)")),
                            peak = w.fifo_high_water,
                        ));
                    }
                    entries.push(format!(
                        "{{\"ph\":\"C\",\"pid\":0,\"ts\":{end},\"name\":{name},\
                         \"args\":{{\"mW\":{mw}}}}}",
                        name = json::string(&format!("power PE{slot} {name} (mW)")),
                        mw = json::number(w.milliwatts),
                    ));
                }
                // Zero-frame windows never reach the ring; `json::number`
                // would print a rate over zero seconds as 0.
                let (bytes, transfers) = report.noc();
                entries.push(format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"ts\":{start},\"name\":\"NoC bytes/s\",\
                     \"args\":{{\"bytes_per_s\":{rate},\"transfers\":{transfers}}}}}",
                    rate = json::number(bytes as f64 / window_s),
                ));
                entries.push(format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"ts\":{start},\"name\":\"radio bits/s\",\
                     \"args\":{{\"bits_per_s\":{rate},\"bytes\":{bytes}}}}}",
                    rate = json::number(report.radio_bytes as f64 * 8.0 / window_s),
                    bytes = report.radio_bytes,
                ));
            }
            EventKind::SwitchProgram { words, generation } => {
                entries.push(instant(
                    &ts(event.frame),
                    "switch program",
                    &format!("{{\"words\":{words},\"generation\":{generation}}}"),
                ));
            }
            EventKind::ClosedLoop {
                detect_frame,
                latency_frames,
            } => {
                entries.push(instant(
                    &ts(event.frame),
                    "closed loop",
                    &format!(
                        "{{\"detect_frame\":{detect_frame},\
                         \"latency_frames\":{latency_frames}}}"
                    ),
                ));
            }
            EventKind::Health {
                name,
                severity,
                value,
                limit,
            } => {
                entries.push(instant(
                    &ts(event.frame),
                    &format!("health {name}"),
                    &format!(
                        "{{\"severity\":{sev},\"value\":{value},\"limit\":{limit}}}",
                        sev = json::string(severity.label()),
                        value = json::number(*value),
                        limit = json::number(*limit),
                    ),
                ));
            }
            EventKind::Stim {
                channel,
                amplitude_ua,
            } => {
                entries.push(instant(
                    &ts(event.frame),
                    "stim",
                    &format!("{{\"channel\":{channel},\"amplitude_ua\":{amplitude_ua}}}"),
                ));
            }
            EventKind::Detection { positive } => {
                entries.push(instant(
                    &ts(event.frame),
                    "detection",
                    &format!("{{\"positive\":{positive}}}"),
                ));
            }
            EventKind::Marker { name } => {
                entries.push(instant(&ts(event.frame), name, "{}"));
            }
            EventKind::Fault {
                kind,
                slot,
                detail,
                detected,
            } => {
                entries.push(instant(
                    &ts(event.frame),
                    "fault",
                    &format!(
                        "{{\"kind\":{},\"slot\":{slot},\"detail\":{detail},\
                         \"detected\":{detected}}}",
                        json::string(kind)
                    ),
                ));
            }
            EventKind::Span(span) => {
                let base_us = event.frame as f64 * us_per_frame;
                let span_ts = json::number(base_us + span.begin_ns as f64 / 1000.0);
                let dur = json::number(span.duration_ns() as f64 / 1000.0);
                let tid = if span.node == NO_NODE {
                    CONTROLLER_TID
                } else {
                    PE_TID_BASE + span.node as u32
                };
                let name = match span.kind {
                    SpanKind::PeService => span.name.to_string(),
                    SpanKind::Frame => "frame".to_string(),
                    _ => format!("{} {}", span.kind.label(), span.name),
                };
                entries.push(format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{span_ts},\"dur\":{dur},\
                     \"cat\":\"trace\",\"name\":{name},\"args\":{{\
                     \"trace\":{trace},\"span\":{id},\"parent\":{parent},\
                     \"tokens\":{tokens},\"bytes\":{bytes}}}}}",
                    name = json::string(&name),
                    trace = span.trace.0,
                    id = span.id.0,
                    parent = span.parent.map_or("null".to_string(), |p| p.0.to_string()),
                    tokens = span.tokens,
                    bytes = span.bytes,
                ));
                // A NoC hop crosses tracks: emit a flow pair so the UI
                // draws the causal arrow producer -> consumer.
                if span.kind == SpanKind::NocHop && span.to_node != NO_NODE {
                    let flow_id = (span.trace.0 << 16) | span.id.0 as u64;
                    let end_ts = json::number(base_us + span.end_ns as f64 / 1000.0);
                    entries.push(format!(
                        "{{\"ph\":\"s\",\"pid\":0,\"tid\":{tid},\"ts\":{span_ts},\
                         \"cat\":\"trace\",\"name\":\"hop\",\"id\":{flow_id}}}"
                    ));
                    entries.push(format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{to_tid},\"ts\":{end_ts},\
                         \"cat\":\"trace\",\"name\":\"hop\",\"id\":{flow_id}}}",
                        to_tid = PE_TID_BASE + span.to_node as u32,
                    ));
                }
            }
        }
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!(
        "\"sample_rate_hz\":{},\"frames\":{},\"dropped_events\":{}",
        recorder.sample_rate_hz(),
        snap.frames,
        snap.dropped_events
    ));
    out.push_str("},\"traceEvents\":[");
    out.push_str(&entries.join(","));
    out.push_str("]}");
    out
}

fn instant(ts: &str, name: &str, args: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{CONTROLLER_TID},\"ts\":{ts},\"s\":\"t\",\
         \"name\":{name},\"args\":{args}}}",
        name = json::string(name),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Event, LinkWindow, SlotWindow, TelemetrySink, WindowReport};

    fn populated_recorder() -> Recorder {
        let rec = Recorder::new(256).with_sample_rate_hz(30_000);
        rec.declare_pe(0, "LZ");
        rec.declare_pe(1, "AES \"quoted\"");
        // A zero-frame window folds counters without timeline events.
        let busy = |busy_cycles| SlotWindow {
            busy_cycles,
            ..SlotWindow::default()
        };
        rec.window(&WindowReport {
            slots: vec![busy(500), busy(100)],
            ..WindowReport::default()
        });
        // LZ works and its FIFO fills; AES idles but still leaks.
        rec.window(&WindowReport {
            start: 0,
            frames: 30,
            slots: vec![
                SlotWindow {
                    busy_cycles: 500,
                    stall_cycles: 3,
                    bytes_in: 64,
                    bytes_out: 40,
                    fifo_high_water: 7,
                    milliwatts: 0.728,
                    service_ns: 4_000,
                },
                SlotWindow::default(),
            ],
            links: vec![LinkWindow {
                from: 0,
                to: 1,
                bytes: 128,
                transfers: 2,
            }],
            radio_bytes: 4800,
            frame_latency_ns: vec![1_000; 30],
        });
        rec.event(Event {
            frame: 31,
            kind: EventKind::SwitchProgram {
                words: 6,
                generation: 2,
            },
        });
        rec.event(Event {
            frame: 42,
            kind: EventKind::ClosedLoop {
                detect_frame: 40,
                latency_frames: 2,
            },
        });
        rec.event(Event {
            frame: 43,
            kind: EventKind::Health {
                name: "power_budget",
                severity: crate::sink::Severity::Critical,
                value: 16.2,
                limit: 15.0,
            },
        });
        rec.event(Event {
            frame: 40,
            kind: EventKind::Stim {
                channel: 2,
                amplitude_ua: 100,
            },
        });
        rec.event(Event {
            frame: 40,
            kind: EventKind::Detection { positive: true },
        });
        rec.event(Event {
            frame: 41,
            kind: EventKind::Marker { name: "done" },
        });
        for span in trace_spans() {
            rec.event(Event {
                frame: 60,
                kind: EventKind::Span(span),
            });
        }
        rec
    }

    fn trace_spans() -> Vec<crate::tracing::SpanRecord> {
        use crate::tracing::{DeliveryCosts, TraceEvent, Tracer};
        let tracer = Tracer::new(9, 0).with_linger_frames(8);
        tracer.sampler().force_next(1);
        let tag = tracer.begin_frame_into(60, &mut Vec::new());
        tracer.record_batch(&[
            TraceEvent::Delivery {
                tag,
                from: None,
                to: 0,
                to_name: "LZ",
                tokens: 4,
                bytes: 8,
                costs: DeliveryCosts {
                    noc_ns: 0,
                    wait_ns: 0,
                    cross_ns: 0,
                    service_ns: 100,
                },
            },
            TraceEvent::Delivery {
                tag,
                from: Some((0, "LZ")),
                to: 1,
                to_name: "AES",
                tokens: 4,
                bytes: 8,
                costs: DeliveryCosts {
                    noc_ns: 170,
                    wait_ns: 20,
                    cross_ns: 5,
                    service_ns: 50,
                },
            },
        ]);
        tracer.finalize_all();
        tracer.trees().pop().unwrap().spans
    }

    #[test]
    fn trace_is_valid_json() {
        let trace = render(&populated_recorder());
        json::validate(&trace).unwrap();
    }

    #[test]
    fn trace_names_every_expected_track() {
        let trace = render(&populated_recorder());
        assert!(trace.contains("\"PE0 LZ\""));
        assert!(trace.contains("PE1 AES \\\"quoted\\\""));
        assert!(trace.contains("NoC bytes/s"));
        assert!(trace.contains("power PE0 LZ (mW)"));
        assert!(trace.contains("\"controller\""));
        assert!(trace.contains("switch program"));
        assert!(trace.contains("fifo PE0 LZ (tokens)"));
        assert!(trace.contains("radio bits/s"));
        assert!(trace.contains("closed loop"));
        assert!(trace.contains("health power_budget"));
    }

    #[test]
    fn a_window_entry_draws_a_slice_per_active_slot_and_its_counters() {
        let trace = render(&populated_recorder());
        let count = |needle: &str| trace.matches(needle).count();
        // Only LZ was active and only its FIFO held data; both domains
        // report power.
        assert_eq!(count("\"cat\":\"pe\""), 1);
        assert!(trace.contains(
            "\"cat\":\"pe\",\"name\":\"LZ\",\"args\":{\"busy_cycles\":500,\
             \"stall_cycles\":3,\"bytes_in\":64,\"bytes_out\":40}"
        ));
        assert_eq!(count("\"fifo PE"), 1);
        assert!(trace.contains("\"name\":\"fifo PE0 LZ (tokens)\",\"args\":{\"peak\":7}"));
        assert_eq!(count("\"power PE"), 2);
        assert!(trace.contains("\"name\":\"power PE0 LZ (mW)\",\"args\":{\"mW\":0.728}"));
        assert_eq!(count("\"NoC bytes/s\""), 1);
        assert!(trace.contains("\"transfers\":2}"));
        assert_eq!(count("\"radio bits/s\""), 1);
        assert!(trace.contains("\"bytes\":4800}"));
    }

    #[test]
    fn frame_timestamps_convert_to_microseconds() {
        let rec = Recorder::new(16).with_sample_rate_hz(30_000);
        rec.event(Event {
            frame: 30,
            kind: EventKind::Marker { name: "tick" },
        });
        let trace = render(&rec);
        // 30 frames at 30 kHz = 1 ms = 1000 us.
        assert!(trace.contains("\"ts\":1000"), "{trace}");
    }

    #[test]
    fn empty_recorder_still_renders_valid_trace() {
        let rec = Recorder::new(16);
        let trace = render(&rec);
        json::validate(&trace).unwrap();
        assert!(trace.contains("traceEvents"));
    }

    #[test]
    fn tracks_carry_sort_indices_in_slot_order() {
        let trace = render(&populated_recorder());
        assert!(
            trace.contains("\"tid\":99,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":0}")
        );
        assert!(trace
            .contains("\"tid\":100,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":1}"));
        assert!(trace
            .contains("\"tid\":101,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":2}"));
    }

    #[test]
    fn spans_render_as_slices_with_flow_arrows() {
        let trace = render(&populated_recorder());
        json::validate(&trace).unwrap();
        // Root frame span lands on the controller track.
        assert!(trace.contains("\"cat\":\"trace\",\"name\":\"frame\""));
        // Service spans land on the PE tracks.
        assert!(trace.contains("\"cat\":\"trace\",\"name\":\"LZ\""));
        assert!(trace.contains("\"cat\":\"trace\",\"name\":\"AES\""));
        // The LZ->AES hop emits a bound flow pair across the two tracks.
        assert!(trace.contains("\"ph\":\"s\""), "{trace}");
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""));
        // Span slices are offset from the traced frame's timestamp:
        // frame 60 at 30 kHz = 2000 us; the AES burst begins 100 ns in.
        assert!(trace.contains("\"ts\":2000.1"), "{trace}");
    }
}
