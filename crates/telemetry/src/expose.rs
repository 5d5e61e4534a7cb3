//! Prometheus-style text exposition.
//!
//! Renders a [`Recorder`] (and optionally its [`HealthMonitor`]) in the
//! Prometheus text format — `# HELP`/`# TYPE` headers followed by one
//! sample per line — so long-running simulations can be scraped by a real
//! Prometheus, or the output diffed textually in CI. Only the exposition
//! *format* is implemented; there is no HTTP server, callers write the
//! string wherever they need it.
//!
//! Counter families carry a `_total` suffix per convention; latency
//! histograms use cumulative `le` buckets in nanoseconds; per-PE service
//! times are exposed as summary-style `quantile` gauges.

use crate::health::HealthMonitor;
use crate::histogram::{HistogramSummary, LogHistogram};
use crate::recorder::Recorder;
use crate::sink::Severity;
use crate::span_tree::CriticalPathSummary;
use crate::tracing::{SpanKind, Tracer};

/// Escape a label value per the exposition format: `\`, `"`, and newline
/// become `\\`, `\"`, and `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a HELP docstring per the exposition format: `\` and newline
/// become `\\` and `\n` (quotes are legal in HELP text).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Whether `name` is a legal Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Format a float sample value (Prometheus accepts scientific notation;
/// non-finite values become literal `NaN`/`+Inf`/`-Inf`, but we clamp to 0
/// to keep downstream diffing deterministic).
pub fn sample(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Incremental builder for a Prometheus text exposition.
///
/// Enforces the conformance rules exporters are most often caught
/// violating: every family's `# HELP`/`# TYPE` header appears exactly once
/// (a duplicate declaration panics), family names are validated against
/// the metric-name grammar, and HELP text is escaped. Sample ordering is
/// exactly insertion order, so renders over the same data are
/// byte-identical. Label *values* must be escaped by the caller with
/// [`escape_label`]; sample lines for a histogram's `_bucket`/`_sum`/
/// `_count` series belong to the histogram family declared once.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    declared: Vec<String>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self {
            out: String::with_capacity(4096),
            declared: Vec::new(),
        }
    }

    /// Declares a metric family: one `# HELP` plus one `# TYPE` line.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a legal metric name or the family was
    /// already declared on this exposition.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        assert!(
            is_valid_metric_name(name),
            "invalid metric family name {name:?}"
        );
        assert!(
            !self.declared.iter().any(|d| d == name),
            "family {name} declared twice"
        );
        self.declared.push(name.to_string());
        self.out
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Appends one sample line. `labels` is the pre-escaped label set
    /// without braces (empty for none).
    pub fn value(&mut self, name: &str, labels: &str, v: impl std::fmt::Display) {
        debug_assert!(is_valid_metric_name(name), "invalid metric name {name:?}");
        if labels.is_empty() {
            self.out.push_str(&format!("{name} {v}\n"));
        } else {
            self.out.push_str(&format!("{name}{{{labels}}} {v}\n"));
        }
    }

    /// Appends one histogram series: cumulative `_bucket` lines ending at
    /// `le="+Inf"`, then `_sum` and `_count`, each carrying `labels`
    /// (pre-escaped, empty for none). An empty histogram appends nothing.
    pub fn histogram(&mut self, name: &str, labels: &str, hist: &LogHistogram) {
        if hist.count() == 0 {
            return;
        }
        let bucket = format!("{name}_bucket");
        let sep = if labels.is_empty() { "" } else { "," };
        for (bound, cumulative) in hist.cumulative_buckets() {
            self.value(&bucket, &format!("{labels}{sep}le=\"{bound}\""), cumulative);
        }
        self.value(&bucket, &format!("{labels}{sep}le=\"+Inf\""), hist.count());
        self.value(&format!("{name}_sum"), labels, hist.sum());
        self.value(&format!("{name}_count"), labels, hist.count());
    }

    /// Appends summary-style p50/p90/p99/max gauges of `digest`, each
    /// carrying `labels` (pre-escaped, non-empty) plus a `quantile`
    /// label. An empty digest appends nothing.
    pub fn quantiles(&mut self, name: &str, labels: &str, digest: &HistogramSummary) {
        if digest.count == 0 {
            return;
        }
        for (q, v) in [
            ("0.5", digest.p50),
            ("0.9", digest.p90),
            ("0.99", digest.p99),
            ("1", digest.max),
        ] {
            self.value(name, &format!("{labels},quantile=\"{q}\""), v);
        }
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Render `recorder` as a Prometheus text-format exposition.
pub fn render(recorder: &Recorder) -> String {
    let mut e = Exposition::new();
    render_recorder_into(&mut e, recorder);
    e.finish()
}

/// Append the recorder families to an exposition under construction.
pub fn render_recorder_into(e: &mut Exposition, recorder: &Recorder) {
    let snap = recorder.snapshot();

    e.family(
        "halo_frames_total",
        "counter",
        "Sample frames ingested from the electrode array.",
    );
    e.value("halo_frames_total", "", snap.frames);

    e.family(
        "halo_radio_bytes_total",
        "counter",
        "Bytes handed to the radio for off-implant transmission.",
    );
    e.value("halo_radio_bytes_total", "", snap.radio_bytes);

    e.family(
        "halo_dropped_events_total",
        "counter",
        "Telemetry events overwritten because the ring was full.",
    );
    e.value("halo_dropped_events_total", "", snap.dropped_events);

    e.family(
        "halo_controller_cycles_total",
        "counter",
        "Cycles retired by the RV32 control processor.",
    );
    e.value("halo_controller_cycles_total", "", snap.controller_cycles);
    e.family(
        "halo_controller_instructions_total",
        "counter",
        "Instructions retired by the RV32 control processor.",
    );
    e.value(
        "halo_controller_instructions_total",
        "",
        snap.controller_instructions,
    );
    e.family(
        "halo_switch_programs_total",
        "counter",
        "Complete switch-programming sequences executed.",
    );
    e.value("halo_switch_programs_total", "", snap.switch_programs);
    e.family(
        "halo_switch_words_total",
        "counter",
        "Switch words written over MMIO.",
    );
    e.value("halo_switch_words_total", "", snap.switch_words);
    e.family(
        "halo_stim_pulses_total",
        "counter",
        "Stimulation pulses commanded.",
    );
    e.value("halo_stim_pulses_total", "", snap.stim_pulses);

    for (name, kind, help, get) in [
        (
            "halo_pe_busy_cycles_total",
            "counter",
            "Cycles each PE spent doing useful work.",
            0usize,
        ),
        (
            "halo_pe_stall_cycles_total",
            "counter",
            "Cycles each PE was back-pressured by its output FIFO.",
            1,
        ),
        (
            "halo_pe_bytes_in_total",
            "counter",
            "Payload bytes entering each PE.",
            2,
        ),
        (
            "halo_pe_bytes_out_total",
            "counter",
            "Payload bytes leaving each PE.",
            3,
        ),
        (
            "halo_pe_fifo_high_water",
            "gauge",
            "Within-burst peak output-FIFO occupancy per PE, tokens.",
            4,
        ),
    ] {
        e.family(name, kind, help);
        for pe in &snap.pes {
            let v = match get {
                0 => pe.busy_cycles,
                1 => pe.stall_cycles,
                2 => pe.bytes_in,
                3 => pe.bytes_out,
                _ => pe.fifo_high_water,
            };
            e.value(
                name,
                &format!("slot=\"{}\",pe=\"{}\"", pe.slot, escape_label(pe.name)),
                v,
            );
        }
    }

    e.family(
        "halo_pe_service_ns",
        "gauge",
        "Per-PE window service-time quantiles, nanoseconds.",
    );
    for pe in &snap.pes {
        e.quantiles(
            "halo_pe_service_ns",
            &format!("slot=\"{}\",pe=\"{}\"", pe.slot, escape_label(pe.name)),
            &pe.service,
        );
    }

    e.family(
        "halo_noc_link_bytes_total",
        "counter",
        "Bytes crossing each circuit-switched NoC link.",
    );
    for l in &snap.links {
        e.value(
            "halo_noc_link_bytes_total",
            &format!("from=\"{}\",to=\"{}\"", l.from, l.to),
            l.bytes,
        );
    }
    e.family(
        "halo_noc_link_transfers_total",
        "counter",
        "Transfers on each circuit-switched NoC link.",
    );
    for l in &snap.links {
        e.value(
            "halo_noc_link_transfers_total",
            &format!("from=\"{}\",to=\"{}\"", l.from, l.to),
            l.transfers,
        );
    }

    e.family(
        "halo_frame_latency_ns",
        "histogram",
        "End-to-end frame latency per pipeline, nanoseconds.",
    );
    for (pipeline, hist) in recorder.pipeline_histograms() {
        let labels = format!("pipeline=\"{}\"", escape_label(pipeline));
        e.histogram("halo_frame_latency_ns", &labels, &hist);
    }
}

/// Render `monitor`'s recorder plus the health families: alert totals by
/// kind and severity, the power envelope, and the watchdog trip state.
/// When a tracer is attached the tracing families are appended too.
pub fn render_health(monitor: &HealthMonitor) -> String {
    let mut e = Exposition::new();
    render_recorder_into(&mut e, monitor.recorder());
    render_health_into(&mut e, monitor);
    if let Some(tracer) = monitor.tracer() {
        render_tracing_into(&mut e, &tracer);
    }
    e.finish()
}

/// Append the health families to an exposition under construction.
pub fn render_health_into(e: &mut Exposition, monitor: &HealthMonitor) {
    let status = monitor.status();

    e.family(
        "halo_health_alerts_total",
        "counter",
        "Safety-envelope alerts raised, by kind and severity.",
    );
    let mut by_kind: Vec<(&'static str, &'static str, u64)> = Vec::new();
    for alert in &status.alerts {
        // Each retained entry is a coalesced run; its repeat_count is how
        // many times the condition actually fired.
        let key = (alert.kind().name(), alert.severity().label());
        match by_kind.iter_mut().find(|(k, s, _)| (*k, *s) == key) {
            Some((_, _, n)) => *n += alert.repeat_count,
            None => by_kind.push((key.0, key.1, alert.repeat_count)),
        }
    }
    for (kind, severity, n) in &by_kind {
        e.value(
            "halo_health_alerts_total",
            &format!("kind=\"{kind}\",severity=\"{severity}\""),
            n,
        );
    }

    e.family(
        "halo_health_alerts_by_severity_total",
        "counter",
        "Safety-envelope alerts raised, by severity (includes alerts \
         beyond the retention cap).",
    );
    for severity in [Severity::Info, Severity::Warning, Severity::Critical] {
        e.value(
            "halo_health_alerts_by_severity_total",
            &format!("severity=\"{}\"", severity.label()),
            status.severity_counts[severity as usize],
        );
    }

    e.family(
        "halo_power_budget_mw",
        "gauge",
        "Configured whole-device power budget, milliwatts.",
    );
    e.value("halo_power_budget_mw", "", sample(status.budget_mw));
    e.family(
        "halo_power_worst_window_mw",
        "gauge",
        "Worst completed power window, milliwatts.",
    );
    e.value(
        "halo_power_worst_window_mw",
        "",
        sample(status.worst_window.map_or(0.0, |(_, mw)| mw)),
    );
    e.family(
        "halo_power_windows_total",
        "counter",
        "Completed power windows evaluated by the watchdog.",
    );
    e.value("halo_power_windows_total", "", status.power_windows);

    e.family(
        "halo_fabric_generation",
        "gauge",
        "Fabric configuration generation at the last switch programming.",
    );
    e.value("halo_fabric_generation", "", status.fabric_generation);

    e.family(
        "halo_health_tripped",
        "gauge",
        "1 when a fail-fast monitor tripped on a critical alert.",
    );
    e.value("halo_health_tripped", "", u64::from(monitor.tripped()));
}

/// Render a continuous-telemetry status as a standalone exposition
/// fragment (only continuous families; append-safe after [`render`] or
/// [`render_health`] output).
pub fn render_continuous(status: &crate::tsdb::ContinuousStatus) -> String {
    let mut e = Exposition::new();
    render_continuous_into(&mut e, status);
    e.finish()
}

/// Append the continuous-telemetry families — time-series store totals
/// and SLO burn rates and firing state — to an exposition under
/// construction. `status` comes from
/// [`ContinuousTelemetry::status`](crate::tsdb::ContinuousTelemetry::status).
pub fn render_continuous_into(e: &mut Exposition, status: &crate::tsdb::ContinuousStatus) {
    e.family(
        "halo_tsdb_points_total",
        "counter",
        "Points ever recorded into each stored time series.",
    );
    for (kind, total, _, _) in &status.series {
        e.value(
            "halo_tsdb_points_total",
            &format!("series=\"{}\"", kind.name()),
            total,
        );
    }
    e.family(
        "halo_tsdb_points_retained",
        "gauge",
        "Points currently retained in each series' raw ring.",
    );
    for (kind, _, retained, _) in &status.series {
        e.value(
            "halo_tsdb_points_retained",
            &format!("series=\"{}\"", kind.name()),
            retained,
        );
    }
    e.family(
        "halo_tsdb_last_value",
        "gauge",
        "Most recent value of each stored time series.",
    );
    for (kind, _, _, latest) in &status.series {
        if let Some(p) = latest {
            e.value(
                "halo_tsdb_last_value",
                &format!("series=\"{}\"", kind.name()),
                sample(p.value),
            );
        }
    }

    e.family(
        "halo_slo_burn_rate",
        "gauge",
        "Constraining error-budget burn rate per objective and policy \
         (1 = exactly consuming budget).",
    );
    e.family(
        "halo_slo_firing",
        "gauge",
        "1 while an objective's burn-rate policy is firing.",
    );
    e.family(
        "halo_slo_alerts_total",
        "counter",
        "Burn-rate firing transitions per objective and policy.",
    );
    for (name, state) in &status.slo.objectives {
        for (p, policy) in ["fast", "slow"].iter().enumerate() {
            let labels = format!("objective=\"{name}\",policy=\"{policy}\"");
            e.value("halo_slo_burn_rate", &labels, sample(state.burn_rate[p]));
            e.value("halo_slo_firing", &labels, u64::from(state.firing[p]));
            e.value("halo_slo_alerts_total", &labels, state.fired[p]);
        }
    }
}

/// Render the causal-tracing families for `tracer`: sampling counters plus
/// critical-path attribution aggregated over every completed trace. The
/// returned string contains only tracing families, so it can be appended to
/// [`render`]/[`render_health`] output without duplicating TYPE headers
/// ([`render_health`] already appends it when a tracer is attached).
pub fn render_tracing(tracer: &Tracer) -> String {
    let mut e = Exposition::new();
    render_tracing_into(&mut e, tracer);
    e.finish()
}

/// Append the tracing families to an exposition under construction.
pub fn render_tracing_into(e: &mut Exposition, tracer: &Tracer) {
    let stats = tracer.stats();
    let trees = tracer.trees();
    let agg = CriticalPathSummary::from_traces(&trees);

    e.family(
        "halo_trace_sampled_total",
        "counter",
        "Input frames tagged for causal tracing (deterministic + forced).",
    );
    e.value("halo_trace_sampled_total", "", stats.sampled);

    e.family(
        "halo_trace_dropped_spans_total",
        "counter",
        "Trace spans discarded (per-trace cap or retention-ring eviction).",
    );
    e.value("halo_trace_dropped_spans_total", "", stats.dropped_spans);

    e.family(
        "halo_trace_completed_total",
        "counter",
        "Causal traces closed and assembled.",
    );
    e.value("halo_trace_completed_total", "", stats.completed);

    e.family(
        "halo_trace_latency_ns_total",
        "counter",
        "Summed end-to-end latency of completed traces, nanoseconds.",
    );
    e.value("halo_trace_latency_ns_total", "", agg.total_ns);

    e.family(
        "halo_trace_critical_path_ns",
        "gauge",
        "Traced latency attributed to each hop kind, nanoseconds.",
    );
    for kind in SpanKind::all() {
        e.value(
            "halo_trace_critical_path_ns",
            &format!("kind=\"{}\"", kind.label()),
            agg.kind_ns(kind),
        );
    }

    e.family(
        "halo_trace_critical_path_fraction",
        "gauge",
        "Share of traced end-to-end latency attributed to each hop kind.",
    );
    for kind in SpanKind::all() {
        let fraction = if agg.total_ns == 0 {
            0.0
        } else {
            agg.kind_ns(kind) as f64 / agg.total_ns as f64
        };
        e.value(
            "halo_trace_critical_path_fraction",
            &format!("kind=\"{}\"", kind.label()),
            sample(fraction),
        );
    }

    e.family(
        "halo_trace_hop_ns",
        "gauge",
        "Traced latency attributed to the costliest individual hops, \
         nanoseconds.",
    );
    for hop in agg.hops.iter().take(8) {
        e.value(
            "halo_trace_hop_ns",
            &format!(
                "kind=\"{}\",hop=\"{}\"",
                hop.kind.label(),
                escape_label(&hop.label)
            ),
            hop.ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::health::HealthConfig;
    use crate::sink::{Event, EventKind, LinkWindow, SlotWindow, TelemetrySink, WindowReport};

    fn populated() -> Arc<Recorder> {
        let rec = Arc::new(Recorder::new(256));
        rec.declare_pe(0, "LZ");
        rec.event(Event {
            frame: 0,
            kind: EventKind::Marker { name: "seizure" },
        });
        rec.window(&WindowReport {
            start: 0,
            frames: 900,
            slots: vec![SlotWindow {
                busy_cycles: 500,
                bytes_out: 64,
                fifo_high_water: 5,
                service_ns: 2_000,
                ..SlotWindow::default()
            }],
            links: vec![LinkWindow {
                from: 0,
                to: 1,
                bytes: 64,
                transfers: 1,
            }],
            frame_latency_ns: vec![10_000, 20_000, 40_000],
            ..WindowReport::default()
        });
        rec
    }

    /// Minimal exposition-format lint: every sample line's metric has a
    /// preceding TYPE header, and no family is declared twice.
    fn lint(exposition: &str) {
        let mut declared: Vec<&str> = Vec::new();
        for line in exposition.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(!declared.contains(&name), "duplicate TYPE for {name}");
                declared.push(name);
            } else if !line.starts_with('#') && !line.is_empty() {
                let metric = line.split(['{', ' ']).next().unwrap();
                let family = metric
                    .trim_end_matches("_bucket")
                    .trim_end_matches("_sum")
                    .trim_end_matches("_count");
                assert!(
                    declared.contains(&family),
                    "sample {metric} has no TYPE header"
                );
                // Exactly one value token after the (optional) label set.
                let value = line.rsplit(' ').next().unwrap();
                assert!(
                    value.parse::<f64>().is_ok() || value == "+Inf",
                    "bad sample value {value:?} in {line:?}"
                );
            }
        }
    }

    #[test]
    fn exposition_is_well_formed_and_complete() {
        let rec = populated();
        let text = render(&rec);
        lint(&text);
        assert!(text.contains("halo_frames_total 900\n"));
        assert!(text.contains("halo_pe_busy_cycles_total{slot=\"0\",pe=\"LZ\"} 500\n"));
        assert!(text.contains("halo_pe_fifo_high_water{slot=\"0\",pe=\"LZ\"} 5\n"));
        assert!(text.contains("halo_noc_link_bytes_total{from=\"0\",to=\"1\"} 64\n"));
        assert!(text.contains("halo_frame_latency_ns_bucket{pipeline=\"seizure\",le=\"+Inf\"} 3"));
        assert!(text.contains("halo_frame_latency_ns_count{pipeline=\"seizure\"} 3\n"));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let rec = populated();
        let text = render(&rec);
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("halo_frame_latency_ns_bucket") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), 3);
    }

    #[test]
    fn health_exposition_adds_alert_families() {
        let mon = HealthMonitor::new(
            populated(),
            HealthConfig {
                budget_mw: 0.5,
                ..HealthConfig::default()
            },
        );
        mon.window(&WindowReport {
            start: 900,
            frames: 300,
            slots: vec![SlotWindow {
                milliwatts: 2.0,
                ..SlotWindow::default()
            }],
            ..WindowReport::default()
        });
        let text = render_health(&mon);
        lint(&text);
        assert!(text
            .contains("halo_health_alerts_total{kind=\"power_budget\",severity=\"critical\"} 1\n"));
        assert!(text.contains("halo_power_budget_mw 0.5\n"));
        assert!(text.contains("halo_power_worst_window_mw 2\n"));
        assert!(text.contains("halo_health_tripped 0\n"));
    }

    #[test]
    fn families_with_zero_samples_keep_their_headers() {
        // A freshly built recorder has declared no PEs, routed nothing,
        // and recorded no latencies: several families legitimately carry
        // zero samples. Their HELP/TYPE headers must still render exactly
        // once (scrapers key on TYPE presence) with no sample lines.
        let rec = Arc::new(Recorder::new(16));
        let text = render(&rec);
        lint(&text);
        for family in [
            "halo_pe_busy_cycles_total",
            "halo_pe_service_ns",
            "halo_noc_link_bytes_total",
            "halo_frame_latency_ns",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "{family} header missing from empty exposition"
            );
            assert!(
                !text
                    .lines()
                    .any(|l| l.starts_with(family) && !l.starts_with('#')),
                "{family} must have no samples on an empty recorder"
            );
        }
        // Scalar families still report their zero.
        assert!(text.contains("halo_frames_total 0\n"));
    }

    #[test]
    fn continuous_exposition_reports_tsdb_and_slo_families() {
        use crate::tsdb::{ContinuousConfig, ContinuousTelemetry};
        let mon = Arc::new(HealthMonitor::new(populated(), HealthConfig::default()));
        let ct = ContinuousTelemetry::new(mon, ContinuousConfig::default());
        ct.monitor().window(&WindowReport {
            start: 0,
            frames: 300,
            slots: vec![SlotWindow {
                milliwatts: 3.0,
                ..SlotWindow::default()
            }],
            ..WindowReport::default()
        });
        let text = render_continuous(&ct.status());
        lint(&text);
        assert!(text.contains("halo_tsdb_points_total{series=\"power_mw\"} 1\n"));
        assert!(text.contains("halo_tsdb_last_value{series=\"power_mw\"} 3\n"));
        // Series never touched keep their totals at zero but emit no
        // last-value sample.
        let untouched = "series=\"closed_loop_latency_frames\"";
        assert!(text.contains(&format!("halo_tsdb_points_total{{{untouched}}} 0\n")));
        assert!(!text.contains(&format!("halo_tsdb_last_value{{{untouched}}}")));
        assert!(text.contains("halo_slo_burn_rate{objective=\"power\",policy=\"fast\"} 0\n"));
        assert!(text.contains("halo_slo_firing{objective=\"power\",policy=\"fast\"} 0\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    fn traced() -> Arc<crate::tracing::Tracer> {
        use crate::tracing::{DeliveryCosts, TraceEvent, Tracer};
        let tracer = Arc::new(Tracer::new(7, 0));
        tracer.sampler().force_next(1);
        let tag = tracer.begin_frame_into(5, &mut Vec::new());
        assert_ne!(tag, 0);
        let delivery = |from, to, to_name, costs| TraceEvent::Delivery {
            tag,
            from,
            to,
            to_name,
            tokens: 4,
            bytes: 8,
            costs,
        };
        let costs = DeliveryCosts {
            noc_ns: 0,
            wait_ns: 50,
            cross_ns: 0,
            service_ns: 200,
        };
        let hop = DeliveryCosts {
            noc_ns: 100,
            wait_ns: 0,
            cross_ns: 0,
            service_ns: 300,
        };
        tracer.record_batch(&[
            delivery(None, 0, "LZ", costs),
            delivery(Some((0, "LZ")), 1, "AES", hop),
        ]);
        tracer.finalize_all();
        tracer
    }

    #[test]
    fn tracing_exposition_reports_counters_and_attribution() {
        let tracer = traced();
        let text = render_tracing(&tracer);
        lint(&text);
        assert!(text.contains("halo_trace_sampled_total 1\n"));
        assert!(text.contains("halo_trace_dropped_spans_total 0\n"));
        assert!(text.contains("halo_trace_completed_total 1\n"));
        assert!(text.contains("halo_trace_latency_ns_total 650\n"));
        assert!(text.contains("halo_trace_critical_path_ns{kind=\"pe_service\"} 500\n"));
        assert!(text.contains("halo_trace_critical_path_ns{kind=\"fifo_wait\"} 50\n"));
        assert!(text.contains("halo_trace_critical_path_ns{kind=\"noc_hop\"} 100\n"));
        assert!(text.contains("halo_trace_hop_ns{kind=\"noc_hop\",hop=\"LZ->AES\"} 100\n"));
        // Attribution fractions over all kinds must cover the whole latency.
        let total: f64 = text
            .lines()
            .filter(|l| l.starts_with("halo_trace_critical_path_fraction"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 0.01, "fractions sum to {total}");
    }

    #[test]
    fn health_exposition_appends_tracing_when_attached() {
        let mon = HealthMonitor::new(populated(), HealthConfig::default());
        mon.set_tracer(traced());
        let text = render_health(&mon);
        lint(&text);
        assert!(text.contains("halo_health_tripped 0\n"));
        assert!(text.contains("halo_trace_sampled_total 1\n"));
        assert!(text.contains("halo_trace_critical_path_fraction{kind=\"pe_service\"}"));
    }
}
