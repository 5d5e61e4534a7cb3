//! `BENCHMARK.json`: the workloads and metrics the benchmark is held to,
//! validated on load against what this binary can measure.
//!
//! Policy: unknown top-level keys are ignored (new optional fields need no
//! version bump), but every workload and metric the file names must be
//! one this binary produces, with the same unit and direction, and every
//! end-to-end metric must carry a bound. A bound may not exceed
//! [`MAX_BOUND`]: a metric that cannot repeat within a quarter of its
//! value does not belong among the gated ones.

use halo_telemetry::json::{self, Value};

/// The widest regression bound `BENCHMARK.json` may give a metric.
pub const MAX_BOUND: f64 = 0.25;

/// The workloads this binary implements, in run order.
pub const WORKLOADS: [&str; 4] = [
    "compress-96ch",
    "stream-96ch",
    "closedloop-96ch",
    "fleet-8ch",
];

/// A metric this binary can report: name, unit, and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
    }
}

/// End-to-end metrics measured with tracing off. The first three apply to
/// every workload; the rest only to the workloads whose output has them.
pub const END_TO_END: [MetricDef; 8] = [
    def("rtf", "s/s", true),
    def("setup_s", "s", false),
    def("peak_rss_mb", "MB", false),
    def("fail_rate", "ratio", false),
    def("chunk_p50_us", "us", false),
    def("chunk_p99_us", "us", false),
    def("device_mw", "mW", false),
    def("compression_ratio", "ratio", true),
];

/// Regression bounds (share of the base value; 0 means any worsening)
/// `compare` applies to the end-to-end metrics `BENCHMARK.json` does not
/// list. A fail rate must not rise at all, and the modeled figures are
/// deterministic, so any change in them is a change of the model.
const UNLISTED_BOUNDS: [(&str, f64); 5] = [
    ("fail_rate", 0.0),
    ("chunk_p50_us", 0.10),
    ("chunk_p99_us", 0.10),
    ("device_mw", 0.0),
    ("compression_ratio", 0.0),
];

/// Per-layer metrics from the traced pass. Every workload reports every
/// one of them, measured on that workload's own streams and signal.
pub const PER_LAYER: [MetricDef; 41] = [
    def("codec.lz4.ns_per_byte", "ns/B", false),
    def("codec.lzma.ns_per_byte", "ns/B", false),
    def("codec.dwtma.ns_per_byte", "ns/B", false),
    def("kernels.lz_parse.ns_per_byte", "ns/B", false),
    def("kernels.neo.ns_per_elem", "ns/elem", false),
    def("kernels.dwt_forward.ns_per_elem", "ns/elem", false),
    def("kernels.dwt_forward_lanes.ns_per_elem", "ns/elem", false),
    def("kernels.thr_check.ns_per_elem", "ns/elem", false),
    def(
        "kernels.thr_check_block_packed.ns_per_elem",
        "ns/elem",
        false,
    ),
    def("kernels.gate_process.ns_per_elem", "ns/elem", false),
    def("kernels.gate_process_packed.ns_per_elem", "ns/elem", false),
    def("kernels.aes_ecb.ns_per_elem", "ns/elem", false),
    def("kernels.aes_bitsliced.ns_per_elem", "ns/elem", false),
    def("kernels.fft_transform.ns_per_elem", "ns/elem", false),
    def("kernels.fft_transform_lanes.ns_per_elem", "ns/elem", false),
    def("kernels.xcor_push.ns_per_elem", "ns/elem", false),
    def("kernels.xcor_push_block.ns_per_elem", "ns/elem", false),
    def("kernels.bbf_process.ns_per_elem", "ns/elem", false),
    def("kernels.bbf_process_block.ns_per_elem", "ns/elem", false),
    def("kernels.svm_decision.ns_per_elem", "ns/elem", false),
    def("kernels.svm_decision_lanes.ns_per_elem", "ns/elem", false),
    def("pe.ns_per_frame", "ns/frame", false),
    def("runtime.residual_ns_per_frame", "ns/frame", false),
    def("runtime.tokens_per_frame", "tokens/frame", false),
    def("runtime.stall_cycles_per_frame", "cycles/frame", false),
    def("noc.bus_bytes_per_frame", "B/frame", false),
    def("controller.program_switches_us", "us", false),
    def("controller.stimulate_us", "us", false),
    def("controller.cycles_per_stim", "cycles", false),
    def("system.new_us", "us", false),
    def("system.finalize_us", "us", false),
    def("power.report_us", "us", false),
    def("telemetry.attached_overhead", "ratio", false),
    def("telemetry.spans", "count", false),
    def("telemetry.events", "count", false),
    def("telemetry.tsdb_snapshot_us", "us", false),
    def("telemetry.profile_snapshot_us", "us", false),
    def("report.exposition_ms", "ms", false),
    def("report.triage_ms", "ms", false),
    def("report.profile_merge_ms", "ms", false),
    def("trace.rtf", "s/s", true),
];

/// A metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct Listed {
    /// The binary's definition of the metric.
    pub def: MetricDef,
    /// The bound the file fixes (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The validated contents of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, each with its bound.
    pub end_to_end: Vec<Listed>,
    /// Per-layer metrics.
    pub per_layer: Vec<Listed>,
}

impl Manifest {
    /// The regression bound of end-to-end metric `name`: the one this file
    /// gives it, else the built-in one; 0 for a metric with neither.
    pub fn bound(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|l| l.def.name == name)
            .and_then(|l| l.bound)
            .or_else(|| UNLISTED_BOUNDS.iter().find(|b| b.0 == name).map(|b| b.1))
            .unwrap_or(0.0)
    }
}

/// Why `BENCHMARK.json` was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The file could not be read.
    Read(String),
    /// The file is not JSON.
    Parse(String),
    /// A required field is absent or has the wrong type.
    Field(String),
    /// A workload this binary does not implement.
    UnknownWorkload(String),
    /// A metric this binary does not produce, or produces with another
    /// unit or direction.
    UnknownMetric(String),
    /// An end-to-end metric without a usable bound.
    Bound(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Read(e) => write!(f, "cannot read BENCHMARK.json: {e}"),
            Self::Parse(e) => write!(f, "BENCHMARK.json is not JSON: {e}"),
            Self::Field(e) => write!(f, "BENCHMARK.json: {e}"),
            Self::UnknownWorkload(w) => write!(f, "BENCHMARK.json: unknown workload {w:?}"),
            Self::UnknownMetric(m) => write!(f, "BENCHMARK.json: unknown metric {m}"),
            Self::Bound(m) => write!(
                f,
                "BENCHMARK.json: metric {m:?} needs a bound in [0, {MAX_BOUND}]"
            ),
        }
    }
}

/// Reads and validates the manifest at `path`.
pub fn load(path: &str) -> Result<Manifest, ManifestError> {
    let text = std::fs::read_to_string(path).map_err(|e| ManifestError::Read(e.to_string()))?;
    parse(&text)
}

/// Validates manifest text.
pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
    let doc = json::parse(text).map_err(ManifestError::Parse)?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| ManifestError::Field(format!("missing {key:?}")))
    };
    let run_seconds = field("run_seconds")?
        .as_u64()
        .filter(|s| (1..=60).contains(s))
        .ok_or_else(|| {
            ManifestError::Field("run_seconds must be a whole number in 1..=60".into())
        })?;
    let mut workloads = Vec::new();
    for w in array(field("workloads")?, "workloads")? {
        let name = str_field(w, "name")?;
        if !WORKLOADS.contains(&name) {
            return Err(ManifestError::UnknownWorkload(name.to_string()));
        }
        workloads.push(name.to_string());
    }
    if workloads.is_empty() {
        return Err(ManifestError::Field("no workloads".into()));
    }
    let end_to_end = metrics(field("end_to_end")?, "end_to_end", &END_TO_END, true)?;
    let per_layer = metrics(field("per_layer")?, "per_layer", &PER_LAYER, false)?;
    Ok(Manifest {
        run_seconds,
        workloads,
        end_to_end,
        per_layer,
    })
}

fn array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], ManifestError> {
    v.as_array()
        .ok_or_else(|| ManifestError::Field(format!("{what} must be an array")))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, ManifestError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ManifestError::Field(format!("entry without a string {key:?}")))
}

fn metrics(
    v: &Value,
    what: &str,
    known: &[MetricDef],
    bounded: bool,
) -> Result<Vec<Listed>, ManifestError> {
    let mut out = Vec::new();
    for m in array(v, what)? {
        let name = str_field(m, "name")?;
        let unit = str_field(m, "unit")?;
        let better = str_field(m, "better")?;
        let def = known
            .iter()
            .find(|d| d.name == name)
            .filter(|d| {
                d.unit == unit
                    && better
                        == if d.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }
            })
            .ok_or_else(|| {
                ManifestError::UnknownMetric(format!("{what}.{name} ({unit}, {better})"))
            })?;
        let bound = if bounded {
            let b = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| (0.0..=MAX_BOUND).contains(b))
                .ok_or_else(|| ManifestError::Bound(name.to_string()))?;
            Some(b)
        } else {
            None
        };
        out.push(Listed { def: *def, bound });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "command": ["x"], "paths": ["p"], "run_seconds": 15,
        "workloads": [{"name": "compress-96ch", "why": "w"}, {"name": "fleet-8ch", "why": "w"}],
        "end_to_end": [{"name": "rtf", "unit": "s/s", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "pe.ns_per_frame", "unit": "ns/frame", "better": "lower"}]
    }"#;

    #[test]
    fn accepts_a_valid_manifest() {
        let m = parse(GOOD).unwrap();
        assert_eq!(m.run_seconds, 15);
        assert_eq!(m.workloads, ["compress-96ch", "fleet-8ch"]);
        assert_eq!(m.end_to_end[0].bound, Some(0.1));
        assert_eq!(m.per_layer[0].def.name, "pe.ns_per_frame");
        assert_eq!(m.bound("rtf"), 0.1);
        assert_eq!(m.bound("chunk_p99_us"), 0.10);
        assert_eq!(m.bound("setup_s"), 0.0, "neither listed nor built in");
    }

    #[test]
    fn the_repository_manifest_is_valid() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let m = parse(text).unwrap();
        assert_eq!(m.workloads, WORKLOADS);
        assert_eq!(m.per_layer.len(), PER_LAYER.len());
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(matches!(parse("{"), Err(ManifestError::Parse(_))));
        assert!(matches!(
            parse(&GOOD.replace("\"run_seconds\": 15,", "")),
            Err(ManifestError::Field(_))
        ));
        assert!(matches!(
            parse(&GOOD.replace("fleet-8ch", "fleet-9ch")),
            Err(ManifestError::UnknownWorkload(w)) if w == "fleet-9ch"
        ));
        assert!(matches!(
            parse(&GOOD.replace("\"rtf\"", "\"speed\"")),
            Err(ManifestError::UnknownMetric(_))
        ));
        assert!(matches!(
            parse(&GOOD.replace("\"s/s\"", "\"ms\"")),
            Err(ManifestError::UnknownMetric(_))
        ));
        assert!(matches!(
            parse(&GOOD.replace(", \"bound\": 0.1", "")),
            Err(ManifestError::Bound(m)) if m == "rtf"
        ));
        assert!(matches!(
            parse(&GOOD.replace("0.1}", "0.5}")),
            Err(ManifestError::Bound(_))
        ));
    }
}
