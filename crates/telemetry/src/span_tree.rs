//! Span-tree assembly and critical-path attribution.
//!
//! The [`Tracer`](crate::tracing::Tracer) records spans flat; this module
//! reconstructs each traced frame's causal tree ([`SpanTree::assemble`]),
//! validates it (single root, no orphans, children nested inside their
//! parents), and attributes the traced end-to-end latency to hops
//! ([`SpanTree::attribution`]). A hop is a `(kind, label)` pair such as
//! `(NocHop, "FFT->XCOR")` or `(FifoWait, "FFT->XCOR fifo_wait")`; the cost
//! of each hop is its *self time* — span duration minus child durations —
//! so the hop costs of one trace tile the root interval and always sum to
//! 100% of end-to-end latency.
//!
//! [`CriticalPathSummary::from_traces`] aggregates attribution across many
//! traces so `expose` can report lines like
//! `p99 dominated by FFT->XCOR fifo_wait, 61%`.

use crate::json;
use crate::tracing::{SpanId, SpanKind, SpanRecord, TraceRecord, NO_NODE};

/// Why a trace failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// No spans at all.
    Empty,
    /// Zero or multiple roots (spans with no parent).
    RootCount(usize),
    /// A span references a parent id that does not exist.
    Orphan(u32),
    /// Two spans share an id.
    DuplicateId(u32),
    /// A child interval is not contained in its parent's interval.
    NotNested { child: u32, parent: u32 },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Empty => write!(f, "trace has no spans"),
            TreeError::RootCount(n) => write!(f, "trace has {n} roots (want 1)"),
            TreeError::Orphan(id) => write!(f, "span {id} references a missing parent"),
            TreeError::DuplicateId(id) => write!(f, "span id {id} appears twice"),
            TreeError::NotNested { child, parent } => {
                write!(f, "span {child} is not nested inside parent {parent}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// One hop's share of a trace's (or an aggregate's) end-to-end latency.
#[derive(Debug, Clone, PartialEq)]
pub struct HopCost {
    /// Span kind the time was spent in.
    pub kind: SpanKind,
    /// Human-readable hop label (`"FFT"`, `"FFT->XCOR"`, `"radio"`, ...).
    pub label: String,
    /// Self-time in nanoseconds.
    pub ns: u64,
}

impl HopCost {
    /// This hop's fraction of `total_ns` (0 when the total is 0).
    pub fn fraction(&self, total_ns: u64) -> f64 {
        if total_ns == 0 {
            0.0
        } else {
            self.ns as f64 / total_ns as f64
        }
    }
}

/// A validated causal tree for one traced frame.
#[derive(Debug, Clone)]
pub struct SpanTree {
    spans: Vec<SpanRecord>,
    children: Vec<Vec<usize>>,
    /// Index of each span's parent (`None` for the root).
    parents: Vec<Option<usize>>,
    root_frame: u64,
}

impl SpanTree {
    /// Validates `record` and builds the tree, keeping its spans.
    pub fn assemble(record: TraceRecord) -> Result<SpanTree, TreeError> {
        let spans = record.spans;
        if spans.is_empty() {
            return Err(TreeError::Empty);
        }
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return Err(TreeError::RootCount(roots));
        }
        // Index by span id, rejecting duplicates.
        let mut by_id: Vec<Option<usize>> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let id = s.id.0 as usize;
            if by_id.len() <= id {
                by_id.resize(id + 1, None);
            }
            if by_id[id].is_some() {
                return Err(TreeError::DuplicateId(s.id.0));
            }
            by_id[id] = Some(i);
        }
        let mut children = vec![Vec::new(); spans.len()];
        let mut parents = vec![None; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(SpanId(pid)) = s.parent {
                let Some(Some(pi)) = by_id.get(pid as usize) else {
                    return Err(TreeError::Orphan(s.id.0));
                };
                let p = &spans[*pi];
                if s.begin_ns < p.begin_ns || s.end_ns > p.end_ns {
                    return Err(TreeError::NotNested {
                        child: s.id.0,
                        parent: p.id.0,
                    });
                }
                children[*pi].push(i);
                parents[i] = Some(*pi);
            }
        }
        Ok(SpanTree {
            spans,
            children,
            parents,
            root_frame: record.root_frame,
        })
    }

    /// All spans (root first, as recorded).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Sample-frame index the trace was rooted at.
    pub fn root_frame(&self) -> u64 {
        self.root_frame
    }

    /// Indices into [`SpanTree::spans`] of `span_index`'s children.
    pub fn children(&self, span_index: usize) -> &[usize] {
        &self.children[span_index]
    }

    /// End-to-end latency (root span duration).
    pub fn end_to_end_ns(&self) -> u64 {
        self.spans[0].duration_ns()
    }

    /// Self time of a span: its duration minus its children's durations.
    pub fn self_ns(&self, span_index: usize) -> u64 {
        let child_ns: u64 = self.children[span_index]
            .iter()
            .map(|&c| self.spans[c].duration_ns())
            .sum();
        self.spans[span_index]
            .duration_ns()
            .saturating_sub(child_ns)
    }

    /// Resolves the display label for a span, using sibling/parent context
    /// (`"FFT->XCOR"` for hops, `"FFT->XCOR fifo_wait"` for the matching
    /// backpressure wait).
    fn label_of(&self, span_index: usize, names: &[&'static str; 256]) -> String {
        let s = &self.spans[span_index];
        match s.kind {
            SpanKind::Frame => "frame".to_string(),
            SpanKind::PeService => s.name.to_string(),
            SpanKind::NocHop => {
                format!("{}->{}", s.name, names[s.to_node as usize])
            }
            SpanKind::FifoWait | SpanKind::DomainCross => {
                // Use the sibling NoC hop's edge when there is one so waits
                // read as "FFT->XCOR fifo_wait"; fall back to the PE name.
                let edge = self.parents[span_index]
                    .and_then(|pi| {
                        self.children[pi]
                            .iter()
                            .map(|&c| &self.spans[c])
                            .find(|c| c.kind == SpanKind::NocHop)
                            .map(|hop| format!("{}->{}", hop.name, names[hop.to_node as usize]))
                    })
                    .unwrap_or_else(|| s.name.to_string());
                format!("{edge} {}", s.kind.label())
            }
            SpanKind::RadioFrame => "radio".to_string(),
            SpanKind::StimPulse => "stim".to_string(),
        }
    }

    /// Per-hop attribution of this trace's end-to-end latency, sorted by
    /// descending cost. Hop self-times tile the root interval, so the sum
    /// of all `ns` equals [`SpanTree::end_to_end_ns`] exactly (any residual
    /// root self-time is reported as a `Frame`/`"frame"` entry).
    pub fn attribution(&self) -> Vec<HopCost> {
        // Slot -> PE name map from the service spans in this trace.
        let mut names: [&'static str; 256] = ["?"; 256];
        for s in &self.spans {
            if s.kind == SpanKind::PeService && s.node != NO_NODE {
                names[s.node as usize] = s.name;
            }
        }
        let mut hops: Vec<HopCost> = Vec::new();
        for i in 0..self.spans.len() {
            let self_ns = self.self_ns(i);
            if self_ns == 0 {
                continue;
            }
            let kind = self.spans[i].kind;
            let label = self.label_of(i, &names);
            match hops.iter_mut().find(|h| h.kind == kind && h.label == label) {
                Some(h) => h.ns += self_ns,
                None => hops.push(HopCost {
                    kind,
                    label,
                    ns: self_ns,
                }),
            }
        }
        hops.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.label.cmp(&b.label)));
        hops
    }

    /// The single most expensive hop, with its latency fraction.
    pub fn dominant(&self) -> Option<(HopCost, f64)> {
        let total = self.end_to_end_ns();
        self.attribution()
            .into_iter()
            .next()
            .map(|h| (h.clone(), h.fraction(total)))
    }

    /// Hand-rolled JSON object for post-mortems and tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        out.push_str(&format!(
            "{{\"trace\":{},\"root_frame\":{},\"end_to_end_ns\":{},\"spans\":[",
            self.spans[0].trace.0,
            self.root_frame,
            self.end_to_end_ns()
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push_str("],\"attribution\":[");
        let total = self.end_to_end_ns();
        for (i, h) in self.attribution().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":{},\"hop\":{},\"ns\":{},\"fraction\":{}}}",
                json::string(h.kind.label()),
                json::string(&h.label),
                h.ns,
                json::number(h.fraction(total)),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// JSON for one span (shared with the post-mortem dump).
pub fn span_json(s: &SpanRecord) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"kind\":{},\"node\":{},\"to_node\":{},\"name\":{},\"begin_ns\":{},\"end_ns\":{},\"tokens\":{},\"bytes\":{}}}",
        s.id.0,
        s.parent.map_or("null".to_string(), |p| p.0.to_string()),
        json::string(s.kind.label()),
        s.node,
        s.to_node,
        json::string(s.name),
        s.begin_ns,
        s.end_ns,
        s.tokens,
        s.bytes,
    )
}

/// Attribution aggregated across many traces.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathSummary {
    /// Traces that assembled cleanly and contributed.
    pub traces: u64,
    /// Traces rejected by validation.
    pub malformed: u64,
    /// Sum of contributing traces' end-to-end latencies.
    pub total_ns: u64,
    /// Aggregated hop costs, sorted by descending time.
    pub hops: Vec<HopCost>,
}

impl CriticalPathSummary {
    /// Assembles every record and merges the per-trace attributions.
    pub fn from_traces(records: &[TraceRecord]) -> CriticalPathSummary {
        let mut out = CriticalPathSummary::default();
        for record in records {
            let Ok(tree) = SpanTree::assemble(record.clone()) else {
                out.malformed += 1;
                continue;
            };
            out.traces += 1;
            out.total_ns += tree.end_to_end_ns();
            for h in tree.attribution() {
                match out
                    .hops
                    .iter_mut()
                    .find(|o| o.kind == h.kind && o.label == h.label)
                {
                    Some(o) => o.ns += h.ns,
                    None => out.hops.push(h),
                }
            }
        }
        out.hops
            .sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.label.cmp(&b.label)));
        out
    }

    /// The aggregate dominant hop and its share of total traced latency.
    pub fn dominant(&self) -> Option<(&HopCost, f64)> {
        self.hops.first().map(|h| (h, h.fraction(self.total_ns)))
    }

    /// Total nanoseconds attributed to a given span kind.
    pub fn kind_ns(&self, kind: SpanKind) -> u64 {
        self.hops
            .iter()
            .filter(|h| h.kind == kind)
            .map(|h| h.ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::{DeliveryCosts, TraceEvent, TraceId, Tracer};

    fn sample_record() -> TraceRecord {
        let tracer = Tracer::new(2, 0).with_linger_frames(10);
        tracer.sampler().force_next(1);
        let tag = tracer.begin_frame_into(0, &mut Vec::new());
        tracer.record_batch(&[
            TraceEvent::Delivery {
                tag,
                from: None,
                to: 1,
                to_name: "FFT",
                tokens: 4,
                bytes: 8,
                costs: DeliveryCosts {
                    noc_ns: 0,
                    wait_ns: 10,
                    cross_ns: 0,
                    service_ns: 40,
                },
            },
            TraceEvent::Delivery {
                tag,
                from: Some((1, "FFT")),
                to: 2,
                to_name: "XCOR",
                tokens: 2,
                bytes: 4,
                costs: DeliveryCosts {
                    noc_ns: 90,
                    wait_ns: 60,
                    cross_ns: 0,
                    service_ns: 100,
                },
            },
            TraceEvent::Radio {
                tag,
                node: 3,
                tokens: 1,
                bytes: 4,
                ns: 700,
            },
        ]);
        tracer.finalize_all();
        tracer.trees().pop().unwrap()
    }

    #[test]
    fn assembles_and_validates() {
        let tree = SpanTree::assemble(sample_record()).unwrap();
        assert_eq!(tree.end_to_end_ns(), 50 + 250 + 700);
        assert!(!tree.children(0).is_empty());
    }

    #[test]
    fn attribution_tiles_the_root() {
        let tree = SpanTree::assemble(sample_record()).unwrap();
        let total: u64 = tree.attribution().iter().map(|h| h.ns).sum();
        assert_eq!(total, tree.end_to_end_ns());
        let hop = tree
            .attribution()
            .into_iter()
            .find(|h| h.kind == SpanKind::NocHop)
            .unwrap();
        assert_eq!(hop.label, "FFT->XCOR");
        let wait = tree
            .attribution()
            .into_iter()
            .find(|h| h.kind == SpanKind::FifoWait && h.label.contains("XCOR"))
            .unwrap();
        assert_eq!(wait.label, "FFT->XCOR fifo_wait");
    }

    #[test]
    fn dominant_hop_is_radio_here() {
        let tree = SpanTree::assemble(sample_record()).unwrap();
        let (hop, frac) = tree.dominant().unwrap();
        assert_eq!(hop.kind, SpanKind::RadioFrame);
        assert!(frac > 0.5);
    }

    #[test]
    fn aggregate_sums_across_traces() {
        let r = sample_record();
        let agg = CriticalPathSummary::from_traces(&[r.clone(), r.clone()]);
        assert_eq!(agg.traces, 2);
        assert_eq!(agg.total_ns, 2 * 1000);
        let hop_total: u64 = agg.hops.iter().map(|h| h.ns).sum();
        assert_eq!(hop_total, agg.total_ns);
        let (dom, frac) = agg.dominant().unwrap();
        assert_eq!(dom.kind, SpanKind::RadioFrame);
        assert!((frac - 0.7).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_orphans_and_bad_nesting() {
        let mut r = sample_record();
        r.spans[2].parent = Some(SpanId(9999));
        assert!(matches!(SpanTree::assemble(r), Err(TreeError::Orphan(_))));

        let mut r = sample_record();
        r.spans[1].end_ns = r.spans[0].end_ns + 1;
        assert!(matches!(
            SpanTree::assemble(r),
            Err(TreeError::NotNested { .. })
        ));

        let r = TraceRecord {
            id: TraceId(1),
            root_frame: 0,
            spans: Vec::new(),
            dropped_spans: 0,
        };
        assert!(matches!(SpanTree::assemble(r), Err(TreeError::Empty)));
    }

    #[test]
    fn tree_json_is_valid() {
        let tree = SpanTree::assemble(sample_record()).unwrap();
        crate::json::validate(&tree.to_json()).unwrap();
    }
}
