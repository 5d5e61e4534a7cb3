//! Order statistics, in-memory spans, and the `compare` verdict rule.

use std::collections::BTreeMap;
use std::time::Instant;

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)`, so
/// the spreads printed here match the ones computed over result files by
/// scripts. A single value is its own quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let n = 4;
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile distance as a share of the median (0 for one sample).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (0–100) of sorted samples, nearest rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value a run reports for its per-round samples: the fast-end
/// decile, i.e. the 90th percentile where higher is better and the 10th
/// where lower is. Co-tenants of a shared host only ever slow a round,
/// and do so in phases lasting seconds, so the fast decile follows the
/// program while the median follows the host's contention. It is both
/// what a run reports and what [`verdict`] judges.
pub fn headline(samples: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, if higher_is_better { 90.0 } else { 10.0 })
}

/// The highest of the reported percentiles that still has at least ten
/// samples beyond it among `n` samples, so a tail figure never rests on a
/// handful of outliers. `None` when even the median lacks ten.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// One timed interval recorded by the benchmark around a public call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The call (or phase) timed.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round the span belongs to.
    pub round: u32,
}

/// Times calls and, when enabled, keeps every interval as a [`Span`]
/// nested under whichever span was open when it began. Disabled, it only
/// hands back durations, so the untraced run pays two clock reads per
/// timed call and nothing else.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    round: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tags spans begun from now on with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span; pass the returned instant to [`Spans::end`].
    pub fn begin(&mut self, name: &'static str) -> Instant {
        let now = Instant::now();
        if self.enabled {
            let start_ns = now.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                round: self.round,
            });
            self.open.push(self.spans.len() - 1);
        }
        now
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn end(&mut self, start: Instant) -> u64 {
        let now = Instant::now();
        if let Some(i) = self.open.pop().filter(|_| self.enabled) {
            self.spans[i].end_ns = now.duration_since(self.origin).as_nanos() as u64;
        }
        now.duration_since(start).as_nanos() as u64
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let t = self.begin(name);
        let r = f();
        (r, self.end(t))
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total self time per span name: each span's duration minus the part of
/// it its child spans cover. Children of one parent never overlap (one
/// thread records them), so the covered part is the sum of their
/// durations.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Outcome of comparing one metric between a base and a new result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so neither "same"
    /// nor a direction can be claimed.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for printing.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The change of `new` against `base` as a signed share, positive when
/// worse. A zero base compares absolutely (fail rates start at 0).
pub fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let d = if higher_is_better {
        base - new
    } else {
        new - base
    };
    if base == 0.0 {
        d
    } else {
        d / base.abs()
    }
}

/// Judges `new` against `base` under `bound` (a share of the base's
/// [`headline`]): a headline that moved by more than the bound is better
/// or worse, unless either side's interquartile spread exceeds the bound —
/// then the run was too noisy to call and the result is unresolved,
/// except when every new sample beats (or trails) every base sample.
pub fn verdict(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let beats = |a: f64, b: f64| {
        if higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    if spread(base) > bound || spread(new) > bound {
        if new.iter().all(|&n| base.iter().all(|&b| beats(n, b))) {
            return Verdict::Better;
        }
        if new.iter().all(|&n| base.iter().all(|&b| beats(b, n))) {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    let w = worsening(
        headline(base, higher_is_better),
        headline(new, higher_is_better),
        higher_is_better,
    );
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[4.0, 1.0]), [0.25, 2.5, 4.75]);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_and_the_ten_beyond_rule() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 99.0), 990.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 500.0);
        let rounds: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(headline(&rounds, true), 9.0);
        assert_eq!(headline(&rounds, false), 1.0);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        };
        // round [0,100) > stream [10,90) > {push [20,30), push [40,70) > inner [50,60)}
        let spans = vec![
            span("round", 0, 100, None),
            span("stream", 10, 90, Some(0)),
            span("push", 20, 30, Some(1)),
            span("push", 40, 70, Some(1)),
            span("inner", 50, 60, Some(3)),
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st["round"], 20);
        assert_eq!(st["stream"], 40);
        assert_eq!(st["push"], 10 + 20);
        assert_eq!(st["inner"], 10);
        assert_eq!(st.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn spans_nest_and_time() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer");
        let ((), _) = s.time("inner", || ());
        s.end(outer);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);
        let mut off = Spans::new(false);
        let t = off.begin("x");
        off.end(t);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn verdicts_respect_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
        let same = [101.0, 102.0, 100.0, 101.5, 100.5];
        // Throughput: higher is better.
        assert_eq!(verdict(&base, &faster, true, 0.10), Verdict::Better);
        assert_eq!(verdict(&faster, &base, true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &same, true, 0.10), Verdict::Same);
        // Latency: lower is better, so the same numbers read the other way.
        assert_eq!(verdict(&base, &faster, false, 0.10), Verdict::Worse);
        // The fast decile is judged, not the median: these medians agree.
        let flat = [100.0; 10];
        let mut fast_tail = [100.0; 10];
        fast_tail[8..].fill(115.0);
        assert_eq!(median(&fast_tail), median(&flat));
        assert_eq!(verdict(&flat, &fast_tail, true, 0.10), Verdict::Better);
        // A noisy side wider than the bound cannot be called...
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&base, &noisy, true, 0.10), Verdict::Unresolved);
        // ...unless every new sample beats every base sample.
        let noisy_fast = [150.0, 200.0, 260.0, 180.0, 230.0];
        assert_eq!(verdict(&base, &noisy_fast, true, 0.10), Verdict::Better);
        // A zero base (fail rate) compares absolutely with a zero bound.
        assert_eq!(verdict(&[0.0], &[0.0], false, 0.0), Verdict::Same);
        assert_eq!(verdict(&[0.0], &[0.01], false, 0.0), Verdict::Worse);
    }
}
