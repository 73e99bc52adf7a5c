//! Bench-side spans around the calls into each layer.
//!
//! Every call the benchmark makes into a crate goes through
//! [`Clock::span`], which times it with [`patu_bench::micro::timed`] (the
//! one sanctioned wall-clock entry point). An untraced clock only returns
//! the duration; a traced clock also keeps the span — name, start, end,
//! parent and the id shared by the spans of one frame or session — in
//! memory until the run ends. Starts are laid out from measured
//! durations: a span starts where its previous sibling (or its parent)
//! started plus the time already accounted for, so a parent always
//! encloses its children and self time is the parent's duration minus its
//! children's.

use patu_bench::micro;
use patu_obs::json::num;
use std::collections::BTreeMap;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sim.render_frame`.
    pub name: &'static str,
    /// The frame, sequence or session this call belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ms since the first span.
    pub start_ms: f64,
    /// End, ms since the first span.
    pub end_ms: f64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// The layer a span name belongs to: the text before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Times calls and, when tracing, records them as spans.
#[derive(Debug, Default)]
pub struct Clock {
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
    cursor_ms: f64,
}

impl Clock {
    /// A clock that records spans when `traced`.
    pub fn new(traced: bool) -> Clock {
        Clock {
            spans: traced.then(Vec::new),
            ..Clock::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f` as span `name` of `id`, returning its value and wall ms.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Clock) -> T,
    ) -> (T, f64) {
        let Some(spans) = self.spans.as_mut() else {
            return micro::timed(|| f(self));
        };
        let index = spans.len();
        spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ms: self.cursor_ms,
            end_ms: self.cursor_ms,
        });
        self.stack.push(index);
        let (value, ms) = micro::timed(|| f(self));
        self.stack.pop();
        if let Some(span) = self.spans.as_mut().and_then(|s| s.get_mut(index)) {
            span.end_ms = span.start_ms + ms;
            self.cursor_ms = span.end_ms;
        }
        (value, ms)
    }

    /// The recorded spans (empty when untraced).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Per-span self time: its duration minus the part its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ms();
        }
    }
    own
}

/// Self time summed per layer, ms.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += own;
    }
    out
}

/// Durations of every span named `name`, in call order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Total duration of every span named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

/// The spans as JSON lines (one object per span, then one per layer's
/// self time).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
             \"start_ms\": {}, \"end_ms\": {}}}\n",
            s.name,
            s.id,
            num(s.start_ms),
            num(s.end_ms)
        ));
    }
    for (layer, ms) in layer_self_ms(spans) {
        out.push_str(&format!(
            "{{\"layer\": \"{layer}\", \"self_ms\": {}}}\n",
            num(ms)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
    }

    #[test]
    fn untraced_clock_records_nothing() {
        let mut c = Clock::new(false);
        let (v, ms) = c.span("sim.render_frame", 1, |_| busy(1000));
        assert_eq!(v, busy(1000));
        assert!(ms >= 0.0);
        assert!(c.spans().is_empty());
    }

    #[test]
    fn children_nest_inside_parents_and_self_time_conserves() {
        let mut c = Clock::new(true);
        c.span("bench.unit", 7, |c| {
            c.span("sim.render_frame", 7, |_| busy(200_000));
            c.span("quality.mssim", 7, |c| {
                c.span("sim.render_frame", 7, |_| busy(100_000));
            });
        });
        let spans = c.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.id == 7));
        for s in spans {
            if let Some(p) = s.parent {
                assert!(s.start_ms >= spans[p].start_ms);
                assert!(s.end_ms <= spans[p].end_ms + 1e-9);
            }
        }
        let own = self_times(spans);
        assert!(own.iter().all(|&t| t >= -1e-9));
        let total: f64 = own.iter().sum();
        assert!((total - spans[0].ms()).abs() < 1e-9);
        let layers = layer_self_ms(spans);
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            ["bench", "quality", "sim"]
        );
        assert_eq!(durations(spans, "sim.render_frame").len(), 2);
        let jsonl = to_jsonl(spans);
        assert_eq!(jsonl.lines().count(), 4 + 3);
        assert!(jsonl
            .starts_with("{\"span\": 0, \"name\": \"bench.unit\", \"id\": 7, \"parent\": null"));
    }
}
