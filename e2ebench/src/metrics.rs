//! The metric registry, the summary statistics the benchmark reports, and
//! the result line it prints last.
//!
//! Every metric the command can print is listed here once, with its unit
//! and direction; `BENCHMARK.json` at the repository root lists the same
//! names (a unit test holds the two in sync). A run fills a [`Metrics`]
//! set and [`Metrics::finish`] refuses to print unless exactly the listed
//! metrics of the requested kind were set.

use patu_obs::json::num;
use std::collections::BTreeMap;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One registered metric: `(name, unit, direction)`.
pub type Spec = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s", Lower),
    ("frames_per_s", "1/s", Higher),
    ("frame_ms_p50", "ms", Lower),
    ("frame_ms_tail", "ms", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("sim_mcycles", "Mcycles", Lower),
    ("sim_speedup", "ratio", Higher),
    ("mssim", "ratio", Higher),
    ("contract_met_rate", "ratio", Higher),
    ("success_rate", "ratio", Higher),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[Spec] = &[
    ("scenes.build_ms", "ms", Lower),
    ("scenes.frame_ms", "ms", Lower),
    ("raster.geometry_ms", "ms", Lower),
    ("raster.fragments_shaded", "count", Lower),
    ("raster.ns_per_fragment", "ns", Lower),
    ("sim.tile_path_ms", "ms", Lower),
    ("sim.ns_per_fragment", "ns", Lower),
    ("sim.ns_per_texel", "ns", Lower),
    ("sim.parallel_speedup", "ratio", Higher),
    ("core.predictor_evals", "count", Lower),
    ("core.hash_table_accesses", "count", Lower),
    ("core.demoted_share", "ratio", Higher),
    ("gpu.texel_fetches", "count", Lower),
    ("gpu.texels_per_pixel", "count", Lower),
    ("gpu.l1_hit_rate", "ratio", Higher),
    ("gpu.l2_hit_rate", "ratio", Higher),
    ("gpu.dram_reads", "count", Lower),
    ("gpu.dram_bytes", "bytes", Lower),
    ("gpu.filter_latency_p50", "cycles", Lower),
    ("gpu.filter_latency_p99", "cycles", Lower),
    ("temporal.plan_ms", "ms", Lower),
    ("temporal.tiles_reused", "count", Higher),
    ("temporal.tiles_repredicted", "count", Higher),
    ("temporal.tiles_rerendered", "count", Lower),
    ("temporal.reuse_fraction", "ratio", Higher),
    ("quality.mssim_ms", "ms", Lower),
    ("quality.ns_per_pixel", "ns", Lower),
    ("serve.session_ms", "ms", Lower),
    ("serve.distinct_renders", "count", Lower),
    ("serve.render_cache_hit_ratio", "ratio", Higher),
    ("serve.host_ms_per_distinct_render", "ms", Lower),
    ("serve.baseline_mcycles", "Mcycles", Lower),
    ("serve.batches", "count", Lower),
    ("serve.retries", "count", Lower),
    ("serve.hedges", "count", Lower),
    ("serve.breaker_opens", "count", Lower),
    ("serve.degrades", "count", Lower),
    ("serve.shed", "count", Lower),
    ("serve.failed", "count", Lower),
    ("energy.patu_vs_baseline", "ratio", Lower),
    ("bench.trace_overhead", "ratio", Lower),
];

/// `num / den`, NaN when the base is zero. Human-readable output prints
/// NaN as `null` through [`patu_obs::json::num`]; the result line, whose
/// values must be numbers, reports such a ratio as 0 (the layer did no
/// work on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// The median of `values` (NaN when empty). Averages the middle pair.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of ascending `sorted` and its rank
/// (1-based).
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], rank)
}

/// A timing distribution reduced to the benchmark's two figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median sample.
    pub p50: f64,
    /// The tail value: the highest percentile of [`TAIL_LADDER`] with at
    /// least [`TAIL_BEYOND`] samples beyond it (the median when the set is
    /// too small for any of them).
    pub value: f64,
    /// Which percentile `value` is.
    pub percentile: f64,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Reduces `samples` to its median and tail (see [`Tail`]).
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            p50: f64::NAN,
            value: f64::NAN,
            percentile: 50.0,
            beyond: 0,
            samples: 0,
        };
    }
    let p50 = median(&v);
    for p in TAIL_LADDER {
        let (value, rank) = nearest_rank(&v, p);
        if n - rank >= TAIL_BEYOND {
            return Tail {
                p50,
                value,
                percentile: p,
                beyond: n - rank,
                samples: n,
            };
        }
    }
    Tail {
        p50,
        value: p50,
        percentile: 50.0,
        beyond: n - nearest_rank(&v, 50.0).1,
        samples: n,
    }
}

/// Which metric list a run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `--trace 0`: [`END_TO_END`].
    EndToEnd,
    /// `--trace 1`: [`PER_LAYER`].
    PerLayer,
}

impl Kind {
    /// The registry this kind prints.
    pub fn specs(self) -> &'static [Spec] {
        match self {
            Kind::EndToEnd => END_TO_END,
            Kind::PerLayer => PER_LAYER,
        }
    }
}

/// The metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    duplicates: Vec<&'static str>,
}

impl Metrics {
    /// Sets metric `name`. Setting a name twice is a bug
    /// [`Metrics::finish`] reports.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.values.insert(name, value).is_some() {
            self.duplicates.push(name);
        }
    }

    /// Sets to 0 every per-layer metric of the given layers (name
    /// prefixes): layers this workload does not exercise.
    pub fn zero_layers(&mut self, layers: &[&str]) {
        for (name, _, _) in PER_LAYER {
            if layers.iter().any(|l| name.starts_with(l)) {
                self.set(name, 0.0);
            }
        }
    }

    /// The value set for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the `metrics` object of the result line for `kind`.
    ///
    /// # Errors
    ///
    /// Names the first registered metric that was not set, or the first
    /// set metric that `kind` does not list.
    pub fn finish(&self, kind: Kind) -> Result<String, String> {
        let specs = kind.specs();
        if let Some(name) = self.duplicates.first() {
            return Err(format!("metric {name} was set twice"));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !specs.iter().any(|(n, _, _)| n == *k))
        {
            return Err(format!("metric {extra} is not registered for this run"));
        }
        let mut out = String::from("{");
        for (i, (name, unit, _)) in specs.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            // The result line carries numbers only: a ratio whose base was
            // zero is a layer that did no work here.
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            ));
        }
        out.push('}');
        Ok(out)
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` matches `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// Every `"name": "<x>"` value in `BENCHMARK.json`, in file order.
    fn benchmark_json_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let start = rest.find('"').expect("name value") + 1;
                let len = rest[start..].find('"').expect("closing quote");
                rest[start..start + len].to_string()
            })
            .collect()
    }

    #[test]
    fn every_name_is_well_formed() {
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for name in benchmark_json_names() {
            assert!(valid_name(&name), "{name}");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "{w}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let listed = benchmark_json_names();
        let mut expected: Vec<String> = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _, _)| n.to_string()));
        expected.extend(PER_LAYER.iter().map(|(n, _, _)| n.to_string()));
        assert_eq!(listed, expected, "BENCHMARK.json and the registry disagree");
        // Units and directions too (BENCHMARK.json keeps one metric a line).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let better = match better {
                Higher => "higher",
                Lower => "lower",
            };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let mut unique = expected.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), expected.len(), "a name is used twice");
    }

    #[test]
    fn finish_prints_exactly_the_registered_metrics() {
        let mut m = Metrics::default();
        for (name, _, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = m.finish(Kind::EndToEnd).unwrap();
        for (name, unit, _) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // A per-layer run must not leak end-to-end metrics, and the reverse.
        assert!(m.finish(Kind::PerLayer).is_err());
        let mut missing = Metrics::default();
        missing.set("setup_s", 1.0);
        assert!(missing.finish(Kind::EndToEnd).is_err());
        let mut twice = Metrics::default();
        for (name, _, _) in END_TO_END {
            twice.set(name, 1.0);
        }
        twice.set("setup_s", 2.0);
        assert!(twice.finish(Kind::EndToEnd).is_err());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        for n in [
            1usize, 5, 19, 20, 21, 39, 40, 41, 100, 199, 200, 1000, 10_000, 20_000,
        ] {
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&samples);
            assert_eq!(t.samples, n);
            let beyond = samples.iter().filter(|&&s| s > t.value).count();
            assert_eq!(beyond, t.beyond, "n={n}");
            if n >= 20 {
                assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
                // The next rung up would leave fewer than ten beyond.
                if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.percentile) {
                    let (_, rank) = nearest_rank(
                        &{
                            let mut s = samples.clone();
                            s.sort_by(f64::total_cmp);
                            s
                        },
                        higher,
                    );
                    assert!(n - rank < TAIL_BEYOND, "n={n}: p{higher} also qualifies");
                }
            } else {
                assert_eq!(t.percentile, 50.0);
                assert_eq!(t.value, t.p50);
            }
        }
        let t = tail(&(1..=200).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        assert_eq!(t.p50, 100.5);
    }

    #[test]
    fn zero_base_ratios_print_as_null() {
        assert!(ratio(3.0, 0.0).is_nan());
        assert_eq!(num(ratio(3.0, 0.0)), "null");
        assert_eq!(num(ratio(0.0, 0.0)), "null");
        assert_eq!(num(ratio(3.0, 2.0)), "1.5");
        // ...and as 0 in the numbers-only result line.
        let mut m = Metrics::default();
        for (name, _, _) in PER_LAYER {
            m.set(name, ratio(1.0, 0.0));
        }
        let line = m.finish(Kind::PerLayer).unwrap();
        assert!(!line.contains("null"));
        assert_eq!(line.matches("\"value\": 0, ").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, "{}");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
