//! What every workload shares: the parsed command line, set-up timing, the
//! timed loop, output digests and the run's outcome.

use crate::metrics::{self, Metrics};
use crate::trace::{Clock, Span};
use patu_obs::json::num;
use patu_sim::FrameResult;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name (see [`crate::WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Describes the first missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !crate::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (expected one of {})",
                crate::WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the requested kind.
    pub metrics: Metrics,
    /// Operations attempted in the timed phase and the checks.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a check: counts it and, when it failed, says why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Runs `build` [`SETUP_REPEATS`] times and returns the last result with
/// the median wall time in seconds.
///
/// # Errors
///
/// The first error `build` returns.
pub fn setup<T>(
    clock: &mut Clock,
    mut build: impl FnMut(&mut Clock) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (value, ms) = clock.span("bench.setup", 0, |c| build(c));
        last = Some(value?);
        times.push(ms / 1e3);
    }
    let value = last.ok_or("set-up ran zero times")?;
    Ok((value, metrics::median(&times)))
}

/// The timed phase: runs `unit(pass, index)` over `units` work units in
/// order, pass after pass, until the first pass is complete and the units'
/// summed wall time has reached `seconds`, sampling `probe` after every
/// unit. `unit` returns its own wall ms. Returns the summed wall ms and the
/// number of units run.
///
/// # Errors
///
/// The first error `unit` returns.
pub fn timed_loop(
    seconds: u64,
    units: usize,
    probe: &mut Probe,
    mut unit: impl FnMut(usize, usize) -> Result<f64, String>,
) -> Result<(f64, usize), String> {
    let budget_ms = seconds as f64 * 1e3;
    let (mut elapsed_ms, mut done) = (0.0, 0usize);
    while done < units || elapsed_ms < budget_ms {
        elapsed_ms += unit(done / units, done % units)?;
        probe.sample();
        done += 1;
    }
    Ok((elapsed_ms, done))
}

/// Keys the host-speed probe sorts.
const PROBE_KEYS: usize = 1 << 18;

/// The probe's median ms on the host the benchmark was defined on (two
/// cores of a 2.1 GHz Xeon, in a quiet period; 5.0–7.1 ms as neighbours'
/// load came and went).
pub const PROBE_REFERENCE_MS: f64 = 5.0;

/// The host-speed probe: a fixed piece of the benchmark's own work —
/// sorting [`PROBE_KEYS`] pseudo-random keys — timed after every unit of
/// the timed phase. The shared host this benchmark runs on slows the
/// renderer by up to 1.8× over half an hour as neighbours come and go;
/// over 10 s windows the probe's median tracked the renderer's with a
/// correlation of 0.93 (a dependent multiply chain: 0.68, a 32 MB random
/// gather: 0.48), and over three runs of one seed whose unscaled
/// `frames_per_s` fell from 16.4 to 11.9 the scaled one stayed within 2%.
/// Host-time metrics are scaled by
/// [`PROBE_REFERENCE_MS`] / the probe's median: they read as on the
/// reference host, and the program's own speed still moves them while the
/// neighbours' load mostly does not. The unscaled figures are printed
/// beside them.
#[derive(Debug, Clone)]
pub struct Probe {
    keys: Vec<u32>,
    samples: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let keys = (0..PROBE_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u32
            })
            .collect();
        Probe {
            keys,
            samples: Vec::new(),
        }
    }
}

impl Probe {
    /// Times one sort of a copy of the keys.
    pub fn sample(&mut self) {
        let keys = &self.keys;
        let (_, ms) = patu_bench::micro::timed(|| {
            let mut v = keys.clone();
            v.sort_unstable();
            std::hint::black_box(v[v.len() / 2])
        });
        self.samples.push(ms);
    }

    /// The probe's median ms this run.
    pub fn median_ms(&self) -> f64 {
        metrics::median(&self.samples)
    }

    /// What this run's host ms are multiplied by to read as on the
    /// reference host.
    pub fn scale(&self) -> f64 {
        PROBE_REFERENCE_MS / self.median_ms()
    }
}

/// FNV-1a, 64-bit: the outputs digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in `v`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a frame's pixels and the statistics that carry the
    /// simulated clock.
    pub fn frame(&mut self, frame: &FrameResult) {
        for p in frame.image.pixels() {
            self.bytes(&[p.r, p.g, p.b, p.a]);
        }
        let s = &frame.stats;
        for v in [
            s.cycles,
            s.filter_latency_cycles,
            s.filter_requests,
            s.events.texel_fetches,
            s.events.l1_accesses,
            s.events.l1_misses,
            s.events.l2_accesses,
            s.events.l2_misses,
            s.events.dram_reads,
            s.events.dram_bytes,
            s.events.hash_table_accesses,
            s.events.predictor_evals,
            s.temporal.tiles_reused,
            s.temporal.tiles_repredicted,
            s.temporal.tiles_rerendered,
            s.temporal.reuse_cycles,
        ] {
            self.u64(v);
        }
    }
}

/// The process's peak resident set, MB (Linux `VmHWM`; NaN elsewhere).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Host times over the passes. Every unit's calls and its rest (its wall
/// time minus its calls) are slots, each repeated once a pass, and each
/// slot's time is the median of its repetitions. On a shared host the
/// fastest repetition of a call depends on whether a quiet moment fell in
/// the run; over five runs of one seed, the sum of per-call medians varied
/// about half as much as the sum of per-call minimums.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    /// Per unit, per slot (its calls in order, then its rest), the
    /// repetitions' ms.
    units: Vec<Vec<Vec<f64>>>,
    passes: usize,
}

impl PassTimes {
    /// An empty record for `units` units.
    pub fn new(units: usize) -> PassTimes {
        PassTimes {
            units: vec![Vec::new(); units],
            passes: 0,
        }
    }

    /// Records one run of unit `u`: its wall ms and its calls' ms, in call
    /// order (identical work, so the same length every pass).
    pub fn record(&mut self, u: usize, unit_ms: f64, calls: &[f64]) {
        if u == 0 {
            self.passes += 1;
        }
        let rest = (unit_ms - calls.iter().sum::<f64>()).max(0.0);
        let slots = &mut self.units[u];
        slots.resize(calls.len() + 1, Vec::new());
        for (slot, ms) in slots.iter_mut().zip(calls.iter().chain([&rest])) {
            slot.push(*ms);
        }
    }

    /// One pass with every slot at its median, ms.
    pub fn pass_ms(&self) -> f64 {
        self.units
            .iter()
            .flatten()
            .map(|reps| metrics::median(reps))
            .sum()
    }

    /// Every call's median ms, unit after unit.
    pub fn calls(&self) -> Vec<f64> {
        self.units
            .iter()
            .flat_map(|slots| &slots[..slots.len().saturating_sub(1)])
            .map(|reps| metrics::median(reps))
            .collect()
    }
}

/// Sets the host-clock end-to-end metrics shared by every workload: the
/// throughput from the median pass time, the median and tail of
/// `frame_ms` (per-frame median times), and notes the raw timed-phase
/// figures, the tail's percentile and its sample count.
pub fn host_metrics(
    out: &mut Outcome,
    setup_s: f64,
    frames_per_pass: f64,
    times: &PassTimes,
    frame_ms: &[f64],
    raw: (f64, f64),
    probe: &Probe,
) {
    let t = metrics::tail(frame_ms);
    let (frames, elapsed_ms) = raw;
    let k = probe.scale();
    let per_s = frames_per_pass / (times.pass_ms() / 1e3);
    out.metrics.set("setup_s", setup_s * k);
    out.metrics.set("frames_per_s", per_s / k);
    out.metrics.set("frame_ms_p50", t.p50 * k);
    out.metrics.set("frame_ms_tail", t.value * k);
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    out.note(format!(
        "host: {} passes, each call at its median over them; frame_ms_tail is p{} of {} \
         samples ({} beyond); raw timed phase {} frames in {} ms",
        times.passes,
        t.percentile,
        t.samples,
        t.beyond,
        frames,
        num(elapsed_ms)
    ));
    out.note(format!(
        "host speed: probe median {} ms over {} samples (reference {PROBE_REFERENCE_MS} ms), \
         host times scaled by {}; unscaled setup_s {} s, frames_per_s {} 1/s, frame_ms_p50 {} ms, \
         frame_ms_tail {} ms",
        num(probe.median_ms()),
        probe.samples.len(),
        num(k),
        num(setup_s),
        num(per_s),
        num(t.p50),
        num(t.value)
    ));
}

/// The note every run carries about the simulated clock.
pub const MODEL_NOTE: &str = "model: simulated cycles come from an analytical GPU timing model \
     that has not been validated against hardware; the paper reports 17% average speedup, \
     11% energy saving and 29% lower filter latency at MSSIM >= 0.93";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&args(
            "--workload serve_outage --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_outage".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_outage --seed x --seconds 1 --trace 0",
            "--workload serve_outage --seed 1 --seconds 1 --trace 2",
            "--workload serve_outage --seed 1 --seconds 1",
            "--workload serve_outage --seed 1 --seconds 1 --trace",
            "--workload serve_outage --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(Args::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn timed_loop_finishes_the_first_pass_then_stops_at_the_budget() {
        let mut seen = Vec::new();
        let mut probe = Probe::default();
        let (ms, done) = timed_loop(1, 3, &mut probe, |pass, i| {
            seen.push((pass, i));
            Ok(150.0)
        })
        .unwrap();
        assert_eq!(done, 7);
        assert_eq!(ms, 1050.0);
        assert_eq!(seen[..4], [(0, 0), (0, 1), (0, 2), (1, 0)]);
        // A first pass longer than the budget still completes.
        let (_, done) = timed_loop(1, 4, &mut probe, |_, _| Ok(900.0)).unwrap();
        assert_eq!(done, 4);
        // The probe ran once after every unit.
        assert_eq!(probe.samples.len(), 11);
    }

    #[test]
    fn probe_scales_by_the_reference_over_its_median() {
        let mut probe = Probe::default();
        assert!(probe.keys.windows(2).any(|w| w[0] > w[1]));
        probe.samples = vec![14.0, 3.0, 14.0];
        assert_eq!(probe.scale(), PROBE_REFERENCE_MS / 14.0);
        probe.sample();
        assert_eq!(probe.samples.len(), 4);
    }

    #[test]
    fn pass_times_take_each_calls_and_rests_median() {
        let mut t = PassTimes::new(2);
        t.record(0, 11.0, &[4.0, 6.0]);
        t.record(1, 5.0, &[5.0]);
        assert_eq!(t.pass_ms(), 16.0);
        assert_eq!(t.calls(), [4.0, 6.0, 5.0]);
        t.record(0, 20.0, &[9.0, 3.0]);
        t.record(1, 7.0, &[6.0]);
        t.record(0, 10.0, &[5.0, 4.0]);
        // Unit 0: calls 5 and 4, rest median(1, 8, 1) = 1; unit 1: call
        // median(5, 6) = 5.5, rest median(0, 1) = 0.5.
        assert_eq!(t.passes, 3);
        assert_eq!(t.calls(), [5.0, 4.0, 5.5]);
        assert_eq!(t.pass_ms(), 16.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
    }
}
