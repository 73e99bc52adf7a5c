//! `serve_outage`: patu-serve sessions at the `BENCH_chaos.json` operating
//! point — 1.5× offered load, the half-pool outage scenario, resilience
//! on, pressure gain 0.4, 6 clients × 6 jobs at 192×144, one render
//! thread. A pass is [`SESSIONS`] sessions: the first uses the seed
//! argument itself, the rest seeds forked from it. Every session submits
//! the same number of jobs, so `frames_per_s` counts jobs handled
//! (delivered, shed or failed) per host second; how many were delivered
//! varies from seed to seed by up to a third and is `success_rate`'s job.

use crate::common::{self, Digest, Outcome};
use crate::metrics::{median, ratio};
use crate::trace::{self, Clock};
use patu_gmath::DetRng;
use patu_gpu::FaultConfig;
use patu_obs::json::num;
use patu_obs::{SloOptions, TraceLevel};
use patu_scenes::Workload;
use patu_serve::{
    run_session, FrameService, Outcome as JobOutcome, RenderKey, ResilienceConfig, Scenario,
    ServeConfig, ServeError, ServeReport, ServedFrame, SimFrameService,
};
use patu_temporal::{TemporalConfig, TemporalMode};
use std::collections::BTreeMap;

/// Sessions per pass; each is one timed unit. Eight sessions of about a
/// second each let a 35 s run repeat every render batch about four
/// times.
const SESSIONS: usize = 8;

/// Session resolution.
const RESOLUTION: (u32, u32) = (192, 144);

/// Scenes the sessions draw from.
const SCENES: [&str; 2] = ["doom3", "hl2"];

/// The session configuration for `seed`, every knob set explicitly so no
/// environment variable can reach it.
fn session_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        clients: 6,
        jobs_per_client: 6,
        scenes: SCENES.iter().map(|s| s.to_string()).collect(),
        resolution: RESOLUTION,
        frame_span: 3,
        load: 1.5,
        gpus: 2,
        queue_capacity: 16,
        batch_max: 4,
        base_threshold: 1.0,
        governor: true,
        governor_floor: 0.25,
        governor_steps: 8,
        pressure_gain: 0.4,
        setup_frac: 0.2,
        faults: FaultConfig::disabled(),
        scenario: Scenario::HalfPoolOutage,
        resilience: ResilienceConfig::default(),
        threads: Some(1),
        trace: TraceLevel::Counters,
        slo: SloOptions::disabled(),
    }
}

/// The seed of session `k` of a pass.
fn session_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        DetRng::new(seed).fork(k as u64).next_u64()
    }
}

/// Wraps the real service to time each render batch and remember what
/// each distinct key cost on the simulated clock.
struct Recorder<'a> {
    inner: &'a mut SimFrameService,
    clock: &'a mut Clock,
    id: u64,
    /// Host ms of every batch, in call order.
    batch_ms: Vec<f64>,
    /// Distinct renders each batch made (the rest were cache hits).
    fresh: Vec<u64>,
    keys_served: u64,
    distinct: BTreeMap<RenderKey, u64>,
}

impl FrameService for Recorder<'_> {
    fn serve(&mut self, keys: &[RenderKey]) -> Result<Vec<ServedFrame>, ServeError> {
        let before = self.inner.distinct_renders();
        let inner = &mut *self.inner;
        let (served, ms) = self
            .clock
            .span("serve.render", self.id, |_| inner.serve(keys));
        let served = served?;
        self.batch_ms.push(ms);
        self.fresh
            .push((self.inner.distinct_renders() - before) as u64);
        self.keys_served += keys.len() as u64;
        for (key, frame) in keys.iter().zip(&served) {
            self.distinct.insert(*key, frame.cycles);
        }
        Ok(served)
    }
}

/// One session's outputs.
struct Session {
    report: ServeReport,
    batch_ms: Vec<f64>,
    fresh: Vec<u64>,
    keys_served: u64,
    distinct_cycles: Vec<u64>,
    baseline_frames: usize,
    baseline_cycles: u64,
    digest: u64,
}

fn session(clock: &mut Clock, seed: u64, id: u64) -> Result<Session, String> {
    let cfg = session_config(seed);
    let (service, _) = clock.span("serve.with_temporal", id, |_| {
        SimFrameService::with_temporal(&cfg, TemporalConfig::for_mode(TemporalMode::Off))
    });
    let mut service = service.map_err(|e| e.to_string())?;
    let ((report, batch_ms, fresh, keys_served, distinct), _) =
        clock.span("serve.run_session", id, |c| {
            let mut rec = Recorder {
                inner: &mut service,
                clock: c,
                id,
                batch_ms: Vec::new(),
                fresh: Vec::new(),
                keys_served: 0,
                distinct: BTreeMap::new(),
            };
            let report = run_session(&cfg, &mut rec);
            (
                report,
                rec.batch_ms,
                rec.fresh,
                rec.keys_served,
                rec.distinct,
            )
        });
    let report = report.map_err(|e| format!("session {seed}: {e}"))?;
    let mut d = Digest::default();
    for job in &report.completed {
        d.u64(job.job.id);
        d.u64(match job.outcome {
            JobOutcome::Delivered => 1,
            JobOutcome::Shed => 2,
            JobOutcome::Failed => 3,
        });
        d.u64(job.finish);
        d.u64(job.image_hash);
        d.u64(job.ssim.to_bits());
        d.u64(job.theta.to_bits());
    }
    d.u64(report.stats.makespan);
    let baseline_frames = distinct
        .keys()
        .map(|k| (k.scene, k.frame))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    Ok(Session {
        batch_ms,
        fresh,
        keys_served,
        distinct_cycles: distinct.into_values().collect(),
        baseline_frames,
        baseline_cycles: service.baseline_cycles(),
        digest: d.0,
        report,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up and session errors.
pub fn run(args: &common::Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut traced = Clock::new(args.trace);
    let (_, setup_s) = common::setup(&mut traced, |c| {
        SCENES
            .iter()
            .map(|name| {
                c.span("scenes.build", 0, |_| Workload::build(name, RESOLUTION))
                    .0
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let seeds: Vec<u64> = (0..SESSIONS).map(|k| session_seed(args.seed, k)).collect();

    let mut clock = Clock::new(false);
    let mut first: Vec<Session> = Vec::with_capacity(SESSIONS);
    let mut probe = common::Probe::default();
    let mut passes = common::PassTimes::new(SESSIONS);
    let mut unit_ms = [0.0; SESSIONS];
    let (mut handled, mut sessions) = (0u64, 0u64);
    let (elapsed_ms, _) = common::timed_loop(args.seconds, SESSIONS, &mut probe, |pass, k| {
        let (s, ms) = clock.span("bench.unit", k as u64, |c| session(c, seeds[k], k as u64));
        let s = s?;
        sessions += 1;
        handled += s.report.stats.submitted;
        passes.record(k, ms, &s.batch_ms);
        if pass == 0 {
            unit_ms[k] = ms;
            first.push(s);
        } else {
            let same = s.digest == first[k].digest;
            out.check(same, || {
                format!("session {} pass {pass} differs from pass 0", seeds[k])
            });
        }
        Ok(ms)
    })?;
    out.attempted += sessions;

    let mut digest = Digest::default();
    for (s, seed) in first.iter().zip(&seeds) {
        let st = &s.report.stats;
        out.check(st.delivered + st.shed + st.failed == st.submitted, || {
            format!(
                "session {seed}: {} delivered + {} shed + {} failed != {} submitted",
                st.delivered, st.shed, st.failed, st.submitted
            )
        });
        let schema = patu_obs::schema::check_stream(&s.report.log);
        out.check(schema == Ok(st.submitted as usize), || {
            format!("session {seed}: serve log schema check {schema:?}")
        });
        digest.u64(s.digest);
    }

    let total = |f: fn(&ServeReport) -> u64| -> u64 { first.iter().map(|s| f(&s.report)).sum() };
    let submitted = total(|r| r.stats.submitted) as f64;
    let delivered_first = total(|r| r.stats.delivered) as f64;
    let violations = total(|r| r.stats.deadline_misses + r.stats.shed + r.stats.failed) as f64;
    let ssim_sum: f64 = first.iter().map(|s| s.report.stats.ssim_sum).sum();
    let n = first.len() as f64;
    let distinct: usize = first.iter().map(|s| s.distinct_cycles.len()).sum();
    let distinct_cycles: u64 = first.iter().flat_map(|s| &s.distinct_cycles).sum();
    let baseline_frames: usize = first.iter().map(|s| s.baseline_frames).sum();
    let baseline_cycles: u64 = first.iter().map(|s| s.baseline_cycles).sum();
    let speedup = ratio(
        ratio(baseline_cycles as f64, baseline_frames as f64),
        ratio(distinct_cycles as f64, distinct as f64),
    );
    let viol_rate = violations / submitted;

    out.note(format!(
        "serve_outage: {SESSIONS} sessions per pass (seeds {}), load 1.5, half_pool_outage, \
         resilience on, pressure gain 0.4, 6x6 jobs at {}x{}, 1 render thread; outputs_digest {:016x}",
        seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        RESOLUTION.0,
        RESOLUTION.1,
        digest.0
    ));
    for (s, seed) in first.iter().zip(&seeds) {
        let st = &s.report.stats;
        out.note(format!(
            "  session {seed}: {} delivered, {} shed, {} failed, violation_rate {}, mean SSIM {}, \
             {} distinct renders, {} hedges",
            st.delivered,
            st.shed,
            st.failed,
            num(st.violation_rate()),
            num(st.mean_ssim()),
            s.distinct_cycles.len(),
            st.hedges
        ));
    }
    out.note(format!(
        "sim: violation_rate {} (BENCH_chaos.json seed 1207: 0.4722), mean delivered SSIM {}, \
         16xAF/delivered cycles per render {}",
        num(viol_rate),
        num(ratio(ssim_sum, delivered_first)),
        num(speedup)
    ));
    out.note(common::MODEL_NOTE);

    if !args.trace {
        // Host ms per distinct render: each batch that rendered, at its
        // median over the passes, over the renders it made.
        let fresh = first.iter().flat_map(|s| &s.fresh);
        let render_ms: Vec<f64> = passes
            .calls()
            .iter()
            .zip(fresh)
            .filter(|(_, &n)| n > 0)
            .map(|(ms, &n)| ms / n as f64)
            .collect();
        common::host_metrics(
            &mut out,
            setup_s,
            submitted,
            &passes,
            &render_ms,
            (handled as f64, elapsed_ms),
            &probe,
        );
        let m = &mut out.metrics;
        m.set(
            "sim_mcycles",
            first
                .iter()
                .map(|s| s.report.stats.makespan as f64)
                .sum::<f64>()
                / n
                / 1e6,
        );
        m.set("sim_speedup", speedup);
        m.set("mssim", ratio(ssim_sum, delivered_first));
        m.set("contract_met_rate", 1.0 - viol_rate);
        // Failed and shed jobs are the failed and refused operations.
        m.set("success_rate", delivered_first / submitted);
        return Ok(out);
    }

    let mut traced_unit_ms = 0.0;
    for (k, &seed) in seeds.iter().enumerate() {
        let (s, ms) = traced.span("bench.unit", k as u64, |c| session(c, seed, k as u64));
        let same = s?.digest == first[k].digest;
        out.check(same, || {
            format!("traced session {seed} differs from the timed pass")
        });
        traced_unit_ms += ms;
    }
    out.attempted += SESSIONS as u64;
    let spans = traced.spans();
    let mean = |f: fn(&ServeReport) -> u64| total(f) as f64 / n;
    let m = &mut out.metrics;
    // The renders happen inside the service, out of the benchmark's sight.
    m.zero_layers(&[
        "scenes.frame",
        "raster.",
        "sim.",
        "core.",
        "gpu.",
        "temporal.",
        "quality.",
        "energy.",
    ]);
    m.set(
        "scenes.build_ms",
        median(&trace::durations(spans, "scenes.build")),
    );
    m.set(
        "serve.session_ms",
        median(&trace::durations(spans, "serve.run_session")),
    );
    m.set("serve.distinct_renders", distinct as f64 / n);
    let keys: u64 = first.iter().map(|s| s.keys_served).sum();
    m.set(
        "serve.render_cache_hit_ratio",
        1.0 - ratio(distinct as f64, keys as f64),
    );
    m.set(
        "serve.host_ms_per_distinct_render",
        ratio(trace::total_ms(spans, "serve.render"), distinct as f64),
    );
    m.set("serve.baseline_mcycles", baseline_cycles as f64 / n / 1e6);
    m.set("serve.batches", mean(|r| r.stats.batches));
    m.set("serve.retries", mean(|r| r.stats.retries));
    m.set("serve.hedges", mean(|r| r.stats.hedges));
    m.set("serve.breaker_opens", mean(|r| r.stats.breaker_opens));
    m.set("serve.degrades", mean(|r| r.stats.degrades));
    m.set("serve.shed", mean(|r| r.stats.shed));
    m.set("serve.failed", mean(|r| r.stats.failed));
    m.set(
        "bench.trace_overhead",
        ratio(traced_unit_ms, unit_ms.iter().sum()),
    );
    out.spans = traced.spans().to_vec();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_1207_reproduces_the_recorded_chaos_row() {
        let s = session(&mut Clock::new(false), 1207, 0).unwrap();
        let st = &s.report.stats;
        assert_eq!((st.submitted, st.delivered, st.failed), (36, 26, 10));
        assert_eq!(
            num(st.violation_rate() * 1e4).split('.').next(),
            Some("4722")
        );
        assert!(s.distinct_cycles.len() >= 19 && s.distinct_cycles.len() <= 22);
    }

    #[test]
    fn session_seeds_start_at_the_seed_and_are_distinct() {
        let seeds: Vec<u64> = (0..SESSIONS).map(|k| session_seed(1207, k)).collect();
        assert_eq!(seeds[0], 1207);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), SESSIONS);
    }
}
