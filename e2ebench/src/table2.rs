//! `table2_policies`: the paper's evaluation loop. Every frame of the
//! seven Table II games is rendered under Baseline (16×AF), NoAf and PATU
//! θ = 0.4, then PATU is scored against Baseline with full MSSIM. One
//! render thread.

use crate::common::{self, Digest, Outcome};
use crate::metrics::{median, ratio};
use crate::trace::{self, Clock};
use patu_core::{ApproxStats, FilterPolicy};
use patu_energy::EnergyModel;
use patu_gmath::DetRng;
use patu_gpu::{FrameStats, GpuConfig};
use patu_obs::json::num;
use patu_quality::SsimConfig;
use patu_raster::{Pipeline, TraversalOrder};
use patu_scenes::{game_names, Workload};
use patu_sim::{render_frame, RenderConfig};

/// Every scene renders at this size.
const RESOLUTION: (u32, u32) = (320, 240);

/// Frame indices per game in one pass; each (game, frame) is one timed
/// unit. Three evenly spaced frames keep a pass near 5 s, so a 35 s run
/// repeats every call about seven times, while the seeded phase moves the
/// pass's host cost by only a few percent.
const FRAMES_PER_GAME: u32 = 3;

/// The paper's design-point threshold.
const THETA: f64 = 0.4;

/// The paper's quality floor.
pub const MSSIM_FLOOR: f64 = 0.93;

const POLICIES: [FilterPolicy; 3] = [
    FilterPolicy::Baseline,
    FilterPolicy::NoAf,
    FilterPolicy::Patu { threshold: THETA },
];

/// One (game, frame) evaluated under every policy.
struct Eval {
    stats: [FrameStats; 3],
    patu_approx: ApproxStats,
    mssim: f64,
    digest: u64,
}

/// What one unit's traced extras measured per game.
#[derive(Default, Clone, Copy)]
struct Geometry {
    fragments: u64,
    frame_ms: f64,
    geometry_ms: f64,
}

/// Renders frame `f` of `w` under every policy and scores PATU. With a
/// traced clock it first repeats the frame's scene generation and geometry
/// pass on their own, for the breakdown.
fn unit(
    clock: &mut Clock,
    w: &Workload,
    f: u32,
    id: u64,
    frame_ms: &mut Vec<f64>,
    geometry: &mut Vec<Geometry>,
) -> Result<(Vec<patu_sim::FrameResult>, f64), String> {
    let ssim = SsimConfig::default().with_threads(1);
    if clock.traced() {
        let (scene, scene_ms) = clock.span("scenes.frame", id, |_| w.frame(f));
        let (w_px, h_px) = w.resolution();
        let tile = GpuConfig::default().tile_size;
        let (geo, geo_ms) = clock.span("raster.run", id, |_| {
            Pipeline::with_tile_size(w_px, h_px, tile)
                .with_traversal(TraversalOrder::RowMajor)
                .run(&scene.meshes, &scene.camera)
        });
        geometry.push(Geometry {
            fragments: geo.stats.fragments_shaded,
            frame_ms: scene_ms,
            geometry_ms: geo_ms,
        });
    }
    let mut results = Vec::with_capacity(POLICIES.len());
    for policy in POLICIES {
        let cfg = RenderConfig::new(policy).with_threads(1);
        let (r, ms) = clock.span("sim.render_frame", id, |_| render_frame(w, f, &cfg));
        frame_ms.push(ms);
        results.push(r.map_err(|e| format!("{} frame {f} {policy:?}: {e}", w.name()))?);
    }
    let (mssim, _) = clock.span("quality.mssim", id, |_| {
        f64::from(ssim.mssim(&results[0].luma(), &results[2].luma()))
    });
    Ok((results, mssim))
}

fn evaluate(results: &[patu_sim::FrameResult], mssim: f64) -> Eval {
    let mut d = Digest::default();
    for r in results {
        d.frame(r);
    }
    d.u64(mssim.to_bits());
    Eval {
        stats: [0, 1, 2].map(|p| results[p].stats),
        patu_approx: results[2].approx,
        mssim,
        digest: d.0,
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up and render errors.
pub fn run(args: &common::Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut traced = Clock::new(args.trace);
    let (workloads, setup_s) = common::setup(&mut traced, |c| {
        game_names()
            .iter()
            .map(|name| {
                c.span("scenes.build", 0, |_| Workload::build(name, RESOLUTION))
                    .0
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    // Each game's frames are evenly spaced around its camera loop, at a
    // phase drawn from the seed, so every pass covers the whole path. Unit
    // (k, game) renders the game's k-th frame; games alternate within a
    // pass.
    let mut rng = DetRng::new(args.seed);
    let phases: Vec<(u32, u32)> = workloads
        .iter()
        .map(|w| {
            let stride = w.loop_frames() / FRAMES_PER_GAME;
            (rng.range(u64::from(stride)) as u32, stride)
        })
        .collect();
    let plan: Vec<(usize, u32)> = (0..FRAMES_PER_GAME)
        .flat_map(|k| {
            phases
                .iter()
                .enumerate()
                .map(move |(g, (phase, stride))| (g, phase + k * stride))
        })
        .collect();
    let units = plan.len();

    // Timed phase, untraced.
    let mut clock = Clock::new(false);
    let mut probe = common::Probe::default();
    let mut passes = common::PassTimes::new(units);
    let mut first: Vec<Eval> = Vec::with_capacity(units);
    let mut unit_ms = vec![0.0; units];
    let mut renders = 0u64;
    let (elapsed_ms, done) = common::timed_loop(args.seconds, units, &mut probe, |pass, u| {
        let mut calls = Vec::new();
        let (g, f) = plan[u];
        let (result, ms) = clock.span("bench.unit", u as u64, |c| {
            unit(c, &workloads[g], f, u as u64, &mut calls, &mut Vec::new())
        });
        passes.record(u, ms, &calls);
        let (results, mssim) = result?;
        let eval = evaluate(&results, mssim);
        renders += POLICIES.len() as u64;
        if pass == 0 {
            unit_ms[u] = ms;
            first.push(eval);
        } else {
            out.check(eval.digest == first[u].digest, || {
                format!("unit {u} pass {pass} differs from pass 0")
            });
        }
        Ok(ms)
    })?;
    out.attempted += renders + done as u64;

    // Output checks, outside the timed region.
    let evals: Vec<&Eval> = first.iter().collect();
    for (i, e) in evals.iter().enumerate() {
        let [base, noaf, patu] = [0, 1, 2].map(|p| e.stats[p].events.texel_fetches);
        out.check(noaf <= patu && patu <= base, || {
            format!("frame {i}: texel fetches NoAf {noaf} <= Patu {patu} <= Baseline {base} fails")
        });
    }
    let mean_mssim = evals.iter().map(|e| e.mssim).sum::<f64>() / evals.len() as f64;
    out.check(mean_mssim >= MSSIM_FLOOR, || {
        format!("mean PATU MSSIM {mean_mssim} under {MSSIM_FLOOR}")
    });
    let mut digest = Digest::default();
    for e in &evals {
        digest.u64(e.digest);
    }

    // Simulated clock.
    let sum = |p: usize| -> FrameStats {
        let mut s = FrameStats::default();
        for e in &evals {
            s.accumulate(&e.stats[p]);
        }
        s
    };
    let (base, patu) = (sum(0), sum(2));
    let energy = EnergyModel::default();
    let joules = |p: usize| -> f64 {
        evals
            .iter()
            .map(|e| energy.frame_energy(&e.stats[p]).total_joules())
            .sum()
    };
    let n = evals.len() as f64;
    let speedup = ratio(base.cycles as f64, patu.cycles as f64);
    let energy_ratio = ratio(joules(2), joules(0));
    let latency_ratio = ratio(
        patu.filter_latency_cycles as f64,
        base.filter_latency_cycles as f64,
    );
    let floor_met = evals.iter().filter(|e| e.mssim >= MSSIM_FLOOR).count() as f64 / n;

    out.note(format!(
        "table2_policies: {} games x {FRAMES_PER_GAME} frame indices at {}x{}, policies Baseline/NoAf/Patu(theta {THETA}), \
         1 render thread; outputs_digest {:016x}",
        workloads.len(),
        RESOLUTION.0,
        RESOLUTION.1,
        digest.0
    ));
    out.note(format!(
        "sim: speedup {} (paper 1.17), energy patu/baseline {} (paper 0.89), \
         filter latency patu/baseline {} (paper 0.71), mean MSSIM {} (paper floor {MSSIM_FLOOR}), \
         {} of PATU frames at the floor",
        num(speedup),
        num(energy_ratio),
        num(latency_ratio),
        num(mean_mssim),
        num(floor_met)
    ));
    out.note(common::MODEL_NOTE);

    if !args.trace {
        let per_pass = (units * POLICIES.len()) as f64;
        common::host_metrics(
            &mut out,
            setup_s,
            per_pass,
            &passes,
            &passes.calls(),
            (renders as f64, elapsed_ms),
            &probe,
        );
        let m = &mut out.metrics;
        m.set("sim_mcycles", patu.cycles as f64 / n / 1e6);
        m.set("sim_speedup", speedup);
        m.set("mssim", mean_mssim);
        m.set("contract_met_rate", floor_met);
        m.set(
            "success_rate",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
        );
        return Ok(out);
    }

    // Traced pass over the first pass's units, with the breakdown extras.
    let mut traced_ms = Vec::new();
    let mut geometry = Vec::new();
    let mut traced_unit_ms = 0.0;
    for (u, &(g, f)) in plan.iter().enumerate() {
        let (result, ms) = traced.span("bench.unit", u as u64, |c| {
            unit(c, &workloads[g], f, u as u64, &mut traced_ms, &mut geometry)
        });
        let (results, mssim) = result?;
        out.check(evaluate(&results, mssim).digest == first[u].digest, || {
            format!("traced unit {u} differs from the timed pass")
        });
        traced_unit_ms += ms;
    }
    let spans = traced.spans();
    let extras = trace::total_ms(spans, "scenes.frame") + trace::total_ms(spans, "raster.run");
    let render_ms = trace::total_ms(spans, "sim.render_frame");
    let fragments: u64 = geometry.iter().map(|g| g.fragments).sum();
    let geo_ms: f64 = geometry.iter().map(|g| g.frame_ms + g.geometry_ms).sum();
    let tile_path_ms = render_ms - POLICIES.len() as f64 * geo_ms;
    let mssim_ms = trace::durations(spans, "quality.mssim");
    let all = {
        let mut s = FrameStats::default();
        for p in 0..POLICIES.len() {
            s.accumulate(&sum(p));
        }
        s
    };
    let mut approx = ApproxStats::default();
    for e in &evals {
        approx.accumulate(&e.patu_approx);
    }
    let calls = (evals.len() * POLICIES.len()) as f64;
    let ev = &all.events;
    let m = &mut out.metrics;
    m.set(
        "scenes.build_ms",
        median(&trace::durations(spans, "scenes.build")),
    );
    m.set(
        "scenes.frame_ms",
        median(&trace::durations(spans, "scenes.frame")),
    );
    m.set(
        "raster.geometry_ms",
        median(&trace::durations(spans, "raster.run")),
    );
    m.set(
        "raster.fragments_shaded",
        fragments as f64 / geometry.len() as f64,
    );
    m.set(
        "raster.ns_per_fragment",
        ratio(trace::total_ms(spans, "raster.run") * 1e6, fragments as f64),
    );
    m.set("sim.tile_path_ms", tile_path_ms / calls);
    m.set(
        "sim.ns_per_fragment",
        ratio(tile_path_ms * 1e6, POLICIES.len() as f64 * fragments as f64),
    );
    m.set(
        "sim.ns_per_texel",
        ratio(tile_path_ms * 1e6, ev.texel_fetches as f64),
    );
    m.set("sim.parallel_speedup", f64::NAN);
    m.set(
        "core.predictor_evals",
        patu.events.predictor_evals as f64 / n,
    );
    m.set(
        "core.hash_table_accesses",
        patu.events.hash_table_accesses as f64 / n,
    );
    m.set("core.demoted_share", approx.approximated_fraction());
    set_gpu_metrics(m, &all, calls);
    m.zero_layers(&["temporal.", "serve."]);
    m.set("quality.mssim_ms", median(&mssim_ms));
    m.set(
        "quality.ns_per_pixel",
        median(&mssim_ms) * 1e6 / f64::from(RESOLUTION.0 * RESOLUTION.1),
    );
    m.set("energy.patu_vs_baseline", energy_ratio);
    m.set(
        "bench.trace_overhead",
        ratio(traced_unit_ms - extras, unit_ms.iter().sum()),
    );
    out.attempted += calls as u64;
    out.spans = traced.spans().to_vec();
    Ok(out)
}

/// The texture-unit and memory-system metrics, per render call.
pub fn set_gpu_metrics(m: &mut crate::metrics::Metrics, all: &FrameStats, calls: f64) {
    let ev = &all.events;
    m.set("gpu.texel_fetches", ev.texel_fetches as f64 / calls);
    m.set(
        "gpu.texels_per_pixel",
        ratio(ev.texel_fetches as f64, all.filter_requests as f64),
    );
    m.set(
        "gpu.l1_hit_rate",
        1.0 - ratio(ev.l1_misses as f64, ev.l1_accesses as f64),
    );
    m.set(
        "gpu.l2_hit_rate",
        1.0 - ratio(ev.l2_misses as f64, ev.l2_accesses as f64),
    );
    m.set("gpu.dram_reads", ev.dram_reads as f64 / calls);
    m.set("gpu.dram_bytes", ev.dram_bytes as f64 / calls);
    m.set("gpu.filter_latency_p50", all.filter_latency_p50() as f64);
    m.set("gpu.filter_latency_p99", all.filter_latency_p99() as f64);
}
