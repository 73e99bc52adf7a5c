//! `temporal_sequences`: the `orbit` and `dolly` presets through
//! `render_sequence` with cross-frame tile reuse on (`TemporalMode::On`)
//! and PATU θ = 0.4, [`THREADS`] render thread. Orbit reuses most tiles;
//! dolly mostly invalidates. Each sequence renders one frame per call
//! against its own tile store, so every call is one frame's host time.

use crate::common::{self, Digest, Outcome};
use crate::metrics::{median, ratio};
use crate::trace::{self, Clock};
use patu_core::{ApproxStats, FilterPolicy};
use patu_gmath::DetRng;
use patu_gpu::FrameStats;
use patu_obs::json::num;
use patu_quality::{GrayImage, SsimConfig};
use patu_raster::{Pipeline, TraversalOrder};
use patu_scenes::Workload;
use patu_sim::{render_sequence, FrameResult, RenderConfig};
use patu_temporal::{TemporalConfig, TemporalMode, TileStore};

/// Render threads of the timed phase; the thread-invariance check, the
/// reuse-off reference and the traced 1-vs-2-thread comparison render at
/// [`CHECK_THREADS`]. Two threads on the two cores of a shared host swung
/// run to run by over a third; one thread is what the host can time.
const THREADS: usize = 1;

/// The other thread count the outputs must not depend on.
const CHECK_THREADS: usize = 2;

/// Every sequence renders at this size.
const RESOLUTION: (u32, u32) = (320, 240);

/// The sequences of one pass: preset, how many sequences and frames per
/// sequence. A preset's sequences start evenly spaced around its camera
/// loop, at a phase drawn from the seed, so every pass covers the whole
/// path. Orbit frames outnumber dolly frames, so the median frame is a
/// reuse frame and the tail a rerendering one. Dolly frames cost the most
/// and vary most along the path, so its sequences are short and many.
const SEQUENCES: [(&str, u32, u32); 2] = [("orbit", 4, 12), ("dolly", 6, 4)];

const THETA: f64 = 0.4;

/// Host times one [`sequence`] call measured.
#[derive(Default)]
struct Timings {
    /// Wall ms of each `render_sequence` call.
    calls: Vec<f64>,
    /// Traced runs only: per frame, the fragments the repeated geometry
    /// pass shaded and the wall ms of the repeated scene generation,
    /// geometry pass and invalidation plan.
    extras: Vec<(u64, f64)>,
}

/// Renders sequence `frames` of `w` one frame per call against a fresh
/// store in `mode`. With a traced clock each frame first repeats the
/// scene generation, geometry pass and invalidation plan on their own.
fn sequence(
    clock: &mut Clock,
    w: &Workload,
    frames: &[u32],
    mode: TemporalMode,
    threads: usize,
    id: u64,
    times: &mut Timings,
) -> Result<Vec<FrameResult>, String> {
    let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: THETA }).with_threads(threads);
    let mut store = TileStore::new(TemporalConfig::for_mode(mode));
    let mut out = Vec::with_capacity(frames.len());
    let (w_px, h_px) = w.resolution();
    let tile = cfg.gpu.tile_size;
    for &f in frames {
        let id = id * 1000 + u64::from(f % 1000);
        if clock.traced() {
            let (scene, a) = clock.span("scenes.frame", id, |_| w.frame(f));
            let (geo, b) = clock.span("raster.run", id, |_| {
                Pipeline::with_tile_size(w_px, h_px, tile)
                    .with_traversal(TraversalOrder::RowMajor)
                    .run(&scene.meshes, &scene.camera)
            });
            let (_, c) = clock.span("temporal.plan", id, |_| {
                store.plan(&scene, w_px, h_px, tile)
            });
            times.extras.push((geo.stats.fragments_shaded, a + b + c));
        }
        let (r, ms) = clock.span("sim.render_sequence", id, |_| {
            render_sequence(w, &[f], &cfg, &mut store)
        });
        times.calls.push(ms);
        let mut r = r.map_err(|e| format!("{} frame {f}: {e}", w.name()))?;
        out.append(&mut r);
    }
    Ok(out)
}

fn digest(frames: &[FrameResult]) -> u64 {
    let mut d = Digest::default();
    for f in frames {
        d.frame(f);
    }
    d.0
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
        SEQUENCES
            .iter()
            .map(|(name, _, _)| {
                c.span("scenes.build", 0, |_| Workload::build(name, RESOLUTION))
                    .0
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut rng = DetRng::new(args.seed);
    // (workload index, frames) per sequence, presets interleaved.
    let mut plan: Vec<(usize, Vec<u32>)> = Vec::new();
    for (i, (w, (_, count, len))) in workloads.iter().zip(SEQUENCES).enumerate() {
        let stride = w.loop_frames() / count;
        let phase = rng.range(u64::from(stride)) as u32;
        for k in 0..count {
            let start = phase + k * stride;
            plan.push((i, (start..start + len).collect()));
        }
    }
    // Order by loop half, then preset, so a partial last pass of the timed
    // phase holds orbit and dolly in the pass's proportion.
    plan.sort_by_key(|(i, frames)| (frames[0] / (workloads[*i].loop_frames() / 2), *i));
    let units = plan.len();

    // Reference: the same sequences with reuse off, outside the timed phase.
    let mut scratch = Clock::new(false);
    let mut off: Vec<Vec<FrameResult>> = Vec::with_capacity(units);
    let mut off_ms = 0.0;
    for (u, (i, frames)) in plan.iter().enumerate() {
        let (r, ms) = scratch.span("bench.reference", u as u64, |c| {
            sequence(
                c,
                &workloads[*i],
                frames,
                TemporalMode::Off,
                CHECK_THREADS,
                u as u64,
                &mut Timings::default(),
            )
        });
        off.push(r?);
        off_ms += ms;
    }
    let off_luma: Vec<Vec<GrayImage>> = off
        .iter()
        .map(|seq| seq.iter().map(FrameResult::luma).collect())
        .collect();

    // Timed phase.
    let mut clock = Clock::new(false);
    let mut probe = common::Probe::default();
    let mut passes = common::PassTimes::new(units);
    let mut first: Vec<Vec<FrameResult>> = Vec::with_capacity(units);
    let mut unit_ms = vec![0.0; units];
    let mut digests = vec![0u64; units];
    let mut rendered = 0u64;
    let (elapsed_ms, _) = common::timed_loop(args.seconds, units, &mut probe, |pass, u| {
        let mut times = Timings::default();
        let (r, ms) = clock.span("bench.unit", u as u64, |c| {
            let (i, frames) = &plan[u];
            sequence(
                c,
                &workloads[*i],
                frames,
                TemporalMode::On,
                THREADS,
                u as u64,
                &mut times,
            )
        });
        passes.record(u, ms, &times.calls);
        let r = r?;
        rendered += r.len() as u64;
        if pass == 0 {
            unit_ms[u] = ms;
            digests[u] = digest(&r);
            first.push(r);
        } else {
            let same = digest(&r) == digests[u];
            out.check(same, || {
                format!("sequence {u} pass {pass} differs from pass 0")
            });
        }
        Ok(ms)
    })?;
    out.attempted += rendered;

    // Output checks.
    let ssim = SsimConfig::default().with_threads(1);
    let mut mssim = Vec::new();
    for (seq, refs) in first.iter().zip(&off_luma) {
        for (f, r) in seq.iter().zip(refs) {
            mssim.push(f64::from(ssim.mssim(&f.luma(), r)));
        }
    }
    let mean_mssim = mssim.iter().sum::<f64>() / mssim.len() as f64;
    out.check(mean_mssim >= crate::table2::MSSIM_FLOOR, || {
        format!("mean MSSIM {mean_mssim} under the floor")
    });
    // Every tile the geometry covers is classified exactly once.
    for (u, seq) in first.iter().enumerate() {
        for (i, f) in seq.iter().enumerate() {
            let (total, covered) = (f.stats.temporal.tiles_total(), f.tile_stats.len() as u64);
            out.check(total == covered, || {
                format!("sequence {u} frame {i}: {total} classified tiles, {covered} covered")
            });
        }
    }
    let orbit_reused: u64 = plan
        .iter()
        .zip(&first)
        .filter(|((i, _), _)| *i == 0)
        .flat_map(|(_, seq)| seq)
        .map(|f| f.stats.temporal.tiles_reused)
        .sum();
    out.check(orbit_reused > 0, || "orbit reused no tiles".to_string());
    let mut check_ms = 0.0;
    for (u, (i, frames)) in plan.iter().enumerate() {
        let (r, ms) = scratch.span("bench.check", u as u64, |c| {
            sequence(
                c,
                &workloads[*i],
                frames,
                TemporalMode::On,
                CHECK_THREADS,
                u as u64,
                &mut Timings::default(),
            )
        });
        let same = digest(&r?) == digests[u];
        out.check(same, || {
            format!("sequence {u} differs between {THREADS} and {CHECK_THREADS} threads")
        });
        check_ms += ms;
    }
    let mut all_digest = Digest::default();
    for d in &digests {
        all_digest.u64(*d);
    }

    let frames: Vec<&FrameResult> = first.iter().flatten().collect();
    let n = frames.len() as f64;
    let on_stats = {
        let mut s = FrameStats::default();
        for f in &frames {
            s.accumulate(&f.stats);
        }
        s
    };
    let off_cycles: u64 = off.iter().flatten().map(|f| f.stats.cycles).sum();
    let speedup = ratio(off_cycles as f64, on_stats.cycles as f64);
    let t = &on_stats.temporal;
    let reuse_fraction = ratio(
        (t.tiles_reused + t.tiles_repredicted) as f64,
        t.tiles_total() as f64,
    );
    let on_ms: f64 = unit_ms.iter().sum();
    let floor_met = mssim
        .iter()
        .filter(|&&m| m >= crate::table2::MSSIM_FLOOR)
        .count() as f64
        / n;

    out.note(format!(
        "temporal_sequences: {} at {}x{} (starts {}), temporal mode on, Patu(theta {THETA}), \
         {THREADS} render thread; outputs_digest {:016x} (identical at {CHECK_THREADS} threads)",
        SEQUENCES
            .iter()
            .map(|(name, count, len)| format!("{count} {name} x{len}"))
            .collect::<Vec<_>>()
            .join(" + "),
        RESOLUTION.0,
        RESOLUTION.1,
        plan.iter()
            .map(|(i, f)| format!("{}@{}", SEQUENCES[*i].0, f[0]))
            .collect::<Vec<_>>()
            .join(","),
        all_digest.0
    ));
    out.note(format!(
        "sim: reuse speedup {} (cycles off/on), reuse fraction {}, mean MSSIM vs reuse off {} \
         (floor {}); host: reuse on {} ms at {THREADS} thread (first pass), off {} ms at \
         {CHECK_THREADS} threads",
        num(speedup),
        num(reuse_fraction),
        num(mean_mssim),
        crate::table2::MSSIM_FLOOR,
        num(on_ms),
        num(off_ms)
    ));
    out.note(common::MODEL_NOTE);

    if !args.trace {
        common::host_metrics(
            &mut out,
            setup_s,
            n,
            &passes,
            &passes.calls(),
            (rendered as f64, elapsed_ms),
            &probe,
        );
        let m = &mut out.metrics;
        m.set("sim_mcycles", on_stats.cycles as f64 / n / 1e6);
        m.set("sim_speedup", speedup);
        m.set("mssim", mean_mssim);
        m.set("contract_met_rate", floor_met);
        m.set(
            "success_rate",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
        );
        return Ok(out);
    }

    let mut times = Timings::default();
    let mut traced_unit_ms = 0.0;
    for (u, (i, frames)) in plan.iter().enumerate() {
        let (r, ms) = traced.span("bench.unit", u as u64, |c| {
            sequence(
                c,
                &workloads[*i],
                frames,
                TemporalMode::On,
                THREADS,
                u as u64,
                &mut times,
            )
        });
        let same = digest(&r?) == digests[u];
        out.check(same, || {
            format!("traced sequence {u} differs from the timed pass")
        });
        traced_unit_ms += ms;
    }
    out.attempted += n as u64;
    let spans = traced.spans();
    let extra_ms: f64 = times.extras.iter().map(|e| e.1).sum();
    let fragments: u64 = times.extras.iter().map(|e| e.0).sum();
    let tile_path_ms = trace::total_ms(spans, "sim.render_sequence") - extra_ms;
    let shaded: u64 = frames
        .iter()
        .flat_map(|f| &f.tile_stats)
        .map(|t| t.fragments)
        .sum();
    let mut approx = ApproxStats::default();
    for f in &frames {
        approx.accumulate(&f.approx);
    }
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
    m.set("raster.fragments_shaded", fragments as f64 / n);
    m.set(
        "raster.ns_per_fragment",
        ratio(trace::total_ms(spans, "raster.run") * 1e6, fragments as f64),
    );
    m.set("sim.tile_path_ms", tile_path_ms / n);
    m.set(
        "sim.ns_per_fragment",
        ratio(tile_path_ms * 1e6, shaded as f64),
    );
    m.set(
        "sim.ns_per_texel",
        ratio(tile_path_ms * 1e6, on_stats.events.texel_fetches as f64),
    );
    m.set("sim.parallel_speedup", ratio(on_ms, check_ms));
    m.set(
        "core.predictor_evals",
        on_stats.events.predictor_evals as f64 / n,
    );
    m.set(
        "core.hash_table_accesses",
        on_stats.events.hash_table_accesses as f64 / n,
    );
    m.set("core.demoted_share", approx.approximated_fraction());
    crate::table2::set_gpu_metrics(m, &on_stats, n);
    m.set(
        "temporal.plan_ms",
        median(&trace::durations(spans, "temporal.plan")),
    );
    m.set("temporal.tiles_reused", t.tiles_reused as f64 / n);
    m.set("temporal.tiles_repredicted", t.tiles_repredicted as f64 / n);
    m.set("temporal.tiles_rerendered", t.tiles_rerendered as f64 / n);
    m.set("temporal.reuse_fraction", reuse_fraction);
    // MSSIM here is an output check outside the timed phase.
    m.zero_layers(&["quality.", "serve.", "energy."]);
    m.set(
        "bench.trace_overhead",
        ratio(traced_unit_ms - extra_ms, on_ms),
    );
    out.spans = traced.spans().to_vec();
    Ok(out)
}
