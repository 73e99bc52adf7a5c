//! The tentpole invariant of the batched SoA fragment→texel path: rendering
//! with [`BatchMode::Soa`] (the default) is bit-identical to the scalar
//! reference path — same framebuffer bytes, same `FrameStats`, same
//! approximation/sharing/divergence statistics — across policies, scenes,
//! thread counts and fault injection, plus under foveated threshold
//! modulation and watchdog degradation.
//!
//! Also pins render-level frame digests recorded before the division-free
//! texel path landed, and the sampled-MSSIM estimator's error bound against
//! the full computation on every seed scene (DESIGN.md §13).

use patu_core::FilterPolicy;
use patu_gpu::FaultConfig;
use patu_quality::{SampledSsimConfig, SsimConfig};
use patu_scenes::{game_names, Workload};
use patu_sim::render::{render_frame, BatchMode, FrameResult, RenderConfig};

fn assert_bit_identical(soa: &FrameResult, scalar: &FrameResult, context: &str) {
    assert_eq!(
        soa.image, scalar.image,
        "framebuffer bytes differ: {context}"
    );
    assert_eq!(soa.stats, scalar.stats, "frame stats differ: {context}");
    assert_eq!(soa.approx, scalar.approx, "approx stats differ: {context}");
    assert_eq!(
        soa.sharing, scalar.sharing,
        "sharing stats differ: {context}"
    );
    assert_eq!(
        soa.divergence, scalar.divergence,
        "divergence differs: {context}"
    );
    assert_eq!(
        soa.degraded, scalar.degraded,
        "degradation flag differs: {context}"
    );
}

#[test]
fn batched_path_bit_identical_to_scalar_across_the_grid() {
    let policies = [
        FilterPolicy::Baseline,
        FilterPolicy::SampleArea { threshold: 0.4 },
        FilterPolicy::Patu { threshold: 0.4 },
    ];
    let fault_modes = [FaultConfig::disabled(), FaultConfig::uniform(42, 0.05)];
    for scene in ["doom3", "grid"] {
        let workload = Workload::build(scene, (192, 160)).unwrap();
        for policy in policies {
            for faults in fault_modes {
                for threads in [1usize, 4] {
                    let cfg = |batching: BatchMode| {
                        RenderConfig::new(policy)
                            .with_faults(faults)
                            .with_threads(threads)
                            .with_batching(batching)
                    };
                    let soa = render_frame(&workload, 0, &cfg(BatchMode::Soa)).unwrap();
                    let scalar = render_frame(&workload, 0, &cfg(BatchMode::Scalar)).unwrap();
                    let context = format!(
                        "scene {scene}, policy {policy:?}, faults {faulty}, threads {threads}",
                        faulty = !faults.is_disabled()
                    );
                    assert_bit_identical(&soa, &scalar, &context);
                }
            }
        }
    }
}

#[test]
fn batched_path_matches_scalar_under_foveation() {
    let workload = Workload::build("doom3", (192, 160)).unwrap();
    let fov = patu_sim::Foveation::default();
    for threads in [1usize, 4] {
        let cfg = |batching: BatchMode| {
            RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
                .with_foveation(fov)
                .with_threads(threads)
                .with_batching(batching)
        };
        let soa = render_frame(&workload, 0, &cfg(BatchMode::Soa)).unwrap();
        let scalar = render_frame(&workload, 0, &cfg(BatchMode::Scalar)).unwrap();
        assert_bit_identical(&soa, &scalar, &format!("foveated, threads {threads}"));
        assert!(soa.approx.pixels > 0, "foveated run exercised the policy");
    }
}

#[test]
fn batched_path_matches_scalar_when_the_watchdog_degrades() {
    let workload = Workload::build("grid", (192, 160)).unwrap();
    let cfg = |batching: BatchMode| {
        RenderConfig::new(FilterPolicy::Baseline)
            .with_cycle_budget(1)
            .with_batching(batching)
    };
    let soa = render_frame(&workload, 0, &cfg(BatchMode::Soa)).unwrap();
    let scalar = render_frame(&workload, 0, &cfg(BatchMode::Scalar)).unwrap();
    assert!(soa.degraded, "a 1-cycle budget trips immediately");
    assert_bit_identical(&soa, &scalar, "degraded frame");
}

#[test]
fn batched_telemetry_is_bit_identical_too() {
    use patu_obs::{TelemetryConfig, TraceLevel};
    let workload = Workload::build("doom3", (192, 160)).unwrap();
    let cfg = |batching: BatchMode| {
        RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
            .with_telemetry(TelemetryConfig::with_level(TraceLevel::Spans))
            .with_batching(batching)
    };
    let soa = render_frame(&workload, 2, &cfg(BatchMode::Soa)).unwrap();
    let scalar = render_frame(&workload, 2, &cfg(BatchMode::Scalar)).unwrap();
    assert_bit_identical(&soa, &scalar, "traced frame");
    let (st, sc) = (
        soa.telemetry.expect("spans record"),
        scalar.telemetry.expect("spans record"),
    );
    assert_eq!(st.counters, sc.counters, "telemetry counters differ");
    assert_eq!(
        st.stage_totals(),
        sc.stage_totals(),
        "telemetry stage tree differs"
    );
}

#[test]
fn sampled_mssim_error_bounded_on_every_seed_scene() {
    // The serve layer's quality baseline: the stratified estimator must sit
    // within 0.005 of the full MSSIM when comparing a PATU render against
    // the 16×AF baseline, on every seed scene and for several plan seeds.
    // Production-shaped frames: at 512×384 the default plan (8-window
    // tiles, 1/4 fraction) holds the bound with margin on every scene.
    for scene in game_names() {
        let workload = Workload::build(scene, (512, 384)).unwrap();
        let reference = render_frame(&workload, 0, &RenderConfig::new(FilterPolicy::Baseline))
            .unwrap()
            .luma();
        let patu = render_frame(
            &workload,
            0,
            &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
        )
        .unwrap()
        .luma();
        let full = SsimConfig::default()
            .with_threads(1)
            .mssim(&reference, &patu);
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let sampled = SampledSsimConfig::new(seed)
                .with_fraction(patu_quality::sampled::DEFAULT_FRACTION)
                .mssim_sampled(&reference, &patu);
            assert!(
                (sampled - full).abs() <= 0.005,
                "scene {scene}, seed {seed}: sampled {sampled} vs full {full}"
            );
        }
    }
}

/// FNV-1a digest of a frame's framebuffer bytes followed by the `Debug`
/// rendering of its `FrameStats` (every counter, histogram bucket and
/// fault count).
fn frame_digest(frame: &FrameResult) -> u64 {
    let pixels = frame
        .image
        .pixels()
        .iter()
        .flat_map(|p| <[u8; 4]>::from(*p));
    let stats = format!("{:?}", frame.stats).into_bytes();
    patu_serve::exec::fnv1a(0, pixels.chain(stats))
}

/// Frame digests pinned on the pre-optimization texel/cache kernels, one row
/// per Table II game at 160×120, frame 0. Columns: {Baseline, NoAf,
/// Patu θ=0.4} × faults {off, uniform(42, 0.02)}.
const PINNED_DIGESTS: [(&str, [u64; 6]); 7] = [
    (
        "hl2",
        [
            0x663beffd7b3d352b,
            0xf92f4536fd693b57,
            0xda6aa2bbdb7e9b44,
            0x3899de5aeba190dd,
            0xcfde4b0d52d2a22b,
            0x44bddb2faec326ec,
        ],
    ),
    (
        "doom3",
        [
            0x5e695c341cf0e6d9,
            0x367e64c4def983a7,
            0xe6136427c76e5996,
            0x3003ccbd7caef30c,
            0x74cdcc0a26821a85,
            0x94cae12b7a4d61b7,
        ],
    ),
    (
        "grid",
        [
            0xce94643a0155ee99,
            0x5d16fad63f8d589c,
            0xc7400d8177f5cd1c,
            0x1cec5fef815dd226,
            0xdd6830ad09fd3dee,
            0x86d7f323f78dfa95,
        ],
    ),
    (
        "nfs",
        [
            0xf752c238e4d6c4f3,
            0xc77f82ea91457eea,
            0x4ce474e94b047a7b,
            0x80feb42f113591ef,
            0xda1d92e0edafe940,
            0xd302cf54f9294a92,
        ],
    ),
    (
        "stal",
        [
            0xcb8b40dd678ea91b,
            0xfcad2e3f3ac3d22c,
            0xed85a0e6b94f1ba6,
            0x55c727f275b4a548,
            0xbb23beb2e105bbbb,
            0x890d6ebfb17caf5f,
        ],
    ),
    (
        "ut3",
        [
            0x77781422d6ab0e7a,
            0x86014915e71d200f,
            0xafea953d49828668,
            0x644fc464312d74b7,
            0xb32543dd098580fe,
            0xe936bd30b33efa8a,
        ],
    ),
    (
        "wolf",
        [
            0xa51076a01716edaa,
            0xb03ab0848c5e92db,
            0x1c984db8126e1cff,
            0x6c28eb8fd0bfe69f,
            0xcd8386607312a398,
            0x1920e65a89b307a6,
        ],
    ),
];

#[test]
fn frame_digests_pinned_across_policies_faults_and_threads() {
    let policies = [
        FilterPolicy::Baseline,
        FilterPolicy::NoAf,
        FilterPolicy::Patu { threshold: 0.4 },
    ];
    let fault_modes = [FaultConfig::disabled(), FaultConfig::uniform(42, 0.02)];
    for (scene, pinned) in PINNED_DIGESTS {
        let workload = Workload::build(scene, (160, 120)).unwrap();
        let mut column = 0;
        for policy in policies {
            for faults in fault_modes {
                for threads in [1usize, 4] {
                    let cfg = RenderConfig::new(policy)
                        .with_faults(faults)
                        .with_threads(threads);
                    let digest = frame_digest(&render_frame(&workload, 0, &cfg).unwrap());
                    assert_eq!(
                        digest,
                        pinned[column],
                        "scene {scene}, policy {policy:?}, faults {faulty}, threads {threads}",
                        faulty = !faults.is_disabled()
                    );
                }
                column += 1;
            }
        }
    }
}
