//! Property-based tests for texture filtering invariants, driven by the
//! workspace's deterministic generator (`DetRng`): each test sweeps a
//! fixed-seed randomized sample of the input space, so any failure
//! reproduces bit-for-bit from the test name alone.

use patu_gmath::{DetRng, Vec2};
use patu_texture::{
    procedural, sample_anisotropic, sample_bilinear, sample_trilinear, sampler::bilinear_addresses,
    AddressMode, Footprint, Rgba8, TexelAddress, Texture, MAX_ANISO,
};

const CASES: usize = 256;

fn f32_in(rng: &mut DetRng, lo: f32, hi: f32) -> f32 {
    lo + rng.next_f32() * (hi - lo)
}

fn any_mode(rng: &mut DetRng) -> AddressMode {
    match rng.range(3) {
        0 => AddressMode::Wrap,
        1 => AddressMode::Clamp,
        _ => AddressMode::Mirror,
    }
}

fn any_uv(rng: &mut DetRng) -> Vec2 {
    Vec2::new(f32_in(rng, -2.0, 2.0), f32_in(rng, -2.0, 2.0))
}

#[test]
fn address_mode_always_in_range() {
    let mut rng = DetRng::new(0x7E_01);
    for _ in 0..CASES {
        let coord = rng.range_between(0, 2000) as i64 - 1000;
        let size = rng.range_between(1, 64) as u32;
        let mode = any_mode(&mut rng);
        let folded = mode.apply(coord, size);
        assert!(folded < size);
    }
}

#[test]
fn wrap_is_periodic() {
    let mut rng = DetRng::new(0x7E_02);
    for _ in 0..CASES {
        let coord = rng.range_between(0, 1000) as i64 - 500;
        let size = rng.range_between(1, 64) as u32;
        let a = AddressMode::Wrap.apply(coord, size);
        let b = AddressMode::Wrap.apply(coord + i64::from(size), size);
        assert_eq!(a, b);
    }
}

#[test]
fn mirror_is_periodic_with_double_period() {
    let mut rng = DetRng::new(0x7E_03);
    for _ in 0..CASES {
        let coord = rng.range_between(0, 1000) as i64 - 500;
        let size = rng.range_between(1, 64) as u32;
        let a = AddressMode::Mirror.apply(coord, size);
        let b = AddressMode::Mirror.apply(coord + 2 * i64::from(size), size);
        assert_eq!(a, b);
    }
}

#[test]
fn bilinear_output_within_texel_range() {
    let mut rng = DetRng::new(0x7E_04);
    for _ in 0..64 {
        let uv = any_uv(&mut rng);
        let seed = rng.range(32);
        let mode = any_mode(&mut rng);
        let tex = Texture::with_mips(procedural::checkerboard(32, 32, 4, seed), 0);
        let (color, _addrs) = sample_bilinear(&tex, uv, 0, mode);
        // Filtered value is a convex combination: luma bounded by min/max texel luma.
        let lvl = tex.level(0);
        let (lo, hi) = lvl
            .texels()
            .iter()
            .fold((f32::MAX, f32::MIN), |(lo, hi), t| {
                (lo.min(t.luma()), hi.max(t.luma()))
            });
        assert!(color.luma() >= lo - 1.5 && color.luma() <= hi + 1.5);
    }
}

#[test]
fn trilinear_always_eight_fetches() {
    let mut rng = DetRng::new(0x7E_05);
    let tex = Texture::with_mips(procedural::value_noise(64, 64, 3, 5), 0);
    for _ in 0..CASES {
        let uv = any_uv(&mut rng);
        let lod = f32_in(&mut rng, -1.0, 10.0);
        let mode = any_mode(&mut rng);
        let tap = sample_trilinear(&tex, uv, lod, mode);
        assert_eq!(tap.addresses.len(), 8);
        assert!(tap.lod >= 0.0 && tap.lod <= (tex.mip_count() - 1) as f32);
    }
}

#[test]
fn footprint_invariants() {
    let mut rng = DetRng::new(0x7E_06);
    for _ in 0..CASES {
        let du = f32_in(&mut rng, 0.0001, 0.5);
        let dv = f32_in(&mut rng, 0.0001, 0.5);
        let max_aniso = rng.range_between(1, 17) as u32;
        let fp = Footprint::from_derivatives(
            Vec2::new(du, 0.0),
            Vec2::new(0.0, dv),
            256,
            256,
            max_aniso,
        );
        assert!(fp.n >= 1 && fp.n <= max_aniso);
        assert!(
            fp.af_lod <= fp.tf_lod + 1e-6,
            "AF LOD is never coarser than TF LOD"
        );
        assert!(fp.lod_shift() >= -1e-6);
        assert!(fp.anisotropy >= 1.0);
        assert!(fp.major_len >= fp.minor_len);
    }
}

#[test]
fn footprint_n_le_ceil_anisotropy() {
    let mut rng = DetRng::new(0x7E_07);
    for _ in 0..CASES {
        let du = f32_in(&mut rng, 0.001, 0.3);
        let dv = f32_in(&mut rng, 0.001, 0.3);
        let fp = Footprint::from_derivatives(
            Vec2::new(du, 0.0),
            Vec2::new(0.0, dv),
            512,
            512,
            MAX_ANISO,
        );
        assert!(fp.n as f32 <= fp.anisotropy.ceil().max(1.0));
    }
}

#[test]
fn aniso_texel_fetches_are_8n() {
    let mut rng = DetRng::new(0x7E_08);
    let tex = Texture::with_mips(procedural::bricks(256, 256, 32, 16, 2), 0);
    for _ in 0..64 {
        let uv = any_uv(&mut rng);
        let texels_x = f32_in(&mut rng, 1.0, 40.0);
        let fp = Footprint::from_derivatives(
            Vec2::new(texels_x / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            MAX_ANISO,
        );
        let rec = sample_anisotropic(&tex, uv, &fp, AddressMode::Wrap);
        assert_eq!(rec.taps.len() as u32, fp.n);
        assert_eq!(rec.texel_fetches() as u32, 8 * fp.n);
    }
}

#[test]
fn aniso_color_bounded_by_tap_colors() {
    let mut rng = DetRng::new(0x7E_09);
    let tex = Texture::with_mips(procedural::road(128, 128, 11), 0);
    for _ in 0..64 {
        let uv = any_uv(&mut rng);
        let texels_x = f32_in(&mut rng, 1.0, 20.0);
        let fp = Footprint::from_derivatives(
            Vec2::new(texels_x / 128.0, 0.0),
            Vec2::new(0.0, 1.0 / 128.0),
            128,
            128,
            MAX_ANISO,
        );
        let rec = sample_anisotropic(&tex, uv, &fp, AddressMode::Wrap);
        let (lo, hi) = rec.taps.iter().fold((f32::MAX, f32::MIN), |(lo, hi), t| {
            (lo.min(t.color.luma()), hi.max(t.color.luma()))
        });
        assert!(rec.color.luma() >= lo - 1.5 && rec.color.luma() <= hi + 1.5);
    }
}

#[test]
#[allow(clippy::disallowed_types)] // HashSet is a uniqueness oracle; order unused
fn mip_chain_addresses_never_overlap() {
    for seed in 0..16u64 {
        let tex = Texture::with_mips(procedural::checkerboard(16, 16, 2, seed), 0x4000);
        let mut seen = std::collections::HashSet::new();
        for lvl in 0..tex.mip_count() {
            let l = tex.level(lvl);
            for y in 0..l.height() {
                for x in 0..l.width() {
                    let a = tex.texel_address(lvl, i64::from(x), i64::from(y), AddressMode::Clamp);
                    assert!(seen.insert(a), "duplicate address {a} at level {lvl}");
                }
            }
        }
    }
}

/// The per-texel `AddressMode::apply` formulas without the in-range fast
/// path: the reference the folding shortcuts must reproduce.
fn reference_fold(mode: AddressMode, coord: i64, size: u32) -> u32 {
    let size = i64::from(size);
    let folded = match mode {
        AddressMode::Wrap => coord.rem_euclid(size),
        AddressMode::Clamp => coord.clamp(0, size - 1),
        AddressMode::Mirror => {
            let m = coord.rem_euclid(2 * size);
            if m < size {
                m
            } else {
                2 * size - 1 - m
            }
        }
    };
    folded as u32
}

/// A coordinate near the texture (edges, one period out) or far outside it.
fn any_coord(rng: &mut DetRng, size: u32) -> i64 {
    let size = i64::from(size);
    match rng.range(3) {
        0 => rng.range_between(0, 4 * size as u64 + 4) as i64 - 2 * size - 2,
        1 => rng.range(1 << 40) as i64 - (1 << 39),
        _ => [-1, 0, size - 2, size - 1, size, 2 * size - 1, 2 * size][rng.range(7) as usize],
    }
}

#[test]
fn address_mode_matches_reference_fold() {
    let mut rng = DetRng::new(0x7E_0A);
    for _ in 0..4 * CASES {
        let size = rng.range_between(1, 300) as u32;
        let coord = any_coord(&mut rng, size);
        for mode in [AddressMode::Wrap, AddressMode::Clamp, AddressMode::Mirror] {
            assert_eq!(
                mode.apply(coord, size),
                reference_fold(mode, coord, size),
                "{mode:?} coord {coord} size {size}"
            );
        }
    }
}

#[test]
fn fused_quad_matches_per_texel_lookups() {
    let mut rng = DetRng::new(0x7E_0B);
    // 1×1, non-square power-of-two, and non-power-of-two levels (whose mip
    // chains add odd sizes of their own).
    let textures = [
        Texture::with_mips(procedural::checkerboard(1, 1, 1, 3), 0x40),
        Texture::with_mips(procedural::checkerboard(64, 16, 4, 5), 0x1000),
        Texture::with_mips(procedural::checkerboard(37, 23, 3, 7), 0x9000),
        Texture::single_level(procedural::checkerboard(5, 1, 1, 9), 0),
    ];
    for tex in &textures {
        for _ in 0..CASES {
            let level = rng.range(u64::from(tex.mip_count()) + 1) as u32;
            let lvl = tex.level(level);
            let x0 = any_coord(&mut rng, lvl.width());
            let y0 = any_coord(&mut rng, lvl.height());
            for mode in [AddressMode::Wrap, AddressMode::Clamp, AddressMode::Mirror] {
                let coords = [(x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)];
                let (texels, addrs) = tex.bilinear_quad(level, x0, y0, mode);
                assert_eq!(tex.bilinear_quad_addresses(level, x0, y0, mode), addrs);
                for (i, &(x, y)) in coords.iter().enumerate() {
                    let context = format!("{mode:?} level {level} texel ({x}, {y})");
                    assert_eq!(texels[i], tex.texel(level, x, y, mode), "{context}");
                    assert_eq!(addrs[i], tex.texel_address(level, x, y, mode), "{context}");
                }
            }
        }
    }
}

#[test]
fn bilinear_sample_matches_per_texel_reference() {
    let mut rng = DetRng::new(0x7E_0C);
    let tex = Texture::with_mips(procedural::checkerboard(37, 23, 3, 7), 0x9000);
    for _ in 0..CASES {
        let level = rng.range(u64::from(tex.mip_count())) as u32;
        // Mostly near the unit square, sometimes many repeats away.
        let span = if rng.chance(0.25) { 4096.0 } else { 2.0 };
        let uv = Vec2::new(f32_in(&mut rng, -span, span), f32_in(&mut rng, -span, span));
        let mode = any_mode(&mut rng);

        let lvl = tex.level(level);
        let x = uv.x * lvl.width() as f32 - 0.5;
        let y = uv.y * lvl.height() as f32 - 0.5;
        let (fx, fy) = (x - x.floor(), y - y.floor());
        let (x0, y0) = (x.floor() as i64, y.floor() as i64);
        let coords = [(x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)];
        let weights = [
            (1.0 - fx) * (1.0 - fy),
            fx * (1.0 - fy),
            (1.0 - fx) * fy,
            fx * fy,
        ];
        let mut taps = [(Rgba8::BLACK, 0.0f32); 4];
        for (tap, (&(cx, cy), &w)) in taps.iter_mut().zip(coords.iter().zip(&weights)) {
            *tap = (tex.texel(level, cx, cy, mode), w);
        }
        let expected: Vec<TexelAddress> = coords
            .iter()
            .map(|&(cx, cy)| tex.texel_address(level, cx, cy, mode))
            .collect();

        let (color, addrs) = sample_bilinear(&tex, uv, level, mode);
        assert_eq!(color, Rgba8::weighted_sum(&taps), "uv {uv:?} {mode:?}");
        assert_eq!(addrs.to_vec(), expected, "uv {uv:?} {mode:?}");
        assert_eq!(bilinear_addresses(&tex, uv, level, mode), addrs);
    }
}

#[test]
fn average_matches_uniform_weighted_sum() {
    let mut rng = DetRng::new(0x7E_0D);
    for _ in 0..CASES {
        let n = rng.range_between(1, 17) as usize;
        let texels: Vec<Rgba8> = (0..n)
            .map(|_| Rgba8::from(rng.next_u32().to_le_bytes()))
            .collect();
        let w = 1.0 / n as f32;
        let weighted: Vec<(Rgba8, f32)> = texels.iter().map(|&t| (t, w)).collect();
        assert_eq!(Rgba8::average(&texels), Rgba8::weighted_sum(&weighted));
    }
}
