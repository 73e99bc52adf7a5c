//! Property-based tests for the cache, DRAM and timing models, driven by
//! the workspace's deterministic generator (`DetRng`): each test sweeps a
//! fixed-seed randomized sample of the input space, so any failure
//! reproduces bit-for-bit from the test name alone.

use patu_gmath::DetRng;
use patu_gpu::{Cache, Dram, FrameTimer, GpuConfig, MemorySystem, TextureRequest, TextureUnit};
use patu_texture::TexelAddress;

const SWEEPS: usize = 48;

fn addr_stream(rng: &mut DetRng) -> Vec<u64> {
    let len = rng.range_between(1, 200) as usize;
    (0..len).map(|_| rng.range(1 << 20)).collect()
}

#[test]
fn cache_same_line_hits_after_any_fill() {
    let mut rng = DetRng::new(0x9_01);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let probe = rng.range(1 << 20);
        let mut c = Cache::new(16 * 1024, 4, 64);
        for a in addrs {
            c.access(TexelAddress::new(a));
        }
        // After touching a line it must be resident immediately after.
        c.access(TexelAddress::new(probe));
        assert!(c.probe(TexelAddress::new(probe)));
    }
}

#[test]
fn cache_stats_consistent() {
    let mut rng = DetRng::new(0x9_02);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let mut c = Cache::new(4 * 1024, 2, 64);
        for a in &addrs {
            c.access(TexelAddress::new(*a));
        }
        let s = c.stats();
        assert_eq!(s.accesses, addrs.len() as u64);
        assert!(s.hits <= s.accesses);
        assert!(s.hit_rate() <= 1.0);
    }
}

#[test]
fn bigger_cache_never_fewer_hits_on_repeat_pass() {
    let mut rng = DetRng::new(0x9_03);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        // Two passes over the same stream: the second pass's hits measure
        // retained working set, which can only grow with capacity under
        // the same associativity and LRU.
        let run = |bytes: u64| {
            let mut c = Cache::new(bytes, 4, 64);
            for a in &addrs {
                c.access(TexelAddress::new(*a));
            }
            let before = c.stats().hits;
            for a in &addrs {
                c.access(TexelAddress::new(*a));
            }
            c.stats().hits - before
        };
        assert!(run(64 * 1024) >= run(8 * 1024));
    }
}

/// The nested-`Vec` LRU cache the flat [`Cache`] replaced, kept verbatim
/// (division-based set/tag split, per-way valid bit, `min_by_key` victim)
/// as the reference model for the oracle sweep below.
mod reference {
    use patu_gpu::CacheStats;
    use patu_texture::TexelAddress;

    #[derive(Clone, Copy)]
    struct Way {
        tag: u64,
        last_used: u64,
        valid: bool,
    }

    pub struct NestedLruCache {
        sets: Vec<Vec<Way>>,
        num_sets: u64,
        line_size: u64,
        clock: u64,
        stats: CacheStats,
    }

    impl NestedLruCache {
        pub fn new(size_bytes: u64, ways: u32, line_size: u64) -> NestedLruCache {
            let num_sets = size_bytes / (u64::from(ways) * line_size);
            let empty = Way {
                tag: 0,
                last_used: 0,
                valid: false,
            };
            NestedLruCache {
                sets: vec![vec![empty; ways as usize]; num_sets as usize],
                num_sets,
                line_size,
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn split(&self, addr: TexelAddress) -> (usize, u64) {
            let line = addr.cache_line(self.line_size);
            ((line % self.num_sets) as usize, line / self.num_sets)
        }

        pub fn access(&mut self, addr: TexelAddress) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let (set_idx, tag) = self.split(addr);
            let set = &mut self.sets[set_idx];
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.last_used = self.clock;
                self.stats.hits += 1;
                return true;
            }
            if let Some(victim) = set
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_used } else { 0 })
            {
                victim.tag = tag;
                victim.valid = true;
                victim.last_used = self.clock;
            }
            false
        }

        pub fn probe(&self, addr: TexelAddress) -> bool {
            let (set_idx, tag) = self.split(addr);
            self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
        }

        pub fn invalidate_line(&mut self, addr: TexelAddress) -> bool {
            let (set_idx, tag) = self.split(addr);
            if let Some(way) = self.sets[set_idx]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)
            {
                way.valid = false;
                return true;
            }
            false
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn reset(&mut self) {
            for set in &mut self.sets {
                for way in set.iter_mut() {
                    way.valid = false;
                }
            }
            self.clock = 0;
            self.stats = CacheStats::default();
        }
    }
}

#[test]
fn flat_cache_matches_nested_lru_reference() {
    // (size_bytes, ways, line_size): fully associative 1 × 16, direct
    // mapped, Table I's L1 and L2, the 4-cluster L2 shard, odd
    // associativity and small/large lines.
    let geometries = [
        (1024, 16, 64),
        (512, 1, 32),
        (16 * 1024, 4, 64),
        (128 * 1024, 8, 64),
        (32 * 1024, 8, 64),
        (3 * 8 * 64, 3, 64),
        (4096, 2, 128),
        (256, 2, 16),
    ];
    let mut rng = DetRng::new(0x9_09);
    for (size, ways, line) in geometries {
        for _ in 0..8 {
            let mut flat = Cache::try_new(size, ways, line).unwrap();
            let mut oracle = reference::NestedLruCache::new(size, ways, line);
            // Addresses over ~4× the capacity: a mix of hits, conflict and
            // capacity misses.
            let span = 4 * size;
            let mut hits = 0;
            for step in 0..2_000 {
                let addr = TexelAddress::new(rng.range(span));
                let context = format!("geometry {size}/{ways}/{line}, step {step}");
                match rng.range(100) {
                    0..=79 => {
                        let hit = flat.access(addr);
                        assert_eq!(hit, oracle.access(addr), "{context}");
                        hits += u32::from(hit);
                    }
                    80..=89 => assert_eq!(flat.probe(addr), oracle.probe(addr), "{context}"),
                    90..=98 => assert_eq!(
                        flat.invalidate_line(addr),
                        oracle.invalidate_line(addr),
                        "{context}"
                    ),
                    _ => {
                        flat.reset();
                        oracle.reset();
                    }
                }
                assert_eq!(flat.stats(), oracle.stats(), "{context}");
            }
            assert!(hits > 0, "the stream exercised hits");
        }
    }
}

#[test]
fn dram_latency_positive_and_bounded() {
    let mut rng = DetRng::new(0x9_04);
    let cfg = GpuConfig::default();
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let mut d = Dram::new(&cfg);
        for (now, a) in addrs.iter().enumerate() {
            let lat = d.read(TexelAddress::new(*a), now as u64);
            assert!(lat >= cfg.dram_row_hit_cycles);
            // Bounded by worst queueing: all prior requests on one channel.
            assert!(lat < 1_000_000);
        }
        assert_eq!(d.stats().reads, addrs.len() as u64);
    }
}

#[test]
fn dram_row_hits_never_exceed_reads() {
    let mut rng = DetRng::new(0x9_05);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let mut d = Dram::new(&GpuConfig::default());
        for (i, a) in addrs.iter().enumerate() {
            let _ = d.read(TexelAddress::new(*a), i as u64 * 10);
        }
        assert!(d.stats().row_hits <= d.stats().reads);
        assert_eq!(d.stats().bytes, addrs.len() as u64 * 64);
    }
}

#[test]
fn memsys_latency_hierarchy() {
    let mut rng = DetRng::new(0x9_06);
    let cfg = GpuConfig::default();
    for _ in 0..SWEEPS {
        let addr = rng.range(1 << 24);
        let mut m = MemorySystem::new(&cfg);
        let cold = m.fetch_texel(0, TexelAddress::new(addr), 0);
        let warm = m.fetch_texel(0, TexelAddress::new(addr), 1_000);
        let other_cluster = m.fetch_texel(1, TexelAddress::new(addr), 2_000);
        assert!(warm <= other_cluster, "L1 <= L2");
        assert!(other_cluster <= cold, "L2 <= DRAM");
    }
}

#[test]
fn texture_unit_latency_scales_with_taps() {
    let cfg = GpuConfig::default();
    for n in 1usize..=16 {
        let mut tu = TextureUnit::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        let taps: Vec<Vec<TexelAddress>> = (0..n)
            .map(|i| {
                (0..8)
                    .map(|j| TexelAddress::new((i * 64 + j * 4) as u64))
                    .collect()
            })
            .collect();
        let req = TextureRequest::new(taps);
        let t = tu.process(&req, &mut mem, 0);
        // At least the filter throughput cost.
        assert!(t.latency >= (n as u64) * u64::from(cfg.cycles_per_trilinear));
        assert_eq!(t.completion, t.latency);
    }
}

#[test]
fn frame_timer_monotone() {
    let mut rng = DetRng::new(0x9_07);
    for _ in 0..SWEEPS {
        let tiles = rng.range_between(1, 60) as usize;
        let mut timer = FrameTimer::new(&GpuConfig::default());
        let mut last_frame = 0;
        for _ in 0..tiles {
            let shade = rng.range(5_000);
            let texture_extra = rng.range(5_000);
            let (cluster, start) = timer.begin_tile();
            timer.end_tile(cluster, shade, start + texture_extra);
            let f = timer.frame_cycles();
            assert!(f >= last_frame, "frame time never decreases");
            last_frame = f;
        }
    }
}

#[test]
fn shading_cycles_linear_bounds() {
    let mut rng = DetRng::new(0x9_08);
    let cfg = GpuConfig::default();
    let timer = FrameTimer::new(&cfg);
    let lanes = u64::from(cfg.shaders_per_cluster * cfg.simd_width);
    for _ in 0..512 {
        let frags = rng.range(1_000_000);
        let cycles = timer.shading_cycles(frags);
        if let Some(per_cycle) = lanes
            .checked_div(u64::from(cfg.shader_ops_per_fragment))
            .filter(|&p| p > 0)
        {
            assert!(cycles >= frags / per_cycle);
            assert!(cycles <= frags / per_cycle + 1);
        }
    }
}
