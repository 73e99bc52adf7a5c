//! A set-associative cache with true LRU replacement.
//!
//! Used for the per-cluster texture L1 and the shared L2 (Table I). The cache
//! tracks real tag state, so locality effects — including the extra reuse
//! PATU creates by sampling approximated pixels from AF's mip level
//! (Sec. V-C(2)) — show up as measured hit-rate changes, not assumptions.

use patu_texture::TexelAddress;

/// Hit/miss counters for one cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, write-allocate, LRU cache over byte addresses.
///
/// Tag state is two flat, set-major arrays: the resident line number of
/// every way and its LRU stamp (the access clock at its last use). Stamp 0
/// marks an empty way — the clock is at least 1 once anything is filled —
/// so a miss fills the first way with the smallest stamp: the first empty
/// way, else the least recently used. Line size and set count are powers
/// of two, so the line is a shift and the set a mask; the stored tag is
/// the whole line number.
///
/// ```
/// use patu_gpu::Cache;
/// use patu_texture::TexelAddress;
/// let mut c = Cache::new(1024, 2, 64);
/// assert!(!c.access(TexelAddress::new(0)));
/// assert!(c.access(TexelAddress::new(32)), "same 64B line");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity and
    /// `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `size_bytes` is not divisible into
    /// at least one full set (`ways * line_size`), or the line size or set
    /// count is not a power of two. Use [`Cache::try_new`] for a
    /// non-panicking variant.
    pub fn new(size_bytes: u64, ways: u32, line_size: u64) -> Cache {
        assert!(
            size_bytes > 0 && ways > 0 && line_size > 0,
            "cache parameters must be positive"
        );
        let num_sets = size_bytes / (u64::from(ways) * line_size);
        assert!(num_sets > 0, "cache too small for its associativity");
        assert!(
            line_size.is_power_of_two() && num_sets.is_power_of_two(),
            "cache line size and set count must be powers of two"
        );
        let slots = (num_sets * u64::from(ways)) as usize;
        Cache {
            tags: vec![0; slots],
            stamps: vec![0; slots],
            ways: ways as usize,
            line_shift: line_size.trailing_zeros(),
            set_mask: num_sets - 1,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Like [`Cache::new`] but reports degenerate geometry as a typed error
    /// instead of panicking.
    pub fn try_new(size_bytes: u64, ways: u32, line_size: u64) -> Result<Cache, crate::GpuError> {
        let err = crate::GpuError::InvalidCacheGeometry {
            size_bytes,
            ways,
            line_size,
        };
        if size_bytes == 0 || ways == 0 || line_size == 0 {
            return Err(err);
        }
        let num_sets = size_bytes / (u64::from(ways) * line_size);
        if num_sets == 0 || !num_sets.is_power_of_two() || !line_size.is_power_of_two() {
            return Err(err);
        }
        Ok(Cache::new(size_bytes, ways, line_size))
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        1 << self.line_shift
    }

    /// The line number of `addr` and the index of its set's first way.
    #[inline]
    fn locate(&self, addr: TexelAddress) -> (u64, usize) {
        let line = addr.as_u64() >> self.line_shift;
        (line, (line & self.set_mask) as usize * self.ways)
    }

    /// Slot of the resident way holding `line` in the set starting at
    /// `base`, if any.
    #[inline]
    fn find(&self, line: u64, base: usize) -> Option<usize> {
        (base..base + self.ways).find(|&i| self.tags[i] == line && self.stamps[i] != 0)
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: TexelAddress) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (line, base) = self.locate(addr);
        if let Some(i) = self.find(line, base) {
            self.stamps[i] = self.clock;
            self.stats.hits += 1;
            return true;
        }

        // Miss: fill the first way with the smallest stamp (an empty way
        // has stamp 0, so empties go first, then the LRU way).
        let mut victim = base;
        for i in base + 1..base + self.ways {
            if self.stamps[i] < self.stamps[victim] {
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no stats update).
    pub fn probe(&self, addr: TexelAddress) -> bool {
        let (line, base) = self.locate(addr);
        self.find(line, base).is_some()
    }

    /// Invalidates the line containing `addr` if resident, returning
    /// whether a line was dropped. Models an ECC-detected bit flip: the
    /// corrupted line cannot be served, so the next access refills it from
    /// the level below (keeping hit/miss accounting consistent).
    pub fn invalidate_line(&mut self, addr: TexelAddress) -> bool {
        let (line, base) = self.locate(addr);
        if let Some(i) = self.find(line, base) {
            self.stamps[i] = 0;
            return true;
        }
        false
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.stamps.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u64) -> TexelAddress {
        TexelAddress::new(a)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(addr(0x100)));
        assert!(c.access(addr(0x100)));
        assert!(c.access(addr(0x13F)), "last byte of the same line");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn distinct_lines_conflict_only_within_set() {
        // 2 ways, 8 sets of 64B lines = 1KB.
        let mut c = Cache::new(1024, 2, 64);
        assert_eq!(c.num_sets(), 8);
        // Three lines mapping to set 0: lines 0, 8, 16.
        assert!(!c.access(addr(0)));
        assert!(!c.access(addr(8 * 64)));
        assert!(!c.access(addr(16 * 64))); // evicts LRU = line 0
        assert!(!c.access(addr(0)), "line 0 was evicted");
        assert!(c.probe(addr(16 * 64)));
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0)); // set 0, way A
        c.access(addr(8 * 64)); // set 0, way B
        c.access(addr(0)); // touch A -> B becomes LRU
        c.access(addr(16 * 64)); // evicts B
        assert!(c.probe(addr(0)), "recently used line survives");
        assert!(!c.probe(addr(8 * 64)), "LRU line evicted");
    }

    #[test]
    fn fully_associative_single_set() {
        // 16 ways * 64B = 1024: one set.
        let mut c = Cache::new(1024, 16, 64);
        assert_eq!(c.num_sets(), 1);
        for i in 0..16 {
            assert!(!c.access(addr(i * 64)));
        }
        for i in 0..16 {
            assert!(c.access(addr(i * 64)), "all 16 lines resident");
        }
    }

    #[test]
    fn larger_cache_has_fewer_capacity_misses() {
        let mut small = Cache::new(1024, 4, 64);
        let mut large = Cache::new(4096, 4, 64);
        // Stream over 2KB twice.
        for pass in 0..2 {
            for i in 0..32u64 {
                small.access(addr(i * 64));
                large.access(addr(i * 64));
            }
            let _ = pass;
        }
        assert!(large.stats().hits > small.stats().hits);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0));
        let before = c.stats();
        assert!(c.probe(addr(0)));
        assert!(!c.probe(addr(0x4000)));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0));
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.probe(addr(0)));
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = Cache::new(1024, 2, 64);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(addr(0));
        c.access(addr(0));
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_geometry_panics() {
        let _ = Cache::new(64, 4, 64);
    }

    #[test]
    fn try_new_reports_bad_geometry() {
        assert!(Cache::try_new(64, 4, 64).is_err(), "one set won't fit");
        assert!(Cache::try_new(0, 4, 64).is_err());
        assert!(Cache::try_new(1024, 0, 64).is_err());
        assert!(Cache::try_new(1024, 4, 0).is_err());
        assert!(Cache::try_new(1024, 4, 64).is_ok());
    }

    #[test]
    fn try_new_rejects_non_power_of_two_geometry() {
        // 3 sets of 2 × 64 B.
        assert!(matches!(
            Cache::try_new(3 * 2 * 64, 2, 64),
            Err(crate::GpuError::InvalidCacheGeometry { .. })
        ));
        // 48-byte lines, 8 sets.
        assert!(matches!(
            Cache::try_new(8 * 2 * 48, 2, 48),
            Err(crate::GpuError::InvalidCacheGeometry { .. })
        ));
        // Non-power-of-two associativity is fine: 3 ways × 8 sets.
        assert_eq!(Cache::try_new(8 * 3 * 64, 3, 64).unwrap().num_sets(), 8);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_sets_panic() {
        let _ = Cache::new(6 * 64, 2, 64);
    }

    #[test]
    fn invalidate_line_forces_refill() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0x100));
        assert!(c.probe(addr(0x100)));
        assert!(c.invalidate_line(addr(0x100)));
        assert!(!c.probe(addr(0x100)), "corrupted line dropped");
        assert!(!c.access(addr(0x100)), "next access misses and refills");
        assert!(!c.invalidate_line(addr(0x4000)), "absent line is a no-op");
    }
}
