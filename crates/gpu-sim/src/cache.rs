//! Set-associative L2 cache model with LRU replacement.
//!
//! The L2 is shared by all SMs and is probed at sector granularity (a line
//! holds 4 sectors of 32 B; we track whole 128 B lines, which matches how
//! NVIDIA's L2 allocates). The tree-size sweeps of Figures 7/10/15/16 get
//! their small-tree/large-tree regimes from this model: a 64 Ki-entry tree
//! fits in L2, a 16 Mi-entry tree does not.
//!
//! Each set keeps its tags in recency order, most recently used first: a
//! hit rotates its way to the front, a miss rotates the new tag in at the
//! front and drops the last way. Invalid ways start at the back, so they
//! fill before any valid line is evicted, and the evicted line is always
//! the least recently used one. That is exactly LRU, with no use stamps to
//! store or scan: one 8-byte tag per way is the whole state
//! (`tests/simulator_laws.rs` checks it against a stamp-LRU reference).

use crate::config::CacheConfig;

/// A set-associative, LRU, write-allocate cache.
#[derive(Debug)]
pub struct Cache {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    /// `tags[set * ways..][..ways]` = the set's line tags, most recently
    /// used first; `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache from its configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        let lines = (cfg.size_bytes / cfg.line_bytes).max(1);
        let ways = cfg.ways.min(lines).max(1);
        let sets = (lines / ways).max(1);
        Cache {
            line_bytes: cfg.line_bytes as u64,
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Probe the line containing byte address `addr`; allocate on miss.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let base = (line % self.sets as u64) as usize * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line) {
            slots[..=way].rotate_right(1);
            self.hits = self.hits.saturating_add(1);
            return true;
        }
        // Miss: the last way is the least recently used one (or invalid).
        self.misses = self.misses.saturating_add(1);
        slots.rotate_right(1);
        slots[0] = line;
        false
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in [0, 1]; 0 if no accesses yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn small() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 1024, // 8 lines of 128 B
            line_bytes: 128,
            ways: 2,
            hit_latency_ns: 10.0,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(64)); // same 128 B line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn working_set_within_capacity_all_hits_on_second_pass() {
        let mut c = small();
        for i in 0..8u64 {
            c.access(i * 128);
        }
        let misses_before = c.misses();
        for i in 0..8u64 {
            assert!(c.access(i * 128), "line {i} should hit");
        }
        assert_eq!(c.misses(), misses_before);
    }

    #[test]
    fn thrashing_beyond_capacity_misses() {
        let mut c = small();
        // 32 lines > 8-line capacity, cyclic access = ~0% hit rate with LRU.
        for _pass in 0..3 {
            for i in 0..32u64 {
                c.access(i * 128);
            }
        }
        assert!(c.hit_rate() < 0.05, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = small();
        // Two lines mapping to the same set (set = line % 4 sets).
        let a = 0u64; // line 0, set 0
        let b = 4 * 128; // line 4, set 0
        let d = 8 * 128; // line 8, set 0
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b (LRU)
        assert!(c.access(a), "hot line evicted");
        assert!(!c.access(b), "cold line should have been evicted");
    }

    #[test]
    fn hit_rate_zero_without_accesses() {
        assert_eq!(small().hit_rate(), 0.0);
    }
}
