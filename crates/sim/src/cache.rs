//! A generic set-associative cache tag model with LRU replacement.
//!
//! Only tags are modeled — data always comes from the functional
//! [`GlobalMemory`](crate::memory::GlobalMemory) — so the cache decides
//! *timing and energy*, not values.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; allocated if the access allocates.
    Miss,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// A set-associative LRU cache tag array.
///
/// # Examples
///
/// ```
/// use gscalar_sim::cache::{Cache, CacheOutcome};
///
/// let mut c = Cache::new(1024, 2, 128);
/// assert_eq!(c.access(0, 1, true), CacheOutcome::Miss);
/// assert_eq!(c.access(0, 2, true), CacheOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_bytes: usize,
    lines: Vec<Line>,
}

/// The geometry of one cache: an SM's L1, or one L2 partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Capacity in bytes.
    pub bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Whether [`Cache::new`] accepts the geometry: every parameter is
    /// nonzero and the lines split evenly into at least one set of
    /// `ways`.
    #[must_use]
    pub fn divides(self) -> bool {
        let lines = self.bytes / self.line_bytes.max(1);
        self.bytes > 0
            && self.ways > 0
            && self.line_bytes > 0
            && self.bytes.is_multiple_of(self.line_bytes)
            && lines >= self.ways
            && lines.is_multiple_of(self.ways)
    }
}

impl std::fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} bytes, {} ways, {}-byte lines",
            self.bytes, self.ways, self.line_bytes
        )
    }
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or any parameter
    /// is zero.
    #[must_use]
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        let geometry = CacheGeometry {
            bytes: size_bytes,
            ways,
            line_bytes,
        };
        assert!(geometry.divides(), "cache geometry must divide evenly");
        let lines_total = size_bytes / line_bytes;
        let sets = lines_total / ways;
        Cache {
            sets,
            ways,
            line_bytes,
            lines: vec![Line::default(); lines_total],
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Accesses `addr` at time `now`; allocates the line on miss when
    /// `allocate` is true. Returns hit/miss.
    pub fn access(&mut self, addr: u64, now: u64, allocate: bool) -> CacheOutcome {
        let line_addr = addr / self.line_bytes as u64;
        let set = (line_addr % self.sets as u64) as usize;
        let tag = line_addr / self.sets as u64;
        let base = set * self.ways;
        let set_lines = &mut self.lines[base..base + self.ways];
        if let Some(l) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.last_use = now;
            return CacheOutcome::Hit;
        }
        if allocate {
            let victim = set_lines
                .iter_mut()
                .min_by_key(|l| if l.valid { l.last_use + 1 } else { 0 })
                .expect("ways > 0");
            victim.valid = true;
            victim.tag = tag;
            victim.last_use = now;
        }
        CacheOutcome::Miss
    }

    /// Whether `addr`'s line is currently resident (no LRU update).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = addr / self.line_bytes as u64;
        let set = (line_addr % self.sets as u64) as usize;
        let tag = line_addr / self.sets as u64;
        let base = set * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_allocate() {
        let mut c = Cache::new(1024, 2, 128); // 4 sets
        assert_eq!(c.access(0, 1, true), CacheOutcome::Miss);
        assert_eq!(c.access(64, 2, true), CacheOutcome::Hit); // same line
        assert_eq!(c.access(128, 3, true), CacheOutcome::Miss); // next set
    }

    #[test]
    fn no_allocate_stays_cold() {
        let mut c = Cache::new(1024, 2, 128);
        assert_eq!(c.access(0, 1, false), CacheOutcome::Miss);
        assert_eq!(c.access(0, 2, true), CacheOutcome::Miss);
        assert_eq!(c.access(0, 3, true), CacheOutcome::Hit);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set, 2 ways, 128B lines = 256 bytes.
        let mut c = Cache::new(256, 2, 128);
        // Lines A, B fill the set; C evicts A (older).
        let a = 0u64;
        let b = 128;
        let c_addr = 256;
        c.access(a, 1, true);
        c.access(b, 2, true);
        c.access(c_addr, 3, true);
        assert!(!c.probe(a));
        assert!(c.probe(b));
        assert!(c.probe(c_addr));
        // Touch B, then D evicts C.
        c.access(b, 4, true);
        c.access(384, 5, true);
        assert!(c.probe(b));
        assert!(!c.probe(c_addr));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = Cache::new(256, 2, 128);
        c.access(0, 1, true);
        assert!(c.probe(0));
        c.flush();
        assert!(!c.probe(0));
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(300, 2, 128);
    }
}
