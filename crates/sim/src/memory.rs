//! Functional memory: sparse paged global memory and per-CTA shared
//! memory.

use std::collections::HashMap;

use crate::bits;

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Offset of `addr` within its page.
fn page_offset(addr: u64) -> usize {
    (addr as usize) & (PAGE_BYTES - 1)
}

/// Words from page offset `off` to the end of the page; 0 when the
/// word at `off` straddles the boundary.
fn words_left(off: usize) -> usize {
    (PAGE_BYTES - off) / 4
}

/// Sparse byte-addressable global memory.
///
/// Pages are allocated on first touch and zero-initialized, so kernels
/// can read unwritten memory deterministically. A word that fits in
/// one page costs one page lookup; a word straddling two pages goes
/// byte by byte, and addresses wrap modulo 2^64 (a word at
/// `u64::MAX - 1` ends in bytes 0 and 1).
///
/// # Examples
///
/// ```
/// use gscalar_sim::memory::GlobalMemory;
///
/// let mut m = GlobalMemory::new();
/// m.write_u32(0x1000, 0xDEAD_BEEF);
/// assert_eq!(m.read_u32(0x1000), 0xDEAD_BEEF);
/// assert_eq!(m.read_u32(0x2000), 0); // untouched memory reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    pages: HashMap<u64, Box<[u8; PAGE_BYTES]>>,
}

impl GlobalMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_BYTES]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES]))
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[page_offset(addr)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[page_offset(addr)] = v;
    }

    /// Reads a little-endian `u32` (no alignment needed).
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let off = page_offset(addr);
        if words_left(off) > 0 {
            return self.page(addr).map_or(0, |p| word(&p[off..]));
        }
        let mut bytes = [0u8; 4];
        for (i, b) in (0u64..).zip(&mut bytes) {
            *b = self.read_u8(addr.wrapping_add(i));
        }
        u32::from_le_bytes(bytes)
    }

    /// Writes a little-endian `u32` (no alignment needed).
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        let off = page_offset(addr);
        if words_left(off) > 0 {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&v.to_le_bytes());
            return;
        }
        for (i, b) in (0u64..).zip(v.to_le_bytes()) {
            self.write_u8(addr.wrapping_add(i), b);
        }
    }

    /// Reads an `f32` stored as IEEE-754 bits.
    #[must_use]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` as IEEE-754 bits.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Bulk-writes a `u32` slice starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        self.write_words(addr, values, |v| v);
    }

    /// Bulk-writes an `f32` slice starting at `addr`.
    pub fn write_f32_slice(&mut self, addr: u64, values: &[f32]) {
        self.write_words(addr, values, f32::to_bits);
    }

    /// Writes `values` as consecutive words from `addr`, looking each
    /// page up once per run of words that fits in it.
    fn write_words<T: Copy>(&mut self, mut addr: u64, mut values: &[T], bits: fn(T) -> u32) {
        while let Some(&first) = values.first() {
            let off = page_offset(addr);
            let run = words_left(off).min(values.len());
            if run == 0 {
                self.write_u32(addr, bits(first));
                values = &values[1..];
                addr = addr.wrapping_add(4);
                continue;
            }
            let page = &mut self.page_mut(addr)[off..off + 4 * run];
            for (dst, &v) in page.chunks_exact_mut(4).zip(&values[..run]) {
                dst.copy_from_slice(&bits(v).to_le_bytes());
            }
            values = &values[run..];
            addr = addr.wrapping_add(4 * run as u64);
        }
    }

    /// Bulk-reads `n` `u32`s starting at `addr`, looking each page up
    /// once per run of words that fits in it.
    #[must_use]
    pub fn read_u32_slice(&self, mut addr: u64, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let off = page_offset(addr);
            let run = words_left(off).min(n - out.len());
            if run == 0 {
                out.push(self.read_u32(addr));
                addr = addr.wrapping_add(4);
                continue;
            }
            match self.page(addr) {
                Some(p) => out.extend(p[off..off + 4 * run].chunks_exact(4).map(word)),
                None => out.resize(out.len() + run, 0),
            }
            addr = addr.wrapping_add(4 * run as u64);
        }
        out
    }

    /// Reads the word at `addrs[lane]` into `out[lane]` for each lane
    /// of `mask`, in lane order, looking each page up once per run of
    /// consecutive active lanes whose words lie in it. Other lanes of
    /// `out` are left alone.
    ///
    /// # Panics
    ///
    /// Panics if `mask` selects a lane outside `addrs` or `out`.
    pub fn read_lanes(&self, addrs: &[u64], mask: u64, out: &mut [u32]) {
        let mut lanes = mask;
        while lanes != 0 {
            let Some((page, run)) = page_run(addrs, &mut lanes) else {
                // A straddling word: byte by byte.
                let lane = lanes.trailing_zeros() as usize;
                out[lane] = self.read_u32(addrs[lane]);
                lanes &= lanes - 1;
                continue;
            };
            let page = self.page(page << PAGE_SHIFT);
            for lane in bits(run) {
                let off = page_offset(addrs[lane]);
                out[lane] = page.map_or(0, |p| word(&p[off..]));
            }
        }
    }

    /// Writes `values[lane]` to the word at `addrs[lane]` for each lane
    /// of `mask`, in lane order (a later lane's bytes win where words
    /// overlap), looking each page up once per run of consecutive
    /// active lanes whose words lie in it.
    ///
    /// # Panics
    ///
    /// Panics if `mask` selects a lane outside `addrs` or `values`.
    pub fn write_lanes(&mut self, addrs: &[u64], mask: u64, values: &[u32]) {
        let mut lanes = mask;
        while lanes != 0 {
            let Some((page, run)) = page_run(addrs, &mut lanes) else {
                let lane = lanes.trailing_zeros() as usize;
                self.write_u32(addrs[lane], values[lane]);
                lanes &= lanes - 1;
                continue;
            };
            let page = self.page_mut(page << PAGE_SHIFT);
            for lane in bits(run) {
                let off = page_offset(addrs[lane]);
                page[off..off + 4].copy_from_slice(&values[lane].to_le_bytes());
            }
        }
    }

    /// Number of resident (touched) pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The lowest address where `self` and `other` differ, or `None`
    /// when all bytes match (untouched pages compare as zero).
    #[must_use]
    pub fn first_difference(&self, other: &GlobalMemory) -> Option<u64> {
        let mut pages: Vec<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        const ZERO: [u8; PAGE_BYTES] = [0u8; PAGE_BYTES];
        for p in pages {
            let a = self.pages.get(&p).map_or(&ZERO, |b| &**b);
            let b = other.pages.get(&p).map_or(&ZERO, |b| &**b);
            if a != b {
                let off = a
                    .iter()
                    .zip(b.iter())
                    .position(|(x, y)| x != y)
                    .expect("pages differ");
                return Some((p << PAGE_SHIFT) + off as u64);
            }
        }
        None
    }

    /// Whether two memories hold identical contents.
    #[must_use]
    pub fn content_eq(&self, other: &GlobalMemory) -> bool {
        self.first_difference(other).is_none()
    }
}

/// Splits off the run of lowest lanes in `lanes` whose words lie
/// within one page: returns that page's number and the run's lanes,
/// and clears them from `lanes`. `None` (with `lanes` untouched) when
/// the lowest lane's word straddles a page boundary.
fn page_run(addrs: &[u64], lanes: &mut u64) -> Option<(u64, u64)> {
    let mut run = 0u64;
    let mut page = None;
    for lane in bits(*lanes) {
        let a = addrs[lane];
        if words_left(page_offset(a)) == 0 || page.is_some_and(|p| p != a >> PAGE_SHIFT) {
            break;
        }
        page = Some(a >> PAGE_SHIFT);
        run |= 1 << lane;
    }
    *lanes &= !run;
    page.map(|p| (p, run))
}

/// The little-endian word in the first four bytes of `b`.
fn word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Per-CTA shared memory (word-addressed scratchpad).
#[derive(Debug, Clone)]
pub struct SharedMemory {
    bytes: Vec<u8>,
}

impl SharedMemory {
    /// Creates a zeroed scratchpad of `size` bytes.
    #[must_use]
    pub fn new(size: u32) -> Self {
        SharedMemory {
            bytes: vec![0; size as usize],
        }
    }

    /// Reads a `u32`; out-of-range addresses read zero (hardware would
    /// raise a fault, but workloads in this suite never do this — the
    /// lenient behavior keeps partial warps simple).
    #[must_use]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        if a + 4 > self.bytes.len() {
            return 0;
        }
        u32::from_le_bytes([
            self.bytes[a],
            self.bytes[a + 1],
            self.bytes[a + 2],
            self.bytes[a + 3],
        ])
    }

    /// Writes a `u32`; out-of-range writes are dropped.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let a = addr as usize;
        if a + 4 > self.bytes.len() {
            return;
        }
        self.bytes[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the scratchpad has zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = GlobalMemory::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMemory::new();
        m.write_u32(100, 0x0102_0304);
        assert_eq!(m.read_u32(100), 0x0102_0304);
        assert_eq!(m.read_u8(100), 0x04); // little endian
        assert_eq!(m.read_u8(103), 0x01);
    }

    #[test]
    fn cross_page_access() {
        let mut m = GlobalMemory::new();
        let addr = (PAGE_BYTES as u64) - 2;
        m.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(m.read_u32(addr), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn top_of_address_space_wraps() {
        let mut m = GlobalMemory::new();
        m.write_u32(u64::MAX - 1, 0xAABB_CCDD);
        assert_eq!(m.read_u32(u64::MAX - 1), 0xAABB_CCDD);
        assert_eq!(m.read_u8(u64::MAX), 0xCC);
        assert_eq!(m.read_u8(0), 0xBB);
        assert_eq!(m.read_u8(1), 0xAA);
        m.write_u32_slice(u64::MAX - 3, &[1, 2]);
        assert_eq!(m.read_u32_slice(u64::MAX - 3, 2), vec![1, 2]);
        assert_eq!(m.read_u32(0), 2);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn float_helpers() {
        let mut m = GlobalMemory::new();
        m.write_f32(0x40, 3.5);
        assert_eq!(m.read_f32(0x40), 3.5);
        m.write_f32_slice(0x100, &[1.0, 2.0]);
        assert_eq!(m.read_f32(0x104), 2.0);
    }

    #[test]
    fn slice_helpers() {
        let mut m = GlobalMemory::new();
        m.write_u32_slice(0x200, &[1, 2, 3]);
        assert_eq!(m.read_u32_slice(0x200, 3), vec![1, 2, 3]);
    }

    #[test]
    fn content_comparison() {
        let mut a = GlobalMemory::new();
        let mut b = GlobalMemory::new();
        assert!(a.content_eq(&b));
        a.write_u32(0x100, 5);
        assert_eq!(a.first_difference(&b), Some(0x100));
        b.write_u32(0x100, 5);
        assert!(a.content_eq(&b));
        // A touched-but-zero page equals an untouched one.
        a.write_u32(0x5000, 0);
        assert!(a.content_eq(&b));
        b.write_u32(0x5002, 9);
        assert_eq!(a.first_difference(&b), Some(0x5002));
    }

    #[test]
    fn shared_memory_bounds() {
        let mut s = SharedMemory::new(16);
        s.write_u32(0, 7);
        s.write_u32(12, 9);
        assert_eq!(s.read_u32(0), 7);
        assert_eq!(s.read_u32(12), 9);
        // Out of range: dropped / zero.
        s.write_u32(14, 1);
        assert_eq!(s.read_u32(14), 0);
        assert_eq!(s.len(), 16);
    }
}
