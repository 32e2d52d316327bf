//! Execution pipelines: dispatch occupancy and completion timing.

/// A single execution pipeline (one ALU pipe, the SFU pipe, or the LSU).
///
/// Dispatch is the scarce resource: a warp occupies the dispatch port
/// for `ceil(threads / width)` cycles (Section 2.1: 2 cycles on a
/// 16-lane ALU pipe, 8 on the 4-lane SFU). Scalar execution occupies it
/// for a single cycle — the mechanism by which G-Scalar turns an 8-cycle
/// SFU dispatch into 1.
///
/// # Examples
///
/// ```
/// use gscalar_sim::pipeline::Pipe;
///
/// let mut p: Pipe<&str> = Pipe::new(16);
/// assert!(p.can_dispatch(0));
/// p.dispatch(0, 2, 10, "warp0-add"); // 2-cycle occupancy, 10-cycle latency
/// assert!(!p.can_dispatch(1));
/// assert!(p.can_dispatch(2));
/// assert!(p.drain_finished(11).is_empty());
/// assert_eq!(p.drain_finished(12), vec!["warp0-add"]);
/// ```
#[derive(Debug, Clone)]
pub struct Pipe<T> {
    width: usize,
    dispatch_free_at: u64,
    inflight: Vec<(u64, T)>,
    /// Earliest completion time in `inflight` (`u64::MAX` when empty),
    /// so an idle cycle's drain and the SM's sleep check are O(1).
    next_due: u64,
}

impl<T> Pipe<T> {
    /// Creates a pipeline with the given lane width.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Pipe {
            width,
            dispatch_free_at: 0,
            inflight: Vec::new(),
            next_due: u64::MAX,
        }
    }

    /// Lane width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the dispatch port is free at `now`.
    #[must_use]
    pub fn can_dispatch(&self, now: u64) -> bool {
        now >= self.dispatch_free_at
    }

    /// Dispatch occupancy in cycles for `threads` threads executed
    /// vector-style on this pipe.
    #[must_use]
    pub fn occupancy(&self, threads: usize) -> u64 {
        (threads.div_ceil(self.width)).max(1) as u64
    }

    /// Dispatches a warp instruction at `now`, holding the dispatch
    /// port for `occupancy` cycles; `payload` completes (writes back)
    /// after `occupancy + latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the dispatch port is busy — check
    /// [`Pipe::can_dispatch`] first.
    pub fn dispatch(&mut self, now: u64, occupancy: u64, latency: u64, payload: T) {
        assert!(self.can_dispatch(now), "dispatch port busy");
        self.dispatch_free_at = now + occupancy.max(1);
        self.complete_at(now + occupancy.max(1) + latency, payload);
    }

    /// Registers an externally-timed completion (memory instructions,
    /// whose finish time the memory subsystem decides).
    pub fn complete_at(&mut self, when: u64, payload: T) {
        self.next_due = self.next_due.min(when);
        self.inflight.push((when, payload));
    }

    /// Occupies the dispatch port for `occupancy` cycles without
    /// scheduling a completion (used with [`Pipe::complete_at`] for
    /// externally-timed instructions).
    ///
    /// # Panics
    ///
    /// Panics if the dispatch port is busy.
    pub fn reserve_dispatch(&mut self, now: u64, occupancy: u64) {
        assert!(self.can_dispatch(now), "dispatch port busy");
        self.dispatch_free_at = now + occupancy.max(1);
    }

    /// Removes and returns payloads whose completion time has arrived.
    pub fn drain_finished(&mut self, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_finished_into(now, &mut out);
        out
    }

    /// [`Pipe::drain_finished`], appending into a caller-owned buffer.
    /// The per-cycle writeback path reuses one scratch vector across
    /// cycles instead of allocating a fresh `Vec` per pipe per cycle.
    pub fn drain_finished_into(&mut self, now: u64, out: &mut Vec<T>) {
        if now < self.next_due {
            return;
        }
        let mut next_due = u64::MAX;
        let mut i = 0;
        while i < self.inflight.len() {
            let t = self.inflight[i].0;
            if t <= now {
                out.push(self.inflight.swap_remove(i).1);
            } else {
                next_due = next_due.min(t);
                i += 1;
            }
        }
        self.next_due = next_due;
    }

    /// Earliest pending completion time, if any.
    #[must_use]
    pub fn next_completion(&self) -> Option<u64> {
        (!self.inflight.is_empty()).then_some(self.next_due)
    }

    /// Number of in-flight instructions.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_matches_paper_widths() {
        let alu: Pipe<()> = Pipe::new(16);
        assert_eq!(alu.occupancy(32), 2);
        assert_eq!(alu.occupancy(1), 1); // scalar
        let sfu: Pipe<()> = Pipe::new(4);
        assert_eq!(sfu.occupancy(32), 8);
        assert_eq!(sfu.occupancy(1), 1);
    }

    #[test]
    fn dispatch_port_blocks_for_occupancy() {
        let mut p: Pipe<u32> = Pipe::new(4);
        p.dispatch(10, 8, 20, 1);
        assert!(!p.can_dispatch(17));
        assert!(p.can_dispatch(18));
        // Completion at 10 + 8 + 20 = 38.
        assert!(p.drain_finished(37).is_empty());
        assert_eq!(p.drain_finished(38), vec![1]);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn multiple_in_flight_complete_independently() {
        let mut p: Pipe<u32> = Pipe::new(16);
        p.dispatch(0, 1, 5, 1);
        p.dispatch(1, 1, 5, 2);
        p.complete_at(4, 3);
        assert_eq!(p.next_completion(), Some(4));
        assert_eq!(p.drain_finished(4), vec![3]);
        let mut f = p.drain_finished(7);
        f.sort_unstable();
        assert_eq!(f, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "dispatch port busy")]
    fn double_dispatch_panics() {
        let mut p: Pipe<u32> = Pipe::new(16);
        p.dispatch(0, 2, 1, 1);
        p.dispatch(1, 2, 1, 2);
    }

    #[test]
    fn reserve_dispatch_blocks_port_only() {
        let mut p: Pipe<u32> = Pipe::new(16);
        p.reserve_dispatch(5, 2);
        assert!(!p.can_dispatch(6));
        assert!(p.can_dispatch(7));
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn drain_finished_into_appends_to_caller_buffer() {
        let mut p: Pipe<u32> = Pipe::new(16);
        p.complete_at(1, 7);
        p.complete_at(2, 8);
        let mut buf = Vec::with_capacity(4);
        p.drain_finished_into(1, &mut buf);
        assert_eq!(buf, vec![7]);
        // Appends without clearing: the caller owns the buffer's
        // lifecycle across pipes within one writeback cycle.
        p.drain_finished_into(2, &mut buf);
        assert_eq!(buf, vec![7, 8]);
    }

    #[test]
    fn next_completion_tracks_drains() {
        let mut p: Pipe<u32> = Pipe::new(16);
        assert_eq!(p.next_completion(), None);
        p.complete_at(9, 1);
        p.complete_at(5, 2);
        p.complete_at(7, 3);
        assert_eq!(p.next_completion(), Some(5));
        // Before the earliest completion nothing drains.
        assert!(p.drain_finished(4).is_empty());
        assert_eq!(p.drain_finished(5), vec![2]);
        assert_eq!(p.next_completion(), Some(7));
        let mut rest = p.drain_finished(9);
        rest.sort_unstable();
        assert_eq!(rest, vec![1, 3]);
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    fn zero_occupancy_clamped() {
        let mut p: Pipe<u32> = Pipe::new(16);
        p.dispatch(0, 0, 0, 1);
        assert!(!p.can_dispatch(0));
        assert!(p.can_dispatch(1));
        assert_eq!(p.drain_finished(1), vec![1]);
    }
}
