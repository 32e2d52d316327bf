//! Warp schedulers: greedy-then-oldest (GTO) and loose round-robin.

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Greedy-then-oldest: keep issuing from the last warp until it
    /// stalls, then fall back to the oldest ready warp (GPGPU-Sim's
    /// default, assumed by the paper's burst-of-scalar-instructions
    /// observation in Section 4.1).
    Gto,
    /// Loose round-robin.
    Lrr,
}

/// A warp scheduler owning a subset of an SM's warp slots, one bit each
/// of a `u64` mask (lower slots are older).
///
/// The scheduler only decides *order*: [`Scheduler::order`] lists a
/// mask of candidate slots by issue priority, and the SM, which tests
/// each for issue, reports the outcome with [`Scheduler::issued`] or
/// [`Scheduler::missed`].
///
/// # Examples
///
/// ```
/// use gscalar_sim::scheduler::{Scheduler, SchedPolicy};
///
/// let mut s = Scheduler::new(SchedPolicy::Gto, 0b10101);
/// // Oldest first, only the owned slots.
/// assert_eq!(s.order(0b111).collect::<Vec<_>>(), [0, 2]);
/// // Slot 2 issues, so GTO tries it first from now on.
/// s.issued(2);
/// assert_eq!(s.order(0b111).collect::<Vec<_>>(), [2, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedPolicy,
    slots: u64,
    /// LRR: the slot the next rotation starts from.
    cursor: u32,
    /// GTO: the slot to greedily retry.
    greedy: Option<usize>,
}

/// Candidate slots in issue-priority order (see [`Scheduler::order`]).
#[derive(Debug, Clone)]
pub struct Order {
    first: Option<usize>,
    hi: u64,
    lo: u64,
}

impl Iterator for Order {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if let Some(w) = self.first.take() {
            return Some(w);
        }
        let m = if self.hi != 0 {
            &mut self.hi
        } else {
            &mut self.lo
        };
        if *m == 0 {
            return None;
        }
        let w = m.trailing_zeros() as usize;
        *m &= *m - 1;
        Some(w)
    }
}

impl Scheduler {
    /// Creates a scheduler over the warp slots set in `slots`.
    #[must_use]
    pub fn new(policy: SchedPolicy, slots: u64) -> Self {
        Scheduler {
            policy,
            slots,
            cursor: 0,
            greedy: None,
        }
    }

    /// The warp slots this scheduler owns.
    #[must_use]
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Forgets `w` as the greedy candidate when the warp exits (its CTA
    /// retires). Without this the greedy pointer survives into whatever
    /// new warp reuses the same slot, handing it priority over older
    /// siblings and charging stall cycles to the dead warp's stale head
    /// PC before the slot refills.
    pub fn retire(&mut self, w: usize) {
        if self.greedy == Some(w) {
            self.greedy = None;
        }
    }

    /// The owned slots of `candidates` by issue priority. GTO: the
    /// greedy slot, then the rest oldest first. LRR: oldest first,
    /// rotated to start at the slot after the last one issued.
    #[must_use]
    #[inline]
    pub fn order(&self, candidates: u64) -> Order {
        let candidates = candidates & self.slots;
        match self.policy {
            SchedPolicy::Gto => {
                let first = self.greedy.filter(|&g| candidates >> g & 1 != 0);
                let hi = first.map_or(candidates, |g| candidates & !(1 << g));
                Order { first, hi, lo: 0 }
            }
            SchedPolicy::Lrr => {
                let hi = candidates & u64::MAX.checked_shl(self.cursor).unwrap_or(0);
                Order {
                    first: None,
                    hi,
                    lo: candidates & !hi,
                }
            }
        }
    }

    /// Slot `w`, listed by [`Scheduler::order`], issued.
    #[inline]
    pub fn issued(&mut self, w: usize) {
        match self.policy {
            SchedPolicy::Gto => self.greedy = Some(w),
            SchedPolicy::Lrr => self.cursor = w as u32 + 1,
        }
    }

    /// No slot [`Scheduler::order`] listed could issue.
    #[inline]
    pub fn missed(&mut self) {
        self.greedy = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u64 = u64::MAX;

    /// The SM's protocol for a mask of ready slots: the first one by
    /// priority issues, or the scheduler misses.
    impl Scheduler {
        fn pick(&mut self, ready: u64) -> Option<usize> {
            let picked = self.order(ready).next();
            match picked {
                Some(w) => self.issued(w),
                None => self.missed(),
            }
            picked
        }
    }

    fn only(w: usize) -> u64 {
        1 << w
    }

    #[test]
    fn gto_sticks_with_greedy_warp() {
        let mut s = Scheduler::new(SchedPolicy::Gto, 0b111);
        assert_eq!(s.pick(ALL), Some(0));
        assert_eq!(s.pick(ALL), Some(0));
        // Warp 0 stalls → oldest ready is 1.
        assert_eq!(s.pick(!only(0)), Some(1));
        // Greedy moves to 1.
        assert_eq!(s.pick(ALL), Some(1));
    }

    #[test]
    fn gto_falls_back_to_oldest() {
        let mut s = Scheduler::new(SchedPolicy::Gto, only(3) | only(5) | only(7));
        assert_eq!(s.pick(only(7)), Some(7));
        // 7 stalls, 3 and 5 ready → oldest (3).
        assert_eq!(s.pick(!only(7)), Some(3));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Scheduler::new(SchedPolicy::Lrr, 0b111);
        assert_eq!(s.pick(ALL), Some(0));
        assert_eq!(s.pick(ALL), Some(1));
        assert_eq!(s.pick(ALL), Some(2));
        assert_eq!(s.pick(ALL), Some(0));
    }

    #[test]
    fn lrr_rotation_skips_stalled_slots_and_wraps_at_slot_63() {
        let mut s = Scheduler::new(SchedPolicy::Lrr, only(1) | only(40) | only(63));
        assert_eq!(s.pick(ALL), Some(1));
        assert_eq!(s.pick(!only(40)), Some(63));
        assert_eq!(s.pick(ALL), Some(1));
        assert_eq!(s.pick(0), None);
        assert_eq!(s.pick(ALL), Some(40));
    }

    #[test]
    fn order_lists_every_candidate_once() {
        let mut s = Scheduler::new(SchedPolicy::Gto, 0b1111);
        s.issued(2);
        assert_eq!(s.order(0b1101).collect::<Vec<_>>(), [2, 0, 3]);
        assert_eq!(s.order(0b1001).collect::<Vec<_>>(), [0, 3]);
        let mut s = Scheduler::new(SchedPolicy::Lrr, 0b1111);
        s.issued(1);
        assert_eq!(s.order(ALL).collect::<Vec<_>>(), [2, 3, 0, 1]);
    }

    #[test]
    fn gto_retire_clears_greedy_priority() {
        let mut s = Scheduler::new(SchedPolicy::Gto, 0b111);
        // Warp 2 becomes greedy, then exits. A later pick with every
        // slot ready must fall back to the oldest warp, not keep the
        // retired warp's slot at the head of the line.
        assert_eq!(s.pick(only(2)), Some(2));
        s.retire(2);
        assert_eq!(s.pick(ALL), Some(0));
    }

    #[test]
    fn gto_retire_of_non_greedy_is_a_no_op() {
        let mut s = Scheduler::new(SchedPolicy::Gto, 0b111);
        assert_eq!(s.pick(only(2)), Some(2));
        s.retire(1);
        assert_eq!(s.pick(ALL), Some(2));
    }

    #[test]
    fn none_when_nothing_ready() {
        let mut s = Scheduler::new(SchedPolicy::Gto, 0b11);
        assert_eq!(s.pick(0), None);
        let mut empty = Scheduler::new(SchedPolicy::Gto, 0);
        assert_eq!(empty.pick(ALL), None);
    }
}
