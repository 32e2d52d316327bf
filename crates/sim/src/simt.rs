//! The SIMT reconvergence stack handling branch divergence.

/// One stack entry: a path of execution with its own PC and lane mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    pc: usize,
    mask: u64,
    /// PC at which this entry merges into the one below it; `usize::MAX`
    /// when the path only ends at thread exit.
    reconv: usize,
    /// PC of the diverging branch that pushed this path; `usize::MAX`
    /// for the base entry and join continuations.
    origin: usize,
}

/// Sentinel for "no reconvergence before exit".
const NO_RECONV: usize = usize::MAX;

/// Sentinel for "not pushed by a branch".
const NO_ORIGIN: usize = usize::MAX;

/// A per-warp SIMT stack (post-dominator reconvergence, as in
/// GPGPU-Sim and the paper's baseline).
///
/// # Examples
///
/// ```
/// use gscalar_sim::simt::SimtStack;
///
/// let mut s = SimtStack::new(0, 0xF); // 4 live lanes at pc 0
/// assert_eq!(s.active(), 0xF);
/// // Lanes 0-1 take a branch to 10, lanes 2-3 fall through to 1,
/// // reconverging at 20.
/// s.branch(0b0011, 10, 1, Some(20));
/// assert_eq!(s.pc(), 1); // fall-through path runs first
/// assert_eq!(s.active(), 0b1100);
/// ```
#[derive(Debug, Clone)]
pub struct SimtStack {
    entries: Vec<Entry>,
    exited: u64,
    /// `(origin branch pc, rejoined)` for each branch-pushed path
    /// popped by the most recent operation — `rejoined` is `true` when
    /// the path reached its reconvergence point, `false` when every
    /// lane on it exited. Cleared at the start of each operation; the
    /// profiler drains it via [`path_events`](SimtStack::path_events).
    path_events: Vec<(usize, bool)>,
}

impl SimtStack {
    /// Creates a stack with all `mask` lanes live at `entry_pc`.
    #[must_use]
    pub fn new(entry_pc: usize, mask: u64) -> Self {
        SimtStack {
            entries: vec![Entry {
                pc: entry_pc,
                mask,
                reconv: NO_RECONV,
                origin: NO_ORIGIN,
            }],
            exited: 0,
            path_events: Vec::new(),
        }
    }

    /// The current active lane mask (empty once the warp is done).
    #[must_use]
    pub fn active(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.mask & !self.exited)
    }

    /// The current PC.
    ///
    /// # Panics
    ///
    /// Panics if the warp is done.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.entries.last().expect("warp is done").pc
    }

    /// Whether every lane has exited.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lanes that have exited so far.
    #[must_use]
    pub fn exited(&self) -> u64 {
        self.exited
    }

    /// Current stack depth (1 when converged).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Branch-pushed paths popped by the most recent
    /// `advance`/`branch`/`exit`, as `(origin branch pc, rejoined)`.
    #[must_use]
    pub fn path_events(&self) -> &[(usize, bool)] {
        &self.path_events
    }

    /// Advances the current path to `next_pc` (non-branch instruction),
    /// popping if the path reaches its reconvergence point.
    pub fn advance(&mut self, next_pc: usize) {
        self.path_events.clear();
        if let Some(top) = self.entries.last_mut() {
            top.pc = next_pc;
        }
        self.normalize();
    }

    /// Executes a branch: `taken` is the subset of active lanes whose
    /// guard passed, `target` the branch target, `fallthrough` the next
    /// sequential PC, and `reconv` the reconvergence PC from the
    /// kernel's post-dominator analysis.
    ///
    /// Returns `true` when the branch diverged (both paths non-empty).
    pub fn branch(
        &mut self,
        taken: u64,
        target: usize,
        fallthrough: usize,
        reconv: Option<usize>,
    ) -> bool {
        let active = self.active();
        let taken = taken & active;
        let not_taken = active & !taken;
        let diverged = taken != 0 && not_taken != 0;
        if !diverged {
            let next = if taken != 0 { target } else { fallthrough };
            self.advance(next);
            return false;
        }
        self.path_events.clear();
        let r = reconv.unwrap_or(NO_RECONV);
        let top = self
            .entries
            .last_mut()
            .expect("active lanes imply an entry");
        // The top entry's PC is still the branch's own PC: it is the
        // origin charged for the two paths pushed below.
        let origin = top.pc;
        // The current entry becomes the join continuation.
        top.pc = r;
        self.entries.push(Entry {
            pc: target,
            mask: taken,
            reconv: r,
            origin,
        });
        self.entries.push(Entry {
            pc: fallthrough,
            mask: not_taken,
            reconv: r,
            origin,
        });
        self.normalize();
        true
    }

    /// Retires `lanes` of the current path (an `EXIT` whose guard
    /// passed for them); the path's other active lanes go on at
    /// `next_pc`.
    pub fn exit(&mut self, lanes: u64, next_pc: usize) {
        self.path_events.clear();
        self.exited |= self.active() & lanes;
        if let Some(top) = self.entries.last_mut() {
            top.pc = next_pc;
        }
        self.normalize();
    }

    fn normalize(&mut self) {
        while let Some(top) = self.entries.last() {
            let live = top.mask & !self.exited;
            let rejoined = top.pc == top.reconv;
            if live == 0 || rejoined {
                if top.origin != NO_ORIGIN {
                    self.path_events.push((top.origin, rejoined && live != 0));
                }
                self.entries.pop();
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_advance() {
        let mut s = SimtStack::new(0, 0xFF);
        s.advance(1);
        s.advance(2);
        assert_eq!(s.pc(), 2);
        assert_eq!(s.active(), 0xFF);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn uniform_branch_does_not_diverge() {
        let mut s = SimtStack::new(0, 0xF);
        assert!(!s.branch(0xF, 7, 1, Some(9)));
        assert_eq!(s.pc(), 7);
        assert!(!s.branch(0, 3, 8, Some(9)));
        assert_eq!(s.pc(), 8);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn divergence_and_reconvergence() {
        let mut s = SimtStack::new(0, 0xF);
        assert!(s.branch(0b0011, 10, 1, Some(20)));
        // Fall-through path first.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active(), 0b1100);
        assert_eq!(s.depth(), 3);
        // Fall-through reaches reconvergence → taken path runs.
        s.advance(20);
        assert_eq!(s.pc(), 10);
        assert_eq!(s.active(), 0b0011);
        // Taken path reaches reconvergence → join entry with all lanes.
        s.advance(20);
        assert_eq!(s.pc(), 20);
        assert_eq!(s.active(), 0xF);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0, 0xF);
        s.branch(0b0001, 10, 1, Some(30)); // outer
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active(), 0b1110);
        s.branch(0b0010, 20, 2, Some(25)); // inner split of {1110}
        assert_eq!(s.pc(), 2);
        assert_eq!(s.active(), 0b1100);
        s.advance(25); // inner fall-through joins
        assert_eq!(s.pc(), 20);
        assert_eq!(s.active(), 0b0010);
        s.advance(25); // inner taken joins
        assert_eq!(s.pc(), 25);
        assert_eq!(s.active(), 0b1110);
        s.advance(30); // outer fall-through side joins
        assert_eq!(s.pc(), 10);
        assert_eq!(s.active(), 0b0001);
        s.advance(30);
        assert_eq!(s.pc(), 30);
        assert_eq!(s.active(), 0xF);
    }

    #[test]
    fn divergent_exit_path() {
        let mut s = SimtStack::new(0, 0xF);
        // Lanes 0-1 branch to an exit block at 10 with no reconvergence.
        s.branch(0b0011, 10, 1, None);
        assert_eq!(s.pc(), 1);
        s.advance(2);
        // Fall-through path exits.
        s.exit(u64::MAX, 0);
        // Taken path becomes active.
        assert_eq!(s.pc(), 10);
        assert_eq!(s.active(), 0b0011);
        s.exit(u64::MAX, 0);
        assert!(s.is_done());
        assert_eq!(s.exited(), 0xF);
    }

    #[test]
    fn full_warp_exit() {
        let mut s = SimtStack::new(5, u64::MAX);
        s.exit(u64::MAX, 0);
        assert!(s.is_done());
        assert_eq!(s.active(), 0);
    }

    #[test]
    fn guarded_exit_retires_only_its_lanes() {
        let mut s = SimtStack::new(0, 0xF);
        // Lanes 2-3 fall through a branch reconverging at 9; at pc 1
        // lane 3 exits and lane 2 goes on to pc 2.
        s.branch(0b0011, 4, 1, Some(9));
        s.exit(0b1010, 2);
        assert_eq!((s.pc(), s.active()), (2, 0b0100));
        s.advance(9);
        assert_eq!((s.pc(), s.active()), (4, 0b0011));
        s.advance(9);
        assert_eq!((s.pc(), s.active()), (9, 0b0111));
        assert_eq!(s.exited(), 0b1000);
    }

    #[test]
    fn path_events_attribute_pops_to_the_branch() {
        let mut s = SimtStack::new(5, 0xF);
        // Diverging branch at pc 5, reconverging at 20.
        assert!(s.branch(0b0011, 10, 6, Some(20)));
        assert!(s.path_events().is_empty());
        // Fall-through path rejoins at 20 → one rejoin charged to pc 5.
        s.advance(20);
        assert_eq!(s.path_events(), &[(5, true)]);
        // An unrelated advance clears the event buffer.
        s.advance(11);
        assert!(s.path_events().is_empty());
        // Taken path exits before reconverging → charged as exited.
        s.exit(u64::MAX, 0);
        assert_eq!(s.path_events(), &[(5, false)]);
        // Remaining join entry has no origin: popping it emits nothing.
        assert_eq!(s.pc(), 20);
        s.exit(u64::MAX, 0);
        assert!(s.path_events().is_empty());
        assert!(s.is_done());
    }

    #[test]
    fn loop_divergence_trip_counts() {
        // Two lanes loop a different number of times:
        // 0: body; 1: branch back to 0 while counter < n; 2: exit
        let mut s = SimtStack::new(0, 0b11);
        let mut counters = [0u32, 0u32];
        let trips = [2u32, 4u32];
        let mut iterations = 0;
        loop {
            match s.pc() {
                0 => {
                    for (lane, c) in counters.iter_mut().enumerate() {
                        if s.active() & (1 << lane) != 0 {
                            *c += 1;
                        }
                    }
                    s.advance(1);
                }
                1 => {
                    let mut taken = 0u64;
                    for lane in 0..2 {
                        if s.active() & (1 << lane) != 0 && counters[lane] < trips[lane] {
                            taken |= 1 << lane;
                        }
                    }
                    s.branch(taken, 0, 2, Some(2));
                }
                2 => {
                    s.exit(u64::MAX, 0);
                    break;
                }
                _ => unreachable!(),
            }
            iterations += 1;
            assert!(iterations < 100, "loop failed to converge");
        }
        assert_eq!(counters, [2, 4]);
        assert!(s.is_done());
    }
}
