//! Critical-path attribution over the cycle trace: which warps and
//! resources block issue the longest.
//!
//! The input is the recorded event stream ([`Record`]s). Stall events
//! carry `(sm, sched, culprit warp, reason)`; a *chain* is a maximal
//! span of cycles during which one scheduler kept stalling with the
//! same culprit and reason. A traced run polls every cycle, so each
//! stalled scheduler-cycle leaves one event: a gap between two stalls
//! of a scheduler is cycles it issued in, and ends the chain. A chain's
//! length is therefore both its cycles and its events.
//!
//! The trace sink is a bounded ring, so a long run may have dropped its
//! oldest events; the analysis then covers the retained window (the
//! tail of the run), which is where drain bottlenecks live anyway.

use std::collections::BTreeMap;

use gscalar_sim::Stats;
use gscalar_trace::{Record, StallBreakdown, StallReason, TraceEvent};

/// A maximal run of identical stalls on one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallChain {
    /// SM that stalled.
    pub sm: u32,
    /// Scheduler within the SM.
    pub sched: u32,
    /// Culprit warp (slot index), when one epitomized the stall.
    pub warp: Option<u32>,
    /// Why the scheduler stalled.
    pub reason: StallReason,
    /// First stalled cycle.
    pub start: u64,
    /// Last stalled cycle (inclusive).
    pub end: u64,
}

impl StallChain {
    /// Chain length in cycles.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Whether the chain is empty (never: kept for clippy symmetry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// One warp's total attributed stall cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpStalls {
    /// SM the warp ran on.
    pub sm: u32,
    /// Warp slot index.
    pub warp: u32,
    /// Cycles this warp was the stall culprit (summed chain lengths).
    pub cycles: u64,
}

/// Memory-level-parallelism profile from the MSHR occupancy samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpProfile {
    /// Number of L1-miss allocations sampled.
    pub samples: u64,
    /// Mean live outstanding misses at allocation time.
    pub mean: f64,
    /// Peak observed occupancy.
    pub max: u64,
}

impl MlpProfile {
    /// Extracts the profile from a run's (merged or per-SM) statistics.
    #[must_use]
    pub fn from_stats(stats: &Stats) -> Self {
        let h = &stats.mem.mshr_occupancy;
        MlpProfile {
            samples: h.count(),
            mean: h.mean(),
            max: h.max().unwrap_or(0),
        }
    }
}

/// The critical-path summary of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Longest stall chains, sorted by length descending (ties by
    /// `(sm, sched, start)` so the output is deterministic).
    pub chains: Vec<StallChain>,
    /// Stall events seen in the retained trace window.
    pub stall_events: u64,
    /// Stall-event counts per reason: over a trace that dropped nothing,
    /// the run's stall cycles per reason.
    pub by_reason: StallBreakdown,
    /// Warps ranked by total attributed stall cycles, descending (ties
    /// by `(sm, warp)`).
    pub top_warps: Vec<WarpStalls>,
}

/// Scans `records` and extracts the longest `top` stall chains plus
/// per-warp and per-reason attribution.
#[must_use]
pub fn analyze_trace(records: &[Record], top: usize) -> CriticalPath {
    // One open chain per (sm, sched); BTreeMap for deterministic
    // iteration when flushing.
    let mut open: BTreeMap<(u32, u32), StallChain> = BTreeMap::new();
    let mut chains: Vec<StallChain> = Vec::new();
    let mut by_reason = StallBreakdown::default();
    let mut stall_events = 0u64;

    for r in records {
        let TraceEvent::Stall {
            sm,
            sched,
            warp,
            reason,
        } = r.ev
        else {
            continue;
        };
        stall_events += 1;
        by_reason.add(reason);
        let key = (sm, sched);
        match open.get_mut(&key) {
            Some(c) if c.warp == warp && c.reason == reason && r.now == c.end + 1 => {
                c.end = r.now;
            }
            Some(c) => {
                chains.push(*c);
                *c = StallChain {
                    sm,
                    sched,
                    warp,
                    reason,
                    start: r.now,
                    end: r.now,
                };
            }
            None => {
                open.insert(
                    key,
                    StallChain {
                        sm,
                        sched,
                        warp,
                        reason,
                        start: r.now,
                        end: r.now,
                    },
                );
            }
        }
    }
    chains.extend(open.into_values());

    // Per-warp attribution from the closed chains.
    let mut warps: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for c in &chains {
        if let Some(w) = c.warp {
            *warps.entry((c.sm, w)).or_default() += c.len();
        }
    }
    let mut top_warps: Vec<WarpStalls> = warps
        .into_iter()
        .map(|((sm, warp), cycles)| WarpStalls { sm, warp, cycles })
        .collect();
    top_warps.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then(a.sm.cmp(&b.sm))
            .then(a.warp.cmp(&b.warp))
    });
    top_warps.truncate(top);

    chains.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then(a.sm.cmp(&b.sm))
            .then(a.sched.cmp(&b.sched))
            .then(a.start.cmp(&b.start))
    });
    chains.truncate(top);

    CriticalPath {
        chains,
        stall_events,
        by_reason,
        top_warps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(now: u64, sm: u32, sched: u32, warp: Option<u32>, reason: StallReason) -> Record {
        Record {
            now,
            ev: TraceEvent::Stall {
                sm,
                sched,
                warp,
                reason,
            },
        }
    }

    #[test]
    fn a_cycle_without_a_stall_ends_the_chain() {
        // Cycles 5..=6 stalled, the scheduler issued in 7..=19, then
        // stalled again at 20: two chains, 3 stalled cycles.
        let recs = vec![
            stall(5, 0, 0, Some(2), StallReason::MemPending),
            stall(6, 0, 0, Some(2), StallReason::MemPending),
            stall(20, 0, 0, Some(2), StallReason::MemPending),
        ];
        let cp = analyze_trace(&recs, 8);
        assert_eq!(cp.chains.len(), 2);
        assert_eq!(cp.chains[0].len(), 2);
        assert_eq!(cp.chains[1].len(), 1);
        assert_eq!(cp.stall_events, 3);
        assert_eq!(cp.by_reason.get(StallReason::MemPending), 3);
        assert_eq!(
            cp.top_warps,
            vec![WarpStalls {
                sm: 0,
                warp: 2,
                cycles: 3
            }]
        );
    }

    #[test]
    fn reason_or_warp_change_breaks_the_chain() {
        let recs = vec![
            stall(1, 0, 0, Some(1), StallReason::Scoreboard),
            stall(2, 0, 0, Some(1), StallReason::MemPending),
            stall(3, 0, 0, Some(3), StallReason::MemPending),
            stall(4, 0, 1, Some(1), StallReason::Scoreboard), // other sched
        ];
        let cp = analyze_trace(&recs, 8);
        assert_eq!(cp.chains.len(), 4);
        assert!(cp.chains.iter().all(|c| c.len() == 1));
        // Warp 1 is culprit in three of the four chains (twice on
        // scheduler 0, once on scheduler 1): 3 cycles attributed.
        assert_eq!(cp.top_warps[0].warp, 1);
        assert_eq!(cp.top_warps[0].cycles, 3);
    }

    #[test]
    fn top_truncates_and_sorts_longest_first() {
        let mut recs = Vec::new();
        // Sched 0: 10-cycle chain; sched 1: 3-cycle chain.
        for t in 0..10 {
            recs.push(stall(t, 0, 0, None, StallReason::Drained));
        }
        for t in 0..3 {
            recs.push(stall(t, 0, 1, Some(7), StallReason::Barrier));
        }
        let cp = analyze_trace(&recs, 1);
        assert_eq!(cp.chains.len(), 1);
        assert_eq!(cp.chains[0].sched, 0);
        assert_eq!(cp.chains[0].len(), 10);
        // Drained chains have no culprit; only warp 7 is attributed.
        assert_eq!(cp.top_warps.len(), 1);
        assert_eq!(cp.top_warps[0].warp, 7);
    }

    #[test]
    fn non_stall_events_are_ignored() {
        let recs = vec![Record {
            now: 1,
            ev: TraceEvent::SimtPop {
                sm: 0,
                warp: 0,
                pc: 0,
                depth: 0,
            },
        }];
        let cp = analyze_trace(&recs, 4);
        assert_eq!(cp.stall_events, 0);
        assert!(cp.chains.is_empty());
        assert!(cp.top_warps.is_empty());
    }
}
