//! CPI stacks: the exact decomposition of every issue slot.
//!
//! A *slot* is one scheduler-cycle: each simulated cycle, each
//! scheduler of each SM either issues an instruction or is charged
//! exactly one classified stall in [`SchedStats::stalls`] (the run
//! driver charges the cycles it jumps over while every SM sleeps in
//! bulk, to the same ledger). The stack therefore *reconciles*: its
//! seven components sum to `cycles × ledgers`, where a ledger is one
//! (SM, scheduler) pair. Any difference is an accounting bug in the
//! simulator, which [`CpiStack::reconcile`] turns into a hard error.

use gscalar_sim::{SchedStats, Stats};
use gscalar_trace::StallReason;

/// Component labels in rendering order, index-aligned with
/// [`CpiStack::components`].
pub const COMPONENT_LABELS: [&str; 7] = [
    "base_issue",
    "scoreboard",
    "mem_pending",
    "barrier",
    "drained",
    "operand_collect",
    "structural",
];

/// A reconciliation failure: the components do not sum to the slots the
/// run must account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconcileError {
    /// Slots the run elapsed (`cycles × ledgers`).
    pub expected: u64,
    /// Slots the components sum to.
    pub actual: u64,
}

impl std::fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CPI stack does not reconcile: components sum to {} slots, run elapsed {}",
            self.actual, self.expected
        )
    }
}

/// An exact decomposition of issue slots into where they went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Elapsed cycles this stack spans.
    pub cycles: u64,
    /// Number of (SM, scheduler) ledgers aggregated; total slots are
    /// `cycles × ledgers`.
    pub ledgers: u64,
    /// Slots that issued an instruction.
    pub base_issue: u64,
    /// Slots blocked on ALU/SFU scoreboard dependencies.
    pub scoreboard: u64,
    /// Slots blocked on outstanding loads/stores.
    pub mem_pending: u64,
    /// Slots blocked at CTA barriers.
    pub barrier: u64,
    /// Slots with no live warp (kernel-tail drain).
    pub drained: u64,
    /// Slots blocked on operand-collector capacity.
    pub operand_collect: u64,
    /// Slots blocked on collector capacity with RF bank conflicts (the
    /// structural back-pressure refinement).
    pub structural: u64,
}

impl CpiStack {
    /// Aggregates per-scheduler ledgers into one stack. `cycles` is the
    /// elapsed-cycle span every ledger covers and `ledgers` how many
    /// (SM, scheduler) pairs `scheds` sums over.
    pub fn from_ledgers<'a, I>(scheds: I, cycles: u64, ledgers: u64) -> Self
    where
        I: IntoIterator<Item = &'a SchedStats>,
    {
        let mut st = CpiStack {
            cycles,
            ledgers,
            ..CpiStack::default()
        };
        for sc in scheds {
            st.base_issue += sc.issued;
            for (reason, n) in sc.stalls.iter() {
                match reason {
                    StallReason::Scoreboard => st.scoreboard += n,
                    StallReason::MemPending => st.mem_pending += n,
                    StallReason::Barrier => st.barrier += n,
                    StallReason::Drained => st.drained += n,
                    StallReason::NoCollector => st.operand_collect += n,
                    StallReason::RfBankConflict => st.structural += n,
                }
            }
        }
        st
    }

    /// The kernel-level stack from merged statistics: `stats.sched` has
    /// one entry per scheduler, each already summed over `num_sms` SMs.
    #[must_use]
    pub fn kernel(stats: &Stats, num_sms: usize) -> Self {
        Self::from_ledgers(
            stats.sched.iter(),
            stats.cycles,
            (num_sms * stats.sched.len()) as u64,
        )
    }

    /// A single SM's stack. Per-SM statistics do not carry the global
    /// cycle count (only the merged view does), so it is passed in.
    #[must_use]
    pub fn sm(sm_stats: &Stats, cycles: u64) -> Self {
        Self::from_ledgers(sm_stats.sched.iter(), cycles, sm_stats.sched.len() as u64)
    }

    /// One scheduler's stack; `sm_ledgers` is how many SMs the ledger
    /// was merged over (1 for a per-SM view).
    #[must_use]
    pub fn scheduler(sc: &SchedStats, cycles: u64, sm_ledgers: u64) -> Self {
        Self::from_ledgers(std::iter::once(sc), cycles, sm_ledgers)
    }

    /// `(label, slots)` pairs in [`COMPONENT_LABELS`] order.
    #[must_use]
    pub fn components(&self) -> [(&'static str, u64); 7] {
        [
            ("base_issue", self.base_issue),
            ("scoreboard", self.scoreboard),
            ("mem_pending", self.mem_pending),
            ("barrier", self.barrier),
            ("drained", self.drained),
            ("operand_collect", self.operand_collect),
            ("structural", self.structural),
        ]
    }

    /// Slots the components sum to.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.components().iter().map(|(_, n)| n).sum()
    }

    /// Slots the run must account for (`cycles × ledgers`).
    #[must_use]
    pub fn expected_slots(&self) -> u64 {
        self.cycles * self.ledgers
    }

    /// Verifies the accounting identity.
    ///
    /// # Errors
    ///
    /// Returns a [`ReconcileError`] when the components do not sum
    /// exactly to `cycles × ledgers`.
    pub fn reconcile(&self) -> Result<(), ReconcileError> {
        let actual = self.total_slots();
        let expected = self.expected_slots();
        if actual == expected {
            Ok(())
        } else {
            Err(ReconcileError { expected, actual })
        }
    }

    /// Fraction of all slots each component takes, in
    /// [`COMPONENT_LABELS`] order; zeros when the stack is empty.
    #[must_use]
    pub fn shares(&self) -> [f64; 7] {
        let t = self.total_slots();
        if t == 0 {
            return [0.0; 7];
        }
        self.components().map(|(_, n)| n as f64 / t as f64)
    }

    /// Cycles-per-instruction contribution of each component, in
    /// [`COMPONENT_LABELS`] order: the classic CPI-stack view, where
    /// the entries sum to total CPI (`cycles × ledgers / issued`).
    /// Zeros when nothing issued.
    #[must_use]
    pub fn cpi_contributions(&self) -> [f64; 7] {
        if self.base_issue == 0 {
            return [0.0; 7];
        }
        self.components()
            .map(|(_, n)| n as f64 / self.base_issue as f64)
    }

    /// The stall component with the most slots, as `(label, slots)` —
    /// the headline bottleneck (`base_issue` excluded). Ties resolve to
    /// the earlier label in [`COMPONENT_LABELS`] order.
    #[must_use]
    pub fn top_bottleneck(&self) -> (&'static str, u64) {
        let mut best = ("scoreboard", self.scoreboard);
        for (label, n) in self.components().into_iter().skip(2) {
            if n > best.1 {
                best = (label, n);
            }
        }
        best
    }

    /// Exports the stack under `scope`: per-component slot counters
    /// plus the reconciliation gauges.
    pub fn export(&self, scope: &mut gscalar_metrics::Scope<'_>) {
        scope.counter_add("cycles", self.cycles);
        scope.counter_add("ledgers", self.ledgers);
        for (label, n) in self.components() {
            scope.counter_add(label, n);
        }
        let shares = self.shares();
        for (label, share) in COMPONENT_LABELS.iter().zip(shares.iter()) {
            scope.gauge_set(&format!("{label}_share"), *share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_trace::StallBreakdown;

    fn ledger(issued: u64, stall: &[(StallReason, u64)]) -> SchedStats {
        let mut stalls = StallBreakdown::default();
        for &(r, n) in stall {
            stalls.add_n(r, n);
        }
        SchedStats { issued, stalls }
    }

    #[test]
    fn components_aggregate_stalls() {
        let a = ledger(
            10,
            &[(StallReason::MemPending, 7), (StallReason::Scoreboard, 3)],
        );
        let b = ledger(
            15,
            &[(StallReason::Drained, 4), (StallReason::RfBankConflict, 1)],
        );
        let st = CpiStack::from_ledgers([&a, &b], 20, 2);
        assert_eq!(st.base_issue, 25);
        assert_eq!(st.mem_pending, 7);
        assert_eq!(st.scoreboard, 3);
        assert_eq!(st.drained, 4);
        assert_eq!(st.structural, 1);
        assert_eq!(st.total_slots(), 40);
        assert!(st.reconcile().is_ok());
        assert_eq!(st.top_bottleneck(), ("mem_pending", 7));
    }

    #[test]
    fn reconcile_reports_exact_slot_counts() {
        let a = ledger(10, &[(StallReason::Barrier, 5)]);
        let st = CpiStack::from_ledgers([&a], 20, 1);
        let err = st.reconcile().unwrap_err();
        assert_eq!(
            err,
            ReconcileError {
                expected: 20,
                actual: 15
            }
        );
        assert!(err.to_string().contains("15"));
    }

    #[test]
    fn shares_and_cpi_sum_consistently() {
        let a = ledger(
            8,
            &[
                (StallReason::MemPending, 6),
                (StallReason::Barrier, 2),
                (StallReason::Drained, 4),
            ],
        );
        let st = CpiStack::from_ledgers([&a], 20, 1);
        assert!(st.reconcile().is_ok());
        let share_sum: f64 = st.shares().iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        let cpi_sum: f64 = st.cpi_contributions().iter().sum();
        assert!((cpi_sum - 20.0 / 8.0).abs() < 1e-12);
        // Empty stacks stay finite.
        assert_eq!(CpiStack::default().shares(), [0.0; 7]);
        assert_eq!(CpiStack::default().cpi_contributions(), [0.0; 7]);
    }

    #[test]
    fn kernel_and_views_cover_the_same_slots() {
        let stats = Stats {
            cycles: 30,
            sched: vec![
                ledger(
                    20,
                    &[(StallReason::MemPending, 30), (StallReason::Drained, 10)],
                ),
                ledger(
                    25,
                    &[(StallReason::Scoreboard, 20), (StallReason::Drained, 15)],
                ),
            ],
            ..Default::default()
        };
        // Two SMs × two schedulers merged: 30 cycles × 4 ledgers.
        let k = CpiStack::kernel(&stats, 2);
        assert_eq!(k.expected_slots(), 120);
        assert!(k.reconcile().is_ok());
        // Per-scheduler views split the same slots.
        let s0 = CpiStack::scheduler(&stats.sched[0], 30, 2);
        let s1 = CpiStack::scheduler(&stats.sched[1], 30, 2);
        assert!(s0.reconcile().is_ok());
        assert!(s1.reconcile().is_ok());
        assert_eq!(s0.total_slots() + s1.total_slots(), k.total_slots());
    }
}
