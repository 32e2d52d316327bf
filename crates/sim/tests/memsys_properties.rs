//! Property tests for the timing memory subsystem: causality,
//! monotonic queuing, and cache-warming invariants.

use gscalar_sim::memsys::MemSystem;
use gscalar_sim::stats::MemStats;
use gscalar_sim::GpuConfig;
use gscalar_trace::Tracer;
use proptest::prelude::*;

fn sys() -> MemSystem {
    MemSystem::new(&GpuConfig::test_small())
}

proptest! {
    #[test]
    fn completion_never_precedes_issue(
        addrs in proptest::collection::vec((0u64..0x10_0000, any::<bool>()), 1..64),
    ) {
        let mut m = sys();
        let mut stats = MemStats::default();
        for (now, (addr, store)) in addrs.into_iter().enumerate() {
            let now = now as u64;
            let done = m.access(0, addr, store, now, &mut stats, &mut Tracer::off());
            prop_assert!(done > now, "completion {done} at/before issue {now}");
        }
    }

    #[test]
    fn repeat_loads_eventually_hit_l1(addr in 0u64..0x100_0000) {
        let mut m = sys();
        let mut stats = MemStats::default();
        let t1 = m.access(0, addr, false, 0, &mut stats, &mut Tracer::off());
        // After the fill returns, the same line is an L1 hit.
        let t2 = m.access(0, addr, false, t1 + 1, &mut stats, &mut Tracer::off());
        prop_assert!(t2 - (t1 + 1) <= t1, "warm access should be faster");
        prop_assert!(stats.l1_hits >= 1);
    }

    #[test]
    fn accounting_is_consistent(
        addrs in proptest::collection::vec(0u64..0x40_0000, 1..64),
    ) {
        let mut m = sys();
        let mut stats = MemStats::default();
        for (i, addr) in addrs.iter().enumerate() {
            m.access(0, *addr, false, i as u64 * 4, &mut stats, &mut Tracer::off());
        }
        // Every load resolves exactly one way: L1 hit, L1 miss, or a
        // merge into an outstanding miss to the same line.
        prop_assert_eq!(
            stats.l1_hits + stats.l1_misses + stats.l1_mshr_hits,
            stats.global_accesses
        );
        // Every L2 access (hit or miss) came from an L1 miss that was
        // not MSHR-merged.
        prop_assert!(stats.l2_hits + stats.l2_misses <= stats.l1_misses);
        // NoC flits are two per L2 access.
        prop_assert_eq!(stats.noc_flits, 2 * (stats.l2_hits + stats.l2_misses));
    }

    #[test]
    fn arena_never_reuses_live_slots_and_accounting_survives(
        // Bursty schedule: small address pool (forces merges and warm
        // hits), variable inter-access gaps (0 = same-cycle overlap,
        // large = fills land and slots recycle), loads and stores mixed.
        ops in proptest::collection::vec(
            (0u64..0x8000, 0u64..600, any::<bool>()),
            1..128,
        ),
    ) {
        let mut m = sys();
        let mut stats = MemStats::default();
        let mut now = 0u64;
        let mut loads = 0u64;
        for (addr, gap, store) in ops {
            now += gap;
            let done = m.access(0, addr, store, now, &mut stats, &mut Tracer::off());
            prop_assert!(done > now);
            loads += u64::from(!store);
            // The arena must stay consistent after every access: the
            // freelist holds exactly the dead slots (a slot is never
            // handed out while its MSHR entry is live), and the
            // by-line map covers exactly the live slots. The accessor
            // panics on any violation.
            m.assert_mshr_invariants();
        }
        // The PR 5 invariant must survive the arena rewrite: every
        // load resolves exactly one way.
        prop_assert_eq!(
            stats.l1_hits + stats.l1_misses + stats.l1_mshr_hits,
            loads
        );
        // Outstanding entries are bounded by misses ever made.
        prop_assert!(m.mshr_outstanding(0) as u64 <= stats.l1_misses);
    }

    #[test]
    fn same_partition_requests_serialize_in_order(
        n in 2usize..16,
    ) {
        let mut m = sys();
        let mut stats = MemStats::default();
        // Distinct lines, same partition (stride = channels × line).
        let stride = 128 * 2;
        let mut last = 0u64;
        for i in 0..n {
            let t = m.access(0, 0x20_0000 + i as u64 * stride, false, 0, &mut stats, &mut Tracer::off());
            prop_assert!(t >= last, "later request completed earlier");
            last = t;
        }
    }
}
