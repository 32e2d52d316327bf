//! The steady-state cycle loop must not touch the heap (DESIGN.md,
//! "Hot path"). A counting global allocator measures every allocation a
//! `Gpu::run` makes and holds it to a fixed set-up cost plus a constant
//! per launched warp (its register file, SIMT stack and CTA shared
//! memory), independent of how many instructions the warps execute.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gscalar_core::Arch;
use gscalar_sim::{Gpu, GpuConfig};
use gscalar_workloads::{by_abbr, Scale};

struct Counting;

thread_local! {
    /// Allocations made by this thread; other test-harness threads
    /// cannot inflate the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Set-up allowance per SM: its scheduler, collector, pipe, scoreboard
/// and statistics vectors (about 32 today).
const PER_SM: u64 = 64;

/// Allowance per launched warp: its register file, SIMT stack and the
/// CTA's shared memory. (Scoreboard slots are per SM, sized at set-up.)
const PER_WARP: u64 = 64;

#[test]
fn allocations_scale_with_warps_not_instructions() {
    for abbr in ["MM", "MV"] {
        let w = by_abbr(abbr, Scale::Test).expect("known benchmark");
        for arch in Arch::ALL {
            let cfg = GpuConfig::gtx480();
            let warps = w.launch.grid.count()
                * u64::from(w.launch.threads_per_cta().div_ceil(cfg.warp_size as u32));
            let bound = PER_SM * cfg.num_sms as u64 + PER_WARP * warps;
            let mut gpu = Gpu::new(cfg, arch.config());
            let mut mem = w.memory.clone();
            let before = allocs();
            let stats = gpu.run(&w.kernel, w.launch, &mut mem);
            let n = allocs() - before;
            assert!(
                n <= bound,
                "{abbr}/{}: {n} allocations for {warps} warps exceed the set-up + per-warp \
                 bound {bound}; the run issued {} warp instructions, so the hot path allocates",
                arch.label(),
                stats.instr.warp_instrs
            );
        }
    }
}
