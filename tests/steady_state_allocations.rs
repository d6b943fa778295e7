//! The ant iteration runs over preallocated arrays: once a round's first
//! walk has grown its buffers, further iterations (walk, trail update,
//! merit update) allocate nothing.
//!
//! A counting global allocator counts the allocations the test thread
//! makes while exploring one real hot block for a single round at two
//! iteration budgets. Everything outside the ACO loop (lowering, store
//! and scratch set-up, candidate extraction, commit) is paid by both
//! runs, so the difference divided by the extra iterations is the
//! marginal cost of one iteration, which must stay below one allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use isex::prelude::*;
use rand::SeedableRng;

/// Counts every allocation and reallocation made by a thread while its
/// counter is armed; other threads and unarmed spans are not counted.
struct Counting;

thread_local! {
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread-local is gone.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's counter armed; returns its result and the
/// allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counter armed");
    (out, n)
}

#[test]
fn extra_ant_iterations_allocate_nothing() {
    const SHORT: usize = 50;
    const LONG: usize = 450;
    let block = Benchmark::Adpcm.program(OptLevel::O3).hottest().dfg.clone();
    let machine = MachineConfig::preset_2issue_4r2w();
    let explore = |iterations: usize| {
        // One round that runs its whole budget: `p_end` so close to 1 that
        // the store never converges first.
        let params = AcoParams {
            max_rounds: 1,
            max_iterations: iterations,
            p_end: 1.0 - 1e-9,
            ..AcoParams::default()
        };
        let explorer =
            MultiIssueExplorer::with_params(machine, Constraints::from_machine(&machine), params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2008);
        counted(|| explorer.explore(&block, &mut rng))
    };
    let (short, short_allocs) = explore(SHORT);
    let (long, long_allocs) = explore(LONG);
    assert_eq!((short.rounds, short.iterations), (1, SHORT));
    assert_eq!((long.rounds, long.iterations), (1, LONG));
    let per_iteration = long_allocs.saturating_sub(short_allocs) as f64 / (LONG - SHORT) as f64;
    assert!(
        per_iteration < 1.0,
        "{per_iteration:.2} allocations per extra iteration \
         ({short_allocs} at {SHORT} iterations, {long_allocs} at {LONG})"
    );
}
