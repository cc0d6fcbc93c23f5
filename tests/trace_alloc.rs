//! Integration: the span recorder's hot path never allocates.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator; the single
//! test then asserts zero allocations across many `trace::scope` calls
//! both with tracing disabled (the advertised zero-cost path — one
//! relaxed load and out) and with a session installed, once the region
//! name has been interned and the pre-sized span ring is warm.
//!
//! This lives in its own test binary on purpose: the allocator counter
//! is process-global, and any concurrently running test would pollute
//! it. One binary, one test, no noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use npb::{trace, TraceSession};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards our caller's `GlobalAlloc` contract unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`: `ptr` came from this allocator, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn scope_allocates_nothing_when_disabled_or_after_warmup() {
    // Disabled path: no session installed, scope() must be a branch.
    assert!(trace::current().is_none(), "test requires a clean process");
    let disabled = allocs_during(|| {
        for _ in 0..1000 {
            let _s = trace::scope("alloc_probe");
        }
    });
    assert_eq!(disabled, 0, "disabled trace::scope allocated {disabled} times");

    // Enabled path: install a session, warm up once (the first scope
    // interns the region name and touches the accumulator row), then
    // the steady state must be allocation-free — the span ring is
    // pre-sized and the intern table hits without inserting.
    let session = TraceSession::new(1);
    trace::install(session.clone());
    {
        let _warm = trace::scope("alloc_probe");
    }
    let enabled = allocs_during(|| {
        for _ in 0..1000 {
            let _s = trace::scope("alloc_probe");
        }
    });
    trace::uninstall();
    assert_eq!(enabled, 0, "warm traced trace::scope allocated {enabled} times");

    // The session still holds the recorded spans (capped at the ring
    // capacity) — the loop above really did record.
    let summary = session.summarize();
    assert!(summary.iter().any(|r| r.name == "alloc_probe"));
}
