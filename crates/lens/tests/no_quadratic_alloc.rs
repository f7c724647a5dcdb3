//! A ledger's storage follows the traffic, never `n²`: at the largest
//! clique `cc-serve` admits (n = 4096), a dense link or machine-pair
//! table would take hundreds of megabytes for a job that touches a few
//! dozen links a round.
//!
//! This binary holds one test so that its allocator sees nothing else.

use cc_lens::{CommLedger, LedgerTracer};
use cc_model::ModelSpec;
use cc_trace::{Event, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are passed through unchanged; the
// extra work is one atomic `fetch_max`.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded as received; the caller upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn a_4096_node_ledger_allocates_nothing_quadratic() {
    let n = 4096;
    let mut fold = LedgerTracer::new(n, &ModelSpec::clique()).unwrap();
    let ledger = CommLedger::new(n, &ModelSpec::clique()).unwrap();
    // A kt1-style job: 41 messages a round for a hundred rounds.
    for round in 0..100u64 {
        fold.record(Event::RoundStart { round });
        for i in 0..41u32 {
            let src = (i * 97 + round as u32) % n as u32;
            fold.record(Event::MessageBatch {
                round,
                src,
                dst: (src + 1 + i) % n as u32,
                count: 1,
                words: 2,
            });
        }
        fold.record(Event::RoundEnd {
            round,
            messages: 41,
            words: 82,
        });
    }
    let folded = fold.finish().unwrap();
    assert_eq!(folded.messages(), 4100);
    assert_eq!(ledger.messages(), 0);
    // The per-node arrays are 4096 × 8 bytes; anything n²-sized is
    // 4096² × 8 = 128 MiB.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= 1 << 20, "largest allocation {largest} bytes");
}
