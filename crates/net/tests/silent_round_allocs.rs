//! A round costs the allocator nothing once the net is warm: not an
//! all-silent round, and not a round of a few dozen one-word messages
//! (the shape of Theorem 13's low-message regime), traced or not. Inbox
//! and staging buffers, the link ledger and the batch rows drained from
//! it are pooled across rounds.
//!
//! This binary holds one test so that its allocator sees nothing else.

use cc_net::{CliqueNet, NetConfig};
use cc_trace::{Event, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes it hands out.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are passed through unchanged; the
// extra work is one atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded as received; the caller upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A sink that stores nothing: it sums the words of the batches it is
/// handed, so the traced path runs in full without the sink allocating.
struct BatchWords(Arc<AtomicU64>);

impl Tracer for BatchWords {
    fn wants_timing(&self) -> bool {
        false
    }

    fn record(&mut self, event: Event) {
        if let Event::MessageBatch { words, .. } = event {
            self.0.fetch_add(words, Ordering::Relaxed);
        }
    }
}

/// Runs 16 warm-up rounds and then 200 measured ones; returns the
/// messages received and the bytes allocated in the measured rounds.
fn warm_rounds(net: &mut CliqueNet<u64>) -> (u64, usize) {
    let n = net.n();
    let mut received = 0u64;
    let mut round = |net: &mut CliqueNet<u64>, i: usize| {
        net.step(|node, inbox, out| {
            received += inbox.len() as u64;
            // Every other round, 41 nodes send one word each.
            if i.is_multiple_of(2) && node < 41 {
                out.send((node + 1 + i % 7) % n, node as u64).unwrap();
            }
        })
        .unwrap();
    };
    for i in 0..16 {
        round(net, i);
    }
    let before = BYTES.load(Ordering::Relaxed);
    for i in 0..200 {
        round(net, i);
    }
    (received, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn a_warm_sparse_round_allocates_nothing() {
    let cfg = NetConfig::kt1(96).with_seed(1);
    let mut net: CliqueNet<u64> = CliqueNet::new(cfg.clone());
    let (received, allocated) = warm_rounds(&mut net);
    assert_eq!(net.cost().messages, 108 * 41);
    assert_eq!(received, 108 * 41);
    assert_eq!(allocated, 0, "200 warm rounds allocated {allocated} bytes");

    let words = Arc::new(AtomicU64::new(0));
    let mut net: CliqueNet<u64> = CliqueNet::new(cfg);
    net.set_tracer(Box::new(BatchWords(Arc::clone(&words))));
    let (received, allocated) = warm_rounds(&mut net);
    assert_eq!(received, 108 * 41);
    assert_eq!(words.load(Ordering::Relaxed), net.cost().words);
    assert_eq!(
        allocated, 0,
        "200 warm traced rounds allocated {allocated} bytes"
    );
}
