//! A round costs the allocator nothing once the net is warm: not an
//! all-silent round, and not a round of a few dozen one-word messages
//! (the shape of Theorem 13's low-message regime). Inbox and staging
//! buffers and the link ledger are pooled across rounds.
//!
//! This binary holds one test so that its allocator sees nothing else.

use cc_net::{CliqueNet, NetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn a_warm_sparse_round_allocates_nothing() {
    let n = 96;
    let mut net: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(n).with_seed(1));
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
        round(&mut net, i);
    }
    let before = BYTES.load(Ordering::Relaxed);
    for i in 0..200 {
        round(&mut net, i);
    }
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(net.cost().messages, 108 * 41);
    assert_eq!(received, 108 * 41);
    assert_eq!(allocated, 0, "200 warm rounds allocated {allocated} bytes");
}
