//! Cutting a bundle into fragments is one buffer, not one allocation per
//! fragment. A bundle of 800 fragments, shipped through `ship_direct` or
//! `route_bundles` and read back, makes no more allocations of one
//! frame's size than a bundle of 8 does (a frame of its own is an
//! `Arc<[u64]>` of exactly that size), and no more than a few dozen more
//! allocations of any size on either path: routing's held queues are
//! recycled, not allocated per destination visit.
//!
//! This binary holds one test so that its allocator sees nothing else.

use cc_net::NetConfig;
use cc_route::{route_bundles, ship_direct, Bundle, Bundles, Net};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Words per link, so every full fragment frame is this wide.
const LINK_WORDS: usize = 8;

/// Bytes of one frame's own shared buffer: the refcounts, then the words.
const FRAME_BYTES: usize = 2 * size_of::<usize>() + LINK_WORDS * size_of::<u64>();

/// The system allocator, counting allocation calls: all of them, and
/// those of exactly one frame's size.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static FRAME_SIZED: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    if size == FRAME_BYTES {
        FRAME_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are passed through unchanged; the
// extra work is two atomic adds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded as received; the caller upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

type Ship = fn(&mut Net, Vec<Bundle>) -> Result<Bundles, cc_net::NetError>;

/// `(all, frame-sized)` allocation calls to ship one bundle of
/// `fragments` full fragments (`chunk` payload words each) from node 1 to
/// node 2 and read it back.
fn allocations(ship: Ship, chunk: usize, fragments: usize) -> (usize, usize) {
    let cfg = NetConfig::kt1(4).with_link_words(LINK_WORDS as u64);
    let mut net = Net::new(cfg.with_seed(3));
    let words: Vec<u64> = (0..(chunk * fragments) as u64).collect();
    let bundle = vec![(1, 2, words.clone())];
    let (calls, sized) = (
        CALLS.load(Ordering::Relaxed),
        FRAME_SIZED.load(Ordering::Relaxed),
    );
    let mut got = ship(&mut net, bundle).unwrap();
    let back = got.take(2, 1).unwrap();
    let counted = (
        CALLS.load(Ordering::Relaxed) - calls,
        FRAME_SIZED.load(Ordering::Relaxed) - sized,
    );
    assert_eq!(back, Some(words));
    assert!(net.cost().messages >= fragments as u64);
    counted
}

#[test]
fn a_bundle_allocates_once_however_many_fragments_it_has() {
    // A full direct fragment is a sequence word and 7 payload words; a
    // full routed one adds the 2-word routing header, leaving 5.
    for (path, ship, chunk) in [
        ("ship_direct", ship_direct as Ship, LINK_WORDS - 1),
        ("route_bundles", route_bundles as Ship, LINK_WORDS - 3),
    ] {
        let (small, small_frames) = allocations(ship, chunk, 8);
        let (large, large_frames) = allocations(ship, chunk, 800);
        assert!(
            large_frames <= small_frames,
            "{path}: {small_frames} frame-sized allocations for 8 fragments, {large_frames} for 800"
        );
        // Buffers that double as they fill add a few calls between 8 and
        // 800 fragments; one allocation per fragment adds 792.
        assert!(
            large <= small + 64,
            "{path}: {small} allocations for 8 fragments, {large} for 800"
        );
    }
}
