//! Message-size accounting and payload corruption.
//!
//! Every message type an algorithm sends through the simulator must say how
//! many `⌈log₂ n⌉`-bit words it occupies. The simulator charges this size
//! against the per-link budget and the global word/bit counters; algorithms
//! therefore cannot "cheat" by stuffing large payloads into one message.
//! Payloads wider than one link are fragmented, shipped and reassembled by
//! `cc-route`'s bundle paths, the workspace's one framing format.
//!
//! [`Wire::corrupt_bit`] is the fault-injection hook that lives alongside
//! [`Wire`]: it lets the chaos layer flip a deterministic bit in an
//! in-flight payload (types that cannot express a flip report so and the
//! fault degrades to a drop).

/// Types that can cross a clique link.
pub trait Wire {
    /// Size in words (1 word = `⌈log₂ n⌉` bits). Must be ≥ 1: even an empty
    /// signal occupies one message slot of the model.
    fn words(&self) -> u64;

    /// Flips one deterministic bit of the payload, selected by `bit`
    /// (reduced modulo the payload's capacity). Returns `true` if a flip
    /// happened; types with no mutable bits (e.g. `()`) return `false`,
    /// in which case the chaos layer records the corruption attempt but
    /// drops the message instead.
    fn corrupt_bit(&mut self, bit: u64) -> bool {
        let _ = bit;
        false
    }
}

impl Wire for u64 {
    #[inline]
    fn words(&self) -> u64 {
        1
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        *self ^= 1u64 << (bit % 64);
        true
    }
}

impl Wire for u32 {
    #[inline]
    fn words(&self) -> u64 {
        1
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        *self ^= 1u32 << (bit % 32);
        true
    }
}

impl Wire for usize {
    #[inline]
    fn words(&self) -> u64 {
        1
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        *self ^= 1usize << (bit % usize::BITS as u64);
        true
    }
}

impl Wire for () {
    #[inline]
    fn words(&self) -> u64 {
        1
    }
}

impl Wire for (u64, u64) {
    #[inline]
    fn words(&self) -> u64 {
        2
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        match (bit / 64) % 2 {
            0 => self.0.corrupt_bit(bit),
            _ => self.1.corrupt_bit(bit),
        }
    }
}

impl Wire for (u64, u64, u64) {
    #[inline]
    fn words(&self) -> u64 {
        3
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        match (bit / 64) % 3 {
            0 => self.0.corrupt_bit(bit),
            1 => self.1.corrupt_bit(bit),
            _ => self.2.corrupt_bit(bit),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn words(&self) -> u64 {
        self.iter().map(Wire::words).sum::<u64>().max(1)
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        if self.is_empty() {
            return false;
        }
        let idx = ((bit >> 6) % self.len() as u64) as usize;
        self[idx].corrupt_bit(bit)
    }
}

impl<T: Wire + ?Sized> Wire for &T {
    fn words(&self) -> u64 {
        (**self).words()
    }
}

/// Shared payloads: cloning an `Arc<T>` message is a reference-count
/// bump, which is what makes [`Outbox::broadcast`](crate::Outbox)
/// genuinely clone-free for large payloads — all `n − 1` envelopes share
/// one allocation.
///
/// Corruption is copy-on-write: a fault flipping a bit of one in-flight
/// envelope must not rewrite the payload under the sender or the other
/// `n − 2` recipients, so the flip detaches a private copy first (via
/// [`std::sync::Arc::make_mut`]; a uniquely-owned payload is flipped in
/// place).
impl<T: Wire + Clone> Wire for std::sync::Arc<T> {
    fn words(&self) -> u64 {
        (**self).words()
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        std::sync::Arc::make_mut(self).corrupt_bit(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(5u64.words(), 1);
        assert_eq!(5u32.words(), 1);
        assert_eq!(5usize.words(), 1);
        assert_eq!(().words(), 1);
        assert_eq!((1u64, 2u64).words(), 2);
        assert_eq!((1u64, 2u64, 3u64).words(), 3);
    }

    #[test]
    fn vec_sums_and_floors_at_one() {
        assert_eq!(vec![1u64, 2, 3].words(), 3);
        assert_eq!(
            Vec::<u64>::new().words(),
            1,
            "empty payload still occupies a slot"
        );
    }

    #[test]
    fn reference_delegates() {
        let v = vec![(1u64, 2u64); 4];
        assert_eq!(v.words(), 8);
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit_of_scalars() {
        let mut x = 0u64;
        assert!(x.corrupt_bit(7));
        assert_eq!(x, 1 << 7);
        assert!(x.corrupt_bit(71), "bit index reduces mod 64");
        assert_eq!(x, 0);

        let mut y = 0u32;
        assert!(y.corrupt_bit(33));
        assert_eq!(y, 1 << 1);

        let mut u = 0usize;
        assert!(u.corrupt_bit(3));
        assert_eq!(u, 8);
    }

    #[test]
    fn corrupt_bit_on_unflippable_payloads_reports_false() {
        assert!(!().corrupt_bit(5));
        let mut empty: Vec<u64> = Vec::new();
        assert!(!empty.corrupt_bit(5));
    }

    #[test]
    fn corrupt_bit_targets_one_tuple_field_or_vec_element() {
        let mut t = (0u64, 0u64, 0u64);
        assert!(t.corrupt_bit(64 + 3)); // field (1/1)%3 = 1, bit 3
        assert_eq!(t, (0, 8, 0));

        let mut v = vec![0u64; 4];
        assert!(v.corrupt_bit(2 * 64 + 5)); // element 2, bit 5
        assert_eq!(v, vec![0, 0, 32, 0]);
    }

    /// Messages exactly at word boundaries: `words()` sums element sizes
    /// with no rounding, so mixed-width payloads bill exactly.
    #[test]
    fn word_boundary_accounting_is_exact() {
        assert_eq!(vec![(1u64, 2u64); 3].words(), 6);
        let nested: Vec<Vec<u64>> = vec![vec![], vec![1], vec![1, 2]];
        assert_eq!(
            nested.words(),
            1 + 1 + 2,
            "empty inner vec floors at 1, others bill exactly"
        );
    }

    #[test]
    fn arc_wire_delegates_words() {
        use std::sync::Arc;
        assert_eq!(Arc::new(vec![1u64, 2, 3]).words(), 3);
        assert_eq!(Arc::new(()).words(), 1);
        assert_eq!(Arc::new(7u64).words(), 1);
    }

    /// Copy-on-write corruption: flipping a bit of one shared handle must
    /// detach a private copy, leaving the other handle untouched.
    #[test]
    fn arc_corrupt_bit_is_copy_on_write() {
        use std::sync::Arc;
        let original = Arc::new(vec![0u64, 0]);
        let mut flipped = Arc::clone(&original);
        assert!(flipped.corrupt_bit(3));
        assert_eq!(*original, vec![0, 0], "shared peer must not see the flip");
        assert_eq!(*flipped, vec![8, 0]);
        assert!(
            !Arc::ptr_eq(&original, &flipped),
            "the flip detaches a private copy"
        );

        // Uniquely owned: flipped in place, no detach possible or needed.
        let mut unique = Arc::new(1u64);
        assert!(unique.corrupt_bit(0));
        assert_eq!(*unique, 0);
    }

    /// Unflippable payloads stay unflippable through an `Arc`: the chaos
    /// layer's degrade-to-drop contract must survive the wrapper.
    #[test]
    fn arc_of_unflippable_payload_reports_false() {
        use std::sync::Arc;
        let mut a = Arc::new(());
        assert!(!a.corrupt_bit(9));
        let mut b: Arc<Vec<u64>> = Arc::new(Vec::new());
        assert!(!b.corrupt_bit(9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn corrupt_bit_changes_vec_payloads(
            payload in proptest::collection::vec(any::<u64>(), 1..16),
            bit in any::<u64>(),
        ) {
            let mut corrupted = payload.clone();
            prop_assert!(corrupted.corrupt_bit(bit));
            prop_assert_ne!(corrupted, payload);
        }
    }
}
