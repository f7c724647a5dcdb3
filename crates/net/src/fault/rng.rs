//! Independent `ChaCha8` streams per fault-decision coordinate.
//!
//! Mirrors `cc_runtime`'s `node_round_rng` construction: the decision
//! coordinates are chained through SplitMix64 into a 32-byte ChaCha key,
//! so distinct `(seed, rule, round, src, dst, index)` tuples draw from
//! unrelated streams and equal tuples draw identical ones — on every
//! engine, at every thread count, in any inspection order.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SplitMix64 — the standard 64-bit finalizer used to decorrelate seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `ChaCha8` stream for one `(seed, rule, round, src, dst, index)`
/// fault-decision coordinate.
///
/// Draw order inside a stream is fixed by [`FaultPlan`]'s decision: word
/// 0 is the fire/skip coin, word 1 (when drawn) selects the corruption
/// bit.
///
/// [`FaultPlan`]: super::FaultPlan
pub(super) fn decision_rng(
    seed: u64,
    rule: u64,
    round: u64,
    src: usize,
    dst: usize,
    index: u32,
) -> ChaCha8Rng {
    // Fold each coordinate into the SplitMix state between output draws —
    // the same chaining shape as cc-runtime's node_round_rng, with
    // distinct multipliers per coordinate so (src, dst) swaps and
    // (rule, round) swaps cannot collide.
    let mut state = seed;
    state ^= rule.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let a = splitmix64(&mut state);
    state ^= round.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    let b = splitmix64(&mut state);
    state ^= (src as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    state ^= (dst as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7);
    let c = splitmix64(&mut state);
    state ^= u64::from(index).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let d = splitmix64(&mut state);

    let mut key = [0u8; 32];
    for (chunk, word) in key.chunks_mut(8).zip([a, b, c, d]) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

/// Maps a `u64` draw onto a uniform `f64` in `[0, 1)` (53-bit mantissa).
pub(super) fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn pure_function_of_the_tuple() {
        let mut a = decision_rng(7, 1, 12, 3, 5, 2);
        let mut b = decision_rng(7, 1, 12, 3, 5, 2);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn coordinates_are_decorrelated() {
        let base: Vec<u64> = {
            let mut r = decision_rng(7, 1, 12, 3, 5, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let variants = [
            (8, 1, 12, 3, 5, 2),
            (7, 2, 12, 3, 5, 2),
            (7, 1, 13, 3, 5, 2),
            (7, 1, 12, 4, 5, 2),
            (7, 1, 12, 3, 6, 2),
            (7, 1, 12, 3, 5, 3),
            (7, 1, 12, 5, 3, 2), // src/dst swap
        ];
        for (seed, rule, round, src, dst, index) in variants {
            let mut r = decision_rng(seed, rule, round, src, dst, index);
            let other: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
            assert_ne!(
                base,
                other,
                "stream collision for {:?}",
                (seed, rule, round, src, dst, index)
            );
        }
    }

    #[test]
    fn unit_f64_stays_in_the_half_open_interval() {
        for draw in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let x = unit_f64(draw);
            assert!((0.0..1.0).contains(&x), "{draw} mapped to {x}");
        }
        assert_eq!(unit_f64(0), 0.0);
    }
}
