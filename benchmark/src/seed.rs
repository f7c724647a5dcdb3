//! Every graph seed, net seed and job key is derived from `--seed` here,
//! so the program under test only ever sees generated inputs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed for item `index` of the stream `label` under run seed `seed`.
pub fn derive(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ splitmix(seed);
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix(h ^ splitmix(index))
}

pub fn rng(seed: u64, label: &str, index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive(seed, label, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_stable_and_distinct() {
        assert_eq!(derive(7, "gc/graph", 3), derive(7, "gc/graph", 3));
        let variants = [
            derive(7, "gc/graph", 3),
            derive(8, "gc/graph", 3),
            derive(7, "gc/net", 3),
            derive(7, "gc/graph", 4),
        ];
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
