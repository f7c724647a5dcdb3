//! The ℓ0-sampler: level-sampled sparse recovery (Cormode–Firmani style).
//!
//! A [`SketchSpace`] fixes the shared randomness (one `Θ(log N)`-wise hash
//! `h` for level sampling, pairwise hashes `g_{ℓ,r}` for bucketing, and a
//! fingerprint point `z`) for one family of linear sketches over a universe
//! `[N]`. Every node constructing its sketch from the *same* space gets the
//! linearity property of Section 2.1: adding two sketches coordinate-wise
//! yields the sketch of the sum of the underlying vectors, with intra-set
//! contributions cancelling exactly.
//!
//! [`SketchSpace::sample`] returns a (near-)uniform non-zero coordinate of
//! the summed vector, `Zero` when the vector is exactly zero (this direction
//! is deterministic: a zero vector produces an all-zero sketch), or `Fail`
//! when recovery fails at every level — callers treat `Fail` as a retry
//! with an independent family, exactly as the paper's algorithms tolerate
//! the sampler's `1/N^c` failure probability.
//!
//! # Memory layout and the batched kernel path
//!
//! A [`Sketch`] stores its cells structure-of-arrays: three flat planes
//! `phi[]`, `iota[]`, `tau[]` indexed by `(level · rows + row) · buckets +
//! bucket`. The wire format ([`Sketch::to_words`]/[`Sketch::from_words`])
//! interleaves the planes back into per-cell `[φ, ι, τ]` triples, so
//! transcripts are byte-identical to the historical array-of-structs
//! layout. [`SketchSpace::insert_batch`] inserts a whole signed multiset at
//! once: level hashes and bucket hashes are evaluated by batched Horner
//! kernels ([`KWiseHash::eval_reduced_batch`]), fingerprint powers come
//! from a 4-bit windowed table ([`field::PowTable`]), and contributions are
//! scattered into the planes. Field addition is exact, commutative, and
//! associative, so the batched path produces **bit-identical** sketches to
//! repeated scalar `insert` calls — pinned by proptest below. The scalar
//! `insert` is test-only: every production path inserts in batches.

use crate::cell::{cell_decode_with, cell_insert_parts, CellDecode, CELL_WORDS};
use crate::field;
use crate::hash::{KWiseHash, PairwiseHash};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Shape parameters of a sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchParams {
    /// Number of geometric sampling levels (≈ `log2 N + 2`).
    pub levels: usize,
    /// Independent bucket rows per level.
    pub rows: usize,
    /// Buckets per row.
    pub buckets: usize,
    /// Independence parameter of the level hash (`Θ(log N)`).
    pub k: usize,
}

impl SketchParams {
    /// Sensible defaults for a universe of size `universe`, following the
    /// Cormode–Firmani shape: `log N` levels, `Θ(log N)`-wise level hash,
    /// a small constant number of rows and buckets per level.
    ///
    /// With `lg = bitlength(max(universe, 2)) = ⌊log2 N⌋ + 1`, this yields
    /// `levels = ⌊log2 N⌋ + 3 ≥ log2 N + 2` at every universe, including
    /// exact powers of two and `universe ≤ 2` (pinned by proptest below).
    pub fn for_universe(universe: u64) -> Self {
        let lg = (64 - universe.max(2).leading_zeros()) as usize;
        SketchParams {
            levels: lg + 2,
            rows: 2,
            buckets: 8,
            k: lg.max(2),
        }
    }

    /// A compact variant for high-volume contexts (SQ-MST guardians
    /// receive `Θ(√n)` sketch sets per vertex): half the buckets of
    /// [`for_universe`](Self::for_universe). Per-sample failure probability
    /// rises (measured in experiment E13), which the `Θ(log n)` independent
    /// retry families absorb; wrong answers remain impossible either way
    /// (decoding is validated, failures are explicit).
    pub fn compact_for_universe(universe: u64) -> Self {
        let mut p = Self::for_universe(universe);
        p.buckets = (p.buckets / 2).max(2);
        p
    }

    /// Number of cells (one `(φ, ι, τ)` counter triple each).
    pub fn cells(&self) -> usize {
        self.levels * self.rows * self.buckets
    }

    /// Total `u64` words one sketch occupies (the quantity message-cost
    /// accounting charges when a sketch crosses the network).
    pub fn words(&self) -> usize {
        self.cells() * CELL_WORDS
    }

    /// Total sketch size in bits (Theorem 1 reports `O(log^4 n)`).
    pub fn bits(&self) -> usize {
        self.words() * 64
    }
}

/// Outcome of an ℓ0 sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sample {
    /// The summed vector is exactly zero.
    Zero,
    /// Recovery failed at every level (retry with an independent family).
    Fail,
    /// A non-zero coordinate `(index, coefficient)`.
    Item(u64, i64),
}

/// One family of linear sketches: shared hash functions + fingerprint point.
#[derive(Clone, Debug)]
pub struct SketchSpace {
    universe: u64,
    params: SketchParams,
    h: KWiseHash,
    /// `g[level * rows + row]`.
    g: Vec<PairwiseHash>,
    /// Windowed powers of the fingerprint point `z` — accelerates `z^i` in
    /// insertion and the fingerprint check in decoding; returns exactly
    /// [`field::pow`] values.
    zpow: field::PowTable,
}

/// A linear sketch: three flat planes of field counters, one per cell
/// component (structure-of-arrays).
///
/// Sketches from the same [`SketchSpace`] can be added with
/// [`Sketch::add_assign_sketch`]; that is the component-merge operation of
/// Section 2.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    /// `Σ aᵢ` per cell.
    phi: Vec<u64>,
    /// `Σ aᵢ · i` per cell.
    iota: Vec<u64>,
    /// `Σ aᵢ · z^i` per cell.
    tau: Vec<u64>,
}

impl Sketch {
    /// Coordinate-wise field addition (sketch linearity).
    ///
    /// # Panics
    ///
    /// Panics if the sketches have different shapes.
    pub fn add_assign_sketch(&mut self, other: &Sketch) {
        assert_eq!(self.phi.len(), other.phi.len(), "sketch shape mismatch");
        field::add_assign_slice(&mut self.phi, &other.phi);
        field::add_assign_slice(&mut self.iota, &other.iota);
        field::add_assign_slice(&mut self.tau, &other.tau);
    }

    /// Size in `u64` words (what the network charges per transfer).
    pub fn words(&self) -> usize {
        self.phi.len() * CELL_WORDS
    }

    /// Whether every counter is zero — equivalent to the underlying summed
    /// vector being exactly zero (cancellation in the field is exact).
    pub fn is_zero(&self) -> bool {
        self.phi.iter().all(|&x| x == 0)
            && self.iota.iter().all(|&x| x == 0)
            && self.tau.iter().all(|&x| x == 0)
    }

    /// Serializes the sketch into wire words (what actually crosses the
    /// simulated network, fragmented into `O(log n)`-bit messages).
    ///
    /// The wire layout interleaves the planes into `[φ, ι, τ]` triples per
    /// cell — byte-identical to the historical interleaved in-memory layout,
    /// so transcripts are unchanged by the SoA refactor.
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.words());
        for c in 0..self.phi.len() {
            out.push(self.phi[c]);
            out.push(self.iota[c]);
            out.push(self.tau[c]);
        }
        out
    }

    /// Reconstructs a sketch of `space`'s shape from wire words.
    ///
    /// # Panics
    ///
    /// Panics if the word count does not match the space's shape.
    pub fn from_words(space: &SketchSpace, words: Vec<u64>) -> Sketch {
        assert_eq!(
            words.len(),
            space.params().words(),
            "sketch wire size mismatch"
        );
        let cells = words.len() / CELL_WORDS;
        let mut sk = Sketch {
            phi: Vec::with_capacity(cells),
            iota: Vec::with_capacity(cells),
            tau: Vec::with_capacity(cells),
        };
        for cell in words.chunks_exact(CELL_WORDS) {
            sk.phi.push(cell[0]);
            sk.iota.push(cell[1]);
            sk.tau.push(cell[2]);
        }
        sk
    }
}

/// Reusable scratch buffers for [`SketchSpace::insert_batch_with`].
///
/// One scratch can be shared across spaces and batch sizes; buffers grow to
/// the largest batch seen and are reused without reallocation afterwards.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    raw_idx: Vec<u64>,
    hval: Vec<u64>,
    lev: Vec<u32>,
    counts: Vec<usize>,
    cursor: Vec<usize>,
    idx: Vec<u64>,
    aphi: Vec<u64>,
    aiota: Vec<u64>,
    atau: Vec<u64>,
    zp: Vec<u64>,
    bucket: Vec<u64>,
}

impl SketchSpace {
    /// Creates a space from a shared seed.
    ///
    /// In the distributed protocol the seed is derived from the
    /// `Θ(log² n)` shared random bits of Theorem 1's preprocessing, so all
    /// nodes construct identical hash functions.
    pub fn new(universe: u64, params: SketchParams, seed: u64) -> Self {
        assert!(universe >= 1, "universe must be non-empty");
        assert!(params.levels >= 1 && params.rows >= 1 && params.buckets >= 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let h = KWiseHash::random(params.k.max(2), &mut rng);
        let g = (0..params.levels * params.rows)
            .map(|_| crate::hash::pairwise(&mut rng))
            .collect();
        // Fingerprint point z ∈ [2, p).
        let z = 2 + rng.gen_range_u64(field::P - 2);
        SketchSpace {
            universe,
            params,
            h,
            g,
            zpow: field::PowTable::new(z),
        }
    }

    /// The universe size `N`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The shape parameters.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// A fresh all-zero sketch.
    pub fn zero_sketch(&self) -> Sketch {
        let cells = self.params.cells();
        Sketch {
            phi: vec![0u64; cells],
            iota: vec![0u64; cells],
            tau: vec![0u64; cells],
        }
    }

    /// Deepest level item `i` belongs to (levels are nested: an item in
    /// level `ℓ` is in every level below).
    fn item_level(&self, i: u64) -> usize {
        let v = self.h.eval(i);
        let tz = if v == 0 {
            63
        } else {
            v.trailing_zeros() as usize
        };
        tz.min(self.params.levels - 1)
    }

    /// Flat cell index of `(level, row, bucket)` in the SoA planes.
    fn cell_index(&self, level: usize, row: usize, bucket: u64) -> usize {
        (level * self.params.rows + row) * self.params.buckets + bucket as usize
    }

    /// Adds `sign · eᵢ` to the sketch, one item at a time: the scalar
    /// reference the batched path is pinned against in tests.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ universe` or `sign ∉ {−1, +1}`.
    #[cfg(test)]
    pub fn insert(&self, sketch: &mut Sketch, i: u64, sign: i64) {
        assert!(i < self.universe, "item outside the universe");
        assert!(sign == 1 || sign == -1, "signs are ±1");
        let a = field::from_signed(sign);
        let a_iota = field::mul(a, field::reduce64(i));
        let a_tau = field::mul(a, self.zpow.pow(i));
        let max_level = self.item_level(i);
        for level in 0..=max_level {
            for row in 0..self.params.rows {
                let b = self.g[level * self.params.rows + row]
                    .eval_range(i, self.params.buckets as u64);
                let c = self.cell_index(level, row, b);
                cell_insert_parts(
                    &mut sketch.phi[c],
                    &mut sketch.iota[c],
                    &mut sketch.tau[c],
                    a,
                    a_iota,
                    a_tau,
                );
            }
        }
    }

    /// Adds a whole signed multiset to the sketch through the batched
    /// kernel path, reusing `scratch` buffers across calls.
    ///
    /// Bit-identical to inserting the items one at a time (the scalar
    /// reference lives in this module's tests): the per-cell counters are exact field sums
    /// of per-item contributions, and sums do not depend on insertion order
    /// or batching. The win is purely computational — level and bucket
    /// hashes are evaluated by batched Horner kernels over the whole batch,
    /// and `z^i` comes from the windowed power table.
    ///
    /// # Panics
    ///
    /// Panics if any item is `≥ universe` or any sign is not `±1`.
    pub fn insert_batch_with(
        &self,
        sketch: &mut Sketch,
        items: &[(u64, i64)],
        scratch: &mut BatchScratch,
    ) {
        let m = items.len();
        if m == 0 {
            return;
        }
        let levels = self.params.levels;
        let rows = self.params.rows;
        let buckets = self.params.buckets as u64;

        scratch.raw_idx.clear();
        for &(i, sign) in items {
            assert!(i < self.universe, "item outside the universe");
            assert!(sign == 1 || sign == -1, "signs are ±1");
            scratch.raw_idx.push(i);
        }

        // Level hash for every item in one batched Horner sweep, then the
        // geometric level from trailing zeros (identical to `item_level`).
        scratch.hval.resize(m, 0);
        self.h
            .eval_reduced_batch(&scratch.raw_idx, &mut scratch.hval);
        scratch.lev.clear();
        scratch.counts.clear();
        scratch.counts.resize(levels, 0);
        for &v in scratch.hval.iter() {
            let tz = if v == 0 {
                63
            } else {
                v.trailing_zeros() as usize
            };
            let lev = tz.min(levels - 1);
            scratch.lev.push(lev as u32);
            scratch.counts[lev] += 1;
        }

        // Stable counting sort, deepest level first, so the items belonging
        // to level ℓ (those with item level ≥ ℓ) are exactly a prefix.
        scratch.cursor.clear();
        scratch.cursor.resize(levels, 0);
        let mut start = 0usize;
        for lev in (0..levels).rev() {
            scratch.cursor[lev] = start;
            start += scratch.counts[lev];
        }
        scratch.idx.resize(m, 0);
        scratch.aphi.resize(m, 0);
        for (j, &(i, sign)) in items.iter().enumerate() {
            let lev = scratch.lev[j] as usize;
            let pos = scratch.cursor[lev];
            scratch.cursor[lev] = pos + 1;
            scratch.idx[pos] = i;
            scratch.aphi[pos] = field::from_signed(sign);
        }

        // Per-item contributions (a, a·i, a·z^i) in sorted order.
        scratch.zp.resize(m, 0);
        self.zpow.pow_slice(&scratch.idx, &mut scratch.zp);
        scratch.aiota.resize(m, 0);
        scratch.atau.resize(m, 0);
        for j in 0..m {
            let a = scratch.aphi[j];
            scratch.aiota[j] = field::mul(a, field::reduce64(scratch.idx[j]));
            scratch.atau[j] = field::mul(a, scratch.zp[j]);
        }

        // Scatter level by level: one batched bucket-hash evaluation per
        // (level, row) over the prefix of items still present at that level.
        scratch.bucket.resize(m, 0);
        let mut present = m;
        for level in 0..levels {
            if present == 0 {
                break;
            }
            for row in 0..rows {
                let g = &self.g[level * rows + row];
                g.eval_range_reduced_batch(
                    &scratch.idx[..present],
                    buckets,
                    &mut scratch.bucket[..present],
                );
                let base = (level * rows + row) * self.params.buckets;
                for j in 0..present {
                    let c = base + scratch.bucket[j] as usize;
                    cell_insert_parts(
                        &mut sketch.phi[c],
                        &mut sketch.iota[c],
                        &mut sketch.tau[c],
                        scratch.aphi[j],
                        scratch.aiota[j],
                        scratch.atau[j],
                    );
                }
            }
            present -= scratch.counts[level];
        }
    }

    /// [`insert_batch_with`](Self::insert_batch_with) with a throwaway
    /// scratch (convenience for one-off batches).
    pub fn insert_batch(&self, sketch: &mut Sketch, items: &[(u64, i64)]) {
        let mut scratch = BatchScratch::default();
        self.insert_batch_with(sketch, items, &mut scratch);
    }

    /// Valid items recovered at one level (validated against the hash
    /// structure to reject false 1-sparse decodes).
    fn decode_level(&self, sketch: &Sketch, level: usize) -> Vec<(u64, i64)> {
        let mut items: Vec<(u64, i64)> = Vec::new();
        for row in 0..self.params.rows {
            for b in 0..self.params.buckets as u64 {
                let c = self.cell_index(level, row, b);
                if let CellDecode::One(i, coeff) = cell_decode_with(
                    sketch.phi[c],
                    sketch.iota[c],
                    sketch.tau[c],
                    self.universe,
                    |e| self.zpow.pow(e),
                ) {
                    // Structural validation: i must actually live in this
                    // level and hash to this bucket.
                    if self.item_level(i) >= level
                        && self.g[level * self.params.rows + row]
                            .eval_range(i, self.params.buckets as u64)
                            == b
                        && !items.iter().any(|&(j, _)| j == i)
                    {
                        items.push((i, coeff));
                    }
                }
            }
        }
        items
    }

    /// Draws a (near-)uniform non-zero coordinate of the summed vector.
    pub fn sample(&self, sketch: &Sketch) -> Sample {
        for level in (0..self.params.levels).rev() {
            let items = self.decode_level(sketch, level);
            if let Some(&(i, c)) = items.iter().min_by_key(|&&(i, _)| self.h.eval(i)) {
                return Sample::Item(i, c);
            }
        }
        if sketch.is_zero() {
            Sample::Zero
        } else {
            Sample::Fail
        }
    }

    /// All items recoverable from the sketch (test/diagnostic helper; for a
    /// vector with support ≤ buckets this is w.h.p. the full support).
    pub fn decode_all(&self, sketch: &Sketch) -> Vec<(u64, i64)> {
        let mut out: Vec<(u64, i64)> = Vec::new();
        for level in 0..self.params.levels {
            for (i, c) in self.decode_level(sketch, level) {
                if !out.iter().any(|&(j, _)| j == i) {
                    out.push((i, c));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

// Tiny extension so SketchSpace::new can draw a bounded u64 without pulling
// the Rng trait into the public signature.
trait GenRangeU64 {
    fn gen_range_u64(&mut self, bound: u64) -> u64;
}

impl GenRangeU64 for ChaCha8Rng {
    fn gen_range_u64(&mut self, bound: u64) -> u64 {
        use rand::Rng;
        self.gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng as _;
    use std::collections::HashMap;

    fn space(universe: u64, seed: u64) -> SketchSpace {
        SketchSpace::new(universe, SketchParams::for_universe(universe), seed)
    }

    #[test]
    fn zero_sketch_samples_zero() {
        let s = space(1000, 1);
        let sk = s.zero_sketch();
        assert_eq!(s.sample(&sk), Sample::Zero);
        assert!(sk.is_zero());
    }

    #[test]
    fn singleton_always_recovered() {
        for seed in 0..20 {
            let s = space(10_000, seed);
            let mut sk = s.zero_sketch();
            s.insert(&mut sk, 777, 1);
            assert_eq!(s.sample(&sk), Sample::Item(777, 1), "seed={seed}");
        }
    }

    #[test]
    fn cancellation_is_exact() {
        let s = space(5000, 3);
        let mut a = s.zero_sketch();
        let mut b = s.zero_sketch();
        for i in [1u64, 50, 999, 4321] {
            s.insert(&mut a, i, 1);
            s.insert(&mut b, i, -1);
        }
        a.add_assign_sketch(&b);
        assert!(a.is_zero());
        assert_eq!(s.sample(&a), Sample::Zero);
    }

    #[test]
    fn partial_cancellation_leaves_survivor() {
        let s = space(5000, 4);
        let mut a = s.zero_sketch();
        s.insert(&mut a, 10, 1);
        s.insert(&mut a, 20, 1);
        let mut b = s.zero_sketch();
        s.insert(&mut b, 10, -1);
        a.add_assign_sketch(&b);
        assert_eq!(s.sample(&a), Sample::Item(20, 1));
    }

    #[test]
    fn sample_returns_a_true_member() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        for trial in 0..50 {
            let s = space(100_000, trial);
            let mut sk = s.zero_sketch();
            let support: Vec<u64> = (0..200).map(|_| rng.gen_range(0..100_000)).collect();
            let mut set = std::collections::BTreeSet::new();
            for &i in &support {
                if set.insert(i) {
                    s.insert(&mut sk, i, 1);
                }
            }
            match s.sample(&sk) {
                Sample::Item(i, c) => {
                    assert!(set.contains(&i), "sampled a non-member");
                    assert_eq!(c, 1);
                }
                Sample::Zero => panic!("non-empty vector sampled Zero"),
                Sample::Fail => {} // rare, allowed
            }
        }
    }

    #[test]
    fn failure_rate_is_low() {
        let mut fails = 0;
        let trials = 200;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        for trial in 0..trials {
            let s = space(50_000, 1000 + trial);
            let mut sk = s.zero_sketch();
            let k = rng.gen_range(1..500);
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..k {
                let i = rng.gen_range(0..50_000);
                if seen.insert(i) {
                    s.insert(&mut sk, i, 1);
                }
            }
            if s.sample(&sk) == Sample::Fail {
                fails += 1;
            }
        }
        assert!(
            fails <= trials / 20,
            "too many sampler failures: {fails}/{trials}"
        );
    }

    #[test]
    fn samples_are_spread_across_support() {
        // Near-uniformity: over independent spaces, each of 8 support items
        // should be sampled a non-trivial fraction of the time.
        let support: Vec<u64> = vec![3, 100, 2000, 30_000, 44_444, 55_555, 60_001, 65_000];
        let mut counts: HashMap<u64, usize> = HashMap::new();
        let trials = 600;
        for seed in 0..trials {
            let s = space(70_000, 31_337 + seed);
            let mut sk = s.zero_sketch();
            for &i in &support {
                s.insert(&mut sk, i, 1);
            }
            if let Sample::Item(i, _) = s.sample(&sk) {
                *counts.entry(i).or_default() += 1;
            }
        }
        let total: usize = counts.values().sum();
        assert!(total > trials as usize * 9 / 10, "too many failures");
        for &i in &support {
            let c = *counts.get(&i).unwrap_or(&0);
            let frac = c as f64 / total as f64;
            assert!(
                frac > 0.02,
                "item {i} sampled only {c}/{total} times — far from uniform"
            );
        }
    }

    #[test]
    fn decode_all_recovers_small_supports() {
        let s = space(9999, 8);
        let mut sk = s.zero_sketch();
        let mut expect = Vec::new();
        for (i, sign) in [(5u64, 1i64), (17, -1), (901, 1)] {
            s.insert(&mut sk, i, sign);
            expect.push((i, sign));
        }
        expect.sort_unstable();
        assert_eq!(s.decode_all(&sk), expect);
    }

    #[test]
    fn params_account_size() {
        let p = SketchParams::for_universe(1 << 20);
        assert_eq!(p.words(), p.levels * p.rows * p.buckets * 3);
        assert_eq!(p.bits(), p.words() * 64);
    }

    #[test]
    fn wire_roundtrip_is_identity() {
        let s = space(4096, 17);
        let mut sk = s.zero_sketch();
        for i in [0u64, 1, 2, 77, 4095] {
            s.insert(&mut sk, i, 1);
        }
        let words = sk.to_words();
        assert_eq!(words.len(), s.params().words());
        let back = Sketch::from_words(&s, words);
        assert_eq!(back, sk);
        // Interleaved wire triples must match the scalar cell accumulation
        // semantics: a fresh one-item sketch's first nonzero triple decodes.
        let mut one = s.zero_sketch();
        s.insert(&mut one, 42, 1);
        let w = one.to_words();
        let triple = w
            .chunks_exact(CELL_WORDS)
            .find(|c| c.iter().any(|&x| x != 0))
            .expect("one insert leaves nonzero cells");
        assert_ne!(triple[0], 0, "phi occupies the first wire word of a cell");
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn insert_rejects_out_of_universe() {
        let s = space(100, 1);
        let mut sk = s.zero_sketch();
        s.insert(&mut sk, 100, 1);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn insert_batch_rejects_out_of_universe() {
        let s = space(100, 1);
        let mut sk = s.zero_sketch();
        s.insert_batch(&mut sk, &[(5, 1), (100, 1)]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let a = space(100, 1);
        let b = SketchSpace::new(
            100,
            SketchParams {
                levels: 3,
                rows: 1,
                buckets: 4,
                k: 2,
            },
            1,
        );
        let mut x = a.zero_sketch();
        let y = b.zero_sketch();
        x.add_assign_sketch(&y);
    }

    #[test]
    fn different_seeds_give_different_spaces() {
        let a = space(1000, 1);
        let b = space(1000, 2);
        let mut x = a.zero_sketch();
        let mut y = b.zero_sketch();
        a.insert(&mut x, 500, 1);
        b.insert(&mut y, 500, 1);
        assert_ne!(x, y, "independent families must differ");
    }

    #[test]
    fn batch_insert_matches_scalar_smoke() {
        let s = space(10_000, 55);
        let items: Vec<(u64, i64)> = vec![(0, 1), (9_999, -1), (42, 1), (42, 1), (7, -1)];
        let mut scalar = s.zero_sketch();
        for &(i, sign) in &items {
            s.insert(&mut scalar, i, sign);
        }
        let mut batched = s.zero_sketch();
        s.insert_batch(&mut batched, &items);
        assert_eq!(scalar, batched);
        assert_eq!(s.sample(&scalar), s.sample(&batched));
    }

    proptest! {
        /// `for_universe` must provide `levels ≥ log2(N) + 2` at *every*
        /// universe, including powers of two and tiny universes — the level
        /// argument of the sampler needs a level where a singleton survives
        /// w.h.p. (ISSUE 10 satellite: boundary-universe audit).
        #[test]
        fn for_universe_level_bound(exp in 0u32..50, off in -1i64..2) {
            let universe = ((1u64 << exp) as i64 + off).max(1) as u64;
            for p in [SketchParams::for_universe(universe),
                      SketchParams::compact_for_universe(universe)] {
                let lg_ceil = universe.max(2).next_power_of_two().trailing_zeros() as usize;
                prop_assert!(
                    p.levels >= lg_ceil + 2,
                    "universe {} -> levels {} < ceil(log2)+2 = {}",
                    universe, p.levels, lg_ceil + 2
                );
                prop_assert!(p.k >= 2);
                prop_assert!(p.buckets >= 2);
                prop_assert_eq!(p.words(), p.cells() * CELL_WORDS);
                // The space must actually construct at this shape.
                let s = SketchSpace::new(universe, p, 7);
                prop_assert_eq!(s.zero_sketch().words(), p.words());
            }
        }

        /// Batched insertion is bit-identical to scalar insertion for random
        /// signed multisets under both parameter presets (ISSUE 10
        /// satellite: scalar-vs-batched equivalence).
        #[test]
        fn batch_insert_bit_identical(
            seed in any::<u64>(),
            universe in 2u64..100_000,
            raw in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..120),
            compact in any::<bool>(),
        ) {
            let params = if compact {
                SketchParams::compact_for_universe(universe)
            } else {
                SketchParams::for_universe(universe)
            };
            let s = SketchSpace::new(universe, params, seed);
            let items: Vec<(u64, i64)> = raw
                .iter()
                .map(|&(i, pos)| (i % universe, if pos { 1 } else { -1 }))
                .collect();
            let mut scalar = s.zero_sketch();
            for &(i, sign) in &items {
                s.insert(&mut scalar, i, sign);
            }
            let mut batched = s.zero_sketch();
            let mut scratch = BatchScratch::default();
            // Split the batch in two to exercise scratch reuse mid-sketch.
            let half = items.len() / 2;
            s.insert_batch_with(&mut batched, &items[..half], &mut scratch);
            s.insert_batch_with(&mut batched, &items[half..], &mut scratch);
            prop_assert_eq!(&scalar, &batched);
            prop_assert_eq!(scalar.to_words(), batched.to_words());
            prop_assert_eq!(s.sample(&scalar), s.sample(&batched));
        }
    }
}
