//! [`WordVec`]: a word buffer with inline storage for small payloads.
//!
//! Almost every message the paper's algorithms send is tiny — one value
//! word in an all-to-all share, a `[dst, src, payload]` routed frame, a
//! three-word sketch fragment. Carrying those in a `Vec<u64>` costs one
//! heap allocation **per message**, and at `n = 4096` a single all-to-all
//! is 16.7 million messages: the allocator, not the simulator, dominates
//! wall time. `WordVec` stores up to [`INLINE_WORDS`] words inline and
//! only spills to a heap `Vec` beyond that, so the hot collectives send
//! without touching the allocator at all.
//!
//! Wider payloads that many receivers or many frames share ride as a
//! *view* into one refcounted buffer: a broadcast chunk fanned out to
//! `n − 1` links, or the frames of one fragmented bundle, which
//! [`WordVec::shared_views`] lays out back to back in a single
//! allocation. A clone or a forward is a refcount bump; a write copies
//! the view alone out first.
//!
//! The type is deliberately a drop-in for `Vec<u64>` where payloads are
//! concerned: it derefs to `[u64]`, compares against `Vec<u64>` and
//! slices, and its [`Wire`] accounting is **bit-identical** to
//! `Vec<u64>`'s (`words = len.max(1)`, same corruption index math), so
//! swapping it in cannot move any model cost.

use crate::wire::Wire;
use std::sync::Arc;

/// Words stored inline before spilling to the heap.
///
/// Three words cover the common frames: one-word collective payloads,
/// `(key, aux)` pairs, and `[final_dst, orig_src, word]` routed packets.
pub const INLINE_WORDS: usize = 3;

#[derive(Clone, Debug)]
enum Repr {
    /// `len ≤ INLINE_WORDS` words stored in place; no heap involvement.
    Inline { len: u8, buf: [u64; INLINE_WORDS] },
    /// Spilled representation for larger payloads.
    Heap(Vec<u64>),
    /// Immutable view of `buf[start..start + len]`: cloning bumps a
    /// refcount instead of copying. This is the broadcast shape — one
    /// chunk fanned out to `n − 1` receivers — and the fragment shape —
    /// every frame of a bundle cut from one buffer — where per-message
    /// heap copies would otherwise dominate the round. Any mutation
    /// copies the view out to `Heap` first (copy-on-write), so sharing is
    /// invisible to callers.
    Shared {
        buf: Arc<[u64]>,
        start: u32,
        len: u32,
    },
}

impl Repr {
    /// A view of all of `buf`.
    fn whole(buf: Arc<[u64]>) -> Repr {
        let len = u32::try_from(buf.len()).expect("shared buffer fits a u32 length");
        Repr::Shared { buf, start: 0, len }
    }
}

/// A vector of `⌈log₂ n⌉`-bit words with small-buffer optimization.
///
/// See the [module docs](self) for why this exists. Construct with
/// [`WordVec::one`] / [`WordVec::of`] on hot paths (no allocation for
/// `len ≤ INLINE_WORDS`), or via `From<Vec<u64>>` / `collect()` where
/// convenience matters more.
#[derive(Clone, Debug)]
pub struct WordVec {
    repr: Repr,
}

impl WordVec {
    /// An empty buffer (inline, allocation-free).
    #[must_use]
    pub const fn new() -> Self {
        WordVec {
            repr: Repr::Inline {
                len: 0,
                buf: [0; INLINE_WORDS],
            },
        }
    }

    /// A single-word buffer (inline, allocation-free) — the shape of
    /// most collective payloads.
    #[must_use]
    #[inline]
    pub const fn one(w: u64) -> Self {
        let mut buf = [0; INLINE_WORDS];
        buf[0] = w;
        WordVec {
            repr: Repr::Inline { len: 1, buf },
        }
    }

    /// Copies `words` into a new buffer; inline when it fits.
    #[must_use]
    #[inline]
    pub fn of(words: &[u64]) -> Self {
        if words.len() <= INLINE_WORDS {
            let mut buf = [0; INLINE_WORDS];
            buf[..words.len()].copy_from_slice(words);
            WordVec {
                repr: Repr::Inline {
                    len: words.len() as u8,
                    buf,
                },
            }
        } else {
            WordVec {
                repr: Repr::Heap(words.to_vec()),
            }
        }
    }

    /// A shared (refcounted) buffer: clones are O(1) refcount bumps, not
    /// word copies. Use for payloads fanned out to many receivers
    /// (broadcasts); small payloads stay inline, where plain copies are
    /// already free.
    #[must_use]
    pub fn shared(words: &[u64]) -> Self {
        if words.len() <= INLINE_WORDS {
            WordVec::of(words)
        } else {
            WordVec {
                repr: Repr::whole(Arc::from(words)),
            }
        }
    }

    /// Like [`WordVec::shared`] but takes ownership of an existing vector.
    #[must_use]
    pub fn shared_from_vec(words: Vec<u64>) -> Self {
        if words.len() <= INLINE_WORDS {
            WordVec::of(&words)
        } else {
            WordVec {
                repr: Repr::whole(Arc::from(words)),
            }
        }
    }

    /// Cuts `words` into consecutive frames of `lens` words each, in
    /// order: the first frame is `words[..lens[0]]`, the next starts
    /// where it ends. Frames wider than [`INLINE_WORDS`] are views into
    /// one shared buffer, so a whole bundle of fragments costs one
    /// buffer, not one allocation per frame; narrower frames stay
    /// inline, as with [`WordVec::shared`].
    ///
    /// # Panics
    ///
    /// The iterator panics if `lens` asks for more words than `words`
    /// holds.
    pub fn shared_views(
        words: Vec<u64>,
        lens: impl IntoIterator<Item = usize>,
    ) -> impl Iterator<Item = WordVec> {
        let buf: Arc<[u64]> = Arc::from(words);
        let mut at = 0;
        lens.into_iter().map(move |len| {
            let range = at..at + len;
            at += len;
            if len <= INLINE_WORDS {
                return WordVec::of(&buf[range]);
            }
            assert!(range.end <= buf.len(), "a view past the end of its buffer");
            WordVec {
                repr: Repr::Shared {
                    buf: Arc::clone(&buf),
                    start: u32::try_from(range.start).expect("a view starts within u32 words"),
                    len: u32::try_from(len).expect("a view spans u32 words at most"),
                },
            }
        })
    }

    /// An empty buffer that can hold `cap` words before reallocating;
    /// stays inline when `cap ≤ INLINE_WORDS`.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        if cap <= INLINE_WORDS {
            WordVec::new()
        } else {
            WordVec {
                repr: Repr::Heap(Vec::with_capacity(cap)),
            }
        }
    }

    /// Number of words held.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
            Repr::Shared { len, .. } => *len as usize,
        }
    }

    /// `true` when no words are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The words as a slice.
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
            Repr::Shared { buf, start, len } => {
                &buf[*start as usize..*start as usize + *len as usize]
            }
        }
    }

    /// Copies a shared view out to an owned buffer (copy-on-write); the
    /// buffer and its other views are untouched.
    fn unshare(&mut self) {
        if let Repr::Shared { .. } = self.repr {
            self.repr = Repr::Heap(self.as_slice().to_vec());
        }
    }

    /// The words as a mutable slice (copies a shared view out first).
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        self.unshare();
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
            Repr::Shared { .. } => unreachable!("shared repr copied out above"),
        }
    }

    /// Appends one word, spilling to the heap past [`INLINE_WORDS`].
    pub fn push(&mut self, w: u64) {
        self.unshare();
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if (*len as usize) < INLINE_WORDS {
                    buf[*len as usize] = w;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_WORDS * 2);
                    v.extend_from_slice(buf);
                    v.push(w);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(w),
            Repr::Shared { .. } => unreachable!("shared repr copied out above"),
        }
    }

    /// Appends all of `words`, spilling once if the result outgrows the
    /// inline buffer.
    pub fn extend_from_slice(&mut self, words: &[u64]) {
        self.unshare();
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let cur = *len as usize;
                if cur + words.len() <= INLINE_WORDS {
                    buf[cur..cur + words.len()].copy_from_slice(words);
                    *len = (cur + words.len()) as u8;
                } else {
                    let mut v = Vec::with_capacity(cur + words.len());
                    v.extend_from_slice(&buf[..cur]);
                    v.extend_from_slice(words);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.extend_from_slice(words),
            Repr::Shared { .. } => unreachable!("shared repr copied out above"),
        }
    }

    /// Drops all words. A spilled buffer keeps its heap capacity, same
    /// as `Vec::clear`; a shared buffer is released.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
            Repr::Shared { .. } => *self = WordVec::new(),
        }
    }

    /// Converts into a plain `Vec<u64>` (allocates when inline; copies a
    /// shared view).
    #[must_use]
    pub fn into_vec(self) -> Vec<u64> {
        match self.repr {
            Repr::Heap(v) => v,
            _ => self.as_slice().to_vec(),
        }
    }
}

impl Default for WordVec {
    fn default() -> Self {
        WordVec::new()
    }
}

impl std::ops::Deref for WordVec {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for WordVec {
    fn deref_mut(&mut self) -> &mut [u64] {
        self.as_mut_slice()
    }
}

impl PartialEq for WordVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WordVec {}

impl PartialOrd for WordVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WordVec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for WordVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<Vec<u64>> for WordVec {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<WordVec> for Vec<u64> {
    fn eq(&self, other: &WordVec) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u64]> for WordVec {
    fn eq(&self, other: &[u64]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u64; N]> for WordVec {
    fn eq(&self, other: &[u64; N]) -> bool {
        self.as_slice() == other
    }
}

impl From<Vec<u64>> for WordVec {
    /// Takes ownership without copying: an already-heap-allocated vector
    /// stays heap (re-inlining would trade a move for a copy + free).
    fn from(v: Vec<u64>) -> Self {
        WordVec {
            repr: Repr::Heap(v),
        }
    }
}

impl From<&[u64]> for WordVec {
    fn from(words: &[u64]) -> Self {
        WordVec::of(words)
    }
}

impl<const N: usize> From<[u64; N]> for WordVec {
    fn from(words: [u64; N]) -> Self {
        WordVec::of(&words)
    }
}

impl From<WordVec> for Vec<u64> {
    fn from(wv: WordVec) -> Self {
        wv.into_vec()
    }
}

impl FromIterator<u64> for WordVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut wv = WordVec::new();
        wv.extend(iter);
        wv
    }
}

impl Extend<u64> for WordVec {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for w in iter {
            self.push(w);
        }
    }
}

/// Owning iterator over a [`WordVec`]'s words.
pub struct WordVecIntoIter {
    repr: IterRepr,
}

enum IterRepr {
    Inline {
        buf: [u64; INLINE_WORDS],
        pos: u8,
        len: u8,
    },
    Heap(std::vec::IntoIter<u64>),
    /// The view's remaining words are `buf[pos..end]`.
    Shared {
        buf: Arc<[u64]>,
        pos: usize,
        end: usize,
    },
}

impl Iterator for WordVecIntoIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match &mut self.repr {
            IterRepr::Inline { buf, pos, len } => {
                if pos < len {
                    let w = buf[*pos as usize];
                    *pos += 1;
                    Some(w)
                } else {
                    None
                }
            }
            IterRepr::Heap(it) => it.next(),
            IterRepr::Shared { buf, pos, end } => {
                if pos < end {
                    *pos += 1;
                    Some(buf[*pos - 1])
                } else {
                    None
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.repr {
            IterRepr::Inline { pos, len, .. } => (*len - *pos) as usize,
            IterRepr::Heap(it) => it.len(),
            IterRepr::Shared { pos, end, .. } => *end - *pos,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for WordVecIntoIter {}

impl IntoIterator for WordVec {
    type Item = u64;
    type IntoIter = WordVecIntoIter;

    fn into_iter(self) -> WordVecIntoIter {
        WordVecIntoIter {
            repr: match self.repr {
                Repr::Inline { len, buf } => IterRepr::Inline { buf, pos: 0, len },
                Repr::Heap(v) => IterRepr::Heap(v.into_iter()),
                Repr::Shared { buf, start, len } => IterRepr::Shared {
                    buf,
                    pos: start as usize,
                    end: start as usize + len as usize,
                },
            },
        }
    }
}

impl<'a> IntoIterator for &'a WordVec {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Bit-identical to `Vec<u64>`'s accounting: an empty payload still
/// occupies one word on the wire, and corruption picks the same word
/// index (`(bit >> 6) % len`) and flips the same bit. The simulator's
/// metered costs therefore cannot differ between the two payload types.
impl Wire for WordVec {
    #[inline]
    fn words(&self) -> u64 {
        (self.len() as u64).max(1)
    }

    fn corrupt_bit(&mut self, bit: u64) -> bool {
        if self.is_empty() {
            return false;
        }
        let idx = ((bit >> 6) % self.len() as u64) as usize;
        self.as_mut_slice()[idx].corrupt_bit(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut wv = WordVec::new();
        assert!(wv.is_empty());
        for w in 0..INLINE_WORDS as u64 {
            wv.push(w);
            assert!(matches!(wv.repr, Repr::Inline { .. }), "len {} inline", w);
        }
        wv.push(99);
        assert!(matches!(wv.repr, Repr::Heap(_)), "spills past INLINE_WORDS");
        assert_eq!(wv, vec![0, 1, 2, 99]);
    }

    #[test]
    fn constructors_match_vec_semantics() {
        assert_eq!(WordVec::one(7), vec![7]);
        assert_eq!(WordVec::of(&[1, 2]), vec![1, 2]);
        assert_eq!(WordVec::of(&[1, 2, 3, 4, 5]), vec![1, 2, 3, 4, 5]);
        assert_eq!(WordVec::from(vec![9, 8]), vec![9, 8]);
        let collected: WordVec = (0..6).collect();
        assert_eq!(collected, (0..6).collect::<Vec<u64>>());
    }

    #[test]
    fn shared_repr_is_copy_on_write_and_wire_identical() {
        let words: Vec<u64> = (0..10).collect();
        let a = WordVec::shared(&words);
        assert!(matches!(a.repr, Repr::Shared { .. }));
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.words(), WordVec::of(&words).words());
        // Mutating one clone must not affect the other (copy-on-write).
        let mut c = a.clone();
        c.as_mut_slice()[0] = 99;
        assert_eq!(c[0], 99);
        assert_eq!(a[0], 0);
        let mut d = b.clone();
        d.push(77);
        assert_eq!(d.len(), 11);
        assert_eq!(b.len(), 10);
        // Small shared payloads stay inline (cheaper than refcounting).
        assert!(matches!(WordVec::shared(&[1, 2]).repr, Repr::Inline { .. }));
        assert_eq!(WordVec::shared_from_vec(words.clone()), words);
        assert_eq!(a.into_vec(), words);
    }

    #[test]
    fn extend_from_slice_crosses_the_inline_boundary() {
        let mut wv = WordVec::of(&[1, 2]);
        wv.extend_from_slice(&[3, 4, 5]);
        assert_eq!(wv, vec![1, 2, 3, 4, 5]);
        let mut stays = WordVec::of(&[1]);
        stays.extend_from_slice(&[2, 3]);
        assert!(matches!(stays.repr, Repr::Inline { .. }));
        assert_eq!(stays, vec![1, 2, 3]);
    }

    #[test]
    fn wire_accounting_is_bit_identical_to_vec() {
        for len in 0..6usize {
            let data: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let wv = WordVec::of(&data);
            assert_eq!(wv.words(), data.words(), "words at len {}", len);
            for bit in [0u64, 1, 63, 64, 65, 129, 1000] {
                let mut a = wv.clone();
                let mut b = data.clone();
                assert_eq!(a.corrupt_bit(bit), b.corrupt_bit(bit), "flip {}", bit);
                assert_eq!(a, b, "post-corruption contents, bit {}", bit);
            }
        }
    }

    #[test]
    fn ordering_and_iteration_follow_slice_semantics() {
        let a = WordVec::of(&[1, 2]);
        let b = WordVec::of(&[1, 3]);
        assert!(a < b);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(b.clone().into_iter().collect::<Vec<_>>(), vec![1, 3]);
        let big: WordVec = (0..10).collect();
        assert_eq!(big.into_iter().sum::<u64>(), 45);
        assert_eq!(&a[..], &[1, 2]);
        assert_eq!(a[1], 2);
    }

    #[test]
    fn corrupting_a_view_leaves_its_siblings_and_the_buffer_alone() {
        let words: Vec<u64> = (0..12).collect();
        let mut views: Vec<WordVec> = WordVec::shared_views(words.clone(), [4, 4, 4]).collect();
        let Repr::Shared { buf, .. } = &views[1].repr else {
            panic!("a wide frame is a view");
        };
        let buf = Arc::clone(buf);
        assert!(views[1].corrupt_bit(64 + 3));
        assert_eq!(views[1], vec![4, 5 ^ 8, 6, 7]);
        assert!(matches!(views[1].repr, Repr::Heap(_)), "copied out");
        assert_eq!(views[0], vec![0, 1, 2, 3]);
        assert_eq!(views[2], vec![8, 9, 10, 11]);
        assert_eq!(&buf[..], &words[..], "the shared buffer is unchanged");
        views.truncate(1);
        assert_eq!(Arc::strong_count(&buf), 2, "one view and this handle");
    }

    #[test]
    fn views_share_one_buffer_and_narrow_frames_stay_inline() {
        let views: Vec<WordVec> = WordVec::shared_views((0..11).collect(), [5, 4, 2]).collect();
        assert_eq!(
            views,
            vec![vec![0, 1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10]]
        );
        let (Repr::Shared { buf: a, .. }, Repr::Shared { buf: b, .. }) =
            (&views[0].repr, &views[1].repr)
        else {
            panic!("wide frames are views");
        };
        assert!(Arc::ptr_eq(a, b), "one buffer per cut");
        assert!(matches!(views[2].repr, Repr::Inline { .. }));
        let narrow: Vec<WordVec> = WordVec::shared_views(vec![1, 2, 3, 4], [3, 1]).collect();
        assert!(narrow.iter().all(|v| matches!(v.repr, Repr::Inline { .. })));
    }

    #[test]
    fn clear_resets_contents() {
        let mut wv = WordVec::of(&[1, 2, 3, 4]);
        wv.clear();
        assert!(wv.is_empty());
        assert_eq!(wv.words(), 1, "empty payload still costs one word");
        let mut inline = WordVec::one(5);
        inline.clear();
        assert!(inline.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A view at any offset and length reads, corrupts, converts and
        /// iterates exactly like the `Vec<u64>` of its words.
        #[test]
        fn views_behave_like_vectors(
            words in proptest::collection::vec(any::<u64>(), 0..24),
            start in 0usize..24,
            len in 0usize..24,
            bit in any::<u64>(),
        ) {
            let start = start.min(words.len());
            let len = len.min(words.len() - start);
            let rest = words.len() - start - len;
            let view = WordVec::shared_views(words.clone(), [start, len, rest])
                .nth(1)
                .expect("three frames");
            let plain = words[start..start + len].to_vec();
            prop_assert_eq!(&view[..], &plain[..]);
            prop_assert_eq!(view.words(), plain.words());
            let (mut a, mut b) = (view.clone(), plain.clone());
            prop_assert_eq!(a.corrupt_bit(bit), b.corrupt_bit(bit));
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(view.clone().into_vec(), plain.clone());
            let it = view.into_iter();
            prop_assert_eq!(it.len(), plain.len());
            prop_assert_eq!(it.collect::<Vec<u64>>(), plain);
        }
    }
}
