//! [`PairRows`]: per-ordered-pair values, stored by row.

/// Values for ordered pairs `(a, b)`, `a < rows`, stored as one
/// `b`-sorted row per `a`.
///
/// Memory follows the pairs present (plus one empty row per `a`), never
/// `rows²`: at `n = 4096` a dense table of links would take hundreds of
/// megabytes for a run that touches a few dozen a round. Folding a
/// `b`-sorted run of one row is a galloping walk along the row and, when
/// some pairs are new, one merge — no hashing, and the row's entries sit
/// together in memory.
#[derive(Clone, Debug)]
pub struct PairRows<V> {
    rows: Vec<Vec<(u32, V)>>,
    len: usize,
    /// Pairs a fold run met for the first time; merged into the row when
    /// the run ends. Kept to reuse its buffer.
    fresh: Vec<(u32, V)>,
}

impl<V: Copy + Default> PairRows<V> {
    /// No pairs, `rows` empty rows.
    pub fn new(rows: usize) -> Self {
        PairRows {
            rows: vec![Vec::new(); rows],
            len: 0,
            fresh: Vec::new(),
        }
    }

    /// Number of pairs present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pair is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pair as `(a, b, value)`, in `(a, b)` order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &V)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().map(move |(b, v)| (a as u32, *b, v)))
    }

    /// Folds `run` into row `a`: for each `(b, item)`, calls `fold` on the
    /// value of `(a, b)`, which starts at `V::default()` if the pair is
    /// new.
    ///
    /// # Panics
    ///
    /// If `a` is not below the row count. The `b`s of `run` must be
    /// strictly increasing (checked in debug builds).
    pub fn fold_run<T>(
        &mut self,
        a: u32,
        run: impl IntoIterator<Item = (u32, T)>,
        mut fold: impl FnMut(&mut V, T),
    ) {
        let row = &mut self.rows[a as usize];
        let mut at = 0;
        let mut last = None;
        for (b, item) in run {
            debug_assert!(last < Some(b), "run is not strictly increasing");
            last = Some(b);
            // Gallop from the last hit: a run that revisits most of the
            // row advances one slot at a time, a sparse one still jumps.
            let mut probe = at;
            let mut stride = 1;
            while row.get(probe).is_some_and(|&(known, _)| known < b) {
                at = probe + 1;
                probe += stride;
                stride *= 2;
            }
            let end = probe.min(row.len());
            at += row[at..end].partition_point(|&(known, _)| known < b);
            if row.get(at).is_some_and(|&(known, _)| known == b) {
                fold(&mut row[at].1, item);
            } else {
                let mut value = V::default();
                fold(&mut value, item);
                self.fresh.push((b, value));
            }
        }
        if self.fresh.is_empty() {
            return;
        }
        // Merge the two sorted runs from the back, into the grown row.
        self.len += self.fresh.len();
        let mut old = row.len();
        row.resize(old + self.fresh.len(), (0, V::default()));
        for slot in (0..row.len()).rev() {
            let Some(&newest) = self.fresh.last() else {
                break;
            };
            if old > 0 && row[old - 1].0 > newest.0 {
                row[slot] = row[old - 1];
                old -= 1;
            } else {
                row[slot] = newest;
                self.fresh.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(rows: &mut PairRows<u64>, a: u32, run: &[(u32, u64)]) {
        rows.fold_run(a, run.iter().copied(), |v, w| *v += w);
    }

    #[test]
    fn runs_fold_and_merge_in_pair_order() {
        let mut rows = PairRows::new(3);
        assert!(rows.is_empty());
        add(&mut rows, 1, &[(4, 1), (9, 2)]);
        add(&mut rows, 1, &[(2, 5), (4, 1), (6, 3), (10, 1)]);
        add(&mut rows, 0, &[(7, 7)]);
        add(&mut rows, 1, &[(9, 1)]);
        let all: Vec<(u32, u32, u64)> = rows.iter().map(|(a, b, &v)| (a, b, v)).collect();
        assert_eq!(
            all,
            [
                (0, 7, 7),
                (1, 2, 5),
                (1, 4, 2),
                (1, 6, 3),
                (1, 9, 3),
                (1, 10, 1)
            ]
        );
        assert_eq!(rows.len(), 6);
    }
}
