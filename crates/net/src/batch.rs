//! Flat per-round `(src, dst)` message-batch aggregation.
//!
//! Tracing sinks receive one [`MessageBatch`](cc_trace::Event::MessageBatch)
//! per ordered link per round, sorted by `(src, dst)`. The aggregation used
//! to live in a `BTreeMap<(u32, u32), (u32, u64)>` rebuilt every round —
//! a tree allocation per touched link, on the hot path of every traced
//! run. [`RoundBatches`] replaces it with two pooled flat buffers: a
//! destination-indexed scratch row for the sender currently staging, and
//! an output vector the finished rows append to.
//!
//! The sortedness contract is structural instead of tree-enforced:
//! [`CliqueNet`](crate::CliqueNet) delivers senders contiguously and in
//! ascending ID order (both `step` and `step_staged`), so flushing each
//! sender's row in destination order yields a globally `(src, dst)`-sorted
//! stream with no per-round allocation in steady state.

/// Pooled flat accumulator for one round's per-link batches.
///
/// Usage per round: [`begin_round`](RoundBatches::begin_round), then per
/// sender any number of [`add`](RoundBatches::add) calls followed by one
/// [`flush_sender`](RoundBatches::flush_sender) (senders in ascending ID
/// order), then read [`entries`](RoundBatches::entries).
#[derive(Debug, Default)]
pub struct RoundBatches {
    /// `(count, words)` toward each destination for the current sender.
    row: Vec<(u32, u64)>,
    /// Destinations the current sender has touched, unsorted.
    touched: Vec<u32>,
    /// Finalized `(src, dst, count, words)` entries for the round.
    out: Vec<(u32, u32, u32, u64)>,
}

impl RoundBatches {
    /// A fresh accumulator (buffers grow on first use and are then
    /// retained for the lifetime of the value).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets for a round over an `n`-node clique, keeping capacity.
    pub fn begin_round(&mut self, n: usize) {
        if self.row.len() < n {
            self.row.resize(n, (0, 0));
        }
        self.out.clear();
        debug_assert!(self.touched.is_empty(), "flush_sender closes every sender");
    }

    /// Records one message of `words` words from the current sender to
    /// `dst`.
    pub fn add(&mut self, dst: u32, words: u64) {
        let slot = &mut self.row[dst as usize];
        if slot.0 == 0 {
            self.touched.push(dst);
        }
        slot.0 += 1;
        slot.1 += words;
    }

    /// Closes the current sender `src`: folds its scratch row into the
    /// output in destination order and clears the row for the next
    /// sender. Call with ascending `src` for a sorted round stream.
    pub fn flush_sender(&mut self, src: u32) {
        if self.touched.is_empty() {
            return;
        }
        self.touched.sort_unstable();
        for dst in self.touched.drain(..) {
            let (count, words) = std::mem::take(&mut self.row[dst as usize]);
            self.out.push((src, dst, count, words));
        }
    }

    /// The finalized `(src, dst, count, words)` entries so far this round.
    pub fn entries(&self) -> &[(u32, u32, u32, u64)] {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_link_and_sorts_by_src_then_dst() {
        let mut b = RoundBatches::new();
        b.begin_round(4);
        // Sender 0: two messages to 3, one to 1 (staged out of dst order).
        b.add(3, 2);
        b.add(1, 1);
        b.add(3, 1);
        b.flush_sender(0);
        // Sender 2: one message to 0.
        b.add(0, 5);
        b.flush_sender(2);
        assert_eq!(b.entries(), &[(0, 1, 1, 1), (0, 3, 2, 3), (2, 0, 1, 5)]);
    }

    #[test]
    fn rounds_reset_but_capacity_is_retained() {
        let mut b = RoundBatches::new();
        b.begin_round(8);
        b.add(7, 1);
        b.flush_sender(0);
        assert_eq!(b.entries().len(), 1);
        b.begin_round(8);
        assert!(b.entries().is_empty(), "begin_round clears the stream");
        b.add(7, 4);
        b.flush_sender(3);
        assert_eq!(b.entries(), &[(3, 7, 1, 4)]);
    }

    #[test]
    fn silent_senders_contribute_nothing() {
        let mut b = RoundBatches::new();
        b.begin_round(2);
        b.flush_sender(0);
        b.flush_sender(1);
        assert!(b.entries().is_empty());
    }
}
