//! Atomic dirty-page bitmap.
//!
//! Live migration (pre-copy rounds) and incremental snapshots both need to
//! know *which* guest pages were written since the last time they looked.
//! `DirtyBitmap` records one bit per 4 KiB page and supports a cheap
//! "snapshot and clear" operation that returns the set of dirty page indices
//! while atomically starting a new tracking epoch.
//!
//! The bitmap is lock-free: writers only ever set bits with relaxed atomic
//! OR, which keeps the hot path (every guest store) inexpensive.

use std::sync::atomic::{AtomicU64, Ordering};

/// One dirty bit per 4 KiB guest page, safe for concurrent marking.
#[derive(Debug)]
pub(crate) struct DirtyBitmap {
    words: Vec<AtomicU64>,
    pages: u64,
}

impl DirtyBitmap {
    /// Create a bitmap able to track `pages` pages, all initially clean.
    pub(crate) fn new(pages: u64) -> Self {
        let words = pages.div_ceil(64) as usize;
        DirtyBitmap {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            pages,
        }
    }

    /// Mark a single page dirty. Out-of-range indices are ignored.
    pub(crate) fn mark(&self, page: u64) {
        if page >= self.pages {
            return;
        }
        let word = (page / 64) as usize;
        let bit = page % 64;
        self.words[word].fetch_or(1 << bit, Ordering::Relaxed);
    }

    /// Mark every page in `[first, first + count)` dirty.
    ///
    /// Operates word-at-a-time: one `fetch_or` covers up to 64 pages, so a
    /// large `fill`/`write` costs `O(pages / 64)` atomics instead of one per
    /// page. Out-of-range pages are ignored, exactly as [`Self::mark`] does.
    pub(crate) fn mark_range(&self, first: u64, count: u64) {
        let end = first.saturating_add(count).min(self.pages);
        for_each_word_mask(first, end, |word, mask| {
            self.words[word].fetch_or(mask, Ordering::Relaxed);
        });
    }

    /// [`Self::mark_range`] that leaves a word alone when it already has
    /// every bit of the range: a load instead of an atomic read-modify-write
    /// for a caller storing to the same pages over and over. Only for a
    /// caller that keeps every reader of those pages' bytes out until it is
    /// done (see the race argument in [`crate::region`]).
    pub(crate) fn mark_range_unless_set(&self, first: u64, count: u64) {
        let end = first.saturating_add(count).min(self.pages);
        for_each_word_mask(first, end, |word, mask| {
            let bits = &self.words[word];
            if bits.load(Ordering::Relaxed) & mask != mask {
                bits.fetch_or(mask, Ordering::Relaxed);
            }
        });
    }

    /// [`Self::mark`] that leaves the word alone when the bit is already
    /// set, on the terms of [`Self::mark_range_unless_set`]: the dirty mark
    /// of a fixed-width store, which touches one page or two.
    #[inline]
    pub(crate) fn mark_unless_set(&self, page: u64) {
        if page >= self.pages {
            return;
        }
        let (bits, bit) = (&self.words[(page / 64) as usize], 1 << (page % 64));
        if bits.load(Ordering::Relaxed) & bit == 0 {
            bits.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Number of dirty pages.
    pub(crate) fn count(&self) -> u64 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as u64)
            .sum()
    }

    /// Clear every bit, starting a new tracking epoch (one store per 64-page
    /// word).
    pub(crate) fn clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of 64-page words backing the bitmap.
    ///
    /// Together with [`Self::load_word`] this is the substrate for batch
    /// traversals (`MemoryRegion::drain_dirty_pages_with` holds its data
    /// lock across one word's worth of pages).
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Load the dirty bits of 64-page word `word` without clearing them.
    /// Bit `b` of the result covers page `word * 64 + b`. Out-of-range words
    /// read as zero.
    pub(crate) fn load_word(&self, word: usize) -> u64 {
        match self.words.get(word) {
            Some(w) => w.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Atomically fetch and clear the dirty bits of 64-page word `word`
    /// (the per-word harvest primitive: pages dirtied after the swap land in
    /// the next epoch). Out-of-range words read as zero.
    pub(crate) fn take_word(&self, word: usize) -> u64 {
        match self.words.get(word) {
            Some(w) => w.swap(0, Ordering::AcqRel),
            None => 0,
        }
    }

    /// OR `mask` back into word `word` — the error-path undo for
    /// [`Self::take_word`]: a harvester that fails partway through a word
    /// restores the unprocessed bits so no page is silently dropped from
    /// the epoch. Out-of-range words are ignored.
    pub(crate) fn restore_word(&self, word: usize, mask: u64) {
        if let Some(w) = self.words.get(word) {
            w.fetch_or(mask, Ordering::AcqRel);
        }
    }

    /// Iterate the currently dirty page indices in ascending order without
    /// clearing them — word-wise and allocation-free, unlike
    /// [`Self::dirty_pages`] which materializes a `Vec`.
    pub(crate) fn iter_dirty(&self) -> DirtyIter<'_> {
        DirtyIter {
            bitmap: self,
            word: 0,
            bits: self.load_word(0),
        }
    }

    /// The indices of all currently dirty pages, in ascending order.
    ///
    /// Allocating convenience wrapper over [`Self::iter_dirty`]; hot paths
    /// should iterate (or use [`Self::drain_append_into`]) instead.
    pub(crate) fn dirty_pages(&self) -> Vec<u64> {
        self.iter_dirty().collect()
    }

    /// Atomically fetch the dirty set and clear it (per 64-page word),
    /// appending the page indices to `out` in ascending order.
    ///
    /// This is the buffer-reuse primitive behind pre-copy rounds: the caller
    /// keeps one harvest `Vec` alive across rounds and pays no allocation
    /// once its capacity has grown to the working set. Pages dirtied *after*
    /// their word has been harvested land in the next epoch.
    pub(crate) fn drain_append_into(&self, out: &mut Vec<u64>) {
        for (wi, w) in self.words.iter().enumerate() {
            let mut v = w.swap(0, Ordering::AcqRel);
            while v != 0 {
                let bit = v.trailing_zeros() as u64;
                let page = wi as u64 * 64 + bit;
                if page < self.pages {
                    out.push(page);
                }
                v &= v - 1;
            }
        }
    }
}

/// Call `f(word index, bit mask)` for each 64-page word the page range
/// `[first, end)` touches, the mask covering exactly the range's pages in
/// that word. An empty range makes no call.
///
/// The one place the one-bit-per-page layout is turned into word masks:
/// [`DirtyBitmap::mark_range`] ORs them into its atomic words, and
/// `MemoryRegion` ORs them into the plain words of its checksum plane.
#[inline]
pub(crate) fn for_each_word_mask(first: u64, end: u64, mut f: impl FnMut(usize, u64)) {
    let mut page = first;
    while page < end {
        let word = page / 64;
        let first_bit = page % 64;
        // Pages of this word covered by the range: [first_bit, last_bit].
        let last_bit = (end - 1).min(word * 64 + 63) % 64;
        let width = last_bit - first_bit + 1;
        let mask = if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << first_bit
        };
        f(word as usize, mask);
        page = (word + 1) * 64;
    }
}

/// Word-wise, non-clearing iterator over dirty page indices (ascending).
///
/// Each 64-page word is loaded once when the iterator reaches it, so pages
/// marked behind the cursor during iteration may or may not be observed —
/// the same snapshot-per-word semantics [`DirtyBitmap::drain_append_into`] has.
#[derive(Debug)]
pub(crate) struct DirtyIter<'a> {
    bitmap: &'a DirtyBitmap,
    /// Word the current `bits` snapshot came from.
    word: usize,
    /// Remaining dirty bits of `word`, lowest bit = next page.
    bits: u64,
}

impl Iterator for DirtyIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as u64;
                self.bits &= self.bits - 1;
                let page = self.word as u64 * 64 + bit;
                if page < self.bitmap.pages {
                    return Some(page);
                }
                // Tail bits past `pages` can only appear in the last word.
                self.bits = 0;
            }
            self.word += 1;
            if self.word >= self.bitmap.word_count() {
                return None;
            }
            self.bits = self.bitmap.load_word(self.word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    impl DirtyBitmap {
        /// Whether the bitmap tracks zero pages.
        pub(crate) fn is_empty(&self) -> bool {
            self.pages == 0
        }

        /// Whether `page` is currently marked dirty.
        pub(crate) fn is_dirty(&self, page: u64) -> bool {
            if page >= self.pages {
                return false;
            }
            let word = (page / 64) as usize;
            let bit = page % 64;
            self.words[word].load(Ordering::Relaxed) & (1 << bit) != 0
        }

        /// Atomically fetch the dirty set and clear it, as a fresh `Vec`.
        ///
        /// Allocating convenience wrapper over [`Self::drain_append_into`].
        pub(crate) fn drain(&self) -> Vec<u64> {
            let mut out = Vec::new();
            self.drain_append_into(&mut out);
            out
        }

        /// Merge a harvested dirty set back into this bitmap (page-wise OR).
        fn merge_pages(&self, pages: &[u64]) {
            for &p in pages {
                self.mark(p);
            }
        }

        /// Fraction of tracked pages that are dirty (0.0 ..= 1.0).
        pub(crate) fn dirty_fraction(&self) -> f64 {
            if self.pages == 0 {
                0.0
            } else {
                self.count() as f64 / self.pages as f64
            }
        }
    }

    #[test]
    fn mark_and_query() {
        let b = DirtyBitmap::new(200);
        assert_eq!(b.count(), 0);
        assert!(!b.is_dirty(5));
        b.mark(5);
        b.mark(63);
        b.mark(64);
        b.mark(199);
        assert!(b.is_dirty(5));
        assert!(b.is_dirty(63));
        assert!(b.is_dirty(64));
        assert!(b.is_dirty(199));
        assert_eq!(b.count(), 4);
        assert_eq!(b.dirty_pages(), vec![5, 63, 64, 199]);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let b = DirtyBitmap::new(10);
        b.mark(10);
        b.mark(u64::MAX);
        assert_eq!(b.count(), 0);
        assert!(!b.is_dirty(10_000));
    }

    #[test]
    fn mark_range_clamps() {
        let b = DirtyBitmap::new(10);
        b.mark_range(8, 100);
        assert_eq!(b.dirty_pages(), vec![8, 9]);
    }

    #[test]
    fn drain_returns_and_clears() {
        let b = DirtyBitmap::new(128);
        b.mark_range(0, 10);
        let drained = b.drain();
        assert_eq!(drained.len(), 10);
        assert_eq!(b.count(), 0);
        // A second drain is empty.
        assert!(b.drain().is_empty());
    }

    #[test]
    fn merge_restores_drained_pages() {
        let b = DirtyBitmap::new(64);
        b.mark(3);
        b.mark(40);
        let drained = b.drain();
        assert_eq!(b.count(), 0);
        b.merge_pages(&drained);
        assert_eq!(b.dirty_pages(), vec![3, 40]);
    }

    #[test]
    fn dirty_fraction() {
        let b = DirtyBitmap::new(100);
        assert_eq!(b.dirty_fraction(), 0.0);
        b.mark_range(0, 25);
        assert!((b.dirty_fraction() - 0.25).abs() < 1e-12);
        let empty = DirtyBitmap::new(0);
        assert_eq!(empty.dirty_fraction(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn concurrent_marking_loses_nothing() {
        let b = Arc::new(DirtyBitmap::new(64 * 1024));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for p in (t * 8 * 1024)..((t + 1) * 8 * 1024) {
                    b.mark(p);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.count(), 64 * 1024);
    }

    #[test]
    fn iter_dirty_is_nonclearing_and_ordered() {
        let b = DirtyBitmap::new(130);
        for p in [0, 63, 64, 65, 127, 128, 129] {
            b.mark(p);
        }
        let via_iter: Vec<u64> = b.iter_dirty().collect();
        assert_eq!(via_iter, vec![0, 63, 64, 65, 127, 128, 129]);
        // Iterating did not clear anything.
        assert_eq!(b.count(), 7);
    }

    #[test]
    fn drain_append_into_reuses_capacity() {
        let b = DirtyBitmap::new(256);
        b.mark_range(10, 20);
        let mut buf = Vec::with_capacity(64);
        let cap = buf.capacity();
        b.drain_append_into(&mut buf);
        assert_eq!(buf, (10..30).collect::<Vec<u64>>());
        assert_eq!(b.count(), 0);
        // Appending semantics: a second harvest lands behind the first.
        b.mark(200);
        b.drain_append_into(&mut buf);
        assert_eq!(buf.last(), Some(&200));
        assert_eq!(buf.len(), 21);
        assert_eq!(buf.capacity(), cap, "no reallocation within capacity");
    }

    #[test]
    fn word_accessors() {
        let b = DirtyBitmap::new(100);
        assert_eq!(b.word_count(), 2);
        b.mark(3);
        b.mark(64);
        assert_eq!(b.load_word(0), 1 << 3);
        assert_eq!(b.load_word(1), 1);
        assert_eq!(b.load_word(99), 0);
    }

    #[test]
    fn mark_range_word_boundaries() {
        // Ranges chosen to hit partial-first-word, full-middle-word and
        // partial-last-word mask paths.
        for (first, count) in [(0, 64), (1, 63), (63, 2), (60, 140), (64, 64), (0, 200)] {
            let b = DirtyBitmap::new(200);
            b.mark_range(first, count);
            let expected: Vec<u64> = (first..(first + count).min(200)).collect();
            assert_eq!(b.dirty_pages(), expected, "range ({first}, {count})");
        }
    }

    proptest! {
        #[test]
        fn dirty_pages_matches_reference(pages in proptest::collection::btree_set(0u64..2048, 0..300)) {
            let b = DirtyBitmap::new(2048);
            for &p in &pages {
                b.mark(p);
            }
            let expected: Vec<u64> = pages.iter().copied().collect();
            prop_assert_eq!(b.dirty_pages(), expected.clone());
            prop_assert_eq!(b.count(), expected.len() as u64);
            // The non-clearing iterator sees the same set in the same order.
            let via_iter: Vec<u64> = b.iter_dirty().collect();
            prop_assert_eq!(via_iter, expected.clone());
            prop_assert_eq!(b.count(), expected.len() as u64);
            // drain returns the same set and empties the bitmap
            let drained: BTreeSet<u64> = b.drain().into_iter().collect();
            prop_assert_eq!(drained, pages);
            prop_assert_eq!(b.count(), 0);
        }

        /// Word-wise `mark_range` is equivalent to the per-page loop it
        /// replaced, including clamping and overflow behaviour.
        #[test]
        fn mark_range_matches_per_page_reference(
            tracked in 1u64..300,
            first in 0u64..350,
            count in 0u64..350,
        ) {
            let word_wise = DirtyBitmap::new(tracked);
            word_wise.mark_range(first, count);

            let per_page = DirtyBitmap::new(tracked);
            for p in first..first.saturating_add(count).min(tracked) {
                per_page.mark(p);
            }
            prop_assert_eq!(word_wise.dirty_pages(), per_page.dirty_pages());
        }

        /// `drain_append_into` harvests exactly what `dirty_pages` reports — same
        /// set, same (ascending) order — and clears the bitmap.
        #[test]
        fn drain_append_into_matches_dirty_pages(
            pages in proptest::collection::btree_set(0u64..1024, 0..200),
        ) {
            let b = DirtyBitmap::new(1024);
            for &p in &pages {
                b.mark(p);
            }
            let expected = b.dirty_pages();
            let mut harvested = Vec::new();
            b.drain_append_into(&mut harvested);
            prop_assert_eq!(harvested, expected);
            prop_assert_eq!(b.count(), 0);
        }
    }
}
