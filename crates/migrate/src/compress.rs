//! Page-transfer compression for live migration.
//!
//! Two complementary techniques, both lifted from production migration
//! stacks (QEMU calls them *zero-page detection* and *XBZRLE*):
//!
//! * **Zero-page detection** — a page that is entirely zero is sent as a
//!   marker instead of 4 KiB of zeros. Freshly booted guests and guests with
//!   lots of free memory are dominated by zero pages, so the first pre-copy
//!   round often shrinks dramatically.
//! * **XBZRLE delta encoding** — for a page that was *already sent* in an
//!   earlier pre-copy round, only the XOR difference against the
//!   previously-sent version needs to cross the wire, run-length encoded so
//!   unchanged byte runs cost almost nothing. Guests that repeatedly dirty
//!   the same pages with small writes (databases updating counters, kernels
//!   touching timer words) re-transfer a few hundred bytes instead of a full
//!   page.
//!
//! The encoder keeps a cache of the last version of each page it sent; the
//!   decoder applies deltas to the destination's current copy, which — by
//! construction of pre-copy — is exactly that last-sent version. Pages whose
//! delta would not fit (too many changed bytes) fall back to a raw transfer,
//! just like QEMU's implementation gives up when the encoded size exceeds
//! the page size.

use std::collections::{BTreeMap, HashMap};

use rvisor_types::{Error, Result};

/// Which compression the migration engines apply to page transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageCompression {
    /// Send every page raw (the baseline).
    #[default]
    None,
    /// Detect all-zero pages and send them as a marker.
    ZeroPages,
    /// Zero-page detection plus XBZRLE delta encoding against the
    /// previously-sent version of each page.
    Xbzrle,
}

impl PageCompression {
    /// All modes, for ablation sweeps.
    pub const ALL: [PageCompression; 3] = [
        PageCompression::None,
        PageCompression::ZeroPages,
        PageCompression::Xbzrle,
    ];

    /// A short name for benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            PageCompression::None => "raw",
            PageCompression::ZeroPages => "zero-detect",
            PageCompression::Xbzrle => "xbzrle",
        }
    }
}

/// Returns true when every byte of the page is zero.
///
/// Delegates to the word-wise [`rvisor_memory::scan::is_zero`] kernel shared
/// with KSM's zero-page policy, so one scan implementation serves wire
/// encode, `ZeroRun` coalescing and the overcommit scanners alike.
pub(crate) fn is_zero_page(contents: &[u8]) -> bool {
    rvisor_memory::scan::is_zero(contents)
}

/// First index at or after `i` where `old` and `new` differ (or `len`).
///
/// Word-wise: whole u64 chunks are compared per step, the exact boundary
/// recovered from the XOR's lowest nonzero byte — byte-for-byte equivalent
/// to a naive scan (proptest-pinned against the byte-wise reference).
fn first_difference(old: &[u8], new: &[u8], mut i: usize) -> usize {
    let len = old.len();
    while i + 8 <= len {
        let a = u64::from_le_bytes(old[i..i + 8].try_into().expect("8-byte chunk"));
        let b = u64::from_le_bytes(new[i..i + 8].try_into().expect("8-byte chunk"));
        let x = a ^ b;
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < len && old[i] == new[i] {
        i += 1;
    }
    i
}

/// First index at or after `i` where `old` and `new` agree (or `len`).
///
/// Word-wise dual of [`first_difference`]: the zero-byte probe
/// (`(x - LO) & !x & HI`) flags the XOR's lowest zero byte exactly — bytes
/// below the first zero byte are nonzero, so no borrow reaches it and its
/// high bit is the lowest set flag.
fn first_match(old: &[u8], new: &[u8], mut i: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let len = old.len();
    while i + 8 <= len {
        let x = u64::from_le_bytes(old[i..i + 8].try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(new[i..i + 8].try_into().expect("8-byte chunk"));
        let zeros = x.wrapping_sub(LO) & !x & HI;
        if zeros != 0 {
            return i + (zeros.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < len && old[i] != new[i] {
        i += 1;
    }
    i
}

/// XBZRLE-encode `new` against `old`.
///
/// The encoding is a sequence of `(skip, copy)` pairs over the XOR of the two
/// buffers: `skip` unchanged bytes (two-byte little-endian count), then
/// `copy` changed bytes (two-byte count followed by the new bytes verbatim).
/// Returns `None` when the encoded form would be at least as large as the
/// page itself (the caller then sends the page raw).
///
/// Run boundaries are found word-wise (8 bytes per step, exact byte
/// recovered from the XOR word), so sparse-change pages — the XBZRLE sweet
/// spot — scan at memory speed instead of a byte-compare per position.
pub fn xbzrle_encode(old: &[u8], new: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    xbzrle_encode_into(old, new, &mut out).then_some(out)
}

/// [`xbzrle_encode`] into a reused buffer: `out` is cleared and holds the
/// delta when this returns true, unspecified bytes when it returns false.
fn xbzrle_encode_into(old: &[u8], new: &[u8], out: &mut Vec<u8>) -> bool {
    out.clear();
    if old.len() != new.len() {
        return false;
    }
    let mut i = 0usize;
    let len = new.len();
    while i < len {
        // Count unchanged bytes.
        let run_start = i;
        i = first_difference(old, new, i);
        let mut skip = i - run_start;
        if i >= len {
            break;
        }
        // Count changed bytes.
        let changed_start = i;
        i = first_match(old, new, i);
        let changed = &new[changed_start..i];
        // Emit, splitting runs longer than u16::MAX (cannot happen for 4 KiB
        // pages, but keeps the encoding self-contained).
        while skip > u16::MAX as usize {
            out.extend_from_slice(&(u16::MAX).to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes());
            skip -= u16::MAX as usize;
        }
        out.extend_from_slice(&(skip as u16).to_le_bytes());
        out.extend_from_slice(&(changed.len() as u16).to_le_bytes());
        out.extend_from_slice(changed);
        if out.len() >= len {
            return false;
        }
    }
    out.len() < len
}

/// Apply an XBZRLE delta directly onto `page` (the destination's current
/// copy of the page), patching only the changed runs — no intermediate
/// buffer.
///
/// Every record is validated before the first byte is written, so on error
/// the page is untouched.
pub(crate) fn xbzrle_apply_in_place(page: &mut [u8], delta: &[u8]) -> Result<()> {
    xbzrle_records(page.len(), delta, None)?;
    xbzrle_records(page.len(), delta, Some(page))
}

/// Walk the `(skip, copy)` records of `delta` against a page of `page_len`
/// bytes, copying each run into `page` when one is given. The first
/// malformed record is an error.
fn xbzrle_records(page_len: usize, delta: &[u8], mut page: Option<&mut [u8]>) -> Result<()> {
    let mut pos = 0usize; // position in the page
    let mut i = 0usize; // position in `delta`
    while i < delta.len() {
        if i + 4 > delta.len() {
            return Err(Error::Migration("truncated xbzrle header".into()));
        }
        let skip = u16::from_le_bytes([delta[i], delta[i + 1]]) as usize;
        let copy = u16::from_le_bytes([delta[i + 2], delta[i + 3]]) as usize;
        i += 4;
        pos = pos
            .checked_add(skip)
            .ok_or_else(|| Error::Migration("xbzrle skip overflow".into()))?;
        if pos + copy > page_len || i + copy > delta.len() {
            return Err(Error::Migration("xbzrle delta exceeds page bounds".into()));
        }
        if let Some(page) = page.as_deref_mut() {
            page[pos..pos + copy].copy_from_slice(&delta[i..i + copy]);
        }
        pos += copy;
        i += copy;
    }
    Ok(())
}

/// Counters describing what the compressor did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CompressionStats {
    /// Pages sent raw (including XBZRLE fallbacks).
    pub(crate) pages_raw: u64,
    /// Pages sent as zero markers.
    pub(crate) pages_zero: u64,
    /// Pages sent as XBZRLE deltas.
    pub(crate) pages_delta: u64,
    /// Pages whose delta did not fit and fell back to raw.
    pub(crate) delta_overflows: u64,
    /// Uncompressed bytes handed to the compressor.
    pub(crate) bytes_in: u64,
    /// Bytes produced for the wire.
    pub(crate) bytes_out: u64,
}

/// Stateful page compressor used by the source side of a migration.
///
/// The destination does not need an explicit object: raw pages overwrite,
/// zero markers zero the page, and deltas are applied to the destination's
/// current copy via [`xbzrle_apply_in_place`].
#[derive(Debug)]
pub(crate) struct PageCompressor {
    mode: PageCompression,
    /// Last-sent contents per page index (bounded LRU).
    cache: HashMap<u64, CachedPage>,
    /// The cached pages by the stamp of their last send: the first entry is
    /// the least recently sent, which is the one eviction takes.
    by_stamp: BTreeMap<u64, u64>,
    next_stamp: u64,
    capacity: usize,
    /// The delta of the page encoded last, reused from page to page.
    delta: Vec<u8>,
    stats: CompressionStats,
}

#[derive(Debug)]
struct CachedPage {
    stamp: u64,
    contents: Vec<u8>,
}

/// What [`PageCompressor::encode`] decided for one page. It owns nothing:
/// a raw page is framed from the guest page the caller already borrows, a
/// delta from the compressor's own buffer.
pub(crate) enum EncodedPage<'c> {
    /// Send the page's contents as they are.
    Raw,
    /// The page is entirely zero.
    Zero,
    /// Send this XBZRLE delta against the previously transferred version.
    Delta(&'c [u8]),
}

impl PageCompressor {
    /// Create a compressor with an explicit XBZRLE cache capacity (in pages).
    pub(crate) fn with_cache_capacity(mode: PageCompression, capacity: usize) -> Self {
        PageCompressor {
            mode,
            cache: HashMap::new(),
            by_stamp: BTreeMap::new(),
            next_stamp: 0,
            capacity: capacity.max(1),
            delta: Vec::new(),
            stats: CompressionStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub(crate) fn stats(&self) -> CompressionStats {
        self.stats
    }

    /// Decide how one page crosses the wire, without copying it.
    pub(crate) fn encode(&mut self, page: u64, contents: &[u8]) -> EncodedPage<'_> {
        let xbzrle = self.mode == PageCompression::Xbzrle;
        let zero = self.mode != PageCompression::None && is_zero_page(contents);
        let mut delta = false;
        if xbzrle && !zero {
            if let Some(old) = self.cache.get(&page) {
                delta = xbzrle_encode_into(&old.contents, contents, &mut self.delta);
                self.stats.delta_overflows += u64::from(!delta);
            }
        }
        if xbzrle {
            self.remember(page, contents);
        }
        self.stats.bytes_in += contents.len() as u64;
        if zero {
            self.stats.pages_zero += 1;
            self.stats.bytes_out += 1;
            EncodedPage::Zero
        } else if delta {
            self.stats.pages_delta += 1;
            self.stats.bytes_out += self.delta.len() as u64;
            EncodedPage::Delta(&self.delta)
        } else {
            self.stats.pages_raw += 1;
            self.stats.bytes_out += contents.len() as u64;
            EncodedPage::Raw
        }
    }

    /// Note `contents` as the version of `page` sent last and make it the
    /// most recently sent page, evicting the least recently sent one when
    /// the cache is full.
    fn remember(&mut self, page: u64, contents: &[u8]) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(cached) = self.cache.get_mut(&page) {
            self.by_stamp.remove(&cached.stamp);
            cached.stamp = stamp;
            cached.contents.clear();
            cached.contents.extend_from_slice(contents);
        } else {
            // A full cache hands the evicted page's buffer to the new one.
            let full = self.cache.len() >= self.capacity;
            let evicted = full.then(|| self.by_stamp.pop_first()).flatten();
            let evicted = evicted.and_then(|(_, page)| self.cache.remove(&page));
            let mut buf = evicted.map(|cached| cached.contents).unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(contents);
            let contents = buf;
            self.cache.insert(page, CachedPage { stamp, contents });
        }
        self.by_stamp.insert(stamp, page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::PAGE_SIZE;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE as usize]
    }

    fn compressor(mode: PageCompression) -> PageCompressor {
        PageCompressor::with_cache_capacity(mode, 16_384)
    }

    /// What [`PageCompressor::encode`] decided for one page, owned so that
    /// two encoders' decisions can be compared.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Sent {
        Raw,
        Zero,
        Delta(Vec<u8>),
    }

    impl Sent {
        /// Payload bytes on the wire for a page of `page_len` bytes.
        fn wire_len(&self, page_len: u64) -> u64 {
            match self {
                Sent::Raw => page_len,
                Sent::Zero => 1,
                Sent::Delta(d) => d.len() as u64,
            }
        }

        /// The destination's side: rebuild the page in `current` (the
        /// version sent last) from what crossed the wire for `contents`.
        fn receive(&self, current: &mut [u8], contents: &[u8]) -> Result<()> {
            match self {
                Sent::Raw => current.copy_from_slice(contents),
                Sent::Zero => current.fill(0),
                Sent::Delta(d) => xbzrle_apply_in_place(current, d)?,
            }
            Ok(())
        }
    }

    fn send(c: &mut PageCompressor, page: u64, contents: &[u8]) -> Sent {
        match c.encode(page, contents) {
            EncodedPage::Raw => Sent::Raw,
            EncodedPage::Zero => Sent::Zero,
            EncodedPage::Delta(d) => Sent::Delta(d.to_vec()),
        }
    }

    #[test]
    fn zero_detection() {
        assert!(is_zero_page(&page_of(0)));
        let mut p = page_of(0);
        p[4095] = 1;
        assert!(!is_zero_page(&p));
    }

    #[test]
    fn xbzrle_roundtrip_small_change() {
        let old = page_of(7);
        let mut new = old.clone();
        new[100] = 42;
        new[2000..2010].fill(9);
        let delta = xbzrle_encode(&old, &new).expect("small change must compress");
        assert!(delta.len() < 64, "delta is {} bytes", delta.len());
        let mut decoded = old.clone();
        xbzrle_apply_in_place(&mut decoded, &delta).unwrap();
        assert_eq!(decoded, new);
    }

    #[test]
    fn xbzrle_identical_pages_encode_to_nothing() {
        let old = page_of(3);
        let delta = xbzrle_encode(&old, &old).expect("no change compresses");
        assert!(delta.is_empty());
        let mut decoded = old.clone();
        xbzrle_apply_in_place(&mut decoded, &delta).unwrap();
        assert_eq!(decoded, old);
    }

    #[test]
    fn xbzrle_gives_up_on_total_rewrite() {
        let old = page_of(0xaa);
        let new = page_of(0x55);
        assert!(xbzrle_encode(&old, &new).is_none());
    }

    #[test]
    fn xbzrle_rejects_length_mismatch_and_corrupt_delta() {
        assert!(xbzrle_encode(&page_of(1), &[0u8; 16]).is_none());
        // Truncated header.
        assert!(xbzrle_apply_in_place(&mut page_of(1), &[1, 0]).is_err());
        // Copy count runs past the page end.
        let mut bad = Vec::new();
        bad.extend_from_slice(&(4090u16).to_le_bytes());
        bad.extend_from_slice(&(100u16).to_le_bytes());
        bad.extend_from_slice(&[0u8; 100]);
        assert!(xbzrle_apply_in_place(&mut page_of(1), &bad).is_err());
    }

    #[test]
    fn compressor_zero_mode_shrinks_zero_pages_only() {
        let mut c = compressor(PageCompression::ZeroPages);
        let wire = send(&mut c, 0, &page_of(0));
        assert_eq!(wire, Sent::Zero);
        assert_eq!(wire.wire_len(PAGE_SIZE), 1);
        assert_eq!(send(&mut c, 1, &page_of(5)), Sent::Raw);
        let stats = c.stats();
        assert_eq!(stats.pages_zero, 1);
        assert_eq!(stats.pages_raw, 1);
        assert_eq!(stats.bytes_out, PAGE_SIZE + 1);
        assert_eq!(stats.bytes_in, 2 * PAGE_SIZE);
    }

    #[test]
    fn compressor_none_mode_never_saves() {
        let mut c = compressor(PageCompression::None);
        assert_eq!(send(&mut c, 0, &page_of(0)), Sent::Raw);
        assert_eq!(send(&mut c, 1, &page_of(9)), Sent::Raw);
        let stats = c.stats();
        assert_eq!(stats.bytes_in, stats.bytes_out);
    }

    #[test]
    fn compressor_xbzrle_second_send_is_delta() {
        let mut c = compressor(PageCompression::Xbzrle);
        let v1 = page_of(1);
        assert_eq!(send(&mut c, 7, &v1), Sent::Raw);

        let mut v2 = v1.clone();
        v2[17] = 99;
        let second = send(&mut c, 7, &v2);
        match &second {
            Sent::Delta(d) => assert!(d.len() < 16),
            other => panic!("expected delta, got {other:?}"),
        }
        // Destination applies the delta to the version it already holds.
        let mut rebuilt = v1.clone();
        second.receive(&mut rebuilt, &v2).unwrap();
        assert_eq!(rebuilt, v2);
        assert_eq!(c.stats().pages_delta, 1);
    }

    #[test]
    fn compressor_cache_eviction_forces_raw_resend() {
        let mut c = PageCompressor::with_cache_capacity(PageCompression::Xbzrle, 2);
        let base = page_of(4);
        send(&mut c, 0, &base);
        send(&mut c, 1, &base);
        send(&mut c, 2, &base); // evicts page 0
        let mut changed = base.clone();
        changed[0] = 1;
        assert_eq!(
            send(&mut c, 0, &changed),
            Sent::Raw,
            "evicted page must be resent raw"
        );
    }

    #[test]
    fn apply_handles_all_wire_forms() {
        let mut c = compressor(PageCompression::Xbzrle);
        let current = page_of(2);
        let mut new = current.clone();
        new[12] = 0xee;
        // Page 0 becomes zero, page 1 raw, page 2 a delta against `current`.
        send(&mut c, 2, &current);
        for (page, contents) in [(0, page_of(0)), (1, page_of(9)), (2, new)] {
            let wire = send(&mut c, page, &contents);
            let mut rebuilt = current.clone();
            wire.receive(&mut rebuilt, &contents).unwrap();
            assert_eq!(rebuilt, contents, "{wire:?}");
        }
        assert_eq!(
            (
                c.stats().pages_zero,
                c.stats().pages_raw,
                c.stats().pages_delta
            ),
            (1, 2, 1)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The XBZRLE compressor as it was before its cache was keyed by
        /// send stamps: the reference for eviction order. A re-sent page
        /// moves to the back of `lru` by a linear search; the front is
        /// evicted.
        struct VecLruCompressor {
            cache: HashMap<u64, Vec<u8>>,
            lru: Vec<u64>,
            capacity: usize,
            stats: CompressionStats,
        }

        impl VecLruCompressor {
            fn with_cache_capacity(capacity: usize) -> Self {
                VecLruCompressor {
                    cache: HashMap::new(),
                    lru: Vec::new(),
                    capacity,
                    stats: CompressionStats::default(),
                }
            }

            fn compress(&mut self, page: u64, contents: &[u8]) -> Sent {
                self.stats.bytes_in += contents.len() as u64;
                let encoded = if is_zero_page(contents) {
                    Sent::Zero
                } else if let Some(old) = self.cache.get(&page) {
                    match xbzrle_encode(old, contents) {
                        Some(delta) => Sent::Delta(delta),
                        None => {
                            self.stats.delta_overflows += 1;
                            Sent::Raw
                        }
                    }
                } else {
                    Sent::Raw
                };
                if self.cache.insert(page, contents.to_vec()).is_none() {
                    self.lru.push(page);
                    if self.lru.len() > self.capacity {
                        let evict = self.lru.remove(0);
                        self.cache.remove(&evict);
                    }
                } else if let Some(pos) = self.lru.iter().position(|&p| p == page) {
                    let key = self.lru.remove(pos);
                    self.lru.push(key);
                }
                match &encoded {
                    Sent::Raw => self.stats.pages_raw += 1,
                    Sent::Zero => self.stats.pages_zero += 1,
                    Sent::Delta(_) => self.stats.pages_delta += 1,
                }
                self.stats.bytes_out += encoded.wire_len(contents.len() as u64);
                encoded
            }
        }

        fn arb_page() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(proptest::num::u8::ANY, 256..=256)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whenever the encoder produces a delta, decoding reproduces the
            /// new page exactly, and the delta is smaller than the page.
            #[test]
            fn xbzrle_roundtrip(old in arb_page(), mut new in arb_page(), keep in 0usize..256) {
                // Make `new` share a prefix with `old` so deltas are plausible.
                new[..keep].copy_from_slice(&old[..keep]);
                if let Some(delta) = xbzrle_encode(&old, &new) {
                    prop_assert!(delta.len() < new.len());
                    let mut decoded = old.clone();
                    xbzrle_apply_in_place(&mut decoded, &delta).unwrap();
                    prop_assert_eq!(decoded, new);
                }
            }

            /// The word-wise run scanners agree with a naive byte scan at
            /// every position, so the encoder's output cannot drift from the
            /// byte-wise original.
            #[test]
            fn word_wise_run_scan_matches_bytewise(
                old in arb_page(),
                mut new in arb_page(),
                keep in 0usize..256,
                start in 0usize..=256,
            ) {
                // A shared prefix makes both match and mismatch runs common.
                new[..keep].copy_from_slice(&old[..keep]);
                let mut diff = start;
                while diff < old.len() && old[diff] == new[diff] {
                    diff += 1;
                }
                prop_assert_eq!(first_difference(&old, &new, start), diff);
                let mut matched = start;
                while matched < old.len() && old[matched] != new[matched] {
                    matched += 1;
                }
                prop_assert_eq!(first_match(&old, &new, start), matched);
            }

            /// The stamp-ordered cache evicts exactly as the `Vec` LRU it
            /// replaced: every wire page and every counter agree, for any
            /// interleaving of first sends, re-sends and evictions.
            #[test]
            fn cache_evicts_in_the_order_of_the_vec_lru(
                capacity in 1usize..6,
                sends in proptest::collection::vec((0u64..8, 0u8..4, 0usize..256), 1..120),
            ) {
                let mut new = PageCompressor::with_cache_capacity(PageCompression::Xbzrle, capacity);
                let mut old = VecLruCompressor::with_cache_capacity(capacity);
                for (page, variant, at) in sends {
                    // Zero pages, small edits (deltas) and total rewrites
                    // (delta overflows), all of which the cache remembers.
                    let mut contents = vec![variant.min(2) * 0x55; 256];
                    if variant == 3 {
                        contents[at] ^= 0xff;
                    }
                    prop_assert_eq!(send(&mut new, page, &contents), old.compress(page, &contents));
                    prop_assert_eq!(new.stats(), old.stats);
                }
            }

            /// The compressor's byte accounting is exact for every mode.
            #[test]
            fn stats_accounting_is_exact(
                pages in proptest::collection::vec(arb_page(), 1..8),
                mode_idx in 0usize..3,
            ) {
                let mode = PageCompression::ALL[mode_idx];
                let mut c = compressor(mode);
                let mut expected_in = 0u64;
                let mut expected_out = 0u64;
                for (i, p) in pages.iter().enumerate() {
                    let wire = send(&mut c, i as u64, p);
                    expected_in += p.len() as u64;
                    expected_out += wire.wire_len(p.len() as u64);
                }
                let stats = c.stats();
                prop_assert_eq!(stats.bytes_in, expected_in);
                prop_assert_eq!(stats.bytes_out, expected_out);
                prop_assert_eq!(
                    stats.pages_raw + stats.pages_zero + stats.pages_delta,
                    pages.len() as u64
                );
                prop_assert!(stats.bytes_out <= stats.bytes_in.max(pages.len() as u64));
            }
        }
    }
}
