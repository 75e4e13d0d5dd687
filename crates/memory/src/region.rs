//! A single contiguous region of guest physical memory.
//!
//! # One way to change guest bytes
//!
//! Every mutator of this type but one — `MemoryRegion::write`, `fill`,
//! `with_page_mut` (and `write_page`, which is a `write`) — goes through the private `mutate` helper. `mutate` applies one
//! marking rule to the pages a mutation touches:
//!
//! 1. under the write lock it already holds, it sets the pages' bits in the
//!    **checksum plane** (`Backing::stale`: "written since this page's cached
//!    partial sum was computed");
//! 2. after the bytes have changed, it marks them in the `DirtyBitmap`
//!    that migration and incremental snapshots harvest.
//!
//! The one other mutator, `discard_page`, zeroes a page and stores the
//! checksum refresh's result for it under the same lock (below), then marks
//! it dirty like `mutate`. Besides these two and the checksum refresh, one
//! function takes the data lock for writing: `hold`, which keeps it — a
//! `HeldRegion`, the per-region half of [`crate::GuestAccess`] — so that a
//! running vCPU pays for the lock once per `run` and not once per store. A store through a held region
//! applies the same rule in the same order, through the same helper
//! (`Backing::stale_span`) or, for a `u64` one region holds, through its
//! fixed-width twin (`Backing::stale_word`).
//!
//! The two planes answer different questions and are cleared by different
//! readers: `clear_dirty` / `drain_dirty*` never touch the checksum plane,
//! and a checksum never touches the dirty bitmap.
//!
//! # The cached checksum
//!
//! [`crate::GuestMemory::checksum`] is a sum in a ring, so the page at byte
//! offset `base` contributes `Σ v[j]·((base+j)|1)` whatever the other pages
//! hold, and a zero page contributes 0. Each region therefore keeps one
//! `u64` partial sum per page beside its bytes — a fresh region starts with
//! an all-zero cache and no marks, for free — and a checksum re-sums only
//! the marked pages, then adds up the cache: it reads the pages written
//! since the last call plus 8 bytes per page, instead of every byte. The
//! cost is 8 bytes + 1 bit per 4 KiB page (and 1 more for the known-zero
//! plane below), 0.2 % of the guest.
//!
//! **Race argument.** Bytes, marks and partial sums live in one `Backing`
//! behind one `RwLock`. A writer holds that lock exclusively across marking
//! its pages and changing their bytes; a checksum holds it exclusively from
//! before it takes a mark until after the page's partial sum is stored. So
//! no checksum can see a changed byte without its mark or a mark without its
//! bytes, concurrent checksums serialise (none reads a half-refreshed
//! cache), and a write racing a checksum lands wholly before it (and is
//! summed by it) or wholly after (and is summed by the next one) — the dirty
//! harvest's epoch rule, with nothing left to order. The mark is a plain
//! `|=` on a word the store's own lock already made exclusive, so a guest
//! store gains no second atomic read-modify-write beside
//! `DirtyBitmap::mark_range`'s. A held region is one long writer: the
//! argument above holds with "across marking its pages and changing their
//! bytes" stretched over every store of the hold. Its dirty marks may
//! test-then-set (skip the atomic when the bits are already there), because
//! a harvester that takes a word while the region is held cannot read the
//! pages' bytes until the hold drops, so whichever of the two it finds — the
//! bit, or the bit set again by a later store — it reads every store made
//! under the hold or leaves the page dirty for the next harvest.
//!
//! # The known-zero plane
//!
//! Most guest pages are zero, so a region keeps one more bit per page,
//! `Backing::zero`. **The rule:** where a page's stale bit is clear, its zero
//! bit says whether the page is all zero; where the stale bit is set, it
//! means nothing. A fresh region has every bit set; the checksum refresh
//! sets or clears it for each page it re-sums (the page is zero exactly when
//! the byte total `weighted_sum` forms on the way is zero); `discard_page`
//! zeroes its page and stores the sum 0 and the bit, so the page needs no
//! re-sum. No store touches the bit: its stale mark voids it.
//! [`crate::GuestMemory::with_page_or_zero`] does not read a page the plane
//! calls zero, so backup epochs, migration sources and recycled backings
//! skip the zero pages of a guest whose checksum was taken.
//!
//! **Race argument:** the cached sum's above, unchanged — bit, mark, sum and
//! bytes change together under the one write lock, and a reader that finds
//! the bit valid under the read lock holds a page no writer is changing.
//! **Named assumption:** a page the plane calls zero is zero. It rests on
//! every byte change marking its page or being a discard; the mutator table
//! and the shadow-model proptest in `memory.rs` check it after every step.
//!
//! # Recycled backings
//!
//! A dropped region's backing goes to a per-thread free list of at most
//! `POOL_BACKINGS` backings of at most `POOL_MAX_BYTES`. `MemoryRegion::new`
//! of the same length takes it back and zeroes only the pages the plane does
//! not call zero, instead of the allocator's memset of the whole guest.

use std::cell::RefCell;

use parking_lot::{RwLock, RwLockWriteGuard};
use rvisor_types::{Error, GuestAddress, GuestRegion, Result, PAGE_SIZE};

use crate::bitmap::{for_each_word_mask, DirtyBitmap};
use crate::scan::weighted_sum;

/// What a region's data lock guards: the guest bytes and the checksum cache
/// and known-zero plane that must change together with them (see the module
/// docs).
#[derive(Debug, Default)]
struct Backing {
    bytes: Box<[u8]>,
    /// Cached checksum contribution of each page, valid where `stale` is
    /// clear.
    sums: Box<[u64]>,
    /// The checksum plane: bit `p % 64` of word `p / 64` is set when page
    /// `p` was written since `sums[p]` was computed.
    stale: Box<[u64]>,
    /// The known-zero plane, laid out like `stale`: page `p` is all zero,
    /// valid where `stale` is clear.
    zero: Box<[u64]>,
}

/// Most backings the per-thread free list keeps.
const POOL_BACKINGS: usize = 4;
/// Largest backing (guest bytes) the free list keeps.
const POOL_MAX_BYTES: usize = 1 << 20;

thread_local! {
    /// Backings of dropped regions, for [`MemoryRegion::new`] to take back.
    static POOL: RefCell<Vec<Backing>> = const { RefCell::new(Vec::new()) };
}

/// The region-relative pages `[first, end)` that the `len` bytes at byte
/// offset `off` touch; empty for an empty span.
#[inline]
fn touched_pages(off: usize, len: usize) -> (u64, u64) {
    let first = off as u64 / PAGE_SIZE;
    let end = match len {
        0 => first,
        _ => (off + len - 1) as u64 / PAGE_SIZE + 1,
    };
    (first, end)
}

impl Backing {
    /// A zero-filled backing of `len` bytes whose pages are all known zero:
    /// one from the free list when it holds one of that length, with only
    /// the pages not known zero filled again, else a fresh allocation.
    fn zeroed(len: usize) -> Backing {
        let recycled = POOL
            .try_with(|pool| {
                let mut pool = pool.borrow_mut();
                let at = pool.iter().position(|b| b.bytes.len() == len)?;
                Some(pool.swap_remove(at))
            })
            .ok()
            .flatten();
        let Some(mut backing) = recycled else {
            let pages = len / PAGE_SIZE as usize;
            let words = pages.div_ceil(64);
            return Backing {
                bytes: vec![0u8; len].into_boxed_slice(),
                sums: vec![0u64; pages].into_boxed_slice(),
                stale: vec![0u64; words].into_boxed_slice(),
                zero: vec![u64::MAX; words].into_boxed_slice(),
            };
        };
        for page in 0..backing.sums.len() as u64 {
            if !backing.known_zero(page) {
                let off = (page * PAGE_SIZE) as usize;
                backing.bytes[off..off + PAGE_SIZE as usize].fill(0);
                backing.sums[page as usize] = 0;
            }
        }
        backing.stale.fill(0);
        backing.zero.fill(u64::MAX);
        backing
    }

    /// Whether the known-zero plane calls `page` zero.
    #[inline]
    fn known_zero(&self, page: u64) -> bool {
        let (word, bit) = ((page / 64) as usize, 1 << (page % 64));
        self.stale[word] & bit == 0 && self.zero[word] & bit != 0
    }

    /// Step 1 of the marking rule, for whoever holds the write lock: mark
    /// the [`touched_pages`] of the `len` bytes at `off` stale in the
    /// checksum plane and hand out those bytes.
    ///
    /// Marked before the caller writes (the order is invisible under the
    /// lock), so a closure that unwinds halfway leaves no stale sum.
    #[inline]
    fn stale_span(&mut self, off: usize, len: usize) -> &mut [u8] {
        let (first, end) = touched_pages(off, len);
        let stale = &mut self.stale;
        for_each_word_mask(first, end, |word, mask| stale[word] |= mask);
        &mut self.bytes[off..off + len]
    }

    /// [`Self::stale_span`] for the 8 bytes at `off`: the stale bit of the
    /// page they start in and of the page they end in (the same page unless
    /// they cross an edge), set without the span walk.
    #[inline(always)]
    fn stale_word(&mut self, off: usize) -> &mut [u8; 8] {
        let (first, end) = touched_pages(off, 8);
        for page in first..end {
            self.stale[(page / 64) as usize] |= 1 << (page % 64);
        }
        (&mut self.bytes[off..off + 8])
            .try_into()
            .expect("an 8-byte slice")
    }
}

/// A region whose data lock is held for writing until this drops: reads and
/// stores pay no lock of their own, and nobody else reads or writes the
/// region's bytes meanwhile. Stores follow the module's marking rule.
#[derive(Debug)]
pub(crate) struct HeldRegion<'a> {
    region: &'a MemoryRegion,
    data: RwLockWriteGuard<'a, Backing>,
}

impl HeldRegion<'_> {
    /// [`MemoryRegion::read`] under the held lock.
    #[inline]
    pub(crate) fn read(&self, addr: GuestAddress, buf: &mut [u8]) -> Result<()> {
        let off = self.region.offset_of(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.data.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// [`MemoryRegion::write`] under the held lock: the same marks in the
    /// same order as `mutate`, the dirty bits skipping the atomic
    /// read-modify-write when they are already set.
    #[inline]
    pub(crate) fn write(&mut self, addr: GuestAddress, buf: &[u8]) -> Result<()> {
        let off = self.region.offset_of(addr, buf.len() as u64)?;
        let (first, end) = touched_pages(off, buf.len());
        self.data.stale_span(off, buf.len()).copy_from_slice(buf);
        self.region.dirty.mark_range_unless_set(first, end - first);
        Ok(())
    }

    /// The byte offset of the 8 bytes at `addr` when this region holds all
    /// of them: the one range check of a fixed-width access.
    #[inline]
    pub(crate) fn word_offset(&self, addr: GuestAddress) -> Option<usize> {
        let off = addr.0.wrapping_sub(self.region.range.start.0);
        // A region is at least a page long, so `len - 8` cannot wrap.
        (off <= self.region.range.len - 8).then_some(off as usize)
    }

    /// The little-endian `u64` at byte offset `off` ([`Self::word_offset`]).
    #[inline]
    pub(crate) fn read_u64(&self, off: usize) -> u64 {
        let word = &self.data.bytes[off..off + 8];
        u64::from_le_bytes(word.try_into().expect("an 8-byte slice"))
    }

    /// Store a little-endian `u64` at byte offset `off`
    /// ([`Self::word_offset`]): an 8-byte copy under the marks of
    /// [`Self::write`], in the same order.
    #[inline(always)]
    pub(crate) fn write_u64(&mut self, off: usize, v: u64) {
        *self.data.stale_word(off) = v.to_le_bytes();
        let (first, end) = touched_pages(off, 8);
        for page in first..end {
            self.region.dirty.mark_unless_set(page);
        }
    }
}

/// A contiguous, heap-backed slab of guest physical memory.
///
/// Every write is recorded in the region's `DirtyBitmap` so that higher
/// layers (live migration, incremental snapshots) can observe which pages
/// changed without instrumenting the guest.
#[derive(Debug)]
pub struct MemoryRegion {
    range: GuestRegion,
    data: RwLock<Backing>,
    dirty: DirtyBitmap,
}

impl MemoryRegion {
    /// Allocate a zero-filled region covering `[start, start+len)`.
    ///
    /// `len` must be non-zero and page aligned, and `start` must be page
    /// aligned; real VMMs hand out memory in page-sized slabs and the rest of
    /// the stack (dirty tracking, ballooning, migration) relies on it.
    pub(crate) fn new(start: GuestAddress, len: u64) -> Result<Self> {
        if len == 0 {
            return Err(Error::InvalidRegionConfig(
                "region length must be non-zero".into(),
            ));
        }
        if !len.is_multiple_of(PAGE_SIZE) {
            return Err(Error::InvalidRegionConfig(format!(
                "region length {len:#x} is not a multiple of the page size"
            )));
        }
        if !start.is_page_aligned() {
            return Err(Error::InvalidRegionConfig(format!(
                "region start {start} is not page aligned"
            )));
        }
        if start.checked_add(len).is_none() {
            return Err(Error::InvalidRegionConfig(
                "region wraps the address space".into(),
            ));
        }
        Ok(MemoryRegion {
            range: GuestRegion::new(start, len),
            data: RwLock::new(Backing::zeroed(len as usize)),
            dirty: DirtyBitmap::new(len / PAGE_SIZE),
        })
    }

    /// The guest physical range covered by this region.
    pub(crate) fn range(&self) -> GuestRegion {
        self.range
    }

    /// First guest physical address of the region.
    pub(crate) fn start(&self) -> GuestAddress {
        self.range.start
    }

    /// Length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.range.len
    }

    /// Number of 4 KiB pages in the region.
    pub(crate) fn pages(&self) -> u64 {
        self.range.len / PAGE_SIZE
    }

    /// The region's dirty bitmap (page indices are region-relative).
    pub(crate) fn dirty_bitmap(&self) -> &DirtyBitmap {
        &self.dirty
    }

    fn offset_of(&self, addr: GuestAddress, len: u64) -> Result<usize> {
        if !self.range.contains_range(addr, len) {
            return Err(Error::OutOfBounds { addr, len });
        }
        Ok((addr.0 - self.range.start.0) as usize)
    }

    /// Read `buf.len()` bytes starting at `addr` into `buf`.
    pub(crate) fn read(&self, addr: GuestAddress, buf: &mut [u8]) -> Result<()> {
        let off = self.offset_of(addr, buf.len() as u64)?;
        let data = self.data.read();
        buf.copy_from_slice(&data.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// Write `buf` starting at `addr`, marking the touched pages dirty.
    pub(crate) fn write(&self, addr: GuestAddress, buf: &[u8]) -> Result<()> {
        let off = self.offset_of(addr, buf.len() as u64)?;
        self.mutate(off, buf.len(), |span| span.copy_from_slice(buf));
        Ok(())
    }

    /// Fill `len` bytes starting at `addr` with `value`, marking the touched
    /// pages dirty.
    pub(crate) fn fill(&self, addr: GuestAddress, len: u64, value: u8) -> Result<()> {
        let off = self.offset_of(addr, len)?;
        self.mutate(off, len as usize, |span| span.fill(value));
        Ok(())
    }

    /// The one way guest bytes change (see the module docs): under the write
    /// lock, mark the pages of the `len` bytes at byte offset `off` stale in
    /// the checksum plane and run `f` over them; then mark them dirty. An
    /// empty span marks nothing.
    fn mutate<R>(&self, off: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let (first, end) = touched_pages(off, len);
        let out = {
            let mut data = self.data.write();
            f(data.stale_span(off, len))
        };
        self.dirty.mark_range(first, end - first);
        out
    }

    /// Take the data lock for writing and keep it: the per-region half of
    /// [`crate::GuestAccess`].
    pub(crate) fn hold(&self) -> HeldRegion<'_> {
        HeldRegion {
            region: self,
            data: self.data.write(),
        }
    }

    /// Byte offset of a region-relative page, or `OutOfBounds`.
    fn page_offset(&self, page: u64) -> Result<usize> {
        if page >= self.pages() {
            return Err(Error::OutOfBounds {
                addr: self.range.start.unchecked_add(page.wrapping_mul(PAGE_SIZE)),
                len: PAGE_SIZE,
            });
        }
        Ok((page * PAGE_SIZE) as usize)
    }

    /// Run a closure over one page's bytes **without copying them**.
    ///
    /// The region's read lock is held for the duration of the closure, so
    /// keep the work short (hash, compress, memcpy into a caller buffer).
    /// `page` is region-relative.
    pub(crate) fn with_page<R>(&self, page: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let off = self.page_offset(page)?;
        let data = self.data.read();
        Ok(f(&data.bytes[off..off + PAGE_SIZE as usize]))
    }

    /// Run a closure over one page's bytes with write access, marking the
    /// page dirty. The write lock is held for the duration of the closure.
    /// `page` is region-relative.
    pub(crate) fn with_page_mut<R>(&self, page: u64, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let off = self.page_offset(page)?;
        Ok(self.mutate(off, PAGE_SIZE as usize, f))
    }

    /// [`Self::with_page`], except that a page the known-zero plane calls
    /// zero (see the module docs) is not read: `f` gets a static zero page
    /// and `true` instead of the page's bytes and `false`.
    pub(crate) fn with_page_or_zero<R>(
        &self,
        page: u64,
        f: impl FnOnce(&[u8], bool) -> R,
    ) -> Result<R> {
        static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        let off = self.page_offset(page)?;
        let data = self.data.read();
        Ok(match data.known_zero(page) {
            true => f(&ZERO_PAGE, true),
            false => f(&data.bytes[off..off + PAGE_SIZE as usize], false),
        })
    }

    /// FNV-1a fingerprint of a page's contents, hashed in place (no copy).
    /// `page` is region-relative.
    pub(crate) fn page_fingerprint(&self, page: u64) -> Result<u64> {
        self.with_page(page, crate::ksm::fingerprint)
    }

    /// Run a closure over an arbitrary `[addr, addr + len)` span of the
    /// region without copying. The span must lie entirely inside this region.
    pub(crate) fn with_slice<R>(
        &self,
        addr: GuestAddress,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let off = self.offset_of(addr, len)?;
        let data = self.data.read();
        Ok(f(&data.bytes[off..off + len as usize]))
    }

    /// Visit every dirty page under one data-lock acquisition per 64-page
    /// word; each word's dirty bits are atomically fetched-and-cleared
    /// *before* its pages are visited — the batched equivalent of `DirtyBitmap::drain_append_into`, with
    /// the same epoch guarantee: a page dirtied after its word was harvested
    /// stays dirty for the next harvest, never silently lost.
    pub(crate) fn drain_dirty_pages_with<E>(
        &self,
        f: impl FnMut(u64, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.walk_dirty(true, f)
    }

    fn walk_dirty<E>(
        &self,
        drain: bool,
        mut f: impl FnMut(u64, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        for word in 0..self.dirty.word_count() {
            let mut bits = if drain {
                self.dirty.take_word(word)
            } else {
                self.dirty.load_word(word)
            };
            if bits == 0 {
                continue;
            }
            let data = self.data.read();
            while bits != 0 {
                let bit = bits.trailing_zeros() as u64;
                let page = word as u64 * 64 + bit;
                if page >= self.pages() {
                    break;
                }
                let off = (page * PAGE_SIZE) as usize;
                if let Err(e) = f(page, &data.bytes[off..off + PAGE_SIZE as usize]) {
                    if drain {
                        // Error-path undo: the erred page and the word's
                        // unvisited remainder stay dirty, so a retried
                        // harvest still sees them (later words were never
                        // taken).
                        self.dirty.restore_word(word, bits);
                    }
                    return Err(e);
                }
                bits &= bits - 1;
            }
        }
        Ok(())
    }

    /// Overwrite a whole page. `page` is region-relative.
    pub(crate) fn write_page(&self, page: u64, contents: &[u8]) -> Result<()> {
        if contents.len() != PAGE_SIZE as usize {
            return Err(Error::InvalidRegionConfig(format!(
                "write_page requires exactly {PAGE_SIZE} bytes, got {}",
                contents.len()
            )));
        }
        self.write(self.range.start.unchecked_add(page * PAGE_SIZE), contents)
    }

    /// Discard the contents of a page (zero it), marking it dirty like every
    /// other mutator.
    ///
    /// This models the balloon returning a page to the host: the page's
    /// contents are gone and the guest has promised not to read it. The page
    /// is still marked, because its bytes *did* change: an incremental
    /// snapshot that omitted it would restore the old contents under a
    /// checksum taken over the zeroed ones, and a pre-copy migration that had
    /// already sent it would leave source and destination checksums apart. A
    /// zero page costs next to nothing to carry — a zero-run frame on the
    /// wire, one shared chunk in a deduplicating store.
    ///
    /// Under the lock it also settles the page in both planes — sum 0,
    /// known zero — so no checksum re-reads it; a page already known zero
    /// is not written at all, only marked dirty.
    pub(crate) fn discard_page(&self, page: u64) -> Result<()> {
        let off = self.page_offset(page)?;
        let mut data = self.data.write();
        if !data.known_zero(page) {
            data.bytes[off..off + PAGE_SIZE as usize].fill(0);
            data.sums[page as usize] = 0;
            let (word, bit) = ((page / 64) as usize, 1 << (page % 64));
            data.stale[word] &= !bit;
            data.zero[word] |= bit;
        }
        drop(data);
        self.dirty.mark(page);
        Ok(())
    }

    /// This region's term of [`crate::GuestMemory::checksum`] — every byte
    /// times its offset in the region with the lowest bit set, summed
    /// wrapping in `u64` — and how many pages had to be re-summed to get it.
    ///
    /// Only pages written since the previous call are read; the rest come
    /// from the per-page cache (see the module docs). Each page read has its
    /// known-zero bit settled on the way.
    pub(crate) fn checksum(&self) -> (u64, u64) {
        let mut guard = self.data.write();
        let data = &mut *guard;
        let mut resummed = 0u64;
        for (word, (marks, zeros)) in data.stale.iter_mut().zip(data.zero.iter_mut()).enumerate() {
            let mut bits = std::mem::take(marks);
            resummed += u64::from(bits.count_ones());
            while bits != 0 {
                let page = word * 64 + bits.trailing_zeros() as usize;
                let off = page * PAGE_SIZE as usize;
                let (sum, bytes_total) =
                    weighted_sum(&data.bytes[off..off + PAGE_SIZE as usize], off as u64);
                data.sums[page] = sum;
                let bit = bits & bits.wrapping_neg();
                *zeros = (*zeros & !bit) | if bytes_total == 0 { bit } else { 0 };
                bits &= bits - 1;
            }
        }
        let total = data.sums.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        (total, resummed)
    }

    /// Run a closure over the raw bytes of the region (read-only).
    ///
    /// Used by code paths that want the whole region without an intermediate
    /// copy.
    pub fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let data = self.data.read();
        f(&data.bytes)
    }
}

impl Drop for MemoryRegion {
    /// Hand the backing to this thread's free list (see the module docs).
    fn drop(&mut self) {
        let backing = std::mem::take(self.data.get_mut());
        // A thread being torn down has no list left: the backing is freed.
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_BACKINGS && backing.bytes.len() <= POOL_MAX_BYTES {
                pool.push(backing);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoryRegion {
        /// Run a closure over an arbitrary span with write access, marking the
        /// touched pages dirty. The span must lie entirely inside this region.
        pub(crate) fn with_slice_mut<R>(
            &self,
            addr: GuestAddress,
            len: u64,
            f: impl FnOnce(&mut [u8]) -> R,
        ) -> Result<R> {
            let off = self.offset_of(addr, len)?;
            Ok(self.mutate(off, len as usize, f))
        }

        /// Visit every currently dirty page (without clearing its bit), handing
        /// the closure `(region-relative page index, page bytes)`.
        ///
        /// Batch traversal: the region's read lock is acquired once per 64-page
        /// bitmap word and held across that word's pages, so harvest-style scans
        /// pay one lock round-trip per word instead of one per page, while still
        /// letting writers interleave between words.
        pub(crate) fn for_each_dirty_page<E>(
            &self,
            f: impl FnMut(u64, &[u8]) -> std::result::Result<(), E>,
        ) -> std::result::Result<(), E> {
            self.walk_dirty(false, f)
        }
    }

    fn region() -> MemoryRegion {
        MemoryRegion::new(GuestAddress(0x1000), 4 * PAGE_SIZE).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(MemoryRegion::new(GuestAddress(0), 0).is_err());
        assert!(MemoryRegion::new(GuestAddress(0), 100).is_err());
        assert!(MemoryRegion::new(GuestAddress(0x10), PAGE_SIZE).is_err());
        assert!(MemoryRegion::new(GuestAddress(u64::MAX - PAGE_SIZE + 1), 2 * PAGE_SIZE).is_err());
        assert!(MemoryRegion::new(GuestAddress(0), PAGE_SIZE).is_ok());
    }

    #[test]
    fn read_write_roundtrip() {
        let r = region();
        let payload = [1u8, 2, 3, 4, 5];
        r.write(GuestAddress(0x1100), &payload).unwrap();
        let mut out = [0u8; 5];
        r.read(GuestAddress(0x1100), &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let r = region();
        let mut buf = [0u8; 8];
        assert!(r.read(GuestAddress(0x0), &mut buf).is_err());
        assert!(r
            .read(GuestAddress(0x1000 + 4 * PAGE_SIZE - 4), &mut buf)
            .is_err());
        assert!(r.write(GuestAddress(0x5000), &buf).is_err());
    }

    #[test]
    fn writes_mark_pages_dirty() {
        let r = region();
        assert_eq!(r.dirty_bitmap().count(), 0);
        r.write(GuestAddress(0x1000), &[0u8; 10]).unwrap();
        assert_eq!(r.dirty_bitmap().dirty_pages(), vec![0]);
        // A write spanning a page boundary dirties both pages.
        r.write(GuestAddress(0x1000 + PAGE_SIZE - 2), &[0u8; 4])
            .unwrap();
        assert_eq!(r.dirty_bitmap().dirty_pages(), vec![0, 1]);
    }

    #[test]
    fn reads_do_not_dirty() {
        let r = region();
        let mut buf = [0u8; 64];
        r.read(GuestAddress(0x1000), &mut buf).unwrap();
        assert_eq!(r.dirty_bitmap().count(), 0);
    }

    #[test]
    fn fill_and_page_ops() {
        let r = region();
        r.fill(GuestAddress(0x2000), PAGE_SIZE, 0xaa).unwrap();
        let page = r.with_page(1, <[u8]>::to_vec).unwrap();
        assert!(page.iter().all(|&b| b == 0xaa));
        assert!(r.dirty_bitmap().is_dirty(1));

        let new_page = vec![0x55u8; PAGE_SIZE as usize];
        r.write_page(2, &new_page).unwrap();
        assert_eq!(r.with_page(2, <[u8]>::to_vec).unwrap(), new_page);
        assert!(r.write_page(2, &[0u8; 3]).is_err());
        assert!(r.with_page(4, <[u8]>::to_vec).is_err());
    }

    #[test]
    fn discard_page_zeroes_and_dirties() {
        let r = region();
        r.fill(GuestAddress(0x3000), PAGE_SIZE, 0xff).unwrap();
        r.dirty_bitmap().clear();
        r.discard_page(2).unwrap();
        // The bytes changed, so the page is in the next harvest like any
        // other written page.
        assert_eq!(r.dirty_bitmap().dirty_pages(), vec![2]);
        assert!(r
            .with_page(2, <[u8]>::to_vec)
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        assert!(r.discard_page(99).is_err());
        assert_eq!(r.dirty_bitmap().count(), 1);
    }

    #[test]
    fn empty_spans_mark_nothing() {
        let r = region();
        r.write(GuestAddress(0x1100), &[]).unwrap();
        r.fill(GuestAddress(0x2000), 0, 0xff).unwrap();
        r.with_slice_mut(GuestAddress(0x2fff), 0, |b| assert!(b.is_empty()))
            .unwrap();
        assert_eq!(r.dirty_bitmap().count(), 0);
        assert_eq!(r.checksum(), (0, 0));
    }

    #[test]
    fn with_bytes_sees_whole_region() {
        let r = region();
        r.write(GuestAddress(0x1000), &[7u8]).unwrap();
        let total: u64 = r.with_bytes(|b| b.iter().map(|&x| x as u64).sum());
        assert_eq!(total, 7);
        assert_eq!(r.with_bytes(|b| b.len()), (4 * PAGE_SIZE) as usize);
    }

    #[test]
    fn with_page_views_see_and_mutate_in_place() {
        let r = region();
        r.fill(GuestAddress(0x2000), PAGE_SIZE, 0x11).unwrap();
        r.dirty_bitmap().clear();

        let sum: u64 = r
            .with_page(1, |b| b.iter().map(|&x| x as u64).sum())
            .unwrap();
        assert_eq!(sum, 0x11 * PAGE_SIZE);
        assert_eq!(r.dirty_bitmap().count(), 0, "read view must not dirty");

        r.with_page_mut(1, |b| b[0] = 0xff).unwrap();
        assert!(r.dirty_bitmap().is_dirty(1));
        assert_eq!(r.with_page(1, |b| b[0]).unwrap(), 0xff);

        assert!(r.with_page(4, |_| ()).is_err());
        assert!(r.with_page_mut(4, |_| ()).is_err());
    }

    #[test]
    fn page_fingerprint_matches_out_of_place_hash() {
        let r = region();
        r.fill(GuestAddress(0x1000), PAGE_SIZE, 0xab).unwrap();
        let in_place = r.page_fingerprint(0).unwrap();
        let copied = crate::ksm::fingerprint(&r.with_page(0, <[u8]>::to_vec).unwrap());
        assert_eq!(in_place, copied);
        assert_ne!(in_place, r.page_fingerprint(1).unwrap());
        assert!(r.page_fingerprint(99).is_err());
    }

    #[test]
    fn with_slice_views() {
        let r = region();
        r.write(GuestAddress(0x1ffe), &[1, 2, 3, 4]).unwrap();
        let copied: Vec<u8> = r
            .with_slice(GuestAddress(0x1ffe), 4, |b| b.to_vec())
            .unwrap();
        assert_eq!(copied, vec![1, 2, 3, 4]);
        r.dirty_bitmap().clear();
        r.with_slice_mut(GuestAddress(0x1fff), 2, |b| b.copy_from_slice(&[9, 9]))
            .unwrap();
        // The mutated span straddles pages 0 and 1: both are dirty.
        assert_eq!(r.dirty_bitmap().dirty_pages(), vec![0, 1]);
        assert!(r.with_slice(GuestAddress(0x0), 8, |_| ()).is_err());
        assert!(r
            .with_slice(GuestAddress(0x1000 + 4 * PAGE_SIZE - 4), 8, |_| ())
            .is_err());
    }

    #[test]
    fn for_each_dirty_page_walks_exactly_the_dirty_set() {
        let r = MemoryRegion::new(GuestAddress(0), 130 * PAGE_SIZE).unwrap();
        for p in [0u64, 63, 64, 65, 129] {
            r.fill(GuestAddress(p * PAGE_SIZE), 8, p as u8 + 1).unwrap();
        }
        let mut seen = Vec::new();
        r.for_each_dirty_page(|page, bytes| {
            seen.push((page, bytes[0]));
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        assert_eq!(seen, vec![(0, 1), (63, 64), (64, 65), (65, 66), (129, 130)]);
        // Traversal is non-clearing.
        assert_eq!(r.dirty_bitmap().count(), 5);
        // Errors from the closure propagate and stop the walk.
        let mut visits = 0;
        let res: std::result::Result<(), &str> = r.for_each_dirty_page(|_, _| {
            visits += 1;
            Err("stop")
        });
        assert_eq!(res, Err("stop"));
        assert_eq!(visits, 1);
    }

    #[test]
    fn drain_dirty_pages_with_harvests_and_clears_per_word() {
        let r = MemoryRegion::new(GuestAddress(0), 130 * PAGE_SIZE).unwrap();
        for p in [2u64, 64, 129] {
            r.fill(GuestAddress(p * PAGE_SIZE), 8, 0xcc).unwrap();
        }
        let mut seen = Vec::new();
        r.drain_dirty_pages_with(|page, bytes| {
            seen.push((page, bytes[0]));
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        assert_eq!(seen, vec![(2, 0xcc), (64, 0xcc), (129, 0xcc)]);
        // Harvesting: the bits are gone, a second walk sees nothing.
        assert_eq!(r.dirty_bitmap().count(), 0);
        // A page dirtied after its word was taken lands in the next epoch —
        // the visitor itself cannot re-observe it, but the bitmap keeps it.
        r.fill(GuestAddress(0), 1, 1).unwrap();
        assert!(r.dirty_bitmap().is_dirty(0));
    }

    #[test]
    fn drain_dirty_pages_with_restores_bits_on_error() {
        let r = MemoryRegion::new(GuestAddress(0), 130 * PAGE_SIZE).unwrap();
        // Three dirty pages in word 0, one in word 2 (never reached).
        for p in [1u64, 5, 9, 129] {
            r.fill(GuestAddress(p * PAGE_SIZE), 8, 0xee).unwrap();
        }
        let mut visited = Vec::new();
        let res: std::result::Result<(), &str> = r.drain_dirty_pages_with(|page, _| {
            if page == 5 {
                return Err("backend full");
            }
            visited.push(page);
            Ok(())
        });
        assert_eq!(res, Err("backend full"));
        assert_eq!(visited, vec![1]);
        // Page 1 was harvested; the erred page, the word remainder and the
        // untaken later word all stay dirty for the retry.
        assert_eq!(r.dirty_bitmap().dirty_pages(), vec![5, 9, 129]);
    }

    /// Whether the known-zero plane calls each page zero.
    fn known_zero(r: &MemoryRegion) -> Vec<bool> {
        (0..r.pages())
            .map(|p| r.with_page_or_zero(p, |_, zero| zero).unwrap())
            .collect()
    }

    #[test]
    fn the_plane_follows_refresh_discard_and_stores() {
        let r = MemoryRegion::new(GuestAddress(0), 70 * PAGE_SIZE).unwrap();
        assert_eq!(known_zero(&r), vec![true; 70], "a fresh region is all zero");
        r.write(GuestAddress(PAGE_SIZE), &[1]).unwrap();
        r.write(GuestAddress(65 * PAGE_SIZE), &[0; 8]).unwrap();
        r.fill(GuestAddress(66 * PAGE_SIZE), PAGE_SIZE, 3).unwrap();
        let stale = |p: u64| p == 1 || p == 65 || p == 66;
        let expect: Vec<bool> = (0..70).map(|p| !stale(p)).collect();
        assert_eq!(known_zero(&r), expect, "a store makes the bit mean nothing");
        assert_eq!(r.checksum().1, 3);
        let expect: Vec<bool> = (0..70).map(|p| p != 1 && p != 66).collect();
        assert_eq!(
            known_zero(&r),
            expect,
            "the refresh settles what it re-sums"
        );
        // A discard settles its page at once, and changes nothing but the
        // dirty bit of a page already known zero.
        r.dirty_bitmap().clear();
        r.discard_page(66).unwrap();
        r.discard_page(2).unwrap();
        assert_eq!(r.dirty_bitmap().dirty_pages(), vec![2, 66]);
        assert_eq!(known_zero(&r), (0..70).map(|p| p != 1).collect::<Vec<_>>());
        assert_eq!(
            r.checksum(),
            (r.with_bytes(|b| crate::scan::weighted_sum(b, 0).0), 0)
        );
        let mut held = r.hold();
        let off = held.word_offset(GuestAddress(3 * PAGE_SIZE - 4)).unwrap();
        held.write_u64(off, 0);
        drop(held);
        assert_eq!(known_zero(&r)[2..4], [false, false], "both pages of a word");
    }

    #[test]
    fn a_recycled_backing_reads_all_zero_and_has_fresh_planes() {
        // Whatever regions earlier tests on this thread dropped.
        POOL.with(|pool| pool.borrow_mut().clear());
        let len = 130 * PAGE_SIZE;
        let r = MemoryRegion::new(GuestAddress(0), len).unwrap();
        let bytes_at = |r: &MemoryRegion| r.with_bytes(|b| b.as_ptr() as usize);
        let first = bytes_at(&r);
        // Pages known non-zero, stale after a settled sum, stale and never
        // summed, and discarded; one in the last, partial plane word.
        r.fill(GuestAddress(0), 3 * PAGE_SIZE, 0xa5).unwrap();
        r.write(GuestAddress(129 * PAGE_SIZE + 9), &[7]).unwrap();
        r.checksum();
        r.write(GuestAddress(PAGE_SIZE), &[0; 4]).unwrap();
        r.write(GuestAddress(70 * PAGE_SIZE), &[1, 2, 3]).unwrap();
        r.discard_page(2).unwrap();
        drop(r);

        let again = MemoryRegion::new(GuestAddress(0x10_0000), len).unwrap();
        assert_eq!(
            bytes_at(&again),
            first,
            "the backing came off the free list"
        );
        assert!(again.with_bytes(crate::scan::is_zero));
        assert_eq!(again.checksum(), (0, 0), "no stale page and no stale sum");
        assert_eq!(known_zero(&again), vec![true; 130]);
        assert_eq!(again.dirty_bitmap().count(), 0);
        // Another length is not served from the list.
        assert!(MemoryRegion::new(GuestAddress(0), PAGE_SIZE)
            .unwrap()
            .with_bytes(crate::scan::is_zero));
    }

    #[test]
    fn metadata_accessors() {
        let r = region();
        assert_eq!(r.start(), GuestAddress(0x1000));
        assert_eq!(r.len(), 4 * PAGE_SIZE);
        assert_eq!(r.pages(), 4);
    }
}
