//! The guest physical address space: an ordered set of regions.
//!
//! [`GuestMemory`] routes every access to the [`MemoryRegion`] that backs it;
//! it holds no guest bytes and no cache of its own. In particular
//! [`GuestMemory::checksum`] is just the wrapping sum of the regions' cached
//! folds, and every `GuestMemory` mutator is a `MemoryRegion` mutator of the
//! same name, so the one marking rule in [`crate::region`] covers both types.
//! [`GuestAccess`] is the same routing with every region's lock already held.

use std::sync::Arc;

use rvisor_types::{ByteSize, Error, GuestAddress, Result, PAGE_SIZE};

use crate::region::{HeldRegion, MemoryRegion};

/// Builder for a [`GuestMemory`].
///
/// ```
/// use rvisor_memory::{GuestMemoryBuilder, GuestAddress, ByteSize};
/// let mem = GuestMemoryBuilder::new()
///     .with_region(GuestAddress(0), ByteSize::mib(64))
///     .unwrap()
///     .build();
/// assert_eq!(mem.total_size(), ByteSize::mib(64));
/// ```
#[derive(Debug, Default)]
pub struct GuestMemoryBuilder {
    regions: Vec<Arc<MemoryRegion>>,
}

impl GuestMemoryBuilder {
    /// Start with an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a region at `base` of `size` bytes.
    pub fn with_region(mut self, base: GuestAddress, size: ByteSize) -> Result<Self> {
        let new = MemoryRegion::new(base, size.as_u64())?;
        for existing in &self.regions {
            if existing.range().overlaps(&new.range()) {
                return Err(Error::RegionOverlap);
            }
        }
        self.regions.push(Arc::new(new));
        Ok(self)
    }

    /// Finish building; regions are sorted by start address.
    pub fn build(mut self) -> GuestMemory {
        self.regions.sort_by_key(|r| r.start());
        GuestMemory {
            regions: Arc::new(self.regions),
        }
    }
}

/// The guest physical address space.
///
/// Cloning is cheap (the regions are shared), which lets device models, vCPUs
/// and the migration engine all hold a handle to the same memory.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    regions: Arc<Vec<Arc<MemoryRegion>>>,
}

impl GuestMemory {
    /// Convenience constructor: a single region of `size` bytes at address 0.
    pub fn flat(size: ByteSize) -> Result<Self> {
        Ok(GuestMemoryBuilder::new()
            .with_region(GuestAddress(0), size)?
            .build())
    }

    /// The regions making up the address space, ordered by start address.
    pub fn regions(&self) -> &[Arc<MemoryRegion>] {
        &self.regions
    }

    /// Total bytes of guest memory across all regions.
    pub fn total_size(&self) -> ByteSize {
        ByteSize::new(self.regions.iter().map(|r| r.len()).sum())
    }

    /// Total number of 4 KiB pages across all regions.
    pub fn total_pages(&self) -> u64 {
        self.regions.iter().map(|r| r.pages()).sum()
    }

    /// Find the region containing `addr` along with the offset into it.
    fn find_region(&self, addr: GuestAddress) -> Result<&Arc<MemoryRegion>> {
        self.regions
            .iter()
            .find(|r| r.range().contains(addr))
            .ok_or(Error::InvalidGuestAddress(addr))
    }

    /// Walk the (possibly several) regions backing `[addr, addr + len)` in
    /// address order, calling `f(region index, span start, offset into the
    /// span, span length)` for each contiguous piece.
    ///
    /// This is the span contract of [`Self::read`]/[`Self::write`]: accesses
    /// may straddle *adjacent* regions, but a span whose next byte is backed
    /// by no region fails with [`Error::CrossRegionGap`] (or
    /// [`Error::InvalidGuestAddress`] when even the first byte is unbacked).
    fn for_each_span(
        &self,
        addr: GuestAddress,
        len: u64,
        mut f: impl FnMut(usize, GuestAddress, usize, u64) -> Result<()>,
    ) -> Result<()> {
        let mut cur = addr;
        let mut done = 0u64;
        loop {
            let mut regions = self.regions.iter().enumerate();
            let (index, region) = match regions.find(|(_, r)| r.range().contains(cur)) {
                Some(found) => found,
                None if done == 0 => return Err(Error::InvalidGuestAddress(cur)),
                None => {
                    return Err(Error::CrossRegionGap {
                        addr,
                        len,
                        gap_at: cur,
                    })
                }
            };
            let region_end = region.start().0 + region.len();
            let take = (region_end - cur.0).min(len - done);
            f(index, cur, done as usize, take)?;
            done += take;
            if done >= len {
                return Ok(());
            }
            cur = GuestAddress(region_end);
        }
    }

    /// Read `buf.len()` bytes at `addr`.
    ///
    /// The span may straddle adjacent regions; a span over a hole fails with
    /// [`Error::CrossRegionGap`] (partial reads into `buf` may have happened
    /// by then).
    pub fn read(&self, addr: GuestAddress, buf: &mut [u8]) -> Result<()> {
        self.for_each_span(addr, buf.len() as u64, |region, at, off, take| {
            self.regions[region].read(at, &mut buf[off..off + take as usize])
        })
    }

    /// Write `buf` at `addr`, marking touched pages dirty.
    ///
    /// Same span contract as [`Self::read`]: adjacent regions are stitched,
    /// holes fail with [`Error::CrossRegionGap`] (pieces before the gap may
    /// already have been written).
    pub fn write(&self, addr: GuestAddress, buf: &[u8]) -> Result<()> {
        self.for_each_span(addr, buf.len() as u64, |region, at, off, take| {
            self.regions[region].write(at, &buf[off..off + take as usize])
        })
    }

    /// Fill `len` bytes at `addr` with `value`. Same span contract as
    /// [`Self::read`].
    pub fn fill(&self, addr: GuestAddress, len: u64, value: u8) -> Result<()> {
        self.for_each_span(addr, len, |region, at, _off, take| {
            self.regions[region].fill(at, take, value)
        })
    }

    /// Take every region's data lock for writing, in address order, and keep
    /// them until the returned view drops: exclusive access to the guest's
    /// bytes for a caller that makes many small accesses in a row (a vCPU
    /// for the length of one `run`).
    ///
    /// While the view lives, every other access to this guest's bytes, from
    /// any handle and any thread — the holder's own included — waits for the
    /// drop.
    pub fn hold(&self) -> GuestAccess<'_> {
        GuestAccess {
            memory: self,
            held: self.regions.iter().map(|r| r.hold()).collect(),
        }
    }

    /// Read a little-endian `u16`.
    pub fn read_u16(&self, addr: GuestAddress) -> Result<u16> {
        let mut b = [0u8; 2];
        self.read(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: GuestAddress) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: GuestAddress) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u8`.
    pub fn write_u8(&self, addr: GuestAddress, v: u8) -> Result<()> {
        self.write(addr, &[v])
    }

    /// Write a little-endian `u16`.
    pub fn write_u16(&self, addr: GuestAddress, v: u16) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&self, addr: GuestAddress, v: u32) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&self, addr: GuestAddress, v: u64) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Read `len` bytes into a freshly allocated vector.
    pub fn read_vec(&self, addr: GuestAddress, len: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Run a closure over one page's bytes **without copying them**.
    ///
    /// `page` is a global page index. The owning region's read lock is held
    /// for the duration of the closure; keep the work short.
    pub fn with_page<R>(&self, page: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let (region, rel) = self.locate_page(page)?;
        region.with_page(rel, f)
    }

    /// [`Self::with_page`], except that a page the known-zero plane calls
    /// zero is not read: `f` gets a static zero page and `true` instead of
    /// the page and `false`. A page written since the last [`Self::checksum`]
    /// is always read (see [`crate::region`]).
    pub fn with_page_or_zero<R>(&self, page: u64, f: impl FnOnce(&[u8], bool) -> R) -> Result<R> {
        let (region, rel) = self.locate_page(page)?;
        region.with_page_or_zero(rel, f)
    }

    /// Run a closure over one page's bytes with write access, marking the
    /// page dirty. `page` is a global page index.
    pub fn with_page_mut<R>(&self, page: u64, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let (region, rel) = self.locate_page(page)?;
        region.with_page_mut(rel, f)
    }

    /// FNV-1a fingerprint of a (global) page, hashed in place — the KSM and
    /// dedup-analysis primitive, with no 4 KiB copy per probe.
    pub(crate) fn page_fingerprint(&self, page: u64) -> Result<u64> {
        let (region, rel) = self.locate_page(page)?;
        region.page_fingerprint(rel)
    }

    /// Run a closure over an arbitrary `[addr, addr + len)` span without
    /// copying. Unlike [`Self::read`], the span must lie inside a *single*
    /// region (a contiguous borrow cannot cross backing allocations).
    ///
    /// A span that [`Self::read`] would stitch across adjacent regions
    /// fails here; callers that must accept such spans need a copying
    /// fallback (virtio-blk bounces multi-region payloads through its
    /// scratch buffer, for example).
    pub fn with_slice<R>(
        &self,
        addr: GuestAddress,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.find_region(addr)?.with_slice(addr, len, f)
    }

    /// Visit every dirty page, harvesting: each 64-page
    /// word's dirty bits are atomically fetched-and-cleared before its pages
    /// are visited, so a page dirtied during the walk lands in the next
    /// epoch instead of being silently lost. This is what incremental
    /// snapshot capture runs on.
    pub fn drain_dirty_pages_with<E>(
        &self,
        mut f: impl FnMut(u64, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut base = 0u64;
        for r in self.regions.iter() {
            r.drain_dirty_pages_with(|rel, bytes| f(base + rel, bytes))?;
            base += r.pages();
        }
        Ok(())
    }

    /// Copy the contents of a whole (global) page index.
    ///
    /// Allocating convenience wrapper over [`Self::with_page`]; hot paths
    /// should use the view directly.
    pub fn read_page(&self, page: u64) -> Result<Vec<u8>> {
        self.with_page(page, |bytes| bytes.to_vec())
    }

    /// Overwrite a whole (global) page index.
    pub fn write_page(&self, page: u64, contents: &[u8]) -> Result<()> {
        let (region, rel) = self.locate_page(page)?;
        region.write_page(rel, contents)
    }

    /// Zero a whole (global) page index, marking it dirty (see
    /// `MemoryRegion::discard_page`).
    pub fn discard_page(&self, page: u64) -> Result<()> {
        let (region, rel) = self.locate_page(page)?;
        region.discard_page(rel)
    }

    /// Map a global page index to `(region, region-relative page index)`.
    ///
    /// Global page indices enumerate pages of all regions in address order;
    /// they are the currency of the dirty-tracking, balloon and migration
    /// layers.
    fn locate_page(&self, page: u64) -> Result<(&Arc<MemoryRegion>, u64)> {
        let mut remaining = page;
        for r in self.regions.iter() {
            if remaining < r.pages() {
                return Ok((r, remaining));
            }
            remaining -= r.pages();
        }
        Err(Error::InvalidGuestAddress(GuestAddress(page * PAGE_SIZE)))
    }

    /// The guest physical address of a global page index.
    pub fn page_address(&self, page: u64) -> Result<GuestAddress> {
        let (region, rel) = self.locate_page(page)?;
        Ok(region.start().unchecked_add(rel * PAGE_SIZE))
    }

    /// Collect the global indices of all dirty pages.
    pub fn dirty_pages(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut base = 0u64;
        for r in self.regions.iter() {
            out.extend(r.dirty_bitmap().dirty_pages().into_iter().map(|p| p + base));
            base += r.pages();
        }
        out
    }

    /// Number of dirty pages across all regions.
    pub fn dirty_page_count(&self) -> u64 {
        self.regions.iter().map(|r| r.dirty_bitmap().count()).sum()
    }

    /// Atomically harvest and clear the dirty set into a caller-owned buffer
    /// (global page indices, ascending).
    ///
    /// `out` is cleared first, then filled; once its capacity has grown to
    /// the working set, successive harvests perform **zero heap
    /// allocations** — the primitive pre-copy rounds reuse one buffer with.
    pub fn drain_dirty_into(&self, out: &mut Vec<u64>) {
        out.clear();
        let mut base = 0u64;
        for r in self.regions.iter() {
            let start = out.len();
            r.dirty_bitmap().drain_append_into(out);
            if base != 0 {
                for p in &mut out[start..] {
                    *p += base;
                }
            }
            base += r.pages();
        }
    }

    /// Atomically harvest and clear the dirty set (global page indices).
    ///
    /// Allocating convenience wrapper over [`Self::drain_dirty_into`].
    pub fn drain_dirty(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.drain_dirty_into(&mut out);
        out
    }

    /// Clear all dirty bits.
    pub fn clear_dirty(&self) {
        for r in self.regions.iter() {
            r.dirty_bitmap().clear();
        }
    }

    /// Mark a global page index dirty (used when restoring harvested state).
    pub fn mark_dirty_page(&self, page: u64) {
        if let Ok((region, rel)) = self.locate_page(page) {
            region.dirty_bitmap().mark(rel);
        }
    }

    /// A simple additive checksum of all guest memory: per region, every
    /// byte times its offset in the region with the lowest bit set, summed
    /// wrapping in `u64`. Not cryptographic.
    ///
    /// A call reads the pages written since the previous call plus 8 bytes
    /// per page, not every byte: each region caches one partial sum per page
    /// (8 bytes + 1 bit per page, 0.2 % of the guest), every mutator marks
    /// the pages it touches, and only marked pages are read again — see
    /// [`crate::region`] for the marking rule and why a write racing a
    /// checksum is seen by this call or by the next, never lost. A backup
    /// epoch or a migration verification of a guest that has not run since
    /// the last one re-reads nothing. Concurrent callers serialise per
    /// region and agree on a quiescent guest.
    pub fn checksum(&self) -> u64 {
        self.checksum_counting_resums().0
    }

    /// [`Self::checksum`], and the number of pages it had to re-sum — how
    /// tests show, without a clock, that the work follows the change.
    pub(crate) fn checksum_counting_resums(&self) -> (u64, u64) {
        self.regions.iter().fold((0, 0), |(sum, pages), r| {
            let (s, p) = r.checksum();
            (sum.wrapping_add(s), pages + p)
        })
    }
}

/// Every region of a [`GuestMemory`] held for writing
/// ([`GuestMemory::hold`]): reads and stores that take no lock and search no
/// further than the span walk, for as long as the view lives.
///
/// Accesses follow exactly the span contract of [`GuestMemory::read`] and
/// [`GuestMemory::write`] — adjacent regions stitched, the same
/// [`Error::InvalidGuestAddress`] / [`Error::CrossRegionGap`], pieces before
/// a gap written — and a store marks what the same `GuestMemory::write`
/// would: the checksum plane and the dirty bitmap of every page it touches
/// (the one marking rule of [`crate::region`]).
#[derive(Debug)]
pub struct GuestAccess<'a> {
    memory: &'a GuestMemory,
    /// One per region, in `memory.regions` order.
    held: Vec<HeldRegion<'a>>,
}

impl GuestAccess<'_> {
    /// [`GuestMemory::read`] under the held locks.
    pub fn read(&self, addr: GuestAddress, buf: &mut [u8]) -> Result<()> {
        self.memory
            .for_each_span(addr, buf.len() as u64, |region, at, off, take| {
                self.held[region].read(at, &mut buf[off..off + take as usize])
            })
    }

    /// [`GuestMemory::write`] under the held locks, marking touched pages.
    pub(crate) fn write(&mut self, addr: GuestAddress, buf: &[u8]) -> Result<()> {
        let held = &mut self.held;
        self.memory
            .for_each_span(addr, buf.len() as u64, |region, at, off, take| {
                held[region].write(at, &buf[off..off + take as usize])
            })
    }

    /// Read a little-endian `u64`: one range check and an 8-byte copy when a
    /// single region holds all eight bytes, otherwise [`Self::read`].
    #[inline]
    pub fn read_u64(&self, addr: GuestAddress) -> Result<u64> {
        if let Some((region, off)) = self.word(addr) {
            return Ok(self.held[region].read_u64(off));
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64`, with the marks of `Self::write`: one
    /// range check and an 8-byte copy when a single region holds all eight
    /// bytes, otherwise `Self::write`.
    // `always`: a plain hint leaves it out of line in `Vcpu::run`, whose
    // fast loop stores through it.
    #[inline(always)]
    pub fn write_u64(&mut self, addr: GuestAddress, v: u64) -> Result<()> {
        if let Some((region, off)) = self.word(addr) {
            self.held[region].write_u64(off, v);
            return Ok(());
        }
        self.write(addr, &v.to_le_bytes())
    }

    /// The held region, and the offset into it, of the 8 bytes at `addr`
    /// when one region holds them all. Regions never overlap, so it is the
    /// region the span walk would find.
    #[inline]
    fn word(&self, addr: GuestAddress) -> Option<(usize, usize)> {
        self.held
            .iter()
            .enumerate()
            .find_map(|(region, held)| Some((region, held.word_offset(addr)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tests::{checksum_bytewise, weighted_sum_bytewise};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl GuestMemory {
        /// Whether `addr` is backed by guest memory.
        pub(crate) fn address_in_range(&self, addr: GuestAddress) -> bool {
            self.regions.iter().any(|r| r.range().contains(addr))
        }

        /// Read a little-endian `u8`.
        pub(crate) fn read_u8(&self, addr: GuestAddress) -> Result<u8> {
            let mut b = [0u8; 1];
            self.read(addr, &mut b)?;
            Ok(b[0])
        }

        /// Run a closure over an arbitrary single-region span with write access,
        /// marking the touched pages dirty. See [`Self::with_slice`].
        pub(crate) fn with_slice_mut<R>(
            &self,
            addr: GuestAddress,
            len: u64,
            f: impl FnOnce(&mut [u8]) -> R,
        ) -> Result<R> {
            self.find_region(addr)?.with_slice_mut(addr, len, f)
        }

        /// Visit every currently dirty page (global indices, ascending) without
        /// clearing its bit, handing the closure `(page index, page bytes)`.
        ///
        /// Region read locks are held one 64-page bitmap word at a time (see
        /// [`MemoryRegion::for_each_dirty_page`]): no per-page lock round-trip,
        /// no per-page allocation, and writers still interleave between words.
        pub(crate) fn for_each_dirty_page<E>(
            &self,
            mut f: impl FnMut(u64, &[u8]) -> std::result::Result<(), E>,
        ) -> std::result::Result<(), E> {
            let mut base = 0u64;
            for r in self.regions.iter() {
                r.for_each_dirty_page(|rel, bytes| f(base + rel, bytes))?;
                base += r.pages();
            }
            Ok(())
        }

        /// The global page index containing a guest physical address.
        pub(crate) fn address_page(&self, addr: GuestAddress) -> Result<u64> {
            let mut base = 0u64;
            for r in self.regions.iter() {
                if r.range().contains(addr) {
                    return Ok(base + (addr.0 - r.start().0) / PAGE_SIZE);
                }
                base += r.pages();
            }
            Err(Error::InvalidGuestAddress(addr))
        }
    }

    fn two_region_memory() -> GuestMemory {
        GuestMemoryBuilder::new()
            .with_region(GuestAddress(0), ByteSize::pages_of(4))
            .unwrap()
            .with_region(GuestAddress(0x100000), ByteSize::pages_of(4))
            .unwrap()
            .build()
    }

    #[test]
    fn builder_rejects_overlap() {
        let res = GuestMemoryBuilder::new()
            .with_region(GuestAddress(0), ByteSize::mib(1))
            .unwrap()
            .with_region(GuestAddress(0x8000), ByteSize::mib(1));
        assert!(matches!(res, Err(Error::RegionOverlap)));
    }

    #[test]
    fn flat_memory() {
        let mem = GuestMemory::flat(ByteSize::mib(2)).unwrap();
        assert_eq!(mem.total_size(), ByteSize::mib(2));
        assert_eq!(mem.total_pages(), 512);
        assert_eq!(mem.regions().len(), 1);
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mem = GuestMemory::flat(ByteSize::pages_of(2)).unwrap();
        mem.write_u8(GuestAddress(0), 0xab).unwrap();
        mem.write_u16(GuestAddress(2), 0xbeef).unwrap();
        mem.write_u32(GuestAddress(4), 0xdeadbeef).unwrap();
        mem.write_u64(GuestAddress(8), 0x0123456789abcdef).unwrap();
        assert_eq!(mem.read_u8(GuestAddress(0)).unwrap(), 0xab);
        assert_eq!(mem.read_u16(GuestAddress(2)).unwrap(), 0xbeef);
        assert_eq!(mem.read_u32(GuestAddress(4)).unwrap(), 0xdeadbeef);
        assert_eq!(mem.read_u64(GuestAddress(8)).unwrap(), 0x0123456789abcdef);
    }

    #[test]
    fn access_to_hole_fails() {
        let mem = two_region_memory();
        assert!(mem.read_u8(GuestAddress(0x5000)).is_err());
        assert!(mem.write_u8(GuestAddress(0x5000), 1).is_err());
        assert!(!mem.address_in_range(GuestAddress(0x5000)));
        assert!(mem.address_in_range(GuestAddress(0x100000)));
    }

    #[test]
    fn global_page_indexing_spans_regions() {
        let mem = two_region_memory();
        assert_eq!(mem.total_pages(), 8);
        // Page 5 is the second page of the second region.
        assert_eq!(mem.page_address(5).unwrap(), GuestAddress(0x101000));
        assert_eq!(mem.address_page(GuestAddress(0x101000)).unwrap(), 5);
        assert!(mem.page_address(8).is_err());
        assert!(mem.address_page(GuestAddress(0x50000)).is_err());
    }

    #[test]
    fn page_roundtrip_across_regions() {
        let mem = two_region_memory();
        let page = vec![0x5au8; PAGE_SIZE as usize];
        mem.write_page(6, &page).unwrap();
        assert_eq!(mem.read_page(6).unwrap(), page);
        assert!(mem.read_page(100).is_err());
    }

    #[test]
    fn dirty_tracking_spans_regions() {
        let mem = two_region_memory();
        mem.write_u8(GuestAddress(0), 1).unwrap();
        mem.write_u8(GuestAddress(0x102000), 1).unwrap();
        let dirty = mem.dirty_pages();
        assert_eq!(dirty, vec![0, 6]);
        assert_eq!(mem.dirty_page_count(), 2);
        let drained = mem.drain_dirty();
        assert_eq!(drained, vec![0, 6]);
        assert_eq!(mem.dirty_page_count(), 0);
        mem.mark_dirty_page(6);
        assert_eq!(mem.dirty_pages(), vec![6]);
        mem.clear_dirty();
        assert_eq!(mem.dirty_page_count(), 0);
    }

    /// Two regions that touch (no hole): [0, 4 pages) and [4 pages, 8 pages).
    fn two_adjacent_regions() -> GuestMemory {
        GuestMemoryBuilder::new()
            .with_region(GuestAddress(0), ByteSize::pages_of(4))
            .unwrap()
            .with_region(GuestAddress(4 * PAGE_SIZE), ByteSize::pages_of(4))
            .unwrap()
            .build()
    }

    #[test]
    fn span_straddling_adjacent_regions_is_stitched() {
        let mem = two_adjacent_regions();
        let boundary = 4 * PAGE_SIZE;
        let payload: Vec<u8> = (0..64).collect();
        mem.write(GuestAddress(boundary - 32), &payload).unwrap();
        let mut back = vec![0u8; 64];
        mem.read(GuestAddress(boundary - 32), &mut back).unwrap();
        assert_eq!(back, payload);
        // The last page of region 0 and the first page of region 1 are dirty.
        assert_eq!(mem.dirty_pages(), vec![3, 4]);
        // Typed accessors ride the same path.
        mem.write_u64(GuestAddress(boundary - 4), 0xdead_beef_cafe_f00d)
            .unwrap();
        assert_eq!(
            mem.read_u64(GuestAddress(boundary - 4)).unwrap(),
            0xdead_beef_cafe_f00d
        );
        // fill() across the boundary.
        mem.fill(GuestAddress(boundary - 8), 16, 0x5a).unwrap();
        assert_eq!(
            mem.read_u64(GuestAddress(boundary)).unwrap(),
            0x5a5a_5a5a_5a5a_5a5a
        );
    }

    #[test]
    fn span_over_a_hole_reports_cross_region_gap() {
        let mem = two_region_memory(); // hole between 4 pages and 0x100000
        let start = GuestAddress(4 * PAGE_SIZE - 8);
        let mut buf = [0u8; 16];
        match mem.read(start, &mut buf) {
            Err(Error::CrossRegionGap { addr, len, gap_at }) => {
                assert_eq!(addr, start);
                assert_eq!(len, 16);
                assert_eq!(gap_at, GuestAddress(4 * PAGE_SIZE));
            }
            other => panic!("expected CrossRegionGap, got {other:?}"),
        }
        assert!(matches!(
            mem.write(start, &[0u8; 16]),
            Err(Error::CrossRegionGap { .. })
        ));
        assert!(matches!(
            mem.fill(start, 16, 1),
            Err(Error::CrossRegionGap { .. })
        ));
        // A span starting in the hole keeps the original error shape.
        assert!(matches!(
            mem.read(GuestAddress(0x50000), &mut buf),
            Err(Error::InvalidGuestAddress(_))
        ));
    }

    #[test]
    fn page_views_and_fingerprints() {
        let mem = two_region_memory();
        mem.write_u64(GuestAddress(0x101000), 0x77).unwrap();
        // Global page 5 is the second page of the second region.
        assert_eq!(mem.with_page(5, |b| b[0]).unwrap(), 0x77);
        let fp_in_place = mem.page_fingerprint(5).unwrap();
        assert_eq!(
            fp_in_place,
            crate::ksm::fingerprint(&mem.read_page(5).unwrap())
        );
        mem.clear_dirty();
        mem.with_page_mut(5, |b| b[8] = 1).unwrap();
        assert_eq!(mem.dirty_pages(), vec![5]);
        assert_ne!(mem.page_fingerprint(5).unwrap(), fp_in_place);
        assert!(mem.with_page(100, |_| ()).is_err());
        assert!(mem.page_fingerprint(100).is_err());
    }

    #[test]
    fn slice_views_are_single_region() {
        let mem = two_adjacent_regions();
        mem.write(GuestAddress(16), &[1, 2, 3]).unwrap();
        assert_eq!(
            mem.with_slice(GuestAddress(16), 3, |b| b.to_vec()).unwrap(),
            vec![1, 2, 3]
        );
        mem.clear_dirty();
        mem.with_slice_mut(GuestAddress(16), 2, |b| b.fill(9))
            .unwrap();
        assert_eq!(mem.read_u8(GuestAddress(17)).unwrap(), 9);
        assert_eq!(mem.dirty_pages(), vec![0]);
        // A contiguous borrow cannot cross backing allocations, even when the
        // regions are adjacent.
        assert!(mem
            .with_slice(GuestAddress(4 * PAGE_SIZE - 8), 16, |_| ())
            .is_err());
    }

    #[test]
    fn drain_dirty_into_reuses_buffer_across_regions() {
        let mem = two_region_memory();
        let mut buf = Vec::with_capacity(16);
        mem.write_u8(GuestAddress(0), 1).unwrap();
        mem.write_u8(GuestAddress(0x102000), 1).unwrap();
        mem.drain_dirty_into(&mut buf);
        assert_eq!(buf, vec![0, 6]);
        assert_eq!(mem.dirty_page_count(), 0);
        let cap = buf.capacity();
        // The next harvest clears and refills without reallocating.
        mem.write_u8(GuestAddress(0x1000), 1).unwrap();
        mem.drain_dirty_into(&mut buf);
        assert_eq!(buf, vec![1]);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn for_each_dirty_page_spans_regions_with_global_indices() {
        let mem = two_region_memory();
        mem.write_u64(GuestAddress(0x1000), 11).unwrap();
        mem.write_u64(GuestAddress(0x102000), 22).unwrap();
        let mut seen = Vec::new();
        mem.for_each_dirty_page(|page, bytes| {
            seen.push((page, bytes[0]));
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        assert_eq!(seen, vec![(1, 11), (6, 22)]);
        // Non-clearing: the bits are still set.
        assert_eq!(mem.dirty_page_count(), 2);
    }

    #[test]
    fn checksum_changes_with_contents() {
        let mem = GuestMemory::flat(ByteSize::pages_of(4)).unwrap();
        let c0 = mem.checksum();
        mem.write_u64(GuestAddress(0x100), 42).unwrap();
        let c1 = mem.checksum();
        assert_ne!(c0, c1);
        mem.write_u64(GuestAddress(0x100), 0).unwrap();
        assert_eq!(mem.checksum(), c0);
    }

    #[test]
    fn checksum_resums_only_the_pages_written_since_the_last_one() {
        let mem = two_adjacent_regions();
        // A fresh guest is all zero: nothing is marked, nothing is read.
        assert_eq!(mem.checksum_counting_resums(), (0, 0));

        // Five writes, k = 3 distinct pages left to re-sum: 1 twice, then 3
        // and 4 by one write straddling the region edge. Page 7 is written
        // and then discarded, which settles its sum (0) itself.
        mem.write_u64(GuestAddress(PAGE_SIZE + 8), 0xdead).unwrap();
        mem.write_u8(GuestAddress(2 * PAGE_SIZE - 1), 9).unwrap();
        mem.write_u64(GuestAddress(4 * PAGE_SIZE - 4), u64::MAX)
            .unwrap();
        mem.with_page_mut(7, |b| b[100] = 1).unwrap();
        mem.discard_page(7).unwrap();
        assert_eq!(mem.checksum_counting_resums(), (checksum_bytewise(&mem), 3));
        assert_eq!(mem.checksum_counting_resums(), (checksum_bytewise(&mem), 0));

        // The dirty harvest and the checksum plane are separate: draining or
        // clearing dirty bits neither hides a write from the next checksum
        // nor makes it read a page again.
        mem.fill(GuestAddress(5 * PAGE_SIZE), PAGE_SIZE, 0xab)
            .unwrap();
        assert_eq!(mem.drain_dirty(), vec![1, 3, 4, 5, 7]);
        mem.write_page(6, &vec![0x11; PAGE_SIZE as usize]).unwrap();
        mem.clear_dirty();
        assert_eq!(mem.checksum_counting_resums(), (checksum_bytewise(&mem), 2));
        mem.mark_dirty_page(2);
        mem.clear_dirty();
        assert_eq!(mem.checksum_counting_resums().1, 0);
    }

    #[test]
    fn incremental_epoch_of_an_untouched_guest_resums_nothing() {
        // The memory-side calls of `VmSnapshot::capture_full`, `clear_dirty`
        // and `VmSnapshot::capture_incremental`, in a DR backup's order.
        let mem = two_region_memory();
        for page in 0..mem.total_pages() {
            mem.with_page_mut(page, |b| b.fill(page as u8 + 1)).unwrap();
        }
        let parent = mem.checksum_counting_resums();
        assert_eq!(parent, (checksum_bytewise(&mem), 8));
        mem.clear_dirty();

        let mut pages = 0;
        mem.drain_dirty_pages_with(|_, _| {
            pages += 1;
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        assert_eq!(pages, 0);
        assert_eq!(mem.checksum_counting_resums(), (parent.0, 0));
    }

    #[test]
    fn checksum_is_exact_under_concurrent_writers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        let mem = two_adjacent_regions();
        let start = Barrier::new(3);
        let writers_done = AtomicBool::new(false);
        // Writer `w` owns pages `w` and `w + 4`; both also write pages 2, 3
        // and the span straddling the region edge.
        let writer = |w: u64| {
            start.wait();
            for i in 0..4_000u64 {
                let v = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                mem.write_u64(GuestAddress(w * PAGE_SIZE + (i % 500) * 8), v)
                    .unwrap();
                mem.with_page_mut(w + 4, |b| b[(i % PAGE_SIZE) as usize] = v as u8)
                    .unwrap();
                mem.write_u64(GuestAddress(2 * PAGE_SIZE + (i % 64) * 8), v)
                    .unwrap();
                mem.write_u64(GuestAddress(4 * PAGE_SIZE - 4), v).unwrap();
                if i % 97 == 0 {
                    mem.discard_page(3).unwrap();
                }
            }
        };
        std::thread::scope(|s| {
            let a = s.spawn(|| writer(0));
            let b = s.spawn(|| writer(1));
            let summer = s.spawn(|| {
                start.wait();
                loop {
                    std::hint::black_box(mem.checksum());
                    if writers_done.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
            a.join().expect("writer 0");
            b.join().expect("writer 1");
            writers_done.store(true, Ordering::Release);
            summer.join().expect("summer");
        });
        // Whatever interleaving happened, no write was lost to the cache.
        assert_eq!(mem.checksum(), checksum_bytewise(&mem));
        assert_eq!(mem.checksum_counting_resums().1, 0);
    }

    #[test]
    fn concurrent_checksums_of_a_quiescent_guest_agree() {
        let mem = two_adjacent_regions();
        for round in 0..50u64 {
            // Leave marks pending, so both callers race to refresh them.
            for page in 0..mem.total_pages() {
                mem.write_u64(GuestAddress(page * PAGE_SIZE + 8 * round), round + page + 1)
                    .unwrap();
            }
            let start = std::sync::Barrier::new(2);
            let summed = || {
                start.wait();
                mem.checksum()
            };
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(summed);
                let b = s.spawn(summed);
                (a.join().expect("caller a"), b.join().expect("caller b"))
            });
            assert_eq!(a, b);
            assert_eq!(a, checksum_bytewise(&mem));
        }
    }

    #[test]
    fn a_held_view_keeps_checksums_and_harvests_out_until_it_drops() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        // Pages 3 and 4 sit on either side of the region edge.
        let mem = two_adjacent_regions();
        let edge = 4 * PAGE_SIZE;
        let start = Barrier::new(3);
        let dropping = AtomicBool::new(false);
        const STORES: u64 = 2_000;
        let last = STORES - 1;

        let (summed, harvested) = std::thread::scope(|s| {
            let holder = s.spawn(|| {
                // Held, and both pages marked, before the others start: the
                // harvester finds bits to take and a lock it cannot have.
                let mut view = mem.hold();
                view.write_u64(GuestAddress(edge - 8), u64::MAX).unwrap();
                view.write_u64(GuestAddress(edge), u64::MAX).unwrap();
                start.wait();
                for i in 0..STORES {
                    view.write_u64(GuestAddress(edge - 8), i).unwrap();
                    view.write_u64(GuestAddress(edge + 8 * (i % 64)), i)
                        .unwrap();
                    view.write_u64(GuestAddress(edge - 4), i).unwrap();
                }
                dropping.store(true, Ordering::Release);
            });
            let summer = s.spawn(|| {
                start.wait();
                let sum = mem.checksum();
                assert!(dropping.load(Ordering::Acquire), "summed under the view");
                sum
            });
            let harvester = s.spawn(|| {
                start.wait();
                let mut seen = Vec::new();
                mem.drain_dirty_pages_with(|page, bytes| {
                    assert!(dropping.load(Ordering::Acquire), "read under the view");
                    seen.push((page, bytes.to_vec()));
                    Ok::<(), std::convert::Infallible>(())
                })
                .unwrap();
                seen
            });
            holder.join().expect("holder");
            (
                summer.join().expect("summer"),
                harvester.join().expect("harvester"),
            )
        });

        // The checksum waited for the drop, so it summed every store.
        assert_eq!(summed, checksum_bytewise(&mem));
        assert_eq!(mem.checksum_counting_resums(), (summed, 0));
        assert_eq!(mem.read_u64(GuestAddress(edge - 4)).unwrap(), last);
        assert_eq!(
            mem.read_u64(GuestAddress(edge + 8 * (last % 64))).unwrap(),
            last
        );
        // The harvest took its words while the view was held and read the
        // pages after the drop: what it saw of a page is the page's final
        // contents, and a page stored to after its word was taken is dirty
        // again for the next harvest — no store is lost between the two.
        for (page, bytes) in &harvested {
            assert_eq!(&mem.read_page(*page).unwrap(), bytes, "page {page}");
        }
        let mut covered: BTreeSet<u64> = harvested.iter().map(|(page, _)| *page).collect();
        covered.extend(mem.dirty_pages());
        assert_eq!(covered, BTreeSet::from([3, 4]));
    }

    /// `pub` and `pub(crate)` method names of a source file's non-test part.
    fn declared_fns(source: &str) -> BTreeSet<&str> {
        let code = source.split("#[cfg(test)]\nmod tests").next().unwrap();
        code.lines()
            .filter_map(|line| {
                let line = line.trim_start();
                let rest = line
                    .strip_prefix("pub fn ")
                    .or_else(|| line.strip_prefix("pub(crate) fn "))?;
                rest.split(['<', '(']).next()
            })
            .collect()
    }

    /// A call that changes guest bytes through the method it is listed
    /// with; `None` for a method that cannot.
    type Mutation = Option<fn(&GuestMemory)>;

    /// Every `pub`/`pub(crate)` method of `MemoryRegion` and (below) of
    /// `GuestMemory` and its builder. A method added to either file fails
    /// `every_mutator_marks_the_checksum_plane` until it is listed here —
    /// and, if it is a mutator, until a checksum sees what it wrote.
    const REGION_FNS: &[(&str, Mutation)] = &[
        ("new", None),
        ("range", None),
        ("start", None),
        ("len", None),
        ("pages", None),
        ("dirty_bitmap", None),
        ("read", None),
        (
            "write",
            Some(|m| {
                m.regions()[0]
                    .write(GuestAddress(PAGE_SIZE - 2), &[1, 2, 3, 4])
                    .unwrap()
            }),
        ),
        (
            "fill",
            Some(|m| {
                m.regions()[0]
                    .fill(GuestAddress(100), 2 * PAGE_SIZE, 7)
                    .unwrap()
            }),
        ),
        ("with_page", None),
        ("with_page_or_zero", None),
        (
            "with_page_mut",
            Some(|m| m.regions()[1].with_page_mut(1, |b| b[9] = 9).unwrap()),
        ),
        ("page_fingerprint", None),
        ("with_slice", None),
        ("drain_dirty_pages_with", None),
        (
            "write_page",
            Some(|m| {
                m.regions()[0]
                    .write_page(3, &[8; PAGE_SIZE as usize])
                    .unwrap()
            }),
        ),
        (
            "discard_page",
            Some(|m| m.regions()[1].discard_page(2).unwrap()),
        ),
        ("checksum", None),
        ("with_bytes", None),
        // `HeldRegion`'s `read` and `write` are listed under those names
        // above; this drives its `write`.
        (
            "hold",
            Some(|m| {
                m.regions()[0]
                    .hold()
                    .write(GuestAddress(PAGE_SIZE - 2), &[1, 2, 3, 4])
                    .unwrap()
            }),
        ),
        ("word_offset", None),
        ("read_u64", None),
        // `HeldRegion`'s fixed-width store, over a page edge.
        (
            "write_u64",
            Some(|m| {
                let mut held = m.regions()[0].hold();
                let off = held.word_offset(GuestAddress(PAGE_SIZE - 4)).unwrap();
                held.write_u64(off, u64::MAX);
            }),
        ),
    ];
    const MEMORY_FNS: &[(&str, Mutation)] = &[
        // GuestMemoryBuilder.
        ("new", None),
        ("with_region", None),
        ("build", None),
        // GuestMemory.
        ("flat", None),
        ("regions", None),
        ("total_size", None),
        ("total_pages", None),
        ("read", None),
        (
            "write",
            Some(|m| {
                m.write(GuestAddress(4 * PAGE_SIZE - 2), &[1, 2, 3, 4])
                    .unwrap()
            }),
        ),
        (
            "fill",
            Some(|m| {
                m.fill(GuestAddress(3 * PAGE_SIZE + 5), 2 * PAGE_SIZE, 7)
                    .unwrap()
            }),
        ),
        ("read_u16", None),
        ("read_u32", None),
        ("read_u64", None),
        (
            "write_u8",
            Some(|m| m.write_u8(GuestAddress(7 * PAGE_SIZE), 1).unwrap()),
        ),
        (
            "write_u16",
            Some(|m| m.write_u16(GuestAddress(PAGE_SIZE - 1), 0x0102).unwrap()),
        ),
        (
            "write_u32",
            Some(|m| {
                m.write_u32(GuestAddress(4 * PAGE_SIZE - 2), 0x0102_0304)
                    .unwrap()
            }),
        ),
        (
            "write_u64",
            Some(|m| {
                m.write_u64(GuestAddress(4 * PAGE_SIZE - 4), u64::MAX)
                    .unwrap()
            }),
        ),
        ("read_vec", None),
        ("with_page", None),
        ("with_page_or_zero", None),
        (
            "with_page_mut",
            Some(|m| m.with_page_mut(6, |b| b[4095] = 1).unwrap()),
        ),
        ("page_fingerprint", None),
        ("with_slice", None),
        ("drain_dirty_pages_with", None),
        ("read_page", None),
        (
            "write_page",
            Some(|m| m.write_page(5, &[8; PAGE_SIZE as usize]).unwrap()),
        ),
        ("discard_page", Some(|m| m.discard_page(2).unwrap())),
        ("page_address", None),
        ("dirty_pages", None),
        ("dirty_page_count", None),
        ("drain_dirty_into", None),
        ("drain_dirty", None),
        ("clear_dirty", None),
        ("mark_dirty_page", None),
        ("checksum", None),
        ("checksum_counting_resums", None),
        // `GuestAccess`'s `read`, `write`, `read_u64` and `write_u64` are
        // listed under those names above; both its stores are driven here:
        // across the region edge (the span walk), and a `write_u64` over a
        // page edge inside one region (the fixed-width path).
        (
            "hold",
            Some(|m| {
                let mut view = m.hold();
                view.write(GuestAddress(4 * PAGE_SIZE - 1), &[1, 2, 3])
                    .unwrap();
                view.write_u64(GuestAddress(4 * PAGE_SIZE - 4), u64::MAX)
                    .unwrap();
                view.write_u64(GuestAddress(6 * PAGE_SIZE - 4), u64::MAX)
                    .unwrap();
            }),
        ),
    ];

    #[test]
    fn every_mutator_marks_the_checksum_plane() {
        let region_source = include_str!("region.rs");
        for (file, source, listed) in [
            ("region.rs", region_source, REGION_FNS),
            ("memory.rs", include_str!("memory.rs"), MEMORY_FNS),
        ] {
            let listed_names: BTreeSet<&str> = listed.iter().map(|(name, _)| *name).collect();
            assert_eq!(
                declared_fns(source),
                listed_names,
                "{file}: classify every method as a mutator or not in this test's tables"
            );
            for (name, mutation) in listed {
                let Some(mutate) = mutation else { continue };
                let mem = two_adjacent_regions();
                mem.fill(GuestAddress(0), 8 * PAGE_SIZE, 0x5a).unwrap();
                let before = mem.checksum();
                assert_eq!(before, checksum_bytewise(&mem));
                mem.clear_dirty();
                mutate(&mem);
                assert_ne!(
                    checksum_bytewise(&mem),
                    before,
                    "{file} {name} is listed as a mutator"
                );
                assert_eq!(
                    mem.checksum(),
                    checksum_bytewise(&mem),
                    "{file} {name} left a stale sum"
                );
                assert_ne!(
                    mem.dirty_page_count(),
                    0,
                    "{file} {name} left no dirty page"
                );
            }
        }
        // Guest bytes change only under the data write lock, and only four
        // functions may take it: `mutate`, which marks; the checksum
        // refresh, which changes no byte; `discard_page`, which zeroes a
        // page and stores what a refresh would; and `hold`, which hands it
        // to a `HeldRegion`, whose `write` marks through `mutate`'s helper
        // and whose `write_u64` through that helper's fixed-width twin.
        let code = region_source
            .split("#[cfg(test)]\nmod tests")
            .next()
            .unwrap();
        assert_eq!(code.matches("self.data.write()").count(), 4);
        assert_eq!(code.matches(".stale_span(").count(), 2);
        assert_eq!(code.matches(".stale_word(").count(), 1);
    }

    #[test]
    fn clone_shares_backing_store() {
        let mem = GuestMemory::flat(ByteSize::pages_of(1)).unwrap();
        let view = mem.clone();
        mem.write_u32(GuestAddress(16), 77).unwrap();
        assert_eq!(view.read_u32(GuestAddress(16)).unwrap(), 77);
    }

    proptest! {
        #[test]
        fn write_then_read_roundtrips(
            offset in 0u64..(16 * PAGE_SIZE - 64),
            data in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let mem = GuestMemory::flat(ByteSize::pages_of(16)).unwrap();
            mem.write(GuestAddress(offset), &data).unwrap();
            let back = mem.read_vec(GuestAddress(offset), data.len() as u64).unwrap();
            prop_assert_eq!(back, data);
        }

        /// Model-based: any sequence of every mutator (spans straddling
        /// page and region edges included, through `GuestMemory` and through
        /// a held view), dirty-plane harvests and `checksum()` calls over a
        /// two-region guest keeps `checksum()` equal to the byte-wise fold
        /// of a shadow copy of the guest, and every harvest equal to the
        /// shadow's set of pages written since the last one. After every
        /// operation, every page the known-zero plane calls zero is zero in
        /// the shadow and in the guest, and `with_page_or_zero` hands out
        /// each page's shadow contents.
        #[test]
        fn cached_checksum_follows_a_shadow_model(
            ops in proptest::collection::vec(
                (0u8..16, any::<u64>(), any::<u64>(), any::<u8>()),
                1..40,
            ),
        ) {
            // Regions of 4 and 3 pages that touch at page 4.
            const PAGES: [u64; 2] = [4, 3];
            const TOTAL: u64 = 7 * PAGE_SIZE;
            let region_start = |r: usize| if r == 0 { 0 } else { PAGES[0] * PAGE_SIZE };
            let mem = GuestMemoryBuilder::new()
                .with_region(GuestAddress(0), ByteSize::pages_of(PAGES[0]))
                .unwrap()
                .with_region(GuestAddress(region_start(1)), ByteSize::pages_of(PAGES[1]))
                .unwrap()
                .build();
            let mut shadow = vec![0u8; TOTAL as usize];
            let mut shadow_dirty = BTreeSet::new();
            let touch = |dirty: &mut BTreeSet<u64>, at: u64, len: u64| {
                if len > 0 {
                    dirty.extend(at / PAGE_SIZE..=(at + len - 1) / PAGE_SIZE);
                }
            };
            let model_checksum = |shadow: &[u8]| {
                let (low, high) = shadow.split_at(region_start(1) as usize);
                weighted_sum_bytewise(low, 0).wrapping_add(weighted_sum_bytewise(high, 0))
            };
            let pattern = |len: u64, v: u8| -> Vec<u8> {
                (0..len).map(|i| v.wrapping_add(i as u8).wrapping_mul(31) | 1).collect()
            };

            for &(kind, x, y, v) in &ops {
                let page = x % 7;
                match kind {
                    // A write of up to 300 bytes anywhere.
                    0 => {
                        let at = x % TOTAL;
                        let bytes = pattern((1 + y % 300).min(TOTAL - at), v);
                        mem.write(GuestAddress(at), &bytes).unwrap();
                        shadow[at as usize..][..bytes.len()].copy_from_slice(&bytes);
                        touch(&mut shadow_dirty, at, bytes.len() as u64);
                    }
                    // A u64 ending 0..=8 bytes past a page (or the region) edge.
                    1 => {
                        let at = (1 + x % 6) * PAGE_SIZE - 8 + y % 9;
                        let word = y | u64::from(v) << 56 | 1;
                        mem.write_u64(GuestAddress(at), word).unwrap();
                        shadow[at as usize..][..8].copy_from_slice(&word.to_le_bytes());
                        touch(&mut shadow_dirty, at, 8);
                    }
                    // A fill of up to 2.5 pages.
                    2 => {
                        let at = x % TOTAL;
                        let len = (y % (5 * PAGE_SIZE / 2)).min(TOTAL - at);
                        mem.fill(GuestAddress(at), len, v).unwrap();
                        shadow[at as usize..][..len as usize].fill(v);
                        touch(&mut shadow_dirty, at, len);
                    }
                    3 => {
                        let bytes = pattern(PAGE_SIZE, v);
                        mem.write_page(page, &bytes).unwrap();
                        shadow[(page * PAGE_SIZE) as usize..][..bytes.len()].copy_from_slice(&bytes);
                        touch(&mut shadow_dirty, page * PAGE_SIZE, PAGE_SIZE);
                    }
                    4 => {
                        let at = (y % PAGE_SIZE) as usize;
                        mem.with_page_mut(page, |b| b[at] = v).unwrap();
                        shadow[(page * PAGE_SIZE) as usize + at] = v;
                        touch(&mut shadow_dirty, page * PAGE_SIZE, PAGE_SIZE);
                    }
                    // A span inside one region, possibly over several pages.
                    5 => {
                        let r = (x % 2) as usize;
                        let room = PAGES[r] * PAGE_SIZE;
                        let off = y % room;
                        let len = (x >> 8) % (2 * PAGE_SIZE).min(room - off + 1);
                        let at = region_start(r) + off;
                        mem.with_slice_mut(GuestAddress(at), len, |b| b.fill(v)).unwrap();
                        shadow[at as usize..][..len as usize].fill(v);
                        touch(&mut shadow_dirty, at, len);
                    }
                    6 => {
                        mem.discard_page(page).unwrap();
                        shadow[(page * PAGE_SIZE) as usize..][..PAGE_SIZE as usize].fill(0);
                        touch(&mut shadow_dirty, page * PAGE_SIZE, PAGE_SIZE);
                    }
                    // The dirty plane's readers must leave the checksum
                    // plane alone, and harvest exactly what was written.
                    7 => {
                        mem.clear_dirty();
                        shadow_dirty.clear();
                    }
                    8 => {
                        let drained: BTreeSet<u64> = mem.drain_dirty().into_iter().collect();
                        prop_assert_eq!(drained, std::mem::take(&mut shadow_dirty));
                    }
                    9 => {
                        let mut drained = BTreeSet::new();
                        mem.drain_dirty_pages_with(|page, _| {
                            drained.insert(page);
                            Ok::<(), std::convert::Infallible>(())
                        })
                        .unwrap();
                        prop_assert_eq!(drained, std::mem::take(&mut shadow_dirty));
                    }
                    // One held view: stores of 1, 2, 4, 8 and an odd number
                    // of bytes, each ending 0..=len bytes past a page (or
                    // the region) edge, read back through the view; then
                    // the drop, which the next op's harvest or checksum
                    // follows. The 8-byte store is the fixed-width path
                    // inside a region and the span walk over its edge.
                    10 | 11 => {
                        let mut view = mem.hold();
                        for (i, len) in [1u64, 2, 4, 8, 3 + 2 * (x % 6)].into_iter().enumerate() {
                            let edge = (1 + (x >> (8 * i)) % 6) * PAGE_SIZE;
                            let at = edge - len + (y >> (8 * i)) % (len + 1);
                            let bytes = pattern(len, v.wrapping_add(i as u8));
                            if len == 8 {
                                let word = u64::from_le_bytes(bytes[..].try_into().unwrap());
                                view.write_u64(GuestAddress(at), word).unwrap();
                                prop_assert_eq!(view.read_u64(GuestAddress(at)).unwrap(), word);
                            } else {
                                view.write(GuestAddress(at), &bytes).unwrap();
                            }
                            shadow[at as usize..][..bytes.len()].copy_from_slice(&bytes);
                            touch(&mut shadow_dirty, at, len);
                            let mut back = vec![0u8; 16];
                            view.read(GuestAddress(edge - 8), &mut back).unwrap();
                            prop_assert_eq!(&back[..], &shadow[edge as usize - 8..][..16]);
                        }
                    }
                    // A held fixed-width store anywhere, read back.
                    12 => {
                        let at = x % (TOTAL - 7);
                        let mut view = mem.hold();
                        view.write_u64(GuestAddress(at), y).unwrap();
                        prop_assert_eq!(view.read_u64(GuestAddress(at)).unwrap(), y);
                        shadow[at as usize..][..8].copy_from_slice(&y.to_le_bytes());
                        touch(&mut shadow_dirty, at, 8);
                    }
                    // An all-zero page written over a page that may be
                    // known zero: stale, so read again until the next
                    // checksum settles it.
                    13 => {
                        mem.write_page(page, &[0; PAGE_SIZE as usize]).unwrap();
                        shadow[(page * PAGE_SIZE) as usize..][..PAGE_SIZE as usize].fill(0);
                        touch(&mut shadow_dirty, page * PAGE_SIZE, PAGE_SIZE);
                    }
                    _ => prop_assert_eq!(mem.checksum(), model_checksum(&shadow)),
                }
                for p in 0..7 {
                    let at = (p * PAGE_SIZE) as usize;
                    let want = &shadow[at..at + PAGE_SIZE as usize];
                    let (known_zero, same) =
                        mem.with_page_or_zero(p, |b, zero| (zero, b == want)).unwrap();
                    prop_assert!(same, "page {} handed out other bytes than the shadow's", p);
                    if known_zero {
                        prop_assert!(want.iter().all(|&b| b == 0), "page {} known zero", p);
                        prop_assert!(mem.with_page(p, crate::scan::is_zero).unwrap());
                    }
                }
            }
            prop_assert_eq!(mem.read_vec(GuestAddress(0), TOTAL).unwrap(), shadow.clone());
            let dirty: BTreeSet<u64> = mem.dirty_pages().into_iter().collect();
            prop_assert_eq!(dirty, shadow_dirty);
            prop_assert_eq!(mem.checksum(), model_checksum(&shadow));
            prop_assert_eq!(mem.checksum_counting_resums(), (model_checksum(&shadow), 0));
        }

        /// A held view fails where `GuestMemory` fails, with the same error,
        /// having read or written and marked the same bytes before the gap.
        /// Its `u64` accesses take the fixed-width path inside a region and
        /// the span walk across an edge or a hole.
        #[test]
        fn held_view_accesses_match_guest_memory_errors_and_all(
            accesses in proptest::collection::vec(
                (0usize..7, 0u64..48, 0usize..40, any::<bool>(), any::<u8>(), any::<bool>()),
                1..24,
            ),
        ) {
            // [0, 2 pages) and [2, 4 pages) touch; a hole; 2 pages at 1 MiB.
            const HIGH: u64 = 0x10_0000;
            let build = || {
                GuestMemoryBuilder::new()
                    .with_region(GuestAddress(0), ByteSize::pages_of(2))
                    .unwrap()
                    .with_region(GuestAddress(2 * PAGE_SIZE), ByteSize::pages_of(2))
                    .unwrap()
                    .with_region(GuestAddress(HIGH), ByteSize::pages_of(2))
                    .unwrap()
                    .build()
            };
            let (plain, held) = (build(), build());
            let contents = |m: &GuestMemory| -> Vec<u8> {
                let mut out = Vec::new();
                for r in m.regions() {
                    r.with_bytes(|b| out.extend_from_slice(b));
                }
                out
            };
            // A page edge inside a region, every edge of backed memory and
            // the middle of the hole, each approached from 24 bytes below.
            let edges = [
                24,
                PAGE_SIZE,
                2 * PAGE_SIZE,
                4 * PAGE_SIZE,
                HIGH,
                HIGH + 2 * PAGE_SIZE,
                HIGH / 2,
            ];
            let mut view = held.hold();
            for &(edge, skew, len, write, v, word) in &accesses {
                let at = GuestAddress(edges[edge] - 24 + skew);
                let value = u64::from_le_bytes([v | 1; 8]).rotate_left(skew as u32);
                if word && write {
                    prop_assert_eq!(view.write_u64(at, value), plain.write_u64(at, value));
                } else if word {
                    prop_assert_eq!(view.read_u64(at), plain.read_u64(at));
                } else if write {
                    let bytes: Vec<u8> = (0..len).map(|i| v.wrapping_add(i as u8) | 1).collect();
                    prop_assert_eq!(view.write(at, &bytes), plain.write(at, &bytes));
                } else {
                    let (mut a, mut b) = (vec![0xee; len], vec![0xee; len]);
                    prop_assert_eq!(view.read(at, &mut a), plain.read(at, &mut b));
                    prop_assert_eq!(a, b);
                }
            }
            drop(view);
            prop_assert_eq!(contents(&held), contents(&plain));
            prop_assert_eq!(held.dirty_pages(), plain.dirty_pages());
            prop_assert_eq!(held.checksum(), checksum_bytewise(&held));
            prop_assert_eq!(held.checksum(), plain.checksum());
        }

        #[test]
        fn page_address_and_address_page_are_inverse(page in 0u64..8) {
            let mem = two_region_memory();
            let addr = mem.page_address(page).unwrap();
            prop_assert_eq!(mem.address_page(addr).unwrap(), page);
        }

        #[test]
        fn dirty_pages_cover_all_writes(
            writes in proptest::collection::vec((0u64..(8 * PAGE_SIZE - 8), 1usize..8), 0..32)
        ) {
            let mem = GuestMemory::flat(ByteSize::pages_of(8)).unwrap();
            let mut expected = std::collections::BTreeSet::new();
            for (off, len) in &writes {
                mem.write(GuestAddress(*off), &vec![1u8; *len]).unwrap();
                let first = off / PAGE_SIZE;
                let last = (off + *len as u64 - 1) / PAGE_SIZE;
                for p in first..=last {
                    expected.insert(p);
                }
            }
            let dirty: std::collections::BTreeSet<u64> = mem.dirty_pages().into_iter().collect();
            prop_assert_eq!(dirty, expected);
        }
    }
}
