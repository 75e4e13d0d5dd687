//! Guest virtual memory: two-level page tables and a software TLB.
//!
//! GISA uses a 30-bit virtual address space (1 GiB) translated by a
//! two-level page table rooted at the PTBR register:
//!
//! ```text
//! vaddr[29:21]  index into the level-1 table (512 entries)
//! vaddr[20:12]  index into the level-2 table (512 entries)
//! vaddr[11:0]   byte offset inside the 4 KiB page
//! ```
//!
//! Each page-table entry is 8 bytes:
//!
//! ```text
//! bit 0   valid
//! bit 1   writable
//! bit 2   user accessible
//! bits 12..  physical frame base (page aligned guest physical address)
//! ```
//!
//! Translations are cached in a direct-mapped software TLB; the TLB hit
//! rate is one of the quantities the virtualization-overhead experiment (E1)
//! reports, because the cost of a miss differs sharply between shadow paging
//! (trap-and-emulate) and nested paging (hardware-assist).

use serde::{Deserialize, Serialize};

use rvisor_memory::GuestAccess;
use rvisor_types::{GuestAddress, PAGE_SIZE};

/// Size of a page-table entry in bytes.
pub(crate) const PTE_SIZE: u64 = 8;

/// Number of entries per page-table level.
const ENTRIES_PER_TABLE: u64 = 512;

/// Width of the virtual address space in bits.
const VADDR_BITS: u32 = 30;

const VALID: u64 = 1 << 0;
const WRITABLE: u64 = 1 << 1;
const USER: u64 = 1 << 2;
const PFN_MASK: u64 = !0xfff;

/// A decoded page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Pte(pub u64);

impl Pte {
    /// Whether the entry is valid.
    pub(crate) fn valid(self) -> bool {
        self.0 & VALID != 0
    }

    /// Whether the mapped page may be written.
    pub(crate) fn writable(self) -> bool {
        self.0 & WRITABLE != 0
    }

    /// Whether user mode may access the mapped page.
    pub(crate) fn user(self) -> bool {
        self.0 & USER != 0
    }

    /// The physical frame / next-level table address.
    pub(crate) fn frame(self) -> GuestAddress {
        GuestAddress(self.0 & PFN_MASK)
    }
}

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TranslateFault {
    /// No valid mapping for the address.
    NotMapped,
    /// The mapping exists but is not writable and a write was attempted.
    NotWritable,
    /// The mapping exists but is supervisor-only and the access was from user mode.
    NotUser,
    /// The virtual address is outside the 30-bit address space.
    OutOfRange,
}

/// Result of a successful translation, including how it was obtained.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Translation {
    /// The resulting guest physical address.
    pub(crate) paddr: GuestAddress,
    /// Whether the translation was served from the TLB.
    pub(crate) tlb_hit: bool,
}

/// TLB behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TlbStats {
    /// Lookups that hit.
    pub(crate) hits: u64,
    /// Lookups that missed and required a page-table walk.
    pub(crate) misses: u64,
    /// Explicit flushes.
    pub(crate) flushes: u64,
}

impl TlbStats {}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    frame: GuestAddress,
    writable: bool,
    user: bool,
    valid: bool,
}

/// A direct-mapped software TLB.
#[derive(Debug)]
struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    stats: TlbStats,
}

impl Tlb {
    fn new(size: usize) -> Self {
        Tlb {
            entries: vec![None; size.max(1)],
            stats: TlbStats::default(),
        }
    }

    fn slot(&self, vpn: u64) -> usize {
        (vpn as usize) % self.entries.len()
    }

    fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        let slot = self.slot(vpn);
        match self.entries[slot] {
            Some(e) if e.valid && e.vpn == vpn => {
                self.stats.hits += 1;
                Some(e)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, e: TlbEntry) {
        let slot = self.slot(e.vpn);
        self.entries[slot] = Some(e);
    }

    fn flush(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
        self.stats.flushes += 1;
    }
}

/// The per-vCPU memory-management unit.
#[derive(Debug)]
pub(crate) struct Mmu {
    ptbr: GuestAddress,
    paging_enabled: bool,
    tlb: Tlb,
    /// Page-table walks performed (each is two guest memory reads).
    walks: u64,
}

impl Mmu {
    /// Create an MMU with a TLB of `tlb_entries` slots. Paging starts disabled
    /// (identity mapping), as on real hardware before the OS sets a page table.
    pub(crate) fn new(tlb_entries: usize) -> Self {
        Mmu {
            ptbr: GuestAddress::ZERO,
            paging_enabled: false,
            tlb: Tlb::new(tlb_entries),
            walks: 0,
        }
    }

    /// Set the page-table base register and enable paging. Flushes the TLB.
    pub(crate) fn set_ptbr(&mut self, ptbr: GuestAddress) {
        self.ptbr = ptbr;
        self.paging_enabled = ptbr != GuestAddress::ZERO;
        self.tlb.flush();
    }

    /// The current page-table base.
    pub(crate) fn ptbr(&self) -> GuestAddress {
        self.ptbr
    }

    /// Whether paging is enabled.
    pub(crate) fn paging_enabled(&self) -> bool {
        self.paging_enabled
    }

    /// Flush the TLB.
    pub(crate) fn flush_tlb(&mut self) {
        self.tlb.flush();
    }

    /// Translate a guest virtual address.
    ///
    /// `write` and `user` describe the access being performed; a violation
    /// returns the corresponding [`TranslateFault`] wrapped in
    /// [`Error::PageFault`] by the caller (the vCPU), which also knows the
    /// faulting PC. The page-table walk reads `memory`, the running guest's
    /// held view ([`GuestMemory::hold`]).
    pub(crate) fn translate(
        &mut self,
        memory: &GuestAccess<'_>,
        vaddr: u64,
        write: bool,
        user: bool,
    ) -> std::result::Result<Translation, TranslateFault> {
        if !self.paging_enabled {
            // Identity map while paging is off (boot-time accesses).
            return Ok(Translation {
                paddr: GuestAddress(vaddr),
                tlb_hit: true,
            });
        }
        if vaddr >> VADDR_BITS != 0 {
            return Err(TranslateFault::OutOfRange);
        }
        let vpn = vaddr / PAGE_SIZE;
        let offset = vaddr % PAGE_SIZE;

        if let Some(e) = self.tlb.lookup(vpn) {
            if write && !e.writable {
                return Err(TranslateFault::NotWritable);
            }
            if user && !e.user {
                return Err(TranslateFault::NotUser);
            }
            return Ok(Translation {
                paddr: e.frame.unchecked_add(offset),
                tlb_hit: true,
            });
        }

        let pte = self.walk(memory, vaddr)?;
        let entry = TlbEntry {
            vpn,
            frame: pte.frame(),
            writable: pte.writable(),
            user: pte.user(),
            valid: true,
        };
        self.tlb.insert(entry);

        if write && !pte.writable() {
            return Err(TranslateFault::NotWritable);
        }
        if user && !pte.user() {
            return Err(TranslateFault::NotUser);
        }
        Ok(Translation {
            paddr: pte.frame().unchecked_add(offset),
            tlb_hit: false,
        })
    }

    /// Perform the two-level walk, returning the leaf PTE.
    fn walk(
        &mut self,
        memory: &GuestAccess<'_>,
        vaddr: u64,
    ) -> std::result::Result<Pte, TranslateFault> {
        self.walks += 1;
        let l1_index = (vaddr >> 21) & (ENTRIES_PER_TABLE - 1);
        let l2_index = (vaddr >> 12) & (ENTRIES_PER_TABLE - 1);

        let l1_addr = self.ptbr.unchecked_add(l1_index * PTE_SIZE);
        let l1 = Pte(memory
            .read_u64(l1_addr)
            .map_err(|_| TranslateFault::NotMapped)?);
        if !l1.valid() {
            return Err(TranslateFault::NotMapped);
        }
        let l2_addr = l1.frame().unchecked_add(l2_index * PTE_SIZE);
        let l2 = Pte(memory
            .read_u64(l2_addr)
            .map_err(|_| TranslateFault::NotMapped)?);
        if !l2.valid() {
            return Err(TranslateFault::NotMapped);
        }
        Ok(l2)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvisor_types::ByteSize;

    use rvisor_memory::GuestMemory;

    use rvisor_types::{Error, Result};

    /// Helper for building guest page tables inside guest memory.
    ///
    /// The paging tests use this to set up a mapping before starting the guest,
    /// playing the role a guest OS kernel would play on real hardware.
    #[derive(Debug)]
    pub(crate) struct PageTableEditor {
        memory: GuestMemory,
        root: GuestAddress,
        /// Next free physical page used when a new L2 table must be allocated.
        next_table: GuestAddress,
        table_region_end: GuestAddress,
    }

    impl PageTableEditor {
        /// Create an editor whose tables live in
        /// `[table_area, table_area + table_area_size)` of guest physical memory.
        /// The root (L1) table occupies the first page of that area.
        pub(crate) fn new(
            memory: GuestMemory,
            table_area: GuestAddress,
            table_area_size: u64,
        ) -> Result<Self> {
            if !table_area.is_page_aligned() || table_area_size < PAGE_SIZE {
                return Err(Error::Config(
                    "page-table area must be page aligned and at least one page".into(),
                ));
            }
            memory.fill(table_area, PAGE_SIZE, 0)?;
            Ok(PageTableEditor {
                memory,
                root: table_area,
                next_table: table_area.unchecked_add(PAGE_SIZE),
                table_region_end: table_area.unchecked_add(table_area_size),
            })
        }

        /// The guest physical address of the root table (value for the PTBR).
        pub(crate) fn root(&self) -> GuestAddress {
            self.root
        }

        /// Map the virtual page containing `vaddr` to the physical frame
        /// containing `paddr`.
        pub(crate) fn map(
            &mut self,
            vaddr: u64,
            paddr: GuestAddress,
            writable: bool,
            user: bool,
        ) -> Result<()> {
            if vaddr >> VADDR_BITS != 0 {
                return Err(Error::Config(format!(
                    "virtual address 0x{vaddr:x} outside the 30-bit space"
                )));
            }
            let l1_index = (vaddr >> 21) & (ENTRIES_PER_TABLE - 1);
            let l2_index = (vaddr >> 12) & (ENTRIES_PER_TABLE - 1);
            let l1_addr = self.root.unchecked_add(l1_index * PTE_SIZE);
            let mut l1 = Pte(self.memory.read_u64(l1_addr)?);
            if !l1.valid() {
                let table = self.alloc_table()?;
                l1 = Pte::table(table);
                self.memory.write_u64(l1_addr, l1.0)?;
            }
            let l2_addr = l1.frame().unchecked_add(l2_index * PTE_SIZE);
            let leaf = Pte::leaf(paddr.page_base(), writable, user);
            self.memory.write_u64(l2_addr, leaf.0)?;
            Ok(())
        }

        /// Identity-map `[start, start + len)` so virtual address == physical address.
        pub(crate) fn identity_map(
            &mut self,
            start: GuestAddress,
            len: u64,
            writable: bool,
            user: bool,
        ) -> Result<()> {
            let mut addr = start.page_base();
            let end = start.unchecked_add(len);
            while addr.0 < end.0 {
                self.map(addr.0, addr, writable, user)?;
                addr = addr.unchecked_add(PAGE_SIZE);
            }
            Ok(())
        }

        /// Remove the mapping for the virtual page containing `vaddr`.
        fn unmap(&mut self, vaddr: u64) -> Result<()> {
            let l1_index = (vaddr >> 21) & (ENTRIES_PER_TABLE - 1);
            let l2_index = (vaddr >> 12) & (ENTRIES_PER_TABLE - 1);
            let l1_addr = self.root.unchecked_add(l1_index * PTE_SIZE);
            let l1 = Pte(self.memory.read_u64(l1_addr)?);
            if !l1.valid() {
                return Ok(());
            }
            let l2_addr = l1.frame().unchecked_add(l2_index * PTE_SIZE);
            self.memory.write_u64(l2_addr, Pte::INVALID.0)?;
            Ok(())
        }

        fn alloc_table(&mut self) -> Result<GuestAddress> {
            if self.next_table.0 + PAGE_SIZE > self.table_region_end.0 {
                return Err(Error::Config("page-table area exhausted".into()));
            }
            let table = self.next_table;
            self.memory.fill(table, PAGE_SIZE, 0)?;
            self.next_table = self.next_table.unchecked_add(PAGE_SIZE);
            Ok(table)
        }
    }

    impl Pte {
        /// An all-zero (invalid) entry.
        const INVALID: Pte = Pte(0);

        /// Build a valid leaf entry pointing at `frame`.
        pub(crate) fn leaf(frame: GuestAddress, writable: bool, user: bool) -> Pte {
            let mut v = (frame.0 & PFN_MASK) | VALID;
            if writable {
                v |= WRITABLE;
            }
            if user {
                v |= USER;
            }
            Pte(v)
        }

        /// Build a valid non-leaf entry pointing at the next-level table.
        pub(crate) fn table(next: GuestAddress) -> Pte {
            Pte((next.0 & PFN_MASK) | VALID | WRITABLE | USER)
        }
    }

    impl TlbStats {
        /// Hit rate in `[0, 1]`; zero when there were no lookups.
        fn hit_rate(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.hits as f64 / total as f64
            }
        }
    }

    impl Mmu {
        /// TLB statistics so far.
        pub(crate) fn tlb_stats(&self) -> TlbStats {
            self.tlb.stats
        }

        /// Number of page-table walks performed.
        pub(crate) fn walk_count(&self) -> u64 {
            self.walks
        }
    }

    fn memory() -> GuestMemory {
        GuestMemory::flat(ByteSize::mib(4)).unwrap()
    }

    fn editor(mem: &GuestMemory) -> PageTableEditor {
        PageTableEditor::new(mem.clone(), GuestAddress(0x100000), 64 * PAGE_SIZE).unwrap()
    }

    #[test]
    fn pte_encoding() {
        let p = Pte::leaf(GuestAddress(0x5000), true, false);
        assert!(p.valid());
        assert!(p.writable());
        assert!(!p.user());
        assert_eq!(p.frame(), GuestAddress(0x5000));
        assert!(!Pte::INVALID.valid());
        let t = Pte::table(GuestAddress(0x7123));
        assert_eq!(t.frame(), GuestAddress(0x7000));
        assert!(t.user() && t.writable() && t.valid());
    }

    #[test]
    fn identity_translation_with_paging_disabled() {
        let mem = memory();
        let mut mmu = Mmu::new(16);
        assert!(!mmu.paging_enabled());
        let t = mmu.translate(&mem.hold(), 0x1234, true, true).unwrap();
        assert_eq!(t.paddr, GuestAddress(0x1234));
    }

    #[test]
    fn mapped_translation_and_tlb() {
        let mem = memory();
        let mut ed = editor(&mem);
        ed.map(0x4000, GuestAddress(0x9000), true, true).unwrap();
        let mut mmu = Mmu::new(16);
        mmu.set_ptbr(ed.root());
        assert!(mmu.paging_enabled());

        let t1 = mmu.translate(&mem.hold(), 0x4010, false, true).unwrap();
        assert_eq!(t1.paddr, GuestAddress(0x9010));
        assert!(!t1.tlb_hit);
        let t2 = mmu.translate(&mem.hold(), 0x4020, false, true).unwrap();
        assert_eq!(t2.paddr, GuestAddress(0x9020));
        assert!(t2.tlb_hit);

        let stats = mmu.tlb_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(mmu.walk_count(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tlb_flush_forces_rewalk() {
        let mem = memory();
        let mut ed = editor(&mem);
        ed.map(0x4000, GuestAddress(0x9000), true, true).unwrap();
        let mut mmu = Mmu::new(16);
        mmu.set_ptbr(ed.root());
        mmu.translate(&mem.hold(), 0x4000, false, false).unwrap();
        mmu.flush_tlb();
        mmu.translate(&mem.hold(), 0x4000, false, false).unwrap();
        assert_eq!(mmu.walk_count(), 2);
        assert_eq!(mmu.tlb_stats().flushes, 2); // set_ptbr also flushes
    }

    #[test]
    fn permission_faults() {
        let mem = memory();
        let mut ed = editor(&mem);
        ed.map(0x4000, GuestAddress(0x9000), false, false).unwrap();
        let mut mmu = Mmu::new(16);
        mmu.set_ptbr(ed.root());
        assert_eq!(
            mmu.translate(&mem.hold(), 0x4000, true, false).unwrap_err(),
            TranslateFault::NotWritable
        );
        assert_eq!(
            mmu.translate(&mem.hold(), 0x4000, false, true).unwrap_err(),
            TranslateFault::NotUser
        );
        assert!(mmu.translate(&mem.hold(), 0x4000, false, false).is_ok());
    }

    #[test]
    fn unmapped_and_out_of_range_fault() {
        let mem = memory();
        let ed = editor(&mem);
        let mut mmu = Mmu::new(16);
        mmu.set_ptbr(ed.root());
        assert_eq!(
            mmu.translate(&mem.hold(), 0x4000, false, false)
                .unwrap_err(),
            TranslateFault::NotMapped
        );
        assert_eq!(
            mmu.translate(&mem.hold(), 1 << VADDR_BITS, false, false)
                .unwrap_err(),
            TranslateFault::OutOfRange
        );
    }

    #[test]
    fn unmap_removes_mapping() {
        let mem = memory();
        let mut ed = editor(&mem);
        ed.map(0x4000, GuestAddress(0x9000), true, true).unwrap();
        let mut mmu = Mmu::new(16);
        mmu.set_ptbr(ed.root());
        assert!(mmu.translate(&mem.hold(), 0x4000, false, false).is_ok());
        ed.unmap(0x4000).unwrap();
        mmu.flush_tlb();
        assert_eq!(
            mmu.translate(&mem.hold(), 0x4000, false, false)
                .unwrap_err(),
            TranslateFault::NotMapped
        );
        // Unmapping a never-mapped address is a no-op.
        ed.unmap(0x2000_0000 - PAGE_SIZE).unwrap();
    }

    #[test]
    fn identity_map_covers_range() {
        let mem = memory();
        let mut ed = editor(&mem);
        ed.identity_map(GuestAddress(0), 16 * PAGE_SIZE, true, true)
            .unwrap();
        let mut mmu = Mmu::new(64);
        mmu.set_ptbr(ed.root());
        for page in 0..16u64 {
            let vaddr = page * PAGE_SIZE + 8;
            let t = mmu.translate(&mem.hold(), vaddr, true, true).unwrap();
            assert_eq!(t.paddr, GuestAddress(vaddr));
        }
    }

    #[test]
    fn editor_validation() {
        let mem = memory();
        assert!(PageTableEditor::new(mem.clone(), GuestAddress(0x123), PAGE_SIZE).is_err());
        assert!(PageTableEditor::new(mem.clone(), GuestAddress(0x1000), 10).is_err());
        // Exhausting the table area: area of 1 page leaves no room for L2 tables.
        let mut ed = PageTableEditor::new(mem, GuestAddress(0x100000), PAGE_SIZE).unwrap();
        assert!(ed.map(0x4000, GuestAddress(0x9000), true, true).is_err());
    }

    proptest! {
        #[test]
        fn mapped_addresses_translate_correctly(
            pages in proptest::collection::btree_map(0u64..256, 300u64..700, 1..20),
        ) {
            let mem = GuestMemory::flat(ByteSize::mib(8)).unwrap();
            let mut ed = PageTableEditor::new(mem.clone(), GuestAddress(0x400000), 256 * PAGE_SIZE).unwrap();
            for (&vpage, &ppage) in &pages {
                ed.map(vpage * PAGE_SIZE, GuestAddress(ppage * PAGE_SIZE), true, true).unwrap();
            }
            let mut mmu = Mmu::new(8);
            mmu.set_ptbr(ed.root());
            for (&vpage, &ppage) in &pages {
                let vaddr = vpage * PAGE_SIZE + 0x123;
                let t = mmu.translate(&mem.hold(), vaddr, true, true).unwrap();
                prop_assert_eq!(t.paddr, GuestAddress(ppage * PAGE_SIZE + 0x123));
            }
        }

        #[test]
        fn tlb_hit_plus_miss_equals_lookups(n in 1usize..200) {
            let mem = GuestMemory::flat(ByteSize::mib(8)).unwrap();
            let mut ed = PageTableEditor::new(mem.clone(), GuestAddress(0x400000), 256 * PAGE_SIZE).unwrap();
            ed.identity_map(GuestAddress(0), 64 * PAGE_SIZE, true, true).unwrap();
            let mut mmu = Mmu::new(4);
            mmu.set_ptbr(ed.root());
            for i in 0..n {
                let _ = mmu.translate(&mem.hold(), ((i % 64) as u64) * PAGE_SIZE, false, false);
            }
            let s = mmu.tlb_stats();
            prop_assert_eq!(s.hits + s.misses, n as u64);
        }
    }
}
