//! Content-based page sharing (KSM-style deduplication).
//!
//! Kernel Samepage Merging is the second classic memory-overcommit mechanism
//! next to ballooning: the hypervisor periodically scans guest pages, finds
//! pages with identical contents across (or within) VMs and maps them all to
//! a single read-only copy, breaking the sharing with a copy-on-write fault
//! when any guest writes. Consolidated estates of near-identical guests —
//! exactly the fleet the source document describes (many Windows 2003 /
//! Windows XP servers cloned from two templates) — are where the technique
//! shines, because most of the guests' text and zero pages are bitwise
//! identical.
//!
//! The model here reproduces the *policy* of Linux KSM faithfully enough for
//! the density experiments (E11/E12) without the kernel's red-black trees:
//!
//! * Pages are identified by a 64-bit FNV-1a fingerprint of their contents.
//! * A page is only merged after it has been observed with the **same
//!   fingerprint in two consecutive scan rounds** (KSM's "unstable tree"
//!   stability check), so rapidly changing pages are never merged.
//! * A write to a merged page (reported via [`KsmManager::notify_write`], or
//!   detected by a fingerprint change at the next scan) breaks the sharing —
//!   the copy-on-write fault of the real mechanism.
//! * Savings are counted as in `/sys/kernel/mm/ksm`: a group of `n` identical
//!   pages keeps one physical copy and saves `n - 1` pages.
//!
//! [`DedupAnalysis`] additionally provides a one-shot "how much *could* be
//! shared" measurement used by the VDI density estimator.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use rvisor_types::{Result, VmId, PAGE_SIZE};

use crate::memory::GuestMemory;

/// A page location: which registered VM and which global page index.
type PageKey = (VmId, u64);

/// FNV-1a over a page's contents.
///
/// Not cryptographic — collisions would merge unrelated pages — but the
/// simulation double-checks nothing (just like real KSM relies on a byte
/// compare after the hash match; modelling the compare cost is not needed
/// for the experiments, and the 64-bit space makes collisions irrelevant at
/// the scales simulated here). Computed by the word-wise
/// [`scan::fingerprint`](crate::scan::fingerprint) kernel, which is
/// bit-identical to the byte-wise recurrence.
pub fn fingerprint(contents: &[u8]) -> u64 {
    crate::scan::fingerprint(contents)
}

/// Tuning knobs of the scanner.
#[derive(Debug, Clone, Copy)]
pub struct KsmConfig {
    /// Maximum pages examined per call to `KsmManager::scan_round`
    /// (`pages_to_scan` in the Linux sysfs interface). `u64::MAX` scans
    /// everything each round.
    pub(crate) pages_per_round: u64,
    /// Whether all-zero pages are eligible for merging (`use_zero_pages`).
    pub(crate) merge_zero_pages: bool,
}

impl Default for KsmConfig {
    fn default() -> Self {
        KsmConfig {
            pages_per_round: u64::MAX,
            merge_zero_pages: true,
        }
    }
}

/// Counters mirroring the `/sys/kernel/mm/ksm` statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct KsmStats {
    /// Distinct shared (canonical) pages currently backing merged groups.
    pub pages_shared: u64,
    /// Pages currently deduplicated into a canonical copy (group members).
    pub pages_sharing: u64,
    /// Copy-on-write breaks (writes to merged pages) observed so far.
    pub cow_breaks: u64,
}

impl KsmStats {
    /// Physical pages saved: every group member beyond the canonical copy.
    pub fn pages_saved(&self) -> u64 {
        self.pages_sharing.saturating_sub(self.pages_shared)
    }

    /// Bytes of host memory saved by sharing.
    pub fn bytes_saved(&self) -> u64 {
        self.pages_saved() * PAGE_SIZE
    }

    /// The sharing ratio `pages_sharing / pages_shared` (0 when nothing is shared).
    pub fn sharing_ratio(&self) -> f64 {
        if self.pages_shared == 0 {
            0.0
        } else {
            self.pages_sharing as f64 / self.pages_shared as f64
        }
    }
}

/// One merged group: the pages currently sharing a canonical copy.
#[derive(Debug, Default, Clone)]
struct MergeGroup {
    members: BTreeSet<PageKey>,
}

/// The page-sharing scanner and merge state for a set of registered VMs.
#[derive(Debug)]
pub struct KsmManager {
    config: KsmConfig,
    vms: BTreeMap<VmId, GuestMemory>,
    /// Stable tree: fingerprint -> merged group.
    stable: HashMap<u64, MergeGroup>,
    /// Reverse index: merged page -> its group's fingerprint.
    merged_of: HashMap<PageKey, u64>,
    /// Unstable tree: candidate page -> fingerprint seen last round.
    unstable: HashMap<PageKey, u64>,
    /// Scan cursor (VM, next page) for budgeted rounds.
    cursor: Option<PageKey>,
    cow_breaks: u64,
}

impl KsmManager {
    /// Create a manager with the given configuration and no registered VMs.
    pub fn new(config: KsmConfig) -> Self {
        KsmManager {
            config,
            vms: BTreeMap::new(),
            stable: HashMap::new(),
            merged_of: HashMap::new(),
            unstable: HashMap::new(),
            cursor: None,
            cow_breaks: 0,
        }
    }

    /// Register a VM's memory for scanning. Re-registering the same id
    /// replaces the memory and forgets any merge state for the old one.
    pub fn register_vm(&mut self, id: VmId, memory: GuestMemory) {
        if self.vms.contains_key(&id) {
            self.unregister_vm(id);
        }
        self.vms.insert(id, memory);
    }

    /// Remove a VM and break all of its shared pages.
    fn unregister_vm(&mut self, id: VmId) {
        let pages: Vec<PageKey> = self
            .merged_of
            .keys()
            .filter(|(vm, _)| *vm == id)
            .copied()
            .collect();
        for key in pages {
            self.break_sharing(key);
        }
        self.unstable.retain(|(vm, _), _| *vm != id);
        self.vms.remove(&id);
        self.cursor = None;
    }

    /// Number of registered VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Report a guest write to a page. If the page was merged this is the
    /// copy-on-write break; either way the page loses its stability credit.
    pub fn notify_write(&mut self, vm: VmId, page: u64) {
        let key = (vm, page);
        self.unstable.remove(&key);
        if self.merged_of.contains_key(&key) {
            self.break_sharing(key);
            self.cow_breaks += 1;
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> KsmStats {
        let pages_shared = self.stable.values().filter(|g| g.members.len() > 1).count() as u64;
        let pages_sharing = self
            .stable
            .values()
            .filter(|g| g.members.len() > 1)
            .map(|g| g.members.len() as u64)
            .sum();
        KsmStats {
            pages_shared,
            pages_sharing,
            cow_breaks: self.cow_breaks,
        }
    }

    /// Run one scan round over at most `config.pages_per_round` pages,
    /// continuing from where the previous round stopped. Returns the number
    /// of pages newly merged during this round.
    pub(crate) fn scan_round(&mut self) -> Result<u64> {
        let plan: Vec<PageKey> = self.scan_plan();
        let mut budget = self.config.pages_per_round;
        let mut newly_merged = 0u64;
        let mut last: Option<PageKey> = None;

        for key in plan {
            if budget == 0 {
                break;
            }
            budget -= 1;
            last = Some(key);

            let (vm, page) = key;
            // Fingerprint (and, only when zero pages are excluded from
            // merging, zero-probe) the candidate page in place: one
            // read-lock acquisition, no 4 KiB copy per scanned page.
            let probe_zero = !self.config.merge_zero_pages;
            let (fp, skip_zero) = match self.vms.get(&vm) {
                Some(mem) => mem.with_page(page, |b| {
                    (fingerprint(b), probe_zero && crate::scan::is_zero(b))
                })?,
                None => continue,
            };
            if skip_zero {
                continue;
            }

            if let Some(&merged_fp) = self.merged_of.get(&key) {
                if merged_fp != fp {
                    // The guest changed the page without a notify_write (e.g.
                    // DMA): detected at scan time, the sharing breaks.
                    self.break_sharing(key);
                    self.cow_breaks += 1;
                    self.unstable.insert(key, fp);
                }
                continue;
            }

            match self.unstable.get(&key) {
                Some(&prev) if prev == fp => {
                    // Stable across two rounds: merge.
                    self.unstable.remove(&key);
                    let group = self.stable.entry(fp).or_default();
                    group.members.insert(key);
                    self.merged_of.insert(key, fp);
                    newly_merged += 1;
                }
                _ => {
                    self.unstable.insert(key, fp);
                }
            }
        }

        // Advance or reset the cursor depending on whether the budget covered
        // the whole address space.
        match last {
            Some(key) if budget == 0 => self.cursor = Some(key),
            _ => self.cursor = None,
        }
        Ok(newly_merged)
    }

    /// Run scan rounds until no new pages are merged (at most `max_rounds`).
    /// Returns the number of rounds executed.
    pub fn scan_until_stable(&mut self, max_rounds: u32) -> Result<u32> {
        let mut rounds = 0;
        for _ in 0..max_rounds {
            rounds += 1;
            let merged = self.scan_round()?;
            // Two passes are needed before anything merges; only stop once a
            // full pass produced no new merges and no fresh candidates exist.
            if merged == 0 && rounds >= 2 {
                break;
            }
        }
        Ok(rounds)
    }

    /// The ordered list of pages to visit, starting after the cursor.
    fn scan_plan(&self) -> Vec<PageKey> {
        let mut keys: Vec<PageKey> = Vec::new();
        for (&vm, mem) in &self.vms {
            for page in 0..mem.total_pages() {
                keys.push((vm, page));
            }
        }
        if let Some(cursor) = self.cursor {
            if let Some(pos) = keys.iter().position(|&k| k == cursor) {
                let by = (pos + 1) % keys.len().max(1);
                keys.rotate_left(by);
            }
        }
        keys
    }

    fn break_sharing(&mut self, key: PageKey) {
        if let Some(fp) = self.merged_of.remove(&key) {
            if let Some(group) = self.stable.get_mut(&fp) {
                group.members.remove(&key);
                if group.members.len() <= 1 {
                    // A group of one is no longer shared; drop the canonical
                    // entry so its last member is treated as a fresh candidate.
                    for remaining in group.members.iter() {
                        self.merged_of.remove(remaining);
                    }
                    self.stable.remove(&fp);
                }
            }
        }
    }
}

/// A one-shot measurement of how much memory a set of VMs *could* share.
///
/// This ignores scan cadence and stability and simply fingerprints every
/// page — the upper bound a perfect scanner converges to, which is what the
/// VDI density estimator needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupAnalysis {
    /// Total pages examined.
    pub total_pages: u64,
    /// Distinct page contents found.
    pub unique_pages: u64,
    /// Pages whose contents are entirely zero.
    pub(crate) zero_pages: u64,
}

impl DedupAnalysis {
    /// Pages saved if every duplicate were merged.
    pub fn pages_saved(&self) -> u64 {
        self.total_pages.saturating_sub(self.unique_pages)
    }

    /// Bytes saved if every duplicate were merged.
    pub fn bytes_saved(&self) -> u64 {
        self.pages_saved() * PAGE_SIZE
    }

    /// Fraction of all pages that deduplication eliminates (0.0–1.0).
    pub fn savings_fraction(&self) -> f64 {
        if self.total_pages == 0 {
            0.0
        } else {
            self.pages_saved() as f64 / self.total_pages as f64
        }
    }
}

/// Fingerprint every page of every memory and report the dedup potential.
pub fn analyze_sharing<'a, I>(memories: I) -> Result<DedupAnalysis>
where
    I: IntoIterator<Item = &'a GuestMemory>,
{
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut analysis = DedupAnalysis::default();
    let zero_fp = fingerprint(&[0u8; PAGE_SIZE as usize]);
    for mem in memories {
        for page in 0..mem.total_pages() {
            let fp = mem.page_fingerprint(page)?;
            analysis.total_pages += 1;
            if fp == zero_fp {
                analysis.zero_pages += 1;
            }
            if seen.insert(fp) {
                analysis.unique_pages += 1;
            }
        }
    }
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::{ByteSize, GuestAddress};

    impl KsmManager {
        /// Whether a page is currently merged into a shared copy.
        fn is_merged(&self, vm: VmId, page: u64) -> bool {
            self.merged_of.contains_key(&(vm, page))
        }
    }

    fn memory_with_pattern(pages: u64, seed: u64) -> GuestMemory {
        let mem = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        for p in 0..pages {
            mem.write_u64(
                GuestAddress(p * PAGE_SIZE),
                seed.wrapping_mul(31).wrapping_add(p),
            )
            .unwrap();
        }
        mem
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        let a = vec![0u8; PAGE_SIZE as usize];
        let mut b = a.clone();
        b[100] = 1;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn identical_vms_merge_after_two_rounds() {
        let mut ksm = KsmManager::new(KsmConfig::default());
        // Two VMs with byte-identical contents (template clones).
        ksm.register_vm(VmId::new(0), memory_with_pattern(32, 7));
        ksm.register_vm(VmId::new(1), memory_with_pattern(32, 7));

        // Round 1: only candidates, nothing merged yet.
        assert_eq!(ksm.scan_round().unwrap(), 0);
        assert_eq!(ksm.stats().pages_sharing, 0);
        assert_eq!(ksm.unstable.len(), 64);

        // Round 2: everything stable, so every duplicate merges.
        let merged = ksm.scan_round().unwrap();
        assert_eq!(merged, 64);
        let stats = ksm.stats();
        // 32 distinct contents, each shared by two VMs.
        assert_eq!(stats.pages_shared, 32);
        assert_eq!(stats.pages_sharing, 64);
        assert_eq!(stats.pages_saved(), 32);
        assert_eq!(stats.bytes_saved(), 32 * PAGE_SIZE);
        assert!((stats.sharing_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_vms_share_nothing() {
        let mut ksm = KsmManager::new(KsmConfig {
            merge_zero_pages: false,
            ..Default::default()
        });
        ksm.register_vm(VmId::new(0), memory_with_pattern(16, 1));
        ksm.register_vm(VmId::new(1), memory_with_pattern(16, 2));
        ksm.scan_until_stable(8).unwrap();
        assert_eq!(ksm.stats().pages_saved(), 0);
    }

    #[test]
    fn write_breaks_sharing() {
        let mut ksm = KsmManager::new(KsmConfig::default());
        let a = memory_with_pattern(8, 3);
        let b = memory_with_pattern(8, 3);
        ksm.register_vm(VmId::new(0), a.clone());
        ksm.register_vm(VmId::new(1), b);
        ksm.scan_until_stable(4).unwrap();
        let before = ksm.stats();
        assert_eq!(before.pages_saved(), 8);
        assert!(ksm.is_merged(VmId::new(0), 3));

        a.write_u64(GuestAddress(3 * PAGE_SIZE), 0xdead_beef)
            .unwrap();
        ksm.notify_write(VmId::new(0), 3);

        let after = ksm.stats();
        assert!(!ksm.is_merged(VmId::new(0), 3));
        assert_eq!(after.cow_breaks, 1);
        assert_eq!(after.pages_saved(), before.pages_saved() - 1);
    }

    #[test]
    fn unnotified_write_is_caught_at_next_scan() {
        let mut ksm = KsmManager::new(KsmConfig::default());
        let a = memory_with_pattern(8, 9);
        let b = memory_with_pattern(8, 9);
        ksm.register_vm(VmId::new(0), a.clone());
        ksm.register_vm(VmId::new(1), b);
        ksm.scan_until_stable(4).unwrap();
        assert!(ksm.is_merged(VmId::new(0), 5));

        // Write without notifying (models DMA into guest memory).
        a.write_u64(GuestAddress(5 * PAGE_SIZE), 0x1234_5678_9abc)
            .unwrap();
        ksm.scan_round().unwrap();
        assert!(!ksm.is_merged(VmId::new(0), 5));
        assert_eq!(ksm.stats().cow_breaks, 1);
    }

    #[test]
    fn budgeted_rounds_cover_everything_eventually() {
        let mut ksm = KsmManager::new(KsmConfig {
            pages_per_round: 10,
            ..Default::default()
        });
        ksm.register_vm(VmId::new(0), memory_with_pattern(32, 4));
        ksm.register_vm(VmId::new(1), memory_with_pattern(32, 4));
        // 64 pages at 10 pages/round: needs 7 rounds per pass, two passes to merge.
        for _ in 0..20 {
            ksm.scan_round().unwrap();
        }
        assert_eq!(ksm.stats().pages_saved(), 32);
    }

    #[test]
    fn unregister_breaks_that_vms_sharing() {
        let mut ksm = KsmManager::new(KsmConfig::default());
        ksm.register_vm(VmId::new(0), memory_with_pattern(8, 6));
        ksm.register_vm(VmId::new(1), memory_with_pattern(8, 6));
        ksm.register_vm(VmId::new(2), memory_with_pattern(8, 6));
        ksm.scan_until_stable(4).unwrap();
        assert_eq!(ksm.stats().pages_saved(), 16);

        ksm.unregister_vm(VmId::new(2));
        assert_eq!(ksm.vm_count(), 2);
        assert_eq!(ksm.stats().pages_saved(), 8);

        ksm.unregister_vm(VmId::new(1));
        assert_eq!(ksm.stats().pages_saved(), 0);
        assert_eq!(ksm.stats().pages_shared, 0);
    }

    #[test]
    fn zero_page_policy_is_respected() {
        // Two VMs that never wrote anything: all pages are zero.
        let mut with_zero = KsmManager::new(KsmConfig::default());
        with_zero.register_vm(
            VmId::new(0),
            GuestMemory::flat(ByteSize::pages_of(8)).unwrap(),
        );
        with_zero.register_vm(
            VmId::new(1),
            GuestMemory::flat(ByteSize::pages_of(8)).unwrap(),
        );
        with_zero.scan_until_stable(4).unwrap();
        assert_eq!(with_zero.stats().pages_saved(), 15);

        let mut without = KsmManager::new(KsmConfig {
            merge_zero_pages: false,
            ..Default::default()
        });
        without.register_vm(
            VmId::new(0),
            GuestMemory::flat(ByteSize::pages_of(8)).unwrap(),
        );
        without.register_vm(
            VmId::new(1),
            GuestMemory::flat(ByteSize::pages_of(8)).unwrap(),
        );
        without.scan_until_stable(4).unwrap();
        assert_eq!(without.stats().pages_saved(), 0);
    }

    #[test]
    fn analysis_reports_upper_bound() {
        let a = memory_with_pattern(16, 11);
        let b = memory_with_pattern(16, 11);
        let c = memory_with_pattern(16, 12);
        let analysis = analyze_sharing([&a, &b, &c]).unwrap();
        assert_eq!(analysis.total_pages, 48);
        // a and b are identical; c differs on every page.
        assert_eq!(analysis.unique_pages, 32);
        assert_eq!(analysis.pages_saved(), 16);
        assert!((analysis.savings_fraction() - 16.0 / 48.0).abs() < 1e-9);
        assert_eq!(analysis.zero_pages, 0);
    }

    #[test]
    fn scanner_converges_to_analysis_upper_bound() {
        let a = memory_with_pattern(24, 21);
        let b = memory_with_pattern(24, 21);
        let analysis = analyze_sharing([&a, &b]).unwrap();

        let mut ksm = KsmManager::new(KsmConfig::default());
        ksm.register_vm(VmId::new(0), a);
        ksm.register_vm(VmId::new(1), b);
        ksm.scan_until_stable(6).unwrap();
        assert_eq!(ksm.stats().pages_saved(), analysis.pages_saved());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Merging never invents savings: saved pages are bounded by the
            /// one-shot analysis upper bound, and stats stay self-consistent.
            #[test]
            fn saved_pages_bounded_by_upper_bound(
                pages in 1u64..24,
                vms in 1usize..4,
                seeds in proptest::collection::vec(0u64..3, 1..4),
            ) {
                let seeds = &seeds[..seeds.len().min(vms)];
                let memories: Vec<GuestMemory> =
                    seeds.iter().map(|&s| memory_with_pattern(pages, s)).collect();
                let analysis = analyze_sharing(memories.iter()).unwrap();

                let mut ksm = KsmManager::new(KsmConfig::default());
                for (i, mem) in memories.iter().enumerate() {
                    ksm.register_vm(VmId::new(i as u32), mem.clone());
                }
                ksm.scan_until_stable(8).unwrap();
                let stats = ksm.stats();
                prop_assert!(stats.pages_saved() <= analysis.pages_saved());
                prop_assert!(stats.pages_sharing >= stats.pages_shared || stats.pages_sharing == 0);
            }

            /// Breaking sharing by writes never leaves dangling merge state.
            #[test]
            fn cow_breaks_keep_state_consistent(
                write_pages in proptest::collection::btree_set(0u64..16, 0..8),
            ) {
                let a = memory_with_pattern(16, 5);
                let b = memory_with_pattern(16, 5);
                let mut ksm = KsmManager::new(KsmConfig::default());
                ksm.register_vm(VmId::new(0), a.clone());
                ksm.register_vm(VmId::new(1), b);
                ksm.scan_until_stable(4).unwrap();

                for &p in &write_pages {
                    a.write_u64(GuestAddress(p * PAGE_SIZE), 0xffff_0000 + p).unwrap();
                    ksm.notify_write(VmId::new(0), p);
                }
                let stats = ksm.stats();
                prop_assert_eq!(stats.cow_breaks, write_pages.len() as u64);
                prop_assert_eq!(stats.pages_saved(), 16 - write_pages.len() as u64);
                for &p in &write_pages {
                    prop_assert!(!ksm.is_merged(VmId::new(0), p));
                }
            }
        }
    }
}
