//! Template-based provisioning.
//!
//! "Instant (or very rapid) provisioning of servers" is one of the
//! operational goals the source material lists. [`Provisioner`] models the
//! two ways a new server gets its system disk:
//!
//! * **full copy** — every byte of the golden image is duplicated (the moral
//!   equivalent of installing from scratch or copying a flat image);
//! * **copy-on-write clone** — a CoW overlay is stacked on the shared
//!   template and the VM boots immediately.
//!
//! Both the wall-clock cost (measured by the benchmark) and the simulated
//! storage time (derived from a [`StorageModel`]) are reported, so the
//! experiment can present provisioning latency as a function of image size.

use rvisor_block::{CloneStrategy, ImageLibrary, StorageModel};
use rvisor_types::{Nanoseconds, Result};

/// The outcome of provisioning one VM disk.
#[derive(Debug)]
pub struct ProvisioningReport {
    /// Bytes physically copied to create it.
    pub bytes_copied: u64,
    /// Simulated storage time to perform those copies.
    pub storage_time: Nanoseconds,
}

impl ProvisioningReport {
    /// Whether the clone was effectively instant (no data copied).
    pub fn is_instant(&self) -> bool {
        self.bytes_copied == 0
    }
}

/// Provisions VM disks from an [`ImageLibrary`].
pub struct Provisioner {
    library: ImageLibrary,
    storage: StorageModel,
}

impl std::fmt::Debug for Provisioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Provisioner")
            .field("storage", &self.storage)
            .finish()
    }
}

impl Provisioner {
    /// Create a provisioner over `library`, modelling storage with `storage`.
    pub fn new(library: ImageLibrary, storage: StorageModel) -> Self {
        Provisioner { library, storage }
    }

    /// Provision a new disk from `template` using `strategy` and report its
    /// cost. The disk itself is dropped: no caller attaches it.
    pub fn provision(
        &mut self,
        template: &str,
        strategy: CloneStrategy,
    ) -> Result<ProvisioningReport> {
        let before = self.library.bytes_copied();
        self.library.clone_from(template, strategy)?;
        let bytes_copied = self.library.bytes_copied() - before;
        // A full copy is one large sequential read plus one large write.
        let storage_time = if bytes_copied == 0 {
            Nanoseconds::ZERO
        } else {
            Nanoseconds(self.storage.service_time(bytes_copied).as_nanos() * 2)
        };
        Ok(ProvisioningReport {
            bytes_copied,
            storage_time,
        })
    }

    /// Provision `count` disks and return the aggregate simulated time —
    /// the "how fast can I stand up a new branch office" question.
    pub fn provision_many(
        &mut self,
        template: &str,
        strategy: CloneStrategy,
        count: usize,
    ) -> Result<(Vec<ProvisioningReport>, Nanoseconds)> {
        let mut reports = Vec::with_capacity(count);
        let mut total = Nanoseconds::ZERO;
        for _ in 0..count {
            let r = self.provision(template, strategy)?;
            total = total.saturating_add(r.storage_time);
            reports.push(r);
        }
        Ok((reports, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_block::{synthetic_os_image, SECTOR_SIZE};
    use rvisor_types::ByteSize;

    impl Provisioner {
        /// The template library (to register more templates).
        fn library_mut(&mut self) -> &mut ImageLibrary {
            &mut self.library
        }
    }

    fn provisioner(image_mib: u64) -> Provisioner {
        let mut lib = ImageLibrary::new();
        lib.add_template(
            "win2003-golden",
            synthetic_os_image(ByteSize::mib(image_mib)),
        )
        .unwrap();
        Provisioner::new(lib, StorageModel::ssd())
    }

    #[test]
    fn cow_clone_is_instant_full_copy_is_not() {
        let mut p = provisioner(64);
        let cow = p
            .provision("win2003-golden", CloneStrategy::CopyOnWrite)
            .unwrap();
        assert!(cow.is_instant());
        assert_eq!(cow.storage_time, Nanoseconds::ZERO);

        let full = p
            .provision("win2003-golden", CloneStrategy::FullCopy)
            .unwrap();
        assert!(!full.is_instant());
        assert_eq!(full.bytes_copied, 64 << 20);
        assert!(full.storage_time > Nanoseconds::from_millis(100));
        assert!(format!("{p:?}").contains("storage"));
    }

    #[test]
    fn provisioned_disks_are_usable_and_independent() {
        // A report carries only the cost; the disks are the library's clones.
        let mut p = provisioner(4);
        let lib = p.library_mut();
        let mut a = lib
            .clone_from("win2003-golden", CloneStrategy::CopyOnWrite)
            .unwrap();
        let mut b = lib
            .clone_from("win2003-golden", CloneStrategy::CopyOnWrite)
            .unwrap();
        a.write_sectors(0, &vec![0xAA; SECTOR_SIZE as usize])
            .unwrap();
        let mut buf = vec![0u8; SECTOR_SIZE as usize];
        b.read_sectors(0, &mut buf).unwrap();
        assert_eq!(
            buf[0], 0x55,
            "clone b must still see the golden image boot sector"
        );
    }

    #[test]
    fn storage_time_scales_with_image_size() {
        let mut small = provisioner(16);
        let mut large = provisioner(256);
        let t_small = small
            .provision("win2003-golden", CloneStrategy::FullCopy)
            .unwrap()
            .storage_time;
        let t_large = large
            .provision("win2003-golden", CloneStrategy::FullCopy)
            .unwrap()
            .storage_time;
        assert!(t_large.as_nanos() > 10 * t_small.as_nanos());
    }

    #[test]
    fn provision_many_aggregates() {
        let mut p = provisioner(8);
        let (reports, total) = p
            .provision_many("win2003-golden", CloneStrategy::FullCopy, 5)
            .unwrap();
        assert_eq!(reports.len(), 5);
        assert_eq!(
            total.as_nanos(),
            reports
                .iter()
                .map(|r| r.storage_time.as_nanos())
                .sum::<u64>()
        );
        let (cow_reports, cow_total) = p
            .provision_many("win2003-golden", CloneStrategy::CopyOnWrite, 5)
            .unwrap();
        assert_eq!(cow_reports.len(), 5);
        assert_eq!(cow_total, Nanoseconds::ZERO);
    }

    #[test]
    fn unknown_template_fails() {
        let mut p = provisioner(4);
        assert!(p.provision("missing", CloneStrategy::FullCopy).is_err());
        // New templates can be registered through library_mut.
        p.library_mut()
            .add_blank_template("data", ByteSize::mib(1))
            .unwrap();
        assert!(p.provision("data", CloneStrategy::CopyOnWrite).is_ok());
    }
}
