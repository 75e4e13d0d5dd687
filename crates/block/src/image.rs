//! Golden images and template-based provisioning.
//!
//! The operational claim behind experiment E9 is that provisioning a new
//! server from a template is dramatically faster than installing it from
//! scratch (a full image copy). [`ImageLibrary`] models both paths:
//!
//! * [`CloneStrategy::FullCopy`] duplicates every byte of the template into a
//!   fresh [`RamDisk`] — cost proportional to image size;
//! * [`CloneStrategy::CopyOnWrite`] stacks a `CowOverlay` on the shared
//!   template — cost proportional to *nothing* (a handful of allocations).

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rvisor_types::{ByteSize, Error, Result};

use crate::backend::{BlockBackend, SECTOR_SIZE};
use crate::cow::CowOverlay;
use crate::ram::RamDisk;

/// How to materialise a new disk from a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CloneStrategy {
    /// Copy every byte of the template (a "full install").
    FullCopy,
    /// Stack a copy-on-write overlay on the shared template (an "instant clone").
    CopyOnWrite,
}

/// A library of golden template images plus the disks cloned from them.
///
/// A template is a read-only [`RamDisk`] that every copy-on-write clone
/// shares through an `Arc` and reads through `&self`.
pub struct ImageLibrary {
    templates: BTreeMap<String, Arc<RamDisk>>,
    clones_created: u64,
    bytes_copied: u64,
}

impl std::fmt::Debug for ImageLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageLibrary")
            .field("templates", &self.templates.keys().collect::<Vec<_>>())
            .field("clones_created", &self.clones_created)
            .finish()
    }
}

impl Default for ImageLibrary {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageLibrary {
    /// Create an empty library.
    pub fn new() -> Self {
        ImageLibrary {
            templates: BTreeMap::new(),
            clones_created: 0,
            bytes_copied: 0,
        }
    }

    /// Register a template built from raw contents. The template is stored
    /// read-only; clones never modify it.
    pub fn add_template(&mut self, name: &str, contents: Vec<u8>) -> Result<()> {
        self.insert(name, RamDisk::from_data(contents))
    }

    /// Register a zero-filled template of `size` (e.g. an empty data disk).
    pub fn add_blank_template(&mut self, name: &str, size: ByteSize) -> Result<()> {
        self.insert(name, RamDisk::new(size))
    }

    fn insert(&mut self, name: &str, mut disk: RamDisk) -> Result<()> {
        if self.templates.contains_key(name) {
            return Err(Error::Config(format!("template `{name}` already exists")));
        }
        disk.set_read_only(true);
        self.templates.insert(name.to_string(), Arc::new(disk));
        Ok(())
    }

    /// Bytes physically copied by full-copy clones (CoW clones copy none).
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Materialise a new disk from template `name` using `strategy`.
    pub fn clone_from(
        &mut self,
        name: &str,
        strategy: CloneStrategy,
    ) -> Result<Box<dyn BlockBackend>> {
        let template = self
            .templates
            .get(name)
            .ok_or_else(|| Error::Config(format!("unknown template `{name}`")))?;
        let disk: Box<dyn BlockBackend> = match strategy {
            CloneStrategy::FullCopy => {
                let capacity = template.capacity_bytes();
                let mut contents = vec![0u8; capacity as usize];
                template.read_at(0, &mut contents)?;
                self.bytes_copied += capacity;
                Box::new(RamDisk::from_data(contents))
            }
            CloneStrategy::CopyOnWrite => Box::new(CowOverlay::new(Arc::clone(template))),
        };
        self.clones_created += 1;
        Ok(disk)
    }
}

/// Build a synthetic "installed OS" image of `size` with a recognisable
/// pattern, standing in for a real golden image.
pub fn synthetic_os_image(size: ByteSize) -> Vec<u8> {
    let sectors = size.as_u64().div_ceil(SECTOR_SIZE);
    let mut data = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    for (i, chunk) in data.chunks_mut(SECTOR_SIZE as usize).enumerate() {
        // A boot-sector-ish header then a per-sector tag, so clones can be verified.
        chunk[0] = 0x55;
        chunk[1] = 0xaa;
        chunk[2..10].copy_from_slice(&(i as u64).to_le_bytes());
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ImageLibrary {
        /// Names of the registered templates.
        fn template_names(&self) -> Vec<String> {
            self.templates.keys().cloned().collect()
        }

        /// Logical size of a template.
        fn template_size(&self, name: &str) -> Option<ByteSize> {
            let template = self.templates.get(name)?;
            Some(ByteSize::new(template.capacity_bytes()))
        }

        /// Number of clones created so far.
        fn clones_created(&self) -> u64 {
            self.clones_created
        }
    }

    fn library_with_template(size: ByteSize) -> ImageLibrary {
        let mut lib = ImageLibrary::new();
        lib.add_template("win2003", synthetic_os_image(size))
            .unwrap();
        lib
    }

    #[test]
    fn template_registration_and_lookup() {
        let lib = library_with_template(ByteSize::kib(64));
        assert_eq!(lib.template_names(), vec!["win2003".to_string()]);
        assert_eq!(lib.template_size("win2003"), Some(ByteSize::kib(64)));
        assert!(lib.template_size("missing").is_none());
        assert!(format!("{lib:?}").contains("win2003"));
    }

    #[test]
    fn duplicate_template_rejected() {
        let mut lib = library_with_template(ByteSize::kib(4));
        assert!(lib.add_template("win2003", vec![0u8; 512]).is_err());
        assert!(lib.add_blank_template("win2003", ByteSize::kib(4)).is_err());
        assert!(lib.add_blank_template("data", ByteSize::kib(4)).is_ok());
    }

    #[test]
    fn full_copy_clone_is_independent() {
        let mut lib = library_with_template(ByteSize::kib(16));
        let mut clone = lib.clone_from("win2003", CloneStrategy::FullCopy).unwrap();
        let mut buf = vec![0u8; 512];
        clone.read_sectors(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0x55);
        assert_eq!(u64::from_le_bytes(buf[2..10].try_into().unwrap()), 1);
        // Writing to the clone must not affect a later clone.
        clone.write_sectors(1, &vec![0u8; 512]).unwrap();
        let mut clone2 = lib.clone_from("win2003", CloneStrategy::FullCopy).unwrap();
        clone2.read_sectors(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0x55);
        assert_eq!(lib.clones_created(), 2);
        assert_eq!(lib.bytes_copied(), 2 * 16 * 1024);
    }

    #[test]
    fn cow_clone_copies_nothing_up_front() {
        let mut lib = library_with_template(ByteSize::mib(1));
        let mut clone = lib
            .clone_from("win2003", CloneStrategy::CopyOnWrite)
            .unwrap();
        assert_eq!(lib.bytes_copied(), 0);
        let mut buf = vec![0u8; 512];
        clone.read_sectors(7, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf[2..10].try_into().unwrap()), 7);
        clone.write_sectors(7, &vec![0x77u8; 512]).unwrap();
        // Template still pristine for the next clone.
        let mut clone2 = lib
            .clone_from("win2003", CloneStrategy::CopyOnWrite)
            .unwrap();
        clone2.read_sectors(7, &mut buf).unwrap();
        assert_eq!(buf[0], 0x55);
    }

    #[test]
    fn unknown_template_clone_fails() {
        let mut lib = ImageLibrary::new();
        assert!(lib.clone_from("ghost", CloneStrategy::FullCopy).is_err());
    }

    #[test]
    fn synthetic_image_is_sector_tagged() {
        let img = synthetic_os_image(ByteSize::kib(2));
        assert_eq!(img.len(), 2048);
        assert_eq!(img[0], 0x55);
        assert_eq!(img[1], 0xaa);
        assert_eq!(
            u64::from_le_bytes(img[512 + 2..512 + 10].try_into().unwrap()),
            1
        );
    }
}
