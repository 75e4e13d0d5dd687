//! Portable export manifests.
//!
//! One of the operational requirements in the source material is an *open,
//! non-proprietary* export format (the OVA/OVF family). [`ExportManifest`]
//! is a minimal envelope in that spirit: a plain-text, line-oriented
//! description of an exported VM — name, hardware shape, disk references and
//! integrity checksums — that any tool can parse without rvisor.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rvisor_types::{ByteSize, Error, Result};

/// A description of an exported VM appliance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExportManifest {
    /// Appliance name.
    pub(crate) name: String,
    /// Number of vCPUs.
    pub(crate) vcpus: u32,
    /// Guest memory size.
    pub(crate) memory: ByteSize,
    /// Disk name -> size in bytes.
    pub(crate) disks: BTreeMap<String, u64>,
    /// Integrity checksums: item name -> checksum value.
    pub(crate) checksums: BTreeMap<String, u64>,
    /// Free-form annotations (OS type, role, owner).
    pub(crate) annotations: BTreeMap<String, String>,
}

impl ExportManifest {
    /// Create a manifest for a VM with the given hardware shape.
    pub fn new(name: &str, vcpus: u32, memory: ByteSize) -> Self {
        ExportManifest {
            name: name.to_string(),
            vcpus,
            memory,
            disks: BTreeMap::new(),
            checksums: BTreeMap::new(),
            annotations: BTreeMap::new(),
        }
    }

    /// Add a disk reference.
    pub fn with_disk(mut self, name: &str, size_bytes: u64) -> Self {
        self.disks.insert(name.to_string(), size_bytes);
        self
    }

    /// Add an integrity checksum.
    pub fn with_checksum(mut self, item: &str, value: u64) -> Self {
        self.checksums.insert(item.to_string(), value);
        self
    }

    /// Add an annotation.
    pub fn with_annotation(mut self, key: &str, value: &str) -> Self {
        self.annotations.insert(key.to_string(), value.to_string());
        self
    }

    /// Render the manifest in its line-oriented text form.
    ///
    /// ```text
    /// rvisor-appliance: 1
    /// name: mail-server
    /// vcpus: 2
    /// memory-bytes: 2147483648
    /// disk: system 42949672960
    /// checksum: memory 12345
    /// annotation: os RedHat 5.4 x64
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("rvisor-appliance: 1\n");
        out.push_str(&format!("name: {}\n", self.name));
        out.push_str(&format!("vcpus: {}\n", self.vcpus));
        out.push_str(&format!("memory-bytes: {}\n", self.memory.as_u64()));
        for (disk, size) in &self.disks {
            out.push_str(&format!("disk: {disk} {size}\n"));
        }
        for (item, value) in &self.checksums {
            out.push_str(&format!("checksum: {item} {value}\n"));
        }
        for (key, value) in &self.annotations {
            out.push_str(&format!("annotation: {key} {value}\n"));
        }
        out
    }

    /// Parse a manifest from its text form.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut name = None;
        let mut vcpus = None;
        let mut memory = None;
        let mut disks = BTreeMap::new();
        let mut checksums = BTreeMap::new();
        let mut annotations = BTreeMap::new();
        let mut versioned = false;

        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(':').ok_or_else(|| {
                Error::Snapshot(format!("manifest line {} is malformed: {line}", lineno + 1))
            })?;
            let value = value.trim();
            match key.trim() {
                "rvisor-appliance" if value == "1" => versioned = true,
                "rvisor-appliance" => {
                    return Err(Error::Snapshot(format!(
                        "unsupported rvisor-appliance version `{value}`"
                    )));
                }
                "name" => name = Some(value.to_string()),
                "vcpus" => {
                    vcpus =
                        Some(value.parse::<u32>().map_err(|_| {
                            Error::Snapshot(format!("invalid vcpus value `{value}`"))
                        })?)
                }
                "memory-bytes" => {
                    memory = Some(ByteSize::new(value.parse::<u64>().map_err(|_| {
                        Error::Snapshot(format!("invalid memory value `{value}`"))
                    })?))
                }
                "disk" => {
                    let (disk_name, size) = value
                        .rsplit_once(' ')
                        .ok_or_else(|| Error::Snapshot(format!("invalid disk line `{value}`")))?;
                    disks.insert(
                        disk_name.trim().to_string(),
                        size.parse::<u64>()
                            .map_err(|_| Error::Snapshot(format!("invalid disk size `{size}`")))?,
                    );
                }
                "checksum" => {
                    let (item, v) = value.rsplit_once(' ').ok_or_else(|| {
                        Error::Snapshot(format!("invalid checksum line `{value}`"))
                    })?;
                    checksums.insert(
                        item.trim().to_string(),
                        v.parse::<u64>()
                            .map_err(|_| Error::Snapshot(format!("invalid checksum `{v}`")))?,
                    );
                }
                "annotation" => {
                    let (k, v) = value.split_once(' ').unwrap_or((value, ""));
                    annotations.insert(k.to_string(), v.to_string());
                }
                other => {
                    return Err(Error::Snapshot(format!("unknown manifest key `{other}`")));
                }
            }
        }
        if !versioned {
            return Err(Error::Snapshot(
                "missing rvisor-appliance version line".into(),
            ));
        }
        Ok(ExportManifest {
            name: name.ok_or_else(|| Error::Snapshot("manifest missing name".into()))?,
            vcpus: vcpus.ok_or_else(|| Error::Snapshot("manifest missing vcpus".into()))?,
            memory: memory.ok_or_else(|| Error::Snapshot("manifest missing memory".into()))?,
            disks,
            checksums,
            annotations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> ExportManifest {
        ExportManifest::new("mail-server", 2, ByteSize::gib(2))
            .with_disk("system", 40 * 1024 * 1024 * 1024)
            .with_disk("data", 100 * 1024 * 1024 * 1024)
            .with_checksum("memory", 123456)
            .with_annotation("os", "RedHat 5.4 x64")
            .with_annotation("role", "zimbra email suite")
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        let text = m.to_text();
        assert!(text.starts_with("rvisor-appliance: 1\n"));
        assert!(text.contains("name: mail-server"));
        assert!(text.contains("disk: data 107374182400"));
        let back = ExportManifest::from_text(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text =
            "# exported by rvisor\n\nrvisor-appliance: 1\nname: x\nvcpus: 1\nmemory-bytes: 1024\n";
        let m = ExportManifest::from_text(text).unwrap();
        assert_eq!(m.name, "x");
        assert_eq!(m.vcpus, 1);
        assert_eq!(m.memory, ByteSize::new(1024));
        assert!(m.disks.is_empty());
    }

    #[test]
    fn malformed_manifests_rejected() {
        assert!(ExportManifest::from_text("").is_err());
        assert!(ExportManifest::from_text("name: x\nvcpus: 1\nmemory-bytes: 10\n").is_err()); // no version
        assert!(ExportManifest::from_text("rvisor-appliance: 1\nname x\n").is_err()); // missing colon
        assert!(ExportManifest::from_text(
            "rvisor-appliance: 1\nname: x\nvcpus: many\nmemory-bytes: 1\n"
        )
        .is_err());
        assert!(ExportManifest::from_text(
            "rvisor-appliance: 1\nname: x\nvcpus: 1\nmemory-bytes: 1\nbogus: 1\n"
        )
        .is_err());
        assert!(
            ExportManifest::from_text("rvisor-appliance: 1\nvcpus: 1\nmemory-bytes: 1\n").is_err()
        ); // no name
        assert!(
            ExportManifest::from_text("rvisor-appliance: 1\nname: x\nmemory-bytes: 1\n").is_err()
        ); // no vcpus
        assert!(ExportManifest::from_text("rvisor-appliance: 1\nname: x\nvcpus: 1\n").is_err()); // no memory
        assert!(ExportManifest::from_text(
            "rvisor-appliance: 1\nname: x\nvcpus: 1\nmemory-bytes: 1\ndisk: nosize\n"
        )
        .is_err());
        assert!(ExportManifest::from_text(
            "rvisor-appliance: 1\nname: x\nvcpus: 1\nmemory-bytes: 1\nchecksum: mem abc\n"
        )
        .is_err());
        // Only version 1 is understood.
        assert!(ExportManifest::from_text(
            "rvisor-appliance: 2\nname: x\nvcpus: 1\nmemory-bytes: 1\n"
        )
        .is_err());
        assert!(ExportManifest::from_text(
            "rvisor-appliance: banana\nname: x\nvcpus: 1\nmemory-bytes: 1\n"
        )
        .is_err());
    }

    /// Keys and values that arbitrary manifest lines are spliced from:
    /// every key, values that parse and values that do not, and noise.
    const KEYS: [&str; 10] = [
        "rvisor-appliance",
        "name",
        "vcpus",
        "memory-bytes",
        "disk",
        "checksum",
        "annotation",
        "bogus",
        "# note",
        "",
    ];
    const VALUES: [&str; 9] = [
        "1",
        "2",
        "banana",
        "os x  y",
        "d 42",
        "-3",
        "é\t",
        "18446744073709551616",
        "",
    ];
    /// A complete version-1 manifest for the spliced lines to follow.
    const HEADER: &str = "rvisor-appliance: 1\nname: n\nvcpus: 1\nmemory-bytes: 8\n";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary text never panics the parser, and whatever it accepts
        /// survives a round trip through `to_text` unchanged.
        #[test]
        fn parse_never_panics_and_accepted_text_round_trips(
            lines in proptest::collection::vec(
                (0usize..KEYS.len(), 0usize..4, 0usize..VALUES.len()),
                0..6,
            ),
            headed in 0usize..2,
        ) {
            let mut text = if headed == 1 { HEADER.to_string() } else { String::new() };
            for (key, separator, value) in lines {
                let separator = [": ", ":", " ", "\r\n"][separator];
                text += &format!("{}{separator}{}\n", KEYS[key], VALUES[value]);
            }
            if let Ok(m) = ExportManifest::from_text(&text) {
                prop_assert_eq!(ExportManifest::from_text(&m.to_text()).ok(), Some(m));
            }
        }
    }

    #[test]
    fn annotations_with_spaces_survive() {
        let m = sample();
        let back = ExportManifest::from_text(&m.to_text()).unwrap();
        assert_eq!(back.annotations["os"], "RedHat 5.4 x64");
        assert_eq!(back.annotations["role"], "zimbra email suite");
    }
}
