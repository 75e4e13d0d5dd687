//! Migration outcome reports.

use serde::{Deserialize, Serialize};

use rvisor_types::{ByteSize, Nanoseconds};

/// Which engine produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationKind {
    /// Pause, copy everything, resume.
    StopAndCopy,
    /// Iterative pre-copy with a final stop-and-copy.
    PreCopy,
    /// Immediate switch-over with demand paging.
    PostCopy,
}

impl MigrationKind {
    /// A short name for benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            MigrationKind::StopAndCopy => "stop-and-copy",
            MigrationKind::PreCopy => "pre-copy",
            MigrationKind::PostCopy => "post-copy",
        }
    }
}

/// One memory-copy round of a migration: the iterative pre-copy rounds, the
/// final stop-phase copy, or the single bulk copy of the other engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStat {
    /// Pages carried this round.
    pub(crate) pages: u64,
    /// Bytes put on the wire this round (payload after compression, plus
    /// framing on the streamed paths).
    pub(crate) bytes: u64,
    /// Simulated time the round occupied the link.
    pub(crate) duration: Nanoseconds,
}

/// The metrics of one migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Engine used.
    pub kind: MigrationKind,
    /// Time during which the guest was paused.
    pub downtime: Nanoseconds,
    /// Wall-clock (simulated) time from start to the destination owning the VM
    /// with all of its memory present.
    pub total_time: Nanoseconds,
    /// Number of pre-copy rounds performed (1 for stop-and-copy).
    pub rounds: u32,
    /// Total bytes moved over the migration link (including retransmitted dirty pages).
    pub bytes_transferred: u64,
    /// Pages transferred (including duplicates across rounds).
    pub pages_transferred: u64,
    /// Guest RAM size.
    pub(crate) memory_size: ByteSize,
    /// Whether pre-copy converged below its dirty-set threshold (always true
    /// for the other engines).
    pub converged: bool,
    /// Post-copy only: number of demand (remote) page faults served.
    pub remote_faults: u64,
    /// Post-copy only: average latency of a remote fault.
    pub avg_fault_latency: Nanoseconds,
    /// Per-round breakdown: one entry per memory-copy round, in order.
    /// Pre-copy appends a final entry for the paused stop-phase copy;
    /// stop-and-copy and post-copy record their single bulk copy. The
    /// direct oracle and the stream populate it identically at every stream
    /// count (proptest-pinned).
    pub(crate) rounds_breakdown: Vec<RoundStat>,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MigrationReport {
        /// The overhead factor: bytes moved relative to the VM's RAM size
        /// (1.0 means every page moved exactly once).
        pub(crate) fn transfer_amplification(&self) -> f64 {
            if self.memory_size.as_u64() == 0 {
                0.0
            } else {
                self.bytes_transferred as f64 / self.memory_size.as_u64() as f64
            }
        }
    }

    impl MigrationReport {
        /// Effective throughput over the whole migration.
        pub(crate) fn effective_bandwidth_bytes_per_sec(&self) -> f64 {
            let secs = self.total_time.as_secs_f64();
            if secs == 0.0 {
                0.0
            } else {
                self.bytes_transferred as f64 / secs
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<_> = [
            MigrationKind::StopAndCopy,
            MigrationKind::PreCopy,
            MigrationKind::PostCopy,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn derived_metrics() {
        let r = MigrationReport {
            kind: MigrationKind::PreCopy,
            downtime: Nanoseconds::from_millis(50),
            total_time: Nanoseconds::from_secs(2),
            rounds: 3,
            bytes_transferred: 2 * (1 << 30),
            pages_transferred: 1 << 19,
            memory_size: ByteSize::gib(1),
            converged: true,
            remote_faults: 0,
            avg_fault_latency: Nanoseconds::ZERO,
            rounds_breakdown: vec![
                RoundStat {
                    pages: 1 << 18,
                    bytes: 1 << 30,
                    duration: Nanoseconds::from_secs(1),
                },
                RoundStat {
                    pages: 1 << 18,
                    bytes: 1 << 30,
                    duration: Nanoseconds::from_secs(1),
                },
            ],
        };
        assert!((r.transfer_amplification() - 2.0).abs() < 1e-9);
        assert!((r.effective_bandwidth_bytes_per_sec() - (1 << 30) as f64).abs() < 1.0);

        let degenerate = MigrationReport {
            memory_size: ByteSize::ZERO,
            total_time: Nanoseconds::ZERO,
            ..r
        };
        assert_eq!(degenerate.transfer_amplification(), 0.0);
        assert_eq!(degenerate.effective_bandwidth_bytes_per_sec(), 0.0);
    }
}
