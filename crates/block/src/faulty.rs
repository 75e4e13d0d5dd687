//! A fault-injecting block backend for failure-path testing.
//!
//! Storage fails: disks develop bad sectors, controllers time out, RAID
//! rebuilds surface latent read errors. A VMM's device models and the guests
//! above them have to surface those failures cleanly (an I/O error completion
//! in the virtqueue used ring) rather than corrupting data or wedging the
//! queue. [`FaultyDisk`] wraps any [`BlockBackend`] and injects failures
//! according to a deterministic [`FaultPlan`], so the failure paths of the
//! virtio-blk device, the emulated disk and the snapshot/backup code can be
//! exercised in ordinary unit tests and in the failure-injection suite.
//!
//! Determinism matters: a probabilistic fault is driven by a seeded
//! linear-congruential generator, so a failing test case reproduces exactly.

use crate::backend::{BlockBackend, BlockStats, SECTOR_SIZE};
use rvisor_types::{Error, Result};

/// Which operations a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Only reads fail.
    Read,
    /// Only writes fail.
    Write,
    /// Reads and writes fail (flushes are never failed by range rules).
    Any,
}

impl FaultKind {
    fn matches(self, is_write: bool) -> bool {
        match self {
            FaultKind::Read => !is_write,
            FaultKind::Write => is_write,
            FaultKind::Any => true,
        }
    }
}

/// A deterministic description of which requests fail.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail every request touching any sector in these inclusive ranges
    /// (models bad sectors / a failed stripe).
    bad_ranges: Vec<(u64, u64, FaultKind)>,
    /// Fail the n-th request (1-based, counted across reads and writes).
    fail_on_request: Vec<u64>,
    /// Probability (0.0–1.0) that any given request fails transiently.
    transient_rate: f64,
    /// Seed for the transient-failure generator.
    seed: u64,
    /// After this many failures the disk "recovers" and stops injecting
    /// (0 = never recovers).
    recover_after_failures: u64,
}

impl FaultPlan {
    /// A plan that never fails anything.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fail every request overlapping `[first_sector, last_sector]`.
    pub fn with_bad_range(mut self, first_sector: u64, last_sector: u64, kind: FaultKind) -> Self {
        self.bad_ranges
            .push((first_sector, last_sector.max(first_sector), kind));
        self
    }

    /// Stop injecting after `n` failures (models a transient outage that heals).
    pub fn with_recovery_after(mut self, n: u64) -> Self {
        self.recover_after_failures = n;
        self
    }
}

/// Counters describing injected faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Requests that were allowed through to the inner backend.
    pub passed: u64,
    /// Requests failed by a bad-sector range rule.
    pub range_failures: u64,
    /// Requests failed by an n-th-request rule.
    pub(crate) scheduled_failures: u64,
    /// Requests failed by the transient-rate rule.
    pub(crate) transient_failures: u64,
}

impl FaultStats {
    /// Total injected failures.
    fn total_failures(&self) -> u64 {
        self.range_failures + self.scheduled_failures + self.transient_failures
    }
}

/// A [`BlockBackend`] wrapper that injects failures per a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyDisk<B: BlockBackend> {
    inner: B,
    plan: FaultPlan,
    requests_seen: u64,
    rng_state: u64,
    stats: FaultStats,
}

impl<B: BlockBackend> FaultyDisk<B> {
    /// Wrap `inner` with the given fault plan.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        let rng_state = plan.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        FaultyDisk {
            inner,
            plan,
            requests_seen: 0,
            rng_state,
            stats: FaultStats::default(),
        }
    }

    /// Injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    fn healed(&self) -> bool {
        self.plan.recover_after_failures > 0
            && self.stats.total_failures() >= self.plan.recover_after_failures
    }

    fn next_random_unit(&mut self) -> f64 {
        // Numerical Recipes LCG: deterministic, good enough for fault injection.
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng_state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide whether this request fails; updates counters.
    fn check(&mut self, sector: u64, len: usize, is_write: bool) -> Result<()> {
        self.requests_seen += 1;
        if self.healed() {
            self.stats.passed += 1;
            return Ok(());
        }
        let sectors = (len as u64).div_ceil(SECTOR_SIZE).max(1);
        let last = sector + sectors - 1;
        for &(first, range_last, kind) in &self.plan.bad_ranges {
            if kind.matches(is_write) && sector <= range_last && last >= first {
                self.stats.range_failures += 1;
                return Err(Error::Block(format!(
                    "injected medium error: sectors {first}..={range_last}"
                )));
            }
        }
        if self.plan.fail_on_request.contains(&self.requests_seen) {
            self.stats.scheduled_failures += 1;
            return Err(Error::Block(format!(
                "injected failure on request #{}",
                self.requests_seen
            )));
        }
        if self.plan.transient_rate > 0.0 && self.next_random_unit() < self.plan.transient_rate {
            self.stats.transient_failures += 1;
            return Err(Error::Block("injected transient I/O error".into()));
        }
        self.stats.passed += 1;
        Ok(())
    }
}

impl<B: BlockBackend> BlockBackend for FaultyDisk<B> {
    fn capacity_sectors(&self) -> u64 {
        self.inner.capacity_sectors()
    }

    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<()> {
        self.check(sector, buf.len(), false)?;
        self.inner.read_sectors(sector, buf)
    }

    fn write_sectors(&mut self, sector: u64, buf: &[u8]) -> Result<()> {
        self.check(sector, buf.len(), true)?;
        self.inner.write_sectors(sector, buf)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn stats(&self) -> BlockStats {
        self.inner.stats()
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ram::RamDisk;
    use rvisor_types::ByteSize;

    impl FaultPlan {
        /// Fail the `n`-th request (1-based) regardless of its target.
        fn with_failure_on_request(mut self, n: u64) -> Self {
            self.fail_on_request.push(n);
            self
        }

        /// Fail requests at random with probability `rate`, driven by `seed`.
        fn with_transient_rate(mut self, rate: f64, seed: u64) -> Self {
            self.transient_rate = rate.clamp(0.0, 1.0);
            self.seed = seed;
            self
        }
    }

    fn disk() -> RamDisk {
        RamDisk::new(ByteSize::mib(1))
    }

    #[test]
    fn no_plan_is_transparent() {
        let mut d = FaultyDisk::new(disk(), FaultPlan::none());
        let data = vec![7u8; 512];
        d.write_sectors(10, &data).unwrap();
        let mut out = vec![0u8; 512];
        d.read_sectors(10, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(d.fault_stats().total_failures(), 0);
        assert_eq!(d.fault_stats().passed, 2);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn bad_range_fails_overlapping_requests_only() {
        let plan = FaultPlan::none().with_bad_range(100, 103, FaultKind::Any);
        let mut d = FaultyDisk::new(disk(), plan);
        let buf = vec![1u8; 1024];

        // Entirely before / after the bad range: fine.
        d.write_sectors(98, &buf[..512]).unwrap();
        d.write_sectors(104, &buf[..512]).unwrap();
        // Overlapping: fails, and the inner disk never sees the request.
        assert!(d.write_sectors(99, &buf).is_err());
        assert!(d.write_sectors(103, &buf[..512]).is_err());
        let mut out = vec![0u8; 512];
        assert!(d.read_sectors(101, &mut out).is_err());
        assert_eq!(d.fault_stats().range_failures, 3);
        assert_eq!(
            d.stats().writes,
            2,
            "failed writes must not reach the inner backend"
        );
    }

    #[test]
    fn read_only_and_write_only_fault_kinds() {
        let plan = FaultPlan::none().with_bad_range(0, 0, FaultKind::Read);
        let mut d = FaultyDisk::new(disk(), plan);
        let buf = vec![3u8; 512];
        d.write_sectors(0, &buf).unwrap();
        let mut out = vec![0u8; 512];
        assert!(d.read_sectors(0, &mut out).is_err());

        let plan = FaultPlan::none().with_bad_range(0, 0, FaultKind::Write);
        let mut d = FaultyDisk::new(disk(), plan);
        assert!(d.write_sectors(0, &buf).is_err());
        d.read_sectors(0, &mut out).unwrap();
    }

    #[test]
    fn scheduled_failure_hits_exactly_the_nth_request() {
        let plan = FaultPlan::none().with_failure_on_request(3);
        let mut d = FaultyDisk::new(disk(), plan);
        let buf = vec![9u8; 512];
        d.write_sectors(0, &buf).unwrap();
        d.write_sectors(1, &buf).unwrap();
        assert!(d.write_sectors(2, &buf).is_err());
        d.write_sectors(3, &buf).unwrap();
        assert_eq!(d.fault_stats().scheduled_failures, 1);
    }

    #[test]
    fn transient_failures_are_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::none().with_transient_rate(0.3, seed);
            let mut d = FaultyDisk::new(disk(), plan);
            let buf = vec![5u8; 512];
            let mut outcomes = Vec::new();
            for s in 0..64 {
                outcomes.push(d.write_sectors(s, &buf).is_ok());
            }
            (outcomes, d.fault_stats().transient_failures)
        };
        let (a, fa) = run(42);
        let (b, fb) = run(42);
        let (c, _) = run(43);
        assert_eq!(a, b, "same seed must give the same fault pattern");
        assert_eq!(fa, fb);
        assert_ne!(a, c, "different seeds should give different patterns");
        assert!(
            fa > 0,
            "a 30% rate over 64 requests should fail at least once"
        );
        assert!(fa < 40, "a 30% rate should not fail most requests");
    }

    #[test]
    fn recovery_stops_injection() {
        let plan = FaultPlan::none()
            .with_bad_range(0, u64::MAX, FaultKind::Any)
            .with_recovery_after(2);
        let mut d = FaultyDisk::new(disk(), plan);
        let buf = vec![1u8; 512];
        assert!(d.write_sectors(0, &buf).is_err());
        assert!(d.write_sectors(0, &buf).is_err());
        // Healed: everything passes from now on.
        d.write_sectors(0, &buf).unwrap();
        d.write_sectors(1, &buf).unwrap();
        assert_eq!(d.fault_stats().total_failures(), 2);
        assert_eq!(d.fault_stats().passed, 2);
    }

    #[test]
    fn data_written_around_faults_is_intact() {
        let plan = FaultPlan::none().with_bad_range(50, 59, FaultKind::Any);
        let mut d = FaultyDisk::new(disk(), plan);
        for s in 0..100u64 {
            let buf = vec![s as u8; 512];
            let _ = d.write_sectors(s, &buf);
        }
        // Everything outside the bad range is readable and correct.
        for s in (0..50u64).chain(60..100) {
            let mut out = vec![0u8; 512];
            d.read_sectors(s, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == s as u8), "sector {s} corrupted");
        }
        assert_eq!(d.fault_stats().range_failures, 10);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Whatever the fault plan, a successful read returns exactly what
            /// a successful write stored, and failed requests never corrupt
            /// neighbouring sectors.
            #[test]
            fn successful_io_is_always_correct(
                rate in 0.0f64..0.9,
                seed in 0u64..1000,
                sectors in proptest::collection::vec(0u64..128, 1..40),
            ) {
                let plan = FaultPlan::none().with_transient_rate(rate, seed);
                let mut d = FaultyDisk::new(RamDisk::new(ByteSize::kib(128)), plan);
                let mut expected: std::collections::HashMap<u64, u8> = Default::default();
                for (i, &s) in sectors.iter().enumerate() {
                    let value = (i % 251) as u8;
                    if d.write_sectors(s, &vec![value; 512]).is_ok() {
                        expected.insert(s, value);
                    }
                }
                for (&s, &value) in &expected {
                    let mut out = vec![0u8; 512];
                    if d.read_sectors(s, &mut out).is_ok() {
                        prop_assert!(out.iter().all(|&b| b == value));
                    }
                }
                let fs = d.fault_stats();
                prop_assert_eq!(
                    fs.passed + fs.total_failures(),
                    sectors.len() as u64 + expected.len() as u64
                );
            }
        }
    }
}
