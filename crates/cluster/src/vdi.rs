//! Virtual Desktop Infrastructure (VDI) density estimation.
//!
//! The source document lists VDI as its next step, and density — how many
//! desktops one consolidation host carries before users notice — is the
//! number every VDI evaluation leads with. Desktop guests differ from the
//! server fleet in three ways that all *raise* density:
//!
//! * they are idle most of the time (low sustained CPU per vCPU), so vCPUs
//!   can be oversubscribed far beyond server ratios;
//! * they are cloned from a single golden image, so content-based page
//!   sharing ([`rvisor_memory::ksm`]) collapses a large fraction of their
//!   memory;
//! * their working sets are small, so ballooning reclaims most of the rest.
//!
//! [`VdiEstimator`] combines those three effects over a [`HostSpec`] and a
//! [`DesktopProfile`] and reports which resource limits density — the
//! figure the E12 example sweeps. The sharing fraction can either be
//! assumed (a planning number) or measured by running
//! [`rvisor_memory::ksm::analyze_sharing`] over real
//! [`GuestMemory`](rvisor_memory::GuestMemory) instances and passing the
//! result in.

use serde::{Deserialize, Serialize};

use rvisor_memory::DedupAnalysis;
use rvisor_types::{ByteSize, Error, Result};

use crate::host::HostSpec;

/// The classic sizing archetypes for desktop users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesktopProfile {
    /// Light, bursty use: a browser, mail and one line-of-business app.
    TaskWorker,
    /// Steady multi-application use: office suite, browser tabs, calls.
    KnowledgeWorker,
    /// Developers / analysts with heavy local computation.
    PowerUser,
}

impl DesktopProfile {
    /// All profiles, for sweeps.
    pub const ALL: [DesktopProfile; 3] = [
        DesktopProfile::TaskWorker,
        DesktopProfile::KnowledgeWorker,
        DesktopProfile::PowerUser,
    ];

    /// A short name for benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            DesktopProfile::TaskWorker => "task-worker",
            DesktopProfile::KnowledgeWorker => "knowledge-worker",
            DesktopProfile::PowerUser => "power-user",
        }
    }

    /// Configured vCPUs per desktop.
    pub(crate) fn vcpus(self) -> u32 {
        match self {
            DesktopProfile::TaskWorker => 1,
            DesktopProfile::KnowledgeWorker => 2,
            DesktopProfile::PowerUser => 4,
        }
    }

    /// Configured memory per desktop.
    pub(crate) fn memory(self) -> ByteSize {
        match self {
            DesktopProfile::TaskWorker => ByteSize::gib(2),
            DesktopProfile::KnowledgeWorker => ByteSize::gib(4),
            DesktopProfile::PowerUser => ByteSize::gib(8),
        }
    }

    /// Long-run fraction of one core each vCPU actually consumes.
    fn active_fraction(self) -> f64 {
        match self {
            DesktopProfile::TaskWorker => 0.04,
            DesktopProfile::KnowledgeWorker => 0.08,
            DesktopProfile::PowerUser => 0.20,
        }
    }

    /// Fraction of configured memory the desktop actually keeps hot (its
    /// working set); the rest is reclaimable by the balloon.
    fn working_set_fraction(self) -> f64 {
        match self {
            DesktopProfile::TaskWorker => 0.35,
            DesktopProfile::KnowledgeWorker => 0.50,
            DesktopProfile::PowerUser => 0.70,
        }
    }
}

/// The overcommit and sharing assumptions the estimate is made under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VdiConfig {
    /// Desktop archetype being hosted.
    pub profile: DesktopProfile,
    /// Maximum tolerated vCPU:pCPU ratio (admission-control limit; 1.0 means
    /// no CPU oversubscription at all).
    pub max_vcpu_per_core: f64,
    /// Fraction of each desktop's memory eliminated by content-based page
    /// sharing (0.0–0.95). Golden-image pools typically measure 0.3–0.5.
    pub page_sharing_fraction: f64,
    /// Fraction of the *idle* (non-working-set) memory the balloon reclaims.
    pub balloon_reclaim_fraction: f64,
    /// Host memory held back for the hypervisor and per-VM overheads.
    pub host_reserved_memory: ByteSize,
}

impl VdiConfig {
    /// A conservative starting point for a given profile: 6:1 vCPU
    /// oversubscription, 35 % page sharing, 70 % of idle memory ballooned
    /// out, 1 GiB reserved for the hypervisor.
    pub fn typical(profile: DesktopProfile) -> Self {
        VdiConfig {
            profile,
            max_vcpu_per_core: 6.0,
            page_sharing_fraction: 0.35,
            balloon_reclaim_fraction: 0.7,
            host_reserved_memory: ByteSize::gib(1),
        }
    }

    /// Replace the assumed sharing fraction with one measured by
    /// [`rvisor_memory::ksm::analyze_sharing`] over a sample of desktops.
    pub fn with_measured_sharing(mut self, analysis: &DedupAnalysis) -> Self {
        self.page_sharing_fraction = analysis.savings_fraction().clamp(0.0, 0.95);
        self
    }

    /// Validate the configuration.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(0.0..=0.95).contains(&self.page_sharing_fraction) {
            return Err(Error::Config(format!(
                "page sharing fraction {} outside [0, 0.95]",
                self.page_sharing_fraction
            )));
        }
        if !(0.0..=1.0).contains(&self.balloon_reclaim_fraction) {
            return Err(Error::Config(format!(
                "balloon reclaim fraction {} outside [0, 1]",
                self.balloon_reclaim_fraction
            )));
        }
        if self.max_vcpu_per_core < 1.0 {
            return Err(Error::Config(format!(
                "vCPU:pCPU ratio {} must be at least 1.0",
                self.max_vcpu_per_core
            )));
        }
        Ok(())
    }

    /// Host memory one desktop effectively consumes once sharing and
    /// ballooning are applied.
    pub(crate) fn effective_memory_per_desktop(&self) -> ByteSize {
        let configured = self.profile.memory().as_u64() as f64;
        // Page sharing removes a flat fraction of every page the guest maps...
        let after_sharing = configured * (1.0 - self.page_sharing_fraction);
        // ...and the balloon hands back part of what the guest is not using.
        let working = self.profile.working_set_fraction();
        let resident_fraction = working + (1.0 - working) * (1.0 - self.balloon_reclaim_fraction);
        ByteSize::new((after_sharing * resident_fraction).max(1.0) as u64)
    }
}

/// Which resource capped the density estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DensityLimit {
    /// Host memory ran out first.
    Memory,
    /// Sustained CPU demand ran out first.
    Cpu,
    /// The configured vCPU:pCPU admission ratio bound first.
    VcpuRatio,
}

impl DensityLimit {
    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DensityLimit::Memory => "memory",
            DensityLimit::Cpu => "cpu",
            DensityLimit::VcpuRatio => "vcpu-ratio",
        }
    }
}

/// The outcome of a density estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VdiDensityReport {
    /// Desktops per host.
    pub desktops: u64,
    /// The binding constraint.
    pub limited_by: DensityLimit,
    /// Desktops the host memory alone would allow.
    pub(crate) memory_bound: u64,
    /// Desktops the sustained CPU demand alone would allow.
    pub(crate) cpu_bound: u64,
    /// Desktops the vCPU:pCPU admission ratio alone would allow.
    pub(crate) vcpu_ratio_bound: u64,
    /// Host memory one desktop effectively consumes under the configuration.
    pub effective_memory_per_desktop: ByteSize,
}

impl VdiDensityReport {
    /// Density relative to a no-overcommit, no-sharing baseline on the same
    /// host (how much the memory techniques plus CPU oversubscription buy).
    pub fn improvement_over(&self, baseline: &VdiDensityReport) -> f64 {
        if baseline.desktops == 0 {
            0.0
        } else {
            self.desktops as f64 / baseline.desktops as f64
        }
    }
}

/// Estimates VDI density for a host under a [`VdiConfig`].
#[derive(Debug, Clone)]
pub struct VdiEstimator {
    host: HostSpec,
    config: VdiConfig,
}

impl VdiEstimator {
    /// Create an estimator.
    pub fn new(host: HostSpec, config: VdiConfig) -> Result<Self> {
        config.validate()?;
        Ok(VdiEstimator { host, config })
    }

    /// Compute the density estimate.
    pub fn density(&self) -> VdiDensityReport {
        let profile = self.config.profile;
        let effective = self.config.effective_memory_per_desktop();
        let usable_memory = self
            .host
            .memory
            .as_u64()
            .saturating_sub(self.config.host_reserved_memory.as_u64());
        let memory_bound = usable_memory / effective.as_u64().max(1);

        let cpu_demand = profile.vcpus() as f64 * profile.active_fraction();
        let cpu_bound = if cpu_demand <= 0.0 {
            u64::MAX
        } else {
            (self.host.cores as f64 / cpu_demand).floor() as u64
        };

        let vcpu_ratio_bound = ((self.host.cores as f64 * self.config.max_vcpu_per_core)
            / profile.vcpus() as f64)
            .floor() as u64;

        let desktops = memory_bound.min(cpu_bound).min(vcpu_ratio_bound);
        let limited_by = if desktops == memory_bound {
            DensityLimit::Memory
        } else if desktops == vcpu_ratio_bound {
            DensityLimit::VcpuRatio
        } else {
            DensityLimit::Cpu
        };

        VdiDensityReport {
            desktops,
            limited_by,
            memory_bound,
            cpu_bound,
            vcpu_ratio_bound,
            effective_memory_per_desktop: effective,
        }
    }

    /// The density with every overcommit technique disabled: no sharing, no
    /// ballooning, no CPU oversubscription. The denominator of the headline
    /// "Nx more desktops" figure.
    pub fn baseline_density(&self) -> VdiDensityReport {
        let baseline_config = VdiConfig {
            page_sharing_fraction: 0.0,
            balloon_reclaim_fraction: 0.0,
            max_vcpu_per_core: 1.0,
            ..self.config
        };
        VdiEstimator {
            host: self.host.clone(),
            config: baseline_config,
        }
        .density()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_memory::{analyze_sharing, GuestMemory};
    use rvisor_types::{GuestAddress, HostId, PAGE_SIZE};

    fn modern_host() -> HostSpec {
        HostSpec::modern_server(HostId::new(0)) // 32 cores / 128 GiB
    }

    #[test]
    fn profiles_are_ordered_by_weight() {
        let light = DesktopProfile::TaskWorker;
        let heavy = DesktopProfile::PowerUser;
        assert!(light.memory() < heavy.memory());
        assert!(light.active_fraction() < heavy.active_fraction());
        assert!(light.working_set_fraction() < heavy.working_set_fraction());
        let names: std::collections::BTreeSet<_> =
            DesktopProfile::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut cfg = VdiConfig::typical(DesktopProfile::TaskWorker);
        cfg.page_sharing_fraction = 0.99;
        assert!(VdiEstimator::new(modern_host(), cfg).is_err());
        let mut cfg = VdiConfig::typical(DesktopProfile::TaskWorker);
        cfg.balloon_reclaim_fraction = 1.5;
        assert!(VdiEstimator::new(modern_host(), cfg).is_err());
        let mut cfg = VdiConfig::typical(DesktopProfile::TaskWorker);
        cfg.max_vcpu_per_core = 0.5;
        assert!(VdiEstimator::new(modern_host(), cfg).is_err());
    }

    #[test]
    fn effective_memory_shrinks_with_each_technique() {
        let base = VdiConfig {
            page_sharing_fraction: 0.0,
            balloon_reclaim_fraction: 0.0,
            ..VdiConfig::typical(DesktopProfile::KnowledgeWorker)
        };
        let with_sharing = VdiConfig {
            page_sharing_fraction: 0.4,
            ..base
        };
        let with_both = VdiConfig {
            balloon_reclaim_fraction: 0.7,
            ..with_sharing
        };
        assert_eq!(
            base.effective_memory_per_desktop(),
            DesktopProfile::KnowledgeWorker.memory()
        );
        assert!(with_sharing.effective_memory_per_desktop() < base.effective_memory_per_desktop());
        assert!(
            with_both.effective_memory_per_desktop() < with_sharing.effective_memory_per_desktop()
        );
    }

    #[test]
    fn overcommit_multiplies_density() {
        let est = VdiEstimator::new(
            modern_host(),
            VdiConfig::typical(DesktopProfile::KnowledgeWorker),
        )
        .unwrap();
        let tuned = est.density();
        let baseline = est.baseline_density();
        // Without any overcommit the host carries a few dozen desktops at
        // most (the 1:1 vCPU ratio binds at 16 two-vCPU desktops on 32
        // cores); sharing + ballooning + CPU oversubscription should at
        // least double it.
        assert!(
            baseline.desktops >= 10 && baseline.desktops <= 32,
            "baseline {baseline:?}"
        );
        assert!(tuned.desktops >= 2 * baseline.desktops, "tuned {tuned:?}");
        assert!(tuned.improvement_over(&baseline) >= 2.0);
    }

    #[test]
    fn power_users_hit_cpu_before_memory() {
        let cfg = VdiConfig {
            // Plenty of memory headroom but a strict CPU picture.
            page_sharing_fraction: 0.5,
            balloon_reclaim_fraction: 0.9,
            max_vcpu_per_core: 16.0,
            ..VdiConfig::typical(DesktopProfile::PowerUser)
        };
        let report = VdiEstimator::new(modern_host(), cfg).unwrap().density();
        assert_eq!(report.limited_by, DensityLimit::Cpu);
        assert!(report.cpu_bound < report.memory_bound);
    }

    #[test]
    fn strict_admission_ratio_binds() {
        let cfg = VdiConfig {
            max_vcpu_per_core: 1.0,
            ..VdiConfig::typical(DesktopProfile::TaskWorker)
        };
        let report = VdiEstimator::new(modern_host(), cfg).unwrap().density();
        assert_eq!(report.limited_by, DensityLimit::VcpuRatio);
        assert_eq!(report.vcpu_ratio_bound, 32);
        assert_eq!(report.desktops, 32);
    }

    #[test]
    fn measured_sharing_feeds_the_estimate() {
        // Three "desktops" cloned from the same golden image: half of their
        // pages are common OS text, half are private.
        let desktops: Vec<GuestMemory> = (0u64..3)
            .map(|d| {
                let mem = GuestMemory::flat(ByteSize::pages_of(64)).unwrap();
                for p in 0..64u64 {
                    let value = if p < 32 {
                        0xba5e_0000 + p
                    } else {
                        (d + 1) * 1_000_000 + p
                    };
                    mem.write_u64(GuestAddress(p * PAGE_SIZE), value).unwrap();
                }
                mem
            })
            .collect();
        let analysis = analyze_sharing(desktops.iter()).unwrap();
        assert!(analysis.savings_fraction() > 0.25 && analysis.savings_fraction() < 0.45);

        let assumed = VdiConfig::typical(DesktopProfile::TaskWorker);
        let measured = assumed.with_measured_sharing(&analysis);
        assert!((measured.page_sharing_fraction - analysis.savings_fraction()).abs() < 1e-12);
        let a = VdiEstimator::new(modern_host(), assumed).unwrap().density();
        let b = VdiEstimator::new(modern_host(), measured)
            .unwrap()
            .density();
        // Both are valid estimates; the measured one just uses the measured fraction.
        assert!(a.desktops > 0 && b.desktops > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Density is monotone: more sharing or more balloon reclaim never
            /// lowers the estimate, and the reported bound is consistent.
            #[test]
            fn density_is_monotone_in_sharing(
                sharing_a in 0.0f64..0.9,
                sharing_b in 0.0f64..0.9,
                reclaim in 0.0f64..1.0,
                profile_idx in 0usize..3,
            ) {
                let (lo, hi) = if sharing_a <= sharing_b { (sharing_a, sharing_b) } else { (sharing_b, sharing_a) };
                let profile = DesktopProfile::ALL[profile_idx];
                let mk = |sharing: f64| {
                    let cfg = VdiConfig {
                        page_sharing_fraction: sharing,
                        balloon_reclaim_fraction: reclaim,
                        ..VdiConfig::typical(profile)
                    };
                    VdiEstimator::new(HostSpec::modern_server(rvisor_types::HostId::new(0)), cfg)
                        .unwrap()
                        .density()
                };
                let low = mk(lo);
                let high = mk(hi);
                prop_assert!(high.desktops >= low.desktops);
                for r in [&low, &high] {
                    let min_bound = r.memory_bound.min(r.cpu_bound).min(r.vcpu_ratio_bound);
                    prop_assert_eq!(r.desktops, min_bound);
                }
            }
        }
    }
}
