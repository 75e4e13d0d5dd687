//! Consolidation planning: packing VMs onto as few hosts as possible.

use serde::{Deserialize, Serialize};

use rvisor_types::{Error, HostId, Result};

use crate::host::{Host, HostSpec};
use crate::vmspec::VmSpec;

/// How the planner assigns VMs to hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// First-fit-decreasing bin packing by memory (the consolidation default).
    FirstFitDecreasing,
    /// One VM per host — the "before virtualization" baseline of one physical
    /// server per workload.
    OnePerHost,
    /// Round-robin spreading across all provided hosts (load-balanced but not
    /// consolidation-optimal).
    Spread,
}

impl PlacementStrategy {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            PlacementStrategy::FirstFitDecreasing => "first-fit-decreasing",
            PlacementStrategy::OnePerHost => "one-per-host",
            PlacementStrategy::Spread => "spread",
        }
    }
}

/// The outcome of a planning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsolidationPlan {
    /// Hosts with their placed VMs (only hosts that received at least one VM).
    pub hosts: Vec<Host>,
    /// VMs that could not be placed anywhere.
    pub unplaced: Vec<VmSpec>,
}

impl ConsolidationPlan {
    /// Number of hosts actually used.
    pub fn hosts_used(&self) -> usize {
        self.hosts.iter().filter(|h| h.vm_count() > 0).count()
    }

    /// Total VMs placed.
    pub fn vms_placed(&self) -> usize {
        self.hosts.iter().map(|h| h.vm_count()).sum()
    }

    /// Virtual-to-physical consolidation ratio (VMs per used host).
    pub fn consolidation_ratio(&self) -> f64 {
        let used = self.hosts_used();
        if used == 0 {
            0.0
        } else {
            self.vms_placed() as f64 / used as f64
        }
    }

    /// Average memory utilisation of the used hosts (committed / installed).
    pub fn avg_memory_utilization(&self) -> f64 {
        let used: Vec<&Host> = self.hosts.iter().filter(|h| h.vm_count() > 0).collect();
        if used.is_empty() {
            return 0.0;
        }
        used.iter()
            .map(|h| h.memory_committed().as_u64() as f64 / h.spec.memory.as_u64() as f64)
            .sum::<f64>()
            / used.len() as f64
    }

    /// Total electrical draw of the used hosts, in watts.
    pub fn total_power_watts(&self) -> f64 {
        self.hosts
            .iter()
            .filter(|h| h.vm_count() > 0)
            .map(|h| h.power_watts())
            .sum()
    }
}

/// Plans VM-to-host assignments.
#[derive(Debug, Clone)]
pub struct ConsolidationPlanner {
    host_template: HostSpec,
    max_hosts: usize,
    memory_overcommit: f64,
}

impl ConsolidationPlanner {
    /// Create a planner that may use up to `max_hosts` hosts of the given shape.
    pub fn new(host_template: HostSpec, max_hosts: usize) -> Self {
        ConsolidationPlanner {
            host_template,
            max_hosts,
            memory_overcommit: 1.0,
        }
    }

    /// Allow memory overcommit up to `factor` (relies on ballooning).
    pub fn with_memory_overcommit(mut self, factor: f64) -> Self {
        self.memory_overcommit = factor.max(1.0);
        self
    }

    fn make_host(&self, index: usize) -> Host {
        let mut spec = self.host_template.clone();
        spec.id = HostId::new(index as u32);
        Host::with_overcommit(spec, self.memory_overcommit)
    }

    /// Produce a plan for `vms` using `strategy`.
    pub fn plan(&self, vms: &[VmSpec], strategy: PlacementStrategy) -> Result<ConsolidationPlan> {
        if self.max_hosts == 0 {
            return Err(Error::Config("planner allows zero hosts".into()));
        }
        let mut hosts: Vec<Host> = Vec::new();
        let mut unplaced = Vec::new();

        match strategy {
            PlacementStrategy::OnePerHost => {
                for vm in vms {
                    if hosts.len() >= self.max_hosts {
                        unplaced.push(vm.clone());
                        continue;
                    }
                    let mut h = self.make_host(hosts.len());
                    match h.place(vm.clone()) {
                        Ok(()) => hosts.push(h),
                        Err(_) => unplaced.push(vm.clone()),
                    }
                }
            }
            PlacementStrategy::FirstFitDecreasing => {
                let mut sorted: Vec<VmSpec> = vms.to_vec();
                sorted.sort_by(|a, b| b.memory.cmp(&a.memory).then(a.name.cmp(&b.name)));
                for vm in sorted {
                    let slot = hosts.iter_mut().find(|h| h.fits(&vm));
                    match slot {
                        Some(h) => h.place(vm).expect("fits() was checked"),
                        None => {
                            if hosts.len() < self.max_hosts {
                                let mut h = self.make_host(hosts.len());
                                if h.place(vm.clone()).is_ok() {
                                    hosts.push(h);
                                } else {
                                    unplaced.push(vm);
                                }
                            } else {
                                unplaced.push(vm);
                            }
                        }
                    }
                }
            }
            PlacementStrategy::Spread => {
                for i in 0..self.max_hosts {
                    hosts.push(self.make_host(i));
                }
                for (i, vm) in vms.iter().enumerate() {
                    let n = hosts.len();
                    let mut placed = false;
                    for attempt in 0..n {
                        let idx = (i + attempt) % n;
                        if hosts[idx].fits(vm) {
                            hosts[idx].place(vm.clone()).expect("fits() was checked");
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        unplaced.push(vm.clone());
                    }
                }
                hosts.retain(|h| h.vm_count() > 0);
            }
        }

        Ok(ConsolidationPlan { hosts, unplaced })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmspec::ServerRole;
    use proptest::prelude::*;

    impl ConsolidationPlan {
        /// Which host a named VM landed on.
        pub(crate) fn host_of(&self, vm_name: &str) -> Option<HostId> {
            self.hosts
                .iter()
                .find(|h| h.placed.iter().any(|v| v.name == vm_name))
                .map(|h| h.spec.id)
        }
    }

    fn planner(max_hosts: usize) -> ConsolidationPlanner {
        ConsolidationPlanner::new(HostSpec::deck_era_server(HostId::new(0)), max_hosts)
    }

    #[test]
    fn ffd_consolidates_the_deck_fleet_at_3_to_4_per_host() {
        let fleet = VmSpec::nireus_fleet();
        let plan = planner(60)
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .unwrap();
        assert!(plan.unplaced.is_empty());
        assert_eq!(plan.vms_placed(), 50);
        let ratio = plan.consolidation_ratio();
        assert!(
            (3.0..=8.0).contains(&ratio),
            "consolidation ratio {ratio} outside the plausible range"
        );
        assert!(plan.hosts_used() < 20);
        assert!(plan.avg_memory_utilization() > 0.5);
    }

    #[test]
    fn one_per_host_matches_physical_estate() {
        let fleet = VmSpec::nireus_fleet();
        let plan = planner(60)
            .plan(&fleet, PlacementStrategy::OnePerHost)
            .unwrap();
        assert_eq!(plan.hosts_used(), 50);
        assert!((plan.consolidation_ratio() - 1.0).abs() < 1e-9);
        assert!(
            plan.total_power_watts()
                > planner(60)
                    .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
                    .unwrap()
                    .total_power_watts()
        );
    }

    #[test]
    fn spread_uses_all_hosts() {
        let fleet = VmSpec::nireus_fleet();
        let plan = planner(25).plan(&fleet, PlacementStrategy::Spread).unwrap();
        assert!(plan.unplaced.is_empty());
        assert_eq!(plan.hosts_used(), 25);
        assert!(
            plan.consolidation_ratio()
                < planner(60)
                    .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
                    .unwrap()
                    .consolidation_ratio()
        );
    }

    #[test]
    fn host_limit_produces_unplaced_vms() {
        let fleet = VmSpec::nireus_fleet();
        let plan = planner(3)
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .unwrap();
        assert!(!plan.unplaced.is_empty());
        assert_eq!(plan.vms_placed() + plan.unplaced.len(), 50);
        assert!(planner(0)
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .is_err());
    }

    #[test]
    fn overcommit_reduces_hosts_needed() {
        let fleet = VmSpec::nireus_fleet();
        let strict = planner(60)
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .unwrap();
        let relaxed = planner(60)
            .with_memory_overcommit(1.5)
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .unwrap();
        assert!(relaxed.hosts_used() <= strict.hosts_used());
    }

    #[test]
    fn plan_accessors() {
        let fleet = vec![
            VmSpec::typical("a", ServerRole::Web),
            VmSpec::typical("b", ServerRole::Web),
        ];
        let plan = planner(5)
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .unwrap();
        assert_eq!(plan.hosts_used(), 1);
        assert!(plan.host_of("a").is_some());
        assert_eq!(plan.host_of("a"), plan.host_of("b"));
        assert!(plan.host_of("missing").is_none());
        assert_eq!(
            PlacementStrategy::FirstFitDecreasing.name(),
            "first-fit-decreasing"
        );
        assert_eq!(PlacementStrategy::OnePerHost.name(), "one-per-host");
        assert_eq!(PlacementStrategy::Spread.name(), "spread");

        let empty = planner(5)
            .plan(&[], PlacementStrategy::FirstFitDecreasing)
            .unwrap();
        assert_eq!(empty.consolidation_ratio(), 0.0);
        assert_eq!(empty.avg_memory_utilization(), 0.0);
    }

    #[test]
    fn oversized_vm_is_reported_unplaced() {
        let huge = VmSpec::typical("huge", ServerRole::Database)
            .with_memory(rvisor_types::ByteSize::gib(64));
        let plan = planner(4)
            .plan(
                std::slice::from_ref(&huge),
                PlacementStrategy::FirstFitDecreasing,
            )
            .unwrap();
        assert_eq!(plan.unplaced, vec![huge.clone()]);
        let plan = planner(4)
            .plan(std::slice::from_ref(&huge), PlacementStrategy::OnePerHost)
            .unwrap();
        assert_eq!(plan.unplaced.len(), 1);
        let plan = planner(4).plan(&[huge], PlacementStrategy::Spread).unwrap();
        assert_eq!(plan.unplaced.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn every_vm_is_placed_or_unplaced_exactly_once(seed_counts in proptest::collection::vec(0usize..6, 9)) {
            let mut fleet = Vec::new();
            for (i, (&count, role)) in seed_counts.iter().zip(ServerRole::ALL).enumerate() {
                for j in 0..count {
                    fleet.push(VmSpec::typical(&format!("vm-{i}-{j}"), role));
                }
            }
            for strategy in [PlacementStrategy::FirstFitDecreasing, PlacementStrategy::OnePerHost, PlacementStrategy::Spread] {
                let plan = planner(10).plan(&fleet, strategy).unwrap();
                prop_assert_eq!(plan.vms_placed() + plan.unplaced.len(), fleet.len());
                // No host exceeds its capacity.
                for h in &plan.hosts {
                    prop_assert!(h.memory_committed().as_u64() <= h.memory_capacity().as_u64());
                    prop_assert!(h.cpu_committed() <= h.spec.cores as f64 + 1e-9);
                }
            }
        }
    }
}
