//! The host scheduling simulation.
//!
//! Drives a [`Scheduler`] over a set of vCPU entities for a configurable
//! number of quanta and reports who got how much CPU, how fair that was, and
//! how much switching it cost — the rows of the scheduler experiment (E5).

use std::collections::BTreeMap;

use crate::entity::{EntityId, VcpuEntity};
use crate::metrics::{fairness_index, weighted_share_error};
use crate::schedulers::Scheduler;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of physical CPUs on the host.
    pub pcpus: usize,
    /// Number of scheduling quanta to simulate.
    pub quanta: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            pcpus: 4,
            quanta: 1000,
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Quanta each entity ran.
    pub(crate) runtime_quanta: BTreeMap<EntityId, u64>,
    /// Number of times a pCPU switched from one entity to a different one
    /// between consecutive quanta.
    pub context_switches: u64,
    /// Jain's fairness index over runtime (1.0 = perfectly even).
    pub jain_index: f64,
    /// Maximum relative deviation from the weight-entitled share.
    pub weighted_error: f64,
    /// Fraction of pCPU-quanta that had something scheduled on them.
    pub utilization: f64,
}

impl SimReport {
    /// The share of total delivered CPU an entity received (0..=1).
    pub fn share_of(&self, id: EntityId) -> f64 {
        let total: u64 = self.runtime_quanta.values().sum();
        if total == 0 {
            0.0
        } else {
            *self.runtime_quanta.get(&id).unwrap_or(&0) as f64 / total as f64
        }
    }
}

/// Runs a scheduler over a workload.
#[derive(Debug)]
pub struct HostSim {
    config: SimConfig,
    entities: Vec<VcpuEntity>,
}

impl HostSim {
    /// Create a simulation with the given host configuration.
    pub fn new(config: SimConfig) -> Self {
        HostSim {
            config,
            entities: Vec::new(),
        }
    }

    /// Add a vCPU entity to the workload.
    pub fn add_entity(&mut self, entity: VcpuEntity) -> &mut Self {
        self.entities.push(entity);
        self
    }

    /// Run `scheduler` over the workload and produce a report.
    pub fn run(&self, scheduler: &mut dyn Scheduler) -> SimReport {
        for e in &self.entities {
            scheduler.add_entity(*e);
        }
        let mut runtime: BTreeMap<EntityId, u64> =
            self.entities.iter().map(|e| (e.id, 0)).collect();
        let mut last_assignment: Vec<Option<EntityId>> = vec![None; self.config.pcpus];
        let mut context_switches = 0u64;
        let mut busy_pcpu_quanta = 0u64;

        for q in 0..self.config.quanta {
            let runnable: Vec<EntityId> = self
                .entities
                .iter()
                .filter(|e| e.runnable.is_runnable(q))
                .map(|e| e.id)
                .collect();
            let picked = scheduler.pick(self.config.pcpus, &runnable, q);
            for (slot, id) in picked.iter().enumerate() {
                scheduler.charge(*id, q);
                *runtime.entry(*id).or_insert(0) += 1;
                busy_pcpu_quanta += 1;
                if slot < last_assignment.len() {
                    if let Some(prev) = last_assignment[slot] {
                        if prev != *id {
                            context_switches += 1;
                        }
                    }
                    last_assignment[slot] = Some(*id);
                }
            }
            for slot in last_assignment
                .iter_mut()
                .take(self.config.pcpus)
                .skip(picked.len())
            {
                *slot = None;
            }
        }

        let allocations: Vec<f64> = self
            .entities
            .iter()
            .map(|e| runtime[&e.id] as f64)
            .collect();
        let weights: Vec<u32> = self.entities.iter().map(|e| e.weight).collect();

        SimReport {
            scheduler: scheduler.name(),
            jain_index: fairness_index(&allocations),
            weighted_error: weighted_share_error(&allocations, &weights),
            runtime_quanta: runtime,
            context_switches,
            utilization: if self.config.quanta == 0 || self.config.pcpus == 0 {
                0.0
            } else {
                busy_pcpu_quanta as f64 / (self.config.quanta * self.config.pcpus as u64) as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::{CreditScheduler, RoundRobin, StrideScheduler};
    use rvisor_types::{VcpuId, VmId};

    impl HostSim {
        /// Add several entities.
        fn add_entities(&mut self, entities: &[VcpuEntity]) -> &mut Self {
            self.entities.extend_from_slice(entities);
            self
        }

        /// The configured entities.
        pub(crate) fn entities(&self) -> &[VcpuEntity] {
            &self.entities
        }
    }

    fn id(vm: u32) -> EntityId {
        EntityId::new(VmId::new(vm), VcpuId::new(0))
    }

    fn sim(pcpus: usize, quanta: u64) -> HostSim {
        HostSim::new(SimConfig { pcpus, quanta })
    }

    #[test]
    fn equal_weights_are_fair_under_all_schedulers() {
        let mut s = sim(2, 2000);
        for vm in 0..4 {
            s.add_entity(VcpuEntity::cpu_bound(id(vm)));
        }
        for report in [
            s.run(&mut RoundRobin::new()),
            s.run(&mut CreditScheduler::new()),
            s.run(&mut StrideScheduler::new()),
        ] {
            assert!(
                report.jain_index > 0.99,
                "{}: jain {}",
                report.scheduler,
                report.jain_index
            );
            assert!(
                report.weighted_error < 0.05,
                "{}: err {}",
                report.scheduler,
                report.weighted_error
            );
            assert!((report.utilization - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn credit_weighted_error_beats_round_robin_with_unequal_weights() {
        let mut s = sim(1, 4000);
        s.add_entity(VcpuEntity::cpu_bound(id(0)).with_weight(100));
        s.add_entity(VcpuEntity::cpu_bound(id(1)).with_weight(200));
        s.add_entity(VcpuEntity::cpu_bound(id(2)).with_weight(400));
        let rr = s.run(&mut RoundRobin::new());
        let credit = s.run(&mut CreditScheduler::new());
        let stride = s.run(&mut StrideScheduler::new());
        assert!(credit.weighted_error < rr.weighted_error);
        assert!(stride.weighted_error < rr.weighted_error);
        assert!(
            credit.weighted_error < 0.15,
            "credit err {}",
            credit.weighted_error
        );
        assert!(
            stride.weighted_error < 0.05,
            "stride err {}",
            stride.weighted_error
        );
    }

    #[test]
    fn report_accessors() {
        let mut s = sim(1, 100);
        s.add_entity(VcpuEntity::cpu_bound(id(0)));
        s.add_entity(VcpuEntity::cpu_bound(id(1)));
        let r = s.run(&mut RoundRobin::new());
        assert_eq!(r.runtime_quanta.values().sum::<u64>(), 100);
        assert!((r.share_of(id(0)) - 0.5).abs() < 0.02);
        assert_eq!(r.runtime_quanta[&id(0)], 50);
        assert_eq!(r.share_of(id(9)), 0.0);
        assert_eq!(s.entities().len(), 2);
    }

    #[test]
    fn idle_host_has_zero_utilization() {
        let mut s = sim(2, 100);
        s.add_entity(VcpuEntity::cpu_bound(id(0)).with_duty_cycle(0, 10));
        let r = s.run(&mut CreditScheduler::new());
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.context_switches, 0);
        assert_eq!(r.runtime_quanta[&id(0)], 0);
    }

    #[test]
    fn context_switches_counted_between_different_entities() {
        let mut s = sim(1, 100);
        s.add_entity(VcpuEntity::cpu_bound(id(0)));
        s.add_entity(VcpuEntity::cpu_bound(id(1)));
        let rr = s.run(&mut RoundRobin::new());
        // Alternating every quantum on one pCPU: ~one switch per quantum.
        assert!(rr.context_switches >= 95);

        let mut solo = sim(1, 100);
        solo.add_entity(VcpuEntity::cpu_bound(id(0)));
        let r = solo.run(&mut RoundRobin::new());
        assert_eq!(r.context_switches, 0);
    }

    #[test]
    fn oversubscription_shares_capacity() {
        // 8 always-runnable vCPUs on 2 pCPUs: each gets ~25% of a pCPU.
        let mut s = sim(2, 4000);
        let ents: Vec<VcpuEntity> = (0..8).map(|vm| VcpuEntity::cpu_bound(id(vm))).collect();
        s.add_entities(&ents);
        let r = s.run(&mut CreditScheduler::new());
        let total: u64 = r.runtime_quanta.values().sum();
        assert_eq!(total, 2 * 4000);
        for e in &ents {
            let share = r.runtime_quanta[&e.id] as f64 / 4000.0; // fraction of one pCPU
            assert!((share - 0.25).abs() < 0.05, "share {share}");
        }
    }
}
