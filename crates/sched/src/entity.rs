//! Schedulable entities: vCPUs with weights, caps and runnability models.

use serde::{Deserialize, Serialize};

use rvisor_types::{VcpuId, VmId};

/// Identifies one vCPU of one VM within a host's scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityId {
    /// The VM the vCPU belongs to.
    pub(crate) vm: VmId,
    /// The vCPU within the VM.
    pub(crate) vcpu: VcpuId,
}

impl EntityId {
    /// Construct an entity id.
    pub fn new(vm: VmId, vcpu: VcpuId) -> Self {
        EntityId { vm, vcpu }
    }
}

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.vm, self.vcpu)
    }
}

/// When an entity wants to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunnableModel {
    /// CPU-bound: always wants the CPU.
    Always,
    /// Runs `active` quanta out of every `period` (an interactive/periodic guest).
    DutyCycle {
        /// Quanta per period during which the entity is runnable.
        active: u32,
        /// Period length in quanta.
        period: u32,
    },
}

impl RunnableModel {
    /// Whether the entity is runnable in quantum number `quantum`.
    pub(crate) fn is_runnable(&self, quantum: u64) -> bool {
        match *self {
            RunnableModel::Always => true,
            RunnableModel::DutyCycle { active, period } => {
                if period == 0 {
                    return false;
                }
                (quantum % period as u64) < active as u64
            }
        }
    }
}

/// A schedulable vCPU and its scheduling parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VcpuEntity {
    /// Identity.
    pub(crate) id: EntityId,
    /// Proportional-share weight (Xen default is 256).
    pub(crate) weight: u32,
    /// Optional cap as a percentage of one pCPU (e.g. 50 = half a core);
    /// `None` means uncapped.
    pub(crate) cap_percent: Option<u32>,
    /// When the entity wants to run.
    pub(crate) runnable: RunnableModel,
}

impl VcpuEntity {
    /// A CPU-bound entity with the default weight and no cap.
    pub fn cpu_bound(id: EntityId) -> Self {
        VcpuEntity {
            id,
            weight: 256,
            cap_percent: None,
            runnable: RunnableModel::Always,
        }
    }

    /// Set the weight (builder style).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Set a cap (builder style).
    pub fn with_cap(mut self, cap_percent: u32) -> Self {
        self.cap_percent = Some(cap_percent);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RunnableModel {
        /// The long-run fraction of time the entity wants the CPU.
        fn demand_fraction(&self) -> f64 {
            match *self {
                RunnableModel::Always => 1.0,
                RunnableModel::DutyCycle { active, period } => {
                    if period == 0 {
                        0.0
                    } else {
                        (active as f64 / period as f64).min(1.0)
                    }
                }
            }
        }
    }

    impl VcpuEntity {
        /// Set a duty cycle (builder style).
        pub(crate) fn with_duty_cycle(mut self, active: u32, period: u32) -> Self {
            self.runnable = RunnableModel::DutyCycle { active, period };
            self
        }
    }

    fn id(vm: u32) -> EntityId {
        EntityId::new(VmId::new(vm), VcpuId::new(0))
    }

    #[test]
    fn entity_display_and_ordering() {
        let a = id(1);
        let b = id(2);
        assert!(a < b);
        assert_eq!(a.to_string(), "vm-1/vcpu-0");
    }

    #[test]
    fn builders() {
        let e = VcpuEntity::cpu_bound(id(3))
            .with_weight(512)
            .with_cap(50)
            .with_duty_cycle(1, 4);
        assert_eq!(e.weight, 512);
        assert_eq!(e.cap_percent, Some(50));
        assert_eq!(
            e.runnable,
            RunnableModel::DutyCycle {
                active: 1,
                period: 4
            }
        );
        // Weight of zero is clamped to one.
        assert_eq!(VcpuEntity::cpu_bound(id(1)).with_weight(0).weight, 1);
    }

    #[test]
    fn duty_cycle_runnability() {
        let m = RunnableModel::DutyCycle {
            active: 2,
            period: 5,
        };
        let runnable: Vec<bool> = (0..10).map(|q| m.is_runnable(q)).collect();
        assert_eq!(
            runnable,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
        assert!((m.demand_fraction() - 0.4).abs() < 1e-12);
        assert!(RunnableModel::Always.is_runnable(123));
        assert_eq!(RunnableModel::Always.demand_fraction(), 1.0);
        let degenerate = RunnableModel::DutyCycle {
            active: 1,
            period: 0,
        };
        assert!(!degenerate.is_runnable(0));
        assert_eq!(degenerate.demand_fraction(), 0.0);
    }
}
