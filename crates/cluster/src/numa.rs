//! NUMA topology modelling and NUMA-aware placement.
//!
//! Consolidation hosts are multi-socket machines: each socket (NUMA node)
//! has local DRAM that its cores reach quickly and remote DRAM behind the
//! interconnect that costs noticeably more per access. A VMM that scatters a
//! VM's memory across nodes while running its vCPUs on one of them hands the
//! guest a silent slowdown; a VMM that packs each VM onto a single node
//! keeps memory local but fragments the host and can refuse placements that
//! would fit globally. This module models that trade-off so the placement
//! experiment (E13) can quantify it:
//!
//! * [`NumaTopology`] — the node layout of a host (cores and memory per
//!   node, remote-access penalty).
//! * [`NumaHost`] — per-node capacity accounting plus the placement
//!   policies: pack each VM on one node ([`NumaPolicy::Packed`]) or stripe
//!   its memory across all nodes ([`NumaPolicy::Interleaved`]).
//! * [`NumaPlacement`] — where one VM landed and the expected slowdown its
//!   memory layout implies.

use serde::{Deserialize, Serialize};

use rvisor_types::{ByteSize, Error, Result};

use crate::host::HostSpec;
use crate::vmspec::VmSpec;

/// One NUMA node: a socket's cores and its local memory.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NumaNode {
    /// Cores local to this node.
    pub(crate) cores: u32,
    /// Memory local to this node.
    pub(crate) memory: ByteSize,
}

/// The NUMA layout of a physical host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NumaTopology {
    /// The nodes, indexed by node id.
    pub(crate) nodes: Vec<NumaNode>,
    /// Cost of a remote access relative to a local one (≥ 1.0). Typical
    /// two-socket machines sit around 1.4–1.7.
    pub(crate) remote_access_penalty: f64,
}

impl NumaTopology {
    /// A symmetric topology of `node_count` identical nodes.
    pub fn symmetric(node_count: u32, cores_per_node: u32, memory_per_node: ByteSize) -> Self {
        let node = NumaNode {
            cores: cores_per_node,
            memory: memory_per_node,
        };
        NumaTopology {
            nodes: vec![node; node_count.max(1) as usize],
            remote_access_penalty: 1.5,
        }
    }

    /// Split a [`HostSpec`] evenly into `node_count` nodes.
    pub fn of_host(spec: &HostSpec, node_count: u32) -> Self {
        let n = node_count.max(1);
        Self::symmetric(
            n,
            spec.cores / n,
            ByteSize::new(spec.memory.as_u64() / n as u64),
        )
    }

    /// Override the remote-access penalty (builder style).
    pub fn with_remote_penalty(mut self, penalty: f64) -> Self {
        self.remote_access_penalty = penalty.max(1.0);
        self
    }

    /// Total cores across all nodes.
    fn total_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.cores).sum()
    }

    /// Number of nodes.
    fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// How a VM's memory is laid out across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NumaPolicy {
    /// Put all of a VM's memory (and its vCPUs) on a single node when it
    /// fits, spilling to other nodes only when it must.
    Packed,
    /// Stripe every VM's memory evenly across all nodes (what a
    /// NUMA-oblivious first-touch allocator converges to under mixing).
    Interleaved,
}

impl NumaPolicy {
    /// Both policies, for sweeps.
    pub const ALL: [NumaPolicy; 2] = [NumaPolicy::Packed, NumaPolicy::Interleaved];

    /// A short name for benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            NumaPolicy::Packed => "packed",
            NumaPolicy::Interleaved => "interleaved",
        }
    }
}

/// Where one VM's vCPUs and memory ended up.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NumaPlacement {
    /// The node its vCPUs are scheduled on.
    pub(crate) home_node: u32,
    /// Memory placed per node (node id, bytes).
    pub(crate) memory_by_node: Vec<(u32, ByteSize)>,
}

impl NumaPlacement {
    /// Total memory placed.
    fn total_memory(&self) -> ByteSize {
        ByteSize::new(self.memory_by_node.iter().map(|(_, m)| m.as_u64()).sum())
    }

    /// Fraction of the VM's memory that is local to its home node.
    fn local_fraction(&self) -> f64 {
        let total = self.total_memory().as_u64();
        if total == 0 {
            return 1.0;
        }
        let local: u64 = self
            .memory_by_node
            .iter()
            .filter(|(node, _)| *node == self.home_node)
            .map(|(_, m)| m.as_u64())
            .sum();
        local as f64 / total as f64
    }

    /// Expected memory-access slowdown for a memory-bound guest:
    /// `1 + remote_fraction × (penalty − 1)`.
    fn expected_slowdown(&self, topology: &NumaTopology) -> f64 {
        1.0 + (1.0 - self.local_fraction()) * (topology.remote_access_penalty - 1.0)
    }
}

/// A host with per-node capacity accounting and NUMA-aware placement.
#[derive(Debug, Clone)]
pub struct NumaHost {
    topology: NumaTopology,
    node_memory_used: Vec<u64>,
    node_cores_used: Vec<f64>,
    placements: Vec<NumaPlacement>,
}

impl NumaHost {
    /// An empty host with the given topology.
    pub fn new(topology: NumaTopology) -> Self {
        let n = topology.node_count();
        NumaHost {
            topology,
            node_memory_used: vec![0; n],
            node_cores_used: vec![0.0; n],
            placements: Vec::new(),
        }
    }

    /// Free memory on a node.
    fn node_free_memory(&self, node: usize) -> u64 {
        self.topology.nodes[node]
            .memory
            .as_u64()
            .saturating_sub(self.node_memory_used[node])
    }

    /// Memory utilisation per node (0.0–1.0).
    pub fn node_memory_utilization(&self) -> Vec<f64> {
        (0..self.topology.node_count())
            .map(|n| {
                let cap = self.topology.nodes[n].memory.as_u64();
                if cap == 0 {
                    0.0
                } else {
                    self.node_memory_used[n] as f64 / cap as f64
                }
            })
            .collect()
    }

    /// The spread between the most and least loaded node's memory
    /// utilisation — the fragmentation cost of packing.
    pub fn memory_imbalance(&self) -> f64 {
        let util = self.node_memory_utilization();
        let max = util.iter().cloned().fold(0.0f64, f64::max);
        let min = util.iter().cloned().fold(1.0f64, f64::min);
        (max - min).max(0.0)
    }

    /// Mean local-memory fraction over all placed VMs (1.0 = perfectly local).
    pub fn avg_local_fraction(&self) -> f64 {
        if self.placements.is_empty() {
            return 1.0;
        }
        self.placements
            .iter()
            .map(|p| p.local_fraction())
            .sum::<f64>()
            / self.placements.len() as f64
    }

    /// Mean expected slowdown over all placed VMs.
    pub fn avg_expected_slowdown(&self) -> f64 {
        if self.placements.is_empty() {
            return 1.0;
        }
        self.placements
            .iter()
            .map(|p| p.expected_slowdown(&self.topology))
            .sum::<f64>()
            / self.placements.len() as f64
    }

    /// Whether the host still has room for `vm` (memory and cores, host-wide).
    pub fn fits(&self, vm: &VmSpec) -> bool {
        let free_mem: u64 = (0..self.topology.node_count())
            .map(|n| self.node_free_memory(n))
            .sum();
        let used_cores: f64 = self.node_cores_used.iter().sum();
        free_mem >= vm.memory.as_u64()
            && used_cores + vm.cpu_demand_cores <= self.topology.total_cores() as f64
    }

    /// Place a VM according to `policy`. Returns the resulting placement.
    pub fn place(&mut self, vm: &VmSpec, policy: NumaPolicy) -> Result<NumaPlacement> {
        if !self.fits(vm) {
            return Err(Error::CapacityExceeded(format!(
                "{} does not fit on the NUMA host ({} requested)",
                vm.name, vm.memory
            )));
        }
        let placement = match policy {
            NumaPolicy::Packed => self.place_packed(vm),
            NumaPolicy::Interleaved => self.place_interleaved(vm),
        };
        // Commit the memory and the vCPU demand on the home node.
        for &(node, mem) in &placement.memory_by_node {
            self.node_memory_used[node as usize] += mem.as_u64();
        }
        self.node_cores_used[placement.home_node as usize] += vm.cpu_demand_cores;
        self.placements.push(placement.clone());
        Ok(placement)
    }

    /// Pick the node with the most free memory that fits the whole VM; if
    /// none does, fill nodes in order of free memory (home = biggest chunk).
    fn place_packed(&self, vm: &VmSpec) -> NumaPlacement {
        let need = vm.memory.as_u64();
        let mut order: Vec<usize> = (0..self.topology.node_count()).collect();
        order.sort_by_key(|&n| std::cmp::Reverse(self.node_free_memory(n)));

        if let Some(&node) = order.iter().find(|&&n| self.node_free_memory(n) >= need) {
            return NumaPlacement {
                home_node: node as u32,
                memory_by_node: vec![(node as u32, vm.memory)],
            };
        }
        // Spill: largest free node first.
        let mut remaining = need;
        let mut memory_by_node = Vec::new();
        for &n in &order {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(self.node_free_memory(n));
            if take > 0 {
                memory_by_node.push((n as u32, ByteSize::new(take)));
                remaining -= take;
            }
        }
        let home_node = memory_by_node
            .iter()
            .max_by_key(|(_, m)| m.as_u64())
            .map(|(n, _)| *n)
            .unwrap_or(0);
        NumaPlacement {
            home_node,
            memory_by_node,
        }
    }

    /// Stripe memory across nodes proportionally to free capacity; vCPUs go
    /// to the node with the fewest committed cores.
    fn place_interleaved(&self, vm: &VmSpec) -> NumaPlacement {
        let need = vm.memory.as_u64();
        let free: Vec<u64> = (0..self.topology.node_count())
            .map(|n| self.node_free_memory(n))
            .collect();
        let total_free: u64 = free.iter().sum();
        let mut memory_by_node = Vec::new();
        let mut assigned = 0u64;
        for (n, &f) in free.iter().enumerate() {
            // 128-bit intermediate: `need * f` overflows u64 for multi-GiB
            // VMs on multi-GiB nodes.
            let share = if total_free == 0 {
                0
            } else {
                (need as u128 * f as u128 / total_free as u128) as u64
            };
            let share = share.min(f);
            if share > 0 {
                memory_by_node.push((n as u32, ByteSize::new(share)));
                assigned += share;
            }
        }
        // Distribute the rounding remainder to nodes that still have room.
        let mut remainder = need - assigned;
        for (n, &free_n) in free.iter().enumerate() {
            if remainder == 0 {
                break;
            }
            let already: u64 = memory_by_node
                .iter()
                .filter(|(node, _)| *node == n as u32)
                .map(|(_, m)| m.as_u64())
                .sum();
            let room = free_n.saturating_sub(already);
            let take = remainder.min(room);
            if take > 0 {
                match memory_by_node
                    .iter_mut()
                    .find(|(node, _)| *node == n as u32)
                {
                    Some(entry) => entry.1 = ByteSize::new(entry.1.as_u64() + take),
                    None => memory_by_node.push((n as u32, ByteSize::new(take))),
                }
                remainder -= take;
            }
        }
        let home_node = self
            .node_cores_used
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(n, _)| n as u32)
            .unwrap_or(0);
        NumaPlacement {
            home_node,
            memory_by_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmspec::ServerRole;
    use rvisor_types::HostId;

    impl NumaHost {
        /// The topology this host was built with.
        pub(crate) fn topology(&self) -> &NumaTopology {
            &self.topology
        }

        /// Placements made so far.
        pub(crate) fn placements(&self) -> &[NumaPlacement] {
            &self.placements
        }
    }

    impl NumaTopology {
        /// Total memory across all nodes.
        fn total_memory(&self) -> ByteSize {
            ByteSize::new(self.nodes.iter().map(|n| n.memory.as_u64()).sum())
        }
    }

    fn two_node_host() -> NumaHost {
        // 2 nodes × 4 cores × 6 GiB = the deck-era 8-core / 12 GiB box.
        NumaHost::new(NumaTopology::of_host(
            &HostSpec::deck_era_server(HostId::new(0)),
            2,
        ))
    }

    #[test]
    fn topology_construction() {
        let topo = NumaTopology::symmetric(4, 8, ByteSize::gib(32));
        assert_eq!(topo.node_count(), 4);
        assert_eq!(topo.total_cores(), 32);
        assert_eq!(topo.total_memory(), ByteSize::gib(128));
        let host_topo = NumaTopology::of_host(&HostSpec::modern_server(HostId::new(1)), 2);
        assert_eq!(host_topo.total_cores(), 32);
        assert_eq!(host_topo.total_memory(), ByteSize::gib(128));
        assert_eq!(
            NumaTopology::symmetric(0, 4, ByteSize::gib(1)).node_count(),
            1
        );
        assert_eq!(
            NumaTopology::symmetric(2, 4, ByteSize::gib(1))
                .with_remote_penalty(0.3)
                .remote_access_penalty,
            1.0
        );
    }

    #[test]
    fn packed_vm_is_fully_local() {
        let mut host = two_node_host();
        let vm = VmSpec::typical("erp", ServerRole::AppServer); // 2 GiB
        let placement = host.place(&vm, NumaPolicy::Packed).unwrap();
        assert_eq!(placement.memory_by_node.len(), 1);
        assert!((placement.local_fraction() - 1.0).abs() < 1e-12);
        assert!((placement.expected_slowdown(host.topology()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interleaved_vm_pays_the_remote_penalty() {
        let mut host = two_node_host();
        let vm = VmSpec::typical("erp", ServerRole::AppServer);
        let placement = host.place(&vm, NumaPolicy::Interleaved).unwrap();
        assert_eq!(placement.memory_by_node.len(), 2);
        // Half local, half remote on an empty symmetric host.
        assert!((placement.local_fraction() - 0.5).abs() < 0.01);
        let slowdown = placement.expected_slowdown(host.topology());
        assert!(slowdown > 1.2 && slowdown < 1.3, "slowdown {slowdown}");
    }

    #[test]
    fn packed_spills_only_when_it_must() {
        let mut host = two_node_host(); // 6 GiB per node
        let big = VmSpec::typical("sql", ServerRole::Database).with_memory(ByteSize::gib(4));
        let p1 = host.place(&big, NumaPolicy::Packed).unwrap();
        assert_eq!(p1.memory_by_node.len(), 1);

        // A second 4 GiB VM still fits on the other node.
        let big2 = big.clone();
        let p2 = host
            .place(
                &VmSpec {
                    name: "sql-2".into(),
                    ..big2
                },
                NumaPolicy::Packed,
            )
            .unwrap();
        assert_eq!(p2.memory_by_node.len(), 1);
        assert_ne!(p1.home_node, p2.home_node);

        // A third one no longer fits on any single node (2 GiB free on each)
        // and must split.
        let p3 = host
            .place(
                &VmSpec {
                    name: "sql-3".into(),
                    ..big.clone()
                },
                NumaPolicy::Packed,
            )
            .unwrap();
        assert!(p3.memory_by_node.len() > 1);
        assert!(p3.local_fraction() < 1.0);
        assert_eq!(p3.total_memory(), ByteSize::gib(4));
    }

    #[test]
    fn capacity_is_enforced_host_wide() {
        let mut host = two_node_host();
        let huge = VmSpec::typical("huge", ServerRole::Database).with_memory(ByteSize::gib(13));
        assert!(!host.fits(&huge));
        assert!(host.place(&huge, NumaPolicy::Packed).is_err());
        assert!(host.place(&huge, NumaPolicy::Interleaved).is_err());
        assert!(host.placements().is_empty());
    }

    #[test]
    fn interleave_balances_nodes_packed_does_not() {
        let vms: Vec<VmSpec> = (0..4)
            .map(|i| VmSpec::typical(&format!("ts-{i}"), ServerRole::TerminalServer))
            .collect();

        let mut packed = two_node_host();
        let mut interleaved = two_node_host();
        for vm in &vms {
            packed.place(vm, NumaPolicy::Packed).unwrap();
            interleaved.place(vm, NumaPolicy::Interleaved).unwrap();
        }
        // Interleaving equalises node memory almost perfectly.
        assert!(interleaved.memory_imbalance() < 0.01);
        // Packing keeps everything local; interleaving does not.
        assert!((packed.avg_local_fraction() - 1.0).abs() < 1e-12);
        assert!(interleaved.avg_local_fraction() < 0.6);
        assert!(packed.avg_expected_slowdown() < interleaved.avg_expected_slowdown());
    }

    #[test]
    fn placement_accounting_totals_match() {
        let mut host = two_node_host();
        let mut placed_total = 0u64;
        for (i, role) in [
            ServerRole::AppServer,
            ServerRole::Web,
            ServerRole::Mail,
            ServerRole::Database,
        ]
        .iter()
        .enumerate()
        {
            let vm = VmSpec::typical(&format!("vm-{i}"), *role);
            let p = host.place(&vm, NumaPolicy::Packed).unwrap();
            placed_total += p.total_memory().as_u64();
            assert_eq!(
                p.total_memory(),
                vm.memory,
                "placement must cover the whole VM"
            );
        }
        let used: u64 = (0..2)
            .map(|n| host.topology().nodes[n].memory.as_u64() - host.node_free_memory(n))
            .sum();
        assert_eq!(used, placed_total);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Whatever the policy and VM mix, every successful placement
            /// covers exactly the VM's memory, never oversubscribes a node,
            /// and its expected slowdown stays within [1, penalty].
            #[test]
            fn placements_respect_node_capacity(
                nodes in 1u32..5,
                vm_gib in proptest::collection::vec(1u64..5, 1..12),
                policy_idx in 0usize..2,
            ) {
                let topo = NumaTopology::symmetric(nodes, 8, ByteSize::gib(8));
                let penalty = topo.remote_access_penalty;
                let mut host = NumaHost::new(topo);
                let policy = NumaPolicy::ALL[policy_idx];
                for (i, gib) in vm_gib.iter().enumerate() {
                    let vm = VmSpec::typical(&format!("vm-{i}"), ServerRole::AppServer)
                        .with_memory(ByteSize::gib(*gib))
                        .with_cpu_demand(0.1);
                    if let Ok(p) = host.place(&vm, policy) {
                        prop_assert_eq!(p.total_memory(), vm.memory);
                        let slowdown = p.expected_slowdown(host.topology());
                        prop_assert!(slowdown >= 1.0 - 1e-12 && slowdown <= penalty + 1e-12);
                    }
                }
                for (n, util) in host.node_memory_utilization().iter().enumerate() {
                    prop_assert!(*util <= 1.0 + 1e-12, "node {} over capacity: {}", n, util);
                }
            }
        }
    }
}
