//! The scheduler implementations.

use std::collections::{BTreeMap, VecDeque};

use crate::entity::{EntityId, VcpuEntity};

/// A vCPU scheduler for one host.
///
/// The simulation loop ([`crate::HostSim`]) calls [`Scheduler::pick`] once
/// per quantum with the set of runnable entities and then
/// [`Scheduler::charge`] for each entity that actually ran.
pub trait Scheduler: Send {
    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Register an entity.
    fn add_entity(&mut self, entity: VcpuEntity);

    /// Remove an entity (e.g. the VM migrated away).
    fn remove_entity(&mut self, id: EntityId);

    /// Choose up to `pcpus` entities to run next quantum, out of `runnable`.
    fn pick(&mut self, pcpus: usize, runnable: &[EntityId], quantum: u64) -> Vec<EntityId>;

    /// Account one quantum of CPU time to `id`.
    fn charge(&mut self, id: EntityId, quantum: u64);
}

/// The no-frills baseline: a rotating queue, one quantum each, no weights, no caps.
#[derive(Debug, Default)]
pub struct RoundRobin {
    queue: VecDeque<EntityId>,
}

impl RoundRobin {
    /// Create an empty round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn add_entity(&mut self, entity: VcpuEntity) {
        if !self.queue.contains(&entity.id) {
            self.queue.push_back(entity.id);
        }
    }

    fn remove_entity(&mut self, id: EntityId) {
        self.queue.retain(|&e| e != id);
    }

    fn pick(&mut self, pcpus: usize, runnable: &[EntityId], _quantum: u64) -> Vec<EntityId> {
        let mut picked = Vec::with_capacity(pcpus);
        let mut inspected = 0;
        let len = self.queue.len();
        while picked.len() < pcpus && inspected < len {
            if let Some(id) = self.queue.pop_front() {
                if runnable.contains(&id) && !picked.contains(&id) {
                    picked.push(id);
                }
                self.queue.push_back(id);
            }
            inspected += 1;
        }
        picked
    }

    fn charge(&mut self, _id: EntityId, _quantum: u64) {}
}

/// Credits granted per pCPU per accounting period (Xen uses 300 per 30 ms).
const CREDITS_PER_PCPU_PER_PERIOD: i64 = 300;
/// Quanta per accounting period.
const QUANTA_PER_PERIOD: u64 = 10;
/// Credit cost of running for one quantum.
const CREDIT_COST_PER_QUANTUM: i64 = CREDITS_PER_PCPU_PER_PERIOD / QUANTA_PER_PERIOD as i64;
/// Cap allowance cost of running for one quantum: the allowance is kept in
/// hundredths of a quantum, so a cap of `c` % grants `c × QUANTA_PER_PERIOD`
/// per period.
const CAP_COST_PER_QUANTUM: u64 = 100;

#[derive(Debug, Clone)]
struct CreditAccount {
    entity: VcpuEntity,
    credits: i64,
    /// What a capped entity may still run, in hundredths of a quantum. The
    /// fraction of a quantum a period grants carries into the next one.
    cap_allowance: u64,
}

/// A scheduler modelled on Xen's credit scheduler.
///
/// Every accounting period each entity receives credits in proportion to its
/// weight; running costs credits. Entities with positive credits (UNDER) are
/// preferred over those that have overdrawn (OVER), which is what delivers
/// weighted proportional fairness. A per-entity *cap* bounds its share of
/// one pCPU regardless of spare capacity; a cap that is not a whole number
/// of quanta per period is met on average, across periods.
#[derive(Debug, Default)]
pub struct CreditScheduler {
    accounts: BTreeMap<EntityId, CreditAccount>,
}

impl CreditScheduler {
    /// Create an empty credit scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn replenish(&mut self, pcpus: usize) {
        let total_weight: u64 = self.accounts.values().map(|a| a.entity.weight as u64).sum();
        if total_weight == 0 {
            return;
        }
        let pool = CREDITS_PER_PCPU_PER_PERIOD * pcpus as i64;
        for acct in self.accounts.values_mut() {
            let share = pool * acct.entity.weight as i64 / total_weight as i64;
            acct.credits += share;
            // Don't let credits accumulate without bound (idle entities would
            // otherwise starve everyone when they wake).
            acct.credits = acct.credits.min(2 * pool);
            if let Some(cap) = acct.entity.cap_percent {
                // The carry is at most one quantum: an idle entity cannot
                // save up quanta.
                let grant = cap as u64 * QUANTA_PER_PERIOD;
                acct.cap_allowance = (acct.cap_allowance + grant).min(grant + CAP_COST_PER_QUANTUM);
            }
        }
    }
}

impl Scheduler for CreditScheduler {
    fn name(&self) -> &'static str {
        "credit"
    }

    fn add_entity(&mut self, entity: VcpuEntity) {
        self.accounts.entry(entity.id).or_insert(CreditAccount {
            entity,
            credits: 0,
            cap_allowance: 0,
        });
    }

    fn remove_entity(&mut self, id: EntityId) {
        self.accounts.remove(&id);
    }

    fn pick(&mut self, pcpus: usize, runnable: &[EntityId], quantum: u64) -> Vec<EntityId> {
        if quantum.is_multiple_of(QUANTA_PER_PERIOD) {
            self.replenish(pcpus);
        }
        let mut candidates: Vec<&CreditAccount> = runnable
            .iter()
            .filter_map(|id| self.accounts.get(id))
            .filter(|acct| {
                acct.entity.cap_percent.is_none() || acct.cap_allowance >= CAP_COST_PER_QUANTUM
            })
            .collect();
        // UNDER (positive credits) before OVER, then by credit balance.
        candidates.sort_by_key(|acct| (acct.credits <= 0, -acct.credits));
        candidates
            .into_iter()
            .take(pcpus)
            .map(|acct| acct.entity.id)
            .collect()
    }

    fn charge(&mut self, id: EntityId, _quantum: u64) {
        if let Some(acct) = self.accounts.get_mut(&id) {
            acct.credits -= CREDIT_COST_PER_QUANTUM;
            acct.cap_allowance = acct.cap_allowance.saturating_sub(CAP_COST_PER_QUANTUM);
        }
    }
}

/// Stride-scheduling constant (any large number works).
const STRIDE1: u64 = 1 << 20;

#[derive(Debug, Clone)]
struct StrideAccount {
    entity: VcpuEntity,
    stride: u64,
    pass: u64,
}

/// Proportional-share scheduling via strides: each entity advances its `pass`
/// by `STRIDE1 / weight` per quantum it runs; the scheduler always picks the
/// runnable entities with the smallest pass values.
#[derive(Debug, Default)]
pub struct StrideScheduler {
    accounts: BTreeMap<EntityId, StrideAccount>,
}

impl StrideScheduler {
    /// Create an empty stride scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for StrideScheduler {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn add_entity(&mut self, entity: VcpuEntity) {
        let stride = STRIDE1 / entity.weight.max(1) as u64;
        // New entities start at the current minimum pass so they don't get a
        // huge burst of back-pay.
        let min_pass = self.accounts.values().map(|a| a.pass).min().unwrap_or(0);
        self.accounts.entry(entity.id).or_insert(StrideAccount {
            entity,
            stride,
            pass: min_pass,
        });
    }

    fn remove_entity(&mut self, id: EntityId) {
        self.accounts.remove(&id);
    }

    fn pick(&mut self, pcpus: usize, runnable: &[EntityId], _quantum: u64) -> Vec<EntityId> {
        let mut candidates: Vec<&StrideAccount> = runnable
            .iter()
            .filter_map(|id| self.accounts.get(id))
            .collect();
        candidates.sort_by_key(|a| (a.pass, a.entity.id));
        candidates
            .into_iter()
            .take(pcpus)
            .map(|a| a.entity.id)
            .collect()
    }

    fn charge(&mut self, id: EntityId, _quantum: u64) {
        if let Some(acct) = self.accounts.get_mut(&id) {
            acct.pass = acct.pass.saturating_add(acct.stride);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::{VcpuId, VmId};

    impl CreditScheduler {
        /// The current credit balance of an entity (for tests/inspection).
        pub(crate) fn credits(&self, id: EntityId) -> Option<i64> {
            self.accounts.get(&id).map(|a| a.credits)
        }
    }

    fn id(vm: u32) -> EntityId {
        EntityId::new(VmId::new(vm), VcpuId::new(0))
    }

    fn entities(weights: &[u32]) -> Vec<VcpuEntity> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| VcpuEntity::cpu_bound(id(i as u32)).with_weight(w))
            .collect()
    }

    fn run(
        scheduler: &mut dyn Scheduler,
        ents: &[VcpuEntity],
        pcpus: usize,
        quanta: u64,
    ) -> BTreeMap<EntityId, u64> {
        for e in ents {
            scheduler.add_entity(*e);
        }
        let mut runtime: BTreeMap<EntityId, u64> = ents.iter().map(|e| (e.id, 0)).collect();
        for q in 0..quanta {
            let runnable: Vec<EntityId> = ents
                .iter()
                .filter(|e| e.runnable.is_runnable(q))
                .map(|e| e.id)
                .collect();
            let picked = scheduler.pick(pcpus, &runnable, q);
            assert!(picked.len() <= pcpus);
            for p in &picked {
                scheduler.charge(*p, q);
                *runtime.get_mut(p).unwrap() += 1;
            }
        }
        runtime
    }

    #[test]
    fn round_robin_is_equal_share() {
        let ents = entities(&[256, 256, 256, 256]);
        let mut rr = RoundRobin::new();
        let runtime = run(&mut rr, &ents, 2, 1000);
        for &t in runtime.values() {
            assert_eq!(t, 500);
        }
        assert_eq!(rr.name(), "round-robin");
    }

    #[test]
    fn round_robin_ignores_weights() {
        let ents = entities(&[100, 400]);
        let runtime = run(&mut RoundRobin::new(), &ents, 1, 1000);
        assert_eq!(runtime[&id(0)], 500);
        assert_eq!(runtime[&id(1)], 500);
    }

    #[test]
    fn credit_respects_weights() {
        let ents = entities(&[100, 200, 400]);
        let runtime = run(&mut CreditScheduler::new(), &ents, 1, 7000);
        let total: u64 = runtime.values().sum();
        assert_eq!(total, 7000);
        let share0 = runtime[&id(0)] as f64 / total as f64;
        let share1 = runtime[&id(1)] as f64 / total as f64;
        let share2 = runtime[&id(2)] as f64 / total as f64;
        assert!((share0 - 1.0 / 7.0).abs() < 0.05, "share0 = {share0}");
        assert!((share1 - 2.0 / 7.0).abs() < 0.05, "share1 = {share1}");
        assert!((share2 - 4.0 / 7.0).abs() < 0.05, "share2 = {share2}");
        assert_eq!(CreditScheduler::new().name(), "credit");
    }

    #[test]
    fn credit_enforces_caps() {
        // One capped entity and one uncapped on a single pCPU. A cap that is
        // not a whole number of quanta per period still gets its share.
        for cap in [5, 20, 25, 33, 50] {
            let capped = VcpuEntity::cpu_bound(id(0)).with_weight(256).with_cap(cap);
            let uncapped = VcpuEntity::cpu_bound(id(1)).with_weight(256);
            let runtime = run(&mut CreditScheduler::new(), &[capped, uncapped], 1, 10_000);
            let capped_pct = runtime[&id(0)] as f64 / 100.0;
            assert!(
                (capped_pct - cap as f64).abs() <= 0.5,
                "a {cap} % cap got {capped_pct} % of the CPU"
            );
            assert_eq!(runtime[&id(0)] + runtime[&id(1)], 10_000);
        }
    }

    #[test]
    fn credit_cap_binds_even_with_idle_capacity() {
        // A single capped entity alone on the host still cannot exceed its cap.
        let capped = VcpuEntity::cpu_bound(id(0)).with_weight(256).with_cap(50);
        let runtime = run(&mut CreditScheduler::new(), &[capped], 1, 1000);
        let share = runtime[&id(0)] as f64 / 1000.0;
        assert!(share <= 0.52, "capped-alone share {share}");
        assert!(share >= 0.45);
    }

    #[test]
    fn credit_work_conserving_without_caps() {
        let ents = entities(&[256, 256]);
        let runtime = run(&mut CreditScheduler::new(), &ents, 4, 500);
        // Two runnable entities on four pCPUs: both run every quantum.
        assert_eq!(runtime[&id(0)], 500);
        assert_eq!(runtime[&id(1)], 500);
    }

    #[test]
    fn stride_respects_weights() {
        let ents = entities(&[100, 300]);
        let runtime = run(&mut StrideScheduler::new(), &ents, 1, 4000);
        let share1 = runtime[&id(1)] as f64 / 4000.0;
        assert!((share1 - 0.75).abs() < 0.02, "share1 = {share1}");
        assert_eq!(StrideScheduler::new().name(), "stride");
    }

    #[test]
    fn stride_new_entity_does_not_get_backpay() {
        let mut s = StrideScheduler::new();
        let a = VcpuEntity::cpu_bound(id(0));
        s.add_entity(a);
        for q in 0..1000 {
            let picked = s.pick(1, &[a.id], q);
            for p in picked {
                s.charge(p, q);
            }
        }
        // Now add a second entity: it should not monopolise the CPU to "catch up".
        let b = VcpuEntity::cpu_bound(id(1));
        s.add_entity(b);
        let mut b_run = 0;
        for q in 1000..1200 {
            let picked = s.pick(1, &[a.id, b.id], q);
            for p in picked {
                s.charge(p, q);
                if p == b.id {
                    b_run += 1;
                }
            }
        }
        assert!(b_run <= 110, "late joiner got {b_run} of 200 quanta");
    }

    #[test]
    fn duty_cycled_entity_only_runs_when_runnable() {
        let interactive = VcpuEntity::cpu_bound(id(0)).with_duty_cycle(1, 10);
        let batch = VcpuEntity::cpu_bound(id(1));
        let runtime = run(&mut CreditScheduler::new(), &[interactive, batch], 1, 1000);
        assert!(runtime[&id(0)] <= 100);
        assert_eq!(runtime[&id(0)] + runtime[&id(1)], 1000);
    }

    #[test]
    fn removal_stops_scheduling() {
        let ents = entities(&[256, 256]);
        for sched in [
            &mut RoundRobin::new() as &mut dyn Scheduler,
            &mut CreditScheduler::new(),
            &mut StrideScheduler::new(),
        ] {
            sched.add_entity(ents[0]);
            sched.add_entity(ents[1]);
            sched.remove_entity(ents[0].id);
            let picked = sched.pick(2, &[ents[0].id, ents[1].id], 0);
            assert_eq!(picked, vec![ents[1].id], "{}", sched.name());
        }
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let e = VcpuEntity::cpu_bound(id(0));
        let mut rr = RoundRobin::new();
        rr.add_entity(e);
        rr.add_entity(e);
        assert_eq!(rr.pick(4, &[e.id], 0), vec![e.id]);
        let mut cs = CreditScheduler::new();
        cs.add_entity(e);
        cs.charge(e.id, 0);
        let before = cs.credits(e.id).unwrap();
        cs.add_entity(e);
        assert_eq!(cs.credits(e.id), Some(before));
    }

    #[test]
    fn empty_runnable_set_picks_nothing() {
        let ents = entities(&[256]);
        let mut cs = CreditScheduler::new();
        cs.add_entity(ents[0]);
        assert!(cs.pick(4, &[], 0).is_empty());
        assert!(RoundRobin::new().pick(1, &[], 0).is_empty());
        assert!(StrideScheduler::new().pick(1, &[], 0).is_empty());
    }
}
