//! Allocation guard for the DR backup sweep.
//!
//! A dedicated integration-test binary with a counting `#[global_allocator]`
//! (the idiom of `crates/migrate/tests/alloc_guard.rs`) pinning what keying
//! the cluster by `VmKey` bought: a backup tick walks hosts → keys → records
//! and allocates **nothing per VM** — no name clone, no per-host list, no map
//! node. If a sweep goes back to collecting names, this test fails.
//!
//! The same day is run twice with `backup_interval` halved the second time;
//! everything else (arrivals, load changes, rebalance ticks) is identical, so
//! the difference in allocation counts is what the extra ticks cost. The day
//! is single-threaded (the policy never migrates, so no pipelined-migration
//! worker exists) and the binary holds one `#[test]`, so nothing else touches
//! the counter and the result cannot flake.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rvisor_orch::{
    run_datacenter, Cluster, OrchParams, RebalancePlan, RebalancePolicy, Scenario, ScenarioConfig,
    VmFidelity, WorkloadShape,
};
use rvisor_types::Nanoseconds;

/// Counts every allocation (and reallocation) passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A policy that never acts, so every VM stays a model where it was placed.
struct NeverRebalance;

impl RebalancePolicy for NeverRebalance {
    fn name(&self) -> &'static str {
        "never"
    }

    fn plan(&self, _: &Cluster, _: &OrchParams) -> RebalancePlan {
        RebalancePlan::default()
    }
}

/// Marginal allocations an extra backup tick may cost: the tick's label and
/// its event-queue slot, with room to spare — and far below one per VM.
const PER_TICK_BUDGET: u64 = 8;

#[test]
fn an_extra_backup_tick_allocates_nothing_per_vm() {
    for arrivals in [256usize, 1024] {
        let hosts = arrivals / 16;
        let config = ScenarioConfig::day(41, WorkloadShape::SteadyState, hosts, arrivals);
        let scenario = Scenario::generate(config).unwrap();
        let day = |backup_interval: Nanoseconds| {
            let params = OrchParams {
                fidelity: VmFidelity::OnDemand,
                backup_interval,
                ..Default::default()
            };
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let report =
                run_datacenter(hosts, params, Box::new(NeverRebalance), &scenario).unwrap();
            let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(report.migrations_completed, 0);
            assert_eq!(report.hosts_failed, 0);
            (spent, report.backups_taken)
        };
        let ticks = |interval: Nanoseconds| (config.duration.as_nanos() - 1) / interval.as_nanos();
        let (hourly, half_hourly) = (Nanoseconds::from_secs(3600), Nanoseconds::from_secs(1800));
        let extra_ticks = ticks(half_hourly) - ticks(hourly);

        day(hourly); // warm-up: lazy statics, hasher keys
        let (base_allocs, base_backups) = day(hourly);
        let (more_allocs, more_backups) = day(half_hourly);
        let extra_backups = more_backups - base_backups;
        assert!(
            extra_backups > 8 * PER_TICK_BUDGET * extra_ticks,
            "{arrivals} arrivals: the extra ticks must back up many VMs each \
             ({extra_backups} backups over {extra_ticks} ticks) for the bound to mean anything"
        );
        let marginal = more_allocs.saturating_sub(base_allocs);
        assert!(
            marginal <= PER_TICK_BUDGET * extra_ticks,
            "{arrivals} arrivals: {extra_ticks} extra backup ticks ({extra_backups} backups) \
             cost {marginal} heap allocations, over the budget of {PER_TICK_BUDGET} per tick — \
             the sweep is allocating per VM again"
        );
    }
}
