//! The adaptive per-migration planner.
//!
//! When [`OrchParams::engine`](crate::OrchParams::engine) is
//! [`EngineChoice::Auto`](crate::EngineChoice::Auto), the orchestrator stops
//! applying one static (engine × streams × compression) setting to every
//! rebalance migration and instead consults a [`MigrationPlanner`] per
//! migration. The planner is a *pure function* of three observables:
//!
//! 1. **Observed dirty rate** — measured by the VMM's running-VM dirtier
//!    during past pre-copy migrations and carried forward with the VM
//!    ([`rvisor::Vmm::observed_dirty_rate`]). A guest that has never been
//!    migrated reports 0: the planner treats it as cold and picks pre-copy,
//!    which doubles as the measurement pass.
//! 2. **Guest size** — the VmSpec's configured memory (the capacity
//!    accounting scale, not the simulation scale).
//! 3. **Core-path occupancy** — how far past `now` the core the fabric's
//!    traffic crosses is already booked ([`rvisor_net::ClosFabric::free_at`]):
//!    the one leaf of the one-rack single-spine preset (its transfers never
//!    reach the spine), otherwise the least-loaded live spine.
//!
//! Purity is what makes the decisions testable as a table and the adaptive
//! day replayable `==` under the same seed: the planner holds thresholds,
//! never state.

use std::num::NonZeroUsize;

use rvisor_migrate::{FaultService, MigrationPlan, PageCompression, PlanEngine};
use rvisor_types::{ByteSize, Nanoseconds};

/// A plan plus the (stable-label) reason it was chosen, for trace instants
/// and report counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChoice {
    /// The per-migration plan to execute.
    pub plan: MigrationPlan,
    /// Stable reason label (`tiny-guest`, `dirty-hot`, `big-idle`,
    /// `default`) attached to the planner's trace instant.
    pub reason: &'static str,
}

/// Threshold set for the adaptive per-migration plan decision.
///
/// The decision ladder, first match wins (threshold defaults in
/// parentheses are the [`Default`] impl's values):
///
/// | Condition (default threshold) | Plan | Reason label |
/// |-------------------------------|------|--------------|
/// | guest ≤ `tiny_guest_max` (128 MiB) | stop-and-copy, 1 stream | `tiny-guest` |
/// | dirty rate ≥ `hot_dirty_rate` (8 MiB/s = `8 * 1024 * 1024` B/s) | post-copy, [`FaultService::FaultLane`] | `dirty-hot` |
/// | guest ≥ `big_guest_min` (1 GiB) and backlog ≤ `idle_backlog_max` (1 ms) | pre-copy, `wide_streams` (4) | `big-idle` |
/// | otherwise | pre-copy, 1 stream | `default` |
///
/// The `dirty-hot` rung is the only one that selects a
/// [`FaultService`]: a guest dirtying at or above `hot_dirty_rate` is
/// presumed pre-copy-non-convergent, and once it is post-copy its faulted
/// pages ride the out-of-order demand-fault lane
/// ([`FaultService::FaultLane`]) so fault service latency does not queue
/// behind the background sweep. Every other rung leaves the plan's
/// `fault_service` at its [`MigrationPlan::default`] (the proptest-pinned
/// sweep order), which is irrelevant outside post-copy.
/// Pre-copy rungs additionally carry the planner's `compression` setting;
/// stop-and-copy and post-copy plans always move raw pages.
///
/// Following "On Heuristic Models, Assumptions, and Parameters", every
/// threshold is a named public field rather than a constant buried in the
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlanner {
    /// Guests at or below this spec size take stop-and-copy: the whole
    /// copy fits in the downtime budget, and skipping rounds frees the
    /// fabric fastest.
    pub tiny_guest_max: ByteSize,
    /// Observed dirty rate (bytes/second) at or above which pre-copy is
    /// presumed non-convergent and the guest goes post-copy with the
    /// demand-fault lane.
    pub hot_dirty_rate: u64,
    /// Guests at or above this spec size get `wide_streams` pre-copy
    /// streams when the fabric is idle.
    pub big_guest_min: ByteSize,
    /// Core-path backlog at or below which the fabric counts as idle
    /// enough to stripe a big guest across spines.
    pub idle_backlog_max: Nanoseconds,
    /// Stream count for the big-guest-on-idle-fabric case. A striping of
    /// the simulated fabric, keyed on the guest's *spec* size; how many host
    /// threads move the simulated guest's pages is `rvisor_migrate::execute`'s
    /// business, not the planner's.
    pub wide_streams: NonZeroUsize,
    /// Page compression applied to every pre-copy plan the ladder emits
    /// (stop-and-copy and post-copy move raw pages regardless).
    pub compression: PageCompression,
}

impl Default for MigrationPlanner {
    fn default() -> Self {
        MigrationPlanner {
            tiny_guest_max: ByteSize::mib(128),
            hot_dirty_rate: 8 * 1024 * 1024,
            big_guest_min: ByteSize::gib(1),
            idle_backlog_max: Nanoseconds::from_millis(1),
            wide_streams: NonZeroUsize::new(4).expect("4 is non-zero"),
            compression: PageCompression::None,
        }
    }
}

impl MigrationPlanner {
    /// Decide the plan for one migration. Pure: the same
    /// `(dirty_rate, guest_memory, fabric_backlog)` triple always yields
    /// the same [`PlanChoice`].
    pub fn plan(
        &self,
        dirty_rate_bytes_per_sec: u64,
        guest_memory: ByteSize,
        fabric_backlog: Nanoseconds,
    ) -> PlanChoice {
        if guest_memory <= self.tiny_guest_max {
            return PlanChoice {
                plan: MigrationPlan {
                    engine: PlanEngine::StopAndCopy,
                    ..MigrationPlan::default()
                },
                reason: "tiny-guest",
            };
        }
        if dirty_rate_bytes_per_sec >= self.hot_dirty_rate {
            return PlanChoice {
                plan: MigrationPlan {
                    engine: PlanEngine::PostCopy,
                    fault_service: FaultService::FaultLane,
                    ..MigrationPlan::default()
                },
                reason: "dirty-hot",
            };
        }
        if guest_memory >= self.big_guest_min && fabric_backlog <= self.idle_backlog_max {
            return PlanChoice {
                plan: MigrationPlan {
                    engine: PlanEngine::PreCopy,
                    streams: self.wide_streams,
                    compression: self.compression,
                    ..MigrationPlan::default()
                },
                reason: "big-idle",
            };
        }
        PlanChoice {
            plan: MigrationPlan {
                compression: self.compression,
                ..MigrationPlan::default()
            },
            reason: "default",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_a_pure_function_of_the_observables() {
        let planner = MigrationPlanner {
            compression: PageCompression::Xbzrle,
            ..MigrationPlanner::default()
        };
        let mib = |n: u64| ByteSize::mib(n);
        let ms = Nanoseconds::from_millis;

        // (dirty rate, guest size, backlog) -> (engine, fault service,
        // streams, reason). One row per ladder rung plus the boundaries.
        let table: &[(
            u64,
            ByteSize,
            Nanoseconds,
            PlanEngine,
            FaultService,
            usize,
            &str,
        )] = &[
            // Tiny guests stop-and-copy regardless of rate or backlog.
            (
                0,
                mib(64),
                ms(0),
                PlanEngine::StopAndCopy,
                FaultService::Sweep,
                1,
                "tiny-guest",
            ),
            (
                u64::MAX,
                mib(128),
                ms(100),
                PlanEngine::StopAndCopy,
                FaultService::Sweep,
                1,
                "tiny-guest",
            ),
            // Dirty-hot guests go post-copy with the fault lane.
            (
                8 * 1024 * 1024,
                mib(512),
                ms(0),
                PlanEngine::PostCopy,
                FaultService::FaultLane,
                1,
                "dirty-hot",
            ),
            (
                u64::MAX,
                ByteSize::gib(4),
                ms(100),
                PlanEngine::PostCopy,
                FaultService::FaultLane,
                1,
                "dirty-hot",
            ),
            // Big guests stripe wide while the fabric is idle...
            (
                0,
                ByteSize::gib(1),
                ms(0),
                PlanEngine::PreCopy,
                FaultService::Sweep,
                4,
                "big-idle",
            ),
            (
                8 * 1024 * 1024 - 1,
                ByteSize::gib(8),
                ms(1),
                PlanEngine::PreCopy,
                FaultService::Sweep,
                4,
                "big-idle",
            ),
            // ...but not once the core paths are booked out.
            (
                0,
                ByteSize::gib(1),
                Nanoseconds(ms(1).as_nanos() + 1),
                PlanEngine::PreCopy,
                FaultService::Sweep,
                1,
                "default",
            ),
            // Everything else: single-stream pre-copy, which doubles as the
            // dirty-rate measurement pass for never-migrated guests.
            (
                0,
                mib(512),
                ms(0),
                PlanEngine::PreCopy,
                FaultService::Sweep,
                1,
                "default",
            ),
            (
                8 * 1024 * 1024 - 1,
                mib(512),
                ms(100),
                PlanEngine::PreCopy,
                FaultService::Sweep,
                1,
                "default",
            ),
        ];
        for &(rate, size, backlog, engine, service, streams, reason) in table {
            let choice = planner.plan(rate, size, backlog);
            assert_eq!(choice.plan.engine, engine, "{rate} {size} {backlog}");
            assert_eq!(
                choice.plan.fault_service, service,
                "{rate} {size} {backlog}"
            );
            assert_eq!(
                choice.plan.streams.get(),
                streams,
                "{rate} {size} {backlog}"
            );
            assert_eq!(choice.reason, reason, "{rate} {size} {backlog}");
            // The configured compression rides along on pre-copy plans only;
            // stop-and-copy and post-copy always move raw pages.
            let expect_compression = if engine == PlanEngine::PreCopy {
                PageCompression::Xbzrle
            } else {
                PageCompression::None
            };
            assert_eq!(choice.plan.compression, expect_compression);
            assert!(choice.plan.validate().is_ok());
            // Purity: asking again changes nothing.
            assert_eq!(planner.plan(rate, size, backlog), choice);
        }
    }
}
