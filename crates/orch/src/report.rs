//! The end-of-run SLA report.

use std::fmt;

use rvisor_types::Nanoseconds;

/// Everything a day-in-the-life run produced, in integer units so two runs
/// of the same seed compare bit-for-bit (`==` is the determinism check).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrchReport {
    /// Simulated instant the run finished (the scenario horizon).
    pub(crate) sim_end: Nanoseconds,
    /// Events delivered from the queue.
    pub events_processed: u64,
    /// Events that arrived for a VM that no longer exists anywhere
    /// (departed, or permanently lost to a failure). They are consumed and
    /// counted — never silently lost.
    pub(crate) events_dropped: u64,

    /// VM arrivals seen.
    pub vms_arrived: u64,
    /// Arrivals that eventually got a host.
    pub(crate) vms_placed: u64,
    /// Arrivals that had to wait for capacity at least once.
    pub(crate) placements_deferred: u64,
    /// Arrivals still waiting when the day ended.
    pub(crate) placements_unmet: u64,
    /// Total arrival-to-running latency over placed VMs.
    pub(crate) placement_latency_total: Nanoseconds,
    /// Worst single arrival-to-running latency.
    pub(crate) placement_latency_max: Nanoseconds,

    /// VM departures honoured.
    pub(crate) vms_departed: u64,
    /// VMs still running when the day ended.
    pub(crate) vms_running_at_end: u64,
    /// Most VMs alive at once.
    pub(crate) peak_vms: u64,

    /// Migrations the policy asked for.
    pub migrations_planned: u64,
    /// Migrations that completed.
    pub migrations_completed: u64,
    /// Planned migrations skipped (capacity shifted, VM vanished).
    pub migrations_skipped: u64,
    /// Summed guest downtime across completed migrations.
    pub migration_downtime_total: Nanoseconds,
    /// Summed total migration time (measured from the instant the fabric
    /// path frees up — the pure transfer cost).
    pub migration_time_total: Nanoseconds,
    /// Summed time completed migrations spent queued for the fabric before
    /// their first byte could serialize (decision instant to path-free).
    /// On a single-spine fabric every migration in a rebalance burst waits
    /// behind the shared backbone; a multi-spine Clos fabric spreads the
    /// burst over independent paths and shrinks this number.
    pub migration_fabric_wait_total: Nanoseconds,
    /// Bytes moved by migrations (simulation scale).
    pub migration_bytes: u64,
    /// Σ downtime × total time (ns²) over completed migrations: the
    /// adaptive control plane's acceptance metric. Penalizes both a long
    /// pause and a long transfer; `u128` because a day of ms-scale
    /// migrations overflows 64 bits of ns².
    pub downtime_duration_integral: u128,

    /// Migrations whose plan came from the adaptive planner
    /// ([`EngineChoice::Auto`](crate::EngineChoice::Auto)).
    pub planner_decisions: u64,
    /// Planner decisions that picked stop-and-copy (tiny guests).
    pub(crate) planner_stop_and_copy: u64,
    /// Planner decisions that picked pre-copy (cold or default guests).
    pub planner_pre_copy: u64,
    /// Planner decisions that picked post-copy (dirty-hot guests).
    pub planner_post_copy: u64,
    /// Of the post-copy decisions, those routed over the demand-fault lane.
    pub planner_fault_lane: u64,

    /// Backups taken.
    pub backups_taken: u64,
    /// Bytes written to the DR store (simulation scale).
    pub backup_bytes: u64,
    /// Simulated time spent writing backups to the DR target.
    pub backup_time_total: Nanoseconds,

    /// Novel chunks shipped to the content-addressed DR store
    /// ([`OrchParams::dedup_backups`](crate::OrchParams::dedup_backups);
    /// zero when dedup is off).
    pub backup_chunks_shipped: u64,
    /// Chunks the DR endpoint already held, shipped as references only.
    pub backup_chunks_deduped: u64,
    /// Page bytes that did *not* cross the fabric thanks to dedup.
    pub backup_bytes_deduped: u64,
    /// Chunks resident in the content-addressed store at day end.
    pub dr_store_chunks: u64,
    /// Bytes resident in the content-addressed store at day end.
    pub dr_store_bytes: u64,

    /// Host failure events honoured.
    pub hosts_failed: u64,
    /// Spine failure events honoured (the fabric degraded; attempts to fail
    /// the last live spine are refused and counted as dropped events).
    pub spines_failed: u64,
    /// VMs that were on a host the instant it failed.
    pub(crate) vms_lost_at_failure: u64,
    /// Of those, VMs brought back from a DR backup.
    pub vms_restored: u64,
    /// VMs gone for good (no backup, or no capacity to restore into).
    pub(crate) vms_lost_permanently: u64,
    /// Summed per-VM outage (failure to restore completion / cancellation).
    pub vm_time_lost: Nanoseconds,

    /// Power-on actions taken (DR capacity, placement pressure).
    pub(crate) power_on_actions: u64,
    /// Power-off actions taken (consolidation).
    pub(crate) power_off_actions: u64,
    /// Integral of powered hosts over time (host·ns): the energy proxy.
    pub(crate) powered_host_time: Nanoseconds,
    /// Most hosts powered at once.
    pub(crate) peak_hosts_powered: u64,
    /// Hosts still powered when the day ended.
    pub(crate) hosts_powered_at_end: u64,
}

impl OrchReport {
    /// Mean arrival-to-running placement latency.
    pub(crate) fn placement_latency_avg(&self) -> Nanoseconds {
        Nanoseconds(
            self.placement_latency_total
                .0
                .checked_div(self.vms_placed)
                .unwrap_or(0),
        )
    }

    /// Mean downtime per completed migration.
    fn migration_downtime_avg(&self) -> Nanoseconds {
        Nanoseconds(
            self.migration_downtime_total
                .0
                .checked_div(self.migrations_completed)
                .unwrap_or(0),
        )
    }

    /// Average hosts powered over the day.
    pub fn avg_hosts_powered(&self) -> f64 {
        if self.sim_end == Nanoseconds::ZERO {
            0.0
        } else {
            self.powered_host_time.0 as f64 / self.sim_end.0 as f64
        }
    }
}

impl fmt::Display for OrchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "orchestrator report ({} simulated)", self.sim_end)?;
        writeln!(
            f,
            "  events      {} processed, {} dropped-no-target",
            self.events_processed, self.events_dropped
        )?;
        writeln!(
            f,
            "  placement   {}/{} placed ({} deferred, {} unmet), latency avg {} max {}",
            self.vms_placed,
            self.vms_arrived,
            self.placements_deferred,
            self.placements_unmet,
            self.placement_latency_avg(),
            self.placement_latency_max
        )?;
        writeln!(
            f,
            "  churn       {} departed, {} running at end (peak {})",
            self.vms_departed, self.vms_running_at_end, self.peak_vms
        )?;
        writeln!(
            f,
            "  migration   {}/{} done ({} skipped), downtime total {} avg {}, fabric wait {}, {} bytes",
            self.migrations_completed,
            self.migrations_planned,
            self.migrations_skipped,
            self.migration_downtime_total,
            self.migration_downtime_avg(),
            self.migration_fabric_wait_total,
            self.migration_bytes
        )?;
        writeln!(
            f,
            "  integral    downtime x duration {} ns^2",
            self.downtime_duration_integral
        )?;
        if self.planner_decisions > 0 {
            writeln!(
                f,
                "  planner     {} decisions: {} stop-and-copy, {} pre-copy, {} post-copy ({} fault-lane)",
                self.planner_decisions,
                self.planner_stop_and_copy,
                self.planner_pre_copy,
                self.planner_post_copy,
                self.planner_fault_lane
            )?;
        }
        writeln!(
            f,
            "  backup/DR   {} backups ({} bytes, {} write time)",
            self.backups_taken, self.backup_bytes, self.backup_time_total
        )?;
        if self.backup_chunks_shipped + self.backup_chunks_deduped > 0 {
            writeln!(
                f,
                "  dedup       {} chunks shipped, {} deduped ({} bytes saved), store holds {} chunks / {} bytes",
                self.backup_chunks_shipped,
                self.backup_chunks_deduped,
                self.backup_bytes_deduped,
                self.dr_store_chunks,
                self.dr_store_bytes
            )?;
        }
        writeln!(
            f,
            "  failures    {} hosts + {} spines failed, {} VMs hit: {} restored, {} lost, {} VM-time lost",
            self.hosts_failed,
            self.spines_failed,
            self.vms_lost_at_failure,
            self.vms_restored,
            self.vms_lost_permanently,
            self.vm_time_lost
        )?;
        writeln!(
            f,
            "  power       avg {:.1} hosts on (peak {}, end {}), {} on / {} off actions",
            self.avg_hosts_powered(),
            self.peak_hosts_powered,
            self.hosts_powered_at_end,
            self.power_on_actions,
            self.power_off_actions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero_denominators() {
        let r = OrchReport::default();
        assert_eq!(r.placement_latency_avg(), Nanoseconds::ZERO);
        assert_eq!(r.migration_downtime_avg(), Nanoseconds::ZERO);
        assert_eq!(r.avg_hosts_powered(), 0.0);
        assert!(format!("{r}").contains("orchestrator report"));
    }
}
