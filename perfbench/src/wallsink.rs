//! Wall-stamp attribution of a real traced day.
//!
//! [`WallSink`] is a [`TraceSink`] that reads the host clock at every span
//! and instant the simulator emits, stores `(host nanoseconds, what)` in its
//! own buffer and forwards nothing. The `TraceSink` contract forbids
//! wall-clock reads because exported *sim-time* traces must stay
//! byte-deterministic; this sink exports no sim-time trace at all (it drops
//! every simulated timestamp and argument), and the caller asserts the
//! traced `OrchReport` `==` the untraced one, so the rule's purpose holds.
//!
//! [`WallSink::attribute`] then charges each interval between consecutive
//! callbacks twice:
//!
//! * to the `orch/<event-kind>` instant that **opened** it — the
//!   `orch.on_*` rows. Every interval has exactly one opener (the time
//!   before the first event is `seed_queue`, the time after the last
//!   callback is `finalize`), so these rows partition the traced day;
//! * to the track of the callback that **closed** it — the `act.*` rows:
//!   the work done since the previous callback ended by emitting this one,
//!   so it belongs to the emitter's layer. One refinement: a `fabric`
//!   transfer span is emitted *inside* a backup or a migration round, after
//!   the bytes to transfer were produced (snapshot capture, CAS ingest,
//!   round encode) and before the operation's own span. So an interval
//!   closed by a fabric span is charged to `act.fabric_s` — read it as
//!   "work that ends in a transfer", of which the fabric model itself is
//!   the `net.*` probes' few dozen nanoseconds per call — **and** carried
//!   forward into the `dr` or `migrate` callback that follows it. The
//!   `act.*` rows therefore overlap, and intervals closed by a plain
//!   event-loop instant belong to none of them: they do not sum to the day.
//!
//! Counter, `add` and `observe` callbacks are ignored without a clock read:
//! they always sit next to a span of the same layer, and stamping them
//! would double the sink's own cost on the ten-million-callback warehouse
//! day.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rvisor_obs::{Args, Trace, TraceSink};
use rvisor_types::Nanoseconds;

use crate::stats::percentile;

/// What a stamped callback was, reduced to what attribution needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// An `orch` event-loop instant that opens handler `OnRow`.
    Opens(OnRow),
    /// Another `orch`-track instant (placement, failure, vm-lost, …).
    Loop,
    /// The `orch/policy` `decision` instant that starts one migration.
    Decision,
    /// Any other `orch/policy` / `orch/planner` instant.
    Policy,
    /// The `cluster/migrate` span that ends one executed migration.
    ClusterMigrate,
    /// A `migrate`, `migrate/round` or `migrate/stream` callback from inside
    /// an engine.
    Engine,
    /// A `fabric`-track transfer span.
    Fabric,
    /// The `dr/backup` span that ends one backup.
    DrBackup,
    /// Any other `dr` / `dr/cas` callback (restore span, ingest, retire).
    Dr,
    /// A track this benchmark does not know.
    Other,
}

/// The rows that partition the traced day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnRow {
    SeedQueue,
    VmArrival,
    VmDeparture,
    LoadChange,
    RebalanceTick,
    BackupTick,
    /// Host failure, spine failure and the restore completions they cause.
    Failure,
    Finalize,
}

const ON_ROWS: [(OnRow, &str); 8] = [
    (OnRow::SeedQueue, "orch.seed_queue_s"),
    (OnRow::VmArrival, "orch.on_vm_arrival_s"),
    (OnRow::VmDeparture, "orch.on_vm_departure_s"),
    (OnRow::LoadChange, "orch.on_load_change_s"),
    (OnRow::RebalanceTick, "orch.on_rebalance_tick_s"),
    (OnRow::BackupTick, "orch.on_backup_tick_s"),
    (OnRow::Failure, "orch.on_failure_s"),
    (OnRow::Finalize, "orch.finalize_s"),
];

fn classify(track: &str, name: &str) -> Mark {
    match track {
        "orch" => match name {
            "vm-arrival" => Mark::Opens(OnRow::VmArrival),
            "vm-departure" => Mark::Opens(OnRow::VmDeparture),
            "load-change" => Mark::Opens(OnRow::LoadChange),
            "rebalance-tick" => Mark::Opens(OnRow::RebalanceTick),
            "backup-tick" => Mark::Opens(OnRow::BackupTick),
            "host-failure" | "spine-failure" | "restore-complete" => Mark::Opens(OnRow::Failure),
            _ => Mark::Loop,
        },
        "orch/policy" if name == "decision" => Mark::Decision,
        "orch/policy" | "orch/planner" => Mark::Policy,
        "cluster" => Mark::ClusterMigrate,
        "migrate" | "migrate/round" | "migrate/stream" => Mark::Engine,
        "fabric" => Mark::Fabric,
        "dr" if name == "backup" => Mark::DrBackup,
        "dr" | "dr/cas" => Mark::Dr,
        _ => Mark::Other,
    }
}

/// The sink. Create with [`WallSink::attach`], run the day with the returned
/// [`Trace`], then call [`WallSink::attribute`].
#[derive(Debug)]
pub struct WallSink {
    started: Instant,
    stamps: Vec<(u64, Mark)>,
}

impl WallSink {
    /// A sink whose clock starts now, and the trace handle that feeds it.
    pub fn attach() -> (Trace, Rc<RefCell<WallSink>>) {
        let sink = Rc::new(RefCell::new(WallSink {
            started: Instant::now(),
            stamps: Vec::new(),
        }));
        let dynamic: Rc<RefCell<dyn TraceSink>> = sink.clone();
        (Trace::to(dynamic), sink)
    }

    fn stamp(&mut self, track: &str, name: &str) {
        let at = self.started.elapsed().as_nanos() as u64;
        self.stamps.push((at, classify(track, name)));
    }

    /// Callbacks stamped so far.
    pub fn stamps(&self) -> usize {
        self.stamps.len()
    }

    /// Attribute the run that just returned. Call right after it does: the
    /// time from the last callback to this call is the `finalize` row.
    pub fn attribute(&self) -> Attribution {
        let end = self.started.elapsed().as_nanos() as u64;
        let mut on = [0u64; ON_ROWS.len()];
        let (mut policy, mut migrate, mut fabric, mut dr) = (0u64, 0u64, 0u64, 0u64);
        let mut migrate_us = Vec::new();
        let mut backup_us = Vec::new();
        let mut fabric_transfers = 0u64;

        let mut open = OnRow::SeedQueue;
        let mut prev = 0u64;
        let mut decided_at = None;
        // Intervals closed by the fabric spans just before this callback.
        let mut before_transfer = 0u64;
        for &(at, mark) in &self.stamps {
            let dt = at - prev;
            on[open as usize] += dt;
            let carried = std::mem::take(&mut before_transfer);
            match mark {
                Mark::Decision => {
                    policy += dt;
                    decided_at = Some(at);
                }
                Mark::Policy => policy += dt,
                Mark::ClusterMigrate => {
                    migrate += dt + carried;
                    if let Some(decided) = decided_at.take() {
                        migrate_us.push((at - decided) as f64 / 1e3);
                    }
                }
                Mark::Engine => migrate += dt + carried,
                Mark::Fabric => {
                    fabric += dt;
                    fabric_transfers += 1;
                    before_transfer = carried + dt;
                }
                Mark::DrBackup => {
                    dr += dt + carried;
                    backup_us.push((dt + carried) as f64 / 1e3);
                }
                Mark::Dr => dr += dt + carried,
                Mark::Opens(row) => open = row,
                Mark::Loop | Mark::Other => {}
            }
            prev = at;
        }
        on[OnRow::Finalize as usize] += end - prev;

        let secs = |ns: u64| ns as f64 / 1e9;
        // A day with no migration (or no backup) has no latency to report;
        // zero is the honest value of "time spent".
        let pct = |samples: &[f64], q: f64| {
            if samples.is_empty() {
                0.0
            } else {
                percentile(samples, q)
            }
        };
        let mut rows: Vec<(&'static str, f64)> = ON_ROWS
            .iter()
            .map(|&(row, name)| (name, secs(on[row as usize])))
            .collect();
        rows.extend([
            ("act.policy_s", secs(policy)),
            ("act.migrate_s", secs(migrate)),
            ("act.fabric_s", secs(fabric)),
            ("act.dr_s", secs(dr)),
            ("act.migrate_us_p50", pct(&migrate_us, 0.50)),
            ("act.migrate_us_p98", pct(&migrate_us, 0.98)),
            ("act.backup_us_p50", pct(&backup_us, 0.50)),
            ("act.backup_us_p99", pct(&backup_us, 0.99)),
        ]);
        Attribution {
            wall_s: secs(end),
            rows,
            fabric_transfers,
            migrations_seen: migrate_us.len() as u64,
            backups_seen: backup_us.len() as u64,
        }
    }
}

/// The attributed day.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Host seconds from [`WallSink::attach`] to [`WallSink::attribute`].
    pub wall_s: f64,
    /// `orch.on_*` (a partition of `wall_s`) and `act.*` rows, by metric name.
    pub rows: Vec<(&'static str, f64)>,
    /// `fabric`-track spans seen: one per modelled transfer.
    pub fabric_transfers: u64,
    /// `cluster/migrate` spans that followed a decision.
    pub migrations_seen: u64,
    /// `dr/backup` spans seen.
    pub backups_seen: u64,
}

impl Attribution {
    /// Sum of the rows that partition the day.
    pub fn partition_sum_s(&self) -> f64 {
        self.rows
            .iter()
            .filter(|(name, _)| ON_ROWS.iter().any(|(_, on)| on == name))
            .map(|&(_, v)| v)
            .sum()
    }
}

impl TraceSink for WallSink {
    fn span(
        &mut self,
        track: &'static str,
        name: &'static str,
        _: Nanoseconds,
        _: Nanoseconds,
        _: &Args<'_>,
    ) {
        self.stamp(track, name);
    }

    fn instant(&mut self, track: &'static str, name: &'static str, _: Nanoseconds, _: &Args<'_>) {
        self.stamp(track, name);
    }

    fn counter(&mut self, _: &'static str, _: &'static str, _: Nanoseconds, _: u64) {}

    fn add(&mut self, _: &'static str, _: u64) {}

    fn observe(&mut self, _: &'static str, _: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, Workload};
    use rvisor_obs::{ArgValue, EventKind};

    /// The acceptance test of the sink: it observes a real day without
    /// steering it, its partition rows account for the whole traced wall
    /// time, and it never produces a sim-time trace.
    #[test]
    fn wall_stamped_day_equals_the_untraced_day_and_partitions_its_wall_time() {
        let day = Workload::ClosDay.day(Scale::SMOKE, 3609);
        let untraced = day.run(Trace::off()).expect("untraced day");

        let (trace, sink) = WallSink::attach();
        let traced = day.run(trace).expect("traced day");
        let attribution = sink.borrow().attribute();
        assert_eq!(traced, untraced, "the sink must observe, never steer");

        // The partition is exact by construction (integer nanoseconds, one
        // opener per interval); 1 % is the issue's stated tolerance.
        let sum = attribution.partition_sum_s();
        assert!(
            (sum - attribution.wall_s).abs() <= 0.01 * attribution.wall_s,
            "on_* rows sum to {sum}, traced wall is {}",
            attribution.wall_s
        );
        assert!(attribution
            .rows
            .iter()
            .all(|(_, v)| v.is_finite() && *v >= 0.0));

        // What it saw matches the report's own counters.
        assert_eq!(attribution.backups_seen, traced.backups_taken);
        assert_eq!(attribution.migrations_seen, traced.migrations_completed);
        assert!(attribution.fabric_transfers >= traced.backups_taken);

        // It saw every span and instant a `Recorder` sees on the same day,
        // and kept none of them: the sink holds host stamps only, so no
        // sim-time trace can be exported from it.
        let (trace, recorder) = Trace::recording();
        assert_eq!(day.run(trace).expect("recorded day"), untraced);
        let recorded = recorder
            .borrow()
            .events()
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::Counter { .. }))
            .count();
        assert_eq!(sink.borrow().stamps(), recorded);
    }

    /// Counters and histogram samples cost the sink nothing, not even a
    /// clock read.
    #[test]
    fn only_spans_and_instants_are_stamped() {
        let (trace, sink) = WallSink::attach();
        trace.instant(
            "orch",
            "vm-arrival",
            Nanoseconds(5),
            &[("vm", ArgValue::Str("a"))],
        );
        trace.span("dr", "backup", Nanoseconds(5), Nanoseconds(9), &[]);
        trace.counter("fabric", "bytes", Nanoseconds(9), 7);
        trace.add("backups", 1);
        trace.observe("backup.bytes", 4096);
        assert_eq!(sink.borrow().stamps(), 2);
    }

    #[test]
    fn intervals_go_to_their_opener_and_to_their_closer() {
        let mut sink = WallSink {
            started: Instant::now(),
            stamps: Vec::new(),
        };
        sink.stamps = vec![
            (100, Mark::Opens(OnRow::RebalanceTick)), // 0..100 seed_queue
            (150, Mark::Decision),                    // 50 policy
            (450, Mark::Fabric),                      // 300 fabric, carried into…
            (500, Mark::ClusterMigrate),              // …50 + 300 migrate; 350 since decision
            (600, Mark::Opens(OnRow::BackupTick)),    // 100 still rebalance, no act row
            (800, Mark::Fabric),                      // 200 fabric, carried into…
            (900, Mark::DrBackup),                    // …100 + 200 dr
        ];
        let a = sink.attribute();
        let row = |name: &str| a.rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(row("orch.seed_queue_s"), 100e-9);
        assert_eq!(row("orch.on_rebalance_tick_s"), 500e-9);
        assert_eq!(row("orch.on_backup_tick_s"), 300e-9);
        assert_eq!(row("act.policy_s"), 50e-9);
        assert_eq!(row("act.fabric_s"), 500e-9);
        assert_eq!(row("act.migrate_s"), 350e-9);
        assert_eq!(row("act.dr_s"), 300e-9);
        assert_eq!(row("act.migrate_us_p50"), 0.35);
        assert_eq!(row("act.backup_us_p99"), 0.3);
        assert_eq!(
            (a.fabric_transfers, a.migrations_seen, a.backups_seen),
            (2, 1, 1)
        );
        assert!(row("orch.finalize_s") > 0.0);
    }
}
