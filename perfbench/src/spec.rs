//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test compares the two sets in both directions). Its schema has no room
//! for *why* a layer row exists, so that lives here: each row records where
//! its number comes from and which end-to-end metric, on which workload, a
//! change to that layer should move. `benchmark --list` prints the table.

use Better::{Higher, Lower};
use Source::{Count, Decorator, Engine, Probe, WallStamp};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What is measured.
    pub what: &'static str,
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Wall-stamp attribution of a real traced day (`wallsink`).
    WallStamp,
    /// Decorators on public traits, or the harness-driven loop's spans.
    Decorator,
    /// A direct timed call into a layer's public function.
    Probe,
    /// A whole engine run, timed from outside.
    Engine,
    /// An exact count from a simulated report.
    Count,
}

impl Source {
    /// Short label for `--list`.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::WallStamp => "wall-stamp",
            Source::Decorator => "decorator",
            Source::Probe => "probe",
            Source::Engine => "engine",
            Source::Count => "count",
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workloads whose path this layer is on.
    pub on: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "warehouse_day",
        why: "10k hosts, 100k arrivals, model-fidelity guests: the orchestrator control plane \
              (events, indexes, DR bookkeeping, single-spine fabric) does nearly all the work",
    },
    WorkloadSpec {
        name: "clos_day",
        why: "64 full-fidelity hosts on a 32-rack Clos, adaptive planner, dedup DR: half CAS \
              ingest, half small-guest migrations bound by per-migration fixed cost",
    },
    WorkloadSpec {
        name: "migrate_push",
        why: "one 128 MiB dirtying guest pre-copied over a fabric serial, XBZRLE and pipelined: \
              bandwidth-bound multi-round source push, no orchestrator",
    },
    WorkloadSpec {
        name: "migrate_pull",
        why: "same guest by post-copy sweep, fault lane and stop-and-copy over loopback: \
              single-pass destination pull, no dirty tracking",
    },
];

/// The end-to-end metrics, every one reported by every workload.
pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "median host seconds per timed iteration (one simulated day, or one batch of \
               three migrations)",
    },
    EndToEndSpec {
        name: "events_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "simulated events per host second: OrchReport::events_processed on a day, wire \
               pages sent on a migration batch, over wall_s",
    },
    EndToEndSpec {
        name: "guest_mib_per_s",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
        what: "simulated guest MiB handled per host second: 3 x guest size migrated on a \
               batch, VMs arrived x guest size provisioned on a day, over wall_s",
    },
    EndToEndSpec {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        what: "VmHWM of the untraced run",
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "median host seconds to generate the inputs from the seed (scenario, or guest \
               contents), set up several times per run",
    },
];

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
    on: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        source,
        moves,
        on,
    }
}

const DAYS: &str = "warehouse_day, clos_day";
const PUSH_PULL: &str = "migrate_push, migrate_pull";

/// The per-layer ledger, every row reported by every workload's `--trace 1`
/// run. A workload whose path a layer is not on still measures the row, at
/// the reference sizes (see `workloads::Workload::day`), so the ledger
/// is complete on every run; `on` says where the number counts.
pub const PER_LAYER: [LayerSpec; 72] = [
    // (a) wall-stamp attribution: the orch.on_* rows partition the traced day.
    row(
        "orch.seed_queue_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row(
        "orch.on_vm_arrival_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row(
        "orch.on_vm_departure_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row(
        "orch.on_load_change_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row(
        "orch.on_rebalance_tick_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row(
        "orch.on_backup_tick_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row(
        "orch.on_failure_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row(
        "orch.finalize_s",
        "s",
        Lower,
        WallStamp,
        "wall_s, events_per_s",
        DAYS,
    ),
    row("act.policy_s", "s", Lower, WallStamp, "wall_s", "clos_day"),
    row("act.migrate_s", "s", Lower, WallStamp, "wall_s", "clos_day"),
    row("act.fabric_s", "s", Lower, WallStamp, "wall_s", DAYS),
    row("act.dr_s", "s", Lower, WallStamp, "wall_s", DAYS),
    row(
        "act.migrate_us_p50",
        "us",
        Lower,
        WallStamp,
        "wall_s",
        "clos_day",
    ),
    row(
        "act.migrate_us_p98",
        "us",
        Lower,
        WallStamp,
        "wall_s",
        "clos_day",
    ),
    row(
        "act.backup_us_p50",
        "us",
        Lower,
        WallStamp,
        "wall_s",
        "clos_day",
    ),
    row(
        "act.backup_us_p99",
        "us",
        Lower,
        WallStamp,
        "wall_s",
        "clos_day",
    ),
    row(
        "orch.events",
        "count",
        Lower,
        Count,
        "none: must not change",
        DAYS,
    ),
    row(
        "orch.migrations",
        "count",
        Lower,
        Count,
        "none: must not change",
        DAYS,
    ),
    row(
        "orch.backups",
        "count",
        Lower,
        Count,
        "none: must not change",
        DAYS,
    ),
    row(
        "orch.restores",
        "count",
        Lower,
        Count,
        "none: must not change",
        DAYS,
    ),
    row(
        "net.transfers",
        "count",
        Lower,
        Count,
        "none: must not change",
        DAYS,
    ),
    row(
        "snapshot.cas_dedup_ratio",
        "ratio",
        Higher,
        Count,
        "none: must not change",
        "clos_day",
    ),
    row(
        "obs.trace_overhead_pct",
        "%",
        Lower,
        WallStamp,
        "none: tracing is off end to end",
        DAYS,
    ),
    // (c) probes of the orchestrator's structures at the day's sizes.
    row(
        "orch.scenario_generate_s",
        "s",
        Lower,
        Probe,
        "setup_s",
        DAYS,
    ),
    row(
        "orch.event_queue_ns_per_event",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "warehouse_day",
    ),
    row(
        "orch.choose_host_ns",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "warehouse_day",
    ),
    row(
        "orch.deploy_us",
        "us",
        Lower,
        Probe,
        "wall_s",
        "warehouse_day",
    ),
    row(
        "orch.set_cpu_demand_ns",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "warehouse_day",
    ),
    row(
        "orch.policy_plan_us",
        "us",
        Lower,
        Probe,
        "wall_s",
        "warehouse_day",
    ),
    row(
        "orch.planner_plan_ns",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row("orch.cluster_backup_us", "us", Lower, Probe, "wall_s", DAYS),
    row(
        "orch.cluster_migrate_us",
        "us",
        Lower,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "orch.cluster_restore_us",
        "us",
        Lower,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "net.fabric_transfer_ns",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "warehouse_day, migrate_push",
    ),
    row(
        "net.clos_transfer_local_ns",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "net.clos_transfer_cross_ns",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "net.clos_striped_ns",
        "ns",
        Lower,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row("vmm.create_vm_us", "us", Lower, Probe, "wall_s", DAYS),
    row("vmm.destroy_vm_us", "us", Lower, Probe, "wall_s", DAYS),
    row(
        "obs.span_emit_ns",
        "ns",
        Lower,
        Probe,
        "none: tracing is off end to end",
        DAYS,
    ),
    // (c) probes of the data plane at the guest's size.
    row(
        "snapshot.capture_full_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "snapshot.capture_incremental_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "snapshot.store_insert_us",
        "us",
        Lower,
        Probe,
        "none: layer-level guard",
        "none",
    ),
    row(
        "snapshot.store_restore_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "none: layer-level guard",
        "none",
    ),
    row(
        "snapshot.cas_ingest_novel_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "snapshot.cas_ingest_known_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "snapshot.cas_restore_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "snapshot.cas_retire_chain_us",
        "us",
        Lower,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "memory.harvest_ns_per_page",
        "ns",
        Lower,
        Probe,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "memory.page_copy_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "memory.scan_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "wall_s",
        "clos_day",
    ),
    row(
        "migrate.encode_raw_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "guest_mib_per_s",
        PUSH_PULL,
    ),
    row(
        "migrate.encode_xbzrle_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.apply_mib_per_s",
        "MiB/s",
        Higher,
        Probe,
        "guest_mib_per_s",
        PUSH_PULL,
    ),
    row(
        "migrate.xbzrle_page_ns",
        "ns",
        Lower,
        Probe,
        "guest_mib_per_s",
        "migrate_push",
    ),
    // (b) the harness-driven pre-copy loop and the decorated engines.
    row(
        "migrate.loop_harvest_s",
        "s",
        Lower,
        Decorator,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.loop_encode_s",
        "s",
        Lower,
        Decorator,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.loop_deliver_s",
        "s",
        Lower,
        Decorator,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.loop_apply_s",
        "s",
        Lower,
        Decorator,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.transport_s",
        "s",
        Lower,
        Decorator,
        "guest_mib_per_s",
        PUSH_PULL,
    ),
    row(
        "migrate.dirtier_s",
        "s",
        Lower,
        Decorator,
        "none: load generator, subtract it",
        "migrate_push",
    ),
    row(
        "migrate.engine_overhead_pct",
        "%",
        Lower,
        Decorator,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.precopy_serial_s",
        "s",
        Lower,
        Engine,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.precopy_xbzrle_s",
        "s",
        Lower,
        Engine,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.precopy_pipelined_s",
        "s",
        Lower,
        Engine,
        "guest_mib_per_s",
        "migrate_push",
    ),
    row(
        "migrate.postcopy_sweep_s",
        "s",
        Lower,
        Engine,
        "guest_mib_per_s",
        "migrate_pull",
    ),
    row(
        "migrate.postcopy_lane_s",
        "s",
        Lower,
        Engine,
        "guest_mib_per_s",
        "migrate_pull",
    ),
    row(
        "migrate.stop_and_copy_s",
        "s",
        Lower,
        Engine,
        "guest_mib_per_s",
        "migrate_pull",
    ),
    row(
        "migrate.rounds",
        "count",
        Lower,
        Count,
        "none: must not change",
        PUSH_PULL,
    ),
    row(
        "migrate.pages_sent",
        "count",
        Lower,
        Count,
        "none: must not change",
        PUSH_PULL,
    ),
    row(
        "migrate.wire_bytes",
        "count",
        Lower,
        Count,
        "none: must not change",
        PUSH_PULL,
    ),
    row(
        "migrate.useful_page_ratio",
        "ratio",
        Higher,
        Count,
        "none: must not change",
        PUSH_PULL,
    ),
];

/// Is `name` built from the characters the benchmark contract allows?
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Render the `--list` table.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<14} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (--trace 0), every workload:\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<16} {:<6} {:<6} bound {:>4.0}%  {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str("\nper-layer metrics (--trace 1): name, unit, better, source, should move, on\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<40} {:<6} {:<6} {:<10} {} | {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source.as_str(),
            m.moves,
            m.on
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn names<'a>(items: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
        items.into_iter().map(str::to_string).collect()
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &all {
            assert!(is_valid_name(name), "{name} breaks the naming rule");
        }
        assert_eq!(
            names(all.iter().copied()).len(),
            all.len(),
            "duplicate name"
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!is_valid_name(""));
        assert!(!is_valid_name(".hidden"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_name(&"x".repeat(65)));
    }

    /// The names this binary emits and the names `BENCHMARK.json` promises
    /// are the same sets, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
        let section = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .to_vec()
        };

        let keys: BTreeSet<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            BTreeSet::from([
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ])
        );

        let listed: Vec<(String, String)> = section("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| {
                (
                    w.name.to_string(),
                    w.why.split_whitespace().collect::<Vec<_>>().join(" "),
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<_> = section("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<_> = section("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, ours);
    }
}
