//! The per-layer ledger: what one `--trace 1` run measures.
//!
//! Three kinds of row, all measured from outside the program:
//!
//! * **(a) wall-stamp attribution** of a real traced day ([`day_rows`],
//!   through [`crate::wallsink`]). The `orch.on_*` rows partition that day.
//! * **(b) decorators** on the migration engines' public collaborator
//!   traits ([`TimedTransport`], [`TimedDirtier`]) and a harness-driven
//!   pre-copy loop over `MigrationSource` / `MigrationSink` with a span
//!   around each step ([`migration_rows`]).
//! * **(c) probes**: direct timed calls into one layer's public functions at
//!   the workload's own sizes ([`orch_probes`], [`data_plane_probes`]).
//!   Probe rows are per-call costs; they do not sum to anything.
//!
//! Counts come from the simulated reports and repeat bit for bit.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rvisor::{VmConfig, Vmm};
use rvisor_cluster::{HostSpec, VmSpec};
use rvisor_memory::{fingerprint, is_zero, GuestMemory};
use rvisor_migrate::compress::xbzrle_encode;
use rvisor_migrate::{
    DirtySource, LoopbackTransport, MigrationConfig, MigrationPlan, MigrationReport, MigrationSink,
    MigrationSource, PageCompression, Transport,
};
use rvisor_net::{ClosFabric, ClosParams, Fabric, Link, LinkModel};
use rvisor_obs::{ArgValue, Args, Trace, TraceSink};
use rvisor_orch::{
    Cluster, EventQueue, MigrationPlanner, OrchEvent, RebalancePolicy, Scenario, SpreadRebalance,
};
use rvisor_snapshot::{CasStore, SnapshotStore, VmSnapshot};
use rvisor_types::{ByteSize, HostId, Nanoseconds, Result, VmId, MIB, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

use crate::spec::PER_LAYER;
use crate::stats::{batched_call_ns, median, median_call_s, time_s, Fnv1a};
use crate::wallsink::WallSink;
use crate::workloads::{
    timed_migration, Checks, Day, Engine, Guest, Scale, Wire, Workload, CLOS_LEAF_UPLINK,
    CLOS_SPINE, CLOS_SPINES,
};

/// Metric name → value; every name must be a `PER_LAYER` row, set once.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Record `name`'s value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        assert!(
            self.0.insert(name, value).is_none(),
            "{name} measured twice"
        );
    }

    /// `name`'s value, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Samples a slow probe takes, and the least time it spends on them.
const SLOW_SAMPLES: usize = 3;
const SLOW_BUDGET: Duration = Duration::from_millis(30);

fn mib_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / MIB as f64 / secs
}

// ---------------------------------------------------------------- (a) days

/// After one untimed warm-up day, run `day` untraced and wall-stamped in
/// alternation for about `budget` (at least one pair) and fill the
/// attribution, count and overhead rows. Returns the day's digest
/// contribution.
pub fn day_rows(day: &Day, budget: Duration, ledger: &mut Ledger, checks: &mut Checks) -> Fnv1a {
    let warm_up = day.run(Trace::off());
    checks.check(warm_up.is_ok(), || {
        format!("the warm-up day returned {warm_up:?}")
    });
    let started = Instant::now();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut rows: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut seen = None;
    loop {
        let (secs, untraced) = time_s(|| day.run(Trace::off()));
        untraced_s.push(secs);
        let (trace, sink) = WallSink::attach();
        let traced = day.run(trace);
        let attribution = sink.borrow().attribute();
        traced_s.push(attribution.wall_s);
        checks.check(untraced.is_ok() && traced.is_ok(), || {
            format!("the traced pair returned {untraced:?} / {traced:?}")
        });
        // `Err == Err` must not pass for equality: both sides are checked
        // `Ok` above, so a failed pair fails at least one check.
        checks.check(traced == untraced && untraced == warm_up, || {
            "the wall-stamped day's report differs from the untraced day's".into()
        });
        for (name, value) in &attribution.rows {
            rows.entry(name).or_default().push(*value);
        }
        if let Ok(report) = traced {
            seen = Some((report, attribution.fabric_transfers));
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    for (name, samples) in &rows {
        ledger.set(name, median(samples));
    }
    ledger.set(
        "obs.trace_overhead_pct",
        (median(&traced_s) / median(&untraced_s) - 1.0) * 100.0,
    );

    let (report, transfers) = seen.unwrap_or_default();
    ledger.set("orch.events", report.events_processed as f64);
    ledger.set("orch.migrations", report.migrations_completed as f64);
    ledger.set("orch.backups", report.backups_taken as f64);
    ledger.set("orch.restores", report.vms_restored as f64);
    ledger.set("net.transfers", transfers as f64);
    let offered = report.backup_chunks_shipped + report.backup_chunks_deduped;
    ledger.set(
        "snapshot.cas_dedup_ratio",
        // A day with plain DR offers no chunks: nothing deduplicated.
        if offered == 0 {
            0.0
        } else {
            report.backup_chunks_deduped as f64 / offered as f64
        },
    );
    let mut digest = Fnv1a::default();
    digest.update_debug(&report);
    digest
}

// ------------------------------------------------------- (c) orchestrator

/// `f(i)` returns the seconds its `i`-th call took, timed on its own clock
/// pair; the median in µs. For calls of a microsecond or more that need
/// untimed work in between.
fn each_call_us(calls: usize, f: impl FnMut(usize) -> f64) -> f64 {
    median(&(0..calls).map(f).collect::<Vec<_>>()) * 1e6
}

/// A sink that discards everything: measures the emit path itself.
struct NullSink;

impl TraceSink for NullSink {
    fn span(
        &mut self,
        _: &'static str,
        _: &'static str,
        _: Nanoseconds,
        _: Nanoseconds,
        _: &Args<'_>,
    ) {
    }
    fn instant(&mut self, _: &'static str, _: &'static str, _: Nanoseconds, _: &Args<'_>) {}
    fn counter(&mut self, _: &'static str, _: &'static str, _: Nanoseconds, _: u64) {}
    fn add(&mut self, _: &'static str, _: u64) {}
    fn observe(&mut self, _: &'static str, _: u64) {}
}

/// Probe the orchestrator's structures at `day`'s sizes: its own events
/// through the calendar queue, a cluster of its host count populated by its
/// own arrivals, its fabric, its guest size.
pub fn orch_probes(day: &Day, ledger: &mut Ledger) -> Result<()> {
    let config = day.scenario.config;
    ledger.set(
        "orch.scenario_generate_s",
        median_call_s(SLOW_SAMPLES, SLOW_BUDGET, || {
            std::hint::black_box(Scenario::generate(config).expect("valid config"));
        }),
    );

    // The day's own events plus its periodic ticks, pushed then drained.
    let ticks = |interval: Nanoseconds| (config.duration.as_nanos() - 1) / interval.as_nanos();
    let (rebalances, backups) = (
        ticks(day.params.rebalance_interval),
        ticks(day.params.backup_interval),
    );
    let queued = day.scenario.events.len() as u64 + rebalances + backups;
    let secs = median_call_s(SLOW_SAMPLES, SLOW_BUDGET, || {
        let mut queue = EventQueue::new();
        for (at, event) in &day.scenario.events {
            queue.push(*at, event.clone());
        }
        for i in 1..=rebalances {
            queue.push(
                Nanoseconds(i * day.params.rebalance_interval.as_nanos()),
                OrchEvent::RebalanceTick,
            );
        }
        for i in 1..=backups {
            queue.push(
                Nanoseconds(i * day.params.backup_interval.as_nanos()),
                OrchEvent::BackupTick,
            );
        }
        while let Some(scheduled) = queue.pop() {
            std::hint::black_box(scheduled);
        }
    });
    ledger.set("orch.event_queue_ns_per_event", secs * 1e9 / queued as f64);

    // A cluster of the day's size, populated by the day's first arrivals
    // (three per host at most, so every host keeps room for the probes).
    let specs = (0..day.hosts)
        .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
        .collect();
    let mut cluster = Cluster::new(specs, day.params)?;
    let arrivals = day
        .scenario
        .events
        .iter()
        .filter_map(|(_, event)| match event {
            OrchEvent::VmArrival { spec } => Some(spec),
            _ => None,
        });
    let mut placed: Vec<VmSpec> = Vec::new();
    let mut deploy_us = Vec::new();
    for spec in arrivals.take(day.hosts * 3) {
        let Some(host) = cluster.choose_host(day.params.placement, spec) else {
            continue;
        };
        let (took, deployed) = time_s(|| cluster.deploy(host, spec.clone()));
        deployed?;
        deploy_us.push(took * 1e6);
        placed.push(spec.clone());
    }
    ledger.set("orch.deploy_us", median(&deploy_us));

    let probe = VmSpec::typical("probe", rvisor_cluster::ServerRole::Web);
    ledger.set(
        "orch.choose_host_ns",
        batched_call_ns(|| cluster.choose_host(day.params.placement, &probe)),
    );
    let mut i = 0usize;
    ledger.set(
        "orch.set_cpu_demand_ns",
        batched_call_ns(|| {
            i += 1;
            let vm = &placed[i % placed.len()];
            // Alternate each VM between its typical demand and half of it.
            let demand = vm.cpu_demand_cores
                * if (i / placed.len()).is_multiple_of(2) {
                    0.5
                } else {
                    1.0
                };
            cluster.set_cpu_demand(&vm.name, demand).expect("placed VM")
        }),
    );
    // Eight hot tenants open a utilization gap, so the policy plans an
    // active tick (candidate walk, shadow hosts), not a quiet O(log n) one.
    for vm in placed.iter().take(8) {
        cluster.set_cpu_demand(&vm.name, 8.0)?;
    }
    ledger.set(
        "orch.policy_plan_us",
        batched_call_ns(|| SpreadRebalance.plan(&cluster, &day.params)) / 1e3,
    );
    let planner = MigrationPlanner::default();
    let mut rate = 0u64;
    ledger.set(
        "orch.planner_plan_ns",
        batched_call_ns(|| {
            rate = rate.wrapping_add(3 * MIB);
            planner.plan(
                rate % (16 * MIB),
                ByteSize::gib(1 + rate % 3),
                Nanoseconds(rate % 2_000_000),
            )
        }),
    );

    // Backup, migrate and restore one VM at a time through the cluster's
    // own entry points, against the DR store the day uses.
    const CALLS: usize = 32;
    let (mut store, mut cas) = (SnapshotStore::new(), CasStore::new());
    let now = |i: usize| Nanoseconds::from_millis(i as u64);
    ledger.set(
        "orch.cluster_backup_us",
        each_call_us(CALLS, |i| {
            let vm = &placed[i % placed.len()].name;
            if day.params.dedup_backups {
                time_s(|| {
                    cluster
                        .backup_dedup(vm, "probe", &mut cas, None, now(i))
                        .expect("backup")
                })
                .0
            } else {
                time_s(|| {
                    cluster
                        .backup(vm, "probe", &mut store, now(i))
                        .expect("backup")
                })
                .0
            }
        }),
    );
    let mover = placed[0].name.clone();
    let plan = MigrationPlan::default();
    ledger.set(
        "orch.cluster_migrate_us",
        each_call_us(CALLS, |i| {
            let from = cluster.host_of(&mover).expect("placed VM");
            let to = HostId::new((from.raw() + 1) % day.hosts as u32);
            time_s(|| {
                cluster
                    .migrate_planned(&mover, to, &plan, now(i))
                    .expect("migration")
            })
            .0
        }),
    );
    let casualty = &placed[1 % placed.len()];
    let restore_us = if day.params.dedup_backups {
        let epoch = cluster
            .backup_dedup(&casualty.name, "probe", &mut cas, None, now(0))?
            .manifest;
        each_call_us(CALLS, |_| {
            let (host, spec) = cluster.destroy(&casualty.name).expect("placed VM");
            time_s(|| {
                cluster
                    .restore_manifested(&spec, epoch, &cas, host)
                    .expect("restore")
            })
            .0
        })
    } else {
        let (handle, _, _) = cluster.backup(&casualty.name, "probe", &mut store, now(0))?;
        each_call_us(CALLS, |_| {
            let (host, spec) = cluster.destroy(&casualty.name).expect("placed VM");
            time_s(|| {
                cluster
                    .restore(&spec, handle, &store, host)
                    .expect("restore")
            })
            .0
        })
    };
    ledger.set("orch.cluster_restore_us", restore_us);

    // One default guest created and destroyed under a bare VMM.
    let mut vmm = Vmm::new("probe");
    let (mut create_us, mut destroy_us) = (Vec::new(), Vec::new());
    for _ in 0..CALLS {
        let config = VmConfig::new("guest").with_memory(day.params.guest_memory);
        let (took, id) = time_s(|| vmm.create_vm(config));
        create_us.push(took * 1e6);
        let (took, destroyed) = time_s(|| vmm.destroy_vm(id?));
        destroyed?;
        destroy_us.push(took * 1e6);
    }
    ledger.set("vmm.create_vm_us", median(&create_us));
    ledger.set("vmm.destroy_vm_us", median(&destroy_us));

    // The fabric models: pure integer arithmetic per transfer.
    let mut fabric = Fabric::new(day.hosts + 1, day.params.fabric)?;
    let mut i = 0usize;
    ledger.set(
        "net.fabric_transfer_ns",
        batched_call_ns(|| {
            i = (i + 1) % day.hosts;
            fabric
                .transfer(i, day.hosts, Nanoseconds::ZERO, MIB)
                .expect("transfer")
        }),
    );
    // The clos_day fabric shape (32 racks of 2, E21–E23 bandwidths) whatever
    // the day: endpoints 0 and 1 share a rack, 0 and 63 do not.
    let mut clos = ClosFabric::new(
        64,
        ClosParams {
            spines: CLOS_SPINES,
            leaf_uplink_bytes_per_second: CLOS_LEAF_UPLINK,
            spine_bytes_per_second: CLOS_SPINE,
            ..ClosParams::datacenter(32, 2)
        },
    )?;
    ledger.set(
        "net.clos_transfer_local_ns",
        batched_call_ns(|| {
            clos.transfer(0, 1, Nanoseconds::ZERO, MIB)
                .expect("transfer")
        }),
    );
    ledger.set(
        "net.clos_transfer_cross_ns",
        batched_call_ns(|| {
            clos.transfer(0, 63, Nanoseconds::ZERO, MIB)
                .expect("transfer")
        }),
    );
    let stripes = [256 * 1024u64; 4];
    ledger.set(
        "net.clos_striped_ns",
        batched_call_ns(|| {
            clos.transfer_striped(0, 63, Nanoseconds::ZERO, &stripes)
                .expect("transfer")
        }),
    );

    let trace = Trace::to(std::rc::Rc::new(std::cell::RefCell::new(NullSink)));
    let mut i = 0u64;
    ledger.set(
        "obs.span_emit_ns",
        batched_call_ns(|| {
            i = i.wrapping_add(1);
            let args = [("bytes", ArgValue::U64(i)), ("vm", ArgValue::Str("probe"))];
            trace.span("bench", "span", Nanoseconds(i), Nanoseconds(i + 1), &args);
        }),
    );
    Ok(())
}

// --------------------------------------------------------- (c) data plane

fn capture_full(memory: &GuestMemory) -> Result<VmSnapshot> {
    VmSnapshot::capture_full(
        VmId::new(0),
        "probe",
        Nanoseconds::ZERO,
        memory,
        vec![VcpuState::default()],
        BTreeMap::new(),
    )
}

/// Dirty the first eighth of `memory` (one word per page) and capture it.
fn capture_incremental(memory: &GuestMemory, epoch: u64) -> Result<(f64, VmSnapshot)> {
    for page in 0..(memory.total_pages() / 8).max(1) {
        memory.write_u64(memory.page_address(page)?, epoch)?;
    }
    let (took, snap) = time_s(|| {
        VmSnapshot::capture_incremental(
            VmId::new(0),
            "probe",
            Nanoseconds(epoch),
            rvisor_snapshot::SnapshotId(0),
            memory,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
    });
    Ok((took, snap?))
}

/// Probe the memory plane, the snapshot stores and the wire codec on
/// `guest` (source read, destination written).
pub fn data_plane_probes(guest: &Guest, ledger: &mut Ledger) -> Result<()> {
    let (src, dst) = (&guest.source, &guest.dest);
    let (pages, bytes) = (guest.pages(), src.total_size().as_u64());
    let slow = |f: &mut dyn FnMut()| median_call_s(SLOW_SAMPLES, SLOW_BUDGET, f);

    // Harvest: every second page dirty, drained into a reused buffer. Each
    // drain is timed on its own clock pair, so at a few dozen pages the
    // figure is mostly clock; it is on path only for the big guest.
    let mut harvest = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..SLOW_SAMPLES.max((4096 / pages) as usize) {
        (0..pages).step_by(2).for_each(|p| src.mark_dirty_page(p));
        let (took, ()) = time_s(|| src.drain_dirty_into(&mut harvest));
        samples.push(took * 1e9 / harvest.len() as f64);
    }
    ledger.set("memory.harvest_ns_per_page", median(&samples));

    // Copy: the engine's own pattern, source page → stack bounce → dest.
    let mut bounce = [0u8; PAGE_SIZE as usize];
    let secs = slow(&mut || {
        for p in 0..pages {
            src.with_page(p, |b| bounce.copy_from_slice(b))
                .expect("page");
            dst.with_page_mut(p, |b| b.copy_from_slice(&bounce))
                .expect("page");
        }
    });
    ledger.set("memory.page_copy_mib_per_s", mib_per_s(bytes, secs));
    let secs = slow(&mut || {
        for p in 0..pages {
            std::hint::black_box(
                src.with_page(p, |b| (is_zero(b), fingerprint(b)))
                    .expect("page"),
            );
        }
    });
    ledger.set("memory.scan_mib_per_s", mib_per_s(bytes, secs));

    // Plain snapshots: capture, store, restore.
    let secs = slow(&mut || drop(std::hint::black_box(capture_full(src))));
    ledger.set("snapshot.capture_full_mib_per_s", mib_per_s(bytes, secs));
    let mut incremental = Vec::new();
    for epoch in 1..=SLOW_SAMPLES as u64 {
        let (took, snap) = capture_incremental(src, epoch)?;
        incremental.push(mib_per_s(snap.memory.data_size().as_u64(), took));
    }
    ledger.set(
        "snapshot.capture_incremental_mib_per_s",
        median(&incremental),
    );
    src.clear_dirty();

    let mut store = SnapshotStore::new();
    ledger.set(
        "snapshot.store_insert_us",
        each_call_us(SLOW_SAMPLES, |_| {
            let snap = capture_full(src).expect("capture");
            let (took, id) = time_s(|| store.insert(snap).expect("insert"));
            store.delete(id).expect("delete");
            took
        }),
    );
    let full = capture_full(src)?;
    let stored = store.insert(full.clone())?;
    let secs = slow(&mut || drop(std::hint::black_box(store.restore(stored, dst))));
    ledger.set("snapshot.store_restore_mib_per_s", mib_per_s(bytes, secs));
    drop(store);

    // The content-addressed store: novel write, known probe, read, GC.
    let mut novel = Vec::new();
    for _ in 0..SLOW_SAMPLES {
        let mut fresh = CasStore::new();
        let (took, ingested) = time_s(|| fresh.ingest(&full, None));
        ingested?;
        novel.push(mib_per_s(bytes, took));
    }
    ledger.set("snapshot.cas_ingest_novel_mib_per_s", median(&novel));
    let mut cas = CasStore::new();
    let (base, _) = cas.ingest(&full, None)?;
    let mut known = Vec::new();
    for _ in 0..SLOW_SAMPLES {
        let (took, ingested) = time_s(|| cas.ingest(&full, None));
        known.push(mib_per_s(bytes, took));
        cas.retire(ingested?.0)?;
    }
    ledger.set("snapshot.cas_ingest_known_mib_per_s", median(&known));
    let secs = slow(&mut || drop(std::hint::black_box(cas.restore(base, dst))));
    ledger.set("snapshot.cas_restore_mib_per_s", mib_per_s(bytes, secs));
    ledger.set(
        "snapshot.cas_retire_chain_us",
        each_call_us(SLOW_SAMPLES, |round| {
            // A chain of three incremental epochs on the warm base's twin.
            let (mut tip, _) = cas.ingest(&full, None).expect("ingest");
            for epoch in 1..=3 {
                let (_, snap) =
                    capture_incremental(src, (round * 3 + epoch) as u64 + 100).expect("capture");
                tip = cas.ingest(&snap, Some(tip)).expect("ingest").0;
            }
            time_s(|| cas.retire_chain(tip).expect("retire")).0
        }),
    );
    src.clear_dirty();
    drop((cas, full));

    // The wire codec alone: encode a whole round, apply a whole round.
    let all: Vec<u64> = (0..pages).collect();
    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let mut encode = |config: &MigrationConfig, warm: bool| -> Result<f64> {
        let mut samples = Vec::new();
        for _ in 0..SLOW_SAMPLES {
            let mut source = MigrationSource::with_config(src, config);
            if warm {
                // Fill the XBZRLE cache, so the timed round encodes deltas.
                source.encode_round(&all, &mut transport)?;
                let (_, burst) = transport.deliver(Nanoseconds::ZERO)?;
                transport.recycle(burst);
            }
            let (took, encoded) = time_s(|| source.encode_round(&all, &mut transport));
            encoded?;
            let (_, burst) = transport.deliver(Nanoseconds::ZERO)?;
            transport.recycle(burst);
            samples.push(mib_per_s(bytes, took));
        }
        Ok(median(&samples))
    };
    let raw = MigrationConfig::default();
    ledger.set("migrate.encode_raw_mib_per_s", encode(&raw, false)?);
    let xbzrle = MigrationConfig {
        compression: PageCompression::Xbzrle,
        ..raw
    };
    ledger.set("migrate.encode_xbzrle_mib_per_s", encode(&xbzrle, true)?);

    let mut source = MigrationSource::raw(src);
    source.send_hello(&mut transport)?;
    source.encode_round(&all, &mut transport)?;
    let (_, burst) = transport.deliver(Nanoseconds::ZERO)?;
    let secs = slow(&mut || {
        let mut sink = MigrationSink::new(dst);
        sink.apply_burst(&burst).expect("apply");
    });
    ledger.set("migrate.apply_mib_per_s", mib_per_s(bytes, secs));

    // XBZRLE on one lightly touched page: eight changed bytes in 4 KiB.
    let old = src.read_page(0)?;
    let mut new = old.clone();
    new.iter_mut().step_by(512).for_each(|b| *b ^= 0xff);
    ledger.set(
        "migrate.xbzrle_page_ns",
        batched_call_ns(|| xbzrle_encode(&old, &new)),
    );
    Ok(())
}

// ----------------------------------------------------- (b) migration rows

/// Times every call into the wrapped transport. `send_built` runs the
/// engine's frame-building closure inside the transport, so page encoding
/// into the burst counts as transport time here.
pub struct TimedTransport<'t> {
    inner: &'t mut dyn Transport,
    /// Host time spent inside the transport so far.
    pub spent: Duration,
}

impl<'t> TimedTransport<'t> {
    /// Wrap `inner`.
    pub fn new(inner: &'t mut dyn Transport) -> Self {
        TimedTransport {
            inner,
            spent: Duration::ZERO,
        }
    }

    fn time<O>(&mut self, f: impl FnOnce(&mut dyn Transport) -> O) -> O {
        let t = Instant::now();
        let out = f(self.inner);
        self.spent += t.elapsed();
        out
    }
}

impl Transport for TimedTransport<'_> {
    fn free_at(&self) -> Nanoseconds {
        self.inner.free_at()
    }
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.time(|t| t.send(frame))
    }
    fn send_built(&mut self, build: &mut dyn FnMut(&mut Vec<u8>)) -> Result<()> {
        self.time(|t| t.send_built(build))
    }
    fn deliver(&mut self, now: Nanoseconds) -> Result<(Nanoseconds, Vec<u8>)> {
        self.time(|t| t.deliver(now))
    }
    fn transmit_bytes(&mut self, now: Nanoseconds, bytes: u64) -> Result<Nanoseconds> {
        self.time(|t| t.transmit_bytes(now, bytes))
    }
    fn transmit_striped(&mut self, now: Nanoseconds, stripes: &[u64]) -> Result<Nanoseconds> {
        self.time(|t| t.transmit_striped(now, stripes))
    }
    fn recycle(&mut self, buf: Vec<u8>) {
        self.time(|t| t.recycle(buf))
    }
    fn latency(&self) -> Nanoseconds {
        self.inner.latency()
    }
    fn transfer_time(&self, bytes: u64) -> Nanoseconds {
        self.inner.transfer_time(bytes)
    }
    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }
}

/// Times every `run_for` of the wrapped dirtier: the load generator's share
/// of a timed migration, reported so it can be subtracted.
pub struct TimedDirtier<D: DirtySource> {
    inner: D,
    /// Host time spent dirtying so far.
    pub spent: Duration,
}

impl<D: DirtySource> TimedDirtier<D> {
    /// Wrap `inner`.
    pub fn new(inner: D) -> Self {
        TimedDirtier {
            inner,
            spent: Duration::ZERO,
        }
    }
}

impl<D: DirtySource> DirtySource for TimedDirtier<D> {
    fn run_for(&mut self, memory: &GuestMemory, duration: Nanoseconds) -> Result<u64> {
        let t = Instant::now();
        let out = self.inner.run_for(memory, duration);
        self.spent += t.elapsed();
        out
    }
    fn dirty_rate_bytes_per_sec(&self) -> u64 {
        self.inner.dirty_rate_bytes_per_sec()
    }
}

/// A span of the harness-driven loop: name, the span that caused it, and
/// its host interval in nanoseconds since the loop started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `migration`, `round`, or one of the four steps.
    pub name: &'static str,
    /// Index of the enclosing span; the root has none.
    pub parent: Option<usize>,
    /// Start and end, nanoseconds.
    pub interval: (u64, u64),
}

/// In-memory span log, read out when the loop ends.
#[derive(Debug)]
pub struct SpanLog {
    started: Instant,
    /// The spans, in the order they were opened.
    pub spans: Vec<Span>,
}

impl SpanLog {
    fn new() -> SpanLog {
        SpanLog {
            started: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let at = self.now();
        self.spans.push(Span {
            name,
            parent,
            interval: (at, at),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].interval.1 = self.now();
    }

    fn within<O>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> O) -> O {
        let span = self.open(name, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Total host seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.interval.1 - s.interval.0)
            .sum();
        ns as f64 / 1e9
    }
}

/// `PreCopy::migrate_over`'s round loop re-driven from outside through the
/// public `MigrationSource` / `MigrationSink` halves, with a span around
/// each step (migration → round → harvest / encode / deliver / apply).
/// Returns the spans and the simulated (rounds, pages sent) for comparison
/// with the engine's report.
pub fn harness_precopy(
    guest: &Guest,
    transport: &mut dyn Transport,
    dirtier: &mut dyn DirtySource,
) -> Result<(SpanLog, u32, u64)> {
    let config = MigrationConfig::default();
    let (src, dst) = (&guest.source, &guest.dest);
    let mut log = SpanLog::new();
    let migration = log.open("migration", None);
    let mut source = MigrationSource::with_config(src, &config);
    let mut sink = MigrationSink::new(dst);

    let hello = log.open("round", Some(migration));
    source.send_hello(transport)?;
    let start = transport.free_at();
    let mut now = deliver_and_apply(&mut log, hello, transport, &mut sink, start)?;
    log.close(hello);

    src.clear_dirty();
    let mut to_send: Vec<u64> = (0..src.total_pages()).collect();
    let mut harvest = Vec::new();
    let (mut rounds, mut pages_sent) = (0u32, 0u64);
    loop {
        rounds += 1;
        let round = log.open("round", Some(migration));
        log.within("encode", round, || source.encode_round(&to_send, transport))?;
        let done = deliver_and_apply(&mut log, round, transport, &mut sink, now)?;
        pages_sent += to_send.len() as u64;
        dirtier.run_for(src, done.saturating_sub(now))?;
        now = done;
        log.within("harvest", round, || src.drain_dirty_into(&mut harvest));
        log.close(round);
        std::mem::swap(&mut to_send, &mut harvest);
        if to_send.len() as u64 <= config.dirty_page_threshold || rounds >= config.max_rounds {
            break;
        }
    }
    let stop = log.open("round", Some(migration));
    log.within("encode", stop, || source.encode_round(&to_send, transport))?;
    let after = deliver_and_apply(&mut log, stop, transport, &mut sink, now)?;
    pages_sent += to_send.len() as u64;
    source.send_vcpu_states(&[VcpuState::default()], transport)?;
    deliver_and_apply(&mut log, stop, transport, &mut sink, after)?;
    log.close(stop);
    log.close(migration);
    Ok((log, rounds, pages_sent))
}

/// One burst across the wire and into the destination, a span around each.
fn deliver_and_apply(
    log: &mut SpanLog,
    round: usize,
    transport: &mut dyn Transport,
    sink: &mut MigrationSink<'_>,
    now: Nanoseconds,
) -> Result<Nanoseconds> {
    let (done, burst) = log.within("deliver", round, || transport.deliver(now))?;
    let applied = log.within("apply", round, || sink.apply_burst(&burst));
    transport.recycle(burst);
    applied?;
    Ok(done)
}

/// Fill the engine, loop, decorator and count rows for `guest` over `wire`.
/// Returns the digest contribution of the four serial reports.
pub fn migration_rows(
    guest: &Guest,
    wire: Wire,
    ledger: &mut Ledger,
    checks: &mut Checks,
) -> Fnv1a {
    // Every engine from outside, median of a few whole migrations.
    let mut serial_s = 0.0;
    for engine in Engine::ALL {
        let samples: Vec<f64> = (0..SLOW_SAMPLES)
            .map(|_| timed_migration(engine, guest, wire, checks).0)
            .collect();
        ledger.set(engine.row(), median(&samples));
        if engine == Engine::PreCopySerial {
            serial_s = median(&samples);
        }
    }

    // The serial engines once more behind the decorators.
    let (mut transport_spent, mut dirtier_spent) = (Duration::ZERO, Duration::ZERO);
    let mut reports: Vec<MigrationReport> = Vec::new();
    for engine in Engine::SERIAL {
        guest.reset_dest();
        let mut dirtier = TimedDirtier::new(guest.dirtier());
        let outcome = wire.with(|inner| {
            let mut transport = TimedTransport::new(inner);
            let outcome = engine.migrate(guest, &mut transport, &mut dirtier);
            transport_spent += transport.spent;
            outcome
        });
        dirtier_spent += dirtier.spent;
        checks.check(outcome.is_ok(), || {
            format!("decorated {engine:?} returned {outcome:?}")
        });
        reports.extend(outcome);
    }
    ledger.set("migrate.transport_s", transport_spent.as_secs_f64());
    ledger.set("migrate.dirtier_s", dirtier_spent.as_secs_f64());
    let sum = |f: fn(&MigrationReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let pages_sent = sum(|r| r.pages_transferred);
    ledger.set("migrate.rounds", sum(|r| u64::from(r.rounds)));
    ledger.set("migrate.pages_sent", pages_sent);
    ledger.set("migrate.wire_bytes", sum(|r| r.bytes_transferred));
    ledger.set(
        "migrate.useful_page_ratio",
        (guest.pages() * reports.len() as u64) as f64 / pages_sent.max(1.0),
    );

    // The harness-driven loop: same rounds and pages as the engine, or its
    // spans decompose something else than the engine's work.
    let mut loops = Vec::new();
    for _ in 0..SLOW_SAMPLES {
        guest.reset_dest();
        let mut dirtier = guest.dirtier();
        let driven = wire.with(|transport| harness_precopy(guest, transport, &mut dirtier));
        let same_work = matches!((&driven, reports.first()), (Ok((_, rounds, pages)), Some(engine))
            if *rounds == engine.rounds && *pages == engine.pages_transferred);
        checks.check(same_work && guest.dest_matches_source(), || {
            "the harness-driven pre-copy did different work than the engine".into()
        });
        loops.extend(driven.map(|(log, _, _)| log));
    }
    // A failed loop (already a failed check) leaves no spans: its rows read 0.
    let per_loop = |name: &str| match loops.as_slice() {
        [] => 0.0,
        logs => median(&logs.iter().map(|log| log.total_s(name)).collect::<Vec<_>>()),
    };
    for (row, name) in [
        ("migrate.loop_harvest_s", "harvest"),
        ("migrate.loop_encode_s", "encode"),
        ("migrate.loop_deliver_s", "deliver"),
        ("migrate.loop_apply_s", "apply"),
    ] {
        ledger.set(row, per_loop(name));
    }
    ledger.set(
        "migrate.engine_overhead_pct",
        (serial_s - per_loop("migration")) / serial_s * 100.0,
    );

    let mut digest = Fnv1a::default();
    reports.iter().for_each(|r| digest.update_debug(r));
    digest
}

/// The whole ledger for one workload: the traced day for about 40 % of
/// `seconds`, then the probes and the migration rows.
pub fn run_ledger(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
) -> (Ledger, Checks, u64) {
    let mut ledger = Ledger::default();
    let mut checks = Checks::default();
    let day = workload.day(scale, seed);
    let mut digest = day_rows(
        &day,
        Duration::from_secs_f64(seconds * 0.4),
        &mut ledger,
        &mut checks,
    );
    let probed = orch_probes(&day, &mut ledger);
    checks.check(probed.is_ok(), || {
        format!("orchestrator probes returned {probed:?}")
    });
    drop(day);

    let guest = Guest::build(workload.guest_pages(scale), seed);
    let probed = data_plane_probes(&guest, &mut ledger);
    checks.check(probed.is_ok(), || {
        format!("data-plane probes returned {probed:?}")
    });
    let (wire, _) = workload.batch();
    let migrations = migration_rows(&guest, wire, &mut ledger, &mut checks);
    digest.update(&migrations.finish().to_le_bytes());
    (ledger, checks, digest.finish())
}
