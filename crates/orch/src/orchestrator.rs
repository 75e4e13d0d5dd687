//! The orchestrator: one event loop driving a whole datacenter.
//!
//! Before the first event fires, a resolve pass gives every scenario event
//! the key of the VM it names, so the loop never probes a name. That rests
//! on one assumption, stated with the VM table in `vmtable.rs`: no name is
//! interned after the arrivals are. The loop checks it in debug builds.

use rvisor_cluster::{HostSpec, VmSpec};
use rvisor_migrate::{FaultService, MigrationPlan, PlanEngine};
use rvisor_obs::{ArgValue, Trace};
use rvisor_snapshot::BackupTarget;
use rvisor_types::{ByteSize, Error, HostId, Nanoseconds, Result};

use crate::cluster::{already_exists, BackupHandle, Cluster, HostPower};
use crate::dr::DrStores;
use crate::event::{EventQueue, OrchEvent};
use crate::params::{EngineChoice, OrchParams, FAILOVER_DETECTION_DELAY, PROVISION_LATENCY};
use crate::planner::MigrationPlanner;
use crate::policy::{DecisionReason, RebalancePolicy};
use crate::report::OrchReport;
use crate::scenario::Scenario;
use crate::vmtable::{PendingRestore, VmKey, VmState};

/// Stable engine label for trace arguments (matches `MigrationKind::name`,
/// plus `auto` for planner-deferred decisions).
fn engine_label(engine: EngineChoice) -> &'static str {
    match engine {
        EngineChoice::StopAndCopy => "stop-and-copy",
        EngineChoice::PreCopy => "pre-copy",
        EngineChoice::PostCopy => "post-copy",
        EngineChoice::Auto => "auto",
    }
}

/// A VM waiting for capacity (arrival deferred by a full cluster).
#[derive(Debug, Clone)]
struct PendingVm {
    key: VmKey,
    spec: VmSpec,
    arrived_at: Nanoseconds,
}

/// The datacenter control loop.
///
/// Owns the [`Cluster`], the [`EventQueue`] of pending restore completions,
/// the DR stores and the [`RebalancePolicy`], and turns a [`Scenario`] into
/// an [`OrchReport`] by consuming events in deterministic time order. See
/// the crate-level docs for the event/policy model.
pub struct Orchestrator {
    params: OrchParams,
    policy: Box<dyn RebalancePolicy>,
    cluster: Cluster,
    /// Restore completions scheduled by failure handling, not yet fired.
    queue: EventQueue<VmKey>,
    now: Nanoseconds,
    horizon: Nanoseconds,
    /// The plain and the content-addressed DR store; each VM's epochs live
    /// in its chain in the cluster's VM table.
    dr_stores: DrStores,
    /// Arrivals waiting for capacity, oldest first (their records are
    /// `Pending`). Per-VM DR state and scheduled restores live in the
    /// cluster's VM table.
    pending_placement: Vec<PendingVm>,
    report: OrchReport,
    /// Hosts powered on, and the instant that count was last read: the
    /// powered-time integral grows by `count × elapsed` at each change.
    powered: (u64, Nanoseconds),
    /// Observability plane: off by default, costing one branch per hook.
    trace: Trace,
    /// Thresholds for resolving [`EngineChoice::Auto`] decisions into a
    /// per-migration plan.
    planner: MigrationPlanner,
}

impl Orchestrator {
    /// Build an orchestrator over `host_specs` with `params` and `policy`.
    pub fn new(
        host_specs: Vec<HostSpec>,
        params: OrchParams,
        policy: Box<dyn RebalancePolicy>,
    ) -> Result<Self> {
        params.validate()?;
        let cluster = Cluster::new(host_specs, params)?;
        let powered = (cluster.powered_on() as u64, Nanoseconds::ZERO);
        Ok(Orchestrator {
            params,
            policy,
            cluster,
            queue: EventQueue::new(),
            now: Nanoseconds::ZERO,
            horizon: Nanoseconds::ZERO,
            dr_stores: DrStores::default(),
            pending_placement: Vec::new(),
            report: OrchReport::default(),
            powered,
            trace: Trace::off(),
            planner: MigrationPlanner::default(),
        })
    }

    /// Replace the adaptive planner's thresholds (consulted only for
    /// [`EngineChoice::Auto`] decisions). Deterministic: the planner is
    /// pure, so a same-seed run with the same thresholds replays `==`.
    pub fn set_planner(&mut self, planner: MigrationPlanner) {
        self.planner = planner;
    }

    /// Attach a trace sink before [`Orchestrator::run`]. Propagates to the
    /// cluster and its fabric, so one sink sees every layer. Tracing never
    /// influences the simulation: a traced run produces an `==`-equal
    /// [`OrchReport`] to an untraced one.
    pub(crate) fn set_trace(&mut self, trace: Trace) {
        self.cluster.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Run `scenario` to completion and return the SLA report.
    ///
    /// Deterministic: the same scenario (same seed/config) against the same
    /// parameters and policy produces an `==`-equal report every time.
    /// A scenario whose events are not time-sorted, that has an event after
    /// `config.duration`, or that lists an internal event
    /// ([`OrchEvent::RebalanceTick`], [`OrchEvent::BackupTick`] or
    /// [`OrchEvent::RestoreComplete`]) is refused with [`Error::Config`]
    /// before any event fires.
    pub fn run(mut self, scenario: &Scenario) -> Result<OrchReport> {
        self.run_events(scenario)?;
        self.finalize()
    }

    /// The resolve pass: check that `events` is a source the event loop can
    /// read, then give each event the key of the VM it names, in a column
    /// parallel to `events`. `None`: the event names no VM, or one that no
    /// arrival of the scenario introduces — so there is nothing it could
    /// refer to and it is counted as dropped. Arrivals are interned first,
    /// so that list order cannot decide whether a name is known; since no
    /// name is interned after them (see the `vmtable` module docs), every
    /// key stays right all day and the loop never probes a name.
    fn resolve_events(
        &mut self,
        events: &[(Nanoseconds, OrchEvent)],
    ) -> Result<Vec<Option<VmKey>>> {
        // A sorted source that ends inside the day, with none of the events
        // only the orchestrator schedules: check before any state moves.
        let mut last = Nanoseconds::ZERO;
        for (at, event) in events {
            if *at < last {
                return Err(Error::Config(format!(
                    "scenario events out of time order: {} at {} follows one at {}",
                    event.kind(),
                    at,
                    last
                )));
            }
            match event {
                OrchEvent::RestoreComplete { vm } => {
                    return Err(Error::Config(format!(
                        "scenario lists the internal event {} for {vm} at {at}: \
                         only a host failure schedules one",
                        event.kind()
                    )))
                }
                OrchEvent::RebalanceTick | OrchEvent::BackupTick => {
                    return Err(Error::Config(format!(
                        "scenario lists the internal event {} at {at}: \
                         the orchestrator schedules its own ticks",
                        event.kind()
                    )))
                }
                _ => {}
            }
            last = *at;
        }
        if let Some((at, event)) = events.last().filter(|(at, _)| *at > self.horizon) {
            return Err(Error::Config(format!(
                "scenario event {} at {} is past the end of the {} day",
                event.kind(),
                at,
                self.horizon
            )));
        }

        let vms = &mut self.cluster.vms;
        let mut keys: Vec<Option<VmKey>> = events
            .iter()
            .map(|(_, event)| match event {
                OrchEvent::VmArrival { spec } => Some(vms.intern(&spec.name)),
                _ => None,
            })
            .collect();
        for (key, (_, event)) in keys.iter_mut().zip(events) {
            if let OrchEvent::VmDeparture { vm } | OrchEvent::LoadChange { vm, .. } = event {
                *key = vms.lookup(vm);
            }
        }
        Ok(keys)
    }

    /// Everything of [`Self::run`] before the end-of-day accounting.
    fn run_events(&mut self, scenario: &Scenario) -> Result<()> {
        self.horizon = scenario.config.duration;
        self.cluster.vms.reserve(scenario.config.vm_arrivals);
        let events = &scenario.events;
        let keys = self.resolve_events(events)?;
        let interned = self.cluster.vms.records().count();

        // `expected_events` re-derives the delivery count from the sources'
        // sizes, independently of the loop, so the post-run conservation
        // check has teeth.
        let horizon = self.horizon;
        let (rebalance, backup) = (self.params.rebalance_interval, self.params.backup_interval);
        let ticks =
            |interval: Nanoseconds| horizon.as_nanos().saturating_sub(1) / interval.as_nanos();
        let mut expected_events = events.len() as u64 + ticks(rebalance) + ticks(backup);

        // Four sources, each already in time order: the scenario's events,
        // the rebalance ticks, the backup ticks (both strictly inside the
        // day), and the queue of restore completions that failure handling
        // schedules mid-run. Each step fires the earliest head; a
        // same-instant tie goes to the earlier source in that list, so a
        // tick fires after the load it reacts to and a completion after
        // everything else at its instant.
        let (mut next, mut rebalance_at, mut backup_at) = (0, rebalance, backup);
        let tick = |at: Nanoseconds| (at < horizon).then_some(at);
        // A completion is dispatched (and traced) as the public event it
        // stands for; its VM travels as a key.
        let restore_complete = OrchEvent::RestoreComplete { vm: String::new() };
        loop {
            let heads = [
                events.get(next).map(|(at, _)| *at),
                tick(rebalance_at),
                tick(backup_at),
                self.queue.peek().map(|restore| restore.at),
            ];
            let earliest = heads.into_iter().enumerate();
            let Some((at, source)) = earliest.filter_map(|(i, at)| Some((at?, i))).min() else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.report.events_processed += 1;
            let (event, key) = match source {
                0 => {
                    let i = next;
                    next += 1;
                    (&events[i].1, keys[i])
                }
                1 => {
                    rebalance_at = rebalance_at.saturating_add(rebalance);
                    (&OrchEvent::RebalanceTick, None)
                }
                2 => {
                    backup_at = backup_at.saturating_add(backup);
                    (&OrchEvent::BackupTick, None)
                }
                _ => {
                    let key = self.queue.pop().expect("the peeked head").event;
                    if at > self.horizon {
                        // Only restore completions can outlive the day.
                        // Leaving the record `Restoring` lets finalize()
                        // account the VM as an end-of-day in-flight
                        // restore; simulated time never advances past the
                        // horizon.
                        continue;
                    }
                    (&restore_complete, Some(key))
                }
            };
            self.now = at;
            if self.trace.is_on() {
                self.trace.instant("orch", event.kind(), self.now, &[]);
            }
            match (event, key) {
                (OrchEvent::HostFailure { host }, _) => self.on_host_failure(*host)?,
                (OrchEvent::SpineFailure { spine }, _) => self.on_spine_failure(*spine)?,
                (OrchEvent::RebalanceTick, _) => self.on_rebalance_tick()?,
                (OrchEvent::BackupTick, _) => self.on_backup_tick()?,
                (_, None) => self.report.events_dropped += 1,
                (OrchEvent::VmArrival { spec }, Some(key)) => self.on_arrival(key, spec)?,
                (OrchEvent::VmDeparture { .. }, Some(key)) => self.on_departure(key)?,
                (OrchEvent::RestoreComplete { .. }, Some(key)) => self.on_restore_complete(key)?,
                (
                    OrchEvent::LoadChange {
                        cpu_demand_millicores,
                        ..
                    },
                    Some(key),
                ) => self.on_load_change(key, *cpu_demand_millicores)?,
            }
        }
        debug_assert_eq!(
            self.cluster.vms.records().count(),
            interned,
            "a name was interned mid-run: the resolved keys may be stale"
        );

        // Conservation: every scenario event and tick plus every restore
        // scheduled mid-run by HostFailure handling was delivered exactly
        // once. The expected count is derived from the sources' sizes and
        // the queue's push count, independently of the loop, so a merge that
        // skipped or repeated an event fails here.
        expected_events += self.queue.pushed();
        if self.report.events_processed != expected_events {
            return Err(Error::Config(format!(
                "event conservation violated: {} scheduled, {} delivered",
                expected_events, self.report.events_processed
            )));
        }
        Ok(())
    }

    fn finalize(mut self) -> Result<OrchReport> {
        self.now = self.horizon;
        // Arrivals still waiting never made it.
        self.report.placements_unmet = self.pending_placement.len() as u64;
        // Restores still in flight never completed: the outage runs to the
        // end of the day.
        for record in self.cluster.vms.records() {
            let VmState::Restoring(pr) = &record.state else {
                continue;
            };
            self.report.vm_time_lost = self
                .report
                .vm_time_lost
                .saturating_add(self.horizon.saturating_sub(pr.failed_at));
            self.report.vms_lost_permanently += 1;
        }
        // Close the powered-time integral.
        self.accrue_power();
        self.report.sim_end = self.horizon;
        self.report.vms_running_at_end = self.cluster.total_vms() as u64;
        self.report.hosts_powered_at_end = self.cluster.powered_on() as u64;
        // Both zero unless the content-addressed store was in use.
        self.report.dr_store_chunks = self.dr_stores.cas.chunk_count();
        self.report.dr_store_bytes = self.dr_stores.cas.stored_bytes().as_u64();
        Ok(self.report)
    }

    /// Accrue powered time up to `now` at the last read count, then re-read
    /// the count from the cluster.
    fn accrue_power(&mut self) {
        let (count, since) = self.powered;
        let span = self
            .now
            .saturating_sub(since)
            .as_nanos()
            .saturating_mul(count);
        let total = &mut self.report.powered_host_time;
        *total = total.saturating_add(Nanoseconds(span));
        self.powered = (self.cluster.powered_on() as u64, self.now);
    }

    fn note_power_change(&mut self) {
        self.accrue_power();
        let powered = self.powered.0;
        self.report.peak_hosts_powered = self.report.peak_hosts_powered.max(powered);
    }

    fn note_vm_count(&mut self) {
        let total = self.cluster.total_vms() as u64;
        self.report.peak_vms = self.report.peak_vms.max(total);
    }

    /// Find capacity for `spec`, powering on a parked host if needed.
    fn find_capacity(&mut self, spec: &VmSpec) -> Option<HostId> {
        if let Some(h) = self.cluster.choose_host(self.params.placement, spec) {
            return Some(h);
        }
        // Placement pressure overrides consolidation: wake a parked host.
        let parked = self.cluster.first_parked()?;
        self.cluster.power_on(parked).ok()?;
        self.report.power_on_actions += 1;
        self.note_power_change();
        self.cluster.choose_host(self.params.placement, spec)
    }

    fn place_now(&mut self, key: VmKey, spec: &VmSpec, arrived_at: Nanoseconds) -> Result<bool> {
        let Some(host) = self.find_capacity(spec) else {
            return Ok(false);
        };
        self.cluster.deploy_key(key, host, spec.clone())?;
        let latency = self
            .now
            .saturating_sub(arrived_at)
            .saturating_add(PROVISION_LATENCY);
        if self.trace.is_on() {
            self.trace.instant(
                "orch",
                "placement",
                self.now,
                &[
                    ("vm", ArgValue::Str(&spec.name)),
                    ("host", ArgValue::U64(u64::from(host.raw()))),
                    ("latency_ns", ArgValue::U64(latency.as_nanos())),
                ],
            );
            self.trace
                .observe("placement.latency_ns", latency.as_nanos());
        }
        self.report.vms_placed += 1;
        self.report.placement_latency_total =
            self.report.placement_latency_total.saturating_add(latency);
        self.report.placement_latency_max = self.report.placement_latency_max.max(latency);
        self.note_vm_count();
        Ok(true)
    }

    fn on_arrival(&mut self, key: VmKey, spec: &VmSpec) -> Result<()> {
        self.report.vms_arrived += 1;
        // One VM, one state: a name that is already waiting, placed or being
        // restored cannot arrive again.
        if !matches!(self.cluster.vms[key].state, VmState::Absent) {
            return Err(already_exists(&spec.name));
        }
        let arrived_at = self.now;
        if !self.place_now(key, spec, arrived_at)? {
            self.report.placements_deferred += 1;
            self.cluster.vms[key].state = VmState::Pending;
            self.pending_placement.push(PendingVm {
                key,
                spec: spec.clone(),
                arrived_at,
            });
        }
        Ok(())
    }

    /// Retry deferred placements (capacity may have appeared).
    fn drain_pending(&mut self) -> Result<()> {
        let mut still_waiting = Vec::new();
        let waiting = std::mem::take(&mut self.pending_placement);
        for p in waiting {
            // FIFO with backfill: a later, smaller VM may land even while the
            // head of the queue is still waiting for a big slot.
            if !self.place_now(p.key, &p.spec, p.arrived_at)? {
                still_waiting.push(p);
            }
        }
        self.pending_placement = still_waiting;
        Ok(())
    }

    /// Release every DR epoch held for `key` (a departure, or a loss for
    /// good); a retired manifest chain's chunks are garbage-collected.
    fn drop_backups(&mut self, key: VmKey) {
        let manifests = self.cluster.vms[key].dr.release(&mut self.dr_stores);
        if manifests > 0 && self.trace.is_on() {
            self.trace.instant(
                "dr/cas",
                "retire-chain",
                self.now,
                &[
                    ("vm", ArgValue::Str(self.cluster.vms.name(key))),
                    ("epochs", ArgValue::U64(manifests)),
                ],
            );
        }
    }

    /// A VM lost for good at `failed_at`: its outage runs to the end of the
    /// day, and it releases whatever it holds at the DR site — which could
    /// otherwise leak, or restore an unrelated future VM of the same name.
    fn lose_for_good(&mut self, key: VmKey, failed_at: Nanoseconds) {
        self.drop_backups(key);
        self.report.vms_lost_permanently += 1;
        self.charge_outage(failed_at, self.horizon);
    }

    fn charge_outage(&mut self, from: Nanoseconds, to: Nanoseconds) {
        let lost = &mut self.report.vm_time_lost;
        *lost = lost.saturating_add(to.saturating_sub(from));
    }

    fn on_departure(&mut self, key: VmKey) -> Result<()> {
        match self.cluster.vms[key].state {
            VmState::Placed { .. } => {
                self.cluster.destroy_key(key)?;
                self.drop_backups(key);
                self.drain_pending()?;
            }
            VmState::Pending => {
                self.pending_placement.retain(|p| p.key != key);
                self.cluster.vms[key].state = VmState::Absent;
            }
            VmState::Restoring(_) => {
                // The tenant gave up on a VM we were still restoring: the
                // outage ran from the failure to this departure.
                let pr = self.cluster.vms[key].take_restoring();
                self.charge_outage(pr.expect("matched Restoring").failed_at, self.now);
                self.drop_backups(key);
            }
            // Already gone (permanently lost, or double departure).
            VmState::Absent => {
                self.report.events_dropped += 1;
                return Ok(());
            }
        }
        self.report.vms_departed += 1;
        Ok(())
    }

    fn on_load_change(&mut self, key: VmKey, millicores: u32) -> Result<()> {
        let demand = millicores as f64 / 1000.0;
        match &mut self.cluster.vms[key].state {
            VmState::Placed { .. } => {
                self.cluster.set_cpu_demand_key(key, demand)?;
            }
            VmState::Pending => {
                let waiting = self.pending_placement.iter_mut().find(|p| p.key == key);
                let waiting = waiting.expect("Pending VMs are queued");
                waiting.spec.cpu_demand_cores = demand;
            }
            VmState::Restoring(pr) => pr.spec.cpu_demand_cores = demand,
            VmState::Absent => self.report.events_dropped += 1,
        }
        Ok(())
    }

    fn on_host_failure(&mut self, host: HostId) -> Result<()> {
        let Some(pos) = self.cluster.position_of(host) else {
            self.report.events_dropped += 1;
            return Ok(());
        };
        if self.cluster.host_at(pos).power() == HostPower::Failed {
            self.report.events_dropped += 1;
            return Ok(());
        }
        let lost = self.cluster.fail_host_keyed(host)?;
        self.report.hosts_failed += 1;
        self.report.vms_lost_at_failure += lost.len() as u64;
        self.note_power_change();
        if self.trace.is_on() {
            self.trace.instant(
                "orch",
                "failure",
                self.now,
                &[
                    ("host", ArgValue::U64(u64::from(host.raw()))),
                    ("vms_lost", ArgValue::U64(lost.len() as u64)),
                ],
            );
        }

        // DR: schedule restores for every backed-up casualty. The restore
        // pipeline is serial (one DR target), so completion times accumulate:
        // detection delay, then setup + transfer per VM.
        let mut done_at = self.now.saturating_add(FAILOVER_DETECTION_DELAY);
        let target = BackupTarget::default();
        for (key, spec) in lost {
            // Only an epoch whose stream has fully arrived at the DR target
            // by the failure instant is restorable; bytes still on the wire
            // died with the host (the retained generation is the fallback).
            match self.cluster.vms[key].dr.fail(self.now, &mut self.dr_stores) {
                Some(backup) => {
                    let size = self.dr_stores.restore_size(backup, &mut self.cluster)?;
                    done_at = done_at
                        .saturating_add(target.restore_setup)
                        .saturating_add(target.read_time(size));
                    self.queue.push(done_at, key);
                    if self.trace.is_on() {
                        self.trace.instant(
                            "orch/policy",
                            "restore-scheduled",
                            self.now,
                            &[
                                ("vm", ArgValue::Str(&spec.name)),
                                ("ready_at_ns", ArgValue::U64(done_at.as_nanos())),
                                (
                                    "reason",
                                    ArgValue::Str(DecisionReason::FailureRecovery.as_str()),
                                ),
                            ],
                        );
                    }
                    self.cluster.vms[key].state = VmState::Restoring(Box::new(PendingRestore {
                        spec,
                        backup,
                        failed_at: self.now,
                    }));
                }
                None => {
                    // Never backed up (or every epoch was still on the
                    // wire): gone for good.
                    self.lose_for_good(key, self.now);
                    if self.trace.is_on() {
                        self.trace.instant(
                            "orch",
                            "vm-lost",
                            self.now,
                            &[("vm", ArgValue::Str(&spec.name))],
                        );
                    }
                }
            }
        }
        Ok(())
    }

    fn on_restore_complete(&mut self, key: VmKey) -> Result<()> {
        let Some(pr) = self.cluster.vms[key].take_restoring() else {
            // Restore was cancelled (the VM departed mid-restore).
            self.report.events_dropped += 1;
            return Ok(());
        };
        let Some(host) = self.find_capacity(&pr.spec) else {
            // Nowhere to put it: permanently lost to capacity.
            self.lose_for_good(key, pr.failed_at);
            return Ok(());
        };
        self.dr_stores.restore(&mut self.cluster, &pr, host)?;
        if self.trace.is_on() {
            // The restore span covers the whole outage: failure to resumption.
            self.trace.span(
                "dr",
                "restore",
                pr.failed_at,
                self.now,
                &[
                    ("vm", ArgValue::Str(&pr.spec.name)),
                    ("host", ArgValue::U64(u64::from(host.raw()))),
                    (
                        "outage_ns",
                        ArgValue::U64(self.now.saturating_sub(pr.failed_at).as_nanos()),
                    ),
                ],
            );
            self.trace.observe(
                "restore.outage_ns",
                self.now.saturating_sub(pr.failed_at).as_nanos(),
            );
            self.trace.add("restores", 1);
        }
        self.report.vms_restored += 1;
        self.charge_outage(pr.failed_at, self.now);
        self.note_vm_count();
        Ok(())
    }

    fn on_spine_failure(&mut self, spine: usize) -> Result<()> {
        // Degrade, never partition: the fabric refuses to fail its last live
        // spine (and the single-spine topology refuses always); a refused
        // failure is consumed and counted, not an error.
        match self.cluster.fail_spine(spine) {
            Ok(()) => {
                self.report.spines_failed += 1;
                if self.trace.is_on() {
                    self.trace.instant(
                        "orch",
                        "spine-failed",
                        self.now,
                        &[("spine", ArgValue::U64(spine as u64))],
                    );
                }
            }
            Err(_) => self.report.events_dropped += 1,
        }
        Ok(())
    }

    /// Resolve a policy's engine selector into the [`MigrationPlan`] one
    /// migration will execute. Static choices carry the run-level knobs;
    /// [`EngineChoice::Auto`] consults the adaptive planner with the VM's
    /// observed dirty rate, spec size and the current fabric backlog, and
    /// emits the decision as a typed `orch/planner` instant.
    fn resolve_plan(&mut self, choice: EngineChoice, vm: &str) -> MigrationPlan {
        let engine = match choice {
            EngineChoice::StopAndCopy => PlanEngine::StopAndCopy,
            EngineChoice::PreCopy => PlanEngine::PreCopy,
            EngineChoice::PostCopy => PlanEngine::PostCopy,
            EngineChoice::Auto => {
                let dirty_rate = self.cluster.observed_dirty_rate(vm).unwrap_or(0);
                let guest = self.cluster.spec_memory_of(vm).unwrap_or(ByteSize::new(0));
                let backlog = self.cluster.fabric().free_at().saturating_sub(self.now);
                let chosen = self.planner.plan(dirty_rate, guest, backlog);
                self.report.planner_decisions += 1;
                match chosen.plan.engine {
                    PlanEngine::StopAndCopy => self.report.planner_stop_and_copy += 1,
                    PlanEngine::PreCopy => self.report.planner_pre_copy += 1,
                    PlanEngine::PostCopy => self.report.planner_post_copy += 1,
                }
                if chosen.plan.fault_service == FaultService::FaultLane {
                    self.report.planner_fault_lane += 1;
                }
                if self.trace.is_on() {
                    self.trace.instant(
                        "orch/planner",
                        "plan",
                        self.now,
                        &[
                            ("vm", ArgValue::Str(vm)),
                            ("engine", ArgValue::Str(chosen.plan.engine.name())),
                            (
                                "fault_service",
                                ArgValue::Str(chosen.plan.fault_service.name()),
                            ),
                            ("streams", ArgValue::U64(chosen.plan.streams.get() as u64)),
                            ("dirty_rate", ArgValue::U64(dirty_rate)),
                            ("guest_bytes", ArgValue::U64(guest.as_u64())),
                            ("backlog_ns", ArgValue::U64(backlog.as_nanos())),
                            ("reason", ArgValue::Str(chosen.reason)),
                        ],
                    );
                    self.trace.add("planner.decisions", 1);
                }
                return chosen.plan;
            }
        };
        MigrationPlan {
            engine,
            streams: self.params.migration_streams,
            compression: self.params.migration_compression,
            ..Default::default()
        }
    }

    fn on_rebalance_tick(&mut self) -> Result<()> {
        let plan = self.policy.plan(&self.cluster, &self.params);
        let reason = self.policy.reason();
        for host in &plan.power_on {
            if self.cluster.power_on(*host).is_ok() {
                self.report.power_on_actions += 1;
                self.note_power_change();
                if self.trace.is_on() {
                    self.trace.instant(
                        "orch/policy",
                        "power-on",
                        self.now,
                        &[
                            ("host", ArgValue::U64(u64::from(host.raw()))),
                            ("reason", ArgValue::Str(reason.as_str())),
                        ],
                    );
                }
            }
        }
        for decision in plan
            .migrations
            .iter()
            .take(self.params.max_migrations_per_tick)
        {
            self.report.migrations_planned += 1;
            if self.trace.is_on() {
                // Why this VM / this host / this engine and stream count —
                // the typed reason plus the decision itself, even when the
                // execution below is skipped (the skip is visible too).
                self.trace.instant(
                    "orch/policy",
                    "decision",
                    self.now,
                    &[
                        ("vm", ArgValue::Str(&decision.vm)),
                        ("to", ArgValue::U64(u64::from(decision.to.raw()))),
                        ("engine", ArgValue::Str(engine_label(decision.engine))),
                        (
                            "streams",
                            ArgValue::U64(self.params.migration_streams.get() as u64),
                        ),
                        ("reason", ArgValue::Str(reason.as_str())),
                        ("policy", ArgValue::Str(self.policy.name())),
                    ],
                );
                self.trace.add("policy.decisions", 1);
            }
            let Some(from) = self.cluster.host_of(&decision.vm) else {
                self.report.migrations_skipped += 1;
                continue;
            };
            // How long this migration will sit queued for the fabric: the
            // engine's own clock starts when the path frees, so the queue
            // wait is accounted here, at the layer that owns the decision
            // instant. (Computed before the migration mutates the marks.)
            let fabric_wait = match (
                self.cluster.position_of(from),
                self.cluster.position_of(decision.to),
            ) {
                (Some(f), Some(t)) => self
                    .cluster
                    .fabric()
                    .path_free_at(f, t)
                    .map(|free| free.saturating_sub(self.now))
                    .unwrap_or(Nanoseconds::ZERO),
                _ => Nanoseconds::ZERO,
            };
            let exec_plan = self.resolve_plan(decision.engine, &decision.vm);
            match self
                .cluster
                .migrate_planned(&decision.vm, decision.to, &exec_plan, self.now)
            {
                Ok(r) => {
                    self.report.migrations_completed += 1;
                    self.report.migration_fabric_wait_total = self
                        .report
                        .migration_fabric_wait_total
                        .saturating_add(fabric_wait);
                    self.report.migration_downtime_total = self
                        .report
                        .migration_downtime_total
                        .saturating_add(r.downtime);
                    self.report.migration_time_total = self
                        .report
                        .migration_time_total
                        .saturating_add(r.total_time);
                    self.report.migration_bytes += r.bytes_transferred;
                    // The adaptive control plane's acceptance metric: both
                    // a long pause and a long transfer make it worse.
                    self.report.downtime_duration_integral +=
                        r.downtime.as_nanos() as u128 * r.total_time.as_nanos() as u128;
                }
                Err(_) => self.report.migrations_skipped += 1,
            }
        }
        for host in &plan.power_off {
            if self.cluster.power_off(*host).is_ok() {
                self.report.power_off_actions += 1;
                self.note_power_change();
                if self.trace.is_on() {
                    self.trace.instant(
                        "orch/policy",
                        "power-off",
                        self.now,
                        &[
                            ("host", ArgValue::U64(u64::from(host.raw()))),
                            ("reason", ArgValue::Str(reason.as_str())),
                        ],
                    );
                }
            }
        }
        self.drain_pending()
    }

    /// The periodic DR sweep: every VM on every powered-on host, in host
    /// vector × placement order (the order fabric occupancy depends on),
    /// straight off the hosts' VM lists — no name is touched.
    fn on_backup_tick(&mut self) -> Result<()> {
        let label = format!("backup@{}", self.now.as_nanos());
        for pos in 0..self.cluster.hosts().len() {
            if self.cluster.host_at(pos).power() != HostPower::On {
                continue;
            }
            for slot in 0..self.cluster.host_at(pos).vms().len() {
                let key = self.cluster.host_at(pos).vms()[slot].0;
                self.backup(key, &label)?;
            }
        }
        Ok(())
    }

    /// Back one VM up: capture an epoch, stream it across the shared fabric
    /// to the DR endpoint (contending with any in-flight migrations), and
    /// record it in the VM's chain. The one place the store is chosen: with
    /// [`OrchParams::dedup_backups`] the epoch is ingested into the
    /// content-addressed store — incremental on the chain's newest epoch
    /// unless the chain asks for a full — and only novel chunks ship;
    /// otherwise it is a full snapshot.
    fn backup(&mut self, key: VmKey, label: &str) -> Result<()> {
        let (now, stores) = (self.now, &mut self.dr_stores);
        let (e, parent) = if self.params.dedup_backups {
            // Settle before the ingest, so it dedupes against no chunk of a
            // generation the arrived anchor retires.
            let chain = &mut self.cluster.vms[key].dr;
            chain.settle(now, stores);
            let parent = chain.parent();
            let cas = &mut stores.cas;
            let e = self
                .cluster
                .backup_dedup_key(key, label, cas, parent, now)?;
            (e, parent)
        } else {
            let e = self
                .cluster
                .backup_key(key, label, &mut stores.plain, now)?;
            (e, None)
        };
        let r = &mut self.report;
        r.backups_taken += 1;
        // `backup_bytes` keeps its bytes-on-wire meaning, so the
        // dedup-on/off comparison reads straight off the report.
        r.backup_bytes += e.wire_bytes;
        let write = BackupTarget::default().write_time(ByteSize::new(e.write_bytes));
        let spent = e.arrival.saturating_sub(now).saturating_add(write);
        r.backup_time_total = r.backup_time_total.saturating_add(spent);
        if let BackupHandle::Manifested(manifest) = e.handle {
            r.backup_chunks_shipped += e.stats.chunks_novel;
            r.backup_chunks_deduped += e.stats.chunks_deduped;
            r.backup_bytes_deduped += e.stats.bytes_deduped;
            if self.trace.is_on() {
                self.trace.instant(
                    "dr/cas",
                    "ingest",
                    now,
                    &[
                        ("vm", ArgValue::Str(self.cluster.vms.name(key))),
                        ("manifest", ArgValue::U64(manifest.0)),
                        ("full", ArgValue::U64(u64::from(parent.is_none()))),
                        ("chunks_novel", ArgValue::U64(e.stats.chunks_novel)),
                        ("chunks_deduped", ArgValue::U64(e.stats.chunks_deduped)),
                        ("wire_bytes", ArgValue::U64(e.wire_bytes)),
                    ],
                );
                self.trace.add("cas.chunks_shipped", e.stats.chunks_novel);
                self.trace.add("cas.chunks_deduped", e.stats.chunks_deduped);
            }
        }
        let chain = &mut self.cluster.vms[key].dr;
        chain.push((e.handle, e.arrival), parent.is_none(), now, stores);
        Ok(())
    }
}

/// Convenience: run `scenario` on a uniform cluster of `hosts` modern
/// servers with `params` and `policy`, returning the report.
pub fn run_datacenter(
    hosts: usize,
    params: OrchParams,
    policy: Box<dyn RebalancePolicy>,
    scenario: &Scenario,
) -> Result<OrchReport> {
    run_datacenter_traced(hosts, params, policy, scenario, Trace::off())
}

/// [`run_datacenter`] with a trace sink attached to every layer (event loop,
/// policy decisions, cluster migrations, fabric transfers, DR backups).
///
/// With [`Trace::off`] this is exactly [`run_datacenter`]; with a sink the
/// report is still `==`-equal — tracing observes, never steers.
pub fn run_datacenter_traced(
    hosts: usize,
    params: OrchParams,
    policy: Box<dyn RebalancePolicy>,
    scenario: &Scenario,
    trace: Trace,
) -> Result<OrchReport> {
    if hosts == 0 {
        return Err(Error::Config("need at least one host".into()));
    }
    let specs = (0..hosts)
        .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
        .collect();
    let mut orch = Orchestrator::new(specs, params, policy)?;
    orch.set_trace(trace);
    orch.run(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ConsolidateAndPowerDown, SpreadRebalance, ThresholdRebalance};
    use crate::scenario::{ScenarioConfig, WorkloadShape};

    impl Orchestrator {}

    fn small_scenario(seed: u64, failures: usize) -> Scenario {
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(seed, WorkloadShape::SteadyState, 4, 40)
        }
        .with_host_failures(failures);
        Scenario::generate(cfg).unwrap()
    }

    fn fast_params() -> OrchParams {
        OrchParams {
            rebalance_interval: Nanoseconds::from_secs(600),
            backup_interval: Nanoseconds::from_secs(900),
            ..Default::default()
        }
    }

    #[test]
    fn day_runs_and_reports() {
        let s = small_scenario(1, 0);
        let r = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(r.vms_arrived, 40);
        assert!(r.vms_placed > 0);
        assert!(r.backups_taken > 0);
        assert_eq!(r.hosts_failed, 0);
        // With no failures, every placed VM either departed or is still up
        // (departures may additionally cover never-placed, still-queued VMs).
        assert!(r.vms_placed <= r.vms_departed + r.vms_running_at_end);
        assert!(r.peak_vms >= r.vms_running_at_end);
        assert!(r.placement_latency_max >= r.placement_latency_avg());
    }

    #[test]
    fn multi_stream_day_replays_identically() {
        // A datacenter day whose rebalance migrations run through the
        // pipelined 4-stream data plane must still be a pure function of
        // the scenario: same seed, `==` report — thread scheduling inside
        // the migration engine can never leak into the simulated clock.
        let params = OrchParams {
            migration_streams: std::num::NonZeroUsize::new(4).unwrap(),
            ..fast_params()
        };
        let a = run_datacenter(
            4,
            params,
            Box::new(ThresholdRebalance),
            &small_scenario(9, 1),
        )
        .unwrap();
        let b = run_datacenter(
            4,
            params,
            Box::new(ThresholdRebalance),
            &small_scenario(9, 1),
        )
        .unwrap();
        assert_eq!(a, b, "multi-stream day must replay identically");
        // The multi-stream day moves the same payload bytes as the serial
        // one; only fabric timing may differ (per-stream MTU framing).
        let serial = run_datacenter(
            4,
            fast_params(),
            Box::new(ThresholdRebalance),
            &small_scenario(9, 1),
        )
        .unwrap();
        assert_eq!(a.migrations_completed, serial.migrations_completed);
    }

    #[test]
    fn same_seed_same_report_across_policies() {
        for policy in 0..3 {
            let mk = || -> Box<dyn crate::policy::RebalancePolicy> {
                match policy {
                    0 => Box::new(ThresholdRebalance),
                    1 => Box::new(ConsolidateAndPowerDown),
                    _ => Box::new(SpreadRebalance),
                }
            };
            let a = run_datacenter(4, fast_params(), mk(), &small_scenario(7, 1)).unwrap();
            let b = run_datacenter(4, fast_params(), mk(), &small_scenario(7, 1)).unwrap();
            assert_eq!(a, b, "policy {policy} must replay identically");
        }
    }

    #[test]
    fn host_failure_triggers_dr_restore() {
        // Frequent backups so casualties have recent restore points.
        let params = OrchParams {
            backup_interval: Nanoseconds::from_secs(300),
            rebalance_interval: Nanoseconds::from_secs(600),
            ..Default::default()
        };
        let s = small_scenario(5, 2);
        let r = run_datacenter(4, params, Box::new(ThresholdRebalance), &s).unwrap();
        assert!(r.hosts_failed >= 1);
        if r.vms_lost_at_failure > 0 {
            assert!(
                r.vms_restored + r.vms_lost_permanently > 0,
                "casualties must be accounted: {r}"
            );
            assert!(r.vm_time_lost > Nanoseconds::ZERO);
        }
        // Every event was consumed (processed or counted as dropped).
        assert!(r.events_processed > 0);
    }

    #[test]
    fn consolidation_powers_hosts_down() {
        // A lightly loaded cluster: consolidate should park hosts.
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            departure_fraction: 0.0,
            load_changes_per_vm: 0.0,
            ..ScenarioConfig::day(3, WorkloadShape::SteadyState, 6, 6)
        };
        let s = Scenario::generate(cfg).unwrap();
        let r = run_datacenter(6, fast_params(), Box::new(ConsolidateAndPowerDown), &s).unwrap();
        assert!(r.power_off_actions > 0, "idle hosts must be parked: {r}");
        assert!(r.hosts_powered_at_end < 6);
        assert!(r.avg_hosts_powered() < 6.0);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// No event is lost across HostFailure rescheduling: `run()` itself
        /// enforces queue conservation, and the report's failure accounting
        /// stays consistent while the whole run replays byte-identically.
        #[test]
        fn property_no_event_lost_across_host_failure_rescheduling(
            seed in 0u64..1_000,
            failures in 1usize..4,
        ) {
            let s = small_scenario(seed, failures);
            let scenario_events = s.events.len() as u64;
            // run() hard-fails unless queue.pushed() == queue.popped(), so a
            // returned report *is* the conservation proof; the assertions
            // below pin the accounting side.
            let r = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
            // Scenario events plus self-scheduled ticks/restores all fired.
            prop_assert!(r.events_processed >= scenario_events);
            let (arrivals, _, _, failures_gen) = s.census();
            prop_assert_eq!(r.vms_arrived, arrivals as u64);
            // The generator injects failures on distinct live hosts, so every
            // one of them is honoured (none dropped).
            prop_assert_eq!(r.hosts_failed, failures_gen as u64);
            // Every failure casualty lands in exactly one outcome bucket:
            // restored, permanently lost, or departed while mid-restore.
            prop_assert!(r.vms_restored + r.vms_lost_permanently <= r.vms_lost_at_failure);
            prop_assert!(
                r.vms_lost_at_failure <= r.vms_restored + r.vms_lost_permanently + r.vms_departed
            );
            // And the whole run replays byte-identically.
            let again = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
            prop_assert_eq!(r, again);
        }

        /// A planner-driven day ([`EngineChoice::Auto`]) is as deterministic
        /// as a static one: the planner is a pure function of observables
        /// that are themselves pure functions of the scenario, so the same
        /// seed replays to an `==`-equal report — including the planner
        /// decision counters.
        #[test]
        fn property_adaptive_planner_day_replays_identically(
            seed in 0u64..1_000,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let params = OrchParams {
                engine: Some(EngineChoice::Auto),
                hot_tenant_modulus: std::num::NonZeroU64::new(4),
                ..fast_params()
            };
            let run = || {
                let specs = (0..4)
                    .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
                    .collect();
                let mut orch =
                    Orchestrator::new(specs, params, Box::new(ThresholdRebalance)).unwrap();
                // Thresholds that make every ladder rung reachable at the
                // simulation scale (any observed dirtying counts as hot).
                orch.set_planner(MigrationPlanner {
                    hot_dirty_rate: 1,
                    big_guest_min: rvisor_types::ByteSize::new(1),
                    idle_backlog_max: Nanoseconds::from_millis(1),
                    ..MigrationPlanner::default()
                });
                orch.run(&s).unwrap()
            };
            let r = run();
            if r.migrations_completed > 0 {
                prop_assert!(r.planner_decisions > 0);
            }
            prop_assert_eq!(run(), r);
        }
    }

    /// On the single-spine fabric the planner's backlog is the backbone's
    /// mark — the one-rack preset's leaf — never its spine, which no
    /// one-rack transfer crosses. With `idle_backlog_max` at zero that
    /// backlog decides `big-idle` (4 streams) against `default` for every
    /// cold guest, so this busy adaptive day pins it: the report was recorded
    /// at `cb8d58d`, where the single-spine fabric was its own model.
    #[test]
    fn adaptive_single_spine_day_reads_the_backbone_backlog() {
        let params = OrchParams {
            engine: Some(EngineChoice::Auto),
            hot_tenant_modulus: std::num::NonZeroU64::new(4),
            spread_utilization_gap: 0.01,
            ..fast_params()
        };
        let specs = (0..4)
            .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
            .collect();
        let mut orch = Orchestrator::new(specs, params, Box::new(SpreadRebalance)).unwrap();
        orch.set_planner(MigrationPlanner {
            hot_dirty_rate: 1,
            big_guest_min: rvisor_types::ByteSize::new(1),
            idle_backlog_max: Nanoseconds::ZERO,
            ..MigrationPlanner::default()
        });
        let report = orch.run(&small_scenario(4, 1)).unwrap();
        let ns = Nanoseconds;
        let expected = OrchReport {
            sim_end: ns(7_200_000_000_000),
            events_processed: 163,
            events_dropped: 0,
            vms_arrived: 40,
            vms_placed: 40,
            placements_deferred: 0,
            placements_unmet: 0,
            placement_latency_total: ns(1_800_000_000_000),
            placement_latency_max: ns(45_000_000_000),
            vms_departed: 10,
            vms_running_at_end: 30,
            peak_vms: 31,
            migrations_planned: 38,
            migrations_completed: 38,
            migrations_skipped: 0,
            migration_downtime_total: ns(3_876_308),
            migration_time_total: ns(15_864_400),
            migration_fabric_wait_total: ns(19_113_704),
            migration_bytes: 10_216_108,
            downtime_duration_integral: 1_618_676_997_032,
            planner_decisions: 38,
            planner_stop_and_copy: 0,
            planner_pre_copy: 36,
            planner_post_copy: 2,
            planner_fault_lane: 2,
            backups_taken: 120,
            backup_bytes: 31_521_600,
            backup_time_total: ns(622_457_520),
            backup_chunks_shipped: 0,
            backup_chunks_deduped: 0,
            backup_bytes_deduped: 0,
            dr_store_chunks: 0,
            dr_store_bytes: 0,
            hosts_failed: 1,
            spines_failed: 0,
            vms_lost_at_failure: 6,
            vms_restored: 6,
            vms_lost_permanently: 0,
            vm_time_lost: ns(1_440_047_824_854),
            power_on_actions: 0,
            power_off_actions: 0,
            powered_host_time: ns(26_562_596_952_632),
            peak_hosts_powered: 3,
            hosts_powered_at_end: 3,
        };
        assert_eq!(report, expected);
    }

    #[test]
    fn restore_still_in_flight_at_end_of_day_is_accounted() {
        use rvisor_cluster::{ServerRole, VmSpec};
        // Hand-built scenario: one VM arrives early, its host fails 10 s
        // before the horizon — detection (30 s) alone pushes the restore
        // completion past the end of the day.
        let duration = Nanoseconds::from_secs(3600);
        let config = ScenarioConfig {
            duration,
            ..ScenarioConfig::day(0, WorkloadShape::SteadyState, 2, 1)
        };
        let spec = VmSpec::typical("vm-0000", ServerRole::Web);
        let scenario = Scenario {
            config,
            events: vec![
                (
                    Nanoseconds::from_secs(10),
                    crate::OrchEvent::VmArrival { spec },
                ),
                (
                    Nanoseconds::from_secs(3590),
                    crate::OrchEvent::HostFailure {
                        host: HostId::new(0),
                    },
                ),
            ],
        };
        let params = OrchParams {
            backup_interval: Nanoseconds::from_secs(600),
            ..fast_params()
        };
        let r = run_datacenter(2, params, Box::new(ThresholdRebalance), &scenario).unwrap();
        assert_eq!(r.hosts_failed, 1);
        assert_eq!(r.vms_lost_at_failure, 1);
        assert_eq!(r.vms_restored, 0, "restore cannot finish inside the day");
        assert_eq!(r.vms_lost_permanently, 1, "in-flight restore is accounted");
        assert_eq!(
            r.vm_time_lost,
            Nanoseconds::from_secs(10),
            "outage runs from the failure to the horizon"
        );
        assert_eq!(r.sim_end, duration);
        // Simulated time never ran past the horizon, so the power integral
        // is bounded by hosts x duration.
        assert!(r.powered_host_time.0 <= 2 * duration.0);
    }

    #[test]
    fn backup_still_on_the_wire_is_not_restorable() {
        use rvisor_cluster::{ServerRole, VmSpec};
        use rvisor_net::FabricParams;
        // A crawling fabric: the ~256 KiB snapshot stream needs ~260 s to
        // reach the DR target. The host fails 100 s after the backup tick,
        // while the stream is still on the wire — the VM must be lost, not
        // restored from bytes that never arrived.
        let duration = Nanoseconds::from_secs(3600);
        let config = ScenarioConfig {
            duration,
            ..ScenarioConfig::day(0, WorkloadShape::SteadyState, 2, 1)
        };
        let spec = VmSpec::typical("vm-0000", ServerRole::Web);
        let scenario = Scenario {
            config,
            events: vec![
                (
                    Nanoseconds::from_secs(10),
                    crate::OrchEvent::VmArrival { spec },
                ),
                (
                    Nanoseconds::from_secs(700),
                    crate::OrchEvent::HostFailure {
                        host: HostId::new(0),
                    },
                ),
            ],
        };
        let slow_wire = OrchParams {
            backup_interval: Nanoseconds::from_secs(600),
            fabric: FabricParams {
                nic_bytes_per_second: 1000,
                backbone_bytes_per_second: 1000,
                ..FabricParams::wan()
            },
            ..fast_params()
        };
        let r = run_datacenter(2, slow_wire, Box::new(ThresholdRebalance), &scenario).unwrap();
        assert_eq!(r.hosts_failed, 1);
        assert_eq!(r.vms_lost_at_failure, 1);
        assert_eq!(r.backups_taken, 1, "the 600 s tick streamed one backup");
        assert_eq!(
            r.vms_restored, 0,
            "a backup still crossing the fabric must not be restorable"
        );
        assert_eq!(r.vms_lost_permanently, 1);

        // Control: fail after the stream has arrived and the restore works.
        let spec = VmSpec::typical("vm-0000", ServerRole::Web);
        let late_failure = Scenario {
            config: ScenarioConfig {
                duration,
                ..ScenarioConfig::day(0, WorkloadShape::SteadyState, 2, 1)
            },
            events: vec![
                (
                    Nanoseconds::from_secs(10),
                    crate::OrchEvent::VmArrival { spec },
                ),
                (
                    Nanoseconds::from_secs(1100),
                    crate::OrchEvent::HostFailure {
                        host: HostId::new(0),
                    },
                ),
            ],
        };
        let r = run_datacenter(2, slow_wire, Box::new(ThresholdRebalance), &late_failure).unwrap();
        assert_eq!(r.hosts_failed, 1);
        assert_eq!(
            r.vms_restored, 1,
            "an arrived backup restores as before: {r}"
        );
    }

    #[test]
    fn failed_hosts_are_not_power_manageable() {
        let specs = vec![
            HostSpec::modern_server(HostId::new(0)),
            HostSpec::modern_server(HostId::new(1)),
        ];
        let mut orch =
            Orchestrator::new(specs, fast_params(), Box::new(ThresholdRebalance)).unwrap();
        orch.cluster.fail_host_keyed(HostId::new(0)).unwrap();
        assert!(orch.cluster.power_on(HostId::new(0)).is_err());
        assert!(orch.cluster.power_off(HostId::new(0)).is_err());
        // Parked hosts stay idempotently manageable.
        orch.cluster.power_off(HostId::new(1)).unwrap();
        orch.cluster.power_off(HostId::new(1)).unwrap();
        orch.cluster.power_on(HostId::new(1)).unwrap();
    }

    /// The indexed policies drive whole days to the exact reports the
    /// original full-walk implementations produced — the decision-for-
    /// decision equivalence holds under real event-loop dynamics (failures,
    /// deferred placements, power churn), not just on static snapshots.
    #[test]
    fn indexed_policies_match_reference_over_whole_days() {
        use crate::policy::reference;
        let s = small_scenario(11, 2);
        let pairs: [(
            Box<dyn crate::policy::RebalancePolicy>,
            Box<dyn crate::policy::RebalancePolicy>,
        ); 3] = [
            (
                Box::new(ThresholdRebalance),
                Box::new(reference::ThresholdRebalance),
            ),
            (
                Box::new(ConsolidateAndPowerDown),
                Box::new(reference::ConsolidateAndPowerDown),
            ),
            (
                Box::new(SpreadRebalance),
                Box::new(reference::SpreadRebalance),
            ),
        ];
        for (indexed, oracle) in pairs {
            let name = indexed.name();
            let a = run_datacenter(4, fast_params(), indexed, &s).unwrap();
            let b = run_datacenter(4, fast_params(), oracle, &s).unwrap();
            assert_eq!(a, b, "{name} day diverged from the reference policy");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The fidelity dial is invisible in every report field: a day where
        /// every VM carries a live guest from deploy (`Full`, i.e. force-
        /// materialized) reports `==` to the dialed day where VMs start as
        /// statistical models and materialize on first touch.
        #[test]
        fn property_force_materialized_day_equals_dialed_day(
            seed in 0u64..500,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let full = OrchParams {
                fidelity: crate::params::VmFidelity::Full,
                ..fast_params()
            };
            let dialed = OrchParams {
                fidelity: crate::params::VmFidelity::OnDemand,
                ..fast_params()
            };
            let a = run_datacenter(4, full, Box::new(ThresholdRebalance), &s).unwrap();
            let b = run_datacenter(4, dialed, Box::new(ThresholdRebalance), &s).unwrap();
            prop_assert_eq!(a, b);
        }

        /// Deduplicated DR days are pure functions of the scenario too:
        /// same seed, `==` report, across random seeds and failure counts;
        /// the dedup day never ships more backup bytes than the plain day;
        /// and the dedup-off day keeps its counters at zero (the replay
        /// pin for every pre-dedup baseline).
        #[test]
        fn property_dedup_day_replays_and_never_ships_more(
            seed in 0u64..500,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let on = OrchParams {
                dedup_backups: true,
                ..fast_params()
            };
            let a = leak_checked_day(on, &s);
            let b = run_datacenter(4, on, Box::new(ThresholdRebalance), &s).unwrap();
            prop_assert_eq!(&a, &b);
            let off = leak_checked_day(fast_params(), &s);
            prop_assert_eq!(off.backup_chunks_shipped, 0);
            prop_assert_eq!(off.backup_chunks_deduped, 0);
            prop_assert_eq!(off.dr_store_bytes, 0);
            prop_assert_eq!(a.backups_taken, off.backups_taken);
            prop_assert!(a.backup_bytes <= off.backup_bytes);
        }

        /// Tracing is a pure observer: a day run with a recording sink
        /// attached to every layer produces an `==`-equal report to the same
        /// day run with tracing off, across random seeds and failure counts
        /// — and actually recorded something.
        #[test]
        fn property_traced_day_report_equals_untraced(
            seed in 0u64..500,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let untraced =
                run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
            let (trace, recorder) = Trace::recording();
            let traced = run_datacenter_traced(
                4,
                fast_params(),
                Box::new(ThresholdRebalance),
                &s,
                trace,
            )
            .unwrap();
            prop_assert_eq!(untraced, traced);
            prop_assert!(
                !recorder.borrow().events().is_empty(),
                "a traced day must record events"
            );
        }
    }

    /// The deduplicated DR day: strictly fewer backup bytes on the wire,
    /// a store that holds every unique page once, deterministic replay,
    /// and a dedup-off day bit-identical to the default day.
    #[test]
    fn dedup_day_ships_fewer_backup_bytes_and_replays_identically() {
        let s = small_scenario(13, 2);
        let dedup_params = OrchParams {
            dedup_backups: true,
            ..fast_params()
        };
        let plain = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
        let a = run_datacenter(4, dedup_params, Box::new(ThresholdRebalance), &s).unwrap();
        let b = run_datacenter(4, dedup_params, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(a, b, "dedup day must replay identically");

        assert!(a.backups_taken > 0);
        assert_eq!(a.backups_taken, plain.backups_taken);
        assert!(
            a.backup_bytes * 5 <= plain.backup_bytes,
            "dedup must ship at least 5x fewer backup bytes ({} vs {})",
            a.backup_bytes,
            plain.backup_bytes
        );
        assert!(a.backup_chunks_shipped > 0);
        assert!(
            a.backup_chunks_deduped > a.backup_chunks_shipped,
            "most pages of an hourly sweep are already known to the store"
        );
        assert!(a.backup_bytes_deduped > 0);
        assert!(a.dr_store_chunks > 0);
        assert!(
            a.dr_store_bytes < plain.backup_bytes,
            "the store holds unique pages, not the sum of all snapshots"
        );
        assert!(
            a.backup_time_total < plain.backup_time_total,
            "fewer bytes on the wire and fewer bytes written"
        );
        if plain.vms_restored > 0 {
            assert!(
                a.vms_restored > 0,
                "dedup restores must still recover failed VMs"
            );
        }

        // Dedup counters stay zero — and the dedup report line silent —
        // on a dedup-off day, which is bit-identical to the default day.
        let off = OrchParams {
            dedup_backups: false,
            ..fast_params()
        };
        let c = run_datacenter(4, off, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(plain, c);
        assert_eq!(plain.backup_chunks_shipped, 0);
        assert_eq!(plain.dr_store_bytes, 0);
        assert_eq!(format!("{plain}"), format!("{c}"));
        assert!(!format!("{plain}").contains("dedup"));
        assert!(format!("{a}").contains("dedup"));
    }

    /// The fidelity pin holds under dedup: model VMs participate in the
    /// content-addressed store via their canonical deploy state, so a
    /// force-materialized dedup day reports `==` to the dialed one.
    #[test]
    fn dedup_day_fidelity_pin_holds() {
        let s = small_scenario(17, 1);
        let full = OrchParams {
            dedup_backups: true,
            fidelity: crate::params::VmFidelity::Full,
            ..fast_params()
        };
        let dialed = OrchParams {
            dedup_backups: true,
            fidelity: crate::params::VmFidelity::OnDemand,
            ..fast_params()
        };
        let a = run_datacenter(4, full, Box::new(ThresholdRebalance), &s).unwrap();
        let b = run_datacenter(4, dialed, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(a, b, "the fidelity dial must be invisible under dedup");
        assert!(a.backup_chunks_shipped > 0);
    }

    /// The 32-rack Clos acceptance day: identical hosts and scenario, one
    /// run on the degenerate single-spine fabric, one on a two-tier Clos
    /// whose spine tier matches the backbone's aggregate capacity
    /// (4 x 1.25 GB/s = 5 GB/s, non-oversubscribed, same 50 µs latency), so
    /// every individual transfer costs exactly the same — the Clos day wins
    /// purely by eliminating global-backbone serialization: concurrent
    /// migrations and DR streams spread over independent spine paths.
    fn clos_32rack() -> crate::params::FabricTopology {
        crate::params::FabricTopology::Clos {
            racks: 32,
            spines: 4,
            leaf_uplink_bytes_per_second: 2_500_000_000,
            spine_bytes_per_second: 1_250_000_000,
            cross_rack_latency: Nanoseconds::from_micros(50),
        }
    }

    #[test]
    fn topology_aware_clos_day_beats_single_spine_day() {
        use rvisor_cluster::PlacementStrategy;
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(21, WorkloadShape::FlashCrowd, 32, 256)
        };
        let s = Scenario::generate(cfg).unwrap();
        let base = OrchParams {
            placement: PlacementStrategy::Spread,
            migration_streams: std::num::NonZeroUsize::new(4).unwrap(),
            // A tight balance target and a generous per-tick cap keep
            // rebalance migration *bursts* flowing all day, and the backup
            // sweep fires at the same instants — fabric queueing, the thing
            // the Clos tier removes, is what the totals then measure.
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            backup_interval: Nanoseconds::from_secs(600),
            ..fast_params()
        };
        let clos = OrchParams {
            topology: clos_32rack(),
            ..base
        };
        let run = |p: OrchParams| run_datacenter(32, p, Box::new(SpreadRebalance), &s).unwrap();
        let flat_day = run(base);
        let clos_day = run(clos);
        assert!(
            clos_day.migrations_completed > 0,
            "the day must actually migrate: {clos_day}"
        );
        // Total migration duration as the tenant sees it — decision instant
        // to completion, fabric queueing included. The per-transfer rates
        // are identical by construction (both NIC-bound at 1.25 GB/s, same
        // latency); the whole win is eliminated backbone serialization.
        let clos_total = clos_day
            .migration_time_total
            .saturating_add(clos_day.migration_fabric_wait_total);
        let flat_total = flat_day
            .migration_time_total
            .saturating_add(flat_day.migration_fabric_wait_total);
        assert!(
            clos_total < flat_total,
            "Clos migrations must finish earlier in simulated time: {clos_total} vs {flat_total}"
        );
        assert!(
            clos_day.migration_fabric_wait_total < flat_day.migration_fabric_wait_total,
            "the Clos day must queue less for the fabric: {} vs {}",
            clos_day.migration_fabric_wait_total,
            flat_day.migration_fabric_wait_total
        );
        assert!(
            clos_day.backup_time_total < flat_day.backup_time_total,
            "DR backup lag must drop on the Clos fabric: {} vs {}",
            clos_day.backup_time_total,
            flat_day.backup_time_total
        );
        // Both days are pure functions of the scenario.
        assert_eq!(run(base), flat_day);
        assert_eq!(run(clos), clos_day);
    }

    /// The adaptive-control-plane acceptance day (E22): one mixed 32-rack
    /// Clos day, run under every static (engine × streams × compression)
    /// setting and once under the adaptive planner
    /// ([`EngineChoice::Auto`]), all on the same scenario seed. The
    /// adaptive day must come in strictly below every static day on the
    /// downtime × duration integral: it matches the best static choice for
    /// cold guests (wide striped pre-copy with XBZRLE) and upgrades guests
    /// it has *observed* dirtying pages to post-copy over the demand-fault
    /// lane, which no static setting can express.
    #[test]
    fn adaptive_day_beats_every_static_setting() {
        use rvisor_cluster::PlacementStrategy;
        use rvisor_migrate::PageCompression;
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(4 * 3600),
            ..ScenarioConfig::day(22, WorkloadShape::Mixed, 32, 256)
        };
        let s = Scenario::generate(cfg).unwrap();
        let base = OrchParams {
            placement: PlacementStrategy::Spread,
            topology: clos_32rack(),
            spread_utilization_gap: 0.01,
            max_migrations_per_tick: 64,
            backup_interval: Nanoseconds::from_secs(600),
            rebalance_interval: Nanoseconds::from_secs(300),
            // One in four tenants runs the write-heavy canonical workload,
            // so re-migrated guests carry real observed dirty rates for the
            // planner's dirty-hot rung to react to.
            hot_tenant_modulus: std::num::NonZeroU64::new(4),
            ..fast_params()
        };
        let run_static = |engine: EngineChoice, streams: usize, compression: PageCompression| {
            let p = OrchParams {
                engine: Some(engine),
                migration_streams: std::num::NonZeroUsize::new(streams).unwrap(),
                migration_compression: compression,
                ..base
            };
            run_datacenter(32, p, Box::new(SpreadRebalance), &s).unwrap()
        };
        // The planner the adaptive day runs: cold guests get exactly the
        // strongest static treatment (4-stream XBZRLE pre-copy), observed
        // dirty-hot guests get the fault lane. Thresholds are tuned to the
        // simulation scale (every live guest carries `guest_memory` bytes,
        // so the spec-size rungs are pinned open/closed).
        let run_adaptive = || {
            let p = OrchParams {
                engine: Some(EngineChoice::Auto),
                ..base
            };
            let specs = (0..32)
                .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
                .collect();
            let mut orch = Orchestrator::new(specs, p, Box::new(SpreadRebalance)).unwrap();
            orch.set_planner(MigrationPlanner {
                tiny_guest_max: rvisor_types::ByteSize::new(0),
                hot_dirty_rate: 1,
                big_guest_min: rvisor_types::ByteSize::new(1),
                idle_backlog_max: Nanoseconds(u64::MAX),
                wide_streams: std::num::NonZeroUsize::new(4).unwrap(),
                compression: PageCompression::Xbzrle,
            });
            orch.run(&s).unwrap()
        };
        let adaptive = run_adaptive();
        assert!(
            adaptive.migrations_completed > 0,
            "the day must actually migrate: {adaptive}"
        );
        // The strict win comes from upgrades no static setting can express:
        // guests the planner has *observed* dirtying pages go post-copy over
        // the demand-fault lane on their next migration.
        assert!(
            adaptive.planner_fault_lane > 0,
            "observed dirty-hot guests must ride the fault lane: {adaptive}"
        );
        // Every executed migration consulted the planner (skipped decisions
        // may consult it without completing).
        assert!(adaptive.planner_decisions >= adaptive.migrations_completed);
        for engine in [
            EngineChoice::StopAndCopy,
            EngineChoice::PreCopy,
            EngineChoice::PostCopy,
        ] {
            for streams in [1usize, 4] {
                // Compression is a pre-copy knob: stop-and-copy and
                // post-copy move raw pages, so their XBZRLE days are
                // bit-identical to their raw days and add nothing to the
                // grid.
                let compressions: &[PageCompression] = if engine == EngineChoice::PreCopy {
                    &[PageCompression::None, PageCompression::Xbzrle]
                } else {
                    &[PageCompression::None]
                };
                for &compression in compressions {
                    let r = run_static(engine, streams, compression);
                    // Identical policy inputs: every setting migrates the
                    // same VMs, so the integral compares like for like.
                    assert_eq!(r.migrations_completed, adaptive.migrations_completed);
                    assert!(
                        adaptive.downtime_duration_integral < r.downtime_duration_integral,
                        "adaptive day must beat static {engine:?} x{streams} {compression:?}: \
                         {} vs {}",
                        adaptive.downtime_duration_integral,
                        r.downtime_duration_integral
                    );
                }
            }
        }
        // The adaptive day is still a pure function of the scenario.
        assert_eq!(run_adaptive(), adaptive);
    }

    #[test]
    fn spine_failure_day_degrades_and_replays() {
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(13, WorkloadShape::SteadyState, 16, 80)
        }
        .with_spine_failures(2, 4);
        let s = Scenario::generate(cfg).unwrap();
        let clos = OrchParams {
            topology: clos_32rack(),
            ..fast_params()
        };
        let r = run_datacenter(16, clos, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(r.spines_failed, 2, "both injected spine failures honoured");
        let again = run_datacenter(16, clos, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(r, again, "a degraded day still replays identically");
        // The same scenario on the single-spine topology refuses the spine
        // failures (failing the only spine would partition) and counts them
        // as dropped — never an error, never a partition.
        let flat = run_datacenter(16, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(flat.spines_failed, 0);
        assert!(flat.events_dropped >= 2);
    }

    #[test]
    fn pending_placement_waits_for_capacity() {
        // One tiny host cannot take the whole fleet at once.
        let specs = vec![HostSpec::deck_era_server(HostId::new(0))];
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(3600),
            departure_fraction: 0.9,
            ..ScenarioConfig::day(9, WorkloadShape::FlashCrowd, 1, 30)
        };
        let s = Scenario::generate(cfg).unwrap();
        let orch = Orchestrator::new(specs, fast_params(), Box::new(ThresholdRebalance)).unwrap();
        let r = orch.run(&s).unwrap();
        assert!(r.placements_deferred > 0, "flash crowd must overflow: {r}");
        // Deferred VMs either landed later or are still waiting — all counted.
        assert_eq!(r.vms_arrived, 30);
        assert!(r.vms_placed + r.placements_unmet + r.vms_departed >= 30 - r.events_dropped);
    }

    /// A one-hour hand-built day on `hosts` modern servers: `vm-a` arrives
    /// at 10 s, backups sweep every 900 s, then `events` (seconds, event).
    /// Returns the orchestrator after the event loop, before finalize.
    fn lifecycle_day(hosts: u32, dedup: bool, events: Vec<(u64, OrchEvent)>) -> Orchestrator {
        let scenario = lifecycle_scenario(hosts, events);
        let params = OrchParams {
            dedup_backups: dedup,
            ..fast_params()
        };
        let specs = (0..hosts)
            .map(|i| HostSpec::modern_server(HostId::new(i)))
            .collect();
        let mut orch = Orchestrator::new(specs, params, Box::new(ThresholdRebalance)).unwrap();
        orch.run_events(&scenario).unwrap();
        orch
    }

    /// The scenario of [`lifecycle_day`].
    fn lifecycle_scenario(hosts: u32, events: Vec<(u64, OrchEvent)>) -> Scenario {
        let mut all = vec![(10, arrival("vm-a"))];
        all.extend(events);
        Scenario {
            config: ScenarioConfig {
                duration: Nanoseconds::from_secs(3600),
                ..ScenarioConfig::day(0, WorkloadShape::SteadyState, hosts as usize, 1)
            },
            events: all
                .into_iter()
                .map(|(s, e)| (Nanoseconds::from_secs(s), e))
                .collect(),
        }
    }

    fn arrival(name: &str) -> OrchEvent {
        let spec = VmSpec::typical(name, rvisor_cluster::ServerRole::Web);
        OrchEvent::VmArrival { spec }
    }

    fn departure(name: &str) -> OrchEvent {
        OrchEvent::VmDeparture { vm: name.into() }
    }

    fn failure(host: u32) -> OrchEvent {
        let host = HostId::new(host);
        OrchEvent::HostFailure { host }
    }

    /// Whether the VM holds nothing at the DR site.
    fn dr_is_empty(chain: &crate::dr::VmChain) -> bool {
        chain.epochs().next().is_none()
    }

    /// The DR stores hold exactly the epochs the VMs' chains reference: no
    /// retired epoch leaked, no held handle dangles.
    fn assert_stores_match_chains(orch: &Orchestrator) {
        let held = || orch.cluster.vms.records().flat_map(|r| r.dr.epochs());
        let stored = held().filter(|(h, _)| matches!(h, BackupHandle::Stored(_)));
        let manifested = held().filter(|(h, _)| matches!(h, BackupHandle::Manifested(_)));
        assert_eq!(orch.dr_stores.plain.len(), stored.count());
        assert_eq!(orch.dr_stores.cas.manifest_count(), manifested.count());
    }

    /// [`run_datacenter`] on four hosts, with [`assert_stores_match_chains`]
    /// checked at the end of the day.
    fn leak_checked_day(params: OrchParams, scenario: &Scenario) -> OrchReport {
        let specs = (0..4)
            .map(|i| HostSpec::modern_server(HostId::new(i)))
            .collect();
        let mut orch = Orchestrator::new(specs, params, Box::new(ThresholdRebalance)).unwrap();
        orch.run_events(scenario).unwrap();
        assert_stores_match_chains(&orch);
        orch.finalize().unwrap()
    }

    #[test]
    fn departure_releases_dr_state_and_a_rearrival_starts_clean() {
        for dedup in [false, true] {
            // First life only: backed up at 900 s, departs at 1500 s.
            let orch = lifecycle_day(2, dedup, vec![(1500, departure("vm-a"))]);
            assert_eq!(orch.report.backups_taken, 1);
            assert_eq!(orch.dr_stores.plain.len(), 0, "the snapshot was released");
            assert_eq!(
                orch.dr_stores.cas.chunk_count(),
                0,
                "the manifest chain was retired"
            );
            let vms = &orch.cluster.vms;
            let key = vms.lookup("vm-a").expect("the key outlives the departure");
            assert!(matches!(vms[key].state, VmState::Absent));
            assert!(dr_is_empty(&vms[key].dr));
            assert_stores_match_chains(&orch);

            // Second life: the same name re-arrives at 2000 s on the same
            // (first-fit) host, which fails before any sweep of the new life.
            // Nothing of the first life may be restored.
            let second_life = || {
                vec![
                    (1500, departure("vm-a")),
                    (2000, arrival("vm-a")),
                    (2010, failure(0)),
                ]
            };
            let orch = lifecycle_day(2, dedup, second_life());
            let vms = &orch.cluster.vms;
            assert_eq!(vms.lookup("vm-a"), Some(key), "same name, same key");
            assert_eq!(vms.records().count(), 1);
            assert!(dr_is_empty(&vms[key].dr));
            assert_stores_match_chains(&orch);
            let r = orch.finalize().unwrap();
            assert_eq!((r.vms_arrived, r.vms_departed), (2, 1));
            assert_eq!(r.vms_lost_at_failure, 1);
            assert_eq!(r.vms_restored, 0, "a stale backup was restored");
            assert_eq!(r.vms_lost_permanently, 1);
            assert_eq!(r.dr_store_chunks, 0);
            let again = lifecycle_day(2, dedup, second_life()).finalize().unwrap();
            assert_eq!(r, again, "dedup={dedup} day must replay identically");

            // A VM whose restore finds no capacity (its only host failed) is
            // lost for good and releases its epochs just the same.
            let orch = lifecycle_day(1, dedup, vec![(1000, failure(0))]);
            assert_eq!(orch.report.vms_lost_permanently, 1);
            assert!(dr_is_empty(&orch.cluster.vms[key].dr));
            assert_eq!(orch.dr_stores.plain.len(), 0);
            assert_eq!(orch.dr_stores.cas.manifest_count(), 0);
        }
    }

    #[test]
    fn an_arrived_backup_survives_restoring_and_restores_again() {
        for dedup in [false, true] {
            // Backed up at 900 s; host 0 fails at 1000 s and the VM is
            // restored onto host 1; host 1 fails at 1500 s, before the 1800 s
            // sweep — the only restore point is still the 900 s backup.
            let events = || vec![(1000, failure(0)), (1500, failure(1))];
            let orch = lifecycle_day(3, dedup, events());
            let key = orch.cluster.vms.lookup("vm-a").unwrap();
            assert!(orch.cluster.vms[key].placement().is_some());
            assert_eq!(orch.cluster.host_of("vm-a"), Some(HostId::new(2)));
            let r = orch.finalize().unwrap();
            assert_eq!(r.hosts_failed, 2);
            assert_eq!(r.vms_restored, 2, "the backup was kept across the restore");
            assert_eq!(r.vms_lost_permanently, 0);
            assert_eq!(r, lifecycle_day(3, dedup, events()).finalize().unwrap());
        }
    }

    /// Two fulls on a crawling DR wire at once — each forced, as a
    /// migration forces one — must not cost the VM the generation that has
    /// arrived: a host failure before either full arrives restores it.
    #[test]
    fn a_second_full_on_the_wire_keeps_the_arrived_generation() {
        use rvisor_net::FabricParams;
        let crawl = OrchParams {
            dedup_backups: true,
            fabric: FabricParams {
                nic_bytes_per_second: 1000,
                backbone_bytes_per_second: 1000,
                ..FabricParams::wan()
            },
            ..fast_params()
        };
        let specs = (0..2)
            .map(|i| HostSpec::modern_server(HostId::new(i)))
            .collect();
        let mut orch = Orchestrator::new(specs, crawl, Box::new(ThresholdRebalance)).unwrap();
        let key = orch.cluster.vms.intern("vm-a");
        let spec = VmSpec::typical("vm-a", rvisor_cluster::ServerRole::Web);
        orch.on_arrival(key, &spec).unwrap();
        let newest = |orch: &Orchestrator| *orch.cluster.vms[key].dr.epochs().last().unwrap();
        let tick = |orch: &mut Orchestrator, at: Nanoseconds| {
            orch.now = at;
            orch.on_backup_tick().unwrap();
        };
        tick(&mut orch, Nanoseconds::from_secs(600));
        let (arrived, at) = newest(&orch);
        orch.cluster.vms[key].dr.force_full = true;
        tick(&mut orch, at);
        let (_, second_full_arrives) = newest(&orch);
        orch.cluster.vms[key].dr.force_full = true;
        tick(&mut orch, at.saturating_add(Nanoseconds(1)));
        orch.now = at.saturating_add(Nanoseconds(2));
        assert!(second_full_arrives > orch.now, "both fulls are on the wire");
        orch.on_host_failure(HostId::new(0)).unwrap();
        let VmState::Restoring(pr) = &orch.cluster.vms[key].state else {
            panic!("the VM was lost with an arrived generation at the DR site");
        };
        assert_eq!(pr.backup, arrived);
        let done = orch.queue.pop().unwrap();
        orch.now = done.at;
        orch.on_restore_complete(key).unwrap();
        assert_eq!(orch.report.vms_restored, 1);
        assert_stores_match_chains(&orch);
    }

    #[test]
    fn events_for_unknown_names_are_dropped_without_a_record() {
        let load = |vm: &str| OrchEvent::LoadChange {
            vm: vm.into(),
            cpu_demand_millicores: 500,
        };
        // `ghost` never arrives; `vm-b` is named before it arrives; `vm-a`
        // leaves and arrives again. The four events that name no VM at
        // their instant are dropped, and both arrivals still land.
        let events = vec![
            (20, load("ghost")),
            (30, departure("ghost")),
            (40, load("vm-b")),
            (50, departure("vm-b")),
            (60, arrival("vm-b")),
            (100, departure("vm-a")),
            (200, arrival("vm-a")),
        ];
        let orch = lifecycle_day(1, false, events);
        assert_eq!(orch.report.events_dropped, 4);
        assert_eq!((orch.report.vms_arrived, orch.report.vms_departed), (3, 1));
        let vms = &orch.cluster.vms;
        assert_eq!(vms.lookup("ghost"), None);
        assert_eq!(
            vms.records().count(),
            2,
            "vm-a kept its key; ghost got none"
        );
        for name in ["vm-a", "vm-b"] {
            let key = vms.lookup(name).unwrap();
            assert!(vms[key].placement().is_some(), "{name} was placed");
        }
        assert_eq!(orch.cluster.total_vms(), 2);

        // A generated day with host failures and restores interns exactly
        // its arrivals' names: a restore finds a name again, never adds one.
        let s = small_scenario(5, 2);
        let params = OrchParams {
            backup_interval: Nanoseconds::from_secs(300),
            ..fast_params()
        };
        let specs = (0..4)
            .map(|i| HostSpec::modern_server(HostId::new(i)))
            .collect();
        let mut orch = Orchestrator::new(specs, params, Box::new(ThresholdRebalance)).unwrap();
        orch.run_events(&s).unwrap();
        assert!(orch.report.vms_restored > 0, "{}", orch.report);
        let arrivals: std::collections::BTreeSet<&str> = s
            .events
            .iter()
            .filter_map(|(_, event)| match event {
                OrchEvent::VmArrival { spec } => Some(spec.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(orch.cluster.vms.records().count(), arrivals.len());
    }

    /// Runs `scenario`'s event loop on four hosts, expecting a refusal that
    /// mentions `reason` before any handler ran.
    fn assert_refused(scenario: &Scenario, reason: &str) {
        let specs = (0..4)
            .map(|i| HostSpec::modern_server(HostId::new(i)))
            .collect();
        let mut orch =
            Orchestrator::new(specs, fast_params(), Box::new(ThresholdRebalance)).unwrap();
        match orch.run_events(scenario) {
            Err(Error::Config(message)) => assert!(message.contains(reason), "{message}"),
            other => panic!("expected a config error about {reason}: {other:?}"),
        }
        assert_eq!(orch.report, OrchReport::default(), "a handler ran");
        assert_eq!(orch.cluster.vms.records().count(), 0);
    }

    #[test]
    fn an_unsorted_scenario_is_refused() {
        let mut s = small_scenario(3, 1);
        let last = s.events.len() - 1;
        s.events.swap(0, last);
        assert_refused(&s, "out of time order");
    }

    /// A restore completion is the orchestrator's own event: one listed in
    /// the scenario would end vm-a's restore one second after host 0 fails,
    /// charging 1 s of lost VM time instead of the restore's real length.
    #[test]
    fn a_scenario_listed_restore_completion_is_refused() {
        // Every internal event, not just the restore completion: a listed
        // tick would fire as an extra sweep beside the scheduled ones.
        for (forged, reason) in [
            (
                OrchEvent::RestoreComplete { vm: "vm-a".into() },
                "internal event restore-complete for vm-a",
            ),
            (OrchEvent::RebalanceTick, "internal event rebalance-tick"),
            (OrchEvent::BackupTick, "internal event backup-tick"),
        ] {
            let s = lifecycle_scenario(2, vec![(1000, failure(0)), (1001, forged)]);
            assert_refused(&s, reason);
        }
    }

    #[test]
    fn a_scenario_event_past_the_day_is_refused() {
        let mut s = small_scenario(3, 1);
        let horizon = s.config.duration;
        s.events
            .push((horizon.saturating_add(Nanoseconds(1)), failure(0)));
        assert_refused(&s, "past the end");
        // The horizon itself is still inside the day.
        s.events.last_mut().unwrap().0 = horizon;
        run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
    }

    /// A scenario arrival, a rebalance tick, a backup tick and a restore
    /// completion all land on 1200 s and fire in that order: the `(at, seq)`
    /// order a queue seeded with the scenario, then the ticks, then the
    /// mid-run pushes gave them.
    #[test]
    fn same_instant_sources_fire_scenario_rebalance_backup_restore() {
        let params = OrchParams {
            rebalance_interval: Nanoseconds::from_secs(600),
            backup_interval: Nanoseconds::from_secs(600),
            ..fast_params()
        };
        let specs = || {
            (0..2)
                .map(|i| HostSpec::modern_server(HostId::new(i)))
                .collect()
        };
        // A full snapshot's size does not depend on the guest's contents, so
        // a scratch cluster tells what vm-a's restore reads. Failing host 0
        // one detection delay and one restore before 1200 s lands the
        // completion exactly on the 1200 s ticks.
        let mut probe = Cluster::new(specs(), params).unwrap();
        let spec = VmSpec::typical("vm-a", rvisor_cluster::ServerRole::Web);
        probe.deploy(HostId::new(0), spec).unwrap();
        let mut store = rvisor_snapshot::SnapshotStore::new();
        let (_, size, _) = probe
            .backup("vm-a", "probe", &mut store, Nanoseconds::ZERO)
            .unwrap();
        let target = BackupTarget::default();
        let restore = FAILOVER_DETECTION_DELAY
            .saturating_add(target.restore_setup)
            .saturating_add(target.read_time(size));
        let at = Nanoseconds::from_secs(1200);
        let scenario = Scenario {
            config: ScenarioConfig {
                duration: Nanoseconds::from_secs(3600),
                ..ScenarioConfig::day(0, WorkloadShape::SteadyState, 2, 2)
            },
            events: vec![
                (Nanoseconds::from_secs(10), arrival("vm-a")),
                (at.saturating_sub(restore), failure(0)),
                (at, arrival("vm-b")),
            ],
        };
        let mut orch = Orchestrator::new(specs(), params, Box::new(ThresholdRebalance)).unwrap();
        let (trace, recorder) = Trace::recording();
        orch.set_trace(trace);
        let report = orch.run(&scenario).unwrap();
        assert_eq!(report.vms_restored, 1);
        let fired: Vec<&str> = recorder
            .borrow()
            .events()
            .iter()
            .filter(|e| e.track == "orch" && e.kind == rvisor_obs::EventKind::Instant { at })
            .map(|e| e.name)
            .collect();
        assert_eq!(
            fired,
            [
                "vm-arrival",
                "placement",
                "rebalance-tick",
                "backup-tick",
                "restore-complete"
            ]
        );
    }
}
