//! The four workloads: their inputs, one iteration of each, and the
//! end-to-end (untraced) run.
//!
//! Named assumptions, which every figure inherits:
//!
//! * **Host time vs simulated time.** Every timing is host wall-clock;
//!   every event, page and byte count is simulated and repeats bit for bit.
//! * **Closed loop, one caller.** One request is outstanding; the next
//!   iteration starts when the previous one returns. The only other threads
//!   are the program's own pipelined-migration workers: `min(2, nproc)`
//!   streams where the benchmark picks ([`pipeline_streams`]), the adaptive
//!   planner's default 4 where `clos_day`'s planner picks.
//! * **Seed handling.** Inputs (scenario, guest page contents) are generated
//!   from `--seed` during set-up; the program under test receives only the
//!   generated inputs.
//! * **Fixed parameters.** Everything below that is not derived from the
//!   seed is a constant of the benchmark; `Scale::SMOKE` shrinks sizes for
//!   tests, never the structure.
//! * **The model is unvalidated.** The repository holds no reference
//!   measurement from real hardware, so no error figure is given.

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Instant;

use rvisor_cluster::PlacementStrategy;
use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    ConstantRateDirtier, DirtySource, FabricTransport, LoopbackTransport, MigrationConfig,
    MigrationReport, PageCompression, PostCopy, PreCopy, StopAndCopy, Transport,
};
use rvisor_net::{Fabric, FabricParams, Link, LinkModel};
use rvisor_obs::Trace;
use rvisor_orch::{
    run_datacenter_traced, EngineChoice, FabricTopology, OrchParams, OrchReport, Scenario,
    ScenarioConfig, SpreadRebalance, VmFidelity, WorkloadShape, MIN_GUEST_MEMORY,
};
use rvisor_types::{ByteSize, GuestAddress, Nanoseconds, Result, MIB, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

use crate::stats::{self, Fnv1a};

/// How big the workloads are. The structure of every workload is the same
/// at both scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `warehouse_day`: (hosts, arrivals).
    pub warehouse: (usize, usize),
    /// `clos_day`: (hosts, racks, arrivals).
    pub clos: (usize, usize, usize),
    /// `migrate_push` / `migrate_pull`: guest pages.
    pub guest_pages: u64,
    /// Input generations per run whose median is `setup_s`: at least
    /// `setups.0`, more while they have taken under `setups.1` seconds (a
    /// millisecond set-up needs hundreds of samples for a steady median).
    pub setups: (usize, f64),
}

impl Scale {
    /// The benchmark proper.
    pub const FULL: Scale = Scale {
        warehouse: (10_000, 100_000),
        clos: (64, 32, 1024),
        guest_pages: 128 * MIB / PAGE_SIZE,
        setups: (5, 0.6),
    };
    /// `--smoke`: seconds, not minutes; for tests.
    pub const SMOKE: Scale = Scale {
        warehouse: (200, 2_000),
        clos: (16, 8, 64),
        guest_pages: 4 * MIB / PAGE_SIZE,
        setups: (3, 0.0),
    };
}

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E19 headline day.
    WarehouseDay,
    /// A full-fidelity mixed day on a Clos fabric.
    ClosDay,
    /// Source-push migrations of one big dirtying guest.
    MigratePush,
    /// Destination-pull migrations of the same guest.
    MigratePull,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarehouseDay,
        Workload::ClosDay,
        Workload::MigratePush,
        Workload::MigratePull,
    ];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The day this workload's orchestrator-side ledger rows are measured
    /// on: its own day, or — for the migration workloads, which have no
    /// orchestrator on their path — the smoke-size `clos_day`, so that the
    /// ledger is complete on every run.
    pub fn day(self, scale: Scale, seed: u64) -> Day {
        match self {
            Workload::WarehouseDay => Day::warehouse(scale, seed),
            Workload::ClosDay => Day::clos(scale, seed),
            Workload::MigratePush | Workload::MigratePull => Day::clos(Scale::SMOKE, seed),
        }
    }

    /// Pages of the guest this workload's data-plane ledger rows are
    /// measured on: the migrated guest, or the size of the guests the day
    /// migrates and backs up.
    pub fn guest_pages(self, scale: Scale) -> u64 {
        match self {
            Workload::WarehouseDay => MIN_GUEST_MEMORY.pages(),
            Workload::ClosDay => OrchParams::default().guest_memory.pages(),
            Workload::MigratePush | Workload::MigratePull => scale.guest_pages,
        }
    }

    /// The transport migrations cross, and the three engines one iteration
    /// runs (the day workloads' data-plane rows use the push set: pre-copy
    /// over the fabric is what their rebalance migrations default to).
    pub fn batch(self) -> (Wire, [Engine; 3]) {
        match self {
            Workload::MigratePull => (
                Wire::Loopback,
                [
                    Engine::PostCopySweep,
                    Engine::PostCopyLane,
                    Engine::StopAndCopy,
                ],
            ),
            _ => (
                Wire::Fabric,
                [
                    Engine::PreCopySerial,
                    Engine::PreCopyXbzrle,
                    Engine::PreCopyPipelined,
                ],
            ),
        }
    }
}

/// One simulated day: cluster size, parameters and the generated scenario.
/// Both days place with `Spread` and rebalance with `SpreadRebalance`.
#[derive(Debug, Clone)]
pub struct Day {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Orchestrator parameters.
    pub params: OrchParams,
    /// The generated inputs.
    pub scenario: Scenario,
}

/// The E21–E23 Clos shape: four spines, and these bandwidths in bytes/s.
pub const CLOS_SPINES: usize = 4;
/// Capacity of each rack's leaf uplink.
pub const CLOS_LEAF_UPLINK: u64 = 2_500_000_000;
/// Capacity of one spine path.
pub const CLOS_SPINE: u64 = 1_250_000_000;

impl Day {
    /// The E19 day exactly as `examples/warehouse.rs` runs it, seed aside:
    /// diurnal wave, 2 host failures, model-fidelity minimum guests, spread
    /// placement and rebalance, single-spine fabric, plain DR.
    pub fn warehouse(scale: Scale, seed: u64) -> Day {
        let (hosts, arrivals) = scale.warehouse;
        let config = ScenarioConfig::day(seed, WorkloadShape::DiurnalWave, hosts, arrivals)
            .with_host_failures(2);
        let params = OrchParams {
            placement: PlacementStrategy::Spread,
            fidelity: VmFidelity::OnDemand,
            spread_utilization_gap: 0.05,
            guest_memory: MIN_GUEST_MEMORY,
            ..OrchParams::default()
        };
        Day::generate(hosts, params, config)
    }

    /// A full-fidelity 24 h mixed day, two hosts per rack so rack-local and
    /// cross-rack paths both occur: 2 host failures and 1 of 4 spines
    /// failed, adaptive planner with a dirty-hot tenant class, dedup DR,
    /// default intervals and 256 KiB guests.
    pub fn clos(scale: Scale, seed: u64) -> Day {
        let (hosts, racks, arrivals) = scale.clos;
        let config = ScenarioConfig::day(seed, WorkloadShape::Mixed, hosts, arrivals)
            .with_host_failures(2)
            .with_spine_failures(1, CLOS_SPINES);
        let params = OrchParams {
            placement: PlacementStrategy::Spread,
            engine: Some(EngineChoice::Auto),
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            hot_tenant_modulus: NonZeroU64::new(4),
            dedup_backups: true,
            topology: FabricTopology::Clos {
                racks,
                spines: CLOS_SPINES,
                leaf_uplink_bytes_per_second: CLOS_LEAF_UPLINK,
                spine_bytes_per_second: CLOS_SPINE,
                cross_rack_latency: Nanoseconds::from_micros(50),
            },
            ..OrchParams::default()
        };
        Day::generate(hosts, params, config)
    }

    fn generate(hosts: usize, params: OrchParams, config: ScenarioConfig) -> Day {
        Day {
            hosts,
            params,
            scenario: Scenario::generate(config)
                .expect("the benchmark's scenario configs are valid"),
        }
    }

    /// Run the day, feeding `trace` ([`Trace::off`] for the timed runs).
    pub fn run(&self, trace: Trace) -> Result<OrchReport> {
        run_datacenter_traced(
            self.hosts,
            self.params,
            Box::new(SpreadRebalance),
            &self.scenario,
            trace,
        )
    }

    /// Simulated guest MiB the day provisioned: VMs arrived × guest size.
    /// (Arrivals are a constant of the workload; the migration count is the
    /// seed's, and a rate must not move with the seed.)
    pub fn provisioned_mib(&self, report: &OrchReport) -> f64 {
        report.vms_arrived as f64 * self.params.guest_memory.as_u64() as f64 / MIB as f64
    }
}

/// SplitMix64: the page-content generator (the scenario generator's own
/// substream idiom, so guest contents are a pure function of seed and page).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A migration source and destination of equal size.
#[derive(Debug)]
pub struct Guest {
    /// The running guest: about three pages in four hold seed-derived noise,
    /// the rest are zero (so zero-run coding and dedup have something to
    /// find); which ones is the seed's choice too, so the XBZRLE stream's
    /// simulated size is a function of the seed.
    pub source: GuestMemory,
    /// The destination, zeroed before every migration.
    pub dest: GuestMemory,
}

impl Guest {
    /// Allocate both sides and seed the source from `seed`.
    pub fn build(pages: u64, seed: u64) -> Guest {
        let flat = || GuestMemory::flat(ByteSize::pages_of(pages)).expect("guest memory");
        let (source, dest) = (flat(), flat());
        for page in 0..pages {
            let mut state = seed ^ page.wrapping_mul(0xa076_1d64_78bd_642f);
            if splitmix(&mut state).is_multiple_of(4) {
                continue;
            }
            source
                .with_page_mut(page, |bytes| {
                    for word in bytes.chunks_exact_mut(8) {
                        word.copy_from_slice(&splitmix(&mut state).to_le_bytes());
                    }
                })
                .expect("page in range");
        }
        source.clear_dirty();
        Guest { source, dest }
    }

    /// Pages on each side.
    pub fn pages(&self) -> u64 {
        self.source.total_pages()
    }

    /// Guest size in MiB.
    pub fn mib(&self) -> f64 {
        self.source.total_size().as_u64() as f64 / MIB as f64
    }

    /// Zero the destination, so a migration that skips a page is caught.
    pub fn reset_dest(&self) {
        self.dest
            .fill(GuestAddress(0), self.dest.total_size().as_u64(), 0)
            .expect("whole-guest fill");
    }

    /// Does every destination page hold the source page's bytes? (Full
    /// contents, which is stronger than comparing fingerprints.)
    pub fn dest_matches_source(&self) -> bool {
        (0..self.pages()).all(|page| {
            let same = self
                .source
                .with_page(page, |src| self.dest.with_page(page, |dst| src == dst));
            matches!(same, Ok(Ok(true)))
        })
    }

    /// The load generator pre-copy runs against: writes at 0.3 × the
    /// 10 Gbit/s NIC rate over the first eighth of the guest.
    pub fn dirtier(&self) -> ConstantRateDirtier {
        ConstantRateDirtier::from_bandwidth_fraction(
            FabricParams::datacenter().nic_bytes_per_second,
            0.3,
            0,
            (self.pages() / 8).max(1),
        )
    }
}

/// Threads the pipelined engine may use: `min(2, nproc)`.
pub fn pipeline_streams() -> NonZeroUsize {
    NonZeroUsize::new(crate::nproc().min(2)).expect("at least one stream")
}

/// One way to run a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `PreCopy::migrate_over`, raw pages.
    PreCopySerial,
    /// `PreCopy::migrate_over` with `PageCompression::Xbzrle`.
    PreCopyXbzrle,
    /// `PreCopy::migrate_pipelined`, raw pages, [`pipeline_streams`] streams.
    PreCopyPipelined,
    /// `PostCopy::migrate_over`: background sweep.
    PostCopySweep,
    /// `PostCopy::migrate_fault_lane_over`: out-of-order demand faults.
    PostCopyLane,
    /// `StopAndCopy::migrate_over`.
    StopAndCopy,
}

impl Engine {
    /// Every engine: the push batch, then the pull batch.
    pub const ALL: [Engine; 6] = [
        Engine::PreCopySerial,
        Engine::PreCopyXbzrle,
        Engine::PreCopyPipelined,
        Engine::PostCopySweep,
        Engine::PostCopyLane,
        Engine::StopAndCopy,
    ];
    /// The four serial engines, one of each kind.
    pub const SERIAL: [Engine; 4] = [
        Engine::PreCopySerial,
        Engine::PostCopySweep,
        Engine::PostCopyLane,
        Engine::StopAndCopy,
    ];

    /// The ledger row holding this engine's median seconds per migration.
    pub fn row(self) -> &'static str {
        match self {
            Engine::PreCopySerial => "migrate.precopy_serial_s",
            Engine::PreCopyXbzrle => "migrate.precopy_xbzrle_s",
            Engine::PreCopyPipelined => "migrate.precopy_pipelined_s",
            Engine::PostCopySweep => "migrate.postcopy_sweep_s",
            Engine::PostCopyLane => "migrate.postcopy_lane_s",
            Engine::StopAndCopy => "migrate.stop_and_copy_s",
        }
    }

    /// Migrate `guest` over `transport`. The dirtier runs only under the
    /// pre-copy engines; the pull engines take none.
    pub fn migrate(
        self,
        guest: &Guest,
        transport: &mut dyn Transport,
        dirtier: &mut dyn DirtySource,
    ) -> Result<MigrationReport> {
        let (src, dst, vcpus) = (&guest.source, &guest.dest, [VcpuState::default()]);
        let config = MigrationConfig::default();
        match self {
            Engine::PreCopySerial => {
                PreCopy::migrate_over(src, dst, &vcpus, transport, dirtier, &config)
            }
            Engine::PreCopyXbzrle => {
                let config = MigrationConfig {
                    compression: PageCompression::Xbzrle,
                    ..config
                };
                PreCopy::migrate_over(src, dst, &vcpus, transport, dirtier, &config)
            }
            Engine::PreCopyPipelined => {
                let config = MigrationConfig {
                    streams: pipeline_streams(),
                    ..config
                };
                PreCopy::migrate_pipelined(src, dst, &vcpus, transport, dirtier, &config)
            }
            Engine::PostCopySweep => PostCopy::migrate_over(src, dst, &vcpus, transport, &config),
            Engine::PostCopyLane => {
                PostCopy::migrate_fault_lane_over(src, dst, &vcpus, transport, &config)
            }
            Engine::StopAndCopy => StopAndCopy::migrate_over(src, dst, &vcpus, transport),
        }
    }
}

/// What migrations cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// A two-endpoint datacenter `Fabric` through a `FabricTransport`.
    Fabric,
    /// A 10 Gbit/s `Link` through a `LoopbackTransport`.
    Loopback,
}

impl Wire {
    /// Run `f` with a fresh transport: simulated time starts at zero for
    /// every migration, so equal inputs give `==` reports.
    pub fn with<R>(self, f: impl FnOnce(&mut dyn Transport) -> R) -> R {
        match self {
            Wire::Fabric => {
                let mut fabric = Fabric::new(2, FabricParams::datacenter()).expect("two endpoints");
                f(&mut FabricTransport::new(&mut fabric, 0, 1).expect("distinct endpoints"))
            }
            Wire::Loopback => {
                let mut link = Link::new(LinkModel::ten_gigabit());
                f(&mut LoopbackTransport::new(&mut link))
            }
        }
    }
}

/// Checked outcomes: the benchmark's unit of "operation".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Outcomes checked.
    pub attempted: u64,
    /// Outcomes that were wrong.
    pub failed: u64,
}

impl Checks {
    /// Record one checked outcome; a failure is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: FAILED check: {}", what());
        }
    }
}

/// Zero the destination, migrate, time only the migration, then check the
/// outcome outside the timed region: `Ok`, and every destination page equal
/// to the source's.
pub fn timed_migration(
    engine: Engine,
    guest: &Guest,
    wire: Wire,
    checks: &mut Checks,
) -> (f64, Option<MigrationReport>) {
    guest.reset_dest();
    let mut dirtier = guest.dirtier();
    let (secs, outcome) =
        wire.with(|transport| stats::time_s(|| engine.migrate(guest, transport, &mut dirtier)));
    checks.check(outcome.is_ok(), || {
        format!("{engine:?} returned {outcome:?}")
    });
    let report = outcome.ok();
    if report.is_some() {
        checks.check(guest.dest_matches_source(), || {
            format!("{engine:?} left a destination page different from the source")
        });
    }
    (secs, report)
}

/// What one iteration simulated, for equality checks and throughput.
#[derive(Debug, Clone, PartialEq)]
pub enum Simulated {
    /// A day's report.
    Day(Box<OrchReport>),
    /// A batch's three reports.
    Batch(Vec<MigrationReport>),
}

/// The inputs of one workload, generated from the seed.
#[derive(Debug)]
pub enum Inputs {
    /// A day workload's scenario and parameters.
    Day(Box<Day>),
    /// A migration workload's guest.
    Guest(Guest),
}

impl Inputs {
    /// Generate `workload`'s inputs: this is what `setup_s` times.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        match workload {
            Workload::WarehouseDay | Workload::ClosDay => {
                Inputs::Day(Box::new(workload.day(scale, seed)))
            }
            Workload::MigratePush | Workload::MigratePull => {
                Inputs::Guest(Guest::build(scale.guest_pages, seed))
            }
        }
    }
}

/// One iteration: host seconds inside the program, and what it simulated
/// (`None` if the program failed, which `checks` has recorded).
pub fn iterate(
    workload: Workload,
    inputs: &Inputs,
    checks: &mut Checks,
) -> (f64, Option<Simulated>) {
    match inputs {
        Inputs::Day(day) => {
            let (secs, outcome) = stats::time_s(|| day.run(Trace::off()));
            checks.check(outcome.is_ok(), || format!("the day returned {outcome:?}"));
            (
                secs,
                outcome.ok().map(|report| Simulated::Day(Box::new(report))),
            )
        }
        Inputs::Guest(guest) => {
            let (wire, engines) = workload.batch();
            let mut total = 0.0;
            let mut reports = Vec::new();
            for engine in engines {
                let (secs, report) = timed_migration(engine, guest, wire, checks);
                total += secs;
                reports.extend(report);
            }
            let complete = reports.len() == engines.len();
            (total, complete.then_some(Simulated::Batch(reports)))
        }
    }
}

/// The untraced run's results.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Host seconds of each timed iteration.
    pub wall_s: Vec<f64>,
    /// Host seconds of each input generation.
    pub setup_s: Vec<f64>,
    /// Simulated events one iteration processes.
    pub events: u64,
    /// Simulated guest MiB one iteration migrates (batch) or provisions (day).
    pub guest_mib: f64,
    /// `VmHWM` at the end of the run, MiB.
    pub peak_rss_mib: f64,
    /// FNV-1a over the `Debug` form of the first iteration's reports.
    pub sim_digest: u64,
    /// Checked outcomes.
    pub checks: Checks,
}

/// FNV-1a of the `Debug` form of every report in `simulated`.
pub fn digest(simulated: &Simulated) -> u64 {
    let mut h = Fnv1a::default();
    match simulated {
        Simulated::Day(report) => h.update_debug(report),
        Simulated::Batch(reports) => reports.iter().for_each(|r| h.update_debug(r)),
    }
    h.finish()
}

fn work_of(inputs: &Inputs, simulated: &Simulated) -> (u64, f64) {
    match (inputs, simulated) {
        (Inputs::Day(day), Simulated::Day(report)) => {
            (report.events_processed, day.provisioned_mib(report))
        }
        (Inputs::Guest(guest), Simulated::Batch(reports)) => (
            reports.iter().map(|r| r.pages_transferred).sum(),
            guest.mib() * reports.len() as f64,
        ),
        _ => unreachable!("a day simulates a day and a guest a batch"),
    }
}

/// `VmHWM` of this process in MiB (Linux), or 0 where `/proc` has none.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end run: set up several times (median is `setup_s`), one
/// untimed warm-up iteration, then timed iterations until `seconds`
/// have been measured (always at least one). Every iteration's simulated
/// output must `==` the warm-up's; for `migrate_push` the pipelined report
/// must also `==` the serial one.
pub fn run_end_to_end(workload: Workload, scale: Scale, seed: u64, seconds: f64) -> EndToEnd {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let (least, budget_s) = scale.setups;
    while setup_s.len() < least.max(1) || setup_s.iter().sum::<f64>() < budget_s {
        drop(inputs.take()); // one generation alive at a time
        let (secs, generated) = stats::time_s(|| Inputs::generate(workload, scale, seed));
        setup_s.push(secs);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");

    let (_, first) = iterate(workload, &inputs, &mut checks);
    if let Some(Simulated::Batch(reports)) = &first {
        if workload == Workload::MigratePush {
            checks.check(reports[2] == reports[0], || {
                "the pipelined MigrationReport differs from the serial one".into()
            });
        }
    }

    let mut wall_s = Vec::new();
    let measuring = Instant::now();
    loop {
        let (secs, simulated) = iterate(workload, &inputs, &mut checks);
        wall_s.push(secs);
        checks.check(simulated.is_some() && simulated == first, || {
            format!(
                "iteration {} simulated something else than the first",
                wall_s.len()
            )
        });
        if measuring.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let (events, guest_mib) = first.as_ref().map_or((0, 0.0), |s| work_of(&inputs, s));
    EndToEnd {
        wall_s,
        setup_s,
        events,
        guest_mib,
        peak_rss_mib: peak_rss_mib(),
        sim_digest: first.as_ref().map_or(0, digest),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::WarehouseDay.name(), "warehouse_day");
        assert_eq!(Workload::ClosDay.name(), "clos_day");
        assert_eq!(Workload::MigratePush.name(), "migrate_push");
        assert_eq!(Workload::MigratePull.name(), "migrate_pull");
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn guest_contents_are_a_function_of_the_seed() {
        let (a, b, c) = (
            Guest::build(256, 7),
            Guest::build(256, 7),
            Guest::build(256, 8),
        );
        assert_eq!(a.source.checksum(), b.source.checksum());
        assert_ne!(a.source.checksum(), c.source.checksum());
        let zero_pages = |g: &Guest| {
            (0..g.pages())
                .filter(|&p| g.source.with_page(p, rvisor_memory::is_zero).unwrap())
                .collect::<Vec<_>>()
        };
        // About a quarter of the pages are zero, and which is the seed's choice.
        assert!(
            (32..=96).contains(&zero_pages(&a).len()),
            "{:?}",
            zero_pages(&a)
        );
        assert_ne!(zero_pages(&a), zero_pages(&c));
        assert_eq!(a.source.dirty_page_count(), 0);
        assert!(!a.dest_matches_source());
    }

    #[test]
    fn every_engine_moves_the_guest_and_a_skipped_page_is_caught() {
        let guest = Guest::build(64, 1);
        for (i, engine) in Engine::ALL.into_iter().enumerate() {
            let wire = if i < 3 { Wire::Fabric } else { Wire::Loopback };
            let mut checks = Checks::default();
            let (_, report) = timed_migration(engine, &guest, wire, &mut checks);
            assert_eq!(
                checks,
                Checks {
                    attempted: 2,
                    failed: 0
                },
                "{engine:?}"
            );
            assert!(report.unwrap().pages_transferred >= 64);
        }
        guest
            .dest
            .write_u64(GuestAddress(5 * PAGE_SIZE), 0xdead)
            .unwrap();
        assert!(!guest.dest_matches_source());
    }
}
