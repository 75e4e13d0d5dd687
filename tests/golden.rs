//! Golden digests: a few small reports, each hashed from its `Debug` form
//! and compared with the line of the same name in `golden/digests.txt`.
//!
//! Every report here is a pure function of its inputs, so a digest moves
//! only when behaviour does. A change that means to move one edits
//! `golden/digests.txt` in the same diff; a failing run prints the
//! replacement line for each digest that moved.

use virtlab::cluster::{HostSpec, PlacementStrategy};
use virtlab::memory::{fingerprint, GuestMemory};
use virtlab::migrate::{execute, ConstantRateDirtier, FabricTransport, MigrationPlan, PlanEngine};
use virtlab::net::{ClosFabric, FabricParams};
use virtlab::obs::Trace;
use virtlab::orch::{
    run_datacenter, ConsolidateAndPowerDown, EngineChoice, FabricTopology, MigrationPlanner,
    OrchParams, Orchestrator, RebalancePolicy, Scenario, ScenarioConfig, SpreadRebalance,
    ThresholdRebalance, VmFidelity, WorkloadShape,
};
use virtlab::types::{HostId, PAGE_SIZE};
use virtlab::vcpu::VcpuState;
use virtlab::{ByteSize, GuestAddress, Nanoseconds};

const DIGESTS: &str = include_str!("../golden/digests.txt");

fn digest(report: &impl std::fmt::Debug) -> String {
    format!("{:016x}", fingerprint(format!("{report:?}").as_bytes()))
}

/// The E15 day (diurnal wave, threshold rebalancing, DR restores after host
/// failures) at 12 hosts and 160 arrivals over six hours.
fn e15_day() -> String {
    let scenario = Scenario::generate(
        ScenarioConfig {
            duration: Nanoseconds::from_secs(6 * 3600),
            ..ScenarioConfig::day(0xDC, WorkloadShape::DiurnalWave, 12, 160)
        }
        .with_host_failures(2),
    )
    .unwrap();
    digest(
        &run_datacenter(
            12,
            OrchParams::default(),
            Box::new(ThresholdRebalance),
            &scenario,
        )
        .unwrap(),
    )
}

/// A planner-driven day on the one-rack single-spine fabric, with hot
/// tenants, so the planner sends the guests it saw dirtying by post-copy
/// over the fault lane.
fn one_rack_adaptive_day() -> String {
    let params = OrchParams {
        engine: Some(EngineChoice::Auto),
        hot_tenant_modulus: std::num::NonZeroU64::new(4),
        spread_utilization_gap: 0.01,
        rebalance_interval: Nanoseconds::from_secs(600),
        backup_interval: Nanoseconds::from_secs(900),
        ..OrchParams::default()
    };
    let hosts = (0..4)
        .map(|i| HostSpec::modern_server(HostId::new(i)))
        .collect();
    let mut orch = Orchestrator::new(hosts, params, Box::new(SpreadRebalance)).unwrap();
    orch.set_planner(MigrationPlanner {
        hot_dirty_rate: 1,
        big_guest_min: ByteSize::new(1),
        idle_backlog_max: Nanoseconds::ZERO,
        ..MigrationPlanner::default()
    });
    let scenario = Scenario::generate(
        ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(4, WorkloadShape::SteadyState, 4, 40)
        }
        .with_host_failures(1),
    )
    .unwrap();
    digest(&orch.run(&scenario).unwrap())
}

/// A day of 16 small hosts on a 2-rack, 2-spine Clos fabric under
/// `policy`, with low CPU thresholds so every policy acts. Hosts holding
/// the same roles tie on utilization, so the planner's rack-aware
/// tie-breaks decide where some VMs go: each policy's row moves if its
/// rack preference is dropped or flipped.
fn clos_day(policy: Box<dyn RebalancePolicy>, placement: PlacementStrategy) -> String {
    let params = OrchParams {
        placement,
        fidelity: VmFidelity::OnDemand,
        guest_memory: ByteSize::kib(64),
        topology: FabricTopology::Clos {
            racks: 2,
            spines: 2,
            leaf_uplink_bytes_per_second: 2_500_000_000,
            spine_bytes_per_second: 1_250_000_000,
            cross_rack_latency: Nanoseconds::from_micros(50),
        },
        overload_cpu_threshold: 0.3,
        underload_cpu_threshold: 0.1,
        rebalance_interval: Nanoseconds::from_secs(600),
        ..OrchParams::default()
    };
    let hosts = (0..16)
        .map(|i| HostSpec::deck_era_server(HostId::new(i)))
        .collect();
    let scenario = Scenario::generate(ScenarioConfig {
        duration: Nanoseconds::from_secs(6 * 3600),
        ..ScenarioConfig::day(2, WorkloadShape::SteadyState, 16, 48)
    })
    .unwrap();
    let orch = Orchestrator::new(hosts, params, policy).unwrap();
    digest(&orch.run(&scenario).unwrap())
}

/// One 256-page migration of a dirtying guest over an office-LAN fabric,
/// whose per-stream framing makes the stream count visible in the report;
/// the digest covers the destination's checksum too.
fn migration(engine: PlanEngine, streams: usize) -> String {
    let pages = 256;
    let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
    // Every third page stays zero, so zero runs cross stripe boundaries.
    for p in (0..pages).filter(|p| p % 3 != 0) {
        src.write_u64(GuestAddress(p * PAGE_SIZE), p * 0x9E37_79B9)
            .unwrap();
    }
    let plan = MigrationPlan {
        engine,
        streams: std::num::NonZeroUsize::new(streams).unwrap(),
        ..MigrationPlan::default()
    };
    let mut fabric = ClosFabric::new(2, FabricParams::office_lan()).unwrap();
    let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
    let mut dirtier = ConstantRateDirtier::new(2_000, 0, 64);
    let report = execute(
        &plan,
        &src,
        &dst,
        &[VcpuState::default()],
        &mut transport,
        &mut dirtier,
        &Trace::off(),
    )
    .unwrap();
    digest(&(report, dst.checksum()))
}

#[test]
fn reports_match_their_golden_digests() {
    let mut cases = vec![
        ("e15_day".to_string(), e15_day()),
        ("one_rack_adaptive_day".to_string(), one_rack_adaptive_day()),
        (
            "clos_day_threshold".to_string(),
            clos_day(
                Box::new(ThresholdRebalance),
                PlacementStrategy::FirstFitDecreasing,
            ),
        ),
        (
            "clos_day_consolidate".to_string(),
            clos_day(
                Box::new(ConsolidateAndPowerDown),
                PlacementStrategy::OnePerHost,
            ),
        ),
        (
            "clos_day_spread".to_string(),
            clos_day(Box::new(SpreadRebalance), PlacementStrategy::Spread),
        ),
    ];
    for engine in [
        PlanEngine::StopAndCopy,
        PlanEngine::PreCopy,
        PlanEngine::PostCopy,
    ] {
        for streams in [1, 4] {
            let name = format!("migrate_{}_x{streams}", engine.name());
            cases.push((name, migration(engine, streams)));
        }
    }
    let moved: Vec<String> = cases
        .iter()
        .filter(|(name, got)| {
            let recorded = DIGESTS
                .lines()
                .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '));
            recorded != Some(got.as_str())
        })
        .map(|(name, got)| format!("{name} {got}"))
        .collect();
    assert!(
        moved.is_empty(),
        "behaviour moved; if that is intended, put these lines in golden/digests.txt:\n{}",
        moved.join("\n")
    );
}
