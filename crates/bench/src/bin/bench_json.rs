//! `bench_json` — the machine-readable perf-tracking harness behind the CI
//! `bench-trend` job.
//!
//! Runs a curated set of quick micro-benchmarks over the workspace's hot
//! paths (the wire codec, the streamed migration engine, the fabric model,
//! the zero-copy memory plane, the warehouse-scale orchestrator
//! structures) and emits a flat JSON map of `bench name -> ns/iter`:
//!
//! ```sh
//! cargo run --release -p rvisor-bench --bin bench_json -- --out BENCH_$(git rev-parse HEAD).json
//! ```
//!
//! With `--compare BENCH_baseline.json` it additionally diffs the fresh
//! numbers against the checked-in baseline and **exits non-zero when any
//! bench regressed by more than `--threshold` percent** (default 25). Each
//! sample is the mean of a timed batch and the reported figure is the
//! *median* sample, which keeps single-digit-millisecond CI runs stable
//! enough for a coarse 25% gate. A bench present only in the current run
//! is reported but never fails the gate, so adding a bench does not
//! require a lockstep baseline update; a bench present only in the
//! *baseline* fails it, so coverage cannot silently disappear.
//!
//! The JSON is written one `"name": value` pair per line, so the
//! dependency-free parser below (and any `jq`-less shell script) can read
//! it back.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

use rvisor_cluster::{HostSpec, PlacementStrategy, ServerRole, VmSpec};
use rvisor_memory::GuestMemory;
use rvisor_migrate::compress::xbzrle_encode;
use rvisor_migrate::{
    execute, ConstantRateDirtier, DirtySource, FabricTransport, FaultService, IdleDirtier,
    LoopbackTransport, MigrationPlan, MigrationReport, MigrationSink, MigrationSource, PlanEngine,
    Transport,
};
use rvisor_net::{ClosFabric, ClosParams, FabricParams, Link, LinkModel};
use rvisor_obs::{ArgValue, Args as TraceArgs, Trace, TraceSink};
use rvisor_orch::{
    run_datacenter, Cluster, EngineChoice, FabricTopology, OrchParams, RebalancePolicy, Scenario,
    ScenarioConfig, SpreadRebalance, ThresholdRebalance, VmFidelity, WorkloadShape,
};
use rvisor_snapshot::{CasStore, VmSnapshot};
use rvisor_types::{ByteSize, GuestAddress, HostId, Nanoseconds, VmId, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

/// Samples per bench; the median is reported.
const DEFAULT_SAMPLES: usize = 9;
/// Target wall-clock budget per sample, nanoseconds.
const SAMPLE_BUDGET_NS: u128 = 8_000_000;

struct Args {
    out: Option<String>,
    compare: Option<String>,
    threshold_pct: f64,
    samples: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        compare: None,
        threshold_pct: 25.0,
        samples: DEFAULT_SAMPLES,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--out" => args.out = Some(value("--out")?),
            "--compare" => args.compare = Some(value("--compare")?),
            "--threshold" => {
                args.threshold_pct = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("bad --threshold: {e}"))?
            }
            "--samples" => {
                args.samples = value("--samples")?
                    .parse()
                    .map_err(|e| format!("bad --samples: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_json [--out FILE] [--compare BASELINE] \
                     [--threshold PCT] [--samples N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.samples == 0 {
        return Err("--samples must be at least 1".into());
    }
    Ok(args)
}

/// Measure `routine`: calibrate a batch size to ~`SAMPLE_BUDGET_NS`, take
/// `samples` timed batches, report the median mean-ns-per-iteration.
fn measure<O>(samples: usize, mut routine: impl FnMut() -> O) -> f64 {
    // Warm-up + calibration.
    let start = Instant::now();
    let mut calib_iters = 0u64;
    while start.elapsed().as_nanos() < SAMPLE_BUDGET_NS / 4 || calib_iters == 0 {
        std::hint::black_box(routine());
        calib_iters += 1;
        if calib_iters >= 10_000 {
            break;
        }
    }
    let per_iter = (start.elapsed().as_nanos() / calib_iters as u128).max(1);
    let batch = ((SAMPLE_BUDGET_NS / per_iter).clamp(1, 100_000)) as u64;

    let mut means = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        means.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    means[means.len() / 2]
}

fn sparse_memories(pages: u64) -> (GuestMemory, GuestMemory) {
    let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
    for p in 0..pages {
        if p % 4 != 3 {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 11 + 3)
                .unwrap();
        }
    }
    (src, dst)
}

/// `plan` from `src` to `dst` over `transport`, one vCPU, tracing off.
fn migrate(
    plan: &MigrationPlan,
    src: &GuestMemory,
    dst: &GuestMemory,
    transport: &mut dyn Transport,
    dirtier: &mut dyn DirtySource,
) -> MigrationReport {
    let vcpus = [VcpuState::default()];
    execute(plan, src, dst, &vcpus, transport, dirtier, &Trace::off()).unwrap()
}

fn run_benches(samples: usize) -> BTreeMap<String, f64> {
    const PAGES: u64 = 512; // 2 MiB guest keeps every bench in the ms range
    let mut results = BTreeMap::new();
    let mut record = |name: &str, ns: f64| {
        println!("{name:<40} {ns:>14.1} ns/iter");
        results.insert(name.to_string(), ns);
    };

    // -- wire codec: encode one round of raw page frames --
    {
        let (src, _) = sparse_memories(PAGES);
        let pages: Vec<u64> = (0..PAGES).collect();
        let mut link = Link::new(LinkModel::ten_gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let ns = measure(samples, || {
            let mut source = MigrationSource::raw(&src);
            source.encode_round(&pages, &mut transport).unwrap();
            let (_, burst) = transport.deliver(Nanoseconds::ZERO).unwrap();
            let len = burst.len();
            transport.recycle(burst);
            len
        });
        record("wire_encode_round_2mib", ns);
    }

    // -- wire codec: checksum-verify and apply one round --
    {
        let (src, dst) = sparse_memories(PAGES);
        let mut link = Link::new(LinkModel::ten_gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let mut source = MigrationSource::raw(&src);
        source.send_hello(&mut transport).unwrap();
        source
            .encode_round(&(0..PAGES).collect::<Vec<_>>(), &mut transport)
            .unwrap();
        let (_, burst) = transport.deliver(Nanoseconds::ZERO).unwrap();
        let ns = measure(samples, || {
            let mut sink = MigrationSink::new(&dst);
            sink.apply_burst(&burst).unwrap();
            sink.pages_applied()
        });
        record("wire_decode_apply_round_2mib", ns);
    }

    // -- full streamed pre-copy over loopback --
    {
        let ns = measure(samples, || {
            let (src, dst) = sparse_memories(PAGES);
            let mut link = Link::new(LinkModel::ten_gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let plan = MigrationPlan::default();
            migrate(&plan, &src, &dst, &mut transport, &mut IdleDirtier)
        });
        record("precopy_stream_loopback_2mib", ns);
    }

    // -- two-lane pre-copy over loopback: one thread per stripe,
    //    byte-identical to the one-stream migration above --
    {
        let ns = measure(samples, || {
            let (src, dst) = sparse_memories(PAGES);
            let mut link = Link::new(LinkModel::ten_gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let plan = MigrationPlan {
                streams: NonZeroUsize::new(2).unwrap(),
                ..Default::default()
            };
            migrate(&plan, &src, &dst, &mut transport, &mut IdleDirtier)
        });
        record("precopy_stream_pipelined_2mib", ns);
    }

    // -- 4-stream pipelined pre-copy over loopback (experiment E18): the
    //    page-index space sharded across 4 encode workers plus the sink
    //    thread. The speedup over the serial number above scales with the
    //    host's core count; on a single core it degrades to ~serial. --
    {
        let ns = measure(samples, || {
            let (src, dst) = sparse_memories(PAGES);
            let mut link = Link::new(LinkModel::ten_gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let plan = MigrationPlan {
                streams: NonZeroUsize::new(4).unwrap(),
                ..Default::default()
            };
            migrate(&plan, &src, &dst, &mut transport, &mut IdleDirtier)
        });
        record("precopy_stream_4way_2mib", ns);
    }

    // -- observability plane: one span emitted through an attached sink --
    {
        /// A sink that discards everything: measures the dispatch-and-borrow
        /// emit path itself, not recorder memory growth.
        struct NullSink;
        impl TraceSink for NullSink {
            fn span(
                &mut self,
                _: &'static str,
                _: &'static str,
                _: Nanoseconds,
                _: Nanoseconds,
                _: &TraceArgs<'_>,
            ) {
            }
            fn instant(
                &mut self,
                _: &'static str,
                _: &'static str,
                _: Nanoseconds,
                _: &TraceArgs<'_>,
            ) {
            }
            fn counter(&mut self, _: &'static str, _: &'static str, _: Nanoseconds, _: u64) {}
            fn add(&mut self, _: &'static str, _: u64) {}
            fn observe(&mut self, _: &'static str, _: u64) {}
        }
        let trace = Trace::to(std::rc::Rc::new(std::cell::RefCell::new(NullSink)));
        let mut i = 0u64;
        let ns = measure(samples, || {
            i = i.wrapping_add(1);
            trace.span(
                "bench",
                "span",
                Nanoseconds(i),
                Nanoseconds(i + 1),
                &[("bytes", ArgValue::U64(i)), ("vm", ArgValue::Str("probe"))],
            );
        });
        record("trace_span_emit", ns);
    }

    // -- full streamed pre-copy over the fabric, dirtying guest --
    {
        let params = FabricParams::datacenter();
        let ns = measure(samples, || {
            let (src, dst) = sparse_memories(PAGES);
            let mut fabric = ClosFabric::new(2, params).unwrap();
            let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
            let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
                params.nic_bytes_per_second,
                0.3,
                0,
                PAGES,
            );
            let plan = MigrationPlan::default();
            migrate(&plan, &src, &dst, &mut transport, &mut dirtier)
        });
        record("precopy_stream_fabric_2mib", ns);
    }

    // -- single-spine fabric timing model (the one-rack preset's rack-local
    //    burst; pure integer arithmetic) --
    {
        let mut fabric = ClosFabric::new(16, FabricParams::datacenter()).unwrap();
        let mut i = 0usize;
        let ns = measure(samples, || {
            i = (i + 1) % 15;
            fabric
                .transfer(i, i + 1, Nanoseconds::ZERO, 1 << 20)
                .unwrap()
        });
        record("fabric_transfer_1mib", ns);
    }

    // -- Clos fabric timing model: one cross-rack burst striped over the
    //    spine tier (ECMP hash + per-spine occupancy bookkeeping) --
    {
        let mut fabric = ClosFabric::new(16, ClosParams::datacenter(4, 4)).unwrap();
        let stripes = [256 * 1024u64; 4];
        let mut i = 0usize;
        let ns = measure(samples, || {
            i = (i + 1) % 4;
            // Host i in rack 0 to host 15 - i in rack 3: always cross-rack.
            fabric
                .transfer_striped(i, 15 - i, Nanoseconds::ZERO, &stripes)
                .unwrap()
        });
        record("clos_transfer_striped_cross_rack", ns);
    }

    // -- XBZRLE delta encode of a lightly-touched page --
    {
        let old = vec![0xa5u8; PAGE_SIZE as usize];
        let mut new = old.clone();
        for i in (0..PAGE_SIZE as usize).step_by(512) {
            new[i] ^= 0xff;
        }
        let ns = measure(samples, || xbzrle_encode(&old, &new));
        record("xbzrle_encode_page", ns);
    }

    // -- zero-copy memory plane: harvest + page copy round --
    {
        let (src, dst) = sparse_memories(PAGES);
        let mut harvest: Vec<u64> = Vec::new();
        let mut bounce = [0u8; PAGE_SIZE as usize];
        let ns = measure(samples, || {
            for p in (0..PAGES).step_by(2) {
                src.mark_dirty_page(p);
            }
            src.drain_dirty_into(&mut harvest);
            for &p in &harvest {
                src.with_page(p, |bytes| bounce.copy_from_slice(bytes))
                    .unwrap();
                dst.with_page_mut(p, |target| target.copy_from_slice(&bounce))
                    .unwrap();
            }
            harvest.len()
        });
        record("memory_plane_harvest_copy_round", ns);
    }

    // -- orchestrator at warehouse scale: a 10k-host cluster with 30k
    //    modeled VMs, a handful of hosts run hot --
    {
        let params = OrchParams {
            fidelity: VmFidelity::OnDemand,
            ..Default::default()
        };
        let specs = (0..10_000)
            .map(|i| HostSpec::modern_server(HostId::new(i)))
            .collect();
        let mut cluster = Cluster::new(specs, params).unwrap();
        for host in 0..10_000u32 {
            for slot in 0..3 {
                let spec = VmSpec::typical(&format!("vm-{host}-{slot}"), ServerRole::AppServer);
                cluster.deploy(HostId::new(host), spec).unwrap();
            }
        }
        // Eight hotspots for the threshold policy to drain. 27 cores puts
        // the host at ~0.89 utilization (over the 0.85 bar) while the hot
        // VM still fits on any other host, so the tick measures the
        // candidate-only index walk rather than a futile full scan.
        for host in 0..8u32 {
            cluster
                .set_cpu_demand(&format!("vm-{host}-0"), 27.0)
                .unwrap();
        }

        // A full rebalance tick: find every overloaded host via the
        // utilization index and plan migrations off it.
        let policy = ThresholdRebalance;
        let ns = measure(samples, || policy.plan(&cluster, &params));
        record("orch_rebalance_tick_10k_hosts", ns);

        // One placement decision against all 10k hosts: coldest-first
        // through the same index.
        let spec = VmSpec::typical("probe", ServerRole::Web);
        let ns = measure(samples, || {
            cluster.choose_host(PlacementStrategy::Spread, &spec)
        });
        record("orch_placement_scan_10k_hosts", ns);
    }

    // -- topology-aware day: a 32-rack Clos datacenter runs the E21
    //    flash-crowd day end to end (placement, striped migrations over the
    //    spine tier, DR sweeps), one full deterministic replay per iter --
    {
        let scenario = Scenario::generate(ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(0xE21, WorkloadShape::FlashCrowd, 32, 256)
        })
        .unwrap();
        let params = OrchParams {
            placement: PlacementStrategy::Spread,
            migration_streams: NonZeroUsize::new(4).unwrap(),
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            rebalance_interval: Nanoseconds::from_secs(600),
            backup_interval: Nanoseconds::from_secs(600),
            topology: FabricTopology::Clos {
                racks: 32,
                spines: 4,
                leaf_uplink_bytes_per_second: 2_500_000_000,
                spine_bytes_per_second: 1_250_000_000,
                cross_rack_latency: Nanoseconds::from_micros(50),
            },
            ..Default::default()
        };
        let ns = measure(samples, || {
            run_datacenter(32, params, Box::new(SpreadRebalance), &scenario).unwrap()
        });
        record("orch_day_clos_32rack", ns);
    }

    // -- post-copy with the out-of-order demand-fault lane: faulted pages
    //    ride a dedicated stream that overtakes the background sweep --
    {
        let (src, dst) = sparse_memories(PAGES);
        let mut link = Link::new(LinkModel::gigabit());
        let ns = measure(samples, || {
            let mut transport = LoopbackTransport::new(&mut link);
            let plan = MigrationPlan {
                engine: PlanEngine::PostCopy,
                fault_service: FaultService::FaultLane,
                ..Default::default()
            };
            migrate(&plan, &src, &dst, &mut transport, &mut IdleDirtier)
        });
        record("postcopy_fault_lane_2mib", ns);
    }

    // -- adaptive day: the E22 mixed 32-rack Clos day with every rebalance
    //    migration planned per-VM by the MigrationPlanner (observed dirty
    //    rate, guest size, fabric occupancy), one full replay per iter --
    {
        let scenario = Scenario::generate(ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(0xE22, WorkloadShape::Mixed, 32, 256)
        })
        .unwrap();
        let params = OrchParams {
            placement: PlacementStrategy::Spread,
            engine: Some(EngineChoice::Auto),
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            hot_tenant_modulus: std::num::NonZeroU64::new(4),
            rebalance_interval: Nanoseconds::from_secs(600),
            backup_interval: Nanoseconds::from_secs(600),
            topology: FabricTopology::Clos {
                racks: 32,
                spines: 4,
                leaf_uplink_bytes_per_second: 2_500_000_000,
                spine_bytes_per_second: 1_250_000_000,
                cross_rack_latency: Nanoseconds::from_micros(50),
            },
            ..Default::default()
        };
        let ns = measure(samples, || {
            run_datacenter(32, params, Box::new(SpreadRebalance), &scenario).unwrap()
        });
        record("orch_day_adaptive_32rack", ns);
    }

    // -- content-addressed chunk probe: ingest a 512-page snapshot into a
    //    pre-warmed CasStore that already holds every page, so each iter is
    //    512 fingerprint probes + full-page collision compares (the dedup
    //    steady-state hot path: nothing novel, everything interned) --
    {
        let (src, _) = sparse_memories(PAGES);
        let snap = VmSnapshot::capture_full(
            VmId::new(0),
            "probe",
            Nanoseconds::ZERO,
            &src,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        let mut cas = CasStore::new();
        cas.ingest(&snap, None).unwrap();
        let ns = measure(samples, || cas.ingest(&snap, None).unwrap());
        record("cas_chunk_probe", ns);
    }

    // -- dedup day: the E23 mixed 32-rack Clos day with hourly sweeps
    //    negotiating against the content-addressed DR store (chunk probes,
    //    ChunkRef/ChunkData wire accounting, manifest-chain GC on VM churn),
    //    one full deterministic replay per iter --
    {
        let scenario = Scenario::generate(
            ScenarioConfig {
                duration: Nanoseconds::from_secs(2 * 3600),
                ..ScenarioConfig::day(0xE23, WorkloadShape::Mixed, 32, 256)
            }
            .with_host_failures(2),
        )
        .unwrap();
        let params = OrchParams {
            placement: PlacementStrategy::Spread,
            dedup_backups: true,
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            rebalance_interval: Nanoseconds::from_secs(600),
            backup_interval: Nanoseconds::from_secs(600),
            topology: FabricTopology::Clos {
                racks: 32,
                spines: 4,
                leaf_uplink_bytes_per_second: 2_500_000_000,
                spine_bytes_per_second: 1_250_000_000,
                cross_rack_latency: Nanoseconds::from_micros(50),
            },
            ..Default::default()
        };
        let ns = measure(samples, || {
            run_datacenter(32, params, Box::new(ThresholdRebalance), &scenario).unwrap()
        });
        record("orch_day_dedup_32rack", ns);
    }

    results
}

/// Host metadata embedded in the JSON so a trend reader can tell numbers
/// from different machines or toolchains apart. Every value is a JSON
/// *string*: the line-oriented [`parse_json`] only keeps `"key": f64`
/// lines, so metadata can never be mistaken for a bench result.
fn host_metadata() -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let toolchain = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let os = std::env::consts::OS.to_string();
    let arch = std::env::consts::ARCH.to_string();
    vec![
        ("cpus", cpus),
        ("toolchain", toolchain),
        ("os", os),
        ("arch", arch),
    ]
}

fn to_json(results: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"host\": {\n");
    let host = host_metadata();
    let host_last = host.len().saturating_sub(1);
    for (i, (key, value)) in host.iter().enumerate() {
        // Metadata strings come from the environment; keep the output JSON
        // well-formed whatever they contain.
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c if (c as u32) < 0x20 => vec![' '],
                c => vec![c],
            })
            .collect();
        out.push_str(&format!(
            "    \"{key}\": \"{escaped}\"{}\n",
            if i == host_last { "" } else { "," }
        ));
    }
    out.push_str("  },\n  \"benches\": {\n");
    let last = results.len().saturating_sub(1);
    for (i, (name, ns)) in results.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {ns:.1}{}\n",
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Parse the `"name": value` lines of a `bench_json` file (full JSON is not
/// needed: the writer emits one pair per line).
fn parse_json(text: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if key == "schema" || key == "benches" {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            map.insert(key.to_string(), v);
        }
    }
    map
}

fn compare(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> bool {
    println!(
        "\n{:<40} {:>14} {:>14} {:>9}",
        "bench", "baseline ns", "current ns", "delta"
    );
    let mut regressed = false;
    for (name, &now) in current {
        match baseline.get(name) {
            Some(&base) if base > 0.0 => {
                let delta_pct = (now / base - 1.0) * 100.0;
                let verdict = if delta_pct > threshold_pct {
                    regressed = true;
                    "REGRESSED"
                } else {
                    ""
                };
                println!("{name:<40} {base:>14.1} {now:>14.1} {delta_pct:>+8.1}% {verdict}");
            }
            _ => println!("{name:<40} {:>14} {now:>14.1}   (new bench)", "-"),
        }
    }
    let mut missing = false;
    for name in baseline.keys() {
        if !current.contains_key(name) {
            missing = true;
            println!("{name:<40} (present in baseline only) MISSING");
        }
    }
    if regressed {
        println!(
            "\nFAIL: at least one bench regressed by more than {threshold_pct}% \
             against the baseline"
        );
    }
    if missing {
        println!(
            "\nFAIL: a baseline bench is no longer measured — remove it from \
             the baseline deliberately, not by omission"
        );
    }
    if !regressed && !missing {
        println!("\nOK: no bench regressed by more than {threshold_pct}%");
    }
    regressed || missing
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_json: {e}");
            return ExitCode::from(2);
        }
    };

    let results = run_benches(args.samples);
    let json = to_json(&results);

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("bench_json: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("\nwrote {path}");
    }

    if let Some(path) = &args.compare {
        let baseline_text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_json: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = parse_json(&baseline_text);
        if baseline.is_empty() {
            eprintln!("bench_json: baseline {path} contains no bench entries");
            return ExitCode::from(2);
        }
        if compare(&results, &baseline, args.threshold_pct) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
