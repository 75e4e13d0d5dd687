//! The one way to run a migration: [`execute`].
//!
//! All three engines move the contents of a *source* [`GuestMemory`] into a
//! *destination* [`GuestMemory`] as a [`wire`] byte stream across a
//! [`Transport`], accounting simulated time as they go and letting a
//! [`DirtySource`] keep writing into the source while pre-copy rounds are in
//! flight (that is what makes the convergence behaviour real rather than
//! assumed). Which engine runs, and over how many stripe lanes, is the
//! [`MigrationPlan`]'s to say, not the function name's.

use std::num::NonZeroUsize;

use rvisor_memory::GuestMemory;
use rvisor_obs::{ArgValue, Trace};
use rvisor_types::{Error, Nanoseconds, Result};
use rvisor_vcpu::VcpuState;

use crate::compress::{CompressionStats, PageCompression};
use crate::dirty::{DirtySource, IdleDirtier};
use crate::pipeline::with_lanes;
use crate::plan::{FaultService, MigrationPlan, PlanEngine};
use crate::report::{MigrationReport, RoundStat};
use crate::transport::Transport;
use crate::wire;

/// Bytes of metadata transferred per page: exactly one wire-format frame
/// header ([`wire::FRAME_HEADER_BYTES`]).
pub(crate) const PER_PAGE_OVERHEAD: u64 = wire::FRAME_HEADER_BYTES;

/// Run the migration `plan` describes: stream `source` into `dest` over
/// `transport` while `dirtier` keeps the guest running between pre-copy
/// rounds (the other engines never call it), emitting per-round and
/// per-migration spans into `trace` ([`Trace::off`] costs nothing).
///
/// The plan is validated first, so an invalid one is a typed error before
/// any byte is sent. Then the dispatch rules, all of which live here:
///
/// * `plan.engine` names the engine body; stop-and-copy and post-copy
///   ignore `dirtier`, `max_rounds` and `dirty_page_threshold`.
/// * Only pre-copy compresses. The other engines send every page exactly
///   once, so there is no earlier version to delta against; they put the
///   same bytes on the wire under every [`PageCompression`].
/// * `plan.streams` stands up one lane per stripe ([`crate::pipeline`]) and
///   charges each round to the transport as that many striped streams. It
///   does not pick a host thread count: lanes get threads only beside
///   another lane and from one 64-page segment per stripe up. Same wire
///   bytes, same destination memory, same report for every stream count.
/// * A [`FaultService::FaultLane`] post-copy runs one stream whatever
///   `streams` says: the lane *is* its second stream.
///
/// On `Err` the destination's contents are unspecified and the source's
/// pages are untouched ([why](crate::stream#failure)); every lane thread has
/// been joined by the time this returns, whatever it returns.
pub fn execute(
    plan: &MigrationPlan,
    source: &GuestMemory,
    dest: &GuestMemory,
    vcpus: &[VcpuState],
    transport: &mut dyn Transport,
    dirtier: &mut dyn DirtySource,
    trace: &Trace,
) -> Result<MigrationReport> {
    plan.validate()?;
    let fault_lane =
        plan.engine == PlanEngine::PostCopy && plan.fault_service == FaultService::FaultLane;
    let wire_plan = MigrationPlan {
        compression: match plan.engine {
            PlanEngine::PreCopy => plan.compression,
            PlanEngine::StopAndCopy | PlanEngine::PostCopy => PageCompression::None,
        },
        streams: if fault_lane {
            NonZeroUsize::MIN
        } else {
            plan.streams
        },
        ..*plan
    };
    with_lanes(
        source,
        dest,
        transport,
        &wire_plan,
        |stream, after_hello| match plan.engine {
            PlanEngine::StopAndCopy => StopAndCopy::run(stream, after_hello, vcpus, trace),
            PlanEngine::PreCopy => PreCopy::run(stream, after_hello, vcpus, dirtier, plan, trace),
            PlanEngine::PostCopy => PostCopy::run(stream, after_hello, vcpus, plan, trace),
        },
    )
}

/// Emit the per-migration summary span, histogram samples and counters all
/// three engines share. A no-op (no allocation, no formatting) when
/// `trace` is off.
pub(crate) fn emit_migration_span(
    trace: &Trace,
    report: &MigrationReport,
    start: Nanoseconds,
    end: Nanoseconds,
    stats: Option<CompressionStats>,
) {
    if !trace.is_on() {
        return;
    }
    let stats = stats.unwrap_or_default();
    trace.span(
        "migrate",
        report.kind.name(),
        start,
        end,
        &[
            ("pages", ArgValue::U64(report.pages_transferred)),
            ("bytes", ArgValue::U64(report.bytes_transferred)),
            ("rounds", ArgValue::U64(u64::from(report.rounds))),
            ("downtime_ns", ArgValue::U64(report.downtime.as_nanos())),
            ("converged", ArgValue::U64(u64::from(report.converged))),
            ("zero_pages", ArgValue::U64(stats.pages_zero)),
            ("delta_pages", ArgValue::U64(stats.pages_delta)),
            ("raw_pages", ArgValue::U64(stats.pages_raw)),
        ],
    );
    trace.observe("migration.downtime_ns", report.downtime.as_nanos());
    trace.observe("migration.duration_ns", report.total_time.as_nanos());
    trace.add("migrations", 1);
}

/// Emit one pre-copy round's sub-span and histogram samples.
pub(crate) fn emit_round_span(
    trace: &Trace,
    name: &'static str,
    round: u32,
    stat: RoundStat,
    start: Nanoseconds,
    end: Nanoseconds,
) {
    if !trace.is_on() {
        return;
    }
    trace.span(
        "migrate/round",
        name,
        start,
        end,
        &[
            ("round", ArgValue::U64(u64::from(round))),
            ("pages", ArgValue::U64(stat.pages)),
            ("bytes", ArgValue::U64(stat.bytes)),
        ],
    );
    trace.observe("migrate.round.pages", stat.pages);
    trace.observe("migrate.round.bytes", stat.bytes);
}

pub(crate) fn check_same_size(source: &GuestMemory, dest: &GuestMemory) -> Result<()> {
    if source.total_size() != dest.total_size() {
        return Err(Error::Migration(format!(
            "source has {} of RAM but destination has {}",
            source.total_size(),
            dest.total_size()
        )));
    }
    // The in-place receive path takes a destination write lock while the
    // wire page may alias the source's bytes; aliased source/destination
    // handles would make the transfer read its own partially-overwritten
    // output (and migrating a VM onto its own memory is meaningless), so
    // reject sharing up front.
    for (s, d) in source.regions().iter().zip(dest.regions().iter()) {
        if std::sync::Arc::ptr_eq(s, d) {
            return Err(Error::Migration(
                "source and destination share backing memory".into(),
            ));
        }
    }
    Ok(())
}

/// Pause, copy all memory and state, resume on the destination.
#[derive(Debug, Default)]
pub struct StopAndCopy;

/// Iterative pre-copy.
#[derive(Debug, Default)]
pub struct PreCopy;

/// Post-copy with demand paging.
#[derive(Debug, Default)]
pub struct PostCopy;

// The five functions below are frozen by the benchmark harness: `perfbench/`
// names them, and only a `benchmark` PR may edit it. Each is one `execute`
// call; nothing else in the workspace calls them.

impl StopAndCopy {
    /// Harness-frozen: [`execute`] with a one-stream [`PlanEngine::StopAndCopy`]
    /// plan and tracing off.
    pub fn migrate_over(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        transport: &mut dyn Transport,
    ) -> Result<MigrationReport> {
        let plan = MigrationPlan {
            engine: PlanEngine::StopAndCopy,
            ..Default::default()
        };
        execute(
            &plan,
            source,
            dest,
            vcpus,
            transport,
            &mut IdleDirtier,
            &Trace::off(),
        )
    }
}

impl PreCopy {
    /// Harness-frozen: [`execute`] with `plan` made a one-stream
    /// [`PlanEngine::PreCopy`] plan and tracing off.
    pub fn migrate_over(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        transport: &mut dyn Transport,
        dirty_source: &mut dyn DirtySource,
        plan: &MigrationPlan,
    ) -> Result<MigrationReport> {
        let plan = MigrationPlan {
            engine: PlanEngine::PreCopy,
            streams: NonZeroUsize::MIN,
            ..*plan
        };
        execute(
            &plan,
            source,
            dest,
            vcpus,
            transport,
            dirty_source,
            &Trace::off(),
        )
    }

    /// Harness-frozen: [`execute`] with `plan` made a
    /// [`PlanEngine::PreCopy`] plan (its `streams` kept) and tracing off.
    pub fn migrate_pipelined(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        transport: &mut dyn Transport,
        dirty_source: &mut dyn DirtySource,
        plan: &MigrationPlan,
    ) -> Result<MigrationReport> {
        let plan = MigrationPlan {
            engine: PlanEngine::PreCopy,
            ..*plan
        };
        execute(
            &plan,
            source,
            dest,
            vcpus,
            transport,
            dirty_source,
            &Trace::off(),
        )
    }
}

impl PostCopy {
    /// Harness-frozen: [`execute`] with `plan` made a one-stream, sweep-ordered
    /// [`PlanEngine::PostCopy`] plan and tracing off.
    pub fn migrate_over(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        transport: &mut dyn Transport,
        plan: &MigrationPlan,
    ) -> Result<MigrationReport> {
        Self::frozen(source, dest, vcpus, transport, plan, FaultService::Sweep)
    }

    /// Harness-frozen: [`execute`] with `plan` made a
    /// [`FaultService::FaultLane`] [`PlanEngine::PostCopy`] plan and
    /// tracing off.
    pub fn migrate_fault_lane_over(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        transport: &mut dyn Transport,
        plan: &MigrationPlan,
    ) -> Result<MigrationReport> {
        Self::frozen(
            source,
            dest,
            vcpus,
            transport,
            plan,
            FaultService::FaultLane,
        )
    }

    fn frozen(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        transport: &mut dyn Transport,
        plan: &MigrationPlan,
        fault_service: FaultService,
    ) -> Result<MigrationReport> {
        let plan = MigrationPlan {
            engine: PlanEngine::PostCopy,
            fault_service,
            streams: NonZeroUsize::MIN,
            ..*plan
        };
        execute(
            &plan,
            source,
            dest,
            vcpus,
            transport,
            &mut IdleDirtier,
            &Trace::off(),
        )
    }
}

/// Mean demand-fault *service* latency under the sweep-ordered reference
/// discipline, for `faults` demand faults each costing `per_fault` transfer
/// time over a path with one-way propagation delay `latency`.
///
/// A sweep-ordered post-copy ([`FaultService::Sweep`]) charges its demand
/// faults as one serialized propagation delay each, appended after the
/// background sweep (`fault_penalty = latency × faults`); its report's
/// `avg_fault_latency` records only the *per-fault transfer cost*
/// (`per_fault + latency`) and deliberately excludes that queueing. Under
/// the serialized discipline the k-th fault waits behind k propagation
/// delays, so the mean service latency over `faults ≥ 1` faults is
///
/// ```text
/// per_fault + latency × (faults + 1) / 2
/// ```
///
/// which is what this helper returns (`ZERO` for zero faults). A
/// [`FaultService::FaultLane`] run services every fault from a dedicated
/// stream with no queueing, so its reported `avg_fault_latency`
/// (`per_fault + latency`) *is* its mean service latency — strictly below
/// the sweep's whenever two or more pages fault.
pub fn sweep_mean_fault_latency(
    per_fault: Nanoseconds,
    latency: Nanoseconds,
    faults: u64,
) -> Nanoseconds {
    if faults == 0 {
        return Nanoseconds::ZERO;
    }
    let queueing = latency
        .as_nanos()
        .saturating_mul(faults + 1)
        .saturating_div(2);
    per_fault.saturating_add(Nanoseconds(queueing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::ConstantRateDirtier;
    use crate::pipeline::lane_threads_during;
    use crate::plan::MAX_MIGRATION_STREAMS;
    use crate::report::MigrationKind;
    use crate::transport::refusing::RefusingTransport;
    use crate::transport::LoopbackTransport;
    use rvisor_net::{Link, LinkModel};
    use rvisor_types::{ByteSize, GuestAddress, PAGE_SIZE};

    /// A source with a recognisable pattern in every `stride`-th page (the
    /// rest stay zero) and an empty destination.
    fn sparse_memories(pages: u64, stride: usize) -> (GuestMemory, GuestMemory) {
        let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        for p in (0..pages).step_by(stride) {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 7 + 1)
                .unwrap();
        }
        (src, dst)
    }

    fn memories(pages: u64) -> (GuestMemory, GuestMemory) {
        sparse_memories(pages, 1)
    }

    fn link() -> Link {
        Link::new(LinkModel::gigabit())
    }

    fn plan(engine: PlanEngine) -> MigrationPlan {
        MigrationPlan {
            engine,
            ..Default::default()
        }
    }

    /// `execute` over a loopback on `link`, one vCPU, tracing off.
    fn run(
        plan: &MigrationPlan,
        src: &GuestMemory,
        dst: &GuestMemory,
        link: &mut Link,
        dirtier: &mut dyn DirtySource,
    ) -> Result<MigrationReport> {
        let mut transport = LoopbackTransport::new(link);
        let vcpus = [VcpuState::default()];
        execute(
            plan,
            src,
            dst,
            &vcpus,
            &mut transport,
            dirtier,
            &Trace::off(),
        )
    }

    fn gigabit_dirtier(fraction: f64, pages: u64) -> ConstantRateDirtier {
        ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            fraction,
            0,
            pages,
        )
    }

    #[test]
    fn stop_and_copy_moves_everything_with_downtime_equal_total() {
        let (src, dst) = memories(256);
        let stop = plan(PlanEngine::StopAndCopy);
        let report = run(&stop, &src, &dst, &mut link(), &mut IdleDirtier).unwrap();
        assert_eq!(report.kind, MigrationKind::StopAndCopy);
        assert_eq!(report.downtime, report.total_time);
        assert_eq!(report.pages_transferred, 256);
        assert_eq!(src.checksum(), dst.checksum());
        assert!(report.transfer_amplification() >= 1.0);
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let src = GuestMemory::flat(ByteSize::pages_of(8)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(16)).unwrap();
        for engine in [
            PlanEngine::StopAndCopy,
            PlanEngine::PreCopy,
            PlanEngine::PostCopy,
        ] {
            let got = run(&plan(engine), &src, &dst, &mut link(), &mut IdleDirtier);
            assert!(
                matches!(got, Err(Error::Migration(_))),
                "{engine:?}: {got:?}"
            );
        }
    }

    #[test]
    fn precopy_with_idle_guest_has_tiny_downtime() {
        let (src, dst) = memories(1024);
        let pre = MigrationPlan::default();
        let report = run(&pre, &src, &dst, &mut link(), &mut IdleDirtier).unwrap();
        assert!(report.converged);
        assert_eq!(report.rounds, 1);
        assert_eq!(src.checksum(), dst.checksum());
        // Downtime is just the residual (empty) set + vCPU state: far below total.
        assert!(report.downtime.as_nanos() < report.total_time.as_nanos() / 10);
    }

    #[test]
    fn precopy_downtime_grows_with_dirty_rate() {
        let mut downtimes = Vec::new();
        for fraction in [0.1, 0.5, 0.9] {
            let (src, dst) = memories(2048);
            let mut dirtier = gigabit_dirtier(fraction, 2048);
            let pre = MigrationPlan::default();
            let report = run(&pre, &src, &dst, &mut link(), &mut dirtier).unwrap();
            assert_eq!(
                src.checksum(),
                dst.checksum(),
                "memory must match at fraction {fraction}"
            );
            downtimes.push(report.downtime);
        }
        assert!(downtimes[0] < downtimes[1]);
        assert!(downtimes[1] < downtimes[2]);
    }

    #[test]
    fn precopy_gives_up_when_dirty_rate_exceeds_bandwidth() {
        let (src, dst) = memories(512);
        let mut l = Link::new(LinkModel {
            bytes_per_second: 10_000_000,
            latency: Nanoseconds::from_micros(100),
        });
        // Dirty at 3x the link bandwidth over a large working set: cannot converge.
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(10_000_000, 3.0, 0, 512);
        let pre = MigrationPlan {
            max_rounds: 5,
            dirty_page_threshold: 4,
            ..Default::default()
        };
        let report = run(&pre, &src, &dst, &mut l, &mut dirtier).unwrap();
        assert!(!report.converged);
        assert_eq!(report.rounds, 5);
        // It still finishes (forced stop-and-copy) and memory still matches.
        assert_eq!(src.checksum(), dst.checksum());
        assert!(report.transfer_amplification() > 1.5);
    }

    #[test]
    fn postcopy_downtime_is_independent_of_ram_size() {
        let mut downtimes = Vec::new();
        for pages in [256u64, 2048, 8192] {
            let (src, dst) = memories(pages);
            let post = plan(PlanEngine::PostCopy);
            let report = run(&post, &src, &dst, &mut link(), &mut IdleDirtier).unwrap();
            assert_eq!(src.checksum(), dst.checksum());
            assert!(report.remote_faults > 0);
            assert!(report.avg_fault_latency > Nanoseconds::ZERO);
            downtimes.push(report.downtime);
        }
        assert_eq!(downtimes[0], downtimes[1]);
        assert_eq!(downtimes[1], downtimes[2]);
    }

    #[test]
    fn postcopy_downtime_below_stop_and_copy() {
        let downtime = |engine| {
            let (src, dst) = memories(4096);
            let report = run(&plan(engine), &src, &dst, &mut link(), &mut IdleDirtier);
            report.unwrap().downtime
        };
        let (pc, sc) = (
            downtime(PlanEngine::PostCopy),
            downtime(PlanEngine::StopAndCopy),
        );
        assert!(pc.as_nanos() * 100 < sc.as_nanos());
    }

    #[test]
    fn precopy_zero_page_compression_shrinks_a_sparse_guest() {
        // Only 1 in 16 pages has content; the rest are zero.
        let run_with = |compression| {
            let (src, dst) = sparse_memories(2048, 16);
            let pre = MigrationPlan {
                compression,
                ..Default::default()
            };
            let report = run(&pre, &src, &dst, &mut link(), &mut IdleDirtier).unwrap();
            assert_eq!(
                src.checksum(),
                dst.checksum(),
                "{compression:?} must not corrupt memory"
            );
            report
        };
        let raw = run_with(PageCompression::None);
        let compressed = run_with(PageCompression::ZeroPages);
        // 15/16 of the pages collapse into run-length zero frames.
        assert!(compressed.bytes_transferred * 8 < raw.bytes_transferred);
        assert!(compressed.total_time < raw.total_time);
    }

    #[test]
    fn precopy_xbzrle_reduces_retransmission_under_dirtying() {
        let run_with = |compression: PageCompression| {
            let (src, dst) = memories(2048);
            let mut dirtier = gigabit_dirtier(0.5, 2048);
            let pre = MigrationPlan {
                compression,
                ..Default::default()
            };
            let report = run(&pre, &src, &dst, &mut link(), &mut dirtier).unwrap();
            assert_eq!(
                src.checksum(),
                dst.checksum(),
                "memory mismatch with {compression:?}"
            );
            report
        };

        let raw = run_with(PageCompression::None);
        let xbzrle = run_with(PageCompression::Xbzrle);
        // The dirtier rewrites one u64 per page, so every retransmitted page
        // collapses to a tiny delta: far fewer bytes and faster completion.
        assert!(xbzrle.bytes_transferred < raw.bytes_transferred / 2);
        assert!(xbzrle.total_time < raw.total_time);
        assert!(xbzrle.downtime <= raw.downtime);
    }

    #[test]
    fn sweep_mean_fault_latency_accounts_for_the_serialized_queue() {
        let per_fault = Nanoseconds(1_000);
        let latency = Nanoseconds(100);
        assert_eq!(
            sweep_mean_fault_latency(per_fault, latency, 0),
            Nanoseconds::ZERO
        );
        // One fault pays exactly one propagation delay — the same number
        // the reports' `avg_fault_latency` field records.
        assert_eq!(
            sweep_mean_fault_latency(per_fault, latency, 1),
            Nanoseconds(1_100)
        );
        // The k-th fault queues k delays: mean = latency * (n + 1) / 2.
        assert_eq!(
            sweep_mean_fault_latency(per_fault, latency, 3),
            Nanoseconds(1_200)
        );
        assert!(
            sweep_mean_fault_latency(per_fault, latency, 51)
                > sweep_mean_fault_latency(per_fault, latency, 5)
        );
    }

    #[test]
    fn shared_backing_memory_is_rejected() {
        let src = GuestMemory::flat(ByteSize::pages_of(8)).unwrap();
        let aliased = src.clone();
        let stop = plan(PlanEngine::StopAndCopy);
        let err = run(&stop, &src, &aliased, &mut link(), &mut IdleDirtier);
        assert!(matches!(err, Err(Error::Migration(_))), "got {err:?}");
    }

    #[test]
    fn precopy_transfers_more_bytes_than_stop_and_copy_under_dirtying() {
        let (src, dst) = memories(1024);
        let mut dirtier = gigabit_dirtier(0.6, 1024);
        let pre = MigrationPlan::default();
        let pre = run(&pre, &src, &dst, &mut link(), &mut dirtier).unwrap();
        let (src2, dst2) = memories(1024);
        let stop = plan(PlanEngine::StopAndCopy);
        let sc = run(&stop, &src2, &dst2, &mut link(), &mut IdleDirtier).unwrap();
        assert!(pre.bytes_transferred > sc.bytes_transferred);
        assert!(pre.downtime < sc.downtime);
        assert!(pre.effective_bandwidth_bytes_per_sec() > 0.0);
    }

    /// The dispatch rules of [`execute`], one row per plan shape: what a
    /// plan is scheduled as, and which simpler plan it must be
    /// indistinguishable from.
    #[test]
    fn execute_dispatches_by_plan() {
        const PAGES: u64 = 256;
        // What one run leaves behind: report, bytes charged to the channel,
        // destination image, and how many lane threads it spawned.
        let observe = |plan: &MigrationPlan| {
            // Zero gaps, so a compressing engine would send fewer bytes.
            let (src, dst) = sparse_memories(PAGES, 3);
            let mut link = link();
            let mut transport = RefusingTransport::new(&mut link, 0);
            let (report, threads) = lane_threads_during(|| {
                execute(
                    plan,
                    &src,
                    &dst,
                    &[VcpuState::default()],
                    &mut transport,
                    &mut gigabit_dirtier(0.4, PAGES),
                    &Trace::off(),
                )
                .unwrap()
            });
            assert_eq!(dst.checksum(), src.checksum(), "{plan:?}");
            let bytes = transport.bytes_sent();
            (report, bytes, dst.checksum(), threads)
        };
        let engines = [
            (PlanEngine::StopAndCopy, FaultService::Sweep),
            (PlanEngine::PreCopy, FaultService::Sweep),
            (PlanEngine::PostCopy, FaultService::Sweep),
            (PlanEngine::PostCopy, FaultService::FaultLane),
        ];
        for (engine, fault_service) in engines {
            for compression in PageCompression::ALL {
                // Only pre-copy compresses: the others are the raw plan.
                let inline = MigrationPlan {
                    engine,
                    fault_service,
                    compression: match engine {
                        PlanEngine::PreCopy => compression,
                        _ => PageCompression::None,
                    },
                    ..Default::default()
                };
                let (expected, expected_bytes, expected_mem, threads) = observe(&inline);
                assert_eq!(threads, 0, "a lone lane runs inline: {inline:?}");
                assert_eq!(expected.bytes_transferred, expected_bytes);

                for streams in [1usize, 4] {
                    let row = MigrationPlan {
                        streams: NonZeroUsize::new(streams).unwrap(),
                        compression,
                        ..inline
                    };
                    let (report, bytes, mem, threads) = observe(&row);
                    assert_eq!(report, expected, "{row:?}");
                    assert_eq!((bytes, mem), (expected_bytes, expected_mem), "{row:?}");
                    // 64-page stripes get threads beside another lane; the
                    // fault lane is one stream whatever `streams` says.
                    let laned = streams > 1 && fault_service == FaultService::Sweep;
                    assert_eq!(threads, if laned { 4 } else { 0 }, "{row:?}");
                }
            }
        }

        // An invalid plan is a typed error before any byte is sent.
        let many = NonZeroUsize::new(MAX_MIGRATION_STREAMS + 1).unwrap();
        let ok = MigrationPlan::default();
        let invalid = [
            MigrationPlan {
                max_rounds: 0,
                ..ok
            },
            MigrationPlan {
                streams: many,
                ..ok
            },
            MigrationPlan {
                compression: PageCompression::Xbzrle,
                xbzrle_cache_pages: 0,
                ..ok
            },
            MigrationPlan {
                postcopy_fault_fraction: 1.5,
                ..ok
            },
            MigrationPlan {
                postcopy_fault_fraction: -0.1,
                ..ok
            },
            MigrationPlan {
                postcopy_fault_fraction: f64::NAN,
                ..ok
            },
        ];
        for bad in invalid {
            for engine in [
                PlanEngine::StopAndCopy,
                PlanEngine::PreCopy,
                PlanEngine::PostCopy,
            ] {
                let bad = MigrationPlan { engine, ..bad };
                let (src, dst) = memories(8);
                let mut link = link();
                let mut transport = RefusingTransport::new(&mut link, 0);
                let got = execute(
                    &bad,
                    &src,
                    &dst,
                    &[],
                    &mut transport,
                    &mut IdleDirtier,
                    &Trace::off(),
                );
                assert!(matches!(got, Err(Error::Migration(_))), "{bad:?}: {got:?}");
                assert_eq!((transport.bytes_sent(), transport.calls), (0, 0), "{bad:?}");
            }
        }
    }
}
