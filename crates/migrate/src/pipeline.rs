//! The migration scheduler: one `Stream` per migration, one lane per
//! stripe of the page-index space.
//!
//! [`execute`](crate::execute) runs every migration through `with_lanes`,
//! and a one-stream migration is one stripe. Each lane runs the segment loop
//! of [`stream`](crate::stream) over its stripe — encode at most 64 pages,
//! apply them on the sink while they are still in cache, repeat — under the
//! same engine bodies, and the stream is **byte-identical and
//! [`MigrationReport`](crate::MigrationReport)-`==` whatever the stream
//! count** (pinned by proptest below):
//!
//! * **Lanes** — [`MigrationPlan::streams`] shards the page-index space
//!   into *fixed* contiguous stripes (`stripe = page / ceil(total_pages /
//!   streams)`). One lane per stripe lives for the migration and owns the
//!   stripe's encoder (so a page always travels on the same stream and a
//!   stripe's XBZRLE cache stays coherent across rounds) and a sink on the
//!   destination. Stripes are disjoint, so lanes never touch the same
//!   destination page, and no round is ever materialised as a stripe-sized
//!   body.
//! * **Where a lane runs** — a lane is a function (`stream_stripe`) over
//!   that state and a segment buffer. Beside another lane and from one
//!   segment per stripe up (`ceil(total_pages / streams) ≥ 64`) each lane
//!   gets a scoped thread of its own, and a page's bytes never cross a
//!   thread. Otherwise the lanes run one after the other on the
//!   coordinator, sharing one buffer (see the model assumptions below).
//! * **The coordinator** — the calling thread runs the engine body and keeps
//!   what is inherently serial. Per round it cuts the ascending page list
//!   into per-stripe lists, gathers the lanes' byte counts in stripe order
//!   (which is what keeps same-seed runs `==`-replay-equal), and sends the
//!   control frames itself: Hello, end-of-round markers and vCPU state, all
//!   of which ride stripe 0.
//! * **Boundary stitching** — a zero run crossing a stripe boundary must
//!   stay one frame. Each lane withholds, unencoded, the run open at its
//!   stripe's first page and the one still open at its end; the coordinator
//!   coalesces neighbours and encodes and applies the stitched run itself,
//!   attributed to the stripe it starts in, so the stream carries *exactly*
//!   the frames one lane would (same
//!   [`ZeroRun`](crate::wire::FrameKind::ZeroRun) coalescing, same bytes,
//!   same report).
//!
//! # Parallelism model assumptions
//!
//! A round is one unit of **simulated** time, charged with a single
//! [`Transport::transmit_striped`] of the per-stripe byte counts; nothing
//! makes it a unit of host memory or of host scheduling. The simulated
//! network does **not** speed up under multi-stream: `transmit_striped`
//! models N chunk streams *fairly sharing* the path — on a loopback that is
//! exactly the aggregate burst (keeping the `==` pin to one stream), and on
//! the single-spine [`ClosFabric`](rvisor_net::ClosFabric) preset each
//! stream additionally pays its own MTU chunk framing, so simulated time is
//! never *better* than with one stream (only a multi-rack fabric's spines
//! can make a cross-rack burst faster). What lane threads can buy is **host
//! wall-clock**, on a host whose cores run threads in parallel (experiment
//! E18): they share nothing but the guest regions' locks. The named
//! assumption is *"a lane thread buys wall-clock"*, and it is false for a
//! lone lane, which has nothing to overlap with, and for a stripe shorter
//! than one segment, whose thread and channels cost more to stand up than
//! its pages cost to move (EXPERIMENTS.md "E18, small guests run their
//! lanes inline"). So `with_lanes` spawns only beside another lane and from
//! one segment per stripe up — a rule over the guest's pages and the plan's
//! streams; the byte stream, the destination memory and the report are
//! identical on either side of it.
//! One deliberate divergence: each stripe's XBZRLE cache has the full
//! configured capacity, so the aggregate cache across N streams is N× the
//! one-stream cache. With cache pressure a laned migration may therefore
//! send *fewer* bytes (never more, never wrong bytes); without eviction —
//! the common case, and every configuration the equivalence proptests run —
//! the two are bit-identical.
//!
//! # Failure
//!
//! As [`stream`](crate::stream#failure) says: on `Err` the destination's
//! contents are unspecified and the source's pages are untouched. Every lane
//! thread has been joined by the time [`execute`](crate::execute) returns,
//! whatever it returns. When lanes fail mid-round the coordinator first
//! collects every lane's result — inline lanes too run every stripe of the
//! round — then returns the error of the lowest failing stripe. The `offset`
//! of an [`Error::WireProtocol`] raised by a page frame counts bytes from
//! the start of the failing stripe's stream of that round.

use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

use rvisor_memory::GuestMemory;
use rvisor_obs::{ArgValue, Trace};
use rvisor_types::{Error, Nanoseconds, Result};
use rvisor_vcpu::VcpuState;

use crate::compress::CompressionStats;
use crate::engines::{check_same_size, emit_round_span};
use crate::plan::MigrationPlan;
use crate::report::RoundStat;
use crate::stream::SEGMENT_PAGES;
use crate::stream::{segment_capacity, MigrationSink, MigrationSource, ZeroRun};
use crate::transport::Transport;

/// What a lane thread hands back per round.
struct LaneRound {
    /// The round's page list, handed back for the next round to reuse.
    pages: Vec<u64>,
    outcome: Result<StripeOutcome>,
}

/// One stripe's share of a round, as its lane streamed it.
struct StripeOutcome {
    /// Zero run at the very start of the stripe's page list (may continue
    /// the previous stripe's trailing run).
    leading: Option<ZeroRun>,
    /// Bytes of the frames for everything between the boundary runs, all
    /// applied on the destination already.
    bytes: u64,
    /// Zero run still open at the stripe's end (may continue into the next
    /// stripe's leading run).
    trailing: Option<ZeroRun>,
    /// What the stripe's compressor did so far (None when sending raw).
    stats: Option<CompressionStats>,
}

/// Stream one stripe's page list: the segment loop, boundary zero runs
/// withheld. What a lane does with a round, on whichever thread it runs.
fn stream_stripe(
    src: &mut MigrationSource<'_>,
    sink: &mut MigrationSink<'_>,
    segment: &mut Vec<u8>,
    pages: &[u64],
) -> Result<StripeOutcome> {
    // The run at the stripe's first page frames nothing: it is left open in
    // the encoder and taken from there. If it covers the whole list it can
    // merge with *both* neighbours.
    let (run, rest) = pages.split_at(src.leading_zero_pages(pages)?);
    src.encode_segments(run, segment, |_, _| Ok(()))?;
    let leading = src.take_pending_zero();
    let bytes = src.encode_segments(rest, segment, |frames, at| sink.apply_at(frames, at))?;
    Ok(StripeOutcome {
        leading,
        bytes,
        trailing: src.take_pending_zero(),
        stats: src.compression_stats(),
    })
}

/// A lane's thread: [`stream_stripe`] every page list that arrives, until
/// the coordinator hangs up.
fn run_lane(
    mut src: MigrationSource<'_>,
    mut sink: MigrationSink<'_>,
    capacity: usize,
    tasks: Receiver<Vec<u64>>,
    results: SyncSender<LaneRound>,
) {
    let mut segment = Vec::with_capacity(capacity);
    while let Ok(pages) = tasks.recv() {
        let outcome = stream_stripe(&mut src, &mut sink, &mut segment, &pages);
        if results.send(LaneRound { pages, outcome }).is_err() {
            break;
        }
    }
}

fn lane_gone() -> Error {
    Error::Migration("pipelined migration lane terminated early".into())
}

/// Where a lane runs.
// A migration has at most `MAX_MIGRATION_STREAMS` of these, all of one
// variant, for its whole length: boxing the larger one would buy nothing
// and cost an allocation per inline lane.
#[allow(clippy::large_enum_variant)]
enum Worker<'m> {
    /// On the coordinator: [`Stream::round`] streams the stripe itself,
    /// through the segment buffer the inline lanes share.
    Inline {
        src: MigrationSource<'m>,
        sink: MigrationSink<'m>,
    },
    /// On a thread of its own ([`run_lane`]), fed one page list per round.
    Thread {
        tasks: SyncSender<Vec<u64>>,
        results: Receiver<LaneRound>,
        /// The stripe's page list between rounds.
        pages: Vec<u64>,
    },
}

/// The coordinator's handle on one lane.
struct Lane<'m> {
    worker: Worker<'m>,
    /// The stripe's share of the round in progress, as a range of the
    /// round's page list; for a threaded lane, non-empty exactly while the
    /// thread holds that share.
    share: Range<usize>,
    stats: Option<CompressionStats>,
}

/// One migration in flight: the control half, the channel, and one lane per
/// stripe.
pub(crate) struct Stream<'m, 't> {
    /// Encodes the control frames — Hello, zero runs stitched across stripe
    /// boundaries, end-of-round markers, vCPU state — which `sink` applies,
    /// through the small buffer `frames`.
    pub(crate) control: MigrationSource<'m>,
    sink: MigrationSink<'m>,
    frames: Vec<u8>,
    pub(crate) transport: &'t mut dyn Transport,
    pub(crate) start: Nanoseconds,
    bytes_before: u64,
    lanes: Vec<Lane<'m>>,
    stripe_len: u64,
    /// Per-stripe payload bytes of the round streamed last (what
    /// [`Transport::transmit_striped`] is fed); control frames ride
    /// stripe 0, stitched runs are attributed to the stripe they start in.
    stripe_bytes: Vec<u64>,
    /// The inline lanes' segment buffer: they run one after the other, so
    /// one serves them all. Empty when the lanes have threads.
    segment: Vec<u8>,
}

/// Encode a stitched zero run, charged to the stripe it started in.
fn close_run(open: Option<(usize, ZeroRun)>, frames: &mut Vec<u8>, stripe_bytes: &mut [u64]) {
    if let Some((origin, run)) = open {
        let at = frames.len();
        MigrationSource::put_zero_run(frames, Some(run));
        stripe_bytes[origin] += (frames.len() - at) as u64;
    }
}

impl Stream<'_, '_> {
    /// Apply the control frames in the buffer and charge them to the
    /// channel as a transfer of their own.
    fn send_control(&mut self, now: Nanoseconds) -> Result<Nanoseconds> {
        self.sink.apply_burst(&self.frames)?;
        self.transport.transmit_bytes(now, self.frames.len() as u64)
    }

    /// Send the vCPU state frames as one control burst.
    pub(crate) fn vcpu_states(
        &mut self,
        states: &[VcpuState],
        now: Nanoseconds,
    ) -> Result<Nanoseconds> {
        self.frames.clear();
        MigrationSource::put_vcpu_states(states, &mut self.frames);
        self.send_control(now)
    }

    /// The round driver: stream `pages` (ascending global indices) down the
    /// lanes, stitch the boundary zero runs, close the round with its
    /// end-of-round marker, then charge the round's per-stripe bytes to the
    /// channel as the one simulated transfer it is. Returns the arrival time
    /// and the round's statistics.
    pub(crate) fn round(
        &mut self,
        pages: &[u64],
        now: Nanoseconds,
    ) -> Result<(Nanoseconds, RoundStat)> {
        let mut failed: Option<Error> = None;
        // Scatter: stripe s owns the fixed index range
        // [s * stripe_len, (s + 1) * stripe_len); the ascending page list
        // partitions into contiguous per-stripe sublists. A lane thread is
        // sent its share now; an inline lane streams its own when the gather
        // loop reaches it.
        let mut start = 0usize;
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            let stripe_end = (s as u64 + 1).saturating_mul(self.stripe_len);
            let end = start + pages[start..].partition_point(|&p| p < stripe_end);
            lane.share = start..end;
            match &mut lane.worker {
                Worker::Thread {
                    tasks, pages: list, ..
                } if end > start => {
                    let mut list = std::mem::take(list);
                    list.clear();
                    list.extend_from_slice(&pages[start..end]);
                    if tasks.send(list).is_err() {
                        lane.share = start..start;
                        failed = Some(lane_gone());
                    }
                }
                _ => {}
            }
            start = end;
        }
        // Gather in stripe order — from every busy lane, also past a
        // failure, so that none is left holding a result — re-coalescing
        // runs across boundaries so the stream is frame for frame one
        // lane's. `open` carries the run still open at the current boundary
        // and the stripe it started in (for byte attribution).
        self.stripe_bytes.fill(0);
        self.frames.clear();
        let (frames, stripe_bytes) = (&mut self.frames, &mut self.stripe_bytes[..]);
        let mut open: Option<(usize, ZeroRun)> = None;
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            if lane.share.is_empty() {
                continue;
            }
            let outcome = match &mut lane.worker {
                Worker::Inline { src, sink } => {
                    stream_stripe(src, sink, &mut self.segment, &pages[lane.share.clone()])
                }
                Worker::Thread {
                    results,
                    pages: list,
                    ..
                } => match results.recv() {
                    Ok(LaneRound { pages, outcome }) => {
                        *list = pages;
                        outcome
                    }
                    Err(_) => Err(lane_gone()),
                },
            };
            let stripe = match outcome {
                Ok(stripe) => stripe,
                Err(e) => {
                    failed.get_or_insert(e);
                    continue;
                }
            };
            lane.stats = stripe.stats;
            if let Some((first, count)) = stripe.leading {
                open = match open {
                    Some((origin, (f, c))) if f + c == first => Some((origin, (f, c + count))),
                    other => {
                        close_run(other, frames, stripe_bytes);
                        Some((s, (first, count)))
                    }
                };
            }
            if stripe.bytes > 0 || stripe.trailing.is_some() {
                close_run(open.take(), frames, stripe_bytes);
                stripe_bytes[s] += stripe.bytes;
                open = stripe.trailing.map(|run| (s, run));
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        close_run(open, frames, stripe_bytes);
        // The end-of-round marker rides the control stream (stripe 0).
        let at = frames.len();
        self.control.end_round(frames);
        stripe_bytes[0] += (frames.len() - at) as u64;
        self.sink.apply_burst(frames)?;
        let done = self.transport.transmit_striped(now, stripe_bytes)?;
        let stat = RoundStat {
            pages: pages.len() as u64,
            bytes: stripe_bytes.iter().sum(),
            duration: done.saturating_sub(now),
        };
        Ok((done, stat))
    }

    /// Emit a round's span and, with more than one stream, one instant per
    /// active stripe on the `migrate/stream` track with the payload split
    /// the round was charged as.
    pub(crate) fn trace_round(
        &self,
        trace: &Trace,
        name: &'static str,
        round: u32,
        stat: RoundStat,
        start: Nanoseconds,
        end: Nanoseconds,
    ) {
        emit_round_span(trace, name, round, stat, start, end);
        if !trace.is_on() || self.stripe_bytes.len() == 1 {
            return;
        }
        for (stream, &bytes) in self.stripe_bytes.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            trace.instant(
                "migrate/stream",
                "stripe",
                end,
                &[
                    ("round", ArgValue::U64(u64::from(round))),
                    ("stream", ArgValue::U64(stream as u64)),
                    ("bytes", ArgValue::U64(bytes)),
                ],
            );
        }
    }

    /// The stripes' compression statistics, summed in stripe order (None
    /// when sending raw).
    pub(crate) fn compression_stats(&self) -> Option<CompressionStats> {
        let stats = self.lanes.iter().filter_map(|lane| lane.stats);
        stats.reduce(|a, b| CompressionStats {
            pages_raw: a.pages_raw + b.pages_raw,
            pages_zero: a.pages_zero + b.pages_zero,
            pages_delta: a.pages_delta + b.pages_delta,
            delta_overflows: a.delta_overflows + b.delta_overflows,
            bytes_in: a.bytes_in + b.bytes_in,
            bytes_out: a.bytes_out + b.bytes_out,
        })
    }

    /// Wire bytes this migration has put on the channel so far.
    pub(crate) fn bytes_transferred(&self) -> u64 {
        self.transport.bytes_sent() - self.bytes_before
    }
}

#[cfg(test)]
thread_local! {
    /// Lane threads the migrations this thread coordinated have spawned.
    static LANE_THREADS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lane threads spawned by the migrations `f` runs on this thread.
#[cfg(test)]
pub(crate) fn lane_threads_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LANE_THREADS.with(|n| n.get());
    let out = f();
    (out, LANE_THREADS.with(|n| n.get()) - before)
}

/// Open a stream from `source` to `dest` with the Hello handshake, stand up
/// one lane per stripe — each compressing as `plan` says, each on a thread
/// of its own only beside another lane and from one segment per stripe up
/// (see the module docs) — and run the engine `f` over it. Lane threads are
/// joined before this returns.
pub(crate) fn with_lanes<R>(
    source: &GuestMemory,
    dest: &GuestMemory,
    transport: &mut dyn Transport,
    plan: &MigrationPlan,
    f: impl FnOnce(&mut Stream<'_, '_>, Nanoseconds) -> Result<R>,
) -> Result<R> {
    check_same_size(source, dest)?;
    let streams = plan.streams.get();
    let stripe_len = source.total_pages().div_ceil(streams as u64).max(1);
    let inline = streams == 1 || stripe_len < SEGMENT_PAGES as u64;
    let capacity = segment_capacity(stripe_len);
    thread::scope(|scope| {
        let mut stream = Stream {
            control: MigrationSource::raw(source),
            sink: MigrationSink::new(dest),
            frames: Vec::with_capacity(segment_capacity(1)),
            start: transport.free_at(),
            bytes_before: transport.bytes_sent(),
            transport,
            lanes: Vec::with_capacity(streams),
            stripe_len,
            stripe_bytes: vec![0; streams],
            segment: Vec::with_capacity(if inline { capacity } else { 0 }),
        };
        stream.control.put_hello(&mut stream.frames);
        let after_hello = stream.send_control(stream.start)?;
        for _ in 0..streams {
            let src = MigrationSource::with_config(source, plan);
            let stats = src.compression_stats();
            let sink = MigrationSink::lane_of(&stream.sink);
            let worker = if inline {
                Worker::Inline { src, sink }
            } else {
                // One page list in flight per lane and round, and its result
                // collected before the next is sent: neither send ever blocks.
                let (tasks, task_rx) = sync_channel(1);
                let (result_tx, results) = sync_channel(1);
                #[cfg(test)]
                LANE_THREADS.with(|n| n.set(n.get() + 1));
                scope.spawn(move || run_lane(src, sink, capacity, task_rx, result_tx));
                Worker::Thread {
                    tasks,
                    results,
                    pages: Vec::with_capacity(stripe_len as usize),
                }
            };
            stream.lanes.push(Lane {
                worker,
                share: 0..0,
                stats,
            });
        }
        // Dropping the stream at the end of this closure hangs up on the
        // lane threads, which ends them; the scope then joins them.
        f(&mut stream, after_hello)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::PageCompression;
    use crate::dirty::{ConstantRateDirtier, DirtySource, IdleDirtier};
    use crate::engines::execute;
    use crate::plan::{FaultService, PlanEngine, MAX_MIGRATION_STREAMS};
    use crate::report::MigrationReport;
    use crate::transport::refusing::{refusal, RefusingTransport};
    use crate::transport::{FabricTransport, LoopbackTransport};
    use rvisor_net::{ClosFabric, FabricParams, Link, LinkModel};
    use rvisor_obs::OwnedArg;
    use rvisor_types::{ByteSize, GuestAddress, PAGE_SIZE};
    use rvisor_vcpu::VcpuState;
    use std::num::NonZeroUsize;

    const ENGINES: [PlanEngine; 3] = [
        PlanEngine::StopAndCopy,
        PlanEngine::PreCopy,
        PlanEngine::PostCopy,
    ];

    fn streams(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("non-zero")
    }

    /// Source with content, zero gaps that straddle stripe boundaries, and
    /// an all-zero tail (the stitching stress pattern).
    fn memories(pages: u64) -> (GuestMemory, GuestMemory) {
        let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        for p in 0..pages {
            if p % 7 < 4 && p < pages - pages / 4 {
                src.write_u64(GuestAddress(p * PAGE_SIZE), p * 7 + 1)
                    .unwrap();
            }
        }
        (src, dst)
    }

    fn region_bytes(mem: &GuestMemory) -> Vec<u8> {
        let mut out = Vec::new();
        for r in mem.regions() {
            r.with_bytes(|b| out.extend_from_slice(b));
        }
        out
    }

    fn gigabit_dirtier(fraction: f64, pages: u64) -> ConstantRateDirtier {
        ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            fraction,
            0,
            pages,
        )
    }

    /// [`execute`] with one vCPU.
    fn over(
        plan: &MigrationPlan,
        src: &GuestMemory,
        dst: &GuestMemory,
        transport: &mut dyn Transport,
        dirtier: &mut dyn DirtySource,
        trace: &Trace,
    ) -> Result<MigrationReport> {
        execute(
            plan,
            src,
            dst,
            &[VcpuState::default()],
            transport,
            dirtier,
            trace,
        )
    }

    /// `plan` over a loopback, the guest dirtying at `dirty_fraction` of the
    /// link's bandwidth.
    fn loopback_report(
        plan: &MigrationPlan,
        pages: u64,
        dirty_fraction: f64,
    ) -> (MigrationReport, Vec<u8>) {
        let (src, dst) = memories(pages);
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let mut dirtier = gigabit_dirtier(dirty_fraction, pages);
        let report = over(
            plan,
            &src,
            &dst,
            &mut transport,
            &mut dirtier,
            &Trace::off(),
        )
        .unwrap();
        (report, region_bytes(&dst))
    }

    #[test]
    fn pipelined_matches_serial_for_every_engine_and_stream_count() {
        for engine in ENGINES {
            let serial = MigrationPlan {
                engine,
                ..Default::default()
            };
            let (expected, expected_mem) = loopback_report(&serial, 256, 0.4);
            for n in [2usize, 3, 4, 7] {
                let laned = MigrationPlan {
                    streams: streams(n),
                    ..serial
                };
                let (report, mem) = loopback_report(&laned, 256, 0.4);
                assert_eq!(report, expected, "{engine:?} at {n} streams");
                assert_eq!(
                    mem, expected_mem,
                    "{engine:?} at {n} streams: memory diverged"
                );
            }
        }
    }

    #[test]
    fn lanes_get_threads_from_one_segment_per_stripe_and_match_serial_either_side() {
        // Stripes of 63, 64 and 65 pages, and a one-segment guest cut 2, 4
        // and 7 ways: (pages, streams, lane threads).
        let cases = [
            (252u64, 4usize, 0u64),
            (256, 4, 4),
            (260, 4, 4),
            (64, 2, 0),
            (64, 4, 0),
            (64, 7, 0),
        ];
        for engine in ENGINES {
            for compression in [PageCompression::None, PageCompression::Xbzrle] {
                for (pages, n, threads) in cases {
                    let serial = MigrationPlan {
                        engine,
                        compression,
                        ..Default::default()
                    };
                    let laned = MigrationPlan {
                        streams: streams(n),
                        ..serial
                    };
                    let case = format!("{engine:?} {compression:?} {pages} pages / {n}");
                    let (expected, none) =
                        lane_threads_during(|| loopback_report(&serial, pages, 0.4));
                    assert_eq!(none, 0, "{case}: a lone lane runs inline");
                    let (got, spawned) =
                        lane_threads_during(|| loopback_report(&laned, pages, 0.4));
                    assert_eq!(spawned, threads, "{case}: lane threads");
                    // Wire bytes are `bytes_transferred`, inside the report.
                    assert_eq!(got.0, expected.0, "{case}: report");
                    assert!(got.1 == expected.1, "{case}: memory diverged");
                }
            }
        }
    }

    #[test]
    fn zero_runs_stitch_across_stripe_boundaries() {
        // An all-zero guest: one stream coalesces every round into one
        // ZeroRun frame. With 4 stripes the run crosses 3 boundaries and
        // must be re-coalesced to the identical frame (equal bytes proves
        // it: split runs would cost 3 extra frame headers).
        let pages = 256u64;
        let run = |n: usize| {
            let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
            let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
            let mut link = Link::new(LinkModel::gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let plan = MigrationPlan {
                compression: PageCompression::ZeroPages,
                streams: streams(n),
                ..Default::default()
            };
            let off = Trace::off();
            over(&plan, &src, &dst, &mut transport, &mut IdleDirtier, &off).unwrap()
        };
        let serial = run(1);
        for n in [2usize, 4, 8] {
            assert_eq!(run(n), serial, "{n} streams");
        }
    }

    #[test]
    fn multi_stream_fabric_migration_replays_identically_and_pays_framing() {
        let pages = 512u64;
        let run = |n: usize| {
            let (src, dst) = memories(pages);
            let mut fabric = ClosFabric::new(2, FabricParams::office_lan()).unwrap();
            let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
            let plan = MigrationPlan {
                streams: streams(n),
                ..Default::default()
            };
            let off = Trace::off();
            let report = over(&plan, &src, &dst, &mut transport, &mut IdleDirtier, &off).unwrap();
            (report, region_bytes(&dst))
        };
        let (serial, serial_mem) = run(1);
        let (four, four_mem) = run(4);
        // Fair-share chunk streams: same payload bytes, identical memory,
        // never faster than the aggregate stream (per-stream MTU framing).
        assert_eq!(four.bytes_transferred, serial.bytes_transferred);
        assert_eq!(four_mem, serial_mem);
        assert!(four.total_time >= serial.total_time);
        // Same-seed multi-stream runs replay `==`.
        let (replay, replay_mem) = run(4);
        assert_eq!(replay, four);
        assert_eq!(replay_mem, four_mem);
    }

    #[test]
    fn pipelined_rejects_bad_configs_and_mismatched_memories() {
        let (src, dst) = memories(8);
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let off = Trace::off();
        let too_many = MigrationPlan {
            engine: PlanEngine::StopAndCopy,
            streams: streams(MAX_MIGRATION_STREAMS + 1),
            ..Default::default()
        };
        assert!(over(
            &too_many,
            &src,
            &dst,
            &mut transport,
            &mut IdleDirtier,
            &off
        )
        .is_err());
        let small = GuestMemory::flat(ByteSize::pages_of(2)).unwrap();
        let laned = MigrationPlan {
            engine: PlanEngine::PostCopy,
            streams: streams(2),
            ..Default::default()
        };
        assert!(over(&laned, &src, &small, &mut transport, &mut IdleDirtier, &off).is_err());
    }

    #[test]
    fn refused_transfer_joins_the_lanes_and_leaves_the_source_migratable() {
        // Three segments per round, so a refused round has already landed
        // pages when the transport says no; 256 pages, where 4 streams get
        // lane threads. Transfers per migration: Hello, the rounds, the vCPU
        // state.
        let engines = [
            (PlanEngine::StopAndCopy, FaultService::Sweep, 3),
            (PlanEngine::PreCopy, FaultService::Sweep, 4),
            (PlanEngine::PostCopy, FaultService::Sweep, 3),
            (PlanEngine::PostCopy, FaultService::FaultLane, 4),
        ];
        for (pages, (engine, fault_service, transfers), n) in [3 * SEGMENT_PAGES as u64, 256]
            .into_iter()
            .flat_map(|pages| engines.map(move |e| (pages, e)))
            .flat_map(|(pages, e)| [1usize, 2, 4].map(move |n| (pages, e, n)))
        {
            let plan = MigrationPlan {
                engine,
                fault_service,
                streams: streams(n),
                compression: PageCompression::Xbzrle,
                ..Default::default()
            };
            let run = |src: &GuestMemory, dst: &GuestMemory, transport: &mut dyn Transport| {
                over(&plan, src, dst, transport, &mut IdleDirtier, &Trace::off())
            };
            let (clean_src, clean_dst) = memories(pages);
            let mut link = Link::new(LinkModel::gigabit());
            let expected = run(
                &clean_src,
                &clean_dst,
                &mut LoopbackTransport::new(&mut link),
            );
            let expected = expected.unwrap();

            for fail_on in 1..=transfers {
                let case = format!(
                    "{engine:?} {fault_service:?}, {pages} pages, {n} streams, transfer {fail_on}"
                );
                let (src, dst) = memories(pages);
                src.clear_dirty();
                if engine != PlanEngine::PreCopy {
                    // One dirty page, so the bitmap has something to lose.
                    // (Pre-copy owns dirty tracking for the call and clears
                    // it on entry, on success and failure alike.)
                    src.mark_dirty_page(5);
                }
                let (bytes_before, dirty_before) = (region_bytes(&src), src.dirty_pages());
                let mut link = Link::new(LinkModel::gigabit());
                let mut refusing = RefusingTransport::new(&mut link, fail_on);
                // Returning at all means every lane was joined: they run
                // inside a `thread::scope`.
                let err = run(&src, &dst, &mut refusing)
                    .expect_err("the refused transfer must fail the migration");
                assert_eq!(err, refusal(), "{case}");
                assert_eq!(refusing.calls, fail_on, "{case}: sent after a refusal");
                assert_eq!(region_bytes(&src), bytes_before, "{case}");
                assert_eq!(src.dirty_pages(), dirty_before, "{case}");

                // The same source, a healthy transport, a fresh destination.
                let (_, fresh) = memories(pages);
                let mut link = Link::new(LinkModel::gigabit());
                let retried = run(&src, &fresh, &mut LoopbackTransport::new(&mut link));
                assert_eq!(retried.unwrap(), expected, "{case}");
                assert_eq!(region_bytes(&fresh), bytes_before, "{case}");
            }
        }
    }

    #[test]
    fn a_failing_lane_does_not_strand_the_coordinator() {
        // Inline lanes: ten pages in stripes of three, where page index 11
        // falls in the last stripe's range but not in the guest. Lane
        // threads: 253 pages in stripes of 64 and page index 255. Either
        // way the last stripe fails mid-round while the three before it
        // succeed.
        for (guest, missing, threads) in [(10u64, 11u64, 0u64), (253, 255, 4)] {
            let (src, dst) = memories(guest);
            let mut link = Link::new(LinkModel::gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let plan = MigrationPlan {
                streams: streams(4),
                ..Default::default()
            };
            let lanes = || {
                with_lanes(&src, &dst, &mut transport, &plan, |stream, now| {
                    let mut pages: Vec<u64> = (0..guest).collect();
                    pages.push(missing);
                    let err = stream
                        .round(&pages, now)
                        .expect_err("the last page does not exist");
                    assert!(matches!(err, Error::InvalidGuestAddress { .. }), "{err:?}");
                    // Every lane's result was collected, the failed one's
                    // too: the next round finds no stale result and lands
                    // every page.
                    pages.pop();
                    let (_, stat) = stream.round(&pages, now).unwrap();
                    assert_eq!(stat.pages, guest);
                    Ok(())
                })
            };
            let (outcome, spawned) = lane_threads_during(lanes);
            outcome.unwrap();
            assert_eq!(spawned, threads, "{guest} pages");
            assert_eq!(region_bytes(&dst), region_bytes(&src));
        }
    }

    #[test]
    fn traced_pipelined_xbzrle_span_carries_the_serial_compression_stats() {
        // Zero, raw and (from round 2 on) delta pages, no eviction.
        let pages = 256u64;
        let arg = |e: &rvisor_obs::TraceEvent, name| match e.args.iter().find(|(k, _)| *k == name) {
            Some((_, OwnedArg::U64(v))) => *v,
            other => panic!("{name}: {other:?}"),
        };
        let traced = |n: usize| {
            let (src, dst) = memories(pages);
            let mut link = Link::new(LinkModel::gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let mut dirtier = gigabit_dirtier(0.4, pages);
            let (trace, recorder) = Trace::recording();
            let plan = MigrationPlan {
                compression: PageCompression::Xbzrle,
                streams: streams(n),
                ..Default::default()
            };
            over(&plan, &src, &dst, &mut transport, &mut dirtier, &trace).unwrap();
            let recorder = recorder.borrow();
            let events = recorder.events();
            let span = events.iter().find(|e| e.track == "migrate").unwrap();
            let stats = ["zero_pages", "delta_pages", "raw_pages"].map(|name| arg(span, name));
            let track = |track| events.iter().filter(move |e| e.track == track);
            let rounds: Vec<_> = track("migrate/round")
                .map(|e| (arg(e, "round"), arg(e, "bytes")))
                .collect();
            let stripes: Vec<_> = track("migrate/stream")
                .map(|e| (arg(e, "round"), arg(e, "stream"), arg(e, "bytes")))
                .collect();
            (stats, rounds, stripes)
        };
        let (serial, rounds, stripes) = traced(1);
        assert!(serial.iter().all(|&pages| pages != 0), "{serial:?}");
        assert!(rounds.len() >= 2, "{rounds:?}");
        assert_eq!(stripes, [], "a lone lane's split is no news");
        for n in [2usize, 3, 4] {
            let (stats, laned_rounds, stripes) = traced(n);
            assert_eq!(stats, serial, "{n} streams");
            assert_eq!(laned_rounds, rounds, "{n} streams");
            // One instant per active stripe and round, in stripe order,
            // adding up to the round; round 1 moves every stripe.
            for &(round, bytes) in &rounds {
                let split: Vec<_> = stripes.iter().filter(|s| s.0 == round).collect();
                assert!(split.windows(2).all(|w| w[0].1 < w[1].1), "{split:?}");
                assert!(split.iter().all(|s| s.2 > 0), "{split:?}");
                assert_eq!(split.iter().map(|s| s.2).sum::<u64>(), bytes, "{split:?}");
                if round == 1 {
                    assert_eq!(split.len(), n, "{n} streams, round 1");
                }
            }
            assert_eq!(
                stripes.iter().filter(|s| s.0 > rounds.len() as u64).count(),
                0
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// A laned migration is byte-identical and
            /// `MigrationReport`-equal to the one-stream schedule (and so,
            /// transitively, to the direct accounting oracle) for all three
            /// engines, any stream count, with and without compression.
            #[test]
            fn pipelined_engine_is_equivalent_to_the_serial_path(
                engine in 0usize..3,
                pages in 32u64..160,
                dirty_fraction_pct in 0u64..120,
                n_streams in 2usize..6,
                mode_idx in 0usize..3,
            ) {
                let serial = MigrationPlan {
                    engine: ENGINES[engine],
                    max_rounds: 6,
                    dirty_page_threshold: 8,
                    compression: PageCompression::ALL[mode_idx],
                    ..Default::default()
                };
                let laned = MigrationPlan {
                    streams: streams(n_streams),
                    ..serial
                };
                let fraction = dirty_fraction_pct as f64 / 100.0;
                let (expected, expected_mem) = loopback_report(&serial, pages, fraction);
                let (report, mem) = loopback_report(&laned, pages, fraction);
                prop_assert_eq!(report, expected);
                prop_assert_eq!(mem, expected_mem);
            }
        }
    }
}
