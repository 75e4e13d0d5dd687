//! Allocation guard for the zero-copy migration data plane.
//!
//! A dedicated integration-test binary with a counting `#[global_allocator]`
//! pinning the property the zero-copy refactor bought: a steady-state
//! pre-copy round (harvest the dirty set into a reused buffer, stream the
//! pages through the in-place views) performs **zero per-page heap
//! allocations**. If someone reintroduces a `Vec` per page or per harvest,
//! this test fails — the property cannot silently regress.
//!
//! The binary contains a single `#[test]`, and a thread's allocations are
//! counted only once that thread has marked itself, so neither another test
//! nor the harness (which prints from its own thread when a test runs long)
//! can land an allocation inside a bracket that asserts exactly zero. Every
//! migration runs one lane per stripe; beside another lane and from one
//! segment per stripe up, the lanes are threads spawned by the engine, not
//! by the test, so part 3 reads the process-wide counter instead, and reads
//! it at every round boundary of one migration: each lane thread owns one
//! segment buffer of fixed capacity and one recycled page list, so past the
//! first rounds the only allocations left are the ones the standard library
//! makes when a thread first waits on a channel. Parts 4 and 4b pin that a
//! lone lane, and a smaller guest's lanes, are no threads at all.
//!
//! The allocator also records the largest size any thread asks for, which
//! part 5 uses to pin that no engine, on lane threads or inline, materialises
//! a round — or a stripe of one — as one buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use std::num::NonZeroUsize;

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    execute, ConstantRateDirtier, DirtySource, FaultService, IdleDirtier, LoopbackTransport,
    MigrationPlan, PlanEngine,
};
use rvisor_net::{Link, LinkModel};
use rvisor_obs::Trace;
use rvisor_types::{ByteSize, GuestAddress, Nanoseconds, Result, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

/// Counts every allocation (and reallocation) passed to the system
/// allocator: all of them in `ALL_THREADS`, those of threads that called
/// [`count_this_thread`] in `MARKED_THREADS` too, with the largest size any
/// thread asked for in `ALL_LARGEST`.
struct CountingAllocator;

static ALL_THREADS: AtomicU64 = AtomicU64::new(0);
static ALL_LARGEST: AtomicU64 = AtomicU64::new(0);
static MARKED_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from inside
    // the allocator neither allocates nor outlives the thread.
    static MARKED: Cell<bool> = const { Cell::new(false) };
}

fn count_this_thread() {
    MARKED.with(|marked| marked.set(true));
}

fn count(size: usize) {
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
    ALL_LARGEST.fetch_max(size as u64, Ordering::Relaxed);
    if MARKED.try_with(Cell::get).unwrap_or(false) {
        MARKED_THREADS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the threads that marked themselves.
fn allocations() -> u64 {
    MARKED_THREADS.load(Ordering::Relaxed)
}

/// A dirtier that notes the process-wide allocation count each time the
/// engine runs the guest, which it does once per pre-copy round.
struct RoundMarks {
    guest: ConstantRateDirtier,
    /// Reserved up front: noting a round must not allocate.
    allocations_at_round: Vec<u64>,
}

impl DirtySource for RoundMarks {
    fn run_for(&mut self, memory: &GuestMemory, duration: Nanoseconds) -> Result<u64> {
        assert!(self.allocations_at_round.len() < self.allocations_at_round.capacity());
        self.allocations_at_round
            .push(ALL_THREADS.load(Ordering::Relaxed));
        self.guest.run_for(memory, duration)
    }

    fn dirty_rate_bytes_per_sec(&self) -> u64 {
        self.guest.dirty_rate_bytes_per_sec()
    }
}

#[test]
fn steady_state_precopy_round_is_allocation_free() {
    const PAGES: u64 = 4096;
    const DIRTY_PER_ROUND: u64 = 1024;
    count_this_thread();

    let source = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    let dest = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    for p in 0..PAGES {
        source
            .write_u64(GuestAddress(p * PAGE_SIZE), p.wrapping_mul(31) + 1)
            .unwrap();
    }

    // ---- Part 1: the data-plane round itself, measured exactly. ----
    //
    // Warm up: one full harvest+copy cycle (the pattern writes above left
    // every page dirty, so this is the round-1 full copy) grows the harvest
    // buffer to the working set. From then on a round is: dirty pages
    // appear, the harvest drains them into the reused buffer, each page
    // streams source→dest through the in-place views. None of that may
    // allocate.
    let mut harvest: Vec<u64> = Vec::new();
    source.drain_dirty_into(&mut harvest);
    assert_eq!(harvest.len() as u64, PAGES);
    for &p in &harvest {
        source
            .with_page(p, |bytes| {
                dest.with_page_mut(p, |target| target.copy_from_slice(bytes))
            })
            .unwrap()
            .unwrap();
    }

    // Steady-state round, with the allocator counter bracketing it.
    for p in 0..DIRTY_PER_ROUND {
        source
            .write_u64(GuestAddress(p * PAGE_SIZE), p ^ 0x55)
            .unwrap();
    }
    let before = allocations();
    source.drain_dirty_into(&mut harvest);
    assert_eq!(harvest.len() as u64, DIRTY_PER_ROUND);
    for &p in &harvest {
        source
            .with_page(p, |bytes| {
                dest.with_page_mut(p, |target| target.copy_from_slice(bytes))
            })
            .unwrap()
            .unwrap();
    }
    let round_allocations = allocations() - before;
    assert_eq!(
        round_allocations, 0,
        "a steady-state harvest+copy round over {DIRTY_PER_ROUND} pages \
         must not touch the heap, but performed {round_allocations} allocations"
    );
    assert_eq!(source.checksum(), dest.checksum());

    // ---- Part 2: the full engine, bounded end to end. ----
    //
    // A complete pre-copy migration (several rounds over PAGES pages with a
    // guest dirtying at half link bandwidth) is allowed its setup costs —
    // the initial page list, the link, the report — but nothing per page:
    // total allocations must stay orders of magnitude below the page count.
    let (src2, dst2) = (
        GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap(),
        GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap(),
    );
    for p in 0..PAGES {
        src2.write_u64(GuestAddress(p * PAGE_SIZE), p * 7 + 3)
            .unwrap();
    }
    let mut link = Link::new(LinkModel::gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
        LinkModel::gigabit().bytes_per_second,
        0.5,
        0,
        PAGES,
    );
    let plan = MigrationPlan {
        max_rounds: 8,
        dirty_page_threshold: 32,
        ..Default::default()
    };
    let before = allocations();
    let report = execute(
        &plan,
        &src2,
        &dst2,
        &[VcpuState::default()],
        &mut transport,
        &mut dirtier,
        &Trace::off(),
    )
    .unwrap();
    let migration_allocations = allocations() - before;

    assert_eq!(src2.checksum(), dst2.checksum());
    assert!(
        report.pages_transferred >= PAGES,
        "expected at least one full pass, got {}",
        report.pages_transferred
    );
    // Generous fixed budget: page-list growth amortizes to O(log n) reallocs,
    // everything else is per-round or per-migration. 4096+ transferred pages
    // at zero allocations each must fit far under it.
    const BUDGET: u64 = 64;
    assert!(
        migration_allocations <= BUDGET,
        "a full pre-copy migration of {} pages performed {} allocations \
         (budget {BUDGET}); the per-page paths have regressed",
        report.pages_transferred,
        migration_allocations
    );

    // ---- Part 3: a multi-stream migration, bounded end to end. ----
    //
    // A laned migration is allowed its setup: four lane threads, a pair
    // of channels, a page list and a segment buffer each, and the harvest
    // list growing in round 2. After that the one thing left to allocate is
    // a first wait on an empty channel: the standard library allocates a
    // thread's wait context and a channel's waiter list the first time that
    // thread blocks and that channel is blocked on, in whichever round the
    // scheduler first lets it happen — at most once per thread and once per
    // channel. Nothing else may: the rounds after the second, which stream
    // thousands of pages down 4 lanes each, together allocate at most those
    // first waits, where a buffer regrown per round, a list dropped instead
    // of recycled, or anything allocated per page would allocate dozens.
    const ROUNDS: u32 = 28;
    let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    for p in 0..PAGES {
        src.write_u64(GuestAddress(p * PAGE_SIZE), p * 13 + 5)
            .unwrap();
    }
    let mut link = Link::new(LinkModel::gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    // Dirtying at 90% of link bandwidth: the dirty set shrinks too slowly
    // to converge, so the round count is exactly `ROUNDS`.
    let mut dirtier = RoundMarks {
        guest: ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            0.9,
            0,
            PAGES,
        ),
        allocations_at_round: Vec::with_capacity(2 * ROUNDS as usize),
    };
    let plan = MigrationPlan {
        max_rounds: ROUNDS,
        dirty_page_threshold: 32,
        streams: NonZeroUsize::new(4).unwrap(),
        ..Default::default()
    };
    let before = ALL_THREADS.load(Ordering::Relaxed);
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
    // The engine has joined its threads by now.
    let pipeline_allocations = ALL_THREADS.load(Ordering::Relaxed) - before;
    assert_eq!(report.rounds, ROUNDS, "guest must not converge");
    assert_eq!(src.checksum(), dst.checksum());
    let per_round: Vec<u64> = dirtier
        .allocations_at_round
        .windows(2)
        .map(|marks| marks[1] - marks[0])
        .collect();
    assert_eq!(per_round.len() as u32, ROUNDS - 1);
    // Five threads' contexts, eight channels' waiter lists.
    let streams = plan.streams.get() as u64;
    let first_waits = (streams + 1) + 2 * streams;
    let after_second: u64 = per_round[1..].iter().sum();
    assert!(
        after_second <= first_waits,
        "the pipelined rounds after the second performed {after_second} allocations \
         (per round: {per_round:?}), more than the first waits account for; \
         the lanes' buffer or page-list reuse has regressed"
    );
    // The whole pipelined migration — threads, channels, lists, segments,
    // dozens of rounds over thousands of pages — stays within a fixed setup
    // budget (67 on the toolchain this was written with).
    const PIPELINE_BUDGET: u64 = 80;
    assert!(
        pipeline_allocations <= PIPELINE_BUDGET,
        "a {ROUNDS}-round pipelined migration performed {pipeline_allocations} \
         allocations (budget {PIPELINE_BUDGET})"
    );

    // ---- Part 4: tracing off costs nothing on the hot path. ----
    //
    // The observability plane promises that a disabled `Trace` is free: the
    // instrumented engine bodies bail out on `is_on()` before formatting a
    // single argument. Pin the allocation half of that promise on a
    // one-stream `execute` with `Trace::off()`: compare a
    // 12-round against a 28-round migration of the same non-converging
    // guest. The 16 extra steady-state rounds — each of which would emit a
    // round span if tracing were on — must perform **exactly zero** heap
    // allocations. Setup costs (the round-breakdown vector is sized by
    // `max_rounds`, buffers grow to their high-water marks in early rounds)
    // are identical in both runs and cancel out.
    let traced_off = |max_rounds: u32| -> u64 {
        let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
        for p in 0..PAGES {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 17 + 9)
                .unwrap();
        }
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            0.9,
            0,
            PAGES,
        );
        let plan = MigrationPlan {
            max_rounds,
            dirty_page_threshold: 32,
            ..Default::default()
        };
        let trace = Trace::off();
        let before = allocations();
        let report = execute(
            &plan,
            &src,
            &dst,
            &[VcpuState::default()],
            &mut transport,
            &mut dirtier,
            &trace,
        )
        .unwrap();
        let spent = allocations() - before;
        assert_eq!(report.rounds, max_rounds, "guest must not converge");
        assert_eq!(src.checksum(), dst.checksum());
        spent
    };
    let off_short = traced_off(12);
    let off_long = traced_off(28);
    // `with_capacity(max_rounds + 1)` makes the breakdown allocation the
    // same *count* in both runs, and the one segment buffer every round
    // streams through is allocated once per migration. Any nonzero
    // difference means a round, or the disabled-trace path, touched the
    // heap.
    let off_extra = off_long.saturating_sub(off_short);
    assert_eq!(
        off_extra, 0,
        "16 extra steady-state rounds with tracing off cost {off_extra} \
         allocations; a disabled Trace must be free on the hot path"
    );
    // One stream is one inline lane: the whole migration allocates, on the
    // calling thread, the 15 allocations of the pre-copy engine itself (the
    // lane's segment buffer, page lists, breakdown, report) and four for the
    // scheduler: the lane table, the stripe-byte counts, the control buffer
    // and the `thread::scope`. A thread, a channel or a second buffer would
    // add to it.
    const SERIAL_PRECOPY_ALLOCATIONS: u64 = 19;
    assert_eq!(
        off_short, SERIAL_PRECOPY_ALLOCATIONS,
        "a one-stream execute must allocate what one inline lane does"
    );

    // ---- Part 4b: lanes below one segment per stripe are not threads. ----
    //
    // A 64-page guest on 4 streams has 16-page stripes, so its lanes run on
    // the calling thread, as one stream's one lane does. The lane table, the
    // per-stripe byte counts and the shared segment buffer are one
    // allocation each whatever the stream count, and an uncompressed lane's
    // encoder and sink allocate nothing, so 4 inline lanes allocate exactly
    // what 1 does — no channel, no thread, no per-lane page list. The same
    // plan over 256 pages (64-page stripes) does stand up four lane threads
    // and pays for them.
    let small = |pages: u64, streams: usize| -> (u64, u64) {
        let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        for p in 0..pages {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 23 + 7)
                .unwrap();
        }
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let plan = MigrationPlan {
            streams: NonZeroUsize::new(streams).unwrap(),
            ..Default::default()
        };
        let before = (allocations(), ALL_THREADS.load(Ordering::Relaxed));
        execute(
            &plan,
            &src,
            &dst,
            &[VcpuState::default()],
            &mut transport,
            &mut IdleDirtier,
            &Trace::off(),
        )
        .unwrap();
        assert_eq!(src.checksum(), dst.checksum());
        (
            allocations() - before.0,
            ALL_THREADS.load(Ordering::Relaxed) - before.1,
        )
    };
    let (one_here, one_anywhere) = small(64, 1);
    let (inline_here, inline_anywhere) = small(64, 4);
    let (_, threaded_anywhere) = small(256, 4);
    assert_eq!(one_here, one_anywhere);
    assert_eq!(
        inline_here, inline_anywhere,
        "a 64-page, 4-stream migration allocated off the calling thread"
    );
    assert_eq!(
        inline_here, one_here,
        "4 inline lanes must allocate what one lane does"
    );
    assert!(
        threaded_anywhere > inline_anywhere + 4,
        "lane threads ({threaded_anywhere} allocations) should cost more than \
         inline lanes ({inline_anywhere}), or this part measures nothing"
    );

    // ---- Part 5: a round is never one guest- or stripe-sized buffer. ----
    //
    // A round is one simulated transfer, not one unit of host memory: every
    // engine moves it through segment buffers of about 260 KiB, one per lane
    // thread or one shared by the inline lanes. Migrating this
    // 16 MiB guest, the largest thing any of them asks the allocator for, on
    // any thread, is that buffer (the page-index list is 32 KiB); a round
    // materialised as one burst would ask for 16 MiB, a 4-stream round
    // materialised as stripe bodies for more than 4 MiB each.
    const LARGEST_REQUEST: u64 = 1 << 20;
    let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    for p in 0..PAGES {
        src.write_u64(GuestAddress(p * PAGE_SIZE), p * 19 + 11)
            .unwrap();
    }
    let vcpus = [VcpuState::default()];
    for (engine, fault_service, streams) in [
        (PlanEngine::StopAndCopy, FaultService::Sweep, 1),
        (PlanEngine::PreCopy, FaultService::Sweep, 1),
        (PlanEngine::PostCopy, FaultService::Sweep, 1),
        (PlanEngine::PostCopy, FaultService::FaultLane, 1),
        (PlanEngine::StopAndCopy, FaultService::Sweep, 4),
        (PlanEngine::PreCopy, FaultService::Sweep, 4),
        (PlanEngine::PostCopy, FaultService::Sweep, 4),
    ] {
        let plan = MigrationPlan {
            engine,
            fault_service,
            streams: NonZeroUsize::new(streams).unwrap(),
            ..Default::default()
        };
        let engine = format!(
            "{streams}-stream {} ({})",
            engine.name(),
            fault_service.name()
        );
        let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        ALL_LARGEST.store(0, Ordering::Relaxed);
        execute(
            &plan,
            &src,
            &dst,
            &vcpus,
            &mut transport,
            &mut IdleDirtier,
            &Trace::off(),
        )
        .unwrap();
        let largest = ALL_LARGEST.load(Ordering::Relaxed);
        assert_eq!(src.checksum(), dst.checksum(), "{engine}");
        assert!(
            largest <= LARGEST_REQUEST,
            "the {engine} engine asked the allocator for {largest} bytes at once \
             migrating a {} byte guest; rounds must stream in segments",
            PAGES * PAGE_SIZE
        );
    }
}
