//! The deterministic discrete-event queue and the event vocabulary.
//!
//! Everything the orchestrator does happens in response to an [`OrchEvent`]
//! popped from the [`EventQueue`]. The queue orders events by
//! `(Nanoseconds, sequence)`: events fire in non-decreasing simulated-time
//! order, and events scheduled for the same instant fire in the order they
//! were pushed (FIFO tie-breaking). That stable tie-break is what makes two
//! runs of the same scenario byte-identical — ordering over time alone would
//! leave same-instant ordering unspecified.
//!
//! # Implementation: a calendar queue
//!
//! [`EventQueue`] is a classic calendar queue (Brown 1988): time is cut into
//! fixed-`width` slices and each slice hashes to one of `nbuckets` sorted
//! buckets, like days onto a wall calendar. A push inserts into its slice's
//! bucket in O(bucket) — buckets hold a couple of events when the width is
//! tuned — and a pop takes the front of the current slice's bucket in O(1),
//! walking forward over empty slices (with a direct-search fallback that
//! jumps sparse gaps). The queue retunes itself deterministically: when the
//! population doubles past `2 × nbuckets` (or falls under a quarter of it)
//! every event is rebucketed into twice (half) as many buckets with the
//! width re-derived from the current span-per-event. On the hot ticks of a
//! million-event day this replaces the binary heap's log(n) sift with O(1)
//! bucket operations.
//!
//! The pre-calendar binary heap survives as the tests' `MinHeapQueue`
//! reference; a proptest pins the two observably equivalent (same
//! `(at, seq)` pop order, same events) across interleaved operation
//! sequences that force grows and shrinks, so the swap cannot have changed
//! any run's event order.

use std::cmp::Ordering;

use rvisor_types::{HostId, Nanoseconds};

use rvisor_cluster::VmSpec;

/// An event the orchestrator reacts to.
///
/// Scenario events ([`VmArrival`](OrchEvent::VmArrival) through
/// [`HostFailure`](OrchEvent::HostFailure)) come from the workload generator;
/// the remaining variants are internal events the orchestrator schedules for
/// itself (periodic ticks, deferred DR restore completions).
#[derive(Debug, Clone, PartialEq)]
pub enum OrchEvent {
    /// A tenant asks for a new VM with the given resource spec.
    VmArrival {
        /// Resource requirements (name, memory, vCPUs, CPU demand).
        spec: VmSpec,
    },
    /// A tenant retires a VM.
    VmDeparture {
        /// Name of the departing VM.
        vm: String,
    },
    /// A VM's sustained CPU demand changes (load spike or quiesce).
    LoadChange {
        /// Name of the VM whose load changes.
        vm: String,
        /// New sustained demand, in milli-cores (integer so events stay `Eq`-
        /// comparable and replay byte-identically).
        cpu_demand_millicores: u32,
    },
    /// A physical host fails abruptly, losing every VM placed on it.
    HostFailure {
        /// The failing host.
        host: HostId,
    },
    /// A spine switch fails, removing its capacity from the fabric. The
    /// datacenter degrades — cross-rack transfers re-spread over the
    /// surviving spines — but never partitions (failing the last live
    /// spine is refused and counted as a dropped event).
    SpineFailure {
        /// Index of the failing spine.
        spine: usize,
    },
    /// Periodic rebalance: the policy inspects utilization and may migrate.
    RebalanceTick,
    /// Periodic backup: every placed VM is snapshotted to the DR store.
    BackupTick,
    /// Internal: a DR restore of `vm` finishes (scheduled after a
    /// [`HostFailure`](OrchEvent::HostFailure), delayed by detection time
    /// plus restore transfer time).
    RestoreComplete {
        /// Name of the VM whose restore completes.
        vm: String,
    },
}

impl OrchEvent {
    /// Short label for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            OrchEvent::VmArrival { .. } => "vm-arrival",
            OrchEvent::VmDeparture { .. } => "vm-departure",
            OrchEvent::LoadChange { .. } => "load-change",
            OrchEvent::HostFailure { .. } => "host-failure",
            OrchEvent::SpineFailure { .. } => "spine-failure",
            OrchEvent::RebalanceTick => "rebalance-tick",
            OrchEvent::BackupTick => "backup-tick",
            OrchEvent::RestoreComplete { .. } => "restore-complete",
        }
    }
}

/// An event with its firing time and FIFO sequence number.
#[derive(Debug, Clone)]
pub struct Scheduled<E = OrchEvent> {
    /// When the event fires.
    pub at: Nanoseconds,
    /// Push order, used to break same-instant ties deterministically.
    pub seq: u64,
    /// The event itself.
    pub event: E,
}

/// Equality matches the ordering key `(at, seq)` — never the payload — so
/// `PartialEq` stays consistent with `Ord` (`a == b` iff `cmp` is `Equal`).
/// Within one queue `seq` is unique, so the key identifies the event.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (and, among equals, the first-pushed) event on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Smallest bucket count the calendar ever shrinks to.
const MIN_BUCKETS: usize = 16;

/// Forward slices a pop walks before falling back to a direct minimum
/// search (which then jumps the cursor across the sparse gap). Any cap up
/// to one full revolution is correct; a small one bounds the walk.
const MAX_SLICE_WALK: u64 = 64;

/// A time-ordered event queue with stable FIFO tie-breaking, implemented as
/// a self-resizing calendar queue (see the module docs).
///
/// Observably identical to the binary heap it replaced — same pop order,
/// same conservation counters — which a proptest pins.
///
/// Generic over the payload (the ordering never looks at it): the public
/// vocabulary is [`OrchEvent`]; the orchestrator queues a compact private
/// form of it whose VM names are already resolved.
#[derive(Debug)]
pub struct EventQueue<E = OrchEvent> {
    /// `nbuckets` buckets; each sorted by `(at, seq)` *descending*, so the
    /// bucket's earliest event is at the back (O(1) removal).
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Nanoseconds per calendar slice; slice `at / width` hashes to bucket
    /// `slice % nbuckets`.
    width: u64,
    /// Current slice: every queued event's slice is `>= cursor_slice`.
    cursor_slice: u64,
    /// Events currently queued (cached across all buckets).
    len: usize,
    next_seq: u64,
    pushed: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1,
            cursor_slice: 0,
            len: 0,
            next_seq: 0,
            pushed: 0,
            popped: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    fn slice_of(&self, at: Nanoseconds) -> u64 {
        at.0 / self.width
    }

    /// Insert into the slice's bucket, keeping it sorted descending.
    fn insert(&mut self, s: Scheduled<E>) {
        let slice = self.slice_of(s.at);
        if self.len == 0 || slice < self.cursor_slice {
            // An event landing before the cursor rewinds it, so the next
            // pop cannot walk past the new minimum.
            self.cursor_slice = slice;
        }
        let n = self.buckets.len();
        let bucket = &mut self.buckets[(slice % n as u64) as usize];
        let key = (s.at, s.seq);
        let pos = bucket.partition_point(|e| (e.at, e.seq) > key);
        bucket.insert(pos, s);
        self.len += 1;
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: Nanoseconds, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.insert(Scheduled { at, seq, event });
        if self.len > 2 * self.buckets.len() {
            self.rebucket(self.buckets.len() * 2);
        }
    }

    /// Pop the earliest event (FIFO among same-instant events).
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        // Walk forward from the cursor: all events sit at or after it, and
        // within one revolution a bucket whose earliest event matches the
        // examined slice holds the global minimum.
        let walk = MAX_SLICE_WALK.min(n);
        let mut found = None;
        for step in 0..walk {
            let slice = self.cursor_slice + step;
            let bucket = &self.buckets[(slice % n) as usize];
            if let Some(last) = bucket.last() {
                if self.slice_of(last.at) == slice {
                    found = Some(slice);
                    break;
                }
            }
        }
        // Sparse gap: locate the minimum directly across the bucket backs
        // (each back is its bucket's earliest event) and jump the cursor.
        let slice = found.unwrap_or_else(|| {
            let min = self
                .buckets
                .iter()
                .filter_map(|b| b.last())
                .map(|s| (s.at, s.seq))
                .min()
                .expect("len > 0");
            self.slice_of(min.0)
        });
        self.cursor_slice = slice;
        let ev = self.buckets[(slice % n) as usize]
            .pop()
            .expect("bucket verified non-empty");
        self.len -= 1;
        self.popped += 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.rebucket(self.buckets.len() / 2);
        }
        Some(ev)
    }

    /// Redistribute every event over `new_n` buckets, re-deriving the slice
    /// width from the current span per event. Purely a function of the
    /// queue's contents, so replays resize identically.
    fn rebucket(&mut self, new_n: usize) {
        let new_n = new_n.max(MIN_BUCKETS);
        let mut all: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        self.len = 0;
        if all.is_empty() {
            self.width = 1;
            self.cursor_slice = 0;
            return;
        }
        let min_at = all.iter().map(|s| s.at.0).min().expect("non-empty");
        let max_at = all.iter().map(|s| s.at.0).max().expect("non-empty");
        // Width ~ average spacing, so neighbours land about a slice apart.
        self.width = ((max_at - min_at) / all.len() as u64).max(1);
        self.cursor_slice = min_at / self.width;
        for s in all {
            self.insert(s);
        }
    }

    /// Events currently waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled (conservation accounting: at any point
    /// `pushed() == popped() + len()`, so no event can be silently lost).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events ever delivered.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The original binary-heap event queue, kept as the reference the
    /// calendar queue is equivalence-pinned against. Identical interface
    /// and ordering contract.
    #[derive(Debug, Default)]
    struct MinHeapQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
        pushed: u64,
        popped: u64,
    }

    impl MinHeapQueue {
        /// An empty queue.
        fn new() -> Self {
            MinHeapQueue::default()
        }

        /// Schedule `event` to fire at `at`.
        fn push(&mut self, at: Nanoseconds, event: OrchEvent) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pushed += 1;
            self.heap.push(Scheduled { at, seq, event });
        }

        /// Pop the earliest event (FIFO among same-instant events).
        fn pop(&mut self) -> Option<Scheduled> {
            let ev = self.heap.pop();
            if ev.is_some() {
                self.popped += 1;
            }
            ev
        }

        /// Events currently waiting.
        fn len(&self) -> usize {
            self.heap.len()
        }

        /// Total events ever scheduled.
        fn pushed(&self) -> u64 {
            self.pushed
        }

        /// Total events ever delivered.
        fn popped(&self) -> u64 {
            self.popped
        }
    }

    fn ev(tag: u32) -> OrchEvent {
        OrchEvent::LoadChange {
            vm: format!("vm-{tag}"),
            cpu_demand_millicores: tag,
        }
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(Nanoseconds(30), ev(0));
        q.push(Nanoseconds(10), ev(1));
        q.push(Nanoseconds(10), ev(2));
        q.push(Nanoseconds(20), ev(3));
        q.push(Nanoseconds(10), ev(4));

        let order: Vec<(u64, OrchEvent)> = std::iter::from_fn(|| q.pop())
            .map(|s| (s.at.0, s.event))
            .collect();
        assert_eq!(
            order,
            vec![
                (10, ev(1)),
                (10, ev(2)),
                (10, ev(4)),
                (20, ev(3)),
                (30, ev(0)),
            ]
        );
        assert_eq!(q.pushed(), 5);
        assert_eq!(q.popped(), 5);
    }

    /// Enough volume to force several grow rebucketings on the way up and
    /// shrink rebucketings on the way down, with heavy same-instant ties —
    /// compared pop-for-pop against the reference heap.
    #[test]
    fn calendar_matches_heap_at_resize_churn_volume() {
        let mut cal = EventQueue::new();
        let mut heap = MinHeapQueue::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for tag in 0..10_000u32 {
            // xorshift*: cheap deterministic spread with clustering.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let t = Nanoseconds(x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 997);
            cal.push(t, ev(tag));
            heap.push(t, ev(tag));
        }
        while let Some(expect) = heap.pop() {
            let got = cal.pop().expect("calendar drained early");
            assert_eq!(
                (got.at, got.seq, got.event),
                (expect.at, expect.seq, expect.event)
            );
        }
        assert!(cal.pop().is_none());
        assert_eq!(cal.pushed(), cal.popped());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Events pop in non-decreasing time order, FIFO among ties, and the
        /// conservation invariant pushed == popped + len holds throughout.
        #[test]
        fn property_time_order_and_conservation(
            times in proptest::collection::vec(0u64..50, 1..120),
        ) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Nanoseconds(t), ev(i as u32));
                prop_assert_eq!(q.pushed(), q.popped() + q.len() as u64);
            }

            let mut last: Option<(Nanoseconds, u64)> = None;
            let mut seen = 0usize;
            while let Some(s) = q.pop() {
                if let Some((t, seq)) = last {
                    prop_assert!(s.at >= t, "time went backwards");
                    if s.at == t {
                        prop_assert!(s.seq > seq, "FIFO tie-break violated");
                    }
                }
                last = Some((s.at, s.seq));
                seen += 1;
                prop_assert_eq!(q.pushed(), q.popped() + q.len() as u64);
            }
            prop_assert_eq!(seen, times.len());
        }

        /// Interleaved pushes and pops never lose or duplicate an event.
        #[test]
        fn property_interleaved_ops_conserve_events(
            ops in proptest::collection::vec((0u64..40, any::<bool>()), 1..100),
        ) {
            let mut q = EventQueue::new();
            let mut tag = 0u32;
            let mut delivered = Vec::new();
            for &(t, is_pop) in &ops {
                if is_pop {
                    if let Some(s) = q.pop() {
                        delivered.push(s.event);
                    }
                } else {
                    q.push(Nanoseconds(t), ev(tag));
                    tag += 1;
                }
            }
            while let Some(s) = q.pop() {
                delivered.push(s.event);
            }
            // Every pushed event was delivered exactly once.
            prop_assert_eq!(delivered.len() as u64, q.pushed());
            prop_assert_eq!(q.pushed(), q.popped());
            let mut tags: Vec<u32> = delivered
                .iter()
                .map(|e| match e {
                    OrchEvent::LoadChange { cpu_demand_millicores, .. } => *cpu_demand_millicores,
                    _ => unreachable!(),
                })
                .collect();
            tags.sort_unstable();
            prop_assert_eq!(tags, (0..tag).collect::<Vec<u32>>());
        }

        /// The calendar queue is observably identical to the reference
        /// min-heap: identical `(at, seq)` pop order and identical events,
        /// across interleaved push/pop sequences whose volumes force both
        /// grow and shrink rebucketings mid-stream. Wide and tight time
        /// ranges exercise both sparse slices (direct-search jumps) and
        /// heavy FIFO ties.
        #[test]
        fn property_calendar_queue_equals_min_heap(
            ops in proptest::collection::vec(
                (0u64..5_000_000, 0u8..4), 1..500
            ),
            tight in any::<bool>(),
        ) {
            let mut cal = EventQueue::new();
            let mut heap = MinHeapQueue::new();
            let mut tag = 0u32;
            for &(t, op) in &ops {
                let t = Nanoseconds(if tight { t % 7 } else { t });
                if op == 0 {
                    let a = cal.pop();
                    let b = heap.pop();
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(
                                (x.at, x.seq, x.event),
                                (y.at, y.seq, y.event)
                            );
                        }
                        _ => prop_assert!(false, "one queue drained early"),
                    }
                } else {
                    cal.push(t, ev(tag));
                    heap.push(t, ev(tag));
                    tag += 1;
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            loop {
                match (cal.pop(), heap.pop()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        prop_assert_eq!((x.at, x.seq, x.event), (y.at, y.seq, y.event));
                    }
                    _ => {
                        prop_assert!(false, "one queue drained early");
                        break;
                    }
                }
            }
            prop_assert_eq!(cal.pushed(), heap.pushed());
            prop_assert_eq!(cal.popped(), heap.popped());
        }
    }
}
