//! The event vocabulary and the deterministic event queue.
//!
//! Everything the orchestrator does happens in response to an [`OrchEvent`].
//! A day draws them from sources that are each already in time order — the
//! scenario's sorted event list, the two periodic tick series, and an
//! [`EventQueue`] holding the DR restore completions that failure handling
//! schedules mid-run — and fires the earliest head each step (the crate docs
//! give the tie order between sources).
//!
//! The queue orders events by `(Nanoseconds, sequence)`: events fire in
//! non-decreasing simulated-time order, and events scheduled for the same
//! instant fire in the order they were pushed (FIFO tie-breaking). That
//! stable tie-break is what makes two runs of the same scenario
//! byte-identical — ordering over time alone would leave same-instant
//! ordering unspecified. It is a binary heap: a day queues at most one
//! completion per VM a host failure took down, so the heap stays small.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// Internal: periodic rebalance, where the policy inspects utilization
    /// and may migrate. The orchestrator schedules these every
    /// `rebalance_interval`; a scenario that lists one is refused.
    RebalanceTick,
    /// Internal: periodic backup, where every placed VM is snapshotted to the
    /// DR store. The orchestrator schedules these every `backup_interval`; a
    /// scenario that lists one is refused.
    BackupTick,
    /// Internal: a DR restore of `vm` finishes (scheduled after a
    /// [`HostFailure`](OrchEvent::HostFailure), delayed by detection time
    /// plus restore transfer time). A scenario that lists one is refused.
    RestoreComplete {
        /// Name of the VM whose restore completes.
        vm: String,
    },
}

impl OrchEvent {
    /// Short label for logs and reports.
    pub(crate) fn kind(&self) -> &'static str {
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
    pub(crate) at: Nanoseconds,
    /// Push order, used to break same-instant ties deterministically.
    pub(crate) seq: u64,
    /// The event itself.
    pub(crate) event: E,
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

/// A time-ordered event queue with stable FIFO tie-breaking: a binary heap
/// of [`Scheduled`] entries plus the conservation counters.
///
/// Generic over the payload (the ordering never looks at it): the public
/// vocabulary is [`OrchEvent`]; the orchestrator queues only the VM keys of
/// its pending restore completions.
#[derive(Debug)]
pub struct EventQueue<E = OrchEvent> {
    heap: BinaryHeap<Scheduled<E>>,
    pushed: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: Nanoseconds, event: E) {
        let seq = self.pushed;
        self.pushed += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pop the earliest event (FIFO among same-instant events).
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let ev = self.heap.pop()?;
        self.popped += 1;
        Some(ev)
    }

    /// The event [`Self::pop`] would return next, left in place.
    pub(crate) fn peek(&self) -> Option<&Scheduled<E>> {
        self.heap.peek()
    }

    /// Total events ever scheduled (conservation accounting: at any point
    /// `pushed() == popped() + len()`, so no event can be silently lost).
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<E> EventQueue<E> {
        /// Events currently waiting.
        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }

        /// Total events ever delivered.
        pub(crate) fn popped(&self) -> u64 {
            self.popped
        }
    }

    /// The ordering contract written out: every event pushed so far, with
    /// its push index as `seq`; a pop removes the least `(at, seq)`.
    #[derive(Default)]
    struct SortedModel {
        events: Vec<Scheduled>,
        pushed: u64,
    }

    impl SortedModel {
        fn push(&mut self, at: Nanoseconds, event: OrchEvent) {
            let seq = self.pushed;
            self.pushed += 1;
            self.events.push(Scheduled { at, seq, event });
        }

        fn pop(&mut self) -> Option<Scheduled> {
            let key = |s: &Scheduled| (s.at, s.seq);
            let first = (0..self.events.len()).min_by_key(|&i| key(&self.events[i]))?;
            Some(self.events.remove(first))
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

    /// Ten thousand events with heavy same-instant ties, drained
    /// pop-for-pop against the pushes sorted by `(at, seq)`.
    #[test]
    fn calendar_matches_heap_at_resize_churn_volume() {
        let mut queue = EventQueue::new();
        let mut pushes = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for tag in 0..10_000u32 {
            // xorshift*: cheap deterministic spread with clustering.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let t = Nanoseconds(x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 997);
            queue.push(t, ev(tag));
            pushes.push((t, u64::from(tag), ev(tag)));
        }
        pushes.sort_by_key(|&(at, seq, _)| (at, seq));
        for expect in pushes {
            let got = queue.pop().expect("queue drained early");
            assert_eq!((got.at, got.seq, got.event), expect);
        }
        assert!(queue.pop().is_none());
        assert_eq!(queue.pushed(), queue.popped());
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

        /// The queue is observably the sorted model: identical `(at, seq)`
        /// pop order, identical events and an exact `peek`, across
        /// interleaved push/pop sequences. Wide and tight time ranges
        /// exercise both sparse instants and heavy FIFO ties.
        #[test]
        fn property_calendar_queue_equals_min_heap(
            ops in proptest::collection::vec(
                (0u64..5_000_000, 0u8..4), 1..500
            ),
            tight in any::<bool>(),
        ) {
            let mut queue = EventQueue::new();
            let mut model = SortedModel::default();
            let mut tag = 0u32;
            for &(t, op) in &ops {
                let t = Nanoseconds(if tight { t % 7 } else { t });
                if op == 0 {
                    let peeked = queue.peek().map(|s| (s.at, s.seq));
                    let a = queue.pop();
                    prop_assert_eq!(peeked, a.as_ref().map(|s| (s.at, s.seq)));
                    let b = model.pop();
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
                    queue.push(t, ev(tag));
                    model.push(t, ev(tag));
                    tag += 1;
                }
                prop_assert_eq!(queue.len(), model.events.len());
            }
            loop {
                match (queue.pop(), model.pop()) {
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
            prop_assert_eq!(queue.pushed(), model.pushed);
            prop_assert_eq!(queue.popped(), queue.pushed());
        }
    }
}
