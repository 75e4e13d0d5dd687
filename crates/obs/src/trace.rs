//! Trace emission: the [`TraceSink`] trait, the cheap [`Trace`] handle the
//! data path carries, and the in-memory [`Recorder`] sink.
//!
//! Everything is keyed by *simulated* [`Nanoseconds`]. No wall clock, no
//! thread IDs, no allocation-order artifacts: a sink fed by a deterministic
//! simulation records a deterministic event sequence, which is what lets CI
//! byte-diff the exported trace of two same-seed runs.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use rvisor_types::Nanoseconds;

use crate::metrics::Metrics;

/// A borrowed argument value attached to a trace event.
///
/// Arguments are passed as stack slices of `(key, value)` pairs so that
/// emitting an event with tracing *off* performs no heap allocation — the
/// [`Trace`] handle drops the whole slice before anything is copied.
#[derive(Debug, Clone, Copy)]
pub enum ArgValue<'a> {
    /// An unsigned integer (byte counts, page counts, durations in ns).
    U64(u64),
    /// A borrowed string (VM names, engine names, reason codes).
    Str(&'a str),
}

/// The stack-borrowed argument list every emit method takes.
pub type Args<'a> = [(&'static str, ArgValue<'a>)];

/// Where trace events and metric samples go.
///
/// Implementations must be deterministic functions of the call sequence:
/// no wall-clock reads, no randomized iteration order.
pub trait TraceSink {
    /// A closed interval of simulated time on `track` (a migration, a
    /// pre-copy round, a fabric transfer).
    fn span(
        &mut self,
        track: &'static str,
        name: &'static str,
        start: Nanoseconds,
        end: Nanoseconds,
        args: &Args<'_>,
    );

    /// A zero-duration event on `track` (a placement, a policy decision,
    /// a host failure).
    fn instant(
        &mut self,
        track: &'static str,
        name: &'static str,
        at: Nanoseconds,
        args: &Args<'_>,
    );

    /// A sampled counter value on `track` at simulated instant `at`
    /// (cumulative bytes carried by the fabric, live transfer count).
    fn counter(&mut self, track: &'static str, name: &'static str, at: Nanoseconds, value: u64);

    /// Increment the named metrics counter by `delta`.
    fn add(&mut self, counter: &'static str, delta: u64);

    /// Record `value` into the named log2 integer histogram.
    fn observe(&mut self, histogram: &'static str, value: u64);
}

/// The handle the data path carries: either *off* (the default — every emit
/// method is a branch on `None` and returns immediately, allocating nothing)
/// or a shared reference to a [`TraceSink`].
///
/// Cloning an *on* handle shares the sink, so a [`Trace`] can be fanned out
/// to the fabric, the cluster and the orchestrator while all events land in
/// one ordered stream.
#[derive(Clone, Default)]
pub struct Trace(Option<Rc<RefCell<dyn TraceSink>>>);

impl Trace {
    /// The disabled handle: every emit is a no-op.
    pub fn off() -> Trace {
        Trace(None)
    }

    /// A handle writing into an arbitrary shared sink.
    pub fn to(sink: Rc<RefCell<dyn TraceSink>>) -> Trace {
        Trace(Some(sink))
    }

    /// A handle writing into a fresh in-memory [`Recorder`]; returns the
    /// recorder too so the caller can export what was captured.
    pub fn recording() -> (Trace, Rc<RefCell<Recorder>>) {
        let recorder = Rc::new(RefCell::new(Recorder::new()));
        let sink: Rc<RefCell<dyn TraceSink>> = recorder.clone();
        (Trace(Some(sink)), recorder)
    }

    /// Whether a sink is attached. Hot paths gate argument *construction*
    /// on this so an off-mode round does not even format its labels.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Emit a span; no-op when off.
    #[inline]
    pub fn span(
        &self,
        track: &'static str,
        name: &'static str,
        start: Nanoseconds,
        end: Nanoseconds,
        args: &Args<'_>,
    ) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().span(track, name, start, end, args);
        }
    }

    /// Emit an instant; no-op when off.
    #[inline]
    pub fn instant(
        &self,
        track: &'static str,
        name: &'static str,
        at: Nanoseconds,
        args: &Args<'_>,
    ) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().instant(track, name, at, args);
        }
    }

    /// Emit a counter sample; no-op when off.
    #[inline]
    pub fn counter(&self, track: &'static str, name: &'static str, at: Nanoseconds, value: u64) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().counter(track, name, at, value);
        }
    }

    /// Increment a metrics counter; no-op when off.
    #[inline]
    pub fn add(&self, counter: &'static str, delta: u64) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().add(counter, delta);
        }
    }

    /// Record a histogram sample; no-op when off.
    #[inline]
    pub fn observe(&self, histogram: &'static str, value: u64) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().observe(histogram, value);
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_on() {
            "Trace(on)"
        } else {
            "Trace(off)"
        })
    }
}

/// An owned argument value, as stored by the [`Recorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedArg {
    /// An unsigned integer.
    U64(u64),
    /// An owned string.
    Str(String),
}

impl From<ArgValue<'_>> for OwnedArg {
    fn from(v: ArgValue<'_>) -> OwnedArg {
        match v {
            ArgValue::U64(n) => OwnedArg::U64(n),
            ArgValue::Str(s) => OwnedArg::Str(s.to_string()),
        }
    }
}

/// The shape of one recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval of simulated time.
    Span {
        /// Interval start.
        start: Nanoseconds,
        /// Interval end (`>= start`).
        end: Nanoseconds,
    },
    /// A zero-duration event.
    Instant {
        /// The instant it fired.
        at: Nanoseconds,
    },
    /// A sampled counter value.
    Counter {
        /// The sample instant.
        at: Nanoseconds,
        /// The sampled value.
        value: u64,
    },
}

/// One recorded trace event, with owned arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The track (Chrome-trace thread) the event renders on.
    pub track: &'static str,
    /// The event name.
    pub name: &'static str,
    /// Span, instant, or counter sample.
    pub kind: EventKind,
    /// The owned `(key, value)` arguments.
    pub args: Vec<(&'static str, OwnedArg)>,
}

/// An in-memory sink: records every event in emission order and folds
/// counter/histogram samples into a [`Metrics`] registry.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<TraceEvent>,
    metrics: Metrics,
}

impl Recorder {
    /// An empty recorder.
    pub(crate) fn new() -> Recorder {
        Recorder::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The metrics registry fed by [`TraceSink::add`] / [`TraceSink::observe`].
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

fn own_args(args: &Args<'_>) -> Vec<(&'static str, OwnedArg)> {
    args.iter().map(|&(k, v)| (k, OwnedArg::from(v))).collect()
}

impl TraceSink for Recorder {
    fn span(
        &mut self,
        track: &'static str,
        name: &'static str,
        start: Nanoseconds,
        end: Nanoseconds,
        args: &Args<'_>,
    ) {
        self.events.push(TraceEvent {
            track,
            name,
            kind: EventKind::Span { start, end },
            args: own_args(args),
        });
    }

    fn instant(
        &mut self,
        track: &'static str,
        name: &'static str,
        at: Nanoseconds,
        args: &Args<'_>,
    ) {
        self.events.push(TraceEvent {
            track,
            name,
            kind: EventKind::Instant { at },
            args: own_args(args),
        });
    }

    fn counter(&mut self, track: &'static str, name: &'static str, at: Nanoseconds, value: u64) {
        self.events.push(TraceEvent {
            track,
            name,
            kind: EventKind::Counter { at, value },
            args: Vec::new(),
        });
    }

    fn add(&mut self, counter: &'static str, delta: u64) {
        self.metrics.add(counter, delta);
    }

    fn observe(&mut self, histogram: &'static str, value: u64) {
        self.metrics.observe(histogram, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_silent_and_cheap() {
        let t = Trace::off();
        assert!(!t.is_on());
        t.span("a", "b", Nanoseconds::ZERO, Nanoseconds(5), &[]);
        t.instant("a", "b", Nanoseconds::ZERO, &[("k", ArgValue::U64(1))]);
        t.counter("a", "b", Nanoseconds::ZERO, 7);
        t.add("c", 1);
        t.observe("h", 2);
        assert_eq!(format!("{t:?}"), "Trace(off)");
    }

    #[test]
    fn recorder_keeps_emission_order_and_owns_args() {
        let (t, rec) = Trace::recording();
        assert!(t.is_on());
        assert_eq!(format!("{t:?}"), "Trace(on)");
        let name = String::from("vm-17");
        t.span(
            "migrate",
            "pre-copy",
            Nanoseconds(10),
            Nanoseconds(20),
            &[("vm", ArgValue::Str(&name)), ("pages", ArgValue::U64(64))],
        );
        t.instant("orch", "placement", Nanoseconds(15), &[]);
        t.counter("fabric", "bytes", Nanoseconds(16), 1234);
        t.add("migrations", 1);
        t.observe("downtime", 500);
        drop(name);

        let rec = rec.borrow();
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "pre-copy");
        assert_eq!(
            events[0].args[0],
            ("vm", OwnedArg::Str("vm-17".to_string()))
        );
        assert_eq!(events[0].args[1], ("pages", OwnedArg::U64(64)));
        assert!(matches!(events[1].kind, EventKind::Instant { at } if at == Nanoseconds(15)));
        assert!(
            matches!(events[2].kind, EventKind::Counter { at, value } if at == Nanoseconds(16) && value == 1234)
        );
        assert_eq!(rec.metrics().counter("migrations"), 1);
        assert_eq!(rec.metrics().histogram("downtime").unwrap().count(), 1);
    }

    #[test]
    fn clones_share_one_sink() {
        let (t, rec) = Trace::recording();
        let t2 = t.clone();
        t.instant("a", "x", Nanoseconds(1), &[]);
        t2.instant("a", "y", Nanoseconds(2), &[]);
        assert_eq!(rec.borrow().events().len(), 2);
    }
}
