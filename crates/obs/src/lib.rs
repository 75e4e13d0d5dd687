//! # rvisor-obs
//!
//! The deterministic observability plane: simulated-time trace spans,
//! integer-only metrics, and Chrome trace-event export.
//!
//! The simulator's answer "what happened during this day?" used to be a
//! single flat [`OrchReport`]-style total. This crate makes every internal
//! decision a first-class, replayable artifact while preserving the
//! workspace's core invariant — a run is a pure function of its seed:
//!
//! * every event is keyed by **simulated** [`Nanoseconds`] (never wall
//!   clock), so same-seed runs emit byte-identical traces;
//! * every metric is an **integer** (counters and log2 histograms), so
//!   aggregation is exact and cross-host comparable;
//! * the **off** state is free: [`Trace::off`] is an `Option::None` branch
//!   on every emit path, performs zero heap allocations (alloc-guard-pinned
//!   in `rvisor-migrate`), and a traced run's report is `==` an untraced
//!   run's.
//!
//! ## What gets traced where
//!
//! | Layer | Track | Events |
//! |---|---|---|
//! | `rvisor-migrate` engines | `migrate` | one span per migration (pages, bytes, rounds, compression stats) |
//! | `rvisor-migrate` engines | `migrate/round` | one span per pre-copy round (pages, bytes) + the stop phase |
//! | `rvisor-migrate` pipeline | `migrate/stream` | per-round instants with each stripe's bytes on the wire |
//! | `rvisor-net` fabric | `fabric` | one span per transfer, split into queue-wait vs serialization; cumulative byte/transfer counter samples |
//! | `rvisor-orch` cluster | `cluster` | one span per executed migration (vm, hosts, engine, downtime) |
//! | `rvisor-orch` orchestrator | `orch` | one instant per event-loop event (arrival, departure, failure, ticks) |
//! | `rvisor-orch` orchestrator | `orch/policy` | one instant per policy decision with its typed reason code |
//! | `rvisor-orch` orchestrator | `orch/planner` | one instant per adaptive plan decision (vm, engine, fault service, streams, observed dirty rate, guest bytes, fabric backlog, reason) + a `planner.decisions` counter |
//! | `rvisor-orch` orchestrator | `dr` | one span per backup stream (submit → arrival) and per restore |
//!
//! Histograms fed along the way: migration downtime & duration, per-round
//! pages and bytes-on-wire, placement latency, fabric queue-wait vs
//! serialization, backup arrival lag.
//!
//! ## Exporters
//!
//! [`Metrics::render_text`] renders the registry as deterministic text
//! tables (built on [`TextTable`], which the stdout examples share), and
//! [`chrome_trace_json`] serializes a [`Recorder`]'s events into the Chrome
//! trace-event format, so a whole simulated day loads into Perfetto /
//! `chrome://tracing` as a timeline. [`validate_json`] is the
//! dependency-free validity check the E20 example gates the export on.
//!
//! ```
//! use rvisor_obs::{chrome_trace_json, validate_json, ArgValue, Trace};
//! use rvisor_types::Nanoseconds;
//!
//! let (trace, recorder) = Trace::recording();
//! trace.span(
//!     "migrate",
//!     "pre-copy",
//!     Nanoseconds::ZERO,
//!     Nanoseconds::from_millis(12),
//!     &[("pages", ArgValue::U64(512))],
//! );
//! trace.observe("migration.downtime_ns", 250_000);
//!
//! let recorder = recorder.borrow();
//! let json = chrome_trace_json(recorder.events());
//! assert!(validate_json(&json));
//! assert_eq!(recorder.metrics().histogram("migration.downtime_ns").unwrap().count(), 1);
//! ```
//!
//! [`OrchReport`]: https://docs.rs/rvisor-orch
//! [`Nanoseconds`]: rvisor_types::Nanoseconds

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chrome;
pub mod metrics;
pub mod table;
pub mod trace;

pub use chrome::{chrome_trace_json, validate_json};
pub use metrics::{Log2Histogram, Metrics};
pub use table::{Align, TextTable};
pub use trace::{ArgValue, Args, EventKind, OwnedArg, Recorder, Trace, TraceEvent, TraceSink};
