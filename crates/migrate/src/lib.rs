//! # rvisor-migrate
//!
//! Live migration engines. Moving a running VM between hosts is the
//! flagship capability that justifies clustered virtualization (maintenance
//! without downtime, load balancing, disaster recovery), and its two key
//! metrics — **downtime** (how long the guest is paused) and **total
//! migration time** — are what experiment E4 sweeps against guest dirty
//! rate, RAM size and link bandwidth.
//!
//! Three engines are provided, mirroring the literature:
//!
//! * [`PlanEngine::StopAndCopy`] — pause, copy everything, resume: minimal
//!   total time, worst downtime (∝ RAM size / bandwidth).
//! * [`PlanEngine::PreCopy`] — iterative rounds copy memory while the guest
//!   runs; each round copies the pages dirtied during the previous round;
//!   when the dirty set stops shrinking (or a round budget is hit) the guest
//!   pauses for a final short stop-and-copy. Downtime ∝ residual dirty set.
//! * [`PlanEngine::PostCopy`] — pause only to move vCPU state, resume on the
//!   destination immediately, and pull pages over the network on demand
//!   (plus a background sweep). Downtime is minimal and constant; the cost
//!   is degraded performance while remote faults are outstanding.
//!
//! The guest's memory-dirtying behaviour during migration is abstracted as a
//! [`DirtySource`], so the examples can sweep dirty rates precisely.
//!
//! Pre-copy transfers can additionally be compressed with zero-page
//! detection and XBZRLE delta encoding (the [`compress`] module), the two
//! techniques production migration stacks use to survive write-heavy guests
//! on thin links.
//!
//! ## One executor, two schedulers
//!
//! There is one way to run a migration: [`execute`] takes a
//! [`MigrationPlan`], opens a [`wire`] stream from the source to the
//! destination across a [`Transport`] and runs the one engine body
//! `plan.engine` names. The stream is real bytes in the versioned wire
//! format: framed page records with compression mode, run-length zero
//! pages, per-frame checksums verified before anything touches the
//! destination, and end-of-round markers. Point the transport at a
//! [`LoopbackTransport`] and the bytes are timed by one point-to-point
//! link; at a [`FabricTransport`] and the same migration pays per-host NIC
//! serialization, shared-backbone contention and MTU chunk framing
//! (experiment E17).
//!
//! Who moves a round's pages is a property of the plan, not of the entry
//! point:
//!
//! * **inline** (`plan.streams == 1`, the [`stream`] module) — the calling
//!   thread encodes at most 64 pages into one reused buffer, applies them on
//!   the destination while they are in cache, and repeats.
//! * **lanes** (`plan.streams > 1`, the [`pipeline`] module) — the
//!   page-index space is sharded into fixed stripes and one thread per
//!   stripe runs that same segment loop over its own stripe, while the
//!   calling thread runs the engine and sends the control frames.
//!   Byte-identical and report-`==` to the inline schedule (pinned by
//!   proptest); the win is host wall-clock on hosts whose cores run threads
//!   in parallel (experiment E18). See the [`pipeline`] module docs for what
//!   the fair-share multi-stream network model does and does not capture.
//!
//! ## Which plan do I want?
//!
//! | Guest | Plan |
//! |-------|------|
//! | Tiny (fits one stop-the-world copy in the downtime budget) | [`PlanEngine::StopAndCopy`], 1 stream |
//! | Large, mostly idle, fabric idle | [`PlanEngine::PreCopy`], several streams |
//! | Large, write-heavy, thin link | [`PlanEngine::PreCopy`], [`PageCompression::Xbzrle`] |
//! | Dirty-hot (pre-copy would never converge) | [`PlanEngine::PostCopy`] + [`FaultService::FaultLane`] |
//! | Don't know / measuring | [`MigrationPlan::default`] (pre-copy) — it observes the dirty rate for next time |
//!
//! The `rvisor-orch` `MigrationPlanner` automates exactly this table from
//! observed dirty rate, guest size and fabric occupancy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod compress;
pub mod dirty;
pub mod engines;
pub mod pipeline;
pub mod plan;
pub mod report;
pub mod stream;
pub mod transport;
pub mod wire;

pub use compress::PageCompression;
pub use dirty::{ConstantRateDirtier, DirtySource, IdleDirtier};
pub use engines::{execute, sweep_mean_fault_latency, PostCopy, PreCopy, StopAndCopy};
pub use plan::{FaultService, MigrationConfig, MigrationPlan, PlanEngine, MAX_MIGRATION_STREAMS};
pub use report::{MigrationKind, MigrationReport, RoundStat};
pub use stream::{MigrationSink, MigrationSource};
pub use transport::{FabricTransport, LoopbackTransport, Transport};

#[cfg(test)]
mod reference;
