//! The one input a migration takes: [`MigrationPlan`].
//!
//! A plan says which engine a migration rides, how many streams carry it,
//! how its pages are compressed and how its demand faults are serviced.
//! [`execute`](crate::execute) validates it once on entry, so a nonsensical
//! knob fails fast, before any byte is sent, instead of silently shaping a
//! run.

use std::num::NonZeroUsize;

use rvisor_types::{Error, Result};

use crate::compress::PageCompression;

/// Which engine a [`MigrationPlan`] selects.
///
/// Deliberately *not* the report-side [`MigrationKind`](crate::MigrationKind):
/// a plan is an input (what we decided to do), a kind is an observation
/// (what the report says happened). Keeping them separate lets either grow
/// without entangling the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanEngine {
    /// Pause, copy everything, resume (cold migration).
    StopAndCopy,
    /// Iterative pre-copy (the default live migration).
    #[default]
    PreCopy,
    /// Post-copy with demand paging.
    PostCopy,
}

impl PlanEngine {
    /// Stable lowercase label (trace args, report tables).
    pub fn name(&self) -> &'static str {
        match self {
            PlanEngine::StopAndCopy => "stop-and-copy",
            PlanEngine::PreCopy => "pre-copy",
            PlanEngine::PostCopy => "post-copy",
        }
    }
}

/// How a post-copy migration services its demand faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultService {
    /// Faulted pages wait for the background sweep to reach them; each
    /// fault additionally serializes one propagation delay behind its
    /// predecessors (the proptest-pinned reference discipline).
    #[default]
    Sweep,
    /// Faulted pages ride a dedicated stream that overtakes the background
    /// sweep: they are encoded and delivered *first*, and no per-fault
    /// serialization penalty accrues. Always one stream: the lane is the
    /// second.
    FaultLane,
}

impl FaultService {
    /// Stable lowercase label (trace args, report tables).
    pub fn name(&self) -> &'static str {
        match self {
            FaultService::Sweep => "sweep",
            FaultService::FaultLane => "fault-lane",
        }
    }
}

/// The full decision for one migration: engine, scheduler shape, and
/// fault-service policy.
///
/// # Which plan do I want?
///
/// | Guest | Plan | Why |
/// |---|---|---|
/// | Tiny, or already paused | [`PlanEngine::StopAndCopy`] | The full copy is cheap; no rounds, no fault tail |
/// | Default live migration | [`PlanEngine::PreCopy`] | Downtime is only the residual dirty set |
/// | Big guest, idle fabric | [`PlanEngine::PreCopy`] + [`streams`](MigrationPlan::streams) > 1 | Stripes ECMP-spread over idle spine paths |
/// | Write-heavy (pre-copy cannot converge) | [`PlanEngine::PostCopy`] | Downtime is the vCPU state only |
/// | Write-heavy *and* latency-sensitive | [`PlanEngine::PostCopy`] + [`FaultService::FaultLane`] | Faulted pages overtake the sweep; no serialization tail |
/// | Sparse or duplicate-heavy memory | [`PlanEngine::PreCopy`] + [`PageCompression`] | Zero runs / XBZRLE deltas shrink bytes on wire |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPlan {
    /// Which engine this migration rides.
    pub engine: PlanEngine,
    /// How many parallel streams carry the migration (at most
    /// [`MAX_MIGRATION_STREAMS`]). The page-index space is sharded into this
    /// many fixed contiguous stripes and one lane — its own encoder, sink
    /// and segment buffer — streams each ([`crate::pipeline`]). Stripe `s`
    /// owns a fixed range of page indices, so a page always travels on the
    /// same stream and no two lanes touch the same destination page. A
    /// fault-lane post-copy runs one stream whatever this says: the lane
    /// *is* its second stream.
    pub streams: NonZeroUsize,
    /// Pre-copy: how page contents are compressed before crossing the wire
    /// (zero-page detection and/or XBZRLE delta encoding). Stop-and-copy
    /// and post-copy send every page once, raw.
    pub compression: PageCompression,
    /// Pre-copy with XBZRLE: how many previously-sent pages the delta cache
    /// remembers. Pages evicted from the cache are retransmitted raw, so a
    /// cache smaller than the guest's write working set erases most of the
    /// technique's benefit (the ablation knob of E4e).
    pub xbzrle_cache_pages: usize,
    /// How post-copy demand faults are serviced (ignored by the other
    /// engines).
    pub fault_service: FaultService,
    /// Pre-copy: maximum number of iterative rounds before forcing the stop
    /// phase.
    pub max_rounds: u32,
    /// Pre-copy: stop iterating once the dirty set is at most this many
    /// pages.
    pub dirty_page_threshold: u64,
    /// Post-copy: fraction of pages that are demand-faulted (the rest
    /// arrive via the background sweep before the guest touches them).
    pub postcopy_fault_fraction: f64,
}

/// Harness-frozen name for [`MigrationPlan`]: `perfbench/` builds its plans
/// as `MigrationConfig { .. }` literals. Nothing else names it; it goes when
/// the next `benchmark` PR re-points the harness.
pub type MigrationConfig = MigrationPlan;

/// Upper bound on [`MigrationPlan::streams`]: beyond this, per-stream
/// framing overhead and thread fan-out cost more than they could ever buy.
pub const MAX_MIGRATION_STREAMS: usize = 64;

impl Default for MigrationPlan {
    fn default() -> Self {
        MigrationPlan {
            engine: PlanEngine::default(),
            streams: NonZeroUsize::MIN,
            compression: PageCompression::None,
            // 256 MiB of cached page versions, mirroring QEMU's default-ish
            // cache sizing scaled to the simulated guests.
            xbzrle_cache_pages: 65_536,
            fault_service: FaultService::default(),
            max_rounds: 30,
            dirty_page_threshold: 64,
            postcopy_fault_fraction: 0.1,
        }
    }
}

impl MigrationPlan {
    /// Validate the plan:
    ///
    /// * `postcopy_fault_fraction` must lie in `[0, 1]` (NaN is rejected) —
    ///   it is a fraction of the guest's pages;
    /// * `max_rounds` must be at least 1 (pre-copy needs its full first
    ///   round);
    /// * `xbzrle_cache_pages` must be non-zero when XBZRLE is selected;
    /// * `streams` must not exceed [`MAX_MIGRATION_STREAMS`].
    ///
    /// Network-side knobs (bandwidth, MTU) live in
    /// [`rvisor_net::ClosParams`] / [`rvisor_net::LinkModel`] and are
    /// validated when the fabric is built.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.postcopy_fault_fraction) {
            return Err(Error::Migration(format!(
                "postcopy_fault_fraction must be within [0, 1], got {}",
                self.postcopy_fault_fraction
            )));
        }
        if self.max_rounds == 0 {
            return Err(Error::Migration(
                "max_rounds must be at least 1 (pre-copy needs its first round)".into(),
            ));
        }
        if self.compression == PageCompression::Xbzrle && self.xbzrle_cache_pages == 0 {
            return Err(Error::Migration(
                "xbzrle_cache_pages must be non-zero when XBZRLE is enabled".into(),
            ));
        }
        if self.streams.get() > MAX_MIGRATION_STREAMS {
            return Err(Error::Migration(format!(
                "streams must be at most {MAX_MIGRATION_STREAMS}, got {}",
                self.streams
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(PlanEngine::StopAndCopy.name(), "stop-and-copy");
        assert_eq!(PlanEngine::PreCopy.name(), "pre-copy");
        assert_eq!(PlanEngine::PostCopy.name(), "post-copy");
        assert_eq!(FaultService::Sweep.name(), "sweep");
        assert_eq!(FaultService::FaultLane.name(), "fault-lane");
    }

    #[test]
    fn default_plan_matches_default_config() {
        // A one-stream, uncompressed, sweep-ordered pre-copy with the round
        // budget and thresholds every recorded table was produced under.
        let plan = MigrationPlan::default();
        assert_eq!(plan.engine, PlanEngine::PreCopy);
        assert_eq!(plan.fault_service, FaultService::Sweep);
        assert_eq!(plan.streams.get(), 1);
        assert_eq!(plan.compression, PageCompression::None);
        assert_eq!((plan.max_rounds, plan.dirty_page_threshold), (30, 64));
        assert_eq!(plan.postcopy_fault_fraction, 0.1);
        plan.validate().unwrap();
    }
}
