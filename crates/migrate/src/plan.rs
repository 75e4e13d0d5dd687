//! Per-migration decision objects: [`MigrationPlan`] and the validating
//! builders for it and [`MigrationConfig`].
//!
//! [`MigrationConfig`] is a *run-level* knob set: one engine choice, one
//! stream count, one compression mode applied to every migration a caller
//! starts. A [`MigrationPlan`] is the *per-migration* decision an adaptive
//! control plane makes: which engine this particular VM rides, how many
//! streams it gets, how its demand faults are serviced. The config [lowers
//! into a plan](MigrationConfig::plan) (so every existing entry point keeps
//! compiling and behaving identically), and a plan [lowers back into a
//! config](MigrationPlan::config) where the engine signatures want one.
//!
//! Both types get a validating builder: `builder().streams(4).build()` runs
//! [`MigrationConfig::validate`] exactly once, so a caller can no longer
//! construct a silently-invalid knob set without going out of its way (the
//! plain struct fields stay public for backward compatibility).

use std::num::NonZeroUsize;

use rvisor_types::{Error, Result};

use crate::compress::PageCompression;
use crate::engines::MigrationConfig;

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
    /// serialization penalty accrues
    /// ([`PostCopy::migrate_fault_lane_over`](crate::PostCopy::migrate_fault_lane_over)).
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

/// The full decision for one migration: engine, data-plane shape, and
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
/// | Sparse or duplicate-heavy memory | any + [`PageCompression`] | Zero runs / XBZRLE deltas shrink bytes on wire |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPlan {
    /// Which engine this migration rides.
    pub engine: PlanEngine,
    /// Parallel streams for the pipelined data plane (at most
    /// [`MAX_MIGRATION_STREAMS`](crate::MAX_MIGRATION_STREAMS)); 1 selects
    /// the serial streamed engines.
    pub streams: NonZeroUsize,
    /// Page compression crossing the wire.
    pub compression: PageCompression,
    /// XBZRLE delta-cache capacity in pages (see
    /// [`MigrationConfig::xbzrle_cache_pages`]).
    pub xbzrle_cache_pages: usize,
    /// How post-copy demand faults are serviced (ignored by the other
    /// engines).
    pub fault_service: FaultService,
    /// Pre-copy round budget (see [`MigrationConfig::max_rounds`]).
    pub max_rounds: u32,
    /// Pre-copy convergence threshold in pages (see
    /// [`MigrationConfig::dirty_page_threshold`]).
    pub dirty_page_threshold: u64,
    /// Post-copy demand-faulted fraction (see
    /// [`MigrationConfig::postcopy_fault_fraction`]).
    pub postcopy_fault_fraction: f64,
}

impl Default for MigrationPlan {
    fn default() -> Self {
        MigrationConfig::default().plan(PlanEngine::default())
    }
}

impl MigrationPlan {
    /// A validating builder seeded with the default plan for `engine`.
    pub fn builder(engine: PlanEngine) -> MigrationPlanBuilder {
        MigrationPlanBuilder {
            plan: MigrationConfig::default().plan(engine),
        }
    }

    /// Lower the plan into the run-level knob set the engine entry points
    /// take. The engine choice and fault-service policy do not survive the
    /// lowering — they are dispatch, not knobs.
    pub fn config(&self) -> MigrationConfig {
        MigrationConfig {
            max_rounds: self.max_rounds,
            dirty_page_threshold: self.dirty_page_threshold,
            postcopy_fault_fraction: self.postcopy_fault_fraction,
            compression: self.compression,
            xbzrle_cache_pages: self.xbzrle_cache_pages,
            streams: self.streams,
        }
    }

    /// Validate the plan: every lowered config invariant
    /// ([`MigrationConfig::validate`]); the plan-only knobs cannot be
    /// invalid.
    pub fn validate(&self) -> Result<()> {
        self.config().validate()
    }
}

impl MigrationConfig {
    /// A validating builder seeded with [`MigrationConfig::default`].
    pub fn builder() -> MigrationConfigBuilder {
        MigrationConfigBuilder {
            config: MigrationConfig::default(),
            streams: 1,
        }
    }

    /// Lower this run-level config into a per-migration plan riding
    /// `engine`. The plan-only knob takes its default (sweep-ordered fault
    /// service), so a lowered plan behaves exactly like the config did
    /// before plans existed.
    pub fn plan(&self, engine: PlanEngine) -> MigrationPlan {
        MigrationPlan {
            engine,
            streams: self.streams,
            compression: self.compression,
            xbzrle_cache_pages: self.xbzrle_cache_pages,
            fault_service: FaultService::Sweep,
            max_rounds: self.max_rounds,
            dirty_page_threshold: self.dirty_page_threshold,
            postcopy_fault_fraction: self.postcopy_fault_fraction,
        }
    }
}

/// Builder for [`MigrationConfig`]; [`build`](Self::build) runs
/// [`MigrationConfig::validate`] once.
#[derive(Debug, Clone)]
pub struct MigrationConfigBuilder {
    config: MigrationConfig,
    streams: usize,
}

impl MigrationConfigBuilder {
    /// Set [`MigrationConfig::max_rounds`].
    pub fn max_rounds(mut self, rounds: u32) -> Self {
        self.config.max_rounds = rounds;
        self
    }

    /// Set [`MigrationConfig::dirty_page_threshold`].
    pub fn dirty_page_threshold(mut self, pages: u64) -> Self {
        self.config.dirty_page_threshold = pages;
        self
    }

    /// Set [`MigrationConfig::postcopy_fault_fraction`].
    pub fn postcopy_fault_fraction(mut self, fraction: f64) -> Self {
        self.config.postcopy_fault_fraction = fraction;
        self
    }

    /// Set [`MigrationConfig::compression`].
    pub fn compression(mut self, compression: PageCompression) -> Self {
        self.config.compression = compression;
        self
    }

    /// Set [`MigrationConfig::xbzrle_cache_pages`].
    pub fn xbzrle_cache_pages(mut self, pages: usize) -> Self {
        self.config.xbzrle_cache_pages = pages;
        self
    }

    /// Set [`MigrationConfig::streams`] (zero is rejected by
    /// [`build`](Self::build), like every other invalid knob).
    pub fn streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// Validate and return the config.
    pub fn build(self) -> Result<MigrationConfig> {
        let MigrationConfigBuilder {
            mut config,
            streams,
        } = self;
        config.streams = NonZeroUsize::new(streams)
            .ok_or_else(|| Error::Migration("streams must be at least 1".into()))?;
        config.validate()?;
        Ok(config)
    }
}

/// Builder for [`MigrationPlan`]; [`build`](Self::build) runs
/// [`MigrationPlan::validate`] once.
#[derive(Debug, Clone)]
pub struct MigrationPlanBuilder {
    plan: MigrationPlan,
}

impl MigrationPlanBuilder {
    /// Set [`MigrationPlan::streams`].
    pub fn streams(mut self, streams: NonZeroUsize) -> Self {
        self.plan.streams = streams;
        self
    }

    /// Set [`MigrationPlan::compression`].
    pub fn compression(mut self, compression: PageCompression) -> Self {
        self.plan.compression = compression;
        self
    }

    /// Set [`MigrationPlan::xbzrle_cache_pages`].
    pub fn xbzrle_cache_pages(mut self, pages: usize) -> Self {
        self.plan.xbzrle_cache_pages = pages;
        self
    }

    /// Set [`MigrationPlan::fault_service`].
    pub fn fault_service(mut self, service: FaultService) -> Self {
        self.plan.fault_service = service;
        self
    }

    /// Set [`MigrationPlan::max_rounds`].
    pub fn max_rounds(mut self, rounds: u32) -> Self {
        self.plan.max_rounds = rounds;
        self
    }

    /// Set [`MigrationPlan::dirty_page_threshold`].
    pub fn dirty_page_threshold(mut self, pages: u64) -> Self {
        self.plan.dirty_page_threshold = pages;
        self
    }

    /// Set [`MigrationPlan::postcopy_fault_fraction`].
    pub fn postcopy_fault_fraction(mut self, fraction: f64) -> Self {
        self.plan.postcopy_fault_fraction = fraction;
        self
    }

    /// Validate and return the plan.
    pub fn build(self) -> Result<MigrationPlan> {
        self.plan.validate()?;
        Ok(self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::MAX_MIGRATION_STREAMS;

    #[test]
    fn config_lowers_into_a_plan_and_back_without_loss() {
        let config = MigrationConfig {
            max_rounds: 7,
            dirty_page_threshold: 12,
            compression: PageCompression::Xbzrle,
            xbzrle_cache_pages: 99,
            streams: NonZeroUsize::new(4).unwrap(),
            ..Default::default()
        };
        for engine in [
            PlanEngine::StopAndCopy,
            PlanEngine::PreCopy,
            PlanEngine::PostCopy,
        ] {
            let plan = config.plan(engine);
            assert_eq!(plan.engine, engine);
            assert_eq!(plan.fault_service, FaultService::Sweep);
            let lowered = plan.config();
            assert_eq!(lowered.max_rounds, config.max_rounds);
            assert_eq!(lowered.dirty_page_threshold, config.dirty_page_threshold);
            assert_eq!(lowered.compression, config.compression);
            assert_eq!(lowered.xbzrle_cache_pages, config.xbzrle_cache_pages);
            assert_eq!(lowered.streams, config.streams);
        }
    }

    #[test]
    fn config_builder_validates_once_and_rejects_bad_knobs() {
        let config = MigrationConfig::builder()
            .streams(4)
            .compression(PageCompression::Xbzrle)
            .xbzrle_cache_pages(128)
            .max_rounds(9)
            .dirty_page_threshold(16)
            .postcopy_fault_fraction(0.25)
            .build()
            .unwrap();
        assert_eq!(config.streams.get(), 4);
        assert_eq!(config.max_rounds, 9);
        assert!(MigrationConfig::builder().streams(0).build().is_err());
        assert!(MigrationConfig::builder()
            .streams(MAX_MIGRATION_STREAMS + 1)
            .build()
            .is_err());
        assert!(MigrationConfig::builder()
            .postcopy_fault_fraction(1.5)
            .build()
            .is_err());
        assert!(MigrationConfig::builder()
            .compression(PageCompression::Xbzrle)
            .xbzrle_cache_pages(0)
            .build()
            .is_err());
        assert!(MigrationConfig::builder().max_rounds(0).build().is_err());
    }

    #[test]
    fn plan_builder_validates_once_and_rejects_bad_knobs() {
        let plan = MigrationPlan::builder(PlanEngine::PostCopy)
            .streams(NonZeroUsize::new(2).unwrap())
            .fault_service(FaultService::FaultLane)
            .postcopy_fault_fraction(0.5)
            .build()
            .unwrap();
        assert_eq!(plan.engine, PlanEngine::PostCopy);
        assert_eq!(plan.fault_service, FaultService::FaultLane);
        assert!(MigrationPlan::builder(PlanEngine::PreCopy)
            .postcopy_fault_fraction(-0.1)
            .build()
            .is_err());
        assert!(MigrationPlan::builder(PlanEngine::PreCopy)
            .streams(NonZeroUsize::new(MAX_MIGRATION_STREAMS + 1).unwrap())
            .build()
            .is_err());
        assert!(MigrationPlan::builder(PlanEngine::PreCopy)
            .max_rounds(0)
            .build()
            .is_err());
    }

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
        let plan = MigrationPlan::default();
        assert_eq!(plan.engine, PlanEngine::PreCopy);
        let config = MigrationConfig::default();
        assert_eq!(plan.max_rounds, config.max_rounds);
        assert_eq!(plan.streams, config.streams);
        plan.validate().unwrap();
    }
}
