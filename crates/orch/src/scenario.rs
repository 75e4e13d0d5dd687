//! Deterministic workload scenario generation.
//!
//! A [`Scenario`] is a seed plus a time-sorted list of scenario events
//! (arrivals, departures, load changes, host failures). Generation is driven
//! by the same seeded linear-congruential generator idiom the block-layer
//! fault injector uses, so the same [`ScenarioConfig`] always produces the
//! byte-identical event list — the determinism anchor for replayable runs.
//!
//! Per-VM draws come from an *order-independent substream*: VM `i`'s
//! generator is derived purely from `(seed, i)` by a SplitMix-style mix, and
//! host failures use their own substream. Growing a scenario — more VMs,
//! more hosts, added failures — therefore never reshuffles the behavior of
//! the VMs both sizes share, which keeps small repros faithful to the big
//! days they are cut from.
//!
//! Three named workload shapes cover the interesting datacenter days:
//!
//! * [`WorkloadShape::SteadyState`] — arrivals uniform over the day; the
//!   baseline against which the other shapes are compared.
//! * [`WorkloadShape::DiurnalWave`] — arrival density follows a raised
//!   sine wave peaking mid-day (the classic enterprise 9-to-5 swell).
//! * [`WorkloadShape::FlashCrowd`] — most arrivals compressed into a short
//!   burst window (a product launch, a failover from another region).

use rvisor_cluster::{ServerRole, VmSpec};
use rvisor_types::{Error, Nanoseconds, Result};

use crate::event::OrchEvent;

/// Deterministic LCG (Numerical Recipes constants), the workspace's standard
/// reproducible randomness idiom.
#[derive(Debug, Clone)]
pub(crate) struct Lcg {
    state: u64,
}

impl Lcg {
    /// A generator seeded with `seed` (every seed gives a distinct stream).
    pub(crate) fn new(seed: u64) -> Self {
        Lcg {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state
    }

    /// Uniform float in `[0, 1)`.
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    pub(crate) fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Shortest day [`ScenarioConfig::validate`] accepts.
const MIN_DURATION: Nanoseconds = Nanoseconds(20);

/// Stream tag for per-VM substreams.
const STREAM_VM: u64 = 0x564d;
/// Stream tag for the host-failure substream.
const STREAM_FAILURES: u64 = 0x4641_494c;
/// Stream tag for the spine-failure substream.
const STREAM_SPINES: u64 = 0x5350_494e;

/// An independent generator for `(seed, tag, index)`, via a SplitMix64-style
/// finalizer. Each VM (and the failure injector) draws from its own
/// substream, a pure function of its index — not of how many other VMs or
/// hosts the config asks for or the order anything is iterated in.
fn substream(seed: u64, tag: u64, index: u64) -> Lcg {
    let mut z = seed ^ tag.rotate_left(32) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Lcg::new(z)
}

/// The shape of a day's arrival traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadShape {
    /// Arrivals uniform over the whole duration.
    SteadyState,
    /// Arrival density follows `1 + sin` peaking at mid-duration.
    DiurnalWave,
    /// `burst_fraction` of arrivals land inside a window starting at 40% of
    /// the duration and spanning 5% of it; the rest are uniform.
    FlashCrowd,
    /// A blend: each VM independently draws its arrival from steady-state
    /// (50%), diurnal-wave (30%) or flash-crowd (20%) behaviour. The mix
    /// a real datacenter day actually looks like — and the E22 day the
    /// adaptive migration planner is judged on, precisely because no
    /// single static setting fits all three populations.
    Mixed,
}

impl WorkloadShape {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadShape::SteadyState => "steady-state",
            WorkloadShape::DiurnalWave => "diurnal-wave",
            WorkloadShape::FlashCrowd => "flash-crowd",
            WorkloadShape::Mixed => "mixed",
        }
    }

    /// All shapes, for sweeps.
    pub const ALL: [WorkloadShape; 4] = [
        WorkloadShape::SteadyState,
        WorkloadShape::DiurnalWave,
        WorkloadShape::FlashCrowd,
        WorkloadShape::Mixed,
    ];
}

/// Everything that parameterizes scenario generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// RNG seed; equal seeds (with equal configs) replay byte-identically.
    pub seed: u64,
    /// Arrival-traffic shape.
    pub shape: WorkloadShape,
    /// Number of VM arrivals over the duration.
    pub vm_arrivals: usize,
    /// Simulated length of the scenario.
    pub duration: Nanoseconds,
    /// Fraction of arrived VMs that also depart before the end (the rest
    /// run to the end of the day).
    pub departure_fraction: f64,
    /// Expected load-change events per VM over its lifetime.
    pub load_changes_per_vm: f64,
    /// Host failures injected (uniformly over the middle 80% of the day).
    pub host_failures: usize,
    /// Number of hosts failures may target (the cluster size).
    pub hosts: usize,
    /// Fraction of arrivals concentrated in the flash-crowd burst window
    /// (ignored by the other shapes).
    pub burst_fraction: f64,
    /// Spine failures injected (uniformly over the middle 80% of the day).
    /// The fabric degrades but never partitions, so at most `spines - 1`
    /// distinct spines fail.
    pub spine_failures: usize,
    /// Number of spines failures may target (the fabric's spine count).
    pub spines: usize,
}

impl ScenarioConfig {
    /// A sensible day-in-the-life template: mostly steady, some churn.
    pub fn day(seed: u64, shape: WorkloadShape, hosts: usize, vm_arrivals: usize) -> Self {
        ScenarioConfig {
            seed,
            shape,
            vm_arrivals,
            duration: Nanoseconds::from_secs(24 * 3600),
            departure_fraction: 0.3,
            load_changes_per_vm: 2.0,
            host_failures: 0,
            hosts,
            burst_fraction: 0.7,
            spine_failures: 0,
            spines: 1,
        }
    }

    /// Add `n` host failures (builder style).
    pub fn with_host_failures(mut self, n: usize) -> Self {
        self.host_failures = n;
        self
    }

    /// Add `n` spine failures against a fabric with `spines` spines
    /// (builder style). At most `spines - 1` can fail — the fabric degrades
    /// but never partitions.
    pub fn with_spine_failures(mut self, n: usize, spines: usize) -> Self {
        self.spine_failures = n;
        self.spines = spines;
        self
    }

    /// Validate the configuration.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.hosts == 0 {
            return Err(Error::Config("scenario needs at least one host".into()));
        }
        // The flash-crowd burst spans a twentieth of the day and every
        // arrival shape needs an instant of positive density, so a day
        // shorter than 20 ns has no room to draw from.
        if self.duration < MIN_DURATION {
            return Err(Error::Config(format!(
                "scenario duration must be at least {MIN_DURATION}"
            )));
        }
        if !(self.load_changes_per_vm.is_finite() && self.load_changes_per_vm >= 0.0) {
            return Err(Error::Config(format!(
                "load_changes_per_vm must be finite and non-negative, got {}",
                self.load_changes_per_vm
            )));
        }
        if !(0.0..=1.0).contains(&self.departure_fraction)
            || !(0.0..=1.0).contains(&self.burst_fraction)
        {
            return Err(Error::Config(
                "departure_fraction and burst_fraction must be within [0, 1]".into(),
            ));
        }
        if self.spine_failures > 0 && self.spine_failures >= self.spines {
            return Err(Error::Config(
                "spine_failures must leave at least one live spine (degrade, not partition)".into(),
            ));
        }
        Ok(())
    }
}

/// A generated scenario: the config plus its time-sorted event list.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The generating configuration.
    pub config: ScenarioConfig,
    /// Scenario events sorted by time (ties keep generation order).
    pub events: Vec<(Nanoseconds, OrchEvent)>,
}

impl Scenario {
    /// Generate the scenario for `config` deterministically.
    pub fn generate(config: ScenarioConfig) -> Result<Scenario> {
        config.validate()?;
        let dur = config.duration.as_nanos();
        let mut events: Vec<(Nanoseconds, OrchEvent)> = Vec::new();

        for i in 0..config.vm_arrivals {
            // Every draw about this VM comes from its own substream.
            let mut rng = substream(config.seed, STREAM_VM, i as u64);
            let at = Nanoseconds(arrival_time(&mut rng, config, dur));
            let role = ServerRole::ALL[rng.next_below(ServerRole::ALL.len() as u64) as usize];
            let name = format!("vm-{i:04}");
            let spec = VmSpec::typical(&name, role);
            events.push((at, OrchEvent::VmArrival { spec: spec.clone() }));

            // Lifetime: does it depart before the end of the day?
            let departs = rng.next_unit() < config.departure_fraction;
            let end_of_life = if departs {
                let remaining = dur - at.0;
                let life = remaining / 4 + rng.next_below((remaining / 2).max(1));
                let at_dep = (at.0 + life).min(dur - 1);
                events.push((
                    Nanoseconds(at_dep),
                    OrchEvent::VmDeparture { vm: name.clone() },
                ));
                at_dep
            } else {
                dur
            };

            // Load changes scattered over the VM's life.
            let n_changes = poissonish(&mut rng, config.load_changes_per_vm);
            for _ in 0..n_changes {
                let span = end_of_life.saturating_sub(at.0);
                if span < 2 {
                    break;
                }
                let at_change = at.0 + 1 + rng.next_below(span - 1);
                // New demand between 10% and ~250% of a typical role demand,
                // in whole millicores for exact replay.
                let base_milli = (spec.cpu_demand_cores * 1000.0) as u64;
                let new_milli = base_milli / 10 + rng.next_below(base_milli.max(1) * 5 / 2);
                events.push((
                    Nanoseconds(at_change),
                    OrchEvent::LoadChange {
                        vm: name.clone(),
                        cpu_demand_millicores: new_milli.min(u32::MAX as u64) as u32,
                    },
                ));
            }
        }

        // Host failures: uniform over the middle 80% of the day, distinct
        // hosts (a host only fails once). Separate substream, so the VM
        // census never shifts which hosts die or when.
        let mut rng = substream(config.seed, STREAM_FAILURES, 0);
        let mut failed: Vec<u64> = Vec::new();
        for _ in 0..config.host_failures.min(config.hosts) {
            let mut host = rng.next_below(config.hosts as u64);
            while failed.contains(&host) {
                host = rng.next_below(config.hosts as u64);
            }
            failed.push(host);
            let at = dur / 10 + rng.next_below(dur * 8 / 10);
            events.push((
                Nanoseconds(at),
                OrchEvent::HostFailure {
                    host: rvisor_types::HostId::new(host as u32),
                },
            ));
        }

        // Spine failures: same recipe as host failures — distinct spines,
        // middle 80% of the day, own substream. validate() already capped
        // them below the spine count, so at least one spine survives.
        let mut rng = substream(config.seed, STREAM_SPINES, 0);
        let mut failed_spines: Vec<u64> = Vec::new();
        for _ in 0..config.spine_failures {
            let mut spine = rng.next_below(config.spines as u64);
            while failed_spines.contains(&spine) {
                spine = rng.next_below(config.spines as u64);
            }
            failed_spines.push(spine);
            let at = dur / 10 + rng.next_below(dur * 8 / 10);
            events.push((
                Nanoseconds(at),
                OrchEvent::SpineFailure {
                    spine: spine as usize,
                },
            ));
        }

        // Stable sort: same-instant events keep generation order, so the
        // event list (and everything downstream) replays byte-identically.
        events.sort_by_key(|(at, _)| *at);
        Ok(Scenario { config, events })
    }

    /// Number of events of each kind, for quick sanity checks.
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut arrivals = 0;
        let mut departures = 0;
        let mut load_changes = 0;
        let mut failures = 0;
        for (_, e) in &self.events {
            match e {
                OrchEvent::VmArrival { .. } => arrivals += 1,
                OrchEvent::VmDeparture { .. } => departures += 1,
                OrchEvent::LoadChange { .. } => load_changes += 1,
                OrchEvent::HostFailure { .. } => failures += 1,
                _ => {}
            }
        }
        (arrivals, departures, load_changes, failures)
    }
}

/// Draw one arrival instant according to the shape.
fn arrival_time(rng: &mut Lcg, config: ScenarioConfig, dur: u64) -> u64 {
    match config.shape {
        WorkloadShape::SteadyState => rng.next_below(dur),
        WorkloadShape::DiurnalWave => {
            // Rejection-sample density (1 + sin(pi * t/dur)) / 2: zero at the
            // edges of the day, peak at noon.
            loop {
                let t = rng.next_below(dur);
                let x = t as f64 / dur as f64;
                let density = (std::f64::consts::PI * x).sin();
                if rng.next_unit() < density {
                    return t;
                }
            }
        }
        WorkloadShape::FlashCrowd => {
            let burst_start = dur * 2 / 5;
            let burst_len = dur / 20;
            if rng.next_unit() < config.burst_fraction {
                burst_start + rng.next_below(burst_len)
            } else {
                rng.next_below(dur)
            }
        }
        WorkloadShape::Mixed => {
            // One draw assigns this VM a sub-population; the arrival then
            // follows that population's shape. Because the draw comes from
            // the VM's own substream, the blend is order-independent like
            // everything else in generation.
            let blend = rng.next_unit();
            let shape = if blend < 0.5 {
                WorkloadShape::SteadyState
            } else if blend < 0.8 {
                WorkloadShape::DiurnalWave
            } else {
                WorkloadShape::FlashCrowd
            };
            arrival_time(rng, ScenarioConfig { shape, ..config }, dur)
        }
    }
}

/// A cheap Poisson-ish draw: `floor(mean)` plus a Bernoulli on the fraction,
/// then a +/-1 jitter. Deterministic and close enough for scenario churn.
fn poissonish(rng: &mut Lcg, mean: f64) -> u64 {
    let base = mean.floor() as u64;
    let frac = mean - mean.floor();
    let mut n = base + u64::from(rng.next_unit() < frac);
    match rng.next_below(4) {
        0 if n > 0 => n -= 1,
        1 => n += 1,
        _ => {}
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ScenarioConfig::day(42, WorkloadShape::DiurnalWave, 8, 100).with_host_failures(2);
        let a = Scenario::generate(cfg).unwrap();
        let b = Scenario::generate(cfg).unwrap();
        assert_eq!(a, b);
        // Byte-identical, not merely structurally equal.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // A different seed gives a different day.
        let c = Scenario::generate(ScenarioConfig { seed: 43, ..cfg }).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn census_matches_config() {
        let cfg = ScenarioConfig::day(7, WorkloadShape::SteadyState, 16, 200).with_host_failures(3);
        let s = Scenario::generate(cfg).unwrap();
        let (arrivals, departures, _loads, failures) = s.census();
        assert_eq!(arrivals, 200);
        assert!(
            departures > 20 && departures < 120,
            "~30% depart: {departures}"
        );
        assert_eq!(failures, 3);
        // Sorted by time.
        assert!(s.events.windows(2).all(|w| w[0].0 <= w[1].0));
        // Failures target distinct hosts within range.
        let hosts: Vec<u32> = s
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                OrchEvent::HostFailure { host } => Some(host.raw()),
                _ => None,
            })
            .collect();
        let mut dedup = hosts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hosts.len());
        assert!(hosts.iter().all(|&h| h < 16));
    }

    #[test]
    fn shapes_differ() {
        let mk = |shape| {
            Scenario::generate(ScenarioConfig::day(11, shape, 8, 300))
                .unwrap()
                .events
                .iter()
                .filter_map(|(at, e)| matches!(e, OrchEvent::VmArrival { .. }).then_some(at.0))
                .collect::<Vec<u64>>()
        };
        let steady = mk(WorkloadShape::SteadyState);
        let flash = mk(WorkloadShape::FlashCrowd);
        let diurnal = mk(WorkloadShape::DiurnalWave);
        let day = 24 * 3600 * 1_000_000_000u64;
        let in_burst = |ts: &[u64]| {
            ts.iter()
                .filter(|&&t| t >= day * 2 / 5 && t < day * 2 / 5 + day / 20)
                .count() as f64
                / ts.len() as f64
        };
        assert!(in_burst(&flash) > 0.5, "flash crowd concentrates arrivals");
        assert!(in_burst(&steady) < 0.2);
        // Diurnal: the middle half of the day holds well over half the arrivals.
        let mid = diurnal
            .iter()
            .filter(|&&t| t > day / 4 && t < day * 3 / 4)
            .count() as f64
            / diurnal.len() as f64;
        assert!(mid > 0.6, "diurnal peaks mid-day: {mid}");
    }

    /// The order-independence guarantee: a VM's events are a pure function
    /// of `(seed, vm index)`, so growing the scenario — 4→64 hosts, 50→200
    /// VMs, added failures — leaves every shared VM's behavior untouched.
    #[test]
    fn vm_draws_are_independent_of_scenario_size() {
        fn belongs_to(e: &OrchEvent, vm: &str) -> bool {
            match e {
                OrchEvent::VmArrival { spec } => spec.name == vm,
                OrchEvent::VmDeparture { vm: v } => v == vm,
                OrchEvent::LoadChange { vm: v, .. } => v == vm,
                _ => false,
            }
        }
        let small =
            Scenario::generate(ScenarioConfig::day(5, WorkloadShape::SteadyState, 4, 50)).unwrap();
        let big = Scenario::generate(
            ScenarioConfig::day(5, WorkloadShape::SteadyState, 64, 200).with_host_failures(3),
        )
        .unwrap();
        for i in 0..50 {
            let name = format!("vm-{i:04}");
            let pick = |s: &Scenario| -> Vec<(Nanoseconds, OrchEvent)> {
                s.events
                    .iter()
                    .filter(|(_, e)| belongs_to(e, &name))
                    .cloned()
                    .collect()
            };
            assert_eq!(pick(&small), pick(&big), "{name} reshuffled");
        }
    }

    #[test]
    fn spine_failures_are_distinct_and_leave_a_live_spine() {
        let cfg =
            ScenarioConfig::day(9, WorkloadShape::SteadyState, 8, 50).with_spine_failures(3, 4);
        let s = Scenario::generate(cfg).unwrap();
        let spines: Vec<usize> = s
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                OrchEvent::SpineFailure { spine } => Some(*spine),
                _ => None,
            })
            .collect();
        assert_eq!(spines.len(), 3);
        let mut dedup = spines.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), spines.len(), "spines fail at most once");
        assert!(spines.iter().all(|&sp| sp < 4));
        // Failing every spine would partition the fabric; rejected up front.
        assert!(Scenario::generate(cfg.with_spine_failures(4, 4)).is_err());
        // Spine failures ride their own substream: the VM census is untouched.
        let plain =
            Scenario::generate(ScenarioConfig::day(9, WorkloadShape::SteadyState, 8, 50)).unwrap();
        let vm_events = |s: &Scenario| -> Vec<(Nanoseconds, OrchEvent)> {
            s.events
                .iter()
                .filter(|(_, e)| !matches!(e, OrchEvent::SpineFailure { .. }))
                .cloned()
                .collect()
        };
        assert_eq!(vm_events(&s), vm_events(&plain));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ScenarioConfig::day(1, WorkloadShape::SteadyState, 0, 10);
        assert!(Scenario::generate(cfg).is_err());
        cfg.hosts = 4;
        cfg.departure_fraction = 1.5;
        assert!(Scenario::generate(cfg).is_err());
        cfg.departure_fraction = 0.5;
        cfg.duration = Nanoseconds::ZERO;
        assert!(Scenario::generate(cfg).is_err());
        cfg.duration = Nanoseconds::from_secs(3600);
        // Each row generated forever or panicked before validation caught
        // it: an infinite or meaningless churn rate, and days too short for
        // the flash-crowd burst, the failure window or the diurnal wave.
        let short = |shape, ns, failures| ScenarioConfig {
            duration: Nanoseconds(ns),
            ..ScenarioConfig::day(1, shape, 4, 10).with_host_failures(failures)
        };
        for bad in [
            ScenarioConfig {
                load_changes_per_vm: f64::INFINITY,
                ..cfg
            },
            ScenarioConfig {
                load_changes_per_vm: f64::NAN,
                ..cfg
            },
            ScenarioConfig {
                load_changes_per_vm: -1.0,
                ..cfg
            },
            short(WorkloadShape::FlashCrowd, 10, 0),
            short(WorkloadShape::SteadyState, 1, 1),
            short(WorkloadShape::DiurnalWave, 1, 0),
        ] {
            let refused = Scenario::generate(bad);
            assert!(matches!(refused, Err(Error::Config(_))), "{bad:?}");
        }
        // The shortest accepted day generates every shape.
        for shape in WorkloadShape::ALL {
            Scenario::generate(short(shape, 20, 1)).unwrap();
        }
    }
}
