//! # rvisor-perfbench
//!
//! The repository benchmark. One command —
//! `cargo run --release --manifest-path perfbench/Cargo.toml --bin benchmark -- --workload <name>`
//! — runs one of four workloads as a single closed-loop caller and prints
//! either its end-to-end metrics (`--trace 0`, tracing off) or its
//! per-layer ledger (`--trace 1`). See `README.md` beside this crate for
//! the workloads, the named assumptions behind every figure, and how to
//! read the ledger; [`spec`] holds every name.
//!
//! The benchmark lives outside the program it measures: it calls only
//! `pub` items of the workspace crates, and nothing in them knows it
//! exists.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod compare;
pub mod json;
pub mod layers;
pub mod spec;
pub mod stats;
pub mod wallsink;
pub mod workloads;

use json::Value;
use workloads::{Scale, Workload};

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the ledger.
    pub trace: bool,
    /// Full size, or `--smoke`.
    pub scale: Scale,
}

/// The default seed, `0xE19`: the E19 warehouse day's.
pub const DEFAULT_SEED: u64 = 3609;
/// The default measuring time; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// One run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// What was run.
    pub options: Options,
    /// Checked outcomes.
    pub attempted: u64,
    /// Checked outcomes that were wrong.
    pub failed: u64,
    /// `(name, unit, value)` in `spec` order: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Timed iterations, and the fastest and slowest (untraced runs).
    pub iterations: Option<(usize, f64, f64)>,
    /// FNV-1a over the `Debug` form of every simulated report.
    pub sim_digest: u64,
}

impl RunResult {
    /// Did every checked outcome hold?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `name`'s value.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// The rows that must repeat bit for bit: every `count` and `ratio`.
    pub fn exact_rows(&self) -> Vec<(&'static str, f64)> {
        self.metrics
            .iter()
            .filter(|(_, unit, _)| matches!(*unit, "count" | "ratio"))
            .map(|&(name, _, value)| (name, value))
            .collect()
    }

    fn metrics_json(&self) -> Value {
        Value::object(self.metrics.iter().map(|&(name, unit, value)| {
            (
                name,
                Value::object([
                    ("value", Value::Number(value)),
                    ("unit", Value::String(unit.into())),
                ]),
            )
        }))
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// The run as an `--out` file entry: the result line's fields plus what
    /// identifies and qualifies the run.
    pub fn to_json(&self) -> Value {
        let (iters, lo, hi) = self.iterations.unwrap_or((0, 0.0, 0.0));
        Value::object([
            (
                "workload",
                Value::String(self.options.workload.name().into()),
            ),
            (
                "trace",
                Value::Number(f64::from(u8::from(self.options.trace))),
            ),
            ("seed", Value::Number(self.options.seed as f64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("iters", Value::Number(iters as f64)),
            ("wall_s_min", Value::Number(lo)),
            ("wall_s_max", Value::Number(hi)),
            (
                "sim_digest",
                Value::String(format!("{:016x}", self.sim_digest)),
            ),
            ("metrics", self.metrics_json()),
        ])
    }
}

/// Run one workload once.
pub fn run(options: Options) -> RunResult {
    let Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
    } = options;
    if trace {
        let (ledger, mut checks, sim_digest) = layers::run_ledger(workload, scale, seed, seconds);
        let metrics = spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = ledger.get(m.name);
                checks.check(value.is_some_and(f64::is_finite), || {
                    format!("{} was not measured (got {value:?})", m.name)
                });
                (m.name, m.unit, value.unwrap_or(0.0))
            })
            .collect();
        return RunResult {
            options,
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
            iterations: None,
            sim_digest,
        };
    }

    let e2e = workloads::run_end_to_end(workload, scale, seed, seconds);
    let wall_s = stats::median(&e2e.wall_s);
    let value_of = |name: &str| match name {
        "wall_s" => wall_s,
        "events_per_s" => e2e.events as f64 / wall_s,
        "guest_mib_per_s" => e2e.guest_mib / wall_s,
        "peak_rss_mib" => e2e.peak_rss_mib,
        "setup_s" => stats::median(&e2e.setup_s),
        other => unreachable!("{other} is not an end-to-end metric"),
    };
    RunResult {
        options,
        attempted: e2e.checks.attempted,
        failed: e2e.checks.failed,
        metrics: spec::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value_of(m.name)))
            .collect(),
        iterations: Some((
            e2e.wall_s.len(),
            stats::min(&e2e.wall_s),
            stats::max(&e2e.wall_s),
        )),
        sim_digest: e2e.sim_digest,
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `rustc --version` of the toolchain on the path, for the record.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The `--out` document for a set of runs.
pub fn out_document(runs: &[RunResult]) -> Value {
    Value::object([
        ("schema", Value::Number(1.0)),
        (
            "host",
            Value::object([
                ("nproc", Value::Number(nproc() as f64)),
                ("rustc", Value::String(rustc_version())),
                ("os", Value::String(std::env::consts::OS.into())),
                ("arch", Value::String(std::env::consts::ARCH.into())),
            ]),
        ),
        (
            "runs",
            Value::Array(runs.iter().map(RunResult::to_json).collect()),
        ),
    ])
}
