//! `benchmark` — the repository benchmark's one command.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
//! benchmark --all           [--seed N] [--seconds S]                 [--smoke] [--out FILE]
//! benchmark --list
//! benchmark --compare A.json B.json
//! ```
//!
//! A `--workload` run prints a few human-readable lines and then, as the
//! last line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--all` runs every
//! workload untraced and then traced. The exit code is non-zero when any
//! checked outcome failed, or when `--compare` finds a regression.

use std::process::ExitCode;

use rvisor_perfbench::workloads::{Scale, Workload};
use rvisor_perfbench::{
    compare, json, nproc, out_document, run, rustc_version, spec, Options, RunResult,
    DEFAULT_SECONDS, DEFAULT_SEED,
};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] \
                     [--smoke] [--out FILE]\n       benchmark --all [--seed N] [--seconds S] \
                     [--smoke] [--out FILE]\n       benchmark --list\n       \
                     benchmark --compare A.json B.json";

enum Command {
    Run {
        workloads: Vec<Workload>,
        traces: Vec<bool>,
    },
    List,
    Compare(String, String),
}

struct Cli {
    command: Command,
    seed: u64,
    seconds: f64,
    scale: Scale,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: Command::List,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        scale: Scale::FULL,
        out: None,
    };
    let (mut workload, mut all, mut trace, mut chosen) = (None, false, false, false);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--all" => all = true,
            "--list" => {
                cli.command = Command::List;
                chosen = true;
            }
            "--compare" => {
                cli.command = Command::Compare(value()?, value()?);
                chosen = true;
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&cli.seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace` meaning 1.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    Some(other) if !other.starts_with("--") => {
                        return Err(format!("--trace takes 0 or 1, not {other}"));
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.scale = Scale::SMOKE,
            "--out" => cli.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (workload, all, chosen) {
        (Some(w), false, false) => {
            cli.command = Command::Run {
                workloads: vec![w],
                traces: vec![trace],
            }
        }
        (None, true, false) => {
            cli.command = Command::Run {
                workloads: Workload::ALL.to_vec(),
                traces: vec![false, true],
            }
        }
        (None, false, true) => {}
        _ => return Err("give exactly one of --workload, --all, --list, --compare".into()),
    }
    Ok(cli)
}

fn describe(result: &RunResult) {
    let o = result.options;
    println!(
        "workload={} trace={} seed={} nproc={} sim_digest={:016x}",
        o.workload.name(),
        u8::from(o.trace),
        o.seed,
        nproc(),
        result.sim_digest
    );
    if let Some((iters, lo, hi)) = result.iterations {
        println!("iters={iters} wall_s_min={lo} wall_s_max={hi}");
    }
    for (name, unit, value) in &result.metrics {
        println!("  {name:<40} {value:>18.6} {unit}");
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, regressed) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (workloads, traces) = match cli.command {
        Command::List => {
            print!("{}", spec::list());
            return ExitCode::SUCCESS;
        }
        Command::Compare(a, b) => {
            return match compare_files(&a, &b) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Run { workloads, traces } => (workloads, traces),
    };

    println!("host: nproc={} rustc={}", nproc(), rustc_version());
    let mut results = Vec::new();
    for workload in workloads {
        for &trace in &traces {
            let result = run(Options {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace,
                scale: cli.scale,
            });
            describe(&result);
            // The driver reads the last line of a single run; under --all
            // each run's line follows its table.
            println!("{}", result.result_line());
            results.push(result);
        }
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, out_document(&results).render() + "\n") {
            eprintln!("benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("benchmark: wrote {path}");
    }
    if results.iter().all(RunResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
