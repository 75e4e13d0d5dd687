//! `--compare A.json B.json`: is B a regression of A?
//!
//! For every workload × end-to-end metric the two `--out` files share, the
//! table shows both values, how much *worse* B is as a share of A, the
//! metric's bound, and a verdict:
//!
//! * `REGRESSED` — worse by more than the bound;
//! * `unresolved` — within the bound, but either file's own iteration
//!   spread (`wall_s_min..wall_s_max` over `wall_s`) is wider than the
//!   bound, so "unchanged" cannot be claimed;
//! * `ok` — within the bound, spread narrower than the bound.
//!
//! It also says whether each run's `sim_digest` and exact rows (every
//! `count` and `ratio`) agree; they must for two runs of one commit, and
//! for any change that only speeds the simulator up.

use std::fmt::Write as _;

use crate::json::Value;
use crate::spec::{Better, END_TO_END};

/// `setup_s` is tens of milliseconds on the migration workloads: below this
/// many seconds of absolute change it is not a regression whatever the
/// share.
const SETUP_FLOOR_S: f64 = 0.05;

/// How one metric fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spread narrower than the bound.
    Ok,
    /// Within the bound, spread wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// The share of `a` by which `b` is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    }
}

fn runs(doc: &Value) -> Result<&[Value], String> {
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| "not a benchmark --out file: no \"runs\" array".to_string())
}

fn find_run<'a>(runs: &'a [Value], workload: &str, trace: f64) -> Option<&'a Value> {
    runs.iter().find(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("trace").and_then(Value::as_f64) == Some(trace)
    })
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// A run's own iteration spread as a share of its median iteration.
fn spread(run: &Value) -> f64 {
    let field = |key| run.get(key).and_then(Value::as_f64);
    match (
        field("wall_s_min"),
        field("wall_s_max"),
        metric(run, "wall_s"),
    ) {
        (Some(lo), Some(hi), Some(mid)) if mid > 0.0 => (hi - lo) / mid,
        _ => 0.0,
    }
}

fn exact_rows(run: &Value) -> Vec<(&str, f64)> {
    let Some(metrics) = run.get("metrics").and_then(Value::as_object) else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter(|(_, m)| {
            matches!(
                m.get("unit").and_then(Value::as_str),
                Some("count" | "ratio")
            )
        })
        .filter_map(|(name, m)| Some((name.as_str(), m.get("value")?.as_f64()?)))
        .collect()
}

/// Compare two parsed `--out` documents. Returns the report and whether
/// anything regressed.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for ra in runs_a {
        let (Some(workload), Some(trace)) = (
            ra.get("workload").and_then(Value::as_str),
            ra.get("trace").and_then(Value::as_f64),
        ) else {
            return Err("a run without \"workload\" or \"trace\"".into());
        };
        let Some(rb) = find_run(runs_b, workload, trace) else {
            let _ = writeln!(out, "{workload:<14} (trace {trace}) is missing from B");
            continue;
        };
        if trace == 0.0 {
            let wide = spread(ra).max(spread(rb));
            for m in &END_TO_END {
                let (Some(va), Some(vb)) = (metric(ra, m.name), metric(rb, m.name)) else {
                    let _ = writeln!(out, "{workload:<14} {:<16} missing from one side", m.name);
                    continue;
                };
                let worse = worse_by(m.better, va, vb);
                let negligible = m.name == "setup_s" && (vb - va).abs() < SETUP_FLOOR_S;
                let verdict = if worse > m.bound && !negligible {
                    regressed = true;
                    Verdict::Regressed
                } else if wide > m.bound {
                    Verdict::Unresolved
                } else {
                    Verdict::Ok
                };
                let _ = writeln!(
                    out,
                    "{workload:<14} {:<16} {va:>14.6} {vb:>14.6} {:>+7.1}% {:>5.0}%  {}",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0,
                    verdict.as_str()
                );
            }
        }
        let same_digest = ra.get("sim_digest") == rb.get("sim_digest");
        let (exact_a, exact_b) = (exact_rows(ra), exact_rows(rb));
        let differing: Vec<&str> = exact_a
            .iter()
            .filter(|(name, value)| !exact_b.contains(&(*name, *value)))
            .map(|(name, _)| *name)
            .collect();
        let digest = if same_digest { "same" } else { "DIFFERENT" };
        let exact = match (exact_a.len(), differing.is_empty()) {
            (0, _) => String::new(),
            (n, true) => format!(", {n} exact rows same"),
            (n, false) => format!(", {n} exact rows DIFFERENT: {}", differing.join(", ")),
        };
        let _ = writeln!(
            out,
            "{workload:<14} trace {trace}: sim_digest {digest}{exact}"
        );
    }
    let _ = writeln!(
        out,
        "{}",
        if regressed {
            "FAIL: at least one end-to-end metric is worse than its bound allows"
        } else {
            "no end-to-end metric regressed beyond its bound"
        }
    );
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(wall: f64, lo: f64, hi: f64, events: f64, digest: &str, backups: f64) -> Value {
        parse(&format!(
            r#"{{"schema": 1, "runs": [
              {{"workload": "clos_day", "trace": 0, "wall_s_min": {lo}, "wall_s_max": {hi},
                "sim_digest": "{digest}", "metrics": {{
                  "wall_s": {{"value": {wall}, "unit": "s"}},
                  "events_per_s": {{"value": {events}, "unit": "1/s"}},
                  "guest_mib_per_s": {{"value": 40, "unit": "MiB/s"}},
                  "peak_rss_mib": {{"value": 100, "unit": "MiB"}},
                  "setup_s": {{"value": 0.010, "unit": "s"}}}}}},
              {{"workload": "clos_day", "trace": 1, "sim_digest": "{digest}", "metrics": {{
                  "orch.backups": {{"value": {backups}, "unit": "count"}},
                  "act.dr_s": {{"value": 1.5, "unit": "s"}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 2.0, 1.0) < 0.0);
    }

    #[test]
    fn identical_runs_are_ok_and_agree_exactly() {
        let a = doc(3.7, 3.65, 3.75, 9000.0, "ab", 10337.0);
        let (text, regressed) = compare(&a, &a).unwrap();
        assert!(!regressed, "{text}");
        assert!(text.contains(" ok"));
        assert!(!text.contains("DIFFERENT") && !text.contains("unresolved"));
        assert!(text.contains("sim_digest same, 1 exact rows same"));
    }

    #[test]
    fn a_slowdown_beyond_the_bound_regresses_and_a_wide_spread_is_unresolved() {
        let a = doc(3.7, 3.65, 3.75, 9000.0, "ab", 10337.0);
        let slow = doc(4.8, 4.7, 4.9, 6800.0, "ab", 10337.0);
        let (text, regressed) = compare(&a, &slow).unwrap();
        assert!(regressed);
        assert!(
            text.lines()
                .any(|l| l.contains("wall_s") && l.ends_with("REGRESSED")),
            "{text}"
        );
        assert!(text
            .lines()
            .any(|l| l.contains("events_per_s") && l.ends_with("REGRESSED")));

        // 3 % slower is inside the 25 % bound, but B's iterations ranged over
        // 30 % of their median: unchanged cannot be claimed.
        let noisy = doc(3.8, 3.3, 4.44, 8800.0, "cd", 10338.0);
        let (text, regressed) = compare(&a, &noisy).unwrap();
        assert!(!regressed);
        assert!(
            text.lines()
                .any(|l| l.contains("wall_s") && l.ends_with("unresolved")),
            "{text}"
        );
        assert!(text.contains("sim_digest DIFFERENT"));
        assert!(text.contains("1 exact rows DIFFERENT: orch.backups"));
    }

    #[test]
    fn a_tiny_absolute_setup_change_is_not_a_regression() {
        let a = doc(3.7, 3.65, 3.75, 9000.0, "ab", 1.0);
        let mut b = a.clone();
        // 10 ms → 20 ms is +100 % but 10 ms absolute.
        let Value::Object(top) = &mut b else {
            unreachable!()
        };
        let text = Value::Object(top.clone())
            .render()
            .replace("0.01,", "0.02,");
        let b = parse(&text).unwrap();
        assert_ne!(a, b);
        assert!(!compare(&a, &b).unwrap().1);
    }

    #[test]
    fn files_that_are_not_out_files_are_errors() {
        assert!(compare(&parse("{}").unwrap(), &parse("{}").unwrap()).is_err());
    }
}
