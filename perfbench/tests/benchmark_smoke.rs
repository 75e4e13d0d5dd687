//! The benchmark end to end at `--smoke` size: every metric present and
//! finite, nothing failed, simulated outputs repeat exactly for a seed and
//! differ between seeds. No assertion here reads a clock.

use rvisor_perfbench::workloads::{Scale, Workload};
use rvisor_perfbench::{json, out_document, run, spec, Options, RunResult};

fn smoke(workload: Workload, seed: u64, trace: bool) -> RunResult {
    run(Options {
        workload,
        seed,
        seconds: 0.0, // one timed iteration
        trace,
        scale: Scale::SMOKE,
    })
}

fn assert_complete(result: &RunResult, expected: &[&str]) {
    let w = result.options.workload.name();
    assert_eq!(result.failed, 0, "{w}: a checked outcome failed");
    assert!(result.correct() && result.attempted >= 1);
    let names: Vec<&str> = result.metrics.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(names, expected, "{w}: emitted names differ from the spec");
    for (name, unit, value) in &result.metrics {
        assert!(value.is_finite(), "{w}: {name} is {value}");
        assert!(!unit.is_empty());
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_none_is_zero() {
    let expected: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    for workload in Workload::ALL {
        let result = smoke(workload, 3609, false);
        assert_complete(&result, &expected);
        for (name, _, value) in &result.metrics {
            assert!(*value > 0.0, "{}: {name} must never be 0", workload.name());
        }
        let (iters, lo, hi) = result.iterations.expect("untraced runs time iterations");
        assert!(iters >= 1 && lo <= hi);
    }
}

#[test]
fn traced_runs_emit_the_whole_ledger_and_exact_rows_repeat() {
    let expected: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    for workload in Workload::ALL {
        let first = smoke(workload, 3609, true);
        assert_complete(&first, &expected);
        let again = smoke(workload, 3609, true);
        assert_eq!(first.sim_digest, again.sim_digest, "{}", workload.name());
        assert_eq!(
            first.exact_rows(),
            again.exact_rows(),
            "{}",
            workload.name()
        );
        assert!(first.exact_rows().len() >= 10);
        // The days and the batches really happened.
        for row in [
            "orch.events",
            "orch.migrations",
            "orch.backups",
            "net.transfers",
            "migrate.pages_sent",
        ] {
            assert!(
                first.metric(row).unwrap() > 0.0,
                "{}: {row}",
                workload.name()
            );
        }
    }
}

#[test]
fn the_digest_is_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let (a, b, other) = (
            smoke(workload, 3609, false),
            smoke(workload, 3609, false),
            smoke(workload, 22, false),
        );
        assert_eq!(a.sim_digest, b.sim_digest, "{}", workload.name());
        assert_eq!(other.failed, 0, "{}: seed 22", workload.name());
        // The migration batches' simulated reports depend on page contents
        // only through XBZRLE and zero-run sizes; the days on everything.
        if matches!(
            workload,
            Workload::WarehouseDay | Workload::ClosDay | Workload::MigratePush
        ) {
            assert_ne!(a.sim_digest, other.sim_digest, "{}", workload.name());
        }
    }
}

#[test]
fn the_result_line_has_exactly_the_contract_keys_and_the_out_file_round_trips() {
    let result = smoke(Workload::MigratePull, 3609, false);
    let line = json::parse(&result.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
    let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
    assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(wall.get("value").unwrap().as_f64(), result.metric("wall_s"));

    let doc = out_document(std::slice::from_ref(&result));
    let parsed = json::parse(&doc.render()).expect("--out document is JSON");
    assert_eq!(parsed, doc);
    let (report, regressed) = rvisor_perfbench::compare::compare(&parsed, &parsed).unwrap();
    assert!(!regressed, "{report}");
}
