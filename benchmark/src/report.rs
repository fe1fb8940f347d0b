//! Output: the driver's one-line JSON result, the full run's tables and
//! `report.json`, the `BENCHMARK.json` name check, and the comparison
//! `repeat.sh` makes between two full runs.

use crate::metrics::{self, DETERMINISTIC, END_TO_END, PER_LAYER, WORKLOADS, WORK_COUNTERS};
use crate::workloads::{Mode, Outcome};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};

fn metrics_json(values: &metrics::Values, defs: &[(&'static str, &'static str)]) -> Value {
    Value::Map(
        defs.iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    json!({ "value": values.get(name), "unit": *unit }),
                )
            })
            .collect(),
    )
}

/// The single JSON object the driver reads from the last line of stdout:
/// end-to-end metrics with tracing off, per-layer metrics with it on.
pub fn result_line(out: &Outcome, mode: Mode) -> String {
    let metrics = if mode == Mode::Traced {
        metrics_json(&out.per_layer, &PER_LAYER)
    } else {
        metrics_json(&out.end_to_end, &END_TO_END)
    };
    let line = json!({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("result serializes")
}

/// Human-readable block for one workload of the full run.
pub fn print_workload(name: &str, out: &Outcome, wall_s: f64) {
    println!("\n== {name}  ({wall_s:.1} s wall)");
    println!(
        "  {:<28} {:>14.6}  ({} of {} ops failed)",
        "fail_ratio",
        metrics::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("    FAILED: {f}");
    }
    for (metric, unit) in END_TO_END {
        let note = match metric {
            "e2e_s" => format!("  ({} samples)", out.samples),
            "e2e_tail_s" => format!("  (p{:.1})", out.tail_percentile),
            _ => String::new(),
        };
        println!(
            "  {metric:<28} {:>14.6} {unit}{note}",
            out.end_to_end.get(metric)
        );
    }
    println!(
        "  {:<28} {:>14} count",
        "overused_tiles", out.overused_tiles
    );
    println!("  -- traced replay (1 thread), per layer:");
    for (metric, unit) in PER_LAYER {
        let value = out.per_layer.get(metric);
        if value != 0.0 {
            println!("  {metric:<28} {value:>14.6} {unit}");
        }
    }
    let op_s = out.per_layer.get("obs.replay_op_s");
    let top: Vec<String> = out
        .layer_shares
        .iter()
        .take(4)
        .map(|(layer, s)| format!("{layer} {:.1}%", 100.0 * metrics::ratio(*s, op_s)))
        .collect();
    println!(
        "  named layers cover {:.1}% of the replayed op; largest: {}",
        100.0 * out.per_layer.get("obs.layer_coverage_ratio"),
        top.join(", ")
    );
}

/// The paper's two shape claims from the same runs, per network both
/// flows implemented: assembled-vs-flat Fmax, and `1 - assemble/flat`
/// generation time (Fig. 6). Informational, never gated.
pub fn paper_shape(runs: &BTreeMap<String, Outcome>) -> Value {
    let (Some(assembled), Some(flat)) = (runs.get("assemble_zoo"), runs.get("flat_zoo")) else {
        return Value::Map(Vec::new());
    };
    Value::Map(
        flat.per_network
            .iter()
            .filter_map(|(net, (flat_fmax, flat_s))| {
                let (asm_fmax, asm_s) = assembled.per_network.get(net)?;
                Some((
                    net.clone(),
                    json!({
                        "fmax_ratio": metrics::ratio(*asm_fmax, *flat_fmax),
                        "generation_time_saved": 1.0 - metrics::ratio(*asm_s, *flat_s),
                        "assembled_fmax_mhz": *asm_fmax,
                        "flat_fmax_mhz": *flat_fmax,
                        "assemble_s": *asm_s,
                        "flat_s": *flat_s,
                    }),
                ))
            })
            .collect(),
    )
}

/// Everything the full run measured, as `report.json`.
pub fn report_json(
    runs: &BTreeMap<String, Outcome>,
    seed: u64,
    threads: usize,
    host_cores: usize,
    total_s: f64,
) -> Value {
    let workloads = Value::Map(
        WORKLOADS
            .iter()
            .filter_map(|w| Some((*w, runs.get(*w)?)))
            .map(|(w, out)| {
                (
                    w.to_string(),
                    json!({
                        "attempted": out.attempted,
                        "failed": out.failed,
                        "fail_ratio": metrics::ratio(out.failed as f64, out.attempted as f64),
                        "samples": out.samples as u64,
                        "tail_percentile": out.tail_percentile,
                        "overused_tiles": out.overused_tiles,
                        "end_to_end": metrics_json(&out.end_to_end, &END_TO_END),
                        "per_layer": metrics_json(&out.per_layer, &PER_LAYER),
                    }),
                )
            })
            .collect(),
    );
    json!({
        "seed": seed,
        "threads": threads as u64,
        "host_cores": host_cores as u64,
        "total_s": total_s,
        "workloads": workloads,
        "paper_shape": paper_shape(runs),
    })
}

fn names(list: &Value) -> BTreeSet<String> {
    let Value::Seq(items) = list else {
        return BTreeSet::new();
    };
    items
        .iter()
        .filter_map(|item| match item.get("name") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// The names `BENCHMARK.json` declares against the names this program
/// prints; returns one message per difference.
pub fn check_names(benchmark_json: &str) -> Vec<String> {
    let declared: Value = match serde_json::from_str(benchmark_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("BENCHMARK.json: {e}")],
    };
    let mut problems = Vec::new();
    let mut compare = |key: &str, printed: BTreeSet<String>| {
        let declared = names(&declared[key]);
        for missing in printed.difference(&declared) {
            problems.push(format!("{key}: {missing} is printed but not declared"));
        }
        for extra in declared.difference(&printed) {
            problems.push(format!("{key}: {extra} is declared but not printed"));
        }
    };
    compare(
        "workloads",
        WORKLOADS.iter().map(|w| w.to_string()).collect(),
    );
    compare(
        "end_to_end",
        END_TO_END.iter().map(|m| m.0.to_string()).collect(),
    );
    compare(
        "per_layer",
        PER_LAYER.iter().map(|m| m.0.to_string()).collect(),
    );
    problems
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        _ => f64::NAN,
    }
}

/// Compare two `report.json` of the same tree and seed against the
/// bounds `BENCHMARK.json` declares: timings within their bound,
/// deterministic metrics, failure counts and work counters equal.
/// Prints a table; returns the number of breaches.
pub fn compare(first: &Value, second: &Value, benchmark_json: &Value) -> usize {
    let mut bounds: BTreeMap<String, (f64, bool)> = BTreeMap::new();
    if let Value::Seq(items) = &benchmark_json["end_to_end"] {
        for m in items {
            if let (Value::Str(name), Value::Str(better)) = (&m["name"], &m["better"]) {
                bounds.insert(name.clone(), (number(&m["bound"]), better == "lower"));
            }
        }
    }
    let mut breaches = 0;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "run 1", "run 2", "worse by", "bound"
    );
    for w in WORKLOADS {
        let (a, b) = (&first["workloads"][w], &second["workloads"][w]);
        let mut row = |metric: &str, x: f64, y: f64, bound: Option<(f64, bool)>| {
            let (worse, limit, ok) = match bound {
                // Share of run 1 by which run 2 is worse.
                Some((bound, lower_is_better)) => {
                    let worse = if lower_is_better { y - x } else { x - y } / x.abs();
                    (worse, format!("{:.1}%", 100.0 * bound), worse <= bound)
                }
                None => (
                    metrics::ratio((y - x).abs(), x.abs()),
                    "equal".to_string(),
                    x == y,
                ),
            };
            breaches += usize::from(!ok);
            println!(
                "{w:<14} {metric:<28} {x:>14.6} {y:>14.6} {:>8.2}% {limit:>7}  {}",
                100.0 * worse,
                if ok { "ok" } else { "BREACH" }
            );
        };
        for (metric, _) in END_TO_END {
            let value = |r: &Value| number(&r["end_to_end"][metric]["value"]);
            let bound = (!DETERMINISTIC.contains(&metric))
                .then(|| bounds.get(metric).copied())
                .flatten();
            row(metric, value(a), value(b), bound);
        }
        for key in ["failed", "overused_tiles"] {
            row(key, number(&a[key]), number(&b[key]), None);
        }
        for metric in WORK_COUNTERS {
            let value = |r: &Value| number(&r["per_layer"][metric]["value"]);
            row(metric, value(a), value(b), None);
        }
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_check_reports_both_directions() {
        let doc = json!({
            "workloads": WORKLOADS.iter().map(|w| json!({"name": *w})).collect::<Vec<_>>(),
            "end_to_end": END_TO_END.iter().map(|m| json!({"name": m.0})).collect::<Vec<_>>(),
            "per_layer": vec![json!({"name": "bogus.metric"})],
        });
        let problems = check_names(&serde_json::to_string(&doc).unwrap());
        assert_eq!(problems.len(), PER_LAYER.len() + 1, "{problems:?}");
    }
}
