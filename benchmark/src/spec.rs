//! The benchmark definition, read from the repository's `BENCHMARK.json`.
//!
//! That file is the single source of the run length, the workload names,
//! and every reported metric's name, unit, direction and regression bound;
//! the code only computes values under those names.

use crate::json::{self, Value};
use std::sync::OnceLock;

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The parsed `BENCHMARK.json` embedded at build time.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(TEXT).expect("BENCHMARK.json is well-formed (checked by tests)"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = json::parse(text)?;
    let field = |key: &str| root.get(key).ok_or(format!("BENCHMARK.json: no '{key}'"));
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        field(key)?
            .as_array()
            .ok_or(format!("'{key}' is not a list"))?
            .iter()
            .map(metric)
            .collect()
    };
    Ok(Spec {
        run_seconds: field("run_seconds")?
            .as_f64()
            .ok_or("run_seconds is not a number")?,
        workloads: field("workloads")?
            .as_array()
            .ok_or("workloads is not a list")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect::<Option<_>>()
            .ok_or("a workload has no name")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn metric(v: &Value) -> Result<MetricDef, String> {
    let text = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("metric without '{key}'"))
    };
    Ok(MetricDef {
        name: text("name")?,
        unit: text("unit")?,
        better: match text("better")?.as_str() {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            other => return Err(format!("unknown direction '{other}'")),
        },
        bound: v.get("bound").and_then(Value::as_f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_bounds_every_end_to_end_metric() {
        let s = spec();
        assert!(s.run_seconds >= 1.0);
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        let largest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }
}
