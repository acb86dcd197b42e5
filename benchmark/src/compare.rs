//! `compare A B`: per (workload, end-to-end metric), the median and
//! quartiles of each side's runs and a verdict against the metric's bound
//! in `BENCHMARK.json`.
//!
//! A and B are result files written with `--json`, one run per line; A is
//! the baseline. Only untraced runs carry end-to-end metrics.

use crate::json::{self, Value};
use crate::spec::{spec, Better};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// One side's samples of one metric: `(seed, value)`.
type Samples = Vec<(u64, f64)>;

/// workload → metric → samples.
type Runs = BTreeMap<String, BTreeMap<String, Samples>>;

/// The verdict for B against baseline A.
///
/// * A spread (interquartile range over median) wider than the bound on
///   either side is `Unresolved`, unless every B run beats every A run.
/// * B's median worse than A's by more than the bound is `Worse`.
/// * B is `Better` when its median improves on A's by more than A's
///   spread and B wins at least nine tenths of the pairs (runs of equal
///   seed when the sides share seeds, else every cross pair; ties count
///   for neither).
/// * Otherwise `Unchanged`.
pub fn verdict(a: &Samples, b: &Samples, better: Better, bound: f64) -> Verdict {
    let va: Vec<f64> = a.iter().map(|s| s.1).collect();
    let vb: Vec<f64> = b.iter().map(|s| s.1).collect();
    let beats = |x: f64, y: f64| match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    let (ma, mb) = (median(&va), median(&vb));
    let worse_by = match better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    let b_always_better = vb.iter().all(|&y| va.iter().all(|&x| beats(y, x)));
    if spread(&va).max(spread(&vb)) > bound {
        return if b_always_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let paired: Vec<(f64, f64)> = a
        .iter()
        .flat_map(|&(sa, x)| {
            b.iter()
                .filter(move |(sb, _)| *sb == sa)
                .map(move |&(_, y)| (x, y))
        })
        .collect();
    let pairs = if paired.is_empty() {
        va.iter()
            .flat_map(|&x| vb.iter().map(move |&y| (x, y)))
            .collect()
    } else {
        paired
    };
    let wins = pairs.iter().filter(|&&(x, y)| beats(y, x)).count();
    if -worse_by > spread(&va) && wins * 10 >= pairs.len() * 9 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Untraced runs of a result file: workload → metric → samples, and
/// workload → failed items.
fn load(path: &str) -> Result<(Runs, BTreeMap<String, u64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut metrics = Runs::new();
    let mut failed: BTreeMap<String, u64> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let field = |k: &str| run.get(k).ok_or(format!("{path}:{}: no '{k}'", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        *failed.entry(workload.clone()).or_default() +=
            field("failed")?.as_f64().unwrap_or_default() as u64;
        for (name, m) in field("metrics")?.as_object().unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok((metrics, failed))
}

fn samples<'a>(runs: &'a Runs, workload: &str, metric: &str) -> Option<&'a Samples> {
    runs.get(workload)?.get(metric).filter(|s| !s.is_empty())
}

/// Prints the comparison table; `Ok(true)` when some metric is worse.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, a_failed) = load(a_path)?;
    let (b, b_failed) = load(b_path)?;
    let mut any_worse = false;
    println!("workload metric | A median [q1, q3] | B median [q1, q3] | change | bound | verdict");
    for w in &spec().workloads {
        let (fa, fb) = (a_failed.get(w).copied(), b_failed.get(w).copied());
        if fb > fa {
            any_worse = true;
            println!("{w} failed_items | {fa:?} | {fb:?} | | 0 | worse");
        }
        for m in &spec().end_to_end {
            let (Some(sa), Some(sb)) = (samples(&a, w, &m.name), samples(&b, w, &m.name)) else {
                let side = if samples(&a, w, &m.name).is_none() {
                    "A"
                } else {
                    "B"
                };
                println!("{w} {} | missing in {side}", m.name);
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(sa, sb, m.better, bound);
            any_worse |= v == Verdict::Worse;
            let summary = |s: &Samples| {
                let vals: Vec<f64> = s.iter().map(|x| x.1).collect();
                let (q1, q3) = quartiles(&vals);
                format!("{:.4} [{q1:.4}, {q3:.4}] (n={})", median(&vals), vals.len())
            };
            let med = |s: &Samples| median(&s.iter().map(|x| x.1).collect::<Vec<_>>());
            println!(
                "{w} {} {} | {} | {} | {:+.2}% | {:.0}% | {v:?}",
                m.name,
                m.unit,
                summary(sa),
                summary(sb),
                100.0 * (med(sb) - med(sa)) / med(sa).abs(),
                100.0 * bound,
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Samples {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts() {
        let base = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        let same = runs(&[
            100.1, 100.9, 99.2, 100.4, 99.6, 100.0, 100.3, 99.7, 100.0, 99.8,
        ]);
        let lower = Better::Lower;
        assert_eq!(verdict(&base, &same, lower, 0.10), Verdict::Unchanged);
        let slow: Samples = base.iter().map(|&(s, v)| (s, v * 1.2)).collect();
        assert_eq!(verdict(&base, &slow, lower, 0.10), Verdict::Worse);
        // The same change is a gain when higher is better.
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.10), Verdict::Better);
        let fast: Samples = base.iter().map(|&(s, v)| (s, v * 0.8)).collect();
        assert_eq!(verdict(&base, &fast, lower, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &fast, Better::Higher, 0.10), Verdict::Worse);
        // Within the bound but slower: not a regression.
        let bit_slow: Samples = base.iter().map(|&(s, v)| (s, v * 1.05)).collect();
        assert_eq!(verdict(&base, &bit_slow, lower, 0.10), Verdict::Unchanged);
        // A spread wider than the bound cannot be judged ...
        let noisy = runs(&[
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 80.0,
        ]);
        assert_eq!(verdict(&noisy, &same, lower, 0.10), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let far = runs(&[10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.2, 10.8, 11.8, 12.2]);
        assert_eq!(verdict(&noisy, &far, lower, 0.10), Verdict::Better);
    }
}
