//! One workload run: repeated set-up, the timed closed loop, the checks,
//! and every metric computed from what was recorded.

use crate::stats::{self, Rng};
use crate::trace::{Span, Spans, LAYERS};
use crate::workloads::{Counters, Outcome, Prepared, Workload};
use std::collections::HashMap;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Set-up runs this many times per run, spread evenly over the timed loop,
/// and its median is reported. Each set-up rebuilds the inputs that the
/// items after it use.
pub const SETUP_REPEATS: usize = 15;

/// Rounds continue until both limits are reached, so p99 always has ten
/// samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_items: usize,
}

const MIB: f64 = 1024.0 * 1024.0;

/// The quantile of an input's run times taken as its typical latency.
const TYPICAL_QUANTILE: f64 = 0.1;

/// One timed item.
pub struct ItemRecord {
    pub input: usize,
    pub worker: ThreadId,
    pub start: Instant,
    pub end: Instant,
    pub spans: Vec<Span>,
    pub outcome: Outcome,
}

impl ItemRecord {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One computed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// Check failures and anything that makes the run not correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub setup_spans: Vec<(Instant, Instant, Vec<Span>)>,
    pub items: Vec<ItemRecord>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn timed(p: &Prepared, input: usize, trace: bool) -> ItemRecord {
    let mut spans = Spans::new(trace);
    let start = Instant::now();
    let outcome = p.run(input, &mut spans);
    ItemRecord {
        input,
        worker: std::thread::current().id(),
        start,
        end: Instant::now(),
        spans: spans.list,
        outcome,
    }
}

/// What the set-ups and the timed loop recorded.
#[derive(Default)]
struct Timed {
    /// Distinct inputs a set-up builds.
    inputs: usize,
    /// Every set-up's time in seconds, its spans, and its warm-up items.
    setup_secs: Vec<f64>,
    setup_spans: Vec<(Instant, Instant, Vec<Span>)>,
    warm: Vec<(usize, Outcome)>,
    items: Vec<ItemRecord>,
    passes: Vec<(Instant, Instant)>,
    /// The loop's wall time less the set-ups run inside it, seconds.
    wall: f64,
    /// Peak RSS, MiB, read before the second set-up.
    peak_rss: Option<Result<f64, String>>,
}

impl Timed {
    /// One set-up: builds the inputs and runs the warm-up items.
    fn set_up(&mut self, workload: Workload, seed: u64, trace: bool) -> Result<Prepared, String> {
        let mut spans = Spans::new(trace);
        let start = Instant::now();
        let prepared = workload.prepare(seed, &mut spans)?;
        for i in prepared.warmups() {
            let outcome = prepared.run(i, &mut spans);
            self.warm.push((i, outcome));
        }
        let end = Instant::now();
        self.inputs = prepared.inputs();
        self.setup_secs.push((end - start).as_secs_f64());
        self.setup_spans.push((start, end, spans.list));
        Ok(prepared)
    }
}

/// Set-ups and the timed closed loop. Items run in whole rounds until
/// `budget` is spent. Set-up runs once before the loop and again each time
/// the loop has used another 1/[`SETUP_REPEATS`] of `budget.seconds`, so
/// set-up times see the same host phases as the items (see README.md,
/// "Host noise"). A loop that ends early runs the remaining set-ups after
/// it. Only one set-up's inputs are alive at a time. Peak RSS is read
/// before the second set-up, because the heap holes later set-ups fill
/// depend on which item ran last (see README.md, `peak_rss_mb`).
fn timed_loop(workload: Workload, seed: u64, budget: Budget, trace: bool) -> Result<Timed, String> {
    let workers = workload.workers();
    let mut t = Timed::default();
    let mut p = t.set_up(workload, seed, trace)?;
    let all: Vec<usize> = (0..t.inputs).collect();
    // Round order comes from a stream of its own, independent of the inputs.
    let mut order_rng = Rng::new(seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    loop {
        let elapsed = (start.elapsed() - paused).as_secs_f64();
        if elapsed >= budget.seconds && t.items.len() >= budget.min_items {
            break;
        }
        let due = if budget.seconds > 0.0 {
            1 + (elapsed / budget.seconds * SETUP_REPEATS as f64) as usize
        } else {
            1
        };
        while t.setup_secs.len() < due.min(SETUP_REPEATS) {
            t.peak_rss.get_or_insert_with(peak_rss_mib);
            drop(p);
            let pause = Instant::now();
            p = t.set_up(workload, seed, trace)?;
            paused += pause.elapsed();
        }
        if workers > 1 {
            let pass_start = Instant::now();
            let p = &p;
            t.items
                .extend(equeue_bench::pool::run_batch(workers, &all, |&i| {
                    timed(p, i, trace)
                }));
            t.passes.push((pass_start, Instant::now()));
        } else {
            let mut round = all.clone();
            order_rng.shuffle(&mut round);
            t.items
                .extend(round.into_iter().map(|i| timed(&p, i, trace)));
        }
    }
    t.wall = (start.elapsed() - paused).as_secs_f64();
    t.peak_rss.get_or_insert_with(peak_rss_mib);
    while t.setup_secs.len() < SETUP_REPEATS {
        drop(p);
        p = t.set_up(workload, seed, trace)?;
    }
    drop(p);
    Ok(t)
}

/// Runs `workload` on the inputs of `seed`.
pub fn run(workload: Workload, seed: u64, budget: Budget, trace: bool) -> RunResult {
    let t = match timed_loop(workload, seed, budget, trace) {
        Ok(t) => t,
        Err(e) => {
            return RunResult {
                attempted: 0,
                failed: 0,
                problems: vec![format!("set-up failed: {e}")],
                metrics: vec![],
                setup_spans: vec![],
                items: vec![],
            }
        }
    };
    let workers = workload.workers();
    let Timed {
        inputs,
        setup_secs,
        setup_spans,
        warm,
        items,
        passes,
        wall,
        peak_rss,
    } = t;
    let peak_rss = peak_rss.unwrap_or_else(peak_rss_mib);

    // Checks: every item against its oracle, and every run of an input
    // against that input's first run.
    let mut problems = vec![];
    let mut first: HashMap<usize, Counters> = HashMap::new();
    let mut check = |input: usize, outcome: &Outcome| -> Option<String> {
        let drift = outcome.counters.and_then(|c| match first.get(&input) {
            Some(f) if *f != c => Some(format!(
                "counters {c:?} differ from the input's first run {f:?}"
            )),
            Some(_) => None,
            None => {
                first.insert(input, c);
                None
            }
        });
        outcome.error.clone().or(drift)
    };
    let warm_failures: Vec<String> = warm
        .iter()
        .filter_map(|(i, o)| check(*i, o).map(|e| format!("warm-up input {i}: {e}")))
        .collect();
    let item_failures: Vec<String> = items
        .iter()
        .filter_map(|r| check(r.input, &r.outcome).map(|e| format!("input {}: {e}", r.input)))
        .collect();
    let failed = item_failures.len();
    problems.extend(warm_failures.into_iter().chain(item_failures).take(5));
    if seed == 0 {
        check_golden(workload, &first, inputs, &mut problems);
    }

    let mut metrics = vec![];
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    let n = items.len() as f64;
    // End-to-end metrics value each item at its input's typical latency;
    // the raw item times are reported beside them.
    let typical = typical_latency(&items);
    let typical_ms: Vec<f64> = items.iter().map(|r| typical[&r.input] * 1e3).collect();
    let raw_ms: Vec<f64> = items.iter().map(|r| r.secs() * 1e3).collect();
    // Share of worker time spent in items; below 1 when pool workers idle.
    let busy = total(raw_ms.iter().copied()) / 1e3 / (workers as f64 * wall);
    put(
        "throughput_per_s",
        workers as f64 * busy * n / (total(typical_ms.iter().copied()) / 1e3),
        "1/s",
    );
    put("throughput_raw_per_s", n / wall, "1/s");
    for (tag, ms) in [("", typical_ms), ("_raw", raw_ms)] {
        for (p, v) in latency_percentiles(ms) {
            match v {
                Ok(v) => put(&format!("latency{tag}_p{p}_ms"), v, "ms"),
                Err(e) if tag.is_empty() => problems.push(e),
                Err(_) => {}
            }
        }
    }
    put("setup_s", stats::median(&setup_secs), "s");
    match peak_rss {
        Ok(v) => put("peak_rss_mb", v, "MiB"),
        Err(e) => problems.push(e),
    }
    let errs: Vec<f64> = items.iter().filter_map(|r| r.outcome.cycle_err).collect();
    put(
        "cycle_err_pct",
        100.0 * total(errs.iter().copied()) / errs.len().max(1) as f64,
        "%",
    );
    put("failed_frac", failed as f64 / n.max(1.0), "ratio");
    if let Some((cycles, events, ops)) = sums(&first, inputs) {
        put("inputs.cycles", cycles as f64, "count");
        put("inputs.events", events as f64, "count");
        put("inputs.ops", ops as f64, "count");
    }
    if trace {
        layer_metrics(&items, &passes, workers, wall, &mut put);
        let shares = total(
            metrics
                .iter()
                .filter(|m| m.name.ends_with(".share"))
                .map(|m| m.value),
        );
        if (shares - 100.0).abs() > 2.0 {
            problems.push(format!("layer shares sum to {shares:.2}%, not 100%"));
        }
    }

    RunResult {
        attempted: items.len(),
        failed,
        problems,
        metrics,
        setup_spans,
        items,
    }
}

/// Each input's typical latency in seconds: the lower decile (nearest
/// rank) of its timed runs. The simulator is deterministic, so every run of
/// an input does the same work; the spread between runs is host noise, and
/// on a shared host that noise only ever adds time (see README.md, "Host
/// noise").
fn typical_latency(items: &[ItemRecord]) -> HashMap<usize, f64> {
    let mut runs: HashMap<usize, Vec<f64>> = HashMap::new();
    for r in items {
        runs.entry(r.input).or_default().push(r.secs());
    }
    runs.into_iter()
        .map(|(input, mut v)| {
            v.sort_by(f64::total_cmp);
            let rank = ((TYPICAL_QUANTILE * v.len() as f64).ceil() as usize).clamp(1, v.len());
            (input, v[rank - 1])
        })
        .collect()
}

/// The p50 and p99 of latencies `ms`.
fn latency_percentiles(mut ms: Vec<f64>) -> [(u32, Result<f64, String>); 2] {
    ms.sort_by(f64::total_cmp);
    [50, 99].map(|p| (p, stats::percentile(&ms, f64::from(p))))
}

/// Sums of cycles, events and ops over inputs `0..inputs`, if every one ran.
fn sums(first: &HashMap<usize, Counters>, inputs: usize) -> Option<(u64, u64, u64)> {
    (0..inputs).try_fold((0, 0, 0), |(c, e, o), i| {
        first
            .get(&i)
            .map(|f| (c + f.cycles, e + f.events, o + f.ops))
    })
}

const GOLDEN: &str = include_str!("../golden_seed0.txt");

/// Seed 0's counter sums must match `golden_seed0.txt`: a change that
/// alters simulated behaviour is a semantics change, not a speed-up.
fn check_golden(
    workload: Workload,
    first: &HashMap<usize, Counters>,
    inputs: usize,
    problems: &mut Vec<String>,
) {
    let want = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.first() == Some(&workload.name()));
    let got = sums(first, inputs).map(|(c, e, o)| format!("{c} {e} {o}"));
    match (want, got) {
        (Some(w), Some(g)) if w[1..].join(" ") == g => {}
        (w, g) => problems.push(format!(
            "seed-0 sums (cycles events ops) {} differ from golden_seed0.txt {}",
            g.unwrap_or_default(),
            w.map(|w| w[1..].join(" ")).unwrap_or_default()
        )),
    }
}

/// Per-layer metrics over the timed items: busy time and share of item
/// latency per layer, the uncovered remainder, pool idleness, and the
/// engine's work counts.
fn layer_metrics(
    items: &[ItemRecord],
    passes: &[(Instant, Instant)],
    workers: usize,
    wall: f64,
    put: &mut impl FnMut(&str, f64, &'static str),
) {
    let n = items.len().max(1) as f64;
    let item_secs = total(items.iter().map(ItemRecord::secs));
    let busy = |layer: &str| -> f64 {
        let spans = items
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| s.name == layer)
            .map(Span::secs);
        total(spans)
    };
    for layer in LAYERS {
        let b = busy(layer);
        put(&format!("{layer}.busy_ms"), b * 1e3 / n, "ms");
        put(&format!("{layer}.share"), 100.0 * b / item_secs, "%");
    }
    let uncovered = total(
        items
            .iter()
            .map(|r| (r.secs() - total(r.spans.iter().map(Span::secs))).max(0.0)),
    );
    put("unattributed.share", 100.0 * uncovered / item_secs, "%");
    put(
        "pool.idle_frac",
        100.0 * (1.0 - item_secs / (workers as f64 * wall)),
        "%",
    );
    put("pool.tail_ms", pool_tail(items, passes) * 1e3, "ms");

    let counters: Vec<Counters> = items.iter().filter_map(|r| r.outcome.counters).collect();
    let count = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let run_ns = busy("core.run") * 1e9;
    put(
        "core.run.ns_per_event",
        run_ns / count(|c| c.events).max(1.0),
        "ns",
    );
    put(
        "core.run.ns_per_op",
        run_ns / count(|c| c.ops).max(1.0),
        "ns",
    );
    put("core.run.events", count(|c| c.events) / n, "count");
    put("core.run.spawned", count(|c| c.spawned) / n, "count");
    put("core.run.ops", count(|c| c.ops) / n, "count");
    put(
        "core.run.fused_entries",
        count(|c| c.fused_entries) / n,
        "count",
    );
    let peak = counters
        .iter()
        .map(|c| c.peak_tensor_bytes)
        .max()
        .unwrap_or(0);
    put("core.run.peak_tensor_mb", peak as f64 / MIB, "MiB");
    let report_bytes: usize = items.iter().map(|r| r.outcome.report_bytes).sum();
    put("core.report.json_mb", report_bytes as f64 / MIB / n, "MiB");
}

/// Mean, over pool passes, of the time between the first worker running
/// out of items and the pass ending.
fn pool_tail(items: &[ItemRecord], passes: &[(Instant, Instant)]) -> f64 {
    let tails: Vec<Duration> = passes
        .iter()
        .map(|&(start, end)| {
            let mut last: HashMap<ThreadId, Instant> = HashMap::new();
            for r in items.iter().filter(|r| r.start >= start && r.end <= end) {
                let e = last.entry(r.worker).or_insert(r.end);
                *e = (*e).max(r.end);
            }
            last.values().min().map_or(Duration::ZERO, |&t| end - t)
        })
        .collect();
    total(tails.iter().map(Duration::as_secs_f64)) / tails.len().max(1) as f64
}

/// A float sum that is +0 when empty (`Sum for f64` starts from -0).
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-count run of each workload passes all of its checks.
    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        for w in Workload::ALL {
            let r = run(
                w,
                3,
                Budget {
                    seconds: 0.0,
                    min_items: 1,
                },
                true,
            );
            assert!(r.attempted >= 1, "{}", w.name());
            assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.problems);
            // Too few items for percentiles; every other check passes.
            assert!(
                r.problems.iter().all(|p| p.contains("samples beyond")),
                "{}: {:?}",
                w.name(),
                r.problems
            );
            let shares: f64 = r
                .metrics
                .iter()
                .filter(|m| m.name.ends_with(".share"))
                .map(|m| m.value)
                .sum();
            assert!((shares - 100.0).abs() < 2.0, "{}: {shares}", w.name());
        }
    }
}
