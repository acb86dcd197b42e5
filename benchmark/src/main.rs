//! The EQueue benchmark: four seeded user workloads, timed end to end and
//! layer by layer from outside the program. See README.md.
//!
//! ```text
//! equeue-benchmark [--seed N] [--seconds S] [--json FILE]
//!     every workload, each in its own child process, untraced then traced
//! equeue-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                  [--trace-json FILE] [--json FILE]
//!     one workload in this process
//! equeue-benchmark compare A B
//!     compare two result files written with --json
//! ```
//!
//! Every run prints its metrics as `workload metric value unit` lines, and
//! a single-workload run ends with one JSON line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`) named in `BENCHMARK.json`.

mod compare;
mod json;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{Budget, RunResult};
use spec::spec;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    trace_json: Option<String>,
    json: Option<String>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "equeue-benchmark: {msg}\n\
         usage: equeue-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                       [--trace-json FILE] [--json FILE]\n\
         \x20      equeue-benchmark compare A B\n\
         workloads: {}",
        spec().workloads.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::from_name(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-json" => a.trace_json = Some(value()?),
            "--json" => a.json = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let rest: Vec<String> = argv.skip(1).collect();
        let [a, b] = rest.as_slice() else {
            return usage("compare takes two result files");
        };
        return match compare::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => usage(&e),
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let seconds = args.seconds.unwrap_or(spec().run_seconds);
    match args.workload {
        Some(w) => run_one(w, &args, seconds, epoch),
        None if args.trace.is_some() || args.trace_json.is_some() => {
            usage("--trace and --trace-json apply to one --workload")
        }
        None => run_all(&args, seconds),
    }
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// One member of a result's `metrics` object.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::string(name),
        json::number(value),
        json::string(unit)
    )
}

/// Runs one workload here and prints its lines and result JSON.
fn run_one(w: Workload, args: &Args, seconds: f64, epoch: Instant) -> ExitCode {
    let trace = args.trace.unwrap_or(false) || args.trace_json.is_some();
    let budget = Budget {
        seconds,
        min_items: stats::MIN_BEYOND * 100,
    };
    let r = run::run(w, args.seed, budget, trace);
    for m in &r.metrics {
        println!(
            "{} {} {} {}",
            w.name(),
            m.name,
            format_value(m.value),
            m.unit
        );
    }
    let mut problems = r.problems.clone();
    let defs = if trace {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    let mut reported = vec![];
    for d in defs {
        match r.metric(&d.name) {
            Some(m) => reported.push(metric_json(&d.name, m.value, &d.unit)),
            None => problems.push(format!("metric {} was not measured", d.name)),
        }
    }
    if let Some(path) = &args.trace_json {
        if let Err(e) = std::fs::write(path, chrome(&r, epoch)) {
            problems.push(format!("cannot write {path}: {e}"));
        }
    }
    if let Some(path) = &args.json {
        let correct = r.failed == 0 && problems.is_empty();
        let all: Vec<String> = r
            .metrics
            .iter()
            .map(|m| metric_json(&m.name, m.value, m.unit))
            .collect();
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            json::string(w.name()),
            args.seed,
            u8::from(trace),
            r.attempted,
            r.failed,
            all.join(", ")
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            problems.push(format!("cannot append to {path}: {e}"));
        }
    }
    for p in &problems {
        eprintln!("{}: check failed: {p}", w.name());
    }
    let correct = r.failed == 0 && problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        reported.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's spans as Chrome trace JSON: set-ups on track 0, items on one
/// track per worker.
fn chrome(r: &RunResult, epoch: Instant) -> String {
    let mut tracks: HashMap<std::thread::ThreadId, usize> = HashMap::new();
    let setups = r
        .setup_spans
        .iter()
        .enumerate()
        .map(|(i, (start, end, spans))| trace::Parent {
            cat: "setup",
            item: i as u64,
            worker: 0,
            start: *start,
            end: *end,
            children: spans,
        });
    let items = r.items.iter().enumerate().map(|(i, it)| {
        let next = tracks.len() + 1;
        trace::Parent {
            cat: "item",
            item: i as u64,
            worker: *tracks.entry(it.worker).or_insert(next),
            start: it.start,
            end: it.end,
            children: &it.spans,
        }
    });
    trace::chrome_json(epoch, setups.chain(items))
}

/// Runs every workload in its own child process, untraced then traced,
/// forwarding their metric lines and adding the tracing overhead.
fn run_all(args: &Args, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage(&format!("cannot locate this program: {e}")),
    };
    let mut ok = true;
    for name in &spec().workloads {
        let mut throughput = [None, None];
        // The traced run repeats the end-to-end lines; only its per-layer
        // lines are new.
        let mut printed = HashSet::new();
        for trace in [0u8, 1] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(path) = &args.json {
                cmd.args(["--json", path]);
            }
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{name}: cannot start a child run: {e}");
                    ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in &lines {
                let metric = l.split_whitespace().nth(1).unwrap_or_default();
                if printed.insert(metric.to_string()) {
                    println!("{l}");
                }
            }
            let result = json::parse(last);
            let correct = result
                .as_ref()
                .ok()
                .and_then(|v| v.get("correct"))
                .and_then(json::Value::as_bool);
            ok &= out.status.success() && correct == Some(true);
            throughput[trace as usize] = lines
                .iter()
                .filter_map(|l| l.strip_prefix(&format!("{name} throughput_per_s ")))
                .find_map(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
        }
        if let [Some(plain), Some(traced)] = throughput {
            println!(
                "{name} trace.overhead_pct {} %",
                format_value(100.0 * (plain / traced - 1.0))
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_code_workloads() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec().workloads, names);
    }

    #[test]
    fn declared_metrics_are_measured_with_their_units() {
        // A traced tiny run computes every metric the code knows.
        let r = run::run(
            Workload::ResimSystolic,
            1,
            Budget {
                seconds: 0.0,
                min_items: 1000,
            },
            true,
        );
        for d in spec().end_to_end.iter().chain(&spec().per_layer) {
            let m = r
                .metric(&d.name)
                .unwrap_or_else(|| panic!("{} not measured", d.name));
            assert_eq!(m.unit, d.unit, "{}", d.name);
        }
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&["--workload", "kernel_fused", "--seed", "7", "--trace", "1"]).unwrap();
        assert_eq!(a.workload, Some(Workload::KernelFused));
        assert_eq!((a.seed, a.trace), (7, Some(true)));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
