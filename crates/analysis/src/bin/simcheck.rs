//! `simcheck` — run the static-analysis pipeline over EQueue modules.
//!
//! ```text
//! simcheck [--json] [--quiet] --all-scenarios
//! simcheck [--json] [--quiet] --scenario NAME
//! simcheck [--json] [--quiet] FILE.mlir [FILE.mlir ...]
//! ```
//!
//! Exit status: 0 = no Error-severity diagnostics, 1 = at least one, 2 =
//! usage or input error. Analysis is lenient — malformed IR yields typed
//! diagnostics, not a crash — but a file that fails to *parse* is a usage
//! error.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;

use equeue_analysis::{analyze_module, AnalysisReport, Severity};
use equeue_core::{RunLimits, SimLibrary};
use equeue_gen::scenarios::golden_scenarios;

struct Options {
    json: bool,
    quiet: bool,
    all_scenarios: bool,
    scenario: Option<String>,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simcheck [--json] [--quiet] (--all-scenarios | --scenario NAME | FILE...)\n\
         \n\
         Runs the four static analysis passes (deadlock proof, fusibility,\n\
         dead values, resource bounds) and prints diagnostics.\n\
         Exit 0: clean; 1: errors found; 2: bad usage/input."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        json: false,
        quiet: false,
        all_scenarios: false,
        scenario: None,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--all-scenarios" => opts.all_scenarios = true,
            "--scenario" => match args.next() {
                Some(n) => opts.scenario = Some(n),
                None => return Err(usage()),
            },
            "--help" | "-h" => return Err(usage()),
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            _ => return Err(usage()),
        }
    }
    if !opts.all_scenarios && opts.scenario.is_none() && opts.files.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

fn emit(name: &str, report: &AnalysisReport, opts: &Options) {
    if opts.json {
        println!("{{\"name\":\"{name}\",\"report\":{}}}", report.to_json());
        return;
    }
    println!("=== {name} ===");
    if opts.quiet {
        let shown = report
            .diagnostics
            .iter()
            .filter(|d| d.severity > Severity::Info);
        for d in shown {
            println!("{d}");
        }
        println!(
            "{}: {} errors, {} warnings, deadlock_free={}",
            name,
            report.error_count(),
            report.warning_count(),
            report.deadlock_free
        );
    } else {
        print!("{}", report.to_text());
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let library = SimLibrary::standard();
    let limits = RunLimits::default();

    let mut targets: Vec<(String, equeue_ir::Module)> = Vec::new();
    if opts.all_scenarios || opts.scenario.is_some() {
        let want = opts.scenario.as_deref();
        for s in golden_scenarios() {
            if want.is_none_or(|w| w == s.name) {
                targets.push((s.name.to_string(), s.module));
            }
        }
        if targets.is_empty() {
            eprintln!(
                "simcheck: unknown scenario: {}",
                opts.scenario.unwrap_or_default()
            );
            eprintln!("known scenarios:");
            for s in golden_scenarios() {
                eprintln!("  {}", s.name);
            }
            return ExitCode::from(2);
        }
    }
    for f in &opts.files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simcheck: {f}: {e}");
                return ExitCode::from(2);
            }
        };
        match equeue_ir::parse_module(&text) {
            Ok(m) => targets.push((f.clone(), m)),
            Err(e) => {
                eprintln!("simcheck: {f}: parse error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut errors = 0usize;
    for (name, module) in &targets {
        let report = analyze_module(module, &library, &limits);
        errors += report.error_count();
        emit(name, &report, &opts);
    }
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
