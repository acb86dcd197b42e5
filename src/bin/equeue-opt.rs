//! `equeue-opt` — the `mlir-opt` analogue for the EQueue stack.
//!
//! Reads a textual EQueue/affine/linalg module, runs a named pass
//! pipeline, and prints the result (or verifies/simulates it):
//!
//! ```text
//! equeue-opt input.mlir \
//!     --pass convert-linalg-to-affine-loops \
//!     --pass equeue-read-write \
//!     --pass canonicalize \
//!     --simulate --trace out.json
//! ```
//!
//! Parameterised passes pick their components from the module the way the
//! paper's pass options name components: `allocate-buffer` places buffers
//! on the *first* memory declared, `launch` targets the *first* processor.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use equeue::prelude::*;
use equeue_ir::{IrError, Pass};
use equeue_passes as passes;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::process::ExitCode;

struct Options {
    input: Option<String>,
    pipeline: Vec<String>,
    verify: bool,
    simulate: bool,
    print: bool,
    summary: bool,
    trace: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: equeue-opt [FILE|-] [--pass NAME]... [--verify] [--simulate] \
         [--summary] [--trace FILE] [--no-print]\n\
         passes: canonicalize, convert-linalg-to-affine-loops, equeue-read-write,\n\
         allocate-buffer, launch, memcpy-to-launch, merge-memcpy-launch,\n\
         lower-extraction, flatten-conv-loops-ws|is|os"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        input: None,
        pipeline: vec![],
        verify: false,
        simulate: false,
        print: true,
        summary: false,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pass" | "-p" => match args.next() {
                Some(p) => opts.pipeline.push(p),
                None => usage(),
            },
            "--verify" => opts.verify = true,
            "--simulate" => opts.simulate = true,
            "--summary" => {
                opts.simulate = true;
                opts.summary = true;
            }
            "--trace" => match args.next() {
                Some(f) => {
                    opts.simulate = true;
                    opts.trace = Some(f);
                }
                None => usage(),
            },
            "--no-print" => opts.print = false,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') || f == "-" => {
                if opts.input.replace(f.to_string()).is_some() {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    opts
}

/// Resolves a pass name, using the module for component parameters.
fn make_pass(name: &str, module: &Module) -> Result<Box<dyn Pass>, IrError> {
    let first_result = |op_name: &str| -> Result<equeue_ir::ValueId, IrError> {
        module
            .find_first(op_name)
            .map(|op| module.result(op, 0))
            .ok_or_else(|| {
                IrError::other(format!("pass '{name}' needs a '{op_name}' in the module"))
            })
    };
    Ok(match name {
        "canonicalize" => Box::new(passes::Canonicalize),
        "convert-linalg-to-affine-loops" => Box::new(passes::ConvertLinalgToAffineLoops),
        "equeue-read-write" => Box::new(passes::EqueueReadWrite),
        "memcpy-to-launch" => Box::new(passes::MemcpyToLaunch),
        "merge-memcpy-launch" => Box::new(passes::MergeMemcpyLaunch),
        "lower-extraction" => Box::new(passes::LowerExtraction),
        "allocate-buffer" => Box::new(passes::AllocateMemory::new(first_result(
            "equeue.create_mem",
        )?)),
        "launch" => Box::new(passes::WrapInLaunch::new(first_result(
            "equeue.create_proc",
        )?)),
        "flatten-conv-loops-ws" => Box::new(passes::FlattenConvLoops::new(Dataflow::Ws)),
        "flatten-conv-loops-is" => Box::new(passes::FlattenConvLoops::new(Dataflow::Is)),
        "flatten-conv-loops-os" => Box::new(passes::FlattenConvLoops::new(Dataflow::Os)),
        other => return Err(IrError::other(format!("unknown pass '{other}'"))),
    })
}

/// A pipeline entry, named as on the command line. The pass is built when
/// its turn comes, so its component lookup sees the module as the earlier
/// passes left it.
struct Named(String);

impl Pass for Named {
    fn name(&self) -> &str {
        &self.0
    }

    fn run(&mut self, module: &mut Module) -> Result<(), IrError> {
        make_pass(&self.0, module)?.run(module)
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args();
    let text = match opts.input.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
        Some(path) => std::fs::read_to_string(path)?,
    };

    let mut module = parse_module(&text)?;
    let registry = standard_registry();

    let mut pm = PassManager::new(registry.clone());
    for name in &opts.pipeline {
        pm.add(Named(name.clone()));
    }
    pm.run(&mut module)?;
    if opts.verify {
        verify_module(&module, &registry)?;
        eprintln!("verification: ok");
    }
    if opts.print {
        print!("{}", print_module(&module));
    }
    if opts.simulate {
        // Trace only when the trace is written out.
        let options = SimOptions {
            trace: opts.trace.is_some(),
            ..Default::default()
        };
        let report = simulate_with(&module, &SimLibrary::standard(), &options)?;
        eprintln!("simulated runtime: {} cycles", report.cycles);
        if opts.summary {
            eprint!("{}", report.summary());
        }
        if let Some(path) = &opts.trace {
            let mut file = BufWriter::new(File::create(path)?);
            report.trace.write_chrome_json(&mut file)?;
            file.flush()?;
            eprintln!("trace written: {path}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("equeue-opt: {e}");
            ExitCode::FAILURE
        }
    }
}
