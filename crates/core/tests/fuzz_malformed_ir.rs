//! Malformed-IR fuzzing: truncated and mutated textual programs must never
//! panic anywhere in parse → compile → simulate. Every failure has to
//! surface as a typed [`SimError`].
//!
//! The fuzzer is dependency-free: a xorshift64* PRNG drives byte-level and
//! line-level mutations of a small corpus of real programs. Each case runs
//! under tight [`RunLimits`] (plus a wall deadline) so that an accidentally
//! valid-but-huge program cannot hang the suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use equeue_core::{CompiledModule, RunLimits, SimLibrary, SimOptions};

mod malformed;

fn tight_options() -> SimOptions {
    SimOptions {
        trace: false,
        limits: RunLimits {
            max_cycles: 200_000,
            max_events: 200_000,
            max_live_tensor_bytes: 16 << 20,
            wall_deadline: Some(Duration::from_millis(500)),
        },
        cancel: None,
        ..Default::default()
    }
}

/// Feeds ≥1k truncated/mutated programs through the full pipeline. A panic
/// anywhere (parser, layout prepass, engine) fails the test with the
/// offending case number and input so it can be replayed.
#[test]
fn mutated_ir_never_panics() {
    let mut parsed_ok = 0usize;
    let mut simulated_ok = 0usize;

    for (case, text) in malformed::mutated_cases().iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match CompiledModule::compile_text(text, SimLibrary::standard()) {
                Ok(compiled) => {
                    let simulated = compiled.simulate(&tight_options()).is_ok();
                    (true, simulated)
                }
                Err(_) => (false, false),
            }
        }));

        match outcome {
            Ok((compiled, simulated)) => {
                parsed_ok += usize::from(compiled);
                simulated_ok += usize::from(simulated);
            }
            Err(_) => panic!("fuzz case {case} panicked on input:\n{text}"),
        }
    }

    // Sanity: the mutator must not be so destructive that nothing survives —
    // otherwise the engine paths were never exercised.
    assert!(parsed_ok > 10, "only {parsed_ok} cases compiled");
    assert!(simulated_ok > 5, "only {simulated_ok} cases simulated");
}

/// Pure truncation sweep: every prefix of every corpus program must parse
/// or fail cleanly. Catches end-of-input handling bugs in the lexer.
#[test]
fn truncated_ir_never_panics() {
    for (i, at, text) in malformed::truncations() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(c) = CompiledModule::compile_text(text, SimLibrary::standard()) {
                let _ = c.simulate(&tight_options());
            }
        }));
        assert!(
            outcome.is_ok(),
            "corpus {i} truncated at byte {at} panicked:\n{text}"
        );
    }
}
