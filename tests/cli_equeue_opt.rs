//! Integration tests for the `equeue-opt` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

const CONV_MODULE: &str = r#"
%mem = "equeue.create_mem"() {banks = 4, data_bits = 32, kind = "SRAM", shape = [200]} : () -> !equeue.mem
%proc = "equeue.create_proc"() {kind = "ARMr5"} : () -> !equeue.proc
%i = "memref.alloc"() : () -> memref<1x4x4xi32>
%w = "memref.alloc"() : () -> memref<1x1x2x2xi32>
%o = "memref.alloc"() : () -> memref<1x3x3xi32>
"linalg.conv2d"(%i, %w, %o) : (memref<1x4x4xi32>, memref<1x1x2x2xi32>, memref<1x3x3xi32>) -> ()
"#;

fn run_opt(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_equeue-opt"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn equeue-opt");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn pipeline_lowers_and_simulates() {
    let (_, stderr, ok) = run_opt(
        &[
            "-",
            "--pass",
            "allocate-buffer",
            "--pass",
            "convert-linalg-to-affine-loops",
            "--pass",
            "equeue-read-write",
            "--pass",
            "launch",
            "--no-print",
            "--simulate",
        ],
        CONV_MODULE,
    );
    assert!(ok, "{stderr}");
    assert!(stderr.contains("simulated runtime:"), "{stderr}");
}

#[test]
fn prints_lowered_ir_by_default() {
    let (stdout, stderr, ok) = run_opt(
        &["-", "--pass", "convert-linalg-to-affine-loops"],
        CONV_MODULE,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"affine.for\""), "{stdout}");
    assert!(!stdout.contains("linalg.conv2d"), "{stdout}");
}

#[test]
fn canonicalize_folds_via_cli() {
    let module = "\
%a = \"arith.constant\"() {value = 2} : () -> i32\n\
%b = \"arith.constant\"() {value = 3} : () -> i32\n\
%c = \"arith.addi\"(%a, %b) : (i32, i32) -> i32\n\
\"test.use\"(%c) : (i32) -> ()\n";
    let (stdout, _, ok) = run_opt(&["-", "--pass", "canonicalize"], module);
    assert!(ok);
    assert!(stdout.contains("value = 5"), "{stdout}");
    assert!(!stdout.contains("arith.addi"), "{stdout}");
}

#[test]
fn unknown_pass_fails_cleanly() {
    let (_, stderr, ok) = run_opt(&["-", "--pass", "frobnicate"], CONV_MODULE);
    assert!(!ok);
    assert!(stderr.contains("unknown pass"), "{stderr}");
}

#[test]
fn parse_errors_report_position() {
    let (_, stderr, ok) = run_opt(&["-"], "not an op\n");
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn verify_flag_reports_ok() {
    let (_, stderr, ok) = run_opt(&["-", "--verify", "--no-print"], CONV_MODULE);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verification: ok"), "{stderr}");
}

#[test]
fn post_pass_verification_names_the_pass_as_given() {
    // The pass behind `flatten-conv-loops-ws` calls itself
    // `flatten-conv-loops`; the error names it as the user spelled it.
    let bad = "%m = \"equeue.create_mem\"() {banks = 0, data_bits = 32, kind = \"SRAM\", shape = [8]} : () -> !equeue.mem\n";
    let (_, stderr, ok) = run_opt(&["-", "--pass", "flatten-conv-loops-ws", "--no-print"], bad);
    assert!(!ok);
    assert!(
        stderr.contains("pass 'flatten-conv-loops-ws' failed: post-pass verification failed:"),
        "{stderr}"
    );
    assert!(stderr.contains("banks must be in 1..="), "{stderr}");
}
