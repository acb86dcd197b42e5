//! Deterministic text and JSON renderings of an [`AnalysisReport`].
//!
//! Both formats are stable across runs and thread counts (the analysis is
//! a pure function of the module) and are what the golden-snapshot tests
//! pin down. JSON is hand-rolled — the workspace carries no external
//! dependencies — with keys in fixed order.

use std::fmt::Write as _;

use equeue_core::FuseVerdict;

use crate::AnalysisReport;

/// Plain-text rendering (the `simcheck` default output).
pub(crate) fn to_text(report: &AnalysisReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== deadlock ==");
    let _ = writeln!(s, "deadlock_free: {}", report.deadlock_free);
    let _ = writeln!(s, "== fusibility ==");
    for l in &report.fusibility.loops {
        let status = match &l.verdict {
            FuseVerdict::Fused { insts } => format!("fuses ({insts} insts)"),
            FuseVerdict::ZeroTrip => "zero-trip".to_string(),
            FuseVerdict::Declined(reason) => format!("declines: {reason}"),
        };
        let trip = l
            .trip_count
            .map_or("unknown".to_string(), |t| t.to_string());
        let _ = writeln!(s, "{}: {status}, trip {trip}", l.location);
    }
    let _ = writeln!(
        s,
        "fusible: {} of {}",
        report.fusibility.fusible_count(),
        report.fusibility.loops.len()
    );
    let _ = writeln!(s, "== resources ==");
    let fmt_bound = |b: Option<u64>| b.map_or("unknown".to_string(), |v| v.to_string());
    let _ = writeln!(
        s,
        "live_tensor_bytes <= {}",
        fmt_bound(report.resources.live_tensor_bytes_bound)
    );
    let _ = writeln!(s, "events <= {}", fmt_bound(report.resources.events_bound));
    let _ = writeln!(s, "== diagnostics ==");
    for d in &report.diagnostics {
        let _ = writeln!(s, "{d}");
    }
    s
}

/// Minimal JSON string escaping.
fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(x) => {
            let _ = write!(out, "{x}");
        }
        None => out.push_str("null"),
    }
}

/// JSON rendering (the `simcheck --json` output).
pub(crate) fn to_json(report: &AnalysisReport) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"deadlock_free\":{},", report.deadlock_free);
    s.push_str("\"fusibility\":{\"loops\":[");
    for (i, l) in report.fusibility.loops.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"location\":");
        esc(&mut s, &l.location);
        s.push_str(",\"trip\":");
        opt_u64(&mut s, l.trip_count);
        s.push_str(",\"status\":");
        match &l.verdict {
            FuseVerdict::Fused { insts } => {
                let _ = write!(s, "\"fuses\",\"insts\":{insts}");
            }
            FuseVerdict::ZeroTrip => s.push_str("\"zero-trip\""),
            FuseVerdict::Declined(reason) => {
                s.push_str("\"declines\",\"reason\":");
                esc(&mut s, &reason.to_string());
            }
        }
        s.push('}');
    }
    let _ = write!(s, "],\"fusible\":{}}},", report.fusibility.fusible_count());
    s.push_str("\"resources\":{\"live_tensor_bytes_bound\":");
    opt_u64(&mut s, report.resources.live_tensor_bytes_bound);
    s.push_str(",\"events_bound\":");
    opt_u64(&mut s, report.resources.events_bound);
    s.push_str("},\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"pass\":");
        esc(&mut s, d.pass);
        s.push_str(",\"severity\":");
        esc(&mut s, d.severity.as_str());
        s.push_str(",\"code\":");
        esc(&mut s, d.code);
        s.push_str(",\"message\":");
        esc(&mut s, &d.message);
        s.push_str(",\"location\":");
        match &d.location {
            Some(loc) => esc(&mut s, loc),
            None => s.push_str("null"),
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}
