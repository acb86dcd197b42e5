//! Spans around the benchmark's calls into each layer, kept in memory and
//! written as Chrome trace JSON when the run ends.
//!
//! A span is recorded from outside: the benchmark wraps the public call
//! into a layer (`generate_systolic`, `CompiledModule::compile`, …) with
//! `Instant` reads, so the program under test is not modified.

use crate::json;
use std::fmt::Write;
use std::time::Instant;

/// The layers an item can call into, in pipeline order. Each name is the
/// span name and the prefix of that layer's metrics.
pub const LAYERS: [&str; 9] = [
    "gen",
    "ir.parse",
    "passes",
    "ir.verify",
    "core.compile",
    "core.run",
    "core.report",
    "core.teardown",
    "scalesim",
];

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The spans of one item or one set-up. With tracing off, [`Spans::time`]
/// only calls the closure.
pub struct Spans {
    on: bool,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, list: vec![] }
    }

    /// Runs `f` as one call into layer `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.list.push(Span {
            name,
            start,
            end: Instant::now(),
        });
        out
    }
}

/// A parent span (an item or a set-up) and the layer spans inside it.
pub struct Parent<'a> {
    pub cat: &'static str,
    pub item: u64,
    pub worker: usize,
    pub start: Instant,
    pub end: Instant,
    pub children: &'a [Span],
}

/// Chrome trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per parent and per layer span, timestamps in µs since `epoch`, one
/// track per worker. Layer spans carry their parent's category and item id.
pub fn chrome_json<'a>(epoch: Instant, parents: impl Iterator<Item = Parent<'a>>) -> String {
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut out = String::from("[\n");
    let mut first = true;
    let mut event = |out: &mut String, name: &str, cat: &str, start, end, p: &Parent| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\": {}, \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"item\": {}, \"parent\": \"{}\"}}}}",
            json::string(name),
            us(start),
            us(end) - us(start),
            p.worker,
            p.item,
            p.cat,
        );
    };
    for p in parents {
        event(&mut out, p.cat, p.cat, p.start, p.end, &p);
        for s in p.children {
            event(&mut out, s.name, "layer", s.start, s.end, &p);
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let mut off = Spans::new(false);
        assert_eq!(off.time("gen", || 7), 7);
        assert!(off.list.is_empty());
        let mut on = Spans::new(true);
        on.time("gen", || ());
        assert_eq!(on.list.len(), 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_nested_spans() {
        let mut spans = Spans::new(true);
        let start = Instant::now();
        spans.time("core.run", || ());
        let parent = Parent {
            cat: "item",
            item: 3,
            worker: 1,
            start,
            end: Instant::now(),
            children: &spans.list,
        };
        let text = chrome_json(start, std::iter::once(parent));
        let v = json::parse(&text).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("core.run"));
        assert_eq!(
            events[1].get("args").unwrap().get("item").unwrap().as_f64(),
            Some(3.0)
        );
    }
}
