//! Textual printing of modules in an MLIR-flavoured generic syntax.
//!
//! The grammar is intentionally the *generic* MLIR operation form:
//!
//! ```text
//! %done = "equeue.launch"(%start, %proc) ({
//! ^bb0(%buf: !equeue.buffer<64xi32>):
//!   "equeue.return"() : () -> ()
//! }) {kind = "block"} : (!equeue.signal, !equeue.proc) -> !equeue.signal
//! ```
//!
//! Output is deterministic (attributes print sorted, values are numbered in
//! program order honouring name hints) and is accepted verbatim by
//! [`crate::parser::parse_module`], which the round-trip property tests rely
//! on.

use crate::attr::write_quoted;
use crate::module::{BlockId, Module, OpId, RegionId, ValueId};
use crate::parser::is_bare_ident;
use std::collections::HashSet;
use std::fmt::Write;

/// Prints an entire module.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type, print_module};
/// let mut m = Module::new();
/// let block = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, block);
/// b.op("arith.constant").attr("value", 1i64).result(Type::I32).finish();
/// let text = print_module(&m);
/// assert!(text.contains("\"arith.constant\"() {value = 1} : () -> i32"));
/// ```
pub fn print_module(module: &Module) -> String {
    Printer::new(module).print()
}

/// A value's printed name, without its `%`.
enum ValueName {
    Number(usize),
    Hinted(Box<str>),
}

struct Printer<'m> {
    module: &'m Module,
    /// Each value's name once given, indexed by [`ValueId::index`].
    names: Vec<Option<ValueName>>,
    /// The names given from hints.
    hinted: HashSet<Box<str>>,
    /// The hinted names that read as numbers, by value, so numbering can
    /// skip them.
    hinted_numbers: HashSet<usize>,
    next_id: usize,
}

/// The number `s` spells as `usize`'s `Display` would, if any.
fn as_number(s: &str) -> Option<usize> {
    let canonical = s == "0" || (!s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit()));
    if canonical {
        s.parse().ok()
    } else {
        None
    }
}

impl<'m> Printer<'m> {
    fn new(module: &'m Module) -> Self {
        Printer {
            module,
            names: Vec::new(),
            hinted: HashSet::new(),
            hinted_numbers: HashSet::new(),
            next_id: 0,
        }
    }

    fn print(mut self) -> String {
        let mut out = String::new();
        let top = self.module.top_block();
        for &op in &self.module.block(top).ops {
            if self.module.op(op).erased {
                continue;
            }
            self.write_op(&mut out, op, 0);
        }
        out
    }

    /// Whether `candidate` is already some value's name. Numbers are given
    /// in rising order, so a number below `next_id` is taken unless it was
    /// skipped, and a skipped number is a hinted name.
    fn taken(&self, candidate: &str) -> bool {
        self.hinted.contains(candidate) || as_number(candidate).is_some_and(|n| n < self.next_id)
    }

    /// Names `v` on first use: its hint, suffixed `_1`, `_2`, … until the
    /// name is free, or else the next free number.
    fn name_of(&mut self, v: ValueId) {
        let i = v.index();
        if i >= self.names.len() {
            self.names
                .resize_with(self.module.num_values().max(i + 1), || None);
        }
        if self.names[i].is_none() {
            let name = match self.module.value(v).name_hint.as_deref() {
                Some(hint) => {
                    let mut candidate = hint.to_string();
                    let mut k = 0;
                    while self.taken(&candidate) {
                        k += 1;
                        candidate = format!("{hint}_{k}");
                    }
                    if let Some(n) = as_number(&candidate) {
                        self.hinted_numbers.insert(n);
                    }
                    let candidate: Box<str> = candidate.into();
                    self.hinted.insert(candidate.clone());
                    ValueName::Hinted(candidate)
                }
                None => {
                    while self.hinted_numbers.contains(&self.next_id) {
                        self.next_id += 1;
                    }
                    self.next_id += 1;
                    ValueName::Number(self.next_id - 1)
                }
            };
            self.names[i] = Some(name);
        }
    }

    /// Writes `%name` for `v`, naming it first if needed.
    fn write_value(&mut self, out: &mut String, v: ValueId) {
        self.name_of(v);
        out.push('%');
        match &self.names[v.index()] {
            Some(ValueName::Number(n)) => {
                let _ = write!(out, "{n}");
            }
            Some(ValueName::Hinted(h)) => out.push_str(h),
            None => {}
        }
    }

    fn write_values(&mut self, out: &mut String, values: &[ValueId]) {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            self.write_value(out, v);
        }
    }

    fn write_types(&self, out: &mut String, values: &[ValueId]) {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", self.module.value_type(v));
        }
    }

    fn write_op(&mut self, out: &mut String, op: OpId, indent: usize) {
        let module = self.module;
        let data = module.op(op);
        indent_by(out, indent);
        if !data.results.is_empty() {
            self.write_values(out, &data.results);
            out.push_str(" = ");
        }
        let _ = write_quoted(out, &data.name);
        out.push('(');
        self.write_values(out, &data.operands);
        out.push(')');

        if !data.regions.is_empty() {
            out.push_str(" (");
            for (i, &r) in data.regions.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                self.write_region(out, r, indent);
            }
            out.push(')');
        }

        if !data.attrs.is_empty() {
            out.push_str(" {");
            for (i, (k, v)) in data.attrs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                if is_bare_ident(k) {
                    out.push_str(k);
                } else {
                    let _ = write_quoted(out, k);
                }
                let _ = write!(out, " = {v}");
            }
            out.push('}');
        }

        // Functional type signature.
        out.push_str(" : (");
        self.write_types(out, &data.operands);
        out.push_str(") -> ");
        if data.results.len() == 1 {
            self.write_types(out, &data.results);
        } else {
            out.push('(');
            self.write_types(out, &data.results);
            out.push(')');
        }
        out.push('\n');
    }

    fn write_region(&mut self, out: &mut String, region: RegionId, indent: usize) {
        out.push_str("{\n");
        for (bi, &b) in self.module.region(region).blocks.iter().enumerate() {
            self.write_block(out, b, bi, indent + 1);
        }
        indent_by(out, indent);
        out.push('}');
    }

    fn write_block(&mut self, out: &mut String, block: BlockId, index: usize, indent: usize) {
        let module = self.module;
        let args = &module.block(block).args;
        if !args.is_empty() || index > 0 {
            indent_by(out, indent.saturating_sub(1));
            let _ = write!(out, "^bb{index}(");
            for (i, &a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                self.write_value(out, a);
                let _ = write!(out, ": {}", module.value_type(a));
            }
            out.push_str("):\n");
        }
        for &op in &module.block(block).ops {
            if module.op(op).erased {
                continue;
            }
            self.write_op(out, op, indent);
        }
    }
}

/// Writes two spaces per level of `indent`.
fn indent_by(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrMap;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    #[test]
    fn keys_that_are_not_identifiers_print_quoted() {
        let text = "\"t.op\"() {\"quoted key\" = 1, \"\" = 2, \"1x\" = 3, \"a-b\" = 4, \
                    \"say \\\"hi\\\"\" = 5, \"bare.key_1\" = 6, !bang = 7} : () -> ()\n";
        let printed = print_module(&crate::parse_module(text).unwrap());
        assert_eq!(
            printed,
            "\"t.op\"() {\"\" = 2, !bang = 7, \"1x\" = 3, \"a-b\" = 4, bare.key_1 = 6, \
             \"quoted key\" = 1, \"say \\\"hi\\\"\" = 5} : () -> ()\n"
        );
        // Print -> parse -> print is a fixed point.
        let reprinted = print_module(&crate::parse_module(&printed).unwrap());
        assert_eq!(reprinted, printed);
    }

    #[test]
    fn simple_op() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.op("arith.constant")
            .attr("value", 4i64)
            .result(Type::I32)
            .finish();
        assert_eq!(
            print_module(&m),
            "%0 = \"arith.constant\"() {value = 4} : () -> i32\n"
        );
    }

    #[test]
    fn operands_and_multi_results() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let c = b
            .op("test.src")
            .results(vec![Type::I32, Type::I32])
            .finish();
        let (v0, v1) = (b.module().result(c, 0), b.module().result(c, 1));
        b.op("test.sink").operands(vec![v0, v1]).finish();
        let text = print_module(&m);
        assert_eq!(
            text,
            "%0, %1 = \"test.src\"() : () -> (i32, i32)\n\
             \"test.sink\"(%0, %1) : (i32, i32) -> ()\n"
        );
    }

    #[test]
    fn name_hints_and_collisions() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.op("test.a").named_result(Type::I32, "x").finish();
        b.op("test.b").named_result(Type::I32, "x").finish();
        let text = print_module(&m);
        assert!(text.contains("%x = \"test.a\""));
        assert!(text.contains("%x_1 = \"test.b\""));
    }

    #[test]
    fn numbers_skip_hinted_names_and_hints_skip_numbers() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        for hint in [
            None,
            Some("2"),
            None,
            None,
            Some("1"),
            Some("x"),
            Some("x"),
            Some("x_1"),
        ] {
            let op = b.op("t.v");
            match hint {
                Some(h) => op.named_result(Type::I32, h).finish(),
                None => op.result(Type::I32).finish(),
            };
        }
        let names: Vec<String> = print_module(&m)
            .lines()
            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            .collect();
        assert_eq!(
            names,
            ["%0", "%2", "%1", "%3", "%1_1", "%x", "%x_1", "%x_1_1"]
        );
    }

    #[test]
    fn regions_print_nested() {
        let mut m = Module::new();
        let blk = m.top_block();
        let r = m.new_region(None);
        let inner = m.new_block(r, vec![Type::Signal]);
        {
            let mut b = OpBuilder::at_end(&mut m, inner);
            b.op("equeue.return").finish();
        }
        let launch = m.create_op(
            "equeue.launch",
            vec![],
            vec![Type::Signal],
            AttrMap::new(),
            vec![r],
        );
        m.append_op(blk, launch);
        let text = print_module(&m);
        assert!(text.contains("\"equeue.launch\"() ({"));
        assert!(text.contains("^bb0(%1: !equeue.signal):"), "{text}");
        assert!(text.contains("  \"equeue.return\"() : () -> ()"));
        assert!(text.ends_with("}) : () -> !equeue.signal\n"));
    }

    #[test]
    fn erased_ops_are_skipped() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let dead = b.op("test.dead").finish();
        b.op("test.live").finish();
        m.erase_op(dead);
        let text = print_module(&m);
        assert!(!text.contains("dead"));
        assert!(text.contains("live"));
    }
}
