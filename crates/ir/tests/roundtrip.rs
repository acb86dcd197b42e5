//! Property tests: printing a module and parsing it back must reproduce the
//! exact same text (a fixed point after one round).
//!
//! Uses a deterministic xorshift generator instead of `proptest` — the
//! workspace carries no external dependencies. Plans are derived from a
//! seeded stream, so every failure is reproducible; the plan is printed on
//! assertion failure.

use equeue_ir::{parse_module, print_module, Attr, AttrMap, Module, OpBuilder, Type, ValueId};

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn maybe<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    /// A random lowercase identifier of `1..=max_len` chars.
    fn ident(&mut self, max_len: u64) -> String {
        let len = self.range(1, max_len + 1) as usize;
        (0..len)
            .map(|_| char::from(b'a' + (self.range(0, 26) as u8)))
            .collect()
    }
}

/// Plan for one generated op.
#[derive(Debug, Clone)]
struct OpPlan {
    name: usize,
    n_results: usize,
    use_prev: bool,
    attr_int: Option<i64>,
    attr_str: Option<String>,
    attr_arr: Option<Vec<i64>>,
    attr_bool: Option<bool>,
    region_body: Vec<RegionOpPlan>,
    hint: Option<String>,
}

#[derive(Debug, Clone)]
struct RegionOpPlan {
    name: usize,
    use_outer: bool,
    use_arg: bool,
}

const NAMES: &[&str] = &[
    "test.alpha",
    "arith.constant",
    "equeue.control_start",
    "test.sink",
    "affine.load",
];

const REGION_NAMES: &[&str] = &["test.inner", "equeue.return", "arith.addi"];

const TYPES: &[Type] = &[Type::I32, Type::I64, Type::F32, Type::Index, Type::Signal];

fn op_plan(rng: &mut Rng) -> OpPlan {
    OpPlan {
        name: rng.range(0, NAMES.len() as u64) as usize,
        n_results: rng.range(0, 3) as usize,
        use_prev: rng.bool(),
        attr_int: rng.maybe(|r| r.next() as i64),
        attr_str: rng.maybe(|r| r.ident(6)),
        attr_arr: rng.maybe(|r| {
            let len = r.range(1, 4) as usize;
            (0..len).map(|_| r.next() as i64).collect()
        }),
        attr_bool: rng.maybe(Rng::bool),
        region_body: {
            let len = rng.range(0, 3) as usize;
            (0..len)
                .map(|_| RegionOpPlan {
                    name: rng.range(0, REGION_NAMES.len() as u64) as usize,
                    use_outer: rng.bool(),
                    use_arg: rng.bool(),
                })
                .collect()
        },
        hint: rng.maybe(|r| r.ident(8)),
    }
}

fn build_module(plans: &[OpPlan]) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let mut avail: Vec<ValueId> = vec![];
    for (i, p) in plans.iter().enumerate() {
        let mut attrs = AttrMap::new();
        if let Some(v) = p.attr_int {
            attrs.set("value", v);
        }
        if let Some(s) = &p.attr_str {
            attrs.set("label", s.as_str());
        }
        if let Some(a) = &p.attr_arr {
            attrs.set("dims", Attr::IntArray(a.clone()));
        }
        if let Some(b) = p.attr_bool {
            attrs.set("flag", b);
        }

        let mut regions = vec![];
        if !p.region_body.is_empty() {
            let r = m.new_region(None);
            let b = m.new_block(r, vec![TYPES[i % TYPES.len()].clone()]);
            let arg = m.block(b).args[0];
            for rp in &p.region_body {
                let mut operands = vec![];
                if rp.use_outer {
                    if let Some(&v) = avail.first() {
                        operands.push(v);
                    }
                }
                if rp.use_arg {
                    operands.push(arg);
                }
                let mut ib = OpBuilder::at_end(&mut m, b);
                let mut spec = ib.op(REGION_NAMES[rp.name]);
                for v in operands {
                    spec = spec.operand(v);
                }
                spec.finish();
            }
            regions.push(r);
        }

        let operands: Vec<ValueId> = if p.use_prev && !avail.is_empty() {
            vec![avail[avail.len() - 1]]
        } else {
            vec![]
        };
        let result_types: Vec<Type> = (0..p.n_results)
            .map(|k| TYPES[(i + k) % TYPES.len()].clone())
            .collect();
        let op = m.create_op(NAMES[p.name], operands, result_types, attrs, regions);
        m.append_op(top, op);
        for k in 0..p.n_results {
            let v = m.result(op, k);
            if k == 0 {
                if let Some(h) = &p.hint {
                    m.set_value_name(v, h);
                }
            }
            avail.push(v);
        }
    }
    m
}

#[test]
fn print_parse_print_is_identity() {
    let mut rng = Rng::new(0x101D711);
    for _ in 0..128 {
        let n = rng.range(0, 12) as usize;
        let plans: Vec<OpPlan> = (0..n).map(|_| op_plan(&mut rng)).collect();
        let m = build_module(&plans);
        let text = print_module(&m);
        let reparsed = parse_module(&text)
            .unwrap_or_else(|e| panic!("failed to reparse:\n{text}\nerror: {e}"));
        let text2 = print_module(&reparsed);
        assert_eq!(text, text2, "plans = {plans:?}");
    }
}

#[test]
fn parse_rejects_random_garbage_gracefully() {
    let mut rng = Rng::new(0x6A2BA6E);
    for _ in 0..128 {
        let len = rng.range(0, 60) as usize;
        // Printable ASCII noise; must never panic (errors are fine).
        let s: String = (0..len)
            .map(|_| char::from(rng.range(b' ' as u64, b'~' as u64 + 1) as u8))
            .collect();
        let _ = parse_module(&s);
    }
}

#[test]
fn type_display_parses_back() {
    let mut rng = Rng::new(0x7F9E5);
    for _ in 0..128 {
        let idx = rng.range(0, TYPES.len() as u64) as usize;
        let ndims = rng.range(0, 3) as usize;
        let dims: Vec<usize> = (0..ndims).map(|_| rng.range(1, 64) as usize).collect();
        let t = if dims.is_empty() {
            TYPES[idx].clone()
        } else {
            Type::buffer(dims, TYPES[idx].clone())
        };
        let text = t.to_string();
        let parsed = equeue_ir::parse_type(&text).unwrap();
        assert_eq!(t, parsed);
    }
}

/// A module whose every op record leaves the inline storage of `Name` and
/// `IdVec`: op names longer than 22 bytes (`equeue.create_connection` is
/// 24), more than four operands, results and regions, attribute keys
/// either side of 22 bytes, and attributes set out of key order with a
/// duplicate (the last write wins).
fn spill_module() -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, top);
    let conn = b
        .op("equeue.create_connection")
        .attr("kind", "Streaming")
        .attr("bandwidth", 0i64)
        .result(Type::Conn)
        .finish_value();
    let five = b
        .op("test.five_results")
        .results(vec![Type::I32; 5])
        .finish();
    let vals: Vec<ValueId> = (0..5).map(|i| b.module().result(five, i)).collect();
    let mut regions = vec![];
    for i in 0..5i64 {
        let (r, body) = b.region_with_block(vec![]);
        OpBuilder::at_end(b.module_mut(), body)
            .op("test.region_body")
            .attr("index", i)
            .finish();
        regions.push(r);
    }
    let mut spec = b
        .op("test.an_op_name_longer_than_22_bytes")
        .operands(vals.iter().copied())
        .operand(conn)
        .attr("zeta", 3i64)
        .attr("an_attribute_key_longer_than_22_bytes", "long")
        .attr("mid", true)
        .attr("alpha", vec![1i64, 2])
        .attr("a_key_of_exactly_22_by", 22i64)
        .attr("a_key_of_exactly_23_byt", 23i64)
        .attr("zeta", 4i64)
        .results(vec![Type::Signal; 6]);
    for r in regions {
        spec = spec.region(r);
    }
    spec.finish();
    m
}

/// The printed text of [`spill_module`], pinned as the printer produced it
/// when op names, id lists and attribute dictionaries were `String`, `Vec`
/// and `BTreeMap<String, Attr>`.
const SPILL_TEXT: &str = r#"%0 = "equeue.create_connection"() {bandwidth = 0, kind = "Streaming"} : () -> !equeue.conn
%1, %2, %3, %4, %5 = "test.five_results"() : () -> (i32, i32, i32, i32, i32)
%6, %7, %8, %9, %10, %11 = "test.an_op_name_longer_than_22_bytes"(%1, %2, %3, %4, %5, %0) ({
  "test.region_body"() {index = 0} : () -> ()
}, {
  "test.region_body"() {index = 1} : () -> ()
}, {
  "test.region_body"() {index = 2} : () -> ()
}, {
  "test.region_body"() {index = 3} : () -> ()
}, {
  "test.region_body"() {index = 4} : () -> ()
}) {a_key_of_exactly_22_by = 22, a_key_of_exactly_23_byt = 23, alpha = [1, 2], an_attribute_key_longer_than_22_bytes = "long", mid = true, zeta = 4} : (i32, i32, i32, i32, i32, !equeue.conn) -> (!equeue.signal, !equeue.signal, !equeue.signal, !equeue.signal, !equeue.signal, !equeue.signal)
"#;

#[test]
fn spill_paths_print_pinned_text() {
    let text = print_module(&spill_module());
    assert_eq!(text, SPILL_TEXT);
    let reparsed = parse_module(&text).unwrap();
    assert_eq!(print_module(&reparsed), text);
}
