//! Static deadlock detection: a sound completion proof over the
//! launch/connection graph.
//!
//! The runtime declares [`equeue_core::SimError::Deadlock`] when its event
//! heap drains while any non-host processor still holds an unfinished frame
//! or a queued event. This pass proves the *absence* of that state: it
//! shows every event (each `equeue.launch` / `equeue.memcpy` site)
//! provably starts and finishes under the engine's scheduling rules:
//!
//! * an event starts only after its `dep` signal resolves **and** every
//!   event enqueued before it on the same processor queue finishes
//!   (strict FIFO with head-of-line blocking — a pending head blocks
//!   everything behind it);
//! * events spawned from the same frame enqueue in program order, so
//!   same-frame FIFO predecessors are known statically; events from
//!   *different* frames interleave in timing-dependent order;
//! * a frame finishes only when every `equeue.await` it executes has all
//!   of its signals resolved.
//!
//! The proof is linear-time in the module size: events and signal
//! expressions become nodes of one AND/OR graph (`start(e)` = dep ∧
//! earlier same-frame awaits ∧ immediate FIFO predecessor finished ∧
//! parent started; `finish(e)` = started ∧ body awaits; `control_and` =
//! all inputs; `control_or` = any input) and a counter-based worklist
//! propagates "provably satisfied" outward from `equeue.control_start`
//! ground nodes. Only the *immediate* same-frame FIFO predecessor is
//! linked — by induction its own start already requires every earlier
//! queue entry to finish. The module need not be well-formed: signals
//! that do not resolve to a recognised producer become a
//! never-satisfiable Unknown leaf, and cyclic (fuzzer-mutated) signal
//! graphs simply never satisfy their counters.
//!
//! What survives unproved is classified: a dependency cycle among
//! unsatisfied nodes is a definite deadlock (**Error**, with the cycle
//! path); everything else is merely unprovable (**Warning**). Two events
//! on the same processor queue from *different* frames with a completion
//! dependency between them are flagged (**Warning**) — whether they
//! deadlock depends on arrival order, which is not static.
//! `deadlock_free` is set only when every event is proved and no warnings
//! were emitted — a guarantee, held to by the differential test suite,
//! that the runtime cannot return `Deadlock`.

use std::collections::{HashMap, HashSet, VecDeque};

use equeue_dialect::{launch_view, resolve_def};
use equeue_ir::{BlockId, OpId, ValueId};

use crate::{AnalysisCtx, AnalysisReport, Diagnostic, Severity};

/// Cap on per-event diagnostics, so fuzzer-malformed modules with
/// thousands of unprovable events stay readable.
const MAX_EVENT_DIAGS: usize = 10;

/// Node-visit budget for the cross-frame queue-order reachability check
/// (shared across all candidate events).
const HAZARD_BUDGET: usize = 2_000_000;

/// One event site (`equeue.launch` or `equeue.memcpy`).
struct Event {
    op: OpId,
    /// Frame the site executes in: 0 = the top-level (host) frame.
    frame: usize,
    /// Resolved target (`create_proc`/`create_dma` op index).
    proc: Option<usize>,
    /// The dep signal operand, if decodable.
    dep: Option<ValueId>,
    /// How many of the frame's awaits precede this site (a prefix of
    /// `frame_awaits[frame]` gates reaching this op).
    awaits_before: usize,
    /// Nearest earlier event in the same frame on the same processor.
    fifo_pred: Option<usize>,
    /// Parent event (the launch whose body frame contains this site).
    parent: Option<usize>,
    /// For launches: the body frame index.
    body_frame: Option<usize>,
}

struct Collector<'c, 'm> {
    ctx: &'c AnalysisCtx<'m>,
    events: Vec<Event>,
    /// Await signals per frame, in program order. Index 0 = top frame.
    frame_awaits: Vec<Vec<ValueId>>,
    /// Launch/memcpy op index → event index.
    event_of_op: HashMap<usize, usize>,
    /// Last event per (frame, proc), for immediate FIFO predecessor links.
    last_on_queue: HashMap<(usize, usize), usize>,
    unresolved: Vec<String>,
}

impl Collector<'_, '_> {
    fn resolve_target(&self, v: ValueId) -> Option<usize> {
        let d = resolve_def(self.ctx.module, v)?;
        self.ctx
            .op_checked(d)
            .filter(|o| o.name == "equeue.create_proc" || o.name == "equeue.create_dma")
            .map(|_| d.index())
    }

    fn record_event(
        &mut self,
        op: OpId,
        frame: usize,
        parent: Option<usize>,
        proc: Option<usize>,
        dep: Option<ValueId>,
    ) -> usize {
        let idx = self.events.len();
        let fifo_pred = proc.and_then(|p| self.last_on_queue.insert((frame, p), idx));
        self.events.push(Event {
            op,
            frame,
            proc,
            dep,
            awaits_before: self.frame_awaits[frame].len(),
            fifo_pred,
            parent,
            body_frame: None,
        });
        self.event_of_op.insert(op.index(), idx);
        idx
    }

    fn visit_block(&mut self, block: BlockId, frame: usize, parent: Option<usize>, depth: usize) {
        if depth > crate::MAX_DEPTH || block.index() >= self.ctx.module.num_blocks() {
            return;
        }
        let ops = self.ctx.module.block(block).ops.clone();
        for op in ops {
            let Some(data) = self.ctx.op_checked(op) else {
                continue;
            };
            match data.name.as_str() {
                "equeue.launch" => {
                    let view = launch_view(self.ctx.module, op).ok();
                    let proc = view.as_ref().and_then(|lv| self.resolve_target(lv.proc));
                    if proc.is_none() {
                        self.unresolved.push(self.ctx.location(op));
                    }
                    let dep = view.as_ref().map(|lv| lv.dep);
                    let idx = self.record_event(op, frame, parent, proc, dep);
                    self.frame_awaits.push(Vec::new());
                    let body = self.frame_awaits.len() - 1;
                    self.events[idx].body_frame = Some(body);
                    if let Some(lv) = view {
                        self.visit_block(lv.body, body, Some(idx), depth + 1);
                    }
                }
                "equeue.memcpy" => {
                    let view = equeue_dialect::memcpy_view(self.ctx.module, op).ok();
                    let proc = view.as_ref().and_then(|mv| self.resolve_target(mv.dma));
                    if proc.is_none() {
                        self.unresolved.push(self.ctx.location(op));
                    }
                    let dep = view.as_ref().map(|mv| mv.dep);
                    self.record_event(op, frame, parent, proc, dep);
                }
                "equeue.await" => {
                    for &sig in &data.operands {
                        self.frame_awaits[frame].push(sig);
                    }
                }
                _ => {
                    // Loop bodies and other nested regions execute within
                    // the same frame on the same processor.
                    let regions = data.regions.clone();
                    for region in regions {
                        if region.index() >= self.ctx.module.num_regions() {
                            continue;
                        }
                        let blocks = self.ctx.module.region(region).blocks.clone();
                        for b in blocks {
                            self.visit_block(b, frame, parent, depth + 1);
                        }
                    }
                }
            }
        }
    }
}

/// The AND/OR provability graph. One arena holds all node kinds:
/// `start(e)` = `2e`, `finish(e)` = `2e + 1`, then shared leaves and
/// signal-expression nodes.
struct Graph {
    /// Prerequisite nodes per node (AND semantics unless `is_or`).
    deps: Vec<Vec<u32>>,
    /// Reverse edges, filled after construction.
    consumers: Vec<Vec<u32>>,
    is_or: Vec<bool>,
    /// Never-satisfiable leaf (unresolvable signal).
    unknown: Vec<bool>,
    satisfied: Vec<bool>,
}

impl Graph {
    fn new_node(&mut self, is_or: bool) -> u32 {
        let id = self.deps.len() as u32;
        self.deps.push(Vec::new());
        self.consumers.push(Vec::new());
        self.is_or.push(is_or);
        self.unknown.push(false);
        self.satisfied.push(false);
        id
    }
}

struct GraphBuilder<'c, 'm> {
    ctx: &'c AnalysisCtx<'m>,
    g: Graph,
    /// Shared never-satisfiable leaf.
    unknown_node: u32,
    /// Ground (always satisfied) leaf, for `equeue.control_start`.
    ground_node: u32,
    /// Memoized signal nodes, by defining-op index. Shared sub-expressions
    /// (e.g. long `control_and` chains) are built exactly once.
    sig_memo: HashMap<usize, u32>,
    event_of_op: HashMap<usize, usize>,
    saw_unknown: bool,
}

impl GraphBuilder<'_, '_> {
    /// The node expressing "signal `v` provably resolves".
    fn sig_node(&mut self, v: ValueId) -> u32 {
        self.sig_node_depth(v, 0)
    }

    fn sig_node_depth(&mut self, v: ValueId, depth: usize) -> u32 {
        if depth > crate::MAX_DEPTH {
            self.saw_unknown = true;
            return self.unknown_node;
        }
        let Some(def) = resolve_def(self.ctx.module, v) else {
            self.saw_unknown = true;
            return self.unknown_node;
        };
        if let Some(&n) = self.sig_memo.get(&def.index()) {
            return n;
        }
        let Some(data) = self.ctx.op_checked(def) else {
            self.saw_unknown = true;
            return self.unknown_node;
        };
        let name = data.name.clone();
        let node = match name.as_str() {
            "equeue.control_start" => self.ground_node,
            "equeue.control_and" | "equeue.control_or" => {
                let n = self.g.new_node(name.ends_with("_or"));
                // Memoize *before* wiring children: a cyclic (malformed)
                // signal graph then feeds the node to itself and never
                // satisfies, instead of recursing forever.
                self.sig_memo.insert(def.index(), n);
                let operands = data.operands.clone();
                for o in operands {
                    let c = self.sig_node_depth(o, depth + 1);
                    self.g.deps[n as usize].push(c);
                }
                n
            }
            "equeue.launch" | "equeue.memcpy" => match self.event_of_op.get(&def.index()) {
                Some(&e) => (2 * e + 1) as u32,
                None => {
                    self.saw_unknown = true;
                    self.unknown_node
                }
            },
            _ => {
                self.saw_unknown = true;
                self.unknown_node
            }
        };
        self.sig_memo.insert(def.index(), node);
        node
    }
}

/// The [`Diagnostic::pass`] name of this pass's diagnostics.
const PASS: &str = "deadlock";

/// Runs the deadlock pass: appends its diagnostics to `out` and fills the
/// report section it owns. Never panics.
pub(crate) fn run(ctx: &AnalysisCtx<'_>, out: &mut AnalysisReport) {
    let mut collector = Collector {
        ctx,
        events: Vec::new(),
        frame_awaits: vec![Vec::new()],
        event_of_op: HashMap::new(),
        last_on_queue: HashMap::new(),
        unresolved: Vec::new(),
    };
    collector.visit_block(ctx.module.top_block(), 0, None, 0);
    let Collector {
        events,
        frame_awaits,
        event_of_op,
        unresolved,
        ..
    } = collector;
    let n = events.len();

    let mut clean = unresolved.is_empty();
    for loc in unresolved.iter().take(MAX_EVENT_DIAGS) {
        out.diagnostics.push(Diagnostic {
            pass: PASS,
            severity: Severity::Warning,
            code: "unresolved-target",
            message: "event target not statically resolvable; completion not provable".to_string(),
            location: Some(loc.clone()),
        });
    }
    if unresolved.len() > MAX_EVENT_DIAGS {
        out.diagnostics.push(Diagnostic {
            pass: PASS,
            severity: Severity::Warning,
            code: "unresolved-target",
            message: format!(
                "... and {} more events with unresolvable targets",
                unresolved.len() - MAX_EVENT_DIAGS
            ),
            location: None,
        });
    }

    // Build the provability graph.
    let mut g = Graph {
        deps: Vec::new(),
        consumers: Vec::new(),
        is_or: Vec::new(),
        unknown: Vec::new(),
        satisfied: Vec::new(),
    };
    for _ in 0..n {
        g.new_node(false); // start(e)
        g.new_node(false); // finish(e)
    }
    let unknown_node = g.new_node(false);
    let ground_node = g.new_node(false);
    g.unknown[unknown_node as usize] = true;
    g.satisfied[ground_node as usize] = true;
    let mut b = GraphBuilder {
        ctx,
        g,
        unknown_node,
        ground_node,
        sig_memo: HashMap::new(),
        event_of_op,
        saw_unknown: false,
    };

    for (e, ev) in events.iter().enumerate() {
        let start = 2 * e;
        let finish = 2 * e + 1;
        match ev.dep {
            Some(dep) => {
                let s = b.sig_node(dep);
                b.g.deps[start].push(s);
            }
            None => {
                b.saw_unknown = true;
                b.g.deps[start].push(unknown_node);
            }
        }
        if let Some(awaits) = frame_awaits.get(ev.frame) {
            let sigs: Vec<ValueId> = awaits.iter().take(ev.awaits_before).copied().collect();
            for sig in sigs {
                let s = b.sig_node(sig);
                b.g.deps[start].push(s);
            }
        }
        if let Some(p) = ev.fifo_pred {
            b.g.deps[start].push((2 * p + 1) as u32);
        }
        if let Some(p) = ev.parent {
            b.g.deps[start].push((2 * p) as u32);
        }
        b.g.deps[finish].push(start as u32);
        if let Some(bf) = ev.body_frame {
            let sigs: Vec<ValueId> = frame_awaits.get(bf).cloned().unwrap_or_default();
            for sig in sigs {
                let s = b.sig_node(sig);
                b.g.deps[finish].push(s);
            }
        }
    }
    let mut g = b.g;

    // Counter-based worklist propagation from the ground leaf.
    let total = g.deps.len();
    for x in 0..total {
        for i in 0..g.deps[x].len() {
            let d = g.deps[x][i] as usize;
            g.consumers[d].push(x as u32);
        }
    }
    let mut need: Vec<u32> = (0..total)
        .map(|x| {
            g.deps[x]
                .iter()
                .filter(|&&d| !g.satisfied[d as usize])
                .count() as u32
        })
        .collect();
    let mut queue: VecDeque<u32> = VecDeque::new();
    for (x, &n_unmet) in need.iter().enumerate() {
        if g.satisfied[x] || g.unknown[x] {
            continue;
        }
        let ready = if g.is_or[x] {
            g.deps[x].iter().any(|&d| g.satisfied[d as usize])
        } else {
            n_unmet == 0
        };
        if ready {
            g.satisfied[x] = true;
            queue.push_back(x as u32);
        }
    }
    while let Some(x) = queue.pop_front() {
        for i in 0..g.consumers[x as usize].len() {
            let c = g.consumers[x as usize][i];
            let ci = c as usize;
            if g.satisfied[ci] || g.unknown[ci] {
                continue;
            }
            let ready = if g.is_or[ci] {
                true
            } else {
                need[ci] = need[ci].saturating_sub(1);
                need[ci] == 0
            };
            if ready {
                g.satisfied[ci] = true;
                queue.push_back(c);
            }
        }
    }

    let unproved: Vec<usize> = (0..n).filter(|&e| !g.satisfied[2 * e + 1]).collect();

    if !unproved.is_empty() {
        clean = false;
        match find_cycle(&g) {
            Some(cycle) => {
                let path: Vec<String> = cycle
                    .iter()
                    .filter_map(|&node| {
                        let node = node as usize;
                        (node < 2 * n).then(|| ctx.location(events[node / 2].op))
                    })
                    .collect();
                out.diagnostics.push(Diagnostic {
                    pass: PASS,
                    severity: Severity::Error,
                    code: "static-deadlock",
                    message: format!("wait cycle: {}", dedup_adjacent(path).join(" -> ")),
                    location: None,
                });
            }
            None => {
                for &e in unproved.iter().take(MAX_EVENT_DIAGS) {
                    out.diagnostics.push(Diagnostic {
                        pass: PASS,
                        severity: Severity::Warning,
                        code: "unproved-completion",
                        message: "cannot prove this event completes".to_string(),
                        location: Some(ctx.location(events[e].op)),
                    });
                }
                if unproved.len() > MAX_EVENT_DIAGS {
                    out.diagnostics.push(Diagnostic {
                        pass: PASS,
                        severity: Severity::Warning,
                        code: "unproved-completion",
                        message: format!(
                            "... and {} more events not proved to complete",
                            unproved.len() - MAX_EVENT_DIAGS
                        ),
                        location: None,
                    });
                }
            }
        }
    }

    // Cross-frame queue-order hazards: only processors receiving
    // events from more than one frame can race on arrival order, and
    // for golden scenarios that set is empty — the reachability scan
    // below never runs on the hot path.
    let mut by_proc: HashMap<usize, Vec<usize>> = HashMap::new();
    for (e, ev) in events.iter().enumerate() {
        if let Some(p) = ev.proc {
            by_proc.entry(p).or_default().push(e);
        }
    }
    let mut hazard_events: Vec<usize> = Vec::new();
    for evs in by_proc.values() {
        let first_frame = events[evs[0]].frame;
        if evs.iter().any(|&e| events[e].frame != first_frame) {
            hazard_events.extend(evs.iter().copied());
        }
    }
    hazard_events.sort_unstable();
    if !hazard_events.is_empty() {
        let budget_per = HAZARD_BUDGET / hazard_events.len();
        let mut reported = 0usize;
        let mut capped = false;
        for &a in &hazard_events {
            match reaches_peer(&g, &events, a, &hazard_events, budget_per) {
                Reach::Peer(peer) => {
                    clean = false;
                    if reported < MAX_EVENT_DIAGS {
                        out.diagnostics.push(Diagnostic {
                            pass: PASS,
                            severity: Severity::Warning,
                            code: "queue-order-hazard",
                            message: format!(
                                "waits on {}, which shares its processor queue from a different frame; completion depends on arrival order",
                                ctx.location(events[peer].op)
                            ),
                            location: Some(ctx.location(events[a].op)),
                        });
                    }
                    reported += 1;
                }
                Reach::Capped => capped = true,
                Reach::No => {}
            }
        }
        if reported > MAX_EVENT_DIAGS {
            out.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                code: "queue-order-hazard",
                message: format!(
                    "... and {} more queue-order hazards",
                    reported - MAX_EVENT_DIAGS
                ),
                location: None,
            });
        }
        if capped {
            clean = false;
            out.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                code: "queue-order-hazard",
                message: "cross-frame queue-order analysis exceeded its work budget; not proved deadlock-free"
                    .to_string(),
                location: None,
            });
        }
    }

    out.deadlock_free = clean;
    out.diagnostics.push(Diagnostic {
        pass: PASS,
        severity: Severity::Info,
        code: "deadlock-summary",
        message: if clean {
            format!("proved all {n} events complete: deadlock-free")
        } else {
            format!("{} of {n} events not proved to complete", unproved.len())
        },
        location: None,
    });
}

/// Collapses immediately-repeated path entries (the start and finish nodes
/// of one event map to the same source location).
fn dedup_adjacent(path: Vec<String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for p in path {
        if out.last() != Some(&p) {
            out.push(p);
        }
    }
    out
}

enum Reach {
    Peer(usize),
    No,
    Capped,
}

/// Does `finish(a)` transitively depend on `finish(b)` for some *other*
/// hazard event `b` on the same processor but a different frame? Bounded
/// DFS over the dependency edges.
fn reaches_peer(g: &Graph, events: &[Event], a: usize, peers: &[usize], budget: usize) -> Reach {
    let frame_a = events[a].frame;
    let proc_a = events[a].proc;
    let root = (2 * a + 1) as u32;
    let mut seen: HashSet<u32> = HashSet::new();
    let mut stack = vec![root];
    let mut work = 0usize;
    while let Some(x) = stack.pop() {
        if !seen.insert(x) {
            continue;
        }
        work += 1;
        if work > budget {
            return Reach::Capped;
        }
        let xi = x as usize;
        if xi < 2 * events.len() && xi % 2 == 1 {
            let e = xi / 2;
            if e != a
                && events[e].proc == proc_a
                && events[e].frame != frame_a
                && peers.binary_search(&e).is_ok()
            {
                return Reach::Peer(e);
            }
        }
        for &d in &g.deps[xi] {
            stack.push(d);
        }
    }
    Reach::No
}

/// Finds a dependency cycle among unsatisfied nodes (iterative
/// three-colour DFS). `None` when the unproved residue is acyclic — i.e.
/// it rests on unknowns rather than on a genuine wait cycle.
fn find_cycle(g: &Graph) -> Option<Vec<u32>> {
    let total = g.deps.len();
    let mut color = vec![0u8; total]; // 0 = white, 1 = grey, 2 = black
    for root in 0..total {
        if g.satisfied[root] || color[root] != 0 {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
        let mut path: Vec<u32> = Vec::new();
        while let Some(&mut (x, ref mut i)) = stack.last_mut() {
            let xi = x as usize;
            if *i == 0 {
                color[xi] = 1;
                path.push(x);
            }
            // Find the next unsatisfied dependency from position *i.
            let mut next = None;
            let mut j = *i;
            while j < g.deps[xi].len() {
                let d = g.deps[xi][j];
                j += 1;
                if !g.satisfied[d as usize] {
                    next = Some(d);
                    break;
                }
            }
            *i = j;
            match next {
                Some(y) => {
                    let yi = y as usize;
                    match color[yi] {
                        0 => stack.push((y, 0)),
                        1 => {
                            if let Some(pos) = path.iter().position(|&p| p == y) {
                                let mut cyc = path[pos..].to_vec();
                                cyc.push(y);
                                return Some(cyc);
                            }
                        }
                        _ => {}
                    }
                }
                None => {
                    color[xi] = 2;
                    path.pop();
                    stack.pop();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use equeue_core::{RunLimits, SimLibrary};
    use equeue_ir::parse_module;

    use super::*;

    #[test]
    fn unresolvable_launch_target_is_not_certified() {
        // The launch's processor comes from an op that names no processor,
        // so no resolver can tell which queue the event lands on.
        let module = parse_module(
            "%s = \"equeue.control_start\"() : () -> !equeue.signal\n\
             %p = \"t.opaque\"() : () -> !equeue.proc\n\
             %d = \"equeue.launch\"(%s, %p) ({\n\
             \x20\x20\"equeue.return\"() : () -> ()\n\
             }) : (!equeue.signal, !equeue.proc) -> !equeue.signal\n\
             \"equeue.await\"(%d) : (!equeue.signal) -> ()\n",
        )
        .expect("the module parses");
        let launch = module.find_first("equeue.launch").expect("one launch");
        let ctx = AnalysisCtx::new(&module, &SimLibrary::standard(), RunLimits::default());
        let mut report = AnalysisReport::default();
        run(&ctx, &mut report);

        let unresolved: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "unresolved-target")
            .collect();
        assert_eq!(unresolved.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(unresolved[0].pass, PASS);
        assert_eq!(unresolved[0].severity, Severity::Warning);
        assert_eq!(unresolved[0].location, Some(ctx.location(launch)));
        assert_eq!(ctx.location(launch), format!("equeue.launch@{launch}"));
        assert!(!report.deadlock_free);
    }
}
