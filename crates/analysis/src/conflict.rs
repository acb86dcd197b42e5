//! Port/connection conflict graph.
//!
//! Builds a graph whose nodes are processors (plus the implicit host and
//! every DMA engine) and whose edges connect two nodes that statically
//! *may* touch the same memory or connection — i.e. that can contend for
//! ports/bandwidth if scheduled in the same time window. Two processors in
//! different independent groups never observe each other's memory or
//! connection state.
//!
//! Resolution is conservative. A node whose resource footprint contains
//! anything unresolvable is marked *opaque* and conflicts with every other
//! node; a launch whose target processor cannot be resolved degrades the
//! whole graph to a single group. Both cases emit warnings — sound, never
//! silently optimistic.

use std::collections::BTreeSet;

use equeue_dialect::{
    buffer_origin, launch_view, memcpy_view, read_view, resolve_def, write_view, BufferOrigin,
};
use equeue_ir::{BlockId, OpId};

use crate::{AnalysisCtx, AnalysisPass, AnalysisReport, Diagnostic, Severity};

/// One conflict-graph node: a processor, DMA engine, or the implicit host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictNode {
    /// The defining `create_proc`/`create_dma` op; `None` for the host.
    pub op: Option<OpId>,
    /// Display label (`"host"`, `"arm_r5@op0"`).
    pub label: String,
    /// Whether the node's footprint could not be fully resolved; opaque
    /// nodes conflict with every other node.
    pub opaque: bool,
}

/// The serialized conflict graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictGraph {
    /// Nodes in deterministic order: host first, then processors/DMAs in
    /// op order.
    pub nodes: Vec<ConflictNode>,
    /// Conflict edges as `(a, b)` node-index pairs with `a < b`, sorted.
    pub edges: Vec<(usize, usize)>,
    /// Connected components of the conflict relation, each sorted; the
    /// groups themselves sorted by first member. Nodes in different groups
    /// never contend.
    pub groups: Vec<Vec<usize>>,
}

/// A statically-identified shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Res {
    /// A device memory (`create_mem` op index).
    Mem(usize),
    /// A connection (`create_connection` op index).
    Conn(usize),
    /// The host's implicit memory (`memref.alloc` buffers).
    HostMem,
}

/// The conflict-graph pass.
pub struct ConflictPass;

struct Builder<'c, 'm> {
    ctx: &'c AnalysisCtx<'m>,
    footprints: Vec<BTreeSet<Res>>,
    opaque: Vec<bool>,
    node_of_proc: std::collections::HashMap<usize, usize>,
    unresolved_launches: Vec<String>,
}

impl<'c, 'm> Builder<'c, 'm> {
    /// Records one resource use by `node`, degrading to opaque on
    /// unresolvable buffers/connections.
    fn touch_buffer(&mut self, node: usize, buffer: equeue_ir::ValueId) {
        match buffer_origin(self.ctx.module, buffer) {
            BufferOrigin::Mem(m) => {
                self.footprints[node].insert(Res::Mem(m.index()));
            }
            BufferOrigin::Host(_) => {
                self.footprints[node].insert(Res::HostMem);
            }
            BufferOrigin::Unknown => self.opaque[node] = true,
        }
    }

    fn touch_conn(&mut self, node: usize, conn: Option<equeue_ir::ValueId>) {
        let Some(c) = conn else { return };
        match resolve_def(self.ctx.module, c) {
            Some(def)
                if self
                    .ctx
                    .op_checked(def)
                    .is_some_and(|d| d.name == "equeue.create_connection") =>
            {
                self.footprints[node].insert(Res::Conn(def.index()));
            }
            _ => self.opaque[node] = true,
        }
    }

    /// Walks `block` attributing resource uses to `owner`; descends into
    /// loop bodies with the same owner and into launch bodies with the
    /// launch's target node.
    fn visit_block(&mut self, block: BlockId, owner: usize, depth: usize) {
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
                    let Ok(lv) = launch_view(self.ctx.module, op) else {
                        self.unresolved_launches.push(self.ctx.location(op));
                        continue;
                    };
                    let target = resolve_def(self.ctx.module, lv.proc)
                        .and_then(|d| self.node_of_proc.get(&d.index()).copied());
                    match target {
                        Some(node) => self.visit_block(lv.body, node, depth + 1),
                        None => {
                            self.unresolved_launches.push(self.ctx.location(op));
                            // Still walk the body (attributed to host) so
                            // nested launches get their own attribution.
                            self.visit_block(lv.body, 0, depth + 1);
                        }
                    }
                }
                "equeue.memcpy" => {
                    if let Ok(mv) = memcpy_view(self.ctx.module, op) {
                        let node = resolve_def(self.ctx.module, mv.dma)
                            .and_then(|d| self.node_of_proc.get(&d.index()).copied());
                        match node {
                            Some(n) => {
                                self.touch_buffer(n, mv.src);
                                self.touch_buffer(n, mv.dst);
                                self.touch_conn(n, mv.conn);
                            }
                            None => self.unresolved_launches.push(self.ctx.location(op)),
                        }
                    } else {
                        self.unresolved_launches.push(self.ctx.location(op));
                    }
                }
                "equeue.read" => {
                    if let Ok(rv) = read_view(self.ctx.module, op) {
                        self.touch_buffer(owner, rv.buffer);
                        self.touch_conn(owner, rv.conn);
                    } else {
                        self.opaque[owner] = true;
                    }
                }
                "equeue.write" => {
                    if let Ok(wv) = write_view(self.ctx.module, op) {
                        self.touch_buffer(owner, wv.buffer);
                        self.touch_conn(owner, wv.conn);
                    } else {
                        self.opaque[owner] = true;
                    }
                }
                "affine.load" => {
                    if let Some(&buf) = data.operands.first() {
                        self.touch_buffer(owner, buf);
                    }
                }
                "affine.store" => {
                    if let Some(&buf) = data.operands.get(1) {
                        self.touch_buffer(owner, buf);
                    }
                }
                _ => {
                    // Descend into non-launch regions (loops) with the same
                    // owner.
                    let regions = data.regions.clone();
                    for region in regions {
                        if region.index() >= self.ctx.module.num_regions() {
                            continue;
                        }
                        let blocks = self.ctx.module.region(region).blocks.clone();
                        for b in blocks {
                            self.visit_block(b, owner, depth + 1);
                        }
                    }
                }
            }
        }
    }
}

impl AnalysisPass for ConflictPass {
    fn name(&self) -> &'static str {
        "conflict"
    }

    fn run(&self, ctx: &AnalysisCtx<'_>, out: &mut AnalysisReport) {
        let mut nodes = vec![ConflictNode {
            op: None,
            label: "host".to_string(),
            opaque: false,
        }];
        let mut node_of_proc = std::collections::HashMap::new();
        for op in ctx.module.live_ops() {
            let data = ctx.module.op(op);
            let kind = match data.name.as_str() {
                "equeue.create_proc" => data.attrs.str("kind"),
                "equeue.create_dma" => Some("dma"),
                _ => None,
            };
            let Some(kind) = kind else { continue };
            node_of_proc.insert(op.index(), nodes.len());
            nodes.push(ConflictNode {
                op: Some(op),
                label: format!("{kind}@{op}"),
                opaque: false,
            });
        }

        let n = nodes.len();
        let mut b = Builder {
            ctx,
            footprints: vec![BTreeSet::new(); n],
            opaque: vec![false; n],
            node_of_proc,
            unresolved_launches: Vec::new(),
        };
        b.visit_block(ctx.module.top_block(), 0, 0);

        for loc in &b.unresolved_launches {
            out.diagnostics.push(Diagnostic {
                pass: self.name(),
                severity: Severity::Warning,
                code: "unresolved-target",
                message: "event target not statically resolvable; conflict graph degraded to a single group".to_string(),
                location: Some(loc.clone()),
            });
        }
        // An unattributable event could touch anything: every node becomes
        // opaque, collapsing the graph into one group.
        if !b.unresolved_launches.is_empty() {
            for o in &mut b.opaque {
                *o = true;
            }
        }

        for (i, node) in nodes.iter_mut().enumerate() {
            node.opaque = b.opaque[i];
            if node.opaque && b.unresolved_launches.is_empty() {
                out.diagnostics.push(Diagnostic {
                    pass: self.name(),
                    severity: Severity::Warning,
                    code: "opaque-footprint",
                    message: format!(
                        "resource footprint of {} not statically resolvable; it conflicts with every node",
                        node.label
                    ),
                    location: node.op.map(|o| ctx.location(o)),
                });
            }
        }

        let mut edges = Vec::new();
        for a in 0..n {
            for c in a + 1..n {
                let conflict = b.opaque[a]
                    || b.opaque[c]
                    || b.footprints[a]
                        .intersection(&b.footprints[c])
                        .next()
                        .is_some();
                if conflict {
                    edges.push((a, c));
                }
            }
        }

        // Union-find over the edges → independent groups.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, c) in &edges {
            let (ra, rc) = (find(&mut parent, a), find(&mut parent, c));
            if ra != rc {
                parent[ra.max(rc)] = ra.min(rc);
            }
        }
        let mut groups_map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..n {
            let r = find(&mut parent, i);
            groups_map.entry(r).or_default().push(i);
        }
        let groups: Vec<Vec<usize>> = groups_map.into_values().collect();

        out.diagnostics.push(Diagnostic {
            pass: self.name(),
            severity: Severity::Info,
            code: "conflict-summary",
            message: format!(
                "{} nodes, {} conflict edges, {} independent groups",
                n,
                edges.len(),
                groups.len()
            ),
            location: None,
        });

        out.conflict = ConflictGraph {
            nodes,
            edges,
            groups,
        };
    }
}
