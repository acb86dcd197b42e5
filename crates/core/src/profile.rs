//! The profiling summary produced by a simulation (§IV-B).
//!
//! Reported per run: wall-clock execution time, simulated runtime in
//! cycles, per-connection read/write bandwidth (average, maximum, and the
//! *max-bandwidth portion* — the fraction of the simulated runtime a
//! channel spent at its peak), and total bytes moved per memory.

use crate::machine::{AccessKind, Machine};
use crate::trace::Trace;
use crate::value::Tensor;
use std::time::Duration;

/// Bandwidth statistics for one direction of one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BandwidthStats {
    /// Total bytes moved.
    pub bytes: u64,
    /// Average bandwidth over the whole run, bytes/cycle.
    pub avg_bw: f64,
    /// Maximum observed bandwidth of any transfer, bytes/cycle.
    pub max_bw: f64,
    /// Fraction of the total runtime spent at `max_bw`.
    pub max_bw_portion: f64,
}

/// Per-connection summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnReport {
    /// Connection display name.
    pub name: String,
    /// Read-direction stats.
    pub read: BandwidthStats,
    /// Write-direction stats.
    pub write: BandwidthStats,
}

/// Per-memory summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemReport {
    /// Memory display name.
    pub name: String,
    /// Memory kind string.
    pub kind: String,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Average read bandwidth over the run, bytes/cycle.
    pub avg_read_bw: f64,
    /// Average write bandwidth over the run, bytes/cycle.
    pub avg_write_bw: f64,
    /// Access energy spent in this memory, picojoules.
    pub energy_pj: f64,
}

/// The full result of one simulation.
#[derive(Debug, Default)]
pub struct SimReport {
    /// Simulated runtime in cycles.
    pub cycles: u64,
    /// Wall-clock time of the engine run, on every entry point: it starts
    /// after the layout prepass ([`crate::CompiledModule::compile`], or the
    /// one inside [`crate::simulate_with`]) and ends when the run does. For
    /// [`crate::CompiledModule::resume`] it covers only the resumed window.
    pub execution_time: Duration,
    /// Number of engine events processed (scheduler wakes).
    pub events_processed: u64,
    /// Number of events spawned onto processor queues (launches and
    /// memcpys issued). Deterministic and backend-independent; the static
    /// resource-estimation pass upper-bounds it.
    pub events_spawned: u64,
    /// Number of operations interpreted.
    pub ops_interpreted: u64,
    /// High-water mark of simultaneously-live tensor storage, bytes.
    /// Backend-independent; the static resource-estimation pass
    /// upper-bounds it.
    pub peak_live_tensor_bytes: u64,
    /// Successful fused-trace entries. `0` under [`crate::Backend::Interp`]
    /// (and whenever every loop declines); the runtime ground truth for the
    /// analyzer's fusibility report.
    pub fused_trace_entries: u64,
    /// Per-connection bandwidth summaries.
    pub connections: Vec<ConnReport>,
    /// Per-memory traffic summaries.
    pub memories: Vec<MemReport>,
    /// Final contents of every live buffer, in allocation order, for
    /// functional verification (the engine is an interpreter with a clock).
    pub buffers: Vec<BufferDump>,
    /// The operation-level trace (enabled by default).
    pub trace: Trace,
}

/// Final state of one buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferDump {
    /// Owning memory's display name.
    pub mem: String,
    /// Allocation index within the machine.
    pub index: usize,
    /// The data.
    pub data: Tensor,
}

impl SimReport {
    /// Builds connection/memory summaries from the machine state.
    pub(crate) fn collect(&mut self, machine: &Machine) {
        let cycles = self.cycles.max(1);
        for conn in &machine.connections {
            let mut report = ConnReport {
                name: conn.name.clone(),
                ..Default::default()
            };
            for dir in [AccessKind::Read, AccessKind::Write] {
                let mut bytes = 0u64;
                let mut max_bw = 0f64;
                for t in conn.transfers.iter().filter(|t| t.kind == dir) {
                    bytes += t.bytes;
                    let dur = t.end.saturating_sub(t.start);
                    let bw = if dur == 0 {
                        // Instant transfer on an unlimited connection: peak
                        // equals the transfer size (moved within one cycle).
                        t.bytes as f64
                    } else {
                        t.bytes as f64 / dur as f64
                    };
                    if bw > max_bw {
                        max_bw = bw;
                    }
                }
                // Portion of the runtime spent at (approximately) max bw.
                let eps = 1e-9;
                let mut at_max = 0u64;
                for t in conn.transfers.iter().filter(|t| t.kind == dir) {
                    let dur = t.end.saturating_sub(t.start);
                    let bw = if dur == 0 {
                        t.bytes as f64
                    } else {
                        t.bytes as f64 / dur as f64
                    };
                    if (bw - max_bw).abs() < eps {
                        at_max += dur.max(1);
                    }
                }
                let stats = BandwidthStats {
                    bytes,
                    avg_bw: bytes as f64 / cycles as f64,
                    max_bw,
                    max_bw_portion: (at_max as f64 / cycles as f64).min(1.0),
                };
                match dir {
                    AccessKind::Read => report.read = stats,
                    AccessKind::Write => report.write = stats,
                }
            }
            self.connections.push(report);
        }
        for (index, buf) in machine.buffers.iter().enumerate() {
            if buf.live {
                self.buffers.push(BufferDump {
                    mem: machine.name(buf.mem).to_string(),
                    index,
                    data: buf.data.clone(),
                });
            }
        }
        for comp in &machine.components {
            if let crate::machine::ComponentKind::Memory(mem) = &comp.kind {
                self.memories.push(MemReport {
                    name: comp.name.clone(),
                    kind: mem.kind.clone(),
                    bytes_read: mem.counters.bytes_read,
                    bytes_written: mem.counters.bytes_written,
                    reads: mem.counters.reads,
                    writes: mem.counters.writes,
                    avg_read_bw: mem.counters.bytes_read as f64 / cycles as f64,
                    avg_write_bw: mem.counters.bytes_written as f64 / cycles as f64,
                    energy_pj: (mem.counters.reads + mem.counters.writes) as f64
                        * mem.energy_per_access_pj,
                });
            }
        }
    }

    /// The summary for the memory whose name contains `needle`, if any.
    pub fn memory_named(&self, needle: &str) -> Option<&MemReport> {
        self.memories.iter().find(|m| m.name.contains(needle))
    }

    /// Sum of average read bandwidth across memories of `kind`.
    pub fn read_bw_of_kind(&self, kind: &str) -> f64 {
        // `+ 0.0` normalises an IEEE negative zero out of the sum.
        self.memories
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| m.avg_read_bw)
            .sum::<f64>()
            + 0.0
    }

    /// Sum of average write bandwidth across memories of `kind`.
    pub fn write_bw_of_kind(&self, kind: &str) -> f64 {
        self.memories
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| m.avg_write_bw)
            .sum::<f64>()
            + 0.0
    }

    /// Total memory access energy across the machine, picojoules.
    pub fn total_memory_energy_pj(&self) -> f64 {
        self.memories.iter().map(|m| m.energy_pj).sum::<f64>() + 0.0
    }

    /// A human-readable multi-line summary (the paper's "profiling
    /// summary" output).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "simulated runtime : {} cycles", self.cycles);
        let _ = writeln!(s, "execution time    : {:?}", self.execution_time);
        let _ = writeln!(
            s,
            "engine events     : {} ({} ops interpreted)",
            self.events_processed, self.ops_interpreted
        );
        for c in &self.connections {
            let _ = writeln!(
                s,
                "connection {:12} read  {:>10} B  avg {:>8.3} B/cyc  max {:>8.3}  portion {:>5.3}",
                c.name, c.read.bytes, c.read.avg_bw, c.read.max_bw, c.read.max_bw_portion
            );
            let _ = writeln!(
                s,
                "connection {:12} write {:>10} B  avg {:>8.3} B/cyc  max {:>8.3}  portion {:>5.3}",
                c.name, c.write.bytes, c.write.avg_bw, c.write.max_bw, c.write.max_bw_portion
            );
        }
        for m in &self.memories {
            let _ = writeln!(
                s,
                "memory {:16} ({:8}) read {:>10} B ({:>8} ops, {:>8.3} B/cyc)  write {:>10} B ({:>8} ops, {:>8.3} B/cyc)  energy {:>10.1} pJ",
                m.name, m.kind, m.bytes_read, m.reads, m.avg_read_bw, m.bytes_written, m.writes, m.avg_write_bw, m.energy_pj
            );
        }
        let _ = writeln!(
            s,
            "total memory energy: {:.1} pJ",
            self.total_memory_energy_pj()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use equeue_dialect::ConnKind;

    #[test]
    fn collect_connection_stats() {
        let mut machine = Machine::new();
        let c = machine.add_connection(ConnKind::Streaming, 4);
        machine.connection_mut(c).reserve(AccessKind::Read, 0, 16); // 4 cycles @ 4 B/c
        machine.connection_mut(c).reserve(AccessKind::Read, 10, 8); // 2 cycles @ 4 B/c
        machine.connection_mut(c).reserve(AccessKind::Write, 0, 4); // 1 cycle

        let mut r = SimReport {
            cycles: 20,
            ..Default::default()
        };
        r.collect(&machine);
        let conn = &r.connections[0];
        assert_eq!(conn.read.bytes, 24);
        assert!((conn.read.avg_bw - 24.0 / 20.0).abs() < 1e-9);
        assert!((conn.read.max_bw - 4.0).abs() < 1e-9);
        // Both read transfers ran at 4 B/cyc: 6 of 20 cycles at max.
        assert!((conn.read.max_bw_portion - 6.0 / 20.0).abs() < 1e-9);
        assert_eq!(conn.write.bytes, 4);
    }

    #[test]
    fn collect_memory_stats() {
        let mut machine = Machine::new();
        let mem = machine.add_memory(
            "SRAM",
            1024,
            32,
            4,
            2,
            Box::new(crate::machine::SramBehavior::default()),
        );
        machine
            .memory_mut(mem)
            .unwrap()
            .count(AccessKind::Read, 100);
        machine
            .memory_mut(mem)
            .unwrap()
            .count(AccessKind::Write, 60);
        let mut r = SimReport {
            cycles: 10,
            ..Default::default()
        };
        r.collect(&machine);
        let m = &r.memories[0];
        assert_eq!(m.bytes_read, 100);
        assert_eq!(m.bytes_written, 60);
        assert_eq!((m.reads, m.writes), (1, 1));
        assert!((m.avg_read_bw - 10.0).abs() < 1e-9);
        assert!((r.read_bw_of_kind("SRAM") - 10.0).abs() < 1e-9);
        assert_eq!(r.read_bw_of_kind("Register"), 0.0);
        assert!(r.memory_named("SRAM").is_some());
        assert!(!r.summary().is_empty());
    }
}
