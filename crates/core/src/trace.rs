//! Operation-level tracing in the Chrome Trace Event Format (§IV-B).
//!
//! The engine records one *complete* event (`"ph": "X"`) per timed
//! operation, with the component hierarchy as `pid` and the processor name
//! as `tid`, so `chrome://tracing` / Perfetto render one row per processor.
//! Stalls (schedule-queue waits) are recorded as separate events in the
//! `"stall"` category — these are the blue "installing" slots of the
//! paper's Fig. 13.
//!
//! **Records by id.** A traced run records thousands of events over a
//! handful of names, so a record holds no string: it is `(name id, row id,
//! category, ts, dur)`, 32 bytes. The names live in one table per trace,
//! each entered once: the fixed names the engine records under (`stall`,
//! `equeue.read`, `equeue.write`, `equeue.memcpy`, `linalg.conv2d`,
//! `linalg.matmul`, and the `Processor` and `DMA` process rows), each
//! distinct op or `signature` name, and each processor's name. A row is a
//! `(pid, tid)` pair of name ids. The engine finds a processor's row in a
//! table indexed by its component id, so recording neither allocates nor
//! hashes a processor name; a component renamed by `create_comp`/`add_comp`
//! gets a fresh row. An op's name is looked up by its text and entered the
//! first time it is seen: an unrolled program runs each op once, so a
//! table by op id would miss on every record. The public
//! [`Trace::record`] enters its strings into the same table.
//!
//! **Export.** [`Trace::to_chrome_json`] escapes each table entry once and
//! renders each row's `pid`/`tid` fields once, then writes every record
//! into one buffer sized exactly from the records, formatting integers by
//! hand. [`Trace::write_chrome_json`] writes the same pieces to an
//! `io::Write` as it goes, so a large trace is never held twice. The JSON
//! writer is hand-rolled: the allowed dependency set contains `serde` but
//! not `serde_json`, and the format is a flat array of small objects.

use std::borrow::Cow;
use std::collections::HashMap;
use std::convert::Infallible;
use std::io;

use crate::value::CompId;

/// Event category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCat {
    /// A scheduled operation actively executing.
    Operation,
    /// Waiting on a contended resource (memory port, connection).
    Stall,
    /// Event-queue management (issue/enqueue markers).
    Control,
}

impl TraceCat {
    /// The category string emitted into the JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCat::Operation => "operation",
            TraceCat::Stall => "stall",
            TraceCat::Control => "control",
        }
    }

    /// The JSON between an event's name and its `ts` value.
    fn json_middle(self) -> &'static str {
        match self {
            TraceCat::Operation => ", \"cat\": \"operation\", \"ph\": \"X\", \"ts\": ",
            TraceCat::Stall => ", \"cat\": \"stall\", \"ph\": \"X\", \"ts\": ",
            TraceCat::Control => ", \"cat\": \"control\", \"ph\": \"X\", \"ts\": ",
        }
    }
}

/// A name's index in a trace's name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct NameId(u32);

/// The names every enabled trace starts with, at ids `0..FIXED.len()`.
const FIXED: [&str; 8] = [
    "stall",
    "equeue.read",
    "equeue.write",
    "equeue.memcpy",
    "linalg.conv2d",
    "linalg.matmul",
    "Processor",
    "DMA",
];

pub(crate) const STALL: NameId = NameId(0);
pub(crate) const READ: NameId = NameId(1);
pub(crate) const WRITE: NameId = NameId(2);
pub(crate) const MEMCPY: NameId = NameId(3);
pub(crate) const CONV2D: NameId = NameId(4);
pub(crate) const MATMUL: NameId = NameId(5);
const PROCESSOR: NameId = NameId(6);
const DMA: NameId = NameId(7);

/// The process (`pid`) a processor's events are recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pid {
    /// Operations the processor executes.
    Processor,
    /// DMA copies it issues.
    Dma,
}

/// An id-table slot not filled yet.
const UNSET: u32 = u32::MAX;

/// One recorded event: 32 bytes, no strings.
#[derive(Debug, Clone, Copy)]
struct Record {
    ts: u64,
    dur: u64,
    name: u32,
    row: u32,
    cat: TraceCat,
}

/// One trace record (a complete event), as [`Trace::events`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<'a> {
    name: &'a str,
    cat: TraceCat,
    ts: u64,
    dur: u64,
    pid: &'a str,
    tid: &'a str,
}

impl<'a> TraceEvent<'a> {
    /// Operation name (e.g. `"equeue.read"`, `"mac4"`).
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Category.
    pub fn cat(&self) -> TraceCat {
        self.cat
    }

    /// Start timestamp in simulated cycles (rendered as µs).
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Duration in simulated cycles.
    pub fn dur(&self) -> u64 {
        self.dur
    }

    /// Process row: the component path (e.g. `"Accel"`).
    pub fn pid(&self) -> &'a str {
        self.pid
    }

    /// Thread row: the processor name (e.g. `"PE0"`).
    pub fn tid(&self) -> &'a str {
        self.tid
    }
}

/// An in-memory trace; serialises to Chrome trace JSON.
///
/// # Examples
///
/// ```
/// use equeue_core::{Trace, TraceCat};
/// let mut t = Trace::new();
/// t.record("mac4", TraceCat::Operation, 3, 1, "Accel", "PE0");
/// let json = t.to_chrome_json();
/// assert!(json.contains("\"ph\": \"X\""));
/// assert!(json.contains("\"mac4\""));
/// let e = t.events().next().unwrap();
/// assert_eq!((e.name(), e.ts(), e.tid()), ("mac4", 3, "PE0"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<Record>,
    /// `None` when the trace is disabled.
    tables: Option<Box<Tables>>,
}

/// An enabled trace's name and row tables, boxed so that a `Trace`, and
/// with it every `SimReport`, stays four words.
#[derive(Debug, Clone, Default)]
struct Tables {
    /// Every name a record or row refers to, by id.
    names: Vec<Cow<'static, str>>,
    name_ids: HashMap<Cow<'static, str>, u32>,
    /// `[pid, tid]` name ids, by row id.
    rows: Vec<[u32; 2]>,
    row_ids: HashMap<[u32; 2], u32>,
    /// The engine's row per component index, under `[Processor, DMA]`.
    comp_rows: Vec<[u32; 2]>,
}

impl Trace {
    /// Creates an enabled, empty trace.
    pub fn new() -> Self {
        let mut tables = Box::<Tables>::default();
        for name in FIXED {
            tables.intern(Cow::Borrowed(name));
        }
        Trace {
            records: vec![],
            tables: Some(tables),
        }
    }

    /// Creates a disabled trace that drops all records (for large sweeps).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.tables.is_some()
    }

    /// Records one complete event (no-op when disabled or `dur == 0`
    /// in the stall category).
    pub fn record(&mut self, name: &str, cat: TraceCat, ts: u64, dur: u64, pid: &str, tid: &str) {
        let Some(t) = self.tables.as_deref_mut() else {
            return;
        };
        if dur == 0 && cat == TraceCat::Stall {
            return;
        }
        let name = t.name_id(name);
        let row = [t.name_id(pid).0, t.name_id(tid).0];
        let row = t.row(row);
        self.push(name, cat, ts, dur, row);
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent<'_>> + '_ {
        // Only an enabled trace holds records.
        let tables = self.tables.as_deref().into_iter();
        tables.flat_map(|Tables { names, rows, .. }| {
            self.records.iter().map(move |r| {
                let [pid, tid] = rows[r.row as usize];
                TraceEvent {
                    name: &names[r.name as usize],
                    cat: r.cat,
                    ts: r.ts,
                    dur: r.dur,
                    pid: &names[pid as usize],
                    tid: &names[tid as usize],
                }
            })
        })
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialises to Chrome Trace Event Format JSON (an array of complete
    /// events, one cycle rendered as one microsecond, as in the paper's
    /// Fig. 13).
    pub fn to_chrome_json(&self) -> String {
        let json = Json::new(self);
        let len = json.len();
        let mut out = String::with_capacity(len);
        let Ok(()) = json.write(&mut out);
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Writes the same JSON as [`Trace::to_chrome_json`] to `out`, piece
    /// by piece, without building the document in memory first. Wrap a
    /// file in a `BufWriter`: each record is several small writes.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_chrome_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        Json::new(self).write(&mut Stream(out))
    }

    /// The row of processor `comp` under `pid`; `name` gives the
    /// component's name the first time its row is asked for.
    pub(crate) fn comp_row<'n>(
        &mut self,
        comp: CompId,
        pid: Pid,
        name: impl FnOnce() -> &'n str,
    ) -> u32 {
        let Some(t) = self.tables.as_deref_mut() else {
            // Nothing is recorded on a disabled trace, so any row will do.
            return 0;
        };
        let (comp, k) = (comp.0 as usize, pid as usize);
        if let Some(&row) = t.comp_rows.get(comp).map(|rows| &rows[k]) {
            if row != UNSET {
                return row;
            }
        }
        let pid = match pid {
            Pid::Processor => PROCESSOR,
            Pid::Dma => DMA,
        };
        let tid = t.name_id(name());
        let row = t.row([pid.0, tid.0]);
        if comp >= t.comp_rows.len() {
            t.comp_rows.resize(comp + 1, [UNSET; 2]);
        }
        t.comp_rows[comp][k] = row;
        row
    }

    /// Forgets the rows of these components, whose names changed: their
    /// next event enters the new name.
    pub(crate) fn renamed(&mut self, comps: &[CompId]) {
        for c in comps {
            let t = self.tables.as_mut();
            if let Some(rows) = t.and_then(|t| t.comp_rows.get_mut(c.0 as usize)) {
                *rows = [UNSET; 2];
            }
        }
    }

    /// Records one complete event by ids (no-op when disabled or `dur ==
    /// 0` in the stall category).
    pub(crate) fn push(&mut self, name: NameId, cat: TraceCat, ts: u64, dur: u64, row: u32) {
        if self.tables.is_some() && !(dur == 0 && cat == TraceCat::Stall) {
            self.records.push(Record {
                ts,
                dur,
                name: name.0,
                row,
                cat,
            });
        }
    }

    /// The id of `name`, entering it into the name table if it is new.
    pub(crate) fn name_id(&mut self, name: &str) -> NameId {
        match self.tables.as_deref_mut() {
            Some(t) => t.name_id(name),
            // Nothing is recorded on a disabled trace, so any id will do.
            None => STALL,
        }
    }
}

impl Tables {
    fn name_id(&mut self, name: &str) -> NameId {
        match self.name_ids.get(name) {
            Some(&id) => NameId(id),
            None => self.intern(Cow::Owned(name.to_string())),
        }
    }

    fn intern(&mut self, name: Cow<'static, str>) -> NameId {
        let id = self.names.len() as u32;
        self.names.push(name.clone());
        self.name_ids.insert(name, id);
        NameId(id)
    }

    /// The id of the row `[pid, tid]`, entering it if it is new.
    fn row(&mut self, key: [u32; 2]) -> u32 {
        let next = self.rows.len() as u32;
        let id = *self.row_ids.entry(key).or_insert(next);
        if id == next {
            self.rows.push(key);
        }
        id
    }
}

/// A trace's JSON, ready to write: each table name quoted and escaped
/// once, and each row's `pid`/`tid` fields rendered once.
struct Json<'t> {
    records: &'t [Record],
    quoted: Vec<String>,
    tails: Vec<String>,
}

const OPEN: &str = "{\"name\": ";
const DUR: &str = ", \"dur\": ";
const SEP: &str = ",\n";

impl<'t> Json<'t> {
    fn new(trace: &'t Trace) -> Self {
        let empty = Tables::default();
        let tables = trace.tables.as_deref().unwrap_or(&empty);
        let quoted: Vec<String> = tables
            .names
            .iter()
            .map(|n| {
                let mut s = String::with_capacity(n.len() + 2);
                push_json_string(&mut s, n);
                s
            })
            .collect();
        let tails = tables
            .rows
            .iter()
            .map(|&[pid, tid]| {
                let (pid, tid) = (&quoted[pid as usize], &quoted[tid as usize]);
                let mut s = String::with_capacity(pid.len() + tid.len() + 20);
                s.push_str(", \"pid\": ");
                s.push_str(pid);
                s.push_str(", \"tid\": ");
                s.push_str(tid);
                s.push('}');
                s
            })
            .collect();
        Json {
            records: &trace.records,
            quoted,
            tails,
        }
    }

    /// The document's length in bytes.
    fn len(&self) -> usize {
        self.records
            .iter()
            .map(|r| {
                OPEN.len()
                    + self.quoted[r.name as usize].len()
                    + r.cat.json_middle().len()
                    + digits(r.ts)
                    + DUR.len()
                    + digits(r.dur)
                    + self.tails[r.row as usize].len()
            })
            .sum::<usize>()
            + SEP.len() * self.records.len().saturating_sub(1)
            + "[\n\n]\n".len()
    }

    fn write<S: Sink>(&self, out: &mut S) -> Result<(), S::Error> {
        out.put("[\n")?;
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.put(SEP)?;
            }
            out.put(OPEN)?;
            out.put(&self.quoted[r.name as usize])?;
            out.put(r.cat.json_middle())?;
            put_u64(out, r.ts)?;
            out.put(DUR)?;
            put_u64(out, r.dur)?;
            out.put(&self.tails[r.row as usize])?;
        }
        out.put("\n]\n")
    }
}

/// Where [`Json::write`] puts the text: a `String` sized up front, which
/// cannot fail, or a [`Stream`].
trait Sink {
    type Error;
    fn put(&mut self, s: &str) -> Result<(), Self::Error>;
}

impl Sink for String {
    type Error = Infallible;

    fn put(&mut self, s: &str) -> Result<(), Infallible> {
        self.push_str(s);
        Ok(())
    }
}

/// An `io::Write` fed one piece at a time.
struct Stream<W>(W);

impl<W: io::Write> Sink for Stream<W> {
    type Error = io::Error;

    fn put(&mut self, s: &str) -> io::Result<()> {
        self.0.write_all(s.as_bytes())
    }
}

/// Number of decimal digits in `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Puts `v` in decimal.
fn put_u64<S: Sink>(out: &mut S, mut v: u64) -> Result<(), S::Error> {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.put(std::str::from_utf8(&buf[i..]).unwrap_or_default())
}

/// Appends `s` as a JSON string literal.
fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                out.push(char::from(HEX[(c as usize) >> 4]));
                out.push(char::from(HEX[(c as usize) & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn records_and_serialises() {
        let mut t = Trace::new();
        t.record("equeue.read", TraceCat::Operation, 0, 4, "Accel", "PE0");
        t.record("stall", TraceCat::Stall, 4, 3, "Accel", "PE0");
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"cat\": \"operation\""));
        assert!(json.contains("\"cat\": \"stall\""));
        assert!(json.contains("\"ts\": 0"));
        assert!(json.contains("\"dur\": 4"));
    }

    #[test]
    fn disabled_trace_drops_everything() {
        let mut t = Trace::disabled();
        t.record("x", TraceCat::Operation, 0, 1, "p", "t");
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn zero_duration_stalls_skipped() {
        let mut t = Trace::new();
        t.record("stall", TraceCat::Stall, 0, 0, "p", "t");
        assert!(t.is_empty());
        t.record("op", TraceCat::Operation, 0, 0, "p", "t");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn json_escaping() {
        let quote = |s: &str| {
            let mut out = String::new();
            push_json_string(&mut out, s);
            out
        };
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("x\ny"), "\"x\\ny\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("\u{1f}"), "\"\\u001f\"");
    }

    #[test]
    fn streaming_reports_the_writers_error() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut t = Trace::new();
        t.record("op", TraceCat::Operation, 0, 1, "p", "t");
        let e = t.write_chrome_json(&mut Full).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn valid_json_shape() {
        let mut t = Trace::new();
        for i in 0..3 {
            t.record(&format!("op{i}"), TraceCat::Operation, i, 1, "p", "t");
        }
        let json = t.to_chrome_json();
        // Separator count: exactly n-1 commas between objects.
        assert_eq!(json.matches("},\n{").count(), 2);
        assert_eq!(Trace::new().to_chrome_json(), "[\n\n]\n");
    }

    #[test]
    fn fixed_ids_name_their_strings() {
        let ids = [STALL, READ, WRITE, MEMCPY, CONV2D, MATMUL, PROCESSOR, DMA];
        for (id, name) in ids.into_iter().zip(FIXED) {
            assert_eq!(Trace::new().name_id(name), id, "{name}");
        }
    }

    #[test]
    fn records_are_32_bytes() {
        assert!(std::mem::size_of::<Record>() <= 32);
    }

    #[test]
    fn engine_ids_share_the_table_with_strings() {
        let mut t = Trace::new();
        let pe = CompId(3);
        let row = t.comp_row(pe, Pid::Processor, || "PE0");
        assert_eq!(t.comp_row(pe, Pid::Processor, || unreachable!()), row);
        let dma = t.comp_row(pe, Pid::Dma, || "PE0");
        assert_ne!(dma, row);
        let mac = t.name_id("mac4");
        t.push(mac, TraceCat::Operation, 0, 1, row);
        t.push(MEMCPY, TraceCat::Operation, 1, 2, dma);
        t.record("mac4", TraceCat::Operation, 3, 1, "Processor", "PE0");
        t.renamed(&[pe]);
        let renamed = t.comp_row(pe, Pid::Processor, || "PE9");
        t.push(STALL, TraceCat::Stall, 4, 1, renamed);
        let got: Vec<_> = t
            .events()
            .map(|e| (e.name(), e.cat(), e.ts(), e.dur(), e.pid(), e.tid()))
            .collect();
        use TraceCat::{Operation, Stall};
        assert_eq!(
            got,
            [
                ("mac4", Operation, 0, 1, "Processor", "PE0"),
                ("equeue.memcpy", Operation, 1, 2, "DMA", "PE0"),
                ("mac4", Operation, 3, 1, "Processor", "PE0"),
                ("stall", Stall, 4, 1, "Processor", "PE9"),
            ]
        );
        // One `mac4`, one `PE0`, one `Processor` row for both spellings.
        let names = &t.tables.as_ref().unwrap().names;
        assert_eq!(names.iter().filter(|n| *n == "mac4").count(), 1);
        assert_eq!(names.iter().filter(|n| *n == "PE0").count(), 1);
        assert_eq!(t.tables.as_ref().unwrap().rows.len(), 3);
    }

    /// The writer this module used before records held ids: one `write!`
    /// per event over the events' own strings.
    fn reference_json(events: &[(String, TraceCat, u64, u64, String, String)]) -> String {
        fn json_string(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let mut out = String::with_capacity(events.len() * 96 + 2);
        out.push_str("[\n");
        for (i, (name, cat, ts, dur, pid, tid)) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}}}",
                json_string(name),
                cat.as_str(),
                ts,
                dur,
                json_string(pid),
                json_string(tid),
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// xorshift64*, so the model test needs no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A name of up to eight characters drawn from quotes, backslashes,
    /// every control character, ASCII letters and multi-byte UTF-8.
    fn random_name(rng: &mut Rng) -> String {
        const MULTI: [char; 6] = ['é', 'Ω', '中', '🦀', '\u{7f}', '\u{2028}'];
        (0..rng.below(9))
            .map(|_| match rng.below(5) {
                0 => ['"', '\\'][rng.below(2) as usize],
                1 => char::from(rng.below(0x20) as u8),
                2 => MULTI[rng.below(MULTI.len() as u64) as usize],
                _ => char::from(b'a' + rng.below(26) as u8),
            })
            .collect()
    }

    #[test]
    fn renderer_matches_the_reference_writer() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let cats = [TraceCat::Operation, TraceCat::Stall, TraceCat::Control];
        for round in 0..40 {
            // Past 256 distinct names in the later rounds, so no id fits a
            // byte; the earlier rounds reuse a few names many times.
            let pool: Vec<String> = (0..4 + round * 10).map(|_| random_name(&mut rng)).collect();
            let pick = |rng: &mut Rng| pool[rng.below(pool.len() as u64) as usize].clone();
            let mut t = Trace::new();
            let mut model = vec![];
            for _ in 0..rng.below(600) {
                let name = pick(&mut rng);
                let (pid, tid) = (pick(&mut rng), pick(&mut rng));
                let cat = cats[rng.below(3) as usize];
                let ts = match rng.below(3) {
                    0 => rng.below(10),
                    1 => rng.next(),
                    _ => u64::MAX - rng.below(3),
                };
                let dur = match rng.below(4) {
                    0 => 0,
                    _ => rng.next() >> rng.below(64),
                };
                t.record(&name, cat, ts, dur, &pid, &tid);
                if !(dur == 0 && cat == TraceCat::Stall) {
                    model.push((name, cat, ts, dur, pid, tid));
                }
            }
            if round == 39 {
                assert!(t.tables.as_ref().unwrap().names.len() > 256 + FIXED.len());
            }
            let json = t.to_chrome_json();
            assert_eq!(json, reference_json(&model), "round {round}");
            let mut streamed = vec![];
            t.write_chrome_json(&mut streamed).unwrap();
            assert_eq!(streamed, json.as_bytes(), "round {round}");
            let got: Vec<_> = t
                .events()
                .map(|e| {
                    let s = |x: &str| x.to_string();
                    (
                        s(e.name()),
                        e.cat(),
                        e.ts(),
                        e.dur(),
                        s(e.pid()),
                        s(e.tid()),
                    )
                })
                .collect();
            assert_eq!(got, model, "round {round}");
        }
    }
}
