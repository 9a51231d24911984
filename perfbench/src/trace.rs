//! In-memory span recorder for the traced run.
//!
//! A span wraps one call (or a counted loop of calls) into a layer's
//! public API, made from this benchmark's own code. Spans nest per
//! thread: a span opened while another is open on the same thread is
//! its child. Everything stays in memory until [`write_json`] at the
//! end. A span's self time is its duration minus the part of its
//! interval that its children cover. With tracing off, [`span`] is one
//! atomic load around the call.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct Record {
    /// Unique id.
    pub id: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `mapper.deploy`.
    pub name: &'static str,
    /// Calls the span covers (1 unless it wraps a loop).
    pub calls: u64,
    /// Start and end, in ns since the first span of the run.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Record {
    /// Wall-clock duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    origin();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` covering `calls` calls.
pub fn span<R>(name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    OPEN.with(|open| open.borrow_mut().pop());
    let at = |t: Instant| t.duration_since(origin()).as_nanos() as u64;
    RECORDS.lock().expect("span list poisoned").push(Record {
        id,
        parent,
        name,
        calls: calls.max(1),
        start_ns: at(start),
        end_ns: at(end),
    });
    out
}

/// Every span recorded so far, in the order they ended.
pub fn records() -> Vec<Record> {
    RECORDS.lock().expect("span list poisoned").clone()
}

/// Self time of each record, in ns, parallel to `records`: its duration
/// minus the union of its direct children's intervals.
pub fn self_times(records: &[Record]) -> Vec<u64> {
    records
        .iter()
        .map(|r| {
            let mut kids: Vec<(u64, u64)> = records
                .iter()
                .filter(|c| c.parent == Some(r.id))
                .map(|c| (c.start_ns.max(r.start_ns), c.end_ns.min(r.end_ns)))
                .filter(|(s, e)| e > s)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, r.start_ns);
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            r.duration_ns() - covered
        })
        .collect()
}

/// Writes every span, with its self time, as a JSON array.
pub fn write_json(path: &std::path::Path, records: &[Record]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, (r, self_ns)) in records.iter().zip(self_times(records)).enumerate() {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"calls\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{comma}",
            r.id, r.name, r.calls, r.start_ns, r.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Record {
        Record {
            id,
            parent,
            name: "t",
            calls: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let records = vec![
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 40),
            rec(3, Some(1), 30, 60),
            rec(4, Some(2), 12, 20),
            rec(5, Some(1), 90, 120),
        ];
        let self_ns = self_times(&records);
        // Children of 1 cover [10, 60) and [90, 100): 60 of 100 ns.
        assert_eq!(self_ns[0], 40);
        assert_eq!(self_ns[1], 22);
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[3], 8);
    }

    #[test]
    fn spans_nest_per_thread_and_count_calls() {
        enable();
        span("outer", 1, || span("inner", 4, || std::hint::black_box(1)));
        let all = records();
        let inner = all
            .iter()
            .find(|r| r.name == "inner")
            .expect("inner recorded");
        let outer = all
            .iter()
            .find(|r| r.name == "outer")
            .expect("outer recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.calls, 4);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
