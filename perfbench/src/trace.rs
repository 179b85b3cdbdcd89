//! The traced run's span recorder.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the crates: nothing inside the crates is instrumented. Each span
//! carries a name, start, end, the span that encloses it on the same
//! thread (its parent), and the send index of the operation it serves
//! (spans of one operation share it). Spans are buffered in memory per
//! thread and collected when the run ends.

use crate::clock::now_ns;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Operation index of spans that serve no generator operation
/// (subscriber workers, the bootstrap copier).
pub const NO_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Operation send index, or [`NO_OP`].
    pub op: u64,
    /// Recording thread (dense per-run index).
    pub thread: u64,
    /// Layer boundary name, e.g. `db.pub_write`.
    pub name: &'static str,
    /// Start, on the [`crate::clock`] time base.
    pub start_ns: u64,
    /// End, on the same base.
    pub end_ns: u64,
    /// Items the call handled (rows returned by a read), 0 otherwise.
    pub items: u64,
}

impl Span {
    /// Span length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

struct Local {
    buf: Arc<Mutex<Vec<Span>>>,
    stack: Vec<u64>,
    op: u64,
    muted: bool,
    thread: u64,
}

impl Local {
    fn new() -> Local {
        let buf = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().push(buf.clone());
        Local {
            buf,
            stack: Vec::new(),
            op: NO_OP,
            muted: false,
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are recorded at all in this process.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Marks the calling thread as serving operation `op`; with `traced`
/// false its spans are muted (the untraced half of the traced run).
pub fn begin_op(op: u64, traced: bool) {
    if enabled() {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.op = op;
            l.muted = !traced;
        });
    }
}

/// Ends the calling thread's current operation.
pub fn end_op() {
    if enabled() {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.op = NO_OP;
            l.muted = false;
        });
    }
}

/// An open span; records itself when finished or dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    items: u64,
}

impl Guard {
    /// Sets the span's item count.
    pub fn items(&mut self, n: u64) {
        self.items = n;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.last() == Some(&self.id) {
                l.stack.pop();
            }
            let span = Span {
                id: self.id,
                parent: self.parent,
                op: l.op,
                thread: l.thread,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                items: self.items,
            };
            l.buf.lock().push(span);
        });
    }
}

/// Opens a span named `name` on the calling thread, or `None` when
/// recording is off or the thread's current operation is untraced.
pub fn enter(name: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.muted {
            return None;
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        Some(Guard {
            id,
            parent,
            name,
            start_ns: now_ns(),
            items: 0,
        })
    })
}

/// Removes and returns every span recorded so far, by start time.
pub fn take_all() -> Vec<Span> {
    let mut out = Vec::new();
    for buf in BUFFERS.lock().iter() {
        out.append(&mut buf.lock());
    }
    out.sort_by_key(|s| (s.start_ns, s.id));
    out
}

/// Time each span's children cover inside it, by span id. Children of one
/// parent run on its thread one after another, so their clipped lengths
/// add up without double counting.
pub fn child_time(spans: &[Span]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = by_id.get(&s.parent) {
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            *covered.entry(parent.id).or_default() += hi.saturating_sub(lo);
        }
    }
    covered
}

/// Self time of every span: its length minus the time its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let covered = child_time(spans);
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(c))
        })
        .collect()
}

/// Writes spans as tab-separated lines:
/// `id parent op thread name start_ns end_ns items`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tthread\tname\tstart_ns\tend_ns\titems")?;
    for s in spans {
        let op = if s.op == NO_OP {
            "-".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{op}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns, s.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            thread: 0,
            name: "t",
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_clipped_to_the_parent() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 70),
            // A child that overruns its parent only counts inside it.
            span(4, 1, 90, 120),
            span(5, 2, 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 20 - 30 - 10);
        assert_eq!(selfs[&2], 20 - 6);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 6);
    }

    #[test]
    fn nested_guards_link_parents_and_share_the_operation() {
        // Runs on its own thread so the process-wide switch and the
        // thread's buffer do not mix with other tests' spans.
        std::thread::spawn(|| {
            set_enabled(true);
            begin_op(42, true);
            {
                let _outer = enter("outer");
                let mut inner = enter("inner").expect("recording on");
                inner.items(3);
            }
            end_op();
            begin_op(43, false);
            assert!(enter("muted").is_none());
            end_op();
            let mine: Vec<Span> = take_all()
                .into_iter()
                .filter(|s| s.op == 42 || s.op == 43)
                .collect();
            assert_eq!(mine.len(), 2);
            let outer = mine.iter().find(|s| s.name == "outer").unwrap();
            let inner = mine.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner.parent, outer.id);
            assert_eq!(outer.parent, 0);
            assert_eq!(inner.items, 3);
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        })
        .join()
        .unwrap();
    }
}
