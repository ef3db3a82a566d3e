//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Off by default: [`span`] then costs one atomic load. When enabled
//! (`--trace 1`) every span is kept in memory, with its parent and the id
//! of the operation it belongs to, and written out when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::stats::Samples;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `session.get_row`.
    pub name: &'static str,
    /// Span id.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Id of the top-level operation this span belongs to.
    pub op: u64,
    /// Start, relative to the trace epoch.
    pub start: Duration,
    /// End, relative to the trace epoch.
    pub end: Duration,
}

impl Span {
    /// Duration of the span.
    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }
}

fn store() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Spans a thread has closed, moved to the shared store when the thread
/// ends or when [`spans`] is called on it, so recording takes no lock.
struct Local(Vec<Span>);

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut all) = store().lock() {
            all.append(&mut self.0);
        }
    }
}

thread_local! {
    /// Open spans on this thread: (span id, op id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<Local> = const { RefCell::new(Local(Vec::new())) };
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// True while spans are recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Run `f` inside a span called `name`. A span opened with no span
/// around it starts a new operation.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::SeqCst);
    let (parent, op) = STACK.with(|s| {
        let s = s.borrow();
        match s.last() {
            Some(&(pid, op)) => (Some(pid), op),
            None => (None, id),
        }
    });
    STACK.with(|s| s.borrow_mut().push((id, op)));
    let start = epoch().elapsed();
    let out = f();
    let end = epoch().elapsed();
    STACK.with(|s| s.borrow_mut().pop());
    LOCAL.with(|l| {
        l.borrow_mut().0.push(Span {
            name,
            id,
            parent,
            op,
            start,
            end,
        })
    });
    out
}

/// Every span recorded so far by threads that have ended and by the
/// calling thread.
pub fn spans() -> Vec<Span> {
    let mut all = store().lock().unwrap_or_else(PoisonError::into_inner);
    LOCAL.with(|l| all.append(&mut l.borrow_mut().0));
    all.clone()
}

/// Durations of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Samples {
    let mut s = Samples::default();
    for sp in spans.iter().filter(|sp| sp.name == name) {
        s.push(sp.elapsed());
    }
    s
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"name":"{}","id":{},"parent":{},"op":{},"start_ns":{},"end_ns":{}}}"#,
            s.name,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.start.as_nanos(),
            s.end.as_nanos()
        )?;
    }
    out.flush()
}
