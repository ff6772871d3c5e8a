//! Thread-aware hierarchical spans with RAII guards.
//!
//! Design: one process-wide enable flag (a relaxed atomic — the only cost
//! paid when tracing is off), a process-wide monotonic epoch, and a
//! per-thread buffer holding the open-span stack as a folded path string
//! (`"assoc_reduce;chain_h2"`). Closing a span appends a [`SpanRecord`] to
//! the thread buffer; buffers flush into the global sink when they grow
//! large, when the thread exits (thread-local destructor), and when
//! [`take_trace`] drains the calling thread explicitly. Worker threads in
//! this workspace are scoped (joined before the driver returns), so their
//! records are always flushed before the driver takes the trace.
//!
//! Records carry their full folded path instead of parent indices: flushing
//! needs no re-linking, thread merges are trivial, and the folded-stack
//! exporter is a copy. The per-close cost with tracing *on* is one `Instant`
//! read and one small `String` clone — spans in this workspace are placed on
//! coarse units (a factorization, an ADI sweep, a moment chain), so the
//! instrumented-vs-uninstrumented overhead stays within the 5 % acceptance
//! guard.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The static name the span was opened with.
    pub name: &'static str,
    /// Folded call path on the opening thread, `;`-separated, ending in
    /// `name` (`"assoc_reduce;chain_h2"`).
    pub path: String,
    /// Thread ordinal (assigned per thread at first span, process-wide).
    pub thread: u32,
    /// Nesting depth on the opening thread (0 = root span).
    pub depth: u16,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Flush a thread buffer into the sink once it holds this many records,
/// bounding per-thread memory on long runs.
const FLUSH_THRESHOLD: usize = 4096;

struct LocalBuf {
    thread: u32,
    /// Folded path of the currently open spans.
    path: String,
    depth: u16,
    records: Vec<SpanRecord>,
}

impl LocalBuf {
    fn new() -> Self {
        LocalBuf {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            path: String::new(),
            depth: 0,
            records: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(&mut self.records);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

/// True while a subscriber is installed. Inlined to a relaxed load so
/// uninstrumented runs pay (almost) nothing at every span site.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The shared trace epoch, initialized on first use. The event layer
/// ([`crate::event`]) stamps its records against the same instant, so span
/// and event timelines line up in a run report without clock translation.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Installs the subscriber: spans opened from now on are recorded. The
/// trace epoch (time zero of [`SpanRecord::start_ns`]) is fixed at the
/// *first* install of the process, so traces drained across several
/// [`take_trace`] rounds share one monotonic timeline.
pub fn install() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and drains every flushed record: the calling thread's
/// buffer is flushed first, then the global sink is emptied. Every thread
/// flushes when its outermost span closes, so a joined worker's spans are
/// all in the sink; only the spans of a live thread whose outermost span is
/// still open are left for the next drain.
pub fn take_trace() -> Vec<SpanRecord> {
    ENABLED.store(false, Ordering::SeqCst);
    let _ = LOCAL.try_with(|buf| buf.borrow_mut().flush());
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *sink)
}

/// RAII span guard: created by [`crate::span!`], records the span when
/// dropped (including during panic unwinding, which is what keeps traces
/// coherent across a contained panic). `!Send` by construction — a span
/// must close on the thread that opened it.
pub struct SpanGuard {
    open: Option<OpenSpan>,
    _not_send: PhantomData<*const ()>,
}

struct OpenSpan {
    name: &'static str,
    /// `path.len()` to restore on close (strips `;name`).
    restore: usize,
    depth: u16,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name`. When tracing is disabled this is a single
    /// relaxed atomic load and the returned guard does nothing on drop.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard {
                open: None,
                _not_send: PhantomData,
            };
        }
        Self::enter_slow(name)
    }

    #[cold]
    fn enter_slow(name: &'static str) -> SpanGuard {
        let open = LOCAL
            .try_with(|buf| {
                let mut buf = buf.borrow_mut();
                let restore = buf.path.len();
                if !buf.path.is_empty() {
                    buf.path.push(';');
                }
                buf.path.push_str(name);
                let depth = buf.depth;
                buf.depth = buf.depth.saturating_add(1);
                OpenSpan {
                    name,
                    restore,
                    depth,
                    // Read the clock last so guard bookkeeping is not
                    // attributed to the span.
                    start: Instant::now(),
                }
            })
            .ok();
        SpanGuard {
            open,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur = open.start.elapsed();
        // Thread teardown may have destroyed the buffer already; the span is
        // then silently dropped rather than panicking inside a destructor.
        let _ = LOCAL.try_with(|buf| {
            let mut buf = buf.borrow_mut();
            let start_ns = EPOCH
                .get()
                .and_then(|epoch| open.start.checked_duration_since(*epoch))
                .map_or(0, |d| d.as_nanos() as u64);
            let record = SpanRecord {
                name: open.name,
                path: buf.path.clone(),
                thread: buf.thread,
                depth: open.depth,
                start_ns,
                dur_ns: dur.as_nanos() as u64,
            };
            buf.path.truncate(open.restore);
            buf.depth = open.depth;
            buf.records.push(record);
            // Closing a thread's outermost span flushes too: a scoped worker
            // signals its join before its thread-local destructor runs, so
            // the exit-time flush alone can land after the driver's drain.
            if open.depth == 0 || buf.records.len() >= FLUSH_THRESHOLD {
                buf.flush();
            }
        });
    }
}
