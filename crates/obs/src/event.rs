//! Structured numerical-health events with typed payloads.
//!
//! Where [`crate::span`](mod@crate::span) answers *where the time went*, this module answers
//! *why the run converged, degraded, or stalled*: per-sweep ADI residuals,
//! greedy move evaluations with their scores, degradation-ladder rungs,
//! Newton step accept/reject decisions, budget evictions and cache
//! quarantines — each a typed [`Event`] variant rather than a log line.
//!
//! The recording machinery mirrors the span subsystem: one process-wide
//! enable flag (a relaxed atomic — the only cost paid when no subscriber is
//! installed), per-thread buffers, and a process-wide sink. Two deliberate
//! differences:
//!
//! - The sink is **bounded** ([`install_with_capacity`]). A pathological
//!   run emitting millions of events cannot exhaust memory; overflow drops
//!   the newest records and counts them, and [`take`] reports the dropped
//!   total alongside the surviving records so a report can never silently
//!   present a truncated timeline as complete.
//! - Events carry a process-wide sequence number in addition to the
//!   epoch-relative timestamp, so a merged multi-thread timeline has a
//!   total order even when timer resolution ties.
//!
//! Events share the span layer's epoch: `time_ns` here and
//! [`crate::SpanRecord::start_ns`] are offsets on the same clock.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A rung of the degradation ladder: the solver kept going, but paid for it.
/// Mirrors the counters of `DegradationReport` in `vamor-core` one-to-one;
/// the `degradation-events` xtask lint holds the two in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationRung {
    /// Sparse LU retried factorization with an escalated pivot threshold.
    PivotEscalation,
    /// Sparse LU gave up on the sparse path and fell back to dense.
    DenseFallback,
    /// LR-ADI stalled and perturbed/reselected its shift pool.
    AdiShiftReselection,
    /// LR-ADI exhausted its sweep budget above the residual tolerance.
    AdiNonConverged,
}

impl DegradationRung {
    /// Stable snake_case name used in report JSON and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            DegradationRung::PivotEscalation => "pivot_escalation",
            DegradationRung::DenseFallback => "dense_fallback",
            DegradationRung::AdiShiftReselection => "adi_shift_reselection",
            DegradationRung::AdiNonConverged => "adi_nonconverged",
        }
    }
}

/// Outcome of one greedy probe in the adaptive driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The candidate reduced the band residual and is a viable successor.
    Viable,
    /// The candidate's reduction failed outright (error propagated past it).
    Failed,
    /// The candidate's reduced linear part was not Hurwitz.
    Unstable,
    /// The candidate exceeded the order budget.
    OverBudget,
    /// A cooperative stop request interrupted the probe.
    Interrupted,
}

impl ProbeOutcome {
    /// Stable snake_case name used in report JSON.
    pub fn name(self) -> &'static str {
        match self {
            ProbeOutcome::Viable => "viable",
            ProbeOutcome::Failed => "failed",
            ProbeOutcome::Unstable => "unstable",
            ProbeOutcome::OverBudget => "over_budget",
            ProbeOutcome::Interrupted => "interrupted",
        }
    }
}

/// One numerical-health event. Payloads are plain data (numbers and static
/// names) — `vamor-obs` sits below every solver crate and cannot name their
/// types, and plain data keeps the per-event cost to a memcpy.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One LR-ADI / fADI sweep: residual after the sweep and the shift it
    /// consumed. `solver` is `"lr_adi"` or `"fadi"`.
    AdiSweep {
        /// Which low-rank solver ran the sweep.
        solver: &'static str,
        /// Sweep index within this solve, 0-based.
        sweep: u32,
        /// Low-rank factor columns after the sweep.
        rank: u32,
        /// Relative residual after the sweep.
        residual: f64,
        /// Real part of the shift the sweep consumed.
        shift_re: f64,
        /// Imaginary part of the shift (0 for real shifts).
        shift_im: f64,
    },
    /// One greedy move evaluation in the adaptive driver.
    GreedyProbe {
        /// `AdaptiveMove::name()` of the probed move.
        mv: &'static str,
        /// Reduced order of the candidate (0 when the reduction failed).
        order: u32,
        /// Band residual of the candidate (∞ when unavailable).
        residual: f64,
        /// Residual gain per added column (the greedy score; 0 when not
        /// scored).
        gain: f64,
        /// How the probe ended.
        outcome: ProbeOutcome,
    },
    /// The adaptive driver accepted a move (one step of the descent).
    GreedyAccept {
        /// `AdaptiveMove::name()` of the accepted move.
        mv: &'static str,
        /// Reduced order after the accepted step.
        order: u32,
        /// Band residual after the accepted step.
        residual: f64,
        /// Residual gain per added column of the accepted step.
        gain: f64,
    },
    /// A (block-)orthogonalization deflated candidate directions.
    Deflation {
        /// Which pipeline stage deflated (`"chain"`, `"basis"`, ...).
        context: &'static str,
        /// Directions dropped.
        dropped: u32,
        /// The deflation tolerance in force.
        tol: f64,
    },
    /// The spectral guard (or a singular Petrov pairing) restarted a
    /// projection by dropping a trailing basis column.
    SpectralRestart {
        /// Restart ordinal within this reduction, 1-based.
        restart: u32,
        /// Spectral abscissa that triggered the restart (NaN for a
        /// singular-pairing restart, where no spectrum was formed).
        abscissa: f64,
        /// Projection dimension after the drop.
        dim: u32,
    },
    /// A degradation-ladder rung fired.
    Degradation {
        /// Which rung.
        rung: DegradationRung,
        /// Rung-specific detail: escalated pivot threshold, final ADI
        /// residual, ... (0 when the rung carries no scalar).
        detail: f64,
    },
    /// One transient integrator step: Newton effort and the accept/reject
    /// decision.
    NewtonStep {
        /// Accepted-step ordinal at the time of the event.
        step: u64,
        /// Simulation time at the start of the step.
        t: f64,
        /// Step size attempted.
        dt: f64,
        /// Newton iterations the step consumed.
        iterations: u32,
        /// Whether the step was accepted.
        accepted: bool,
    },
    /// The factorization budget evicted cached entries.
    BudgetEviction {
        /// Entries evicted.
        evicted: u32,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// A session cache quarantined entries (e.g. after a contained panic).
    CacheQuarantine {
        /// Which cache (`"session"`, ...).
        context: &'static str,
        /// Entries quarantined.
        entries: u32,
    },
}

impl Event {
    /// Stable snake_case kind tag used in report JSON and the README
    /// taxonomy table.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::AdiSweep { .. } => "adi_sweep",
            Event::GreedyProbe { .. } => "greedy_probe",
            Event::GreedyAccept { .. } => "greedy_accept",
            Event::Deflation { .. } => "deflation",
            Event::SpectralRestart { .. } => "spectral_restart",
            Event::Degradation { .. } => "degradation",
            Event::NewtonStep { .. } => "newton_step",
            Event::BudgetEviction { .. } => "budget_eviction",
            Event::CacheQuarantine { .. } => "cache_quarantine",
        }
    }
}

/// One recorded event with its position on the shared trace timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Process-wide emission order (total order across threads).
    pub seq: u64,
    /// Event-layer thread ordinal (assigned per thread at first event).
    pub thread: u32,
    /// Offset from the shared trace epoch, nanoseconds.
    pub time_ns: u64,
    /// The payload.
    pub event: Event,
}

/// Everything [`take`] drains: the surviving records plus the overflow
/// accounting that says whether they are the *whole* story.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// Recorded events in emission order (sorted by `seq`).
    pub records: Vec<EventRecord>,
    /// Events dropped because the bounded sink was full. Non-zero means the
    /// timeline is truncated and any derived report must say so.
    pub dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static SINK: Mutex<Vec<EventRecord>> = Mutex::new(Vec::new());

/// Default sink bound: generous for real runs (a paper-size adaptive
/// reduction emits a few thousand events) while keeping worst-case memory
/// for a runaway emitter around tens of MB.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Flush a thread buffer into the sink once it holds this many records.
const FLUSH_THRESHOLD: usize = 1024;

struct LocalBuf {
    thread: u32,
    records: Vec<EventRecord>,
}

impl LocalBuf {
    fn new() -> Self {
        LocalBuf {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            records: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let cap = CAPACITY.load(Ordering::Relaxed);
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        let room = cap.saturating_sub(sink.len());
        if self.records.len() > room {
            let overflow = (self.records.len() - room) as u64;
            DROPPED.fetch_add(overflow, Ordering::Relaxed);
            self.records.truncate(room);
        }
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

/// True while an event subscriber is installed. Inlined to a relaxed load;
/// the `event!` macro checks this *before* building the payload, so
/// uninstrumented runs pay one load and never construct the event.
#[inline]
pub fn events_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the event subscriber with the default sink bound.
pub fn install() {
    install_with_capacity(DEFAULT_CAPACITY);
}

/// Installs the event subscriber with an explicit sink bound. Resets the
/// dropped-event counter; the sequence counter and epoch keep running so
/// records drained across several [`take`] rounds stay totally ordered on
/// one timeline.
pub fn install_with_capacity(capacity: usize) {
    let _ = crate::span::epoch();
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and drains: the calling thread's buffer is flushed
/// first, then the sink is emptied and sorted by sequence number. Buffers
/// of other *live* threads that have neither flushed nor exited keep their
/// records for the next drain — the workspace's worker threads are scoped
/// (joined before a driver returns), so in practice everything has flushed.
pub fn take() -> EventLog {
    ENABLED.store(false, Ordering::SeqCst);
    let _ = LOCAL.try_with(|buf| buf.borrow_mut().flush());
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut records = std::mem::take(&mut *sink);
    drop(sink);
    records.sort_by_key(|r| r.seq);
    EventLog {
        records,
        dropped: DROPPED.swap(0, Ordering::Relaxed),
    }
}

/// Total events dropped to the sink bound since install (or the last
/// [`take`]). Exposed separately so long runs can watch for truncation
/// before draining.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Flushes the calling thread's buffer into the sink without stopping the
/// subscriber. Worker threads whose records must be visible to a drain on
/// another thread call this at a quiescent point — `scope`d threads signal
/// completion before their thread-local destructors run, so a scope join
/// alone does not guarantee the flush.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|buf| buf.borrow_mut().flush());
}

/// Records one event. Call through the [`crate::event!`] macro, which gates
/// on [`events_enabled`] so the payload is never built when no subscriber
/// is installed.
pub fn emit(event: Event) {
    if !events_enabled() {
        return;
    }
    emit_slow(event);
}

#[cold]
fn emit_slow(event: Event) {
    let time_ns = Instant::now()
        .checked_duration_since(crate::span::epoch())
        .map_or(0, |d| d.as_nanos() as u64);
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    // Thread teardown may have destroyed the buffer already; the event is
    // then counted as dropped rather than panicking inside a destructor.
    let pushed = LOCAL.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        let record = EventRecord {
            seq,
            thread: buf.thread,
            time_ns,
            event,
        };
        buf.records.push(record);
        if buf.records.len() >= FLUSH_THRESHOLD {
            buf.flush();
        }
    });
    if pushed.is_err() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// An RAII scope that installs the event subscriber on construction and
/// drains it on [`EventScope::finish`] — the per-experiment capture unit
/// the run-report builder uses. `!Send` by construction: the scope must
/// finish on the thread that opened it so that thread's buffer flushes.
pub struct EventScope {
    _not_send: PhantomData<*const ()>,
}

impl EventScope {
    /// Installs the subscriber (default capacity) and returns the scope.
    pub fn begin() -> EventScope {
        install();
        EventScope {
            _not_send: PhantomData,
        }
    }

    /// Stops recording and returns everything captured since [`begin`].
    ///
    /// [`begin`]: EventScope::begin
    pub fn finish(self) -> EventLog {
        take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_and_outcome_names_are_stable() {
        assert_eq!(DegradationRung::PivotEscalation.name(), "pivot_escalation");
        assert_eq!(DegradationRung::DenseFallback.name(), "dense_fallback");
        assert_eq!(
            DegradationRung::AdiShiftReselection.name(),
            "adi_shift_reselection"
        );
        assert_eq!(DegradationRung::AdiNonConverged.name(), "adi_nonconverged");
        assert_eq!(ProbeOutcome::Viable.name(), "viable");
        assert_eq!(ProbeOutcome::OverBudget.name(), "over_budget");
    }

    #[test]
    fn kind_tags_cover_every_variant() {
        let e = Event::AdiSweep {
            solver: "lr_adi",
            sweep: 0,
            rank: 2,
            residual: 1.0,
            shift_re: -1.0,
            shift_im: 0.0,
        };
        assert_eq!(e.kind(), "adi_sweep");
        let e = Event::Degradation {
            rung: DegradationRung::DenseFallback,
            detail: 0.0,
        };
        assert_eq!(e.kind(), "degradation");
    }
}
