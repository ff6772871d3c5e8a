//! Cooperative run control: cancellation tokens, wall-clock deadlines and
//! progress callbacks for the long-running iterations of the reduction stack.
//!
//! A [`RunControl`] is a cheaply clonable handle shared between the caller
//! (who may [`cancel`](RunControl::cancel) it from another thread) and the
//! iterative kernels (which call [`checkpoint`](RunControl::checkpoint) at
//! every unit of work: one ADI sweep, one moment chain, one band-grid point,
//! one greedy move, one transient step). A checkpoint that observes a stop
//! request returns [`LinalgError::Interrupted`] carrying the typed
//! [`StopCause`]; drivers translate that into "return the best result seen so
//! far" rather than an error — cancellation is a *graceful* exit, never a
//! panic.
//!
//! The default token ([`RunControl::new`]) never stops and its checkpoints
//! are a few atomic operations, so every kernel takes `&RunControl` and the
//! uncontrolled entry points simply pass an inert one.
//!
//! Panic-freedom of this module (and the rest of the solver surface) is
//! enforced by `cargo xtask analyze` — the workspace-wide `panic-freedom`
//! lint replaced the per-module clippy attributes that used to live here.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::LinalgError;

/// Why a controlled run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// [`RunControl::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline of the token passed.
    DeadlineExceeded,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCause::Cancelled => write!(f, "cancelled"),
            StopCause::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// One progress record, emitted at every checkpoint of a controlled run —
/// the run-control analogue of an `AdaptiveTrace` event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressEvent {
    /// The stage that reached the checkpoint (e.g. `"adi-sweep"`,
    /// `"greedy-move"`, `"transient-step"`).
    pub stage: &'static str,
    /// Global checkpoint sequence number of the token (1-based).
    pub sequence: usize,
    /// Stage-specific scalar (residual, time, ...); `NaN` when the stage has
    /// none.
    pub value: f64,
    /// Monotonic wall-clock time since the root token was created
    /// ([`RunControl::new`]); [`RunControl::child`] scopes inherit the
    /// parent's clock, so events multiplexed from one session share a
    /// timeline.
    pub elapsed: Duration,
    /// Request id of the token's scope ([`RunControl::with_request_id`]),
    /// so session-routed events stay attributable when several requests
    /// stream through one callback. `None` outside a tagged scope.
    pub request_id: Option<u64>,
}

type ProgressCallback = dyn Fn(ProgressEvent) + Send + Sync;

struct Inner {
    // Shared (not rebuilt) across the `with_*` builder stages, so a handle
    // cloned before `with_progress`/`with_deadline` still cancels — and
    // counts checkpoints of — the final token.
    cancelled: Arc<AtomicBool>,
    // Cancellation flags of the ancestor scopes (see `RunControl::child`):
    // observed, never written — cancelling a child must not leak upward.
    parents: Vec<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    checkpoints: Arc<AtomicUsize>,
    progress: Option<Arc<ProgressCallback>>,
    // Epoch of `ProgressEvent::elapsed`: fixed at `RunControl::new`, shared
    // by every clone and child scope of the token.
    started: Instant,
    request_id: Option<u64>,
}

/// Cooperative cancellation token with an optional wall-clock deadline and
/// progress callback. Clones share state: cancelling any clone stops them
/// all.
#[derive(Clone)]
pub struct RunControl {
    inner: Arc<Inner>,
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .field("checkpoints", &self.checkpoints())
            .field("has_progress", &self.inner.progress.is_some())
            .finish()
    }
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl::new()
    }
}

impl RunControl {
    /// An unbounded token: never cancelled, no deadline, no callback.
    pub fn new() -> Self {
        RunControl {
            inner: Arc::new(Inner {
                cancelled: Arc::new(AtomicBool::new(false)),
                parents: Vec::new(),
                deadline: None,
                checkpoints: Arc::new(AtomicUsize::new(0)),
                progress: None,
                started: Instant::now(),
                request_id: None,
            }),
        }
    }

    /// A child scope for one isolated request: the child observes this
    /// token's cancellation (and deadline), but cancelling the *child* never
    /// propagates back — one request aborted inside a session cannot stop
    /// its siblings. The child gets its own checkpoint counter and no
    /// progress callback.
    #[must_use]
    pub fn child(&self) -> Self {
        let mut parents = self.inner.parents.clone();
        parents.push(self.inner.cancelled.clone());
        RunControl {
            inner: Arc::new(Inner {
                cancelled: Arc::new(AtomicBool::new(false)),
                parents,
                deadline: self.inner.deadline,
                checkpoints: Arc::new(AtomicUsize::new(0)),
                progress: None,
                // The child shares the parent's progress timeline but not
                // its request tag — the session stamps each request scope
                // with `with_request_id`.
                started: self.inner.started,
                request_id: None,
            }),
        }
    }

    /// Returns a token that additionally stops once `timeout` of wall-clock
    /// time has elapsed (measured from this call). The cancellation flag and
    /// checkpoint counter stay shared with `self` and its earlier clones.
    #[must_use]
    pub fn with_deadline(self, timeout: Duration) -> Self {
        RunControl {
            inner: Arc::new(Inner {
                cancelled: self.inner.cancelled.clone(),
                parents: self.inner.parents.clone(),
                deadline: Some(Instant::now() + timeout),
                checkpoints: self.inner.checkpoints.clone(),
                progress: self.inner.progress.clone(),
                started: self.inner.started,
                request_id: self.inner.request_id,
            }),
        }
    }

    /// Returns a token that additionally invokes `callback` at every
    /// checkpoint. The cancellation flag and checkpoint counter stay shared
    /// with `self` and its earlier clones, so a pre-existing handle can
    /// cancel the returned token.
    #[must_use]
    pub fn with_progress<F>(self, callback: F) -> Self
    where
        F: Fn(ProgressEvent) + Send + Sync + 'static,
    {
        RunControl {
            inner: Arc::new(Inner {
                cancelled: self.inner.cancelled.clone(),
                parents: self.inner.parents.clone(),
                deadline: self.inner.deadline,
                checkpoints: self.inner.checkpoints.clone(),
                progress: Some(Arc::new(callback)),
                started: self.inner.started,
                request_id: self.inner.request_id,
            }),
        }
    }

    /// Returns a token whose progress events carry `id` as their
    /// [`ProgressEvent::request_id`] — the attribution tag for events
    /// multiplexed through one session-level callback. All other state
    /// (cancellation, deadline, checkpoint counter, progress callback,
    /// elapsed-time epoch) stays shared with `self`.
    #[must_use]
    pub fn with_request_id(self, id: u64) -> Self {
        RunControl {
            inner: Arc::new(Inner {
                cancelled: self.inner.cancelled.clone(),
                parents: self.inner.parents.clone(),
                deadline: self.inner.deadline,
                checkpoints: self.inner.checkpoints.clone(),
                progress: self.inner.progress.clone(),
                started: self.inner.started,
                request_id: Some(id),
            }),
        }
    }

    /// The request id stamped by [`with_request_id`](Self::with_request_id),
    /// if any.
    pub fn request_id(&self) -> Option<u64> {
        self.inner.request_id
    }

    /// Monotonic wall-clock time since the root token was created — the
    /// same clock reported in [`ProgressEvent::elapsed`].
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Requests cooperative cancellation: the next checkpoint on any clone
    /// observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`](Self::cancel) has been called on any clone, or
    /// on any ancestor scope this token was [`child`](Self::child)-ed from.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
            || self.inner.parents.iter().any(|p| p.load(Ordering::SeqCst))
    }

    /// True once the wall-clock deadline (if any) has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.inner
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The stop request currently in effect, if any. Cancellation takes
    /// precedence over the deadline so an explicit `cancel()` is always
    /// reported as such.
    pub fn stop_cause(&self) -> Option<StopCause> {
        if self.is_cancelled() {
            Some(StopCause::Cancelled)
        } else if self.deadline_exceeded() {
            Some(StopCause::DeadlineExceeded)
        } else {
            None
        }
    }

    /// Total checkpoints observed by this token (across all clones).
    pub fn checkpoints(&self) -> usize {
        self.inner.checkpoints.load(Ordering::SeqCst)
    }

    /// Records one unit of work with a stage-specific scalar, invokes the
    /// progress callback, and returns [`LinalgError::Interrupted`] when a
    /// stop (cancellation or deadline) is in effect.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Interrupted`] carrying the [`StopCause`].
    pub fn checkpoint_with(&self, stage: &'static str, value: f64) -> Result<(), LinalgError> {
        let sequence = self.inner.checkpoints.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(callback) = &self.inner.progress {
            callback(ProgressEvent {
                stage,
                sequence,
                value,
                elapsed: self.inner.started.elapsed(),
                request_id: self.inner.request_id,
            });
        }
        match self.stop_cause() {
            Some(cause) => Err(LinalgError::Interrupted(cause)),
            None => Ok(()),
        }
    }

    /// [`checkpoint_with`](Self::checkpoint_with) without a stage scalar.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Interrupted`] carrying the [`StopCause`].
    pub fn checkpoint(&self, stage: &'static str) -> Result<(), LinalgError> {
        self.checkpoint_with(stage, f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn unbounded_token_never_stops() {
        let control = RunControl::new();
        for _ in 0..100 {
            control.checkpoint("work").unwrap();
        }
        assert_eq!(control.checkpoints(), 100);
        assert_eq!(control.stop_cause(), None);
    }

    #[test]
    fn cancellation_is_observed_by_clones() {
        let control = RunControl::new();
        let worker = control.clone();
        assert!(worker.checkpoint("work").is_ok());
        control.cancel();
        let err = worker.checkpoint("work").unwrap_err();
        assert_eq!(err, LinalgError::Interrupted(StopCause::Cancelled));
        assert_eq!(worker.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn expired_deadline_interrupts() {
        let control = RunControl::new().with_deadline(Duration::ZERO);
        let err = control.checkpoint("work").unwrap_err();
        assert_eq!(err, LinalgError::Interrupted(StopCause::DeadlineExceeded));
    }

    #[test]
    fn cancellation_outranks_the_deadline() {
        let control = RunControl::new().with_deadline(Duration::ZERO);
        control.cancel();
        assert_eq!(control.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn progress_events_carry_stage_and_sequence() {
        let seen: Arc<Mutex<Vec<ProgressEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let control = RunControl::new().with_progress(move |event| {
            sink.lock().unwrap().push(event);
        });
        control.checkpoint_with("adi-sweep", 0.5).unwrap();
        control.checkpoint("greedy-move").unwrap();
        let events = seen.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, "adi-sweep");
        assert_eq!(events[0].sequence, 1);
        assert_eq!(events[0].value, 0.5);
        assert_eq!(events[1].stage, "greedy-move");
        assert_eq!(events[1].sequence, 2);
        assert!(events[1].value.is_nan());
        // Untagged tokens emit unattributed events on a monotonic clock.
        assert_eq!(events[0].request_id, None);
        assert!(events[1].elapsed >= events[0].elapsed);
    }

    #[test]
    fn request_ids_attribute_multiplexed_events() {
        let seen: Arc<Mutex<Vec<ProgressEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let session = RunControl::new().with_progress(move |event| {
            sink.lock().unwrap().push(event);
        });
        // Two request scopes stream through the one session callback.
        let req_a = session.clone().with_request_id(7);
        let req_b = session.clone().with_request_id(8);
        req_a.checkpoint("work-a").unwrap();
        req_b.checkpoint("work-b").unwrap();
        session.checkpoint("session").unwrap();
        assert_eq!(req_a.request_id(), Some(7));
        assert_eq!(session.request_id(), None);
        let events = seen.lock().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].request_id, Some(7));
        assert_eq!(events[1].request_id, Some(8));
        assert_eq!(events[2].request_id, None);
        // Tagging keeps cancellation and the checkpoint counter shared.
        assert_eq!(session.checkpoints(), 3);
        session.cancel();
        assert!(req_a.is_cancelled());
    }

    #[test]
    fn elapsed_shares_the_root_clock_across_scopes() {
        let root = RunControl::new();
        // Test-only wall-clock advance; no solver worker is blocked here.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(2));
        let child = root.child().with_request_id(1);
        // The child inherits the root epoch rather than restarting at zero.
        let child_elapsed = child.elapsed();
        assert!(child_elapsed >= Duration::from_millis(2));
        assert!(root.elapsed() >= child_elapsed, "scopes share one clock");
    }

    #[test]
    fn progress_callback_may_cancel_the_run() {
        let handle = RunControl::new();
        let trigger = handle.clone();
        let control = handle.with_progress(move |event| {
            if event.sequence >= 3 {
                trigger.cancel();
            }
        });
        let mut stopped_at = None;
        for i in 0..10 {
            if control.checkpoint("work").is_err() {
                stopped_at = Some(i);
                break;
            }
        }
        // The cancellation fires at the very checkpoint whose callback
        // requested it — zero extra checkpoints slip through.
        assert_eq!(stopped_at, Some(2));
        assert_eq!(control.checkpoints(), 3);
    }

    #[test]
    fn child_scopes_isolate_cancellation_downward_only() {
        let parent = RunControl::new();
        let child_a = parent.child();
        let child_b = parent.child();
        // Cancelling one child stops it alone.
        child_a.cancel();
        assert!(child_a.is_cancelled());
        assert!(!parent.is_cancelled());
        assert!(!child_b.is_cancelled());
        assert!(child_b.checkpoint("work").is_ok());
        // Cancelling the parent stops every child — including grandchildren.
        let grandchild = child_b.child();
        parent.cancel();
        assert!(child_b.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert_eq!(
            grandchild.checkpoint("work").unwrap_err(),
            LinalgError::Interrupted(StopCause::Cancelled)
        );
    }

    #[test]
    fn stop_cause_displays_lowercase() {
        assert_eq!(StopCause::Cancelled.to_string(), "cancelled");
        assert_eq!(StopCause::DeadlineExceeded.to_string(), "deadline exceeded");
    }
}
