//! Deterministic, seeded fault injection for the chaos suite (compiled only
//! with the `fault-injection` feature — never part of a production build).
//!
//! A [`FaultPlan`] armed via [`arm`] makes the instrumented seams — the
//! shifted-solve caches and the transient integrator's factorization path —
//! fail on a seeded, reproducible schedule: every consultation of a seam
//! hashes `(seed, site, consultation index)` and injects the planned
//! [`FaultKind`] when the hash lands on the plan's period. The chaos tests
//! sweep plans over the paper experiments and assert the degradation ladder
//! holds: every injected fault ends in a recovered ROM plus a report, or a
//! typed error — never a panic, never silent NaN output.
//!
//! The plan is process-global (the seams have no plumbing for a handle), so
//! chaos tests serialize behind a lock and [`disarm`] in all paths.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The failure mode an armed plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The seam reports a singular factorization (typed `Singular` error).
    SingularFactor,
    /// The seam returns a NaN-poisoned solution vector.
    NanSolve,
    /// The seam returns the right-hand side unchanged — a solve that makes
    /// no progress, stalling ADI-style iterations.
    AdiStall,
    /// A shared session-cache entry is corrupted in place (bit-rot model):
    /// the session's checksum validation must quarantine exactly that entry
    /// and retry with a fresh factorization.
    CacheCorrupt,
    /// A budget charge is inflated, forcing the cross-cache eviction path
    /// and, under a tight budget, typed `BudgetExhausted` backpressure.
    BudgetPressure,
    /// A checkpoint write is torn (truncated mid-record): resume must detect
    /// it by checksum and report a typed error, never restart silently.
    CheckpointTorn,
}

/// The instrumented seams a plan can fire at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `ShiftCache` shifted solves (the `ShiftedSolve` seam of the ADI and
    /// rational-Krylov loops).
    ShiftedSolve,
    /// The transient integrator's Jacobian factorization path.
    IntegratorFactor,
    /// The transient integrator's Newton-update solve.
    IntegratorSolve,
    /// A session shared-cache fetch (stamp artifacts, sampler caches).
    SessionCache,
    /// A session memory-budget charge.
    SessionBudget,
    /// An adaptive-driver checkpoint write.
    Checkpoint,
}

impl FaultKind {
    /// The seams where this failure mode is physically meaningful. A plan is
    /// only consulted — and only spends its bounded injections — at sites
    /// that can express its kind: a `CacheCorrupt` plan must not burn its
    /// budget on the hundreds of `ShiftedSolve` consultations a reduction
    /// makes before the first session-cache fetch.
    pub fn targets(self, site: FaultSite) -> bool {
        match self {
            FaultKind::SingularFactor | FaultKind::NanSolve | FaultKind::AdiStall => matches!(
                site,
                FaultSite::ShiftedSolve | FaultSite::IntegratorFactor | FaultSite::IntegratorSolve
            ),
            FaultKind::CacheCorrupt => site == FaultSite::SessionCache,
            FaultKind::BudgetPressure => site == FaultSite::SessionBudget,
            FaultKind::CheckpointTorn => site == FaultSite::Checkpoint,
        }
    }
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::ShiftedSolve => 0x9e37_79b9_7f4a_7c15,
            FaultSite::IntegratorFactor => 0xbf58_476d_1ce4_e5b9,
            FaultSite::IntegratorSolve => 0x94d0_49bb_1331_11eb,
            FaultSite::SessionCache => 0xd6e8_feb8_6659_fd93,
            FaultSite::SessionBudget => 0xa5a5_3576_9d1e_8b47,
            FaultSite::Checkpoint => 0xc2b2_ae3d_27d4_eb4f,
        }
    }
}

/// A deterministic injection schedule: consultation `i` of `site` injects
/// `kind` iff `mix(seed, site, i) % period == 0`, up to `max_injections`
/// total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the injection schedule.
    pub seed: u64,
    /// Failure mode to inject.
    pub kind: FaultKind,
    /// Average spacing between injections (1 = every consultation).
    pub period: usize,
    /// Hard cap on total injections (keeps runs recoverable by design).
    pub max_injections: usize,
}

impl FaultPlan {
    /// A plan injecting `kind` roughly every third consultation, at most
    /// four times.
    pub fn new(seed: u64, kind: FaultKind) -> Self {
        FaultPlan {
            seed,
            kind,
            period: 3,
            max_injections: 4,
        }
    }
}

struct Armed {
    plan: FaultPlan,
    injected: usize,
    counters: [usize; 6],
}

static ACTIVE: Mutex<Option<Armed>> = Mutex::new(None);
static INJECTED_TOTAL: AtomicUsize = AtomicUsize::new(0);

fn site_index(site: FaultSite) -> usize {
    match site {
        FaultSite::ShiftedSolve => 0,
        FaultSite::IntegratorFactor => 1,
        FaultSite::IntegratorSolve => 2,
        FaultSite::SessionCache => 3,
        FaultSite::SessionBudget => 4,
        FaultSite::Checkpoint => 5,
    }
}

fn mix(mut x: u64) -> u64 {
    x |= 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn lock() -> std::sync::MutexGuard<'static, Option<Armed>> {
    // The guarded section never panics; recover the state on the off chance
    // a test thread died while holding the lock.
    ACTIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `plan` process-wide (replacing any armed plan) and resets the
/// injection counter.
pub fn arm(plan: FaultPlan) {
    *lock() = Some(Armed {
        plan,
        injected: 0,
        counters: [0; 6],
    });
    INJECTED_TOTAL.store(0, Ordering::SeqCst);
}

/// Disarms fault injection.
pub fn disarm() {
    *lock() = None;
}

/// Faults injected since the last [`arm`].
pub fn injected() -> usize {
    INJECTED_TOTAL.load(Ordering::SeqCst)
}

/// Consults the armed plan at `site`; returns the fault to inject, if any.
/// Seams call this once per operation and translate the kind into their
/// local failure shape.
pub fn maybe(site: FaultSite) -> Option<FaultKind> {
    let mut guard = lock();
    let armed = guard.as_mut()?;
    // Sites the planned kind cannot express neither advance the schedule
    // nor spend injections (see `FaultKind::targets`).
    if !armed.plan.kind.targets(site) {
        return None;
    }
    let idx = site_index(site);
    let n = armed.counters[idx];
    armed.counters[idx] += 1;
    if armed.injected >= armed.plan.max_injections {
        return None;
    }
    let period = armed.plan.period.max(1) as u64;
    if mix(armed.plan.seed ^ site.salt() ^ (n as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
        .is_multiple_of(period)
    {
        armed.injected += 1;
        INJECTED_TOTAL.fetch_add(1, Ordering::SeqCst);
        Some(armed.plan.kind)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan is process-global: tests touching it must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let plan = FaultPlan {
            seed: 42,
            kind: FaultKind::NanSolve,
            period: 2,
            max_injections: 3,
        };
        arm(plan);
        let first: Vec<bool> = (0..32)
            .map(|_| maybe(FaultSite::ShiftedSolve).is_some())
            .collect();
        let count = injected();
        assert_eq!(count, 3, "max_injections caps the schedule");
        arm(plan);
        let second: Vec<bool> = (0..32)
            .map(|_| maybe(FaultSite::ShiftedSolve).is_some())
            .collect();
        assert_eq!(first, second, "same plan, same schedule");
        disarm();
        assert_eq!(maybe(FaultSite::ShiftedSolve), None);
    }

    #[test]
    fn sites_have_independent_schedules() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan {
            seed: 7,
            kind: FaultKind::SingularFactor,
            period: 4,
            max_injections: 100,
        });
        let a: Vec<bool> = (0..64)
            .map(|_| maybe(FaultSite::ShiftedSolve).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| maybe(FaultSite::IntegratorFactor).is_some())
            .collect();
        assert_ne!(a, b, "site salt differentiates the schedules");
        disarm();
    }
}
