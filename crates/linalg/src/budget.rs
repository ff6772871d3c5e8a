//! The session memory-budget governor: one byte-accounting ledger shared by
//! every cache a [`ReductionSession`](https://docs.rs) owns (band-estimator
//! shift caches, chain factorizations, transient-integrator factors), with
//! cross-cache LRU eviction under a single global budget and typed
//! backpressure instead of unbounded growth.
//!
//! The ledger tracks *bytes*, not artifacts: owners [`charge`] an entry when
//! they materialize it, [`touch`] it on every reuse, [`pin`] it for the
//! duration of an in-flight request (a pinned entry is never selected as an
//! eviction victim), and [`release`] it when they drop the artifact. When a
//! charge does not fit, the ledger selects least-recently-used unpinned
//! victims — across *all* owners — and returns them to the caller, who is
//! responsible for dropping the actual artifacts; when even evicting every
//! unpinned entry cannot make room, the charge fails with
//! [`BudgetError::Exhausted`] carrying the recent eviction ledger, so the
//! caller can report *what* was sacrificed before the budget ran dry.
//!
//! Lock discipline (enforced by `cargo xtask analyze`): the ledger mutex is
//! a leaf lock acquired only through the `MemoryBudget::lock_ledger`
//! helper, never held across a callback, and never nested with any other
//! lock.
//!
//! [`charge`]: MemoryBudget::charge
//! [`touch`]: MemoryBudget::touch
//! [`pin`]: MemoryBudget::pin
//! [`release`]: MemoryBudget::release

use std::fmt;
use std::sync::{Mutex, MutexGuard};

#[cfg(feature = "fault-injection")]
use crate::fault::{self, FaultKind, FaultSite};

/// How many eviction records the ledger retains for diagnostics (and for the
/// [`BudgetError::Exhausted`] payload).
const EVICTION_HISTORY_CAP: usize = 64;

/// One evicted (or about-to-be-evicted) ledger entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionRecord {
    /// The cache family that owned the entry (e.g. `"stamp"`, `"sampler"`,
    /// `"integrator"`).
    pub owner: &'static str,
    /// Owner-scoped entry key (a stamp fingerprint, a quantized shift, ...).
    pub key: u64,
    /// Bytes the entry accounted for.
    pub bytes: usize,
}

/// Typed backpressure from the governor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// The charge cannot fit even after evicting every unpinned entry: the
    /// pinned working set plus the request exceeds the budget. Carries the
    /// eviction ledger so callers can attach it to their own error.
    Exhausted {
        /// Bytes the failed charge requested.
        requested: usize,
        /// The configured budget.
        capacity: usize,
        /// Bytes still accounted (all pinned) when the charge failed.
        pinned: usize,
        /// Recent evictions, oldest first (bounded history).
        ledger: Vec<EvictionRecord>,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Exhausted {
                requested,
                capacity,
                pinned,
                ledger,
            } => write!(
                f,
                "memory budget exhausted: requested {requested} B against a {capacity} B budget \
                 with {pinned} B pinned by in-flight requests ({} recorded evictions)",
                ledger.len()
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

#[derive(Debug)]
struct Entry {
    owner: &'static str,
    key: u64,
    bytes: usize,
    last_used: u64,
    pins: usize,
}

#[derive(Debug)]
struct Ledger {
    capacity: usize,
    tick: u64,
    used: usize,
    entries: Vec<Entry>,
    history: Vec<EvictionRecord>,
    evicted_total: usize,
}

impl Ledger {
    fn find(&mut self, owner: &'static str, key: u64) -> Option<&mut Entry> {
        self.entries
            .iter_mut()
            .find(|e| e.owner == owner && e.key == key)
    }

    fn record_eviction(&mut self, rec: EvictionRecord) {
        self.evicted_total += 1;
        if self.history.len() == EVICTION_HISTORY_CAP {
            self.history.remove(0);
        }
        self.history.push(rec);
    }
}

/// A cross-cache byte budget with LRU eviction and pinning (see the module
/// docs). Cheap to share behind an `Arc`; every method is `&self`.
#[derive(Debug)]
pub struct MemoryBudget {
    ledger: Mutex<Ledger>,
    metrics: BudgetCounters,
}

/// Registry handles mirroring the governor's activity into the process-wide
/// metrics registry (`budget.*`). Resolved once at construction.
struct BudgetCounters {
    charges: vamor_obs::CounterHandle,
    evictions: vamor_obs::CounterHandle,
    resident_bytes: vamor_obs::GaugeHandle,
}

impl fmt::Debug for BudgetCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BudgetCounters").finish_non_exhaustive()
    }
}

impl MemoryBudget {
    /// A governor enforcing `capacity` bytes across all owners.
    pub fn new(capacity: usize) -> Self {
        MemoryBudget {
            ledger: Mutex::new(Ledger {
                capacity,
                tick: 0,
                used: 0,
                entries: Vec::new(),
                history: Vec::new(),
                evicted_total: 0,
            }),
            metrics: BudgetCounters {
                charges: vamor_obs::counter("budget.charges"),
                evictions: vamor_obs::counter("budget.evictions"),
                resident_bytes: vamor_obs::gauge("budget.resident_bytes"),
            },
        }
    }

    /// A governor that never evicts or refuses (capacity `usize::MAX`) —
    /// accounting and telemetry only.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// The only acquisition point of the ledger mutex (leaf lock; poisoning
    /// recovered — the guarded sections never leave the ledger inconsistent).
    fn lock_ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Accounts `bytes` for `(owner, key)`, evicting LRU unpinned entries —
    /// from any owner — until the charge fits. Re-charging an existing entry
    /// re-prices it. Returns the victims; the caller must drop the artifacts
    /// they name.
    ///
    /// # Errors
    ///
    /// [`BudgetError::Exhausted`] when the pinned working set plus `bytes`
    /// exceeds the budget; the ledger is left exactly as before the call.
    pub fn charge(
        &self,
        owner: &'static str,
        key: u64,
        bytes: usize,
    ) -> Result<Vec<EvictionRecord>, BudgetError> {
        #[allow(unused_mut)]
        let mut bytes = bytes;
        // Fault seam: `BudgetPressure` inflates the request, forcing the
        // eviction path and, under a tight budget, the typed backpressure.
        #[cfg(feature = "fault-injection")]
        if fault::maybe(FaultSite::SessionBudget) == Some(FaultKind::BudgetPressure) {
            bytes = bytes.saturating_mul(1024);
        }
        let mut ledger = self.lock_ledger();
        ledger.tick += 1;
        let tick = ledger.tick;
        let previous = match ledger.find(owner, key) {
            Some(entry) => {
                let old = entry.bytes;
                entry.bytes = bytes;
                entry.last_used = tick;
                Some(old)
            }
            None => None,
        };
        match previous {
            Some(old) => ledger.used = ledger.used - old + bytes,
            None => {
                ledger.used += bytes;
                ledger.entries.push(Entry {
                    owner,
                    key,
                    bytes,
                    last_used: tick,
                    pins: 0,
                });
            }
        }
        let mut evicted: Vec<EvictionRecord> = Vec::new();
        while ledger.used > ledger.capacity {
            let victim = ledger
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.pins == 0 && !(e.owner == owner && e.key == key))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            let Some(i) = victim else {
                // Roll the charge back so a refused request leaves no trace.
                match previous {
                    Some(old) => {
                        ledger.used = ledger.used - bytes + old;
                        if let Some(entry) = ledger.find(owner, key) {
                            entry.bytes = old;
                        }
                    }
                    None => {
                        ledger.used -= bytes;
                        ledger
                            .entries
                            .retain(|e| !(e.owner == owner && e.key == key));
                    }
                }
                // The rolled-back ledger is all pinned (nothing unpinned was
                // left to evict) except the pre-existing unpinned entries
                // that DID fit; report the pinned total.
                let pinned: usize = ledger
                    .entries
                    .iter()
                    .filter(|e| e.pins > 0)
                    .map(|e| e.bytes)
                    .sum();
                for rec in &evicted {
                    ledger.record_eviction(rec.clone());
                }
                let ledger_out = ledger.history.clone();
                self.metrics.charges.inc();
                self.metrics.evictions.add(evicted.len() as u64);
                self.metrics.resident_bytes.set(ledger.used as f64);
                if !evicted.is_empty() {
                    vamor_obs::event!(vamor_obs::Event::BudgetEviction {
                        evicted: evicted.len() as u32,
                        bytes: evicted.iter().map(|r| r.bytes as u64).sum(),
                    });
                }
                return Err(BudgetError::Exhausted {
                    requested: bytes,
                    capacity: ledger.capacity,
                    pinned,
                    ledger: ledger_out,
                });
            };
            let entry = ledger.entries.remove(i);
            ledger.used -= entry.bytes;
            evicted.push(EvictionRecord {
                owner: entry.owner,
                key: entry.key,
                bytes: entry.bytes,
            });
        }
        for rec in &evicted {
            ledger.record_eviction(rec.clone());
        }
        self.metrics.charges.inc();
        self.metrics.evictions.add(evicted.len() as u64);
        self.metrics.resident_bytes.set(ledger.used as f64);
        if !evicted.is_empty() {
            vamor_obs::event!(vamor_obs::Event::BudgetEviction {
                evicted: evicted.len() as u32,
                bytes: evicted.iter().map(|r| r.bytes as u64).sum(),
            });
        }
        Ok(evicted)
    }

    /// Marks `(owner, key)` most-recently-used. No-op for unknown entries.
    pub fn touch(&self, owner: &'static str, key: u64) {
        let mut ledger = self.lock_ledger();
        ledger.tick += 1;
        let tick = ledger.tick;
        if let Some(entry) = ledger.find(owner, key) {
            entry.last_used = tick;
        }
    }

    /// Pins `(owner, key)` for the duration of the returned guard: a pinned
    /// entry is never selected as an eviction victim. Returns `None` for an
    /// unknown entry (it may have been evicted — re-charge first).
    pub fn pin(&self, owner: &'static str, key: u64) -> Option<PinGuard<'_>> {
        let mut ledger = self.lock_ledger();
        ledger.tick += 1;
        let tick = ledger.tick;
        let entry = ledger.find(owner, key)?;
        entry.pins += 1;
        entry.last_used = tick;
        Some(PinGuard {
            budget: self,
            owner,
            key,
        })
    }

    fn unpin(&self, owner: &'static str, key: u64) {
        let mut ledger = self.lock_ledger();
        if let Some(entry) = ledger.find(owner, key) {
            entry.pins = entry.pins.saturating_sub(1);
        }
    }

    /// Removes `(owner, key)` from the ledger (the caller drops the
    /// artifact). Returns the bytes released, or `None` for unknown entries.
    /// A pinned entry can be released by its owner — releasing is not
    /// eviction.
    pub fn release(&self, owner: &'static str, key: u64) -> Option<usize> {
        let mut ledger = self.lock_ledger();
        let i = ledger
            .entries
            .iter()
            .position(|e| e.owner == owner && e.key == key)?;
        let entry = ledger.entries.remove(i);
        ledger.used -= entry.bytes;
        self.metrics.resident_bytes.set(ledger.used as f64);
        Some(entry.bytes)
    }

    /// Bytes currently accounted.
    pub fn used(&self) -> usize {
        self.lock_ledger().used
    }

    /// The configured budget.
    pub fn capacity(&self) -> usize {
        self.lock_ledger().capacity
    }

    /// Live ledger entries.
    pub fn entries(&self) -> usize {
        self.lock_ledger().entries.len()
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> usize {
        self.lock_ledger().evicted_total
    }

    /// True when `(owner, key)` is currently accounted.
    pub fn contains(&self, owner: &'static str, key: u64) -> bool {
        self.lock_ledger()
            .entries
            .iter()
            .any(|e| e.owner == owner && e.key == key)
    }
}

/// RAII pin: while alive, the pinned entry is exempt from eviction.
#[derive(Debug)]
pub struct PinGuard<'a> {
    budget: &'a MemoryBudget,
    owner: &'static str,
    key: u64,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.budget.unpin(self.owner, self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_fit_and_lru_evicts_across_owners() {
        let budget = MemoryBudget::new(100);
        assert!(budget.charge("a", 1, 40).unwrap().is_empty());
        assert!(budget.charge("b", 1, 40).unwrap().is_empty());
        budget.touch("a", 1); // b#1 becomes the LRU entry
        let evicted = budget.charge("a", 2, 40).unwrap();
        assert_eq!(
            evicted,
            vec![EvictionRecord {
                owner: "b",
                key: 1,
                bytes: 40
            }]
        );
        assert_eq!(budget.used(), 80);
        assert_eq!(budget.evictions(), 1);
        assert!(!budget.contains("b", 1));
    }

    #[test]
    fn pinned_entries_are_never_victims_and_exhaustion_is_typed() {
        let budget = MemoryBudget::new(100);
        budget.charge("a", 1, 60).unwrap();
        let _pin = budget.pin("a", 1).unwrap();
        // 60 pinned + 50 requested > 100 and nothing unpinned to evict.
        let err = budget.charge("a", 2, 50).unwrap_err();
        match err {
            BudgetError::Exhausted {
                requested,
                capacity,
                pinned,
                ..
            } => {
                assert_eq!(requested, 50);
                assert_eq!(capacity, 100);
                assert_eq!(pinned, 60);
            }
        }
        // The failed charge left no trace.
        assert_eq!(budget.used(), 60);
        assert!(!budget.contains("a", 2));
        drop(_pin);
        // Unpinned now: the same charge evicts a#1 and succeeds.
        let evicted = budget.charge("a", 2, 50).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(budget.used(), 50);
    }

    #[test]
    fn release_and_recharge_keep_accounting_exact() {
        let budget = MemoryBudget::new(1000);
        budget.charge("x", 7, 100).unwrap();
        budget.charge("x", 7, 250).unwrap(); // re-price
        assert_eq!(budget.used(), 250);
        assert_eq!(budget.entries(), 1);
        assert_eq!(budget.release("x", 7), Some(250));
        assert_eq!(budget.used(), 0);
        assert_eq!(budget.release("x", 7), None);
    }

    /// The issue's property test: over a deterministic pseudo-random op
    /// stream, (1) accounted bytes never exceed the budget after a
    /// successful charge, (2) a pinned entry is never among the eviction
    /// victims, (3) the used counter always equals the sum of live entries.
    #[test]
    fn property_eviction_respects_budget_and_pins() {
        let budget = MemoryBudget::new(500);
        let mut pins: Vec<(u64, PinGuard<'_>)> = Vec::new();
        let mut rng = 0x1234_5678_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for step in 0..2000 {
            let key = next() % 16;
            match next() % 5 {
                0 | 1 => {
                    let bytes = (next() % 200) as usize + 1;
                    match budget.charge("p", key, bytes) {
                        Ok(evicted) => {
                            for rec in &evicted {
                                assert!(
                                    pins.iter().all(|(k, _)| *k != rec.key),
                                    "step {step}: pinned key {} evicted",
                                    rec.key
                                );
                            }
                        }
                        Err(BudgetError::Exhausted { .. }) => {}
                    }
                }
                2 => {
                    if let Some(guard) = budget.pin("p", key) {
                        pins.push((key, guard));
                    }
                }
                3 => {
                    if !pins.is_empty() {
                        let i = (next() as usize) % pins.len();
                        pins.remove(i);
                    }
                }
                _ => {
                    budget.touch("p", key);
                }
            }
            assert!(
                budget.used() <= 500,
                "step {step}: used {} exceeds the budget",
                budget.used()
            );
        }
    }
}
