//! Exhaustive-interleaving model checking for the concurrency seams
//! (compiled only under `RUSTFLAGS="--cfg loom"` — the CI loom lane).
//!
//! The container ships no external crates, so instead of the `loom` crate
//! this module vendors the part of its method that applies here: the shared
//! structures under test ([`crate::ShiftCache`], whose factor map sits
//! under one mutex, and `vamor_core::par`) synchronize exclusively through
//! coarse `Mutex`es and monotone atomics, so every observable outcome of a
//! concurrent execution is some *linearization* of the complete API calls —
//! an order-preserving merge of the per-thread operation sequences.
//! Enumerating all such merges and checking the invariants after each one
//! therefore covers the same schedule space loom would explore at lock
//! granularity, deterministically and without instrumented sync primitives.
//! (Operations on one model thread stay in program order; only the
//! cross-thread shuffles vary.)
//!
//! The tests live in `crates/linalg/tests/loom_cache.rs` and
//! `crates/core/tests/loom_par.rs`; run them with
//! `RUSTFLAGS="--cfg loom" cargo test -p vamor-linalg --test loom_cache`.

/// Number of order-preserving merges of sequences with the given lengths
/// (the multinomial coefficient) — the schedule count [`explore`] visits.
pub fn interleaving_count(lens: &[usize]) -> usize {
    let mut count = 1usize;
    let mut placed = 0usize;
    for &len in lens {
        // count *= C(placed + len, len), computed factor-by-factor to stay
        // in integer arithmetic.
        for i in 1..=len {
            count = count * (placed + i) / i;
        }
        placed += len;
    }
    count
}

/// Invokes `run` with every order-preserving merge of the per-thread
/// operation sequences: each schedule is a `(thread, op_index)` list, and
/// ops of one thread always appear in program order.
///
/// The closure receives `(schedule, ops)` where `ops[i]` is
/// `threads[schedule[i].0][schedule[i].1]`. Panics inside `run` carry the
/// offending schedule in the message via [`explore_named`].
pub fn explore<O: Clone>(threads: &[Vec<O>], mut run: impl FnMut(&[(usize, usize)], &[O])) {
    let mut cursors = vec![0usize; threads.len()];
    let mut schedule: Vec<(usize, usize)> = Vec::new();
    let mut ops: Vec<O> = Vec::new();
    explore_rec(threads, &mut cursors, &mut schedule, &mut ops, &mut run);
}

fn explore_rec<O: Clone>(
    threads: &[Vec<O>],
    cursors: &mut [usize],
    schedule: &mut Vec<(usize, usize)>,
    ops: &mut Vec<O>,
    run: &mut impl FnMut(&[(usize, usize)], &[O]),
) {
    let mut advanced = false;
    for t in 0..threads.len() {
        let at = cursors[t];
        if at < threads[t].len() {
            advanced = true;
            cursors[t] += 1;
            schedule.push((t, at));
            ops.push(threads[t][at].clone());
            explore_rec(threads, cursors, schedule, ops, run);
            ops.pop();
            schedule.pop();
            cursors[t] -= 1;
        }
    }
    if !advanced {
        run(schedule, ops);
    }
}

/// [`explore`] with a readable failure report: `check` returns `Err(msg)` to
/// reject a schedule, and the panic message names the schedule that failed
/// so it can be replayed.
pub fn explore_named<O: Clone + std::fmt::Debug>(
    name: &str,
    threads: &[Vec<O>],
    mut check: impl FnMut(&[O]) -> Result<(), String>,
) {
    let mut visited = 0usize;
    explore(threads, |schedule, ops| {
        visited += 1;
        if let Err(msg) = check(ops) {
            // vamor: allow(panic-freedom, reason = "model-checking harness compiled only under --cfg loom: a failing schedule must fail the test, and the panic message carries the replayable schedule")
            panic!("model `{name}` failed on schedule {schedule:?} (ops {ops:?}): {msg}");
        }
    });
    let expected: Vec<usize> = threads.iter().map(Vec::len).collect();
    assert_eq!(
        visited,
        interleaving_count(&expected),
        "model `{name}` did not visit the full schedule space"
    );
}

/// Every subset of `n` indices — the fault-space enumeration used by the
/// panic-conversion model (`loom_par`): each subset marks which tasks panic.
pub fn subsets(n: usize) -> impl Iterator<Item = Vec<usize>> {
    (0usize..(1 << n)).map(move |mask| (0..n).filter(|i| mask >> i & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_enumeration() {
        // (2, 2) → C(4,2) = 6 merges; (2, 2, 2) → 90.
        assert_eq!(interleaving_count(&[2, 2]), 6);
        assert_eq!(interleaving_count(&[2, 2, 2]), 90);
        let mut seen = 0;
        explore(&[vec!['a', 'b'], vec!['x', 'y']], |_, _| seen += 1);
        assert_eq!(seen, 6);
    }

    #[test]
    fn schedules_preserve_program_order() {
        explore(&[vec![0, 1, 2], vec![10, 11]], |schedule, ops| {
            let mut last = [usize::MAX; 2];
            for &(t, i) in schedule {
                assert!(last[t] == usize::MAX || i == last[t] + 1);
                last[t] = i;
            }
            assert_eq!(ops.len(), 5);
        });
    }

    #[test]
    fn subsets_cover_the_power_set() {
        let all: Vec<Vec<usize>> = subsets(3).collect();
        assert_eq!(all.len(), 8);
        assert!(all.contains(&vec![]));
        assert!(all.contains(&vec![0, 1, 2]));
    }
}
