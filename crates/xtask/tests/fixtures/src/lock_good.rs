//! Known-good lock-discipline fixture: statement-scoped temporaries,
//! drop-ended liveness, an `if let` hit path whose guard dies at the close
//! of its block, and callbacks invoked only after release.

impl Cache {
    fn temporaries_do_not_overlap(&self) -> usize {
        let a = self.entries.lock().unwrap_or_else(|e| e.into_inner()).len();
        let b = self.entries.lock().unwrap_or_else(|e| e.into_inner()).len();
        a + b
    }

    fn dropped_before_callback(&self, refresh: impl Fn(usize) -> usize) -> usize {
        let entries = self.lock_entries();
        let n = entries.len();
        drop(entries);
        refresh(n)
    }

    fn if_let_hit_path_then_build(&self, key: usize, build: impl Fn() -> usize) -> usize {
        if let Some(&hit) = self.lock_entries().get(&key) {
            return hit;
        }
        build()
    }
}
