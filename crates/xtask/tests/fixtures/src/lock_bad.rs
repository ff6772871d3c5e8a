//! Known-bad lock-discipline fixture: re-acquisition and caller-supplied
//! callbacks run under the guard, also inside an `if let` block.

impl Cache {
    fn double_acquire(&self) -> usize {
        let a = self.lock_entries();
        let b = self.lock_entries();
        a.len() + b.len()
    }

    fn callback_under_guard(&self, refresh: impl Fn(usize) -> usize) -> usize {
        let entries = self.lock_entries();
        refresh(entries.len())
    }

    fn callback_inside_if_let(&self, key: usize, refresh: impl Fn(usize) -> usize) -> usize {
        if let Some(&hit) = self.lock_entries().get(&key) {
            return refresh(hit);
        }
        0
    }
}
