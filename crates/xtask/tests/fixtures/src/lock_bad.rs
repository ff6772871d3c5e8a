//! Known-bad lock-discipline fixture: re-acquisition and a caller-supplied
//! callback run under the guard.

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
}
