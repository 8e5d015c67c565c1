//! Millibottleneck injection for real threads.
//!
//! A [`StallGate`] is a shared flag with a condvar: while raised, every
//! worker that reaches [`StallGate::wait_if_stalled`] blocks. Raising the
//! gate for 200 ms is the live equivalent of a 200 ms CPU millibottleneck —
//! the tier stops serving while its queues keep filling.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug, Default)]
struct Inner {
    stalled: Mutex<bool>,
    cv: Condvar,
}

/// A cloneable stall switch shared between an injector and tier workers.
#[derive(Debug, Clone, Default)]
pub struct StallGate {
    inner: Arc<Inner>,
}

impl StallGate {
    /// A new, open gate.
    pub fn new() -> Self {
        StallGate::default()
    }

    /// Blocks the calling worker while the gate is raised.
    pub fn wait_if_stalled(&self) {
        let stalled = self.stalled();
        let _open = self
            .inner
            .cv
            .wait_while(stalled, |stalled| *stalled)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Raises the gate.
    pub fn begin(&self) {
        *self.stalled() = true;
    }

    /// Lowers the gate and releases all waiting workers.
    pub fn end(&self) {
        *self.stalled() = false;
        self.inner.cv.notify_all();
    }

    /// The flag's guard. A poisoned lock is recovered: the flag is a plain
    /// `bool`, never left half-written.
    fn stalled(&self) -> MutexGuard<'_, bool> {
        self.inner
            .stalled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn open_gate_does_not_block() {
        let g = StallGate::new();
        let t0 = Instant::now();
        g.wait_if_stalled();
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn raised_gate_blocks_until_lowered() {
        let g = StallGate::new();
        g.begin();
        let g2 = g.clone();
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let h = std::thread::spawn(move || {
            g2.wait_if_stalled();
            released2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            !released.load(Ordering::SeqCst),
            "worker escaped a raised gate"
        );
        g.end();
        h.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
    }
}
