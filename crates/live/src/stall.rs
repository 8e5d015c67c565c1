//! Millibottleneck injection for real threads.
//!
//! A [`StallGate`] is a shared flag with a condvar: while raised, every
//! worker that reaches [`StallGate::wait_if_stalled`] blocks. Raising the
//! gate for 200 ms is the live equivalent of a 200 ms CPU millibottleneck —
//! the tier stops serving while its queues keep filling.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

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
        let mut stalled = self.inner.stalled.lock();
        while *stalled {
            self.inner.cv.wait(&mut stalled);
        }
    }

    /// Raises the gate.
    pub fn begin(&self) {
        *self.inner.stalled.lock() = true;
    }

    /// Lowers the gate and releases all waiting workers.
    pub fn end(&self) {
        *self.inner.stalled.lock() = false;
        self.inner.cv.notify_all();
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
