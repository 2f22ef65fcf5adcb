//! Thread-safe checkout/checkin pool of [`Scratch`] buffers.
//!
//! Concurrent query serving wants one [`Scratch`] per in-flight search —
//! allocated once, reused forever — without pinning scratch to a fixed set
//! of threads. This pool hands out idle buffers under a mutex held only for
//! the `Vec` push/pop (never during a search), so the steady state of a
//! serving layer does no allocation on any path that executes a query.
//!
//! [`Scratch`] buffers grow on demand inside `traverse` (the visited set
//! resizes to the graph), so a pool created for a small snapshot keeps
//! working as snapshots grow.

use crate::search::Scratch;
use std::sync::Mutex;

/// A pool of reusable [`Scratch`] buffers shared between threads.
#[derive(Debug)]
pub struct ScratchPool {
    idle: Mutex<Vec<Scratch>>,
    nodes_hint: usize,
}

impl ScratchPool {
    /// Pool whose fresh buffers are sized for graphs of `nodes_hint` nodes.
    pub fn new(nodes_hint: usize) -> Self {
        ScratchPool { idle: Mutex::new(Vec::new()), nodes_hint }
    }

    /// Pool pre-filled with `n` buffers (avoids first-use allocation spikes).
    pub fn with_buffers(nodes_hint: usize, n: usize) -> Self {
        let pool = Self::new(nodes_hint);
        {
            let mut idle = pool.idle.lock().expect("scratch pool lock");
            idle.extend((0..n).map(|_| Scratch::new(nodes_hint)));
        }
        pool
    }

    /// Take an idle buffer, or allocate a fresh one if none are idle.
    pub fn checkout(&self) -> Scratch {
        let recycled = self.idle.lock().expect("scratch pool lock").pop();
        recycled.unwrap_or_else(|| Scratch::new(self.nodes_hint))
    }

    /// Return a buffer for reuse.
    pub fn checkin(&self, scratch: Scratch) {
        self.idle.lock().expect("scratch pool lock").push(scratch);
    }

    /// Run `f` with a pooled buffer, returning it afterwards even if `f`
    /// panics is *not* guaranteed — a panicking search loses its buffer,
    /// which is safe (the pool just allocates a replacement later).
    pub fn with<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let mut scratch = self.checkout();
        let out = f(&mut scratch);
        self.checkin(scratch);
        out
    }

    /// Number of currently idle buffers.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("scratch pool lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn checkout_recycles() {
        let pool = ScratchPool::with_buffers(100, 2);
        assert_eq!(pool.idle_count(), 2);
        let a = pool.checkout();
        let b = pool.checkout();
        let c = pool.checkout(); // pool empty -> fresh allocation
        assert_eq!(pool.idle_count(), 0);
        pool.checkin(a);
        pool.checkin(b);
        pool.checkin(c);
        assert_eq!(pool.idle_count(), 3);
    }

    #[test]
    fn with_returns_buffer() {
        let pool = ScratchPool::new(10);
        let n = pool.with(|s| {
            s.visited.resize(10);
            s.visited.insert(3);
            7
        });
        assert_eq!(n, 7);
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn concurrent_checkouts_do_not_lose_buffers() {
        let pool = Arc::new(ScratchPool::with_buffers(50, 4));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..200 {
                        pool.with(|scratch| {
                            scratch.visited.resize(50);
                            scratch.visited.insert(1);
                        });
                    }
                });
            }
        });
        // Every checked-out buffer came back; at most 8 live at once.
        assert!(pool.idle_count() >= 4 && pool.idle_count() <= 8);
    }
}
