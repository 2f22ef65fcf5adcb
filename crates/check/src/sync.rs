//! Instrumented drop-in replacements for `std::sync` primitives.
//!
//! Each type wraps the real `std` primitive (for data storage and for
//! pass-through use outside a checker execution) plus a *model* state the
//! scheduler controls. Inside a [`crate::check`] execution, every
//! operation is a schedule point and every blocking operation parks the
//! model thread until another thread's operation unblocks it — so the
//! controller, not the OS, decides every interleaving. Outside an
//! execution the types degrade to thin wrappers with `std` semantics, so a
//! crate built with `--cfg ann_check` still runs its ordinary tests.
//!
//! Two invariants make the wrappers safe without `unsafe`:
//!
//! 1. only one model thread executes at a time, so the inner `std` lock is
//!    never contended once the model grants ownership;
//! 2. guard teardown never yields (a schedule point in `Drop` could panic
//!    during an abort unwind); releasing only flips model state and wakes
//!    waiters, and the next instrumented operation returns control.

use crate::runtime::{self, Execution};
use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::{Condvar as StdCondvar, LockResult, Mutex as StdMutex, PoisonError};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MutexModel {
    held: bool,
    waiters: Vec<usize>,
}

/// Instrumented mutual-exclusion lock (`std::sync::Mutex` shape).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    model: StdMutex<MutexModel>,
    inner: StdMutex<T>,
}

/// Guard returned by [`Mutex::lock`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
    modeled: bool,
}

impl<T> Mutex<T> {
    /// New unlocked mutex holding `t`.
    pub fn new(t: T) -> Self {
        Mutex { model: StdMutex::new(MutexModel::default()), inner: StdMutex::new(t) }
    }

    /// Consume the mutex, returning the protected data (`std` shape).
    /// Ownership proves no thread can hold or wait on the lock, so there
    /// is no model state to update.
    ///
    /// # Errors
    /// Propagates `std` poisoning of the protected data, recoverable via
    /// [`PoisonError::into_inner`] exactly like `std`.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

fn model_lock<M>(m: &StdMutex<M>) -> std::sync::MutexGuard<'_, M> {
    // Model state is only mutated between schedule points (never across a
    // panic), so poisoning is unreachable; recover defensively.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire, parking the model thread while another holds the lock.
    ///
    /// # Errors
    /// Propagates `std` poisoning of the protected data (a thread panicked
    /// while holding the guard), with the guard recoverable via
    /// [`PoisonError::into_inner`] exactly like `std`.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let modeled = if let Some((exec, me)) = runtime::current() {
            exec.schedule_point(me);
            loop {
                let mut m = model_lock(&self.model);
                if !m.held {
                    m.held = true;
                    break;
                }
                m.waiters.push(me);
                drop(m);
                exec.block(me, "Mutex::lock");
            }
            true
        } else {
            false
        };
        // Under the model the inner lock is guaranteed free here.
        wrap_guard(self.inner.lock(), |g| MutexGuard { inner: Some(g), lock: self, modeled })
    }
}

fn release_mutex_model(lock_model: &StdMutex<MutexModel>, exec: &Arc<Execution>) {
    let wake = {
        let mut m = model_lock(lock_model);
        m.held = false;
        std::mem::take(&mut m.waiters)
    };
    for w in wake {
        exec.unblock(w);
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.modeled {
            if let Some((exec, _)) = runtime::current() {
                release_mutex_model(&self.lock.model, &exec);
            }
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard accessed after teardown")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard accessed after teardown")
    }
}

/// Map a `std` lock result onto one of our guards, preserving poisoning.
fn wrap_guard<G, O>(res: LockResult<G>, wrap: impl FnOnce(G) -> O) -> LockResult<O> {
    match res {
        Ok(g) => Ok(wrap(g)),
        Err(pe) => Err(PoisonError::new(wrap(pe.into_inner()))),
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct RwModel {
    writer: bool,
    readers: usize,
    waiters: Vec<usize>,
}

/// Instrumented reader-writer lock (`std::sync::RwLock` shape).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    model: StdMutex<RwModel>,
    inner: std::sync::RwLock<T>,
}

/// Guard returned by [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    lock: &'a RwLock<T>,
    modeled: bool,
}

/// Guard returned by [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    lock: &'a RwLock<T>,
    modeled: bool,
}

impl<T> RwLock<T> {
    /// New unlocked lock holding `t`.
    pub fn new(t: T) -> Self {
        RwLock { model: StdMutex::new(RwModel::default()), inner: std::sync::RwLock::new(t) }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared; parks while a writer holds the lock.
    ///
    /// # Errors
    /// Propagates `std` poisoning, recoverable via
    /// [`PoisonError::into_inner`].
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let modeled = if let Some((exec, me)) = runtime::current() {
            exec.schedule_point(me);
            loop {
                let mut m = model_lock(&self.model);
                if !m.writer {
                    m.readers += 1;
                    break;
                }
                m.waiters.push(me);
                drop(m);
                exec.block(me, "RwLock::read");
            }
            true
        } else {
            false
        };
        wrap_guard(self.inner.read(), |g| RwLockReadGuard { inner: Some(g), lock: self, modeled })
    }

    /// Acquire exclusive; parks while any reader or writer holds the lock.
    ///
    /// # Errors
    /// Propagates `std` poisoning, recoverable via
    /// [`PoisonError::into_inner`].
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let modeled = if let Some((exec, me)) = runtime::current() {
            exec.schedule_point(me);
            loop {
                let mut m = model_lock(&self.model);
                if !m.writer && m.readers == 0 {
                    m.writer = true;
                    break;
                }
                m.waiters.push(me);
                drop(m);
                exec.block(me, "RwLock::write");
            }
            true
        } else {
            false
        };
        wrap_guard(self.inner.write(), |g| RwLockWriteGuard { inner: Some(g), lock: self, modeled })
    }
}

fn release_rw_model(lock_model: &StdMutex<RwModel>, exec: &Arc<Execution>, write: bool) {
    let wake = {
        let mut m = model_lock(lock_model);
        if write {
            m.writer = false;
        } else {
            m.readers = m.readers.saturating_sub(1);
        }
        std::mem::take(&mut m.waiters)
    };
    for w in wake {
        exec.unblock(w);
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.modeled {
            if let Some((exec, _)) = runtime::current() {
                release_rw_model(&self.lock.model, &exec, false);
            }
        }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.modeled {
            if let Some((exec, _)) = runtime::current() {
                release_rw_model(&self.lock.model, &exec, true);
            }
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard accessed after teardown")
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard accessed after teardown")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard accessed after teardown")
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CvModel {
    /// Parked model threads, FIFO; a notify that finds this empty is a
    /// no-op — exactly the semantics that makes lost wakeups reachable for
    /// the scheduler to find.
    waiters: VecDeque<usize>,
}

/// Instrumented condition variable (`std::sync::Condvar` shape).
#[derive(Debug, Default)]
pub struct Condvar {
    model: StdMutex<CvModel>,
    inner: StdCondvar,
}

impl Condvar {
    /// New condvar with no waiters.
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Atomically release `guard`'s mutex and park until notified, then
    /// reacquire. As with `std`, callers must re-check their predicate in a
    /// loop (the sync-hygiene lint enforces it in ported modules).
    ///
    /// # Errors
    /// Propagates `std` poisoning of the reacquired mutex.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if let Some((exec, me)) = runtime::current() {
            let lock = guard.lock;
            // Register before releasing: in the model, a notify can only run
            // after this thread yields, so the handoff itself is race-free —
            // every *protocol*-level lost wakeup (notify before wait) is
            // still fully explorable by schedule choice.
            model_lock(&self.model).waiters.push_back(me);
            drop(guard); // releases model + inner mutex, no yield
            exec.block(me, "Condvar::wait");
            lock.lock()
        } else {
            let lock = guard.lock;
            let mut g = guard;
            let std_guard = g.inner.take().expect("guard accessed after teardown");
            drop(g); // defused: inner already taken, not modeled
            wrap_guard(self.inner.wait(std_guard), |sg| MutexGuard {
                inner: Some(sg),
                lock,
                modeled: false,
            })
        }
    }

    /// [`Condvar::wait`] in a predicate loop — the hygienic form.
    ///
    /// # Errors
    /// Propagates `std` poisoning of the reacquired mutex.
    pub fn wait_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: F,
    ) -> LockResult<MutexGuard<'a, T>>
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut guard) {
            guard = self.wait(guard)?;
        }
        Ok(guard)
    }

    /// Wake one parked waiter (no-op when none is parked).
    pub fn notify_one(&self) {
        if let Some((exec, me)) = runtime::current() {
            exec.schedule_point(me);
            let woken = model_lock(&self.model).waiters.pop_front();
            if let Some(w) = woken {
                exec.unblock(w);
            }
        } else {
            self.inner.notify_one();
        }
    }

    /// Wake every parked waiter.
    pub fn notify_all(&self) {
        if let Some((exec, me)) = runtime::current() {
            exec.schedule_point(me);
            let woken: Vec<usize> = model_lock(&self.model).waiters.drain(..).collect();
            for w in woken {
                exec.unblock(w);
            }
        } else {
            self.inner.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// mpsc channels
// ---------------------------------------------------------------------------

/// Instrumented `std::sync::mpsc` subset: `channel`, `sync_channel`, and
/// the blocking/non-blocking send/recv surface the serving stack uses. The
/// error types are re-used from `std` so call sites match unchanged.
pub mod mpsc {
    use super::{model_lock, runtime, Arc, StdCondvar, StdMutex, VecDeque};
    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError, TrySendError};

    #[derive(Debug)]
    struct ChanState<T> {
        q: VecDeque<T>,
        /// `None` for unbounded channels.
        cap: Option<usize>,
        senders: usize,
        rx_alive: bool,
        recv_waiters: Vec<usize>,
        send_waiters: Vec<usize>,
    }

    #[derive(Debug)]
    struct Shared<T> {
        st: StdMutex<ChanState<T>>,
        cv: StdCondvar,
    }

    impl<T> Shared<T> {
        fn new(cap: Option<usize>) -> Arc<Self> {
            Arc::new(Shared {
                st: StdMutex::new(ChanState {
                    q: VecDeque::new(),
                    cap,
                    senders: 1,
                    rx_alive: true,
                    recv_waiters: Vec::new(),
                    send_waiters: Vec::new(),
                }),
                cv: StdCondvar::new(),
            })
        }

        fn wake(&self, exec: &Arc<runtime::Execution>, waiters: Vec<usize>) {
            for w in waiters {
                exec.unblock(w);
            }
        }
    }

    /// Sending half of an unbounded channel.
    #[derive(Debug)]
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Sending half of a bounded channel.
    #[derive(Debug)]
    pub struct SyncSender<T>(Arc<Shared<T>>);

    /// Receiving half of either channel flavor.
    #[derive(Debug)]
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Unbounded FIFO channel, like `std::sync::mpsc::channel`.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let sh = Shared::new(None);
        (Sender(Arc::clone(&sh)), Receiver(sh))
    }

    /// Bounded FIFO channel, like `std::sync::mpsc::sync_channel`.
    /// Capacity 0 (rendezvous) is modeled as capacity 1.
    pub fn sync_channel<T>(cap: usize) -> (SyncSender<T>, Receiver<T>) {
        let sh = Shared::new(Some(cap.max(1)));
        (SyncSender(Arc::clone(&sh)), Receiver(sh))
    }

    fn clone_half<T>(sh: &Arc<Shared<T>>) -> Arc<Shared<T>> {
        model_lock(&sh.st).senders += 1;
        Arc::clone(sh)
    }

    fn drop_sender<T>(sh: &Arc<Shared<T>>) {
        let (last, wake) = {
            let mut st = model_lock(&sh.st);
            st.senders = st.senders.saturating_sub(1);
            let last = st.senders == 0;
            let wake = if last { std::mem::take(&mut st.recv_waiters) } else { Vec::new() };
            (last, wake)
        };
        if last {
            if let Some((exec, _)) = runtime::current() {
                sh.wake(&exec, wake);
            }
            sh.cv.notify_all();
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(clone_half(&self.0))
        }
    }

    impl<T> Clone for SyncSender<T> {
        fn clone(&self) -> Self {
            SyncSender(clone_half(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            drop_sender(&self.0);
        }
    }

    impl<T> Drop for SyncSender<T> {
        fn drop(&mut self) {
            drop_sender(&self.0);
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let wake = {
                let mut st = model_lock(&self.0.st);
                st.rx_alive = false;
                st.q.clear();
                std::mem::take(&mut st.send_waiters)
            };
            if let Some((exec, _)) = runtime::current() {
                self.0.wake(&exec, wake);
            }
            self.0.cv.notify_all();
        }
    }

    impl<T> Sender<T> {
        /// Enqueue `t` (never blocks: unbounded).
        ///
        /// # Errors
        /// `SendError(t)` when the receiver is gone.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            if let Some((exec, me)) = runtime::current() {
                exec.schedule_point(me);
                let wake = {
                    let mut st = model_lock(&self.0.st);
                    if !st.rx_alive {
                        return Err(SendError(t));
                    }
                    st.q.push_back(t);
                    std::mem::take(&mut st.recv_waiters)
                };
                self.0.wake(&exec, wake);
            } else {
                let mut st = model_lock(&self.0.st);
                if !st.rx_alive {
                    return Err(SendError(t));
                }
                st.q.push_back(t);
                drop(st);
                self.0.cv.notify_all();
            }
            Ok(())
        }
    }

    impl<T> SyncSender<T> {
        /// Enqueue `t`, parking while the queue is full.
        ///
        /// # Errors
        /// `SendError(t)` when the receiver is gone.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            let mut item = Some(t);
            if let Some((exec, me)) = runtime::current() {
                loop {
                    exec.schedule_point(me);
                    let mut st = model_lock(&self.0.st);
                    if !st.rx_alive {
                        return Err(SendError(item.take().expect("send item present")));
                    }
                    if st.cap.is_none_or(|c| st.q.len() < c) {
                        st.q.push_back(item.take().expect("send item present"));
                        let wake = std::mem::take(&mut st.recv_waiters);
                        drop(st);
                        self.0.wake(&exec, wake);
                        return Ok(());
                    }
                    st.send_waiters.push(me);
                    drop(st);
                    exec.block(me, "mpsc::SyncSender::send (queue full)");
                }
            }
            let mut st = model_lock(&self.0.st);
            loop {
                if !st.rx_alive {
                    return Err(SendError(item.take().expect("send item present")));
                }
                if st.cap.is_none_or(|c| st.q.len() < c) {
                    st.q.push_back(item.take().expect("send item present"));
                    drop(st);
                    self.0.cv.notify_all();
                    return Ok(());
                }
                st = self.0.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }

        /// Enqueue `t` without blocking.
        ///
        /// # Errors
        /// `TrySendError::Full(t)` on a full queue, `Disconnected(t)` when
        /// the receiver is gone.
        pub fn try_send(&self, t: T) -> Result<(), TrySendError<T>> {
            let ctx = runtime::current();
            if let Some((exec, me)) = &ctx {
                exec.schedule_point(*me);
            }
            let wake = {
                let mut st = model_lock(&self.0.st);
                if !st.rx_alive {
                    return Err(TrySendError::Disconnected(t));
                }
                if st.cap.is_some_and(|c| st.q.len() >= c) {
                    return Err(TrySendError::Full(t));
                }
                st.q.push_back(t);
                std::mem::take(&mut st.recv_waiters)
            };
            if let Some((exec, _)) = &ctx {
                self.0.wake(exec, wake);
            }
            self.0.cv.notify_all();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue, parking while the queue is empty and senders remain.
        ///
        /// # Errors
        /// `RecvError` once the queue is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            if let Some((exec, me)) = runtime::current() {
                loop {
                    exec.schedule_point(me);
                    let mut st = model_lock(&self.0.st);
                    if let Some(v) = st.q.pop_front() {
                        let wake = std::mem::take(&mut st.send_waiters);
                        drop(st);
                        self.0.wake(&exec, wake);
                        return Ok(v);
                    }
                    if st.senders == 0 {
                        return Err(RecvError);
                    }
                    st.recv_waiters.push(me);
                    drop(st);
                    exec.block(me, "mpsc::Receiver::recv (queue empty)");
                }
            }
            let mut st = model_lock(&self.0.st);
            loop {
                if let Some(v) = st.q.pop_front() {
                    drop(st);
                    self.0.cv.notify_all();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }

        /// Dequeue without blocking.
        ///
        /// # Errors
        /// `TryRecvError::Empty` on an empty queue with live senders,
        /// `Disconnected` once empty with every sender gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let ctx = runtime::current();
            if let Some((exec, me)) = &ctx {
                exec.schedule_point(*me);
            }
            let (v, wake) = {
                let mut st = model_lock(&self.0.st);
                match st.q.pop_front() {
                    Some(v) => (v, std::mem::take(&mut st.send_waiters)),
                    None if st.senders == 0 => return Err(TryRecvError::Disconnected),
                    None => return Err(TryRecvError::Empty),
                }
            };
            if let Some((exec, _)) = &ctx {
                self.0.wake(exec, wake);
            }
            self.0.cv.notify_all();
            Ok(v)
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics: every access is a schedule point, so the checker
/// can interleave threads *between* an atomic read and the decision made on
/// it — the window torn-read/double-publish bugs live in. Values delegate
/// to the real `std` atomic with the caller's ordering.
pub mod atomic {
    use super::runtime;
    pub use std::sync::atomic::Ordering;

    fn point() {
        if let Some((exec, me)) = runtime::current() {
            exec.schedule_point(me);
        }
    }

    macro_rules! model_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// New atomic holding `v`.
                pub const fn new(v: $prim) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                /// Load with `order` (a schedule point under the checker).
                pub fn load(&self, order: Ordering) -> $prim {
                    point();
                    self.inner.load(order)
                }

                /// Store with `order` (a schedule point under the checker).
                pub fn store(&self, v: $prim, order: Ordering) {
                    point();
                    self.inner.store(v, order);
                }

                /// Swap, returning the previous value.
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    point();
                    self.inner.swap(v, order)
                }

                /// Compare-exchange with `std` semantics.
                ///
                /// # Errors
                /// The actual value when it differed from `current`.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    point();
                    self.inner.compare_exchange(current, new, success, failure)
                }

                /// Compare-and-swap allowed to fail spuriously, like `std`'s.
                /// Implemented as the strong exchange (a weak CAS that never
                /// fails spuriously is a valid one), so schedules stay
                /// reproducible.
                ///
                /// # Errors
                /// The actual value when it differed from `current`.
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(current, new, success, failure)
                }

                /// Fetch-update loop with `std` semantics.
                ///
                /// # Errors
                /// The current value when `f` returned `None`.
                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: F,
                ) -> Result<$prim, $prim>
                where
                    F: FnMut($prim) -> Option<$prim>,
                {
                    point();
                    self.inner.fetch_update(set_order, fetch_order, f)
                }
            }
        };
    }

    model_atomic!(
        /// Instrumented `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    model_atomic!(
        /// Instrumented `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    model_atomic!(
        /// Instrumented `AtomicBool`.
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );

    macro_rules! arith_ops {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Add, returning the previous value.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    point();
                    self.inner.fetch_add(v, order)
                }

                /// Subtract, returning the previous value.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    point();
                    self.inner.fetch_sub(v, order)
                }

                /// Maximum, returning the previous value.
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    point();
                    self.inner.fetch_max(v, order)
                }
            }
        };
    }

    arith_ops!(AtomicU64, u64);
    arith_ops!(AtomicUsize, usize);
}
