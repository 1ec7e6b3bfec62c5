//! Per-shard locks with contention accounting.
//!
//! Each routed wake gate owns one of these. The lock is what a parked
//! waiter takes to join or leave its gate's queue (the *claim* step)
//! and what a relay's wake delivery takes to unpark a bucket.
//!
//! Contention is counted rather than timed: an acquisition that could
//! not take the lock on the first try bumps `contended`, giving tests
//! and diagnostics a cheap probe-interference signal without clock
//! reads on the fast path.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

/// A shard-scoped mutex that counts contended acquisitions.
#[derive(Debug)]
pub(crate) struct ShardLock<T> {
    inner: Mutex<T>,
    contended: AtomicU64,
}

impl<T: Default> Default for ShardLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> ShardLock<T> {
    /// Creates a lock protecting `value`.
    pub(crate) fn new(value: T) -> Self {
        ShardLock {
            inner: Mutex::new(value),
            contended: AtomicU64::new(0),
        }
    }

    /// Acquires the lock, counting the acquisition as contended when a
    /// first `try_lock` fails.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(guard) = self.inner.try_lock() {
            return guard;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }

    /// How many acquisitions found the lock already held.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn contended_acquires(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_locking_counts_nothing() {
        let lock = ShardLock::new(5u32);
        {
            let mut guard = lock.lock();
            *guard += 1;
        }
        assert_eq!(*lock.lock(), 6);
        assert_eq!(lock.contended_acquires(), 0);
    }

    #[test]
    fn contended_acquisitions_are_counted() {
        let lock = Arc::new(ShardLock::new(0u32));
        let lock2 = Arc::clone(&lock);
        let guard = lock.lock();
        let waiter = std::thread::spawn(move || {
            let mut g = lock2.lock();
            *g += 1;
        });
        // Give the waiter time to hit the held lock.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        waiter.join().unwrap();
        assert_eq!(*lock.lock(), 1);
        assert!(lock.contended_acquires() >= 1);
    }
}
