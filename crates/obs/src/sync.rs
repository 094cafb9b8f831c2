//! The workspace's one lock type.
//!
//! [`Mutex`] is `std::sync::Mutex` with the engine's no-poisoning policy
//! written down once: a panic while a guard is held releases the lock and
//! the next `lock()` succeeds. That is sound here because every structure
//! behind these locks is re-validated by restart recovery, `audit()` or
//! the checker rather than trusted after a panic — and a poisoned engine
//! lock would turn one failed worker into a failure of every thread that
//! shares the database.

use std::sync::{MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held. A previous holder's panic is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value, through exclusive access to the lock itself.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = Mutex::new(0u32);
        let r = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = m.lock();
                *g = 7;
                panic!("holder dies with the guard held");
            })
            .join()
        });
        assert!(r.is_err());
        assert_eq!(*m.lock(), 7, "next lock() sees the holder's last write");
    }
}
