//! Minimal offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex` behind parking_lot's poison-free API: `lock()`
//! returns the guard directly and a poisoned mutex just hands back the inner
//! data (QMC worker panics already abort the run at a higher level).

#![allow(
    clippy::pedantic,
    reason = "vendored stand-in: names, signatures and by-value arguments mirror the external crate"
)]

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(3usize);
        *m.lock() += 4;
        assert_eq!(m.into_inner(), 7);
    }
}
