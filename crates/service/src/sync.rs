//! Poison-recovering lock helpers — the single named escape hatch the ML002
//! panic-path lint accepts for mutex acquisition in request-serving code.
//!
//! Recovery semantics: every mutex-protected structure in this crate (cache
//! shards of both tiers, the client's L1 counters, metric rings, the backend
//! registry, connection-slot counters) is valid at each intermediate point of its critical sections —
//! state is mutated with plain assignments and collection ops that cannot be
//! observed half-applied once the lock is released.  A panic while holding
//! one of these locks therefore leaves consistent state behind, and the
//! right response is to keep serving, not to cascade the poison panic into
//! every subsequent request.  Locks whose critical sections ever gain
//! multi-step invariants must migrate to explicit `LockResult` handling (or
//! a `RankedMutex`, which bakes in the same recovery) instead of using these
//! helpers.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquire `mutex`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_or_poisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Park on `condvar`, recovering the re-acquired guard if a holder panicked
/// while this thread was waiting.
pub(crate) fn wait_or_poisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
