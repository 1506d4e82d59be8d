//! Row-level lock manager used by each datanode's LDM role.
//!
//! NDB uses strict two-phase locking: all locks are acquired as operations
//! execute and released only at commit/abort. Requests are granted in FIFO
//! order (no barging past queued writers), locks are re-entrant per
//! transaction, and a shared lock held solely by the requester upgrades to
//! exclusive in place. Deadlocks are resolved by the coordinator's
//! `TransactionDeadlockDetectionTimeout`, so the manager only needs
//! cancellation, not detection.

use crate::schema::{LockMode, RowKey, TableId};
use simnet::FxHashMap;
use std::collections::VecDeque;
use std::fmt;

/// Globally unique transaction identifier: issuing client plus sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId {
    /// `NodeId` bits of the client that began the transaction.
    pub client: u32,
    /// Client-local sequence number.
    pub seq: u64,
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}.{}", self.client, self.seq)
    }
}

/// A queued lock request waiting for a grant. `token` is an opaque
/// continuation handle meaningful to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiter {
    /// Requesting transaction.
    pub tx: TxId,
    /// Requested mode (Shared or Exclusive).
    pub mode: LockMode,
    /// Caller continuation handle.
    pub token: u64,
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holders. Invariant: either any number of Shared holders, or
    /// exactly one Exclusive holder.
    holders: Vec<(TxId, LockMode)>,
    queue: VecDeque<Waiter>,
}

impl LockState {
    fn holds(&self, tx: TxId) -> Option<LockMode> {
        self.holders.iter().find(|(t, _)| *t == tx).map(|&(_, m)| m)
    }

    fn compatible(&self, tx: TxId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|&(t, m)| t == tx || m == LockMode::Shared),
            LockMode::Exclusive => self.holders.iter().all(|&(t, _)| t == tx),
            LockMode::ReadCommitted => true,
        }
    }
}

/// Outcome of a lock acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held; proceed.
    Granted,
    /// The request was queued; the caller's token comes back via
    /// [`LockManager::release_all`] / [`LockManager::release_row`] grants.
    Queued,
}

/// Per-node row lock table.
///
/// # Examples
///
/// ```
/// use ndb::locks::{LockManager, TxId};
/// use ndb::{LockMode, RowKey, TableId};
///
/// let mut lm = LockManager::default();
/// let t = TableId(0);
/// let key = RowKey::simple(7);
/// let a = TxId { client: 1, seq: 1 };
/// let b = TxId { client: 1, seq: 2 };
///
/// assert!(lm.acquire(a, t, key.clone(), LockMode::Exclusive, 0).is_granted());
/// assert!(!lm.acquire(b, t, key.clone(), LockMode::Shared, 1).is_granted());
/// let granted = lm.release_all(a);
/// assert_eq!(granted.len(), 1);
/// assert_eq!(granted[0].tx, b);
/// ```
#[derive(Debug, Default)]
pub struct LockManager {
    locks: FxHashMap<(TableId, RowKey), LockState>,
    /// Rows each transaction holds or waits on, for O(holdings) release.
    by_tx: FxHashMap<TxId, Vec<(TableId, RowKey)>>,
}

impl Acquire {
    /// Whether the acquisition succeeded immediately.
    pub fn is_granted(self) -> bool {
        matches!(self, Acquire::Granted)
    }
}

impl LockManager {
    /// Attempts to acquire `mode` on a row for `tx`.
    ///
    /// Re-entrant: a transaction already holding an equal-or-stronger lock is
    /// granted immediately; a sole Shared holder upgrades to Exclusive in
    /// place. FIFO otherwise: the request queues behind any earlier waiter.
    ///
    /// # Panics
    ///
    /// Panics if called with [`LockMode::ReadCommitted`], which takes no lock.
    pub fn acquire(&mut self, tx: TxId, table: TableId, key: RowKey, mode: LockMode, token: u64) -> Acquire {
        assert!(mode.is_locking(), "read-committed reads take no lock");
        let state = self.locks.entry((table, key.clone())).or_default();
        match state.holds(tx) {
            Some(LockMode::Exclusive) => return Acquire::Granted,
            Some(LockMode::Shared) if mode == LockMode::Shared => return Acquire::Granted,
            Some(LockMode::Shared) => {
                // Upgrade: allowed only as sole holder and with no queue in front.
                if state.holders.len() == 1 && state.queue.is_empty() {
                    state.holders[0].1 = LockMode::Exclusive;
                    return Acquire::Granted;
                }
                state.queue.push_back(Waiter { tx, mode, token });
                return Acquire::Queued;
            }
            _ => {}
        }
        if state.queue.is_empty() && state.compatible(tx, mode) {
            state.holders.push((tx, mode));
            self.by_tx.entry(tx).or_default().push((table, key));
            Acquire::Granted
        } else {
            state.queue.push_back(Waiter { tx, mode, token });
            self.by_tx.entry(tx).or_default().push((table, key));
            Acquire::Queued
        }
    }

    /// Whether `tx` currently holds a lock on the row.
    pub fn holds(&self, tx: TxId, table: TableId, key: &RowKey) -> Option<LockMode> {
        self.locks.get(&(table, key.clone())).and_then(|s| s.holds(tx))
    }

    fn drain_grants(state: &mut LockState, granted: &mut Vec<Waiter>) {
        while let Some(w) = state.queue.front() {
            let ok = match w.mode {
                LockMode::Shared => state.holders.iter().all(|&(_, m)| m == LockMode::Shared),
                LockMode::Exclusive => {
                    state.holders.is_empty()
                        || (state.holders.len() == 1 && state.holders[0].0 == w.tx)
                }
                LockMode::ReadCommitted => true,
            };
            if !ok {
                break;
            }
            let w = state.queue.pop_front().expect("front checked above");
            // Upgrade-in-place or new grant.
            if let Some(h) = state.holders.iter_mut().find(|(t, _)| *t == w.tx) {
                h.1 = w.mode;
            } else {
                state.holders.push((w.tx, w.mode));
            }
            granted.push(w);
        }
    }

    /// Releases every lock and queued request of `tx`, returning the waiters
    /// that become granted as a result (the caller resumes them).
    pub fn release_all(&mut self, tx: TxId) -> Vec<Waiter> {
        let mut granted = Vec::new();
        let rows = match self.by_tx.remove(&tx) {
            Some(rows) => rows,
            None => return granted,
        };
        for rowref in rows {
            let remove = if let Some(state) = self.locks.get_mut(&rowref) {
                state.holders.retain(|&(t, _)| t != tx);
                state.queue.retain(|w| w.tx != tx);
                Self::drain_grants(state, &mut granted);
                state.holders.is_empty() && state.queue.is_empty()
            } else {
                false
            };
            if remove {
                self.locks.remove(&rowref);
            }
        }
        granted
    }

    /// Releases `tx`'s hold (and any queued request) on a single row,
    /// returning the waiters that become granted. Used by the commit
    /// protocol, which releases row locks at the primary's commit point and
    /// at the backups' `Complete` (§II-B2), not all at once.
    pub fn release_row(&mut self, tx: TxId, table: TableId, key: &RowKey) -> Vec<Waiter> {
        let mut granted = Vec::new();
        let rowref = (table, key.clone());
        let remove = if let Some(state) = self.locks.get_mut(&rowref) {
            state.holders.retain(|&(t, _)| t != tx);
            state.queue.retain(|w| w.tx != tx);
            Self::drain_grants(state, &mut granted);
            state.holders.is_empty() && state.queue.is_empty()
        } else {
            false
        };
        if remove {
            self.locks.remove(&rowref);
        }
        if let Some(rows) = self.by_tx.get_mut(&tx) {
            rows.retain(|r| r != &rowref);
            if rows.is_empty() {
                self.by_tx.remove(&tx);
            }
        }
        granted
    }

    /// Number of rows with any lock state (for tests and introspection).
    pub fn locked_rows(&self) -> usize {
        self.locks.len()
    }

    /// Whether a transaction holds or waits on anything.
    pub fn is_active(&self, tx: TxId) -> bool {
        self.by_tx.contains_key(&tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(n: u64) -> TxId {
        TxId { client: 0, seq: n }
    }
    fn key(n: u64) -> RowKey {
        RowKey::simple(n)
    }
    const T: TableId = TableId(0);

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Shared, 0).is_granted());
        assert!(lm.acquire(tx(2), T, key(1), LockMode::Shared, 0).is_granted());
        assert!(lm.acquire(tx(3), T, key(1), LockMode::Shared, 0).is_granted());
    }

    #[test]
    fn exclusive_excludes() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 0).is_granted());
        assert!(!lm.acquire(tx(2), T, key(1), LockMode::Shared, 1).is_granted());
        assert!(!lm.acquire(tx(3), T, key(1), LockMode::Exclusive, 2).is_granted());
    }

    #[test]
    fn reentrant_grants() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 0).is_granted());
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 0).is_granted());
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Shared, 0).is_granted());
    }

    #[test]
    fn sole_holder_upgrades() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Shared, 0).is_granted());
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 0).is_granted());
        assert_eq!(lm.holds(tx(1), T, &key(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_with_other_holders_queues() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Shared, 0).is_granted());
        assert!(lm.acquire(tx(2), T, key(1), LockMode::Shared, 0).is_granted());
        assert!(!lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 9).is_granted());
        let granted = lm.release_all(tx(2));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].tx, tx(1));
        assert_eq!(granted[0].token, 9);
        assert_eq!(lm.holds(tx(1), T, &key(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn fifo_no_barging() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Shared, 0).is_granted());
        // Writer queues.
        assert!(!lm.acquire(tx(2), T, key(1), LockMode::Exclusive, 0).is_granted());
        // Later reader must not barge past the queued writer.
        assert!(!lm.acquire(tx(3), T, key(1), LockMode::Shared, 0).is_granted());
        let granted = lm.release_all(tx(1));
        // Writer first; reader still behind it.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].tx, tx(2));
        let granted = lm.release_all(tx(2));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].tx, tx(3));
    }

    #[test]
    fn release_grants_multiple_readers() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 0).is_granted());
        assert!(!lm.acquire(tx(2), T, key(1), LockMode::Shared, 0).is_granted());
        assert!(!lm.acquire(tx(3), T, key(1), LockMode::Shared, 0).is_granted());
        let granted = lm.release_all(tx(1));
        assert_eq!(granted.len(), 2);
    }

    #[test]
    fn cancel_via_release_removes_waiters() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 0).is_granted());
        assert!(!lm.acquire(tx(2), T, key(1), LockMode::Exclusive, 0).is_granted());
        // tx2 gives up (timeout): releasing removes its queued request.
        let granted = lm.release_all(tx(2));
        assert!(granted.is_empty());
        let granted = lm.release_all(tx(1));
        assert!(granted.is_empty());
        assert_eq!(lm.locked_rows(), 0);
    }

    #[test]
    fn locks_are_per_row() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(tx(1), T, key(1), LockMode::Exclusive, 0).is_granted());
        assert!(lm.acquire(tx(2), T, key(2), LockMode::Exclusive, 0).is_granted());
        assert!(lm.acquire(tx(3), TableId(1), key(1), LockMode::Exclusive, 0).is_granted());
    }

    #[test]
    #[should_panic(expected = "no lock")]
    fn read_committed_acquire_panics() {
        let mut lm = LockManager::default();
        lm.acquire(tx(1), T, key(1), LockMode::ReadCommitted, 0);
    }
}
