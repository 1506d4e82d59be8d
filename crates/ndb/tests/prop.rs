//! Property-based tests for the NDB building blocks: the lock manager is
//! checked against a reference model, and partition placement invariants are
//! checked over arbitrary cluster shapes.

use ndb::locks::{LockManager, TxId};
use ndb::{ClusterConfig, LockMode, PartitionKey, PartitionMap, RowKey, TableId, TableOptions};
use proptest::prelude::*;
use simnet::{AzId, FxHashMap, FxHashSet};

const T: TableId = TableId(0);

#[derive(Debug, Clone)]
enum LockCmd {
    Acquire { tx: u8, row: u8, exclusive: bool },
    ReleaseAll { tx: u8 },
    ReleaseRow { tx: u8, row: u8 },
}

fn cmd_strategy() -> impl Strategy<Value = LockCmd> {
    prop_oneof![
        (0u8..6, 0u8..4, any::<bool>())
            .prop_map(|(tx, row, exclusive)| LockCmd::Acquire { tx, row, exclusive }),
        (0u8..6).prop_map(|tx| LockCmd::ReleaseAll { tx }),
        (0u8..6, 0u8..4).prop_map(|(tx, row)| LockCmd::ReleaseRow { tx, row }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Safety invariant under arbitrary command sequences: a row never has
    /// an exclusive holder together with any other holder, and every grant
    /// returned by a release was actually waiting.
    #[test]
    fn lock_manager_safety(cmds in proptest::collection::vec(cmd_strategy(), 1..80)) {
        let mut lm = LockManager::default();
        // Model: row -> holders (tx, exclusive).
        let mut holders: FxHashMap<u8, Vec<(u8, bool)>> = FxHashMap::default();
        let mut waiting: FxHashSet<(u8, u8)> = FxHashSet::default(); // (tx, row)
        let key = |row: u8| RowKey::simple(u64::from(row));
        let txid = |tx: u8| TxId { client: 0, seq: u64::from(tx) };

        let check = |holders: &FxHashMap<u8, Vec<(u8, bool)>>| {
            for hs in holders.values() {
                let excl = hs.iter().filter(|&&(_, e)| e).count();
                if excl > 0 {
                    assert_eq!(hs.len(), 1, "exclusive must be sole holder: {hs:?}");
                }
                let txs: FxHashSet<u8> = hs.iter().map(|&(t, _)| t).collect();
                assert_eq!(txs.len(), hs.len(), "duplicate holders: {hs:?}");
            }
        };

        // Grants coming back from releases re-enter the model.
        let apply_grants = |granted: Vec<ndb::locks::Waiter>,
                                holders: &mut FxHashMap<u8, Vec<(u8, bool)>>,
                                waiting: &mut FxHashSet<(u8, u8)>| {
            for w in granted {
                let tx = w.tx.seq as u8;
                let row = w.token as u8; // we pass the row as the token below
                prop_assert!(
                    waiting.remove(&(tx, row)),
                    "grant for a non-waiting request: tx{tx} row{row}"
                );
                let hs = holders.entry(row).or_default();
                hs.retain(|&(t, _)| t != tx);
                hs.push((tx, w.mode == LockMode::Exclusive));
            }
            Ok(())
        };

        for cmd in cmds {
            match cmd {
                LockCmd::Acquire { tx, row, exclusive } => {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let already_waiting = waiting.contains(&(tx, row));
                    if already_waiting {
                        continue; // one outstanding request per (tx,row)
                    }
                    let res = lm.acquire(txid(tx), T, key(row), mode, u64::from(row));
                    if res.is_granted() {
                        let hs = holders.entry(row).or_default();
                        hs.retain(|&(t, _)| t != tx);
                        hs.push((tx, exclusive || hs.iter().any(|&(t, e)| t == tx && e)));
                    } else {
                        waiting.insert((tx, row));
                    }
                }
                LockCmd::ReleaseAll { tx } => {
                    let granted = lm.release_all(txid(tx));
                    for hs in holders.values_mut() {
                        hs.retain(|&(t, _)| t != tx);
                    }
                    waiting.retain(|&(t, _)| t != tx);
                    apply_grants(granted, &mut holders, &mut waiting)?;
                }
                LockCmd::ReleaseRow { tx, row } => {
                    let granted = lm.release_row(txid(tx), T, &key(row));
                    if let Some(hs) = holders.get_mut(&row) {
                        hs.retain(|&(t, _)| t != tx);
                    }
                    waiting.remove(&(tx, row));
                    apply_grants(granted, &mut holders, &mut waiting)?;
                }
            }
            check(&holders);
        }
        // Drain: releasing everything leaves the manager empty.
        for tx in 0..6u8 {
            let granted = lm.release_all(txid(tx));
            waiting.retain(|&(t, _)| t != tx);
            for hs in holders.values_mut() {
                hs.retain(|&(t, _)| t != tx);
            }
            apply_grants(granted, &mut holders, &mut waiting)?;
        }
        prop_assert_eq!(lm.locked_rows(), 0, "manager must drain completely");
    }

    /// Partition placement: replicas are distinct, within one node group,
    /// and span AZs when the cluster is deployed AZ-aware.
    #[test]
    fn partition_placement_invariants(
        groups in 1usize..6,
        r in 1usize..4,
        keys in proptest::collection::vec(any::<u64>(), 1..60),
    ) {
        let azs = [AzId(0), AzId(1), AzId(2)];
        let n = groups * r;
        let cfg = ClusterConfig::az_aware(n, r, &azs);
        let pmap = PartitionMap::new(&cfg);
        for k in keys {
            let pid = pmap.partition_of(PartitionKey(k));
            let reps = pmap.replicas(pid);
            prop_assert_eq!(reps.len(), r);
            // Distinct and in one node group.
            let set: FxHashSet<usize> = reps.iter().copied().collect();
            prop_assert_eq!(set.len(), r);
            let g = pmap.group_of(pid);
            prop_assert!(reps.iter().all(|&i| cfg.node_group_of(i) == g));
            // AZ spread: with r replicas over 3 AZs, replicas cover
            // min(r, 3) distinct AZs.
            let rep_azs: FxHashSet<_> = reps
                .iter()
                .map(|&i| cfg.datanodes[i].location_domain_id.expect("az-aware"))
                .collect();
            prop_assert_eq!(rep_azs.len(), r.min(3));
            // Fully-replicated chain covers every datanode exactly once.
            let fr = pmap.write_chain(
                pid,
                TableOptions { read_backup: false, fully_replicated: true },
                &vec![true; n],
            );
            let fr_set: FxHashSet<usize> = fr.iter().copied().collect();
            prop_assert_eq!(fr_set.len(), n);
        }
    }

    /// Backup promotion: for any failure pattern that leaves at least one
    /// replica alive, `replicas_alive` returns the surviving prefix order
    /// with the original primary first when it survives.
    #[test]
    fn promotion_is_order_preserving(pid in 0u32..24, dead_mask in 0u8..255) {
        let azs = [AzId(0), AzId(1), AzId(2)];
        let cfg = ClusterConfig::az_aware(6, 3, &azs);
        let pmap = PartitionMap::new(&cfg);
        let alive: Vec<bool> = (0..6).map(|i| dead_mask & (1 << i) == 0).collect();
        let pid = ndb::PartitionId(pid % pmap.partition_count() as u32);
        let full = pmap.replicas(pid);
        let survivors = pmap.replicas_alive(pid, &alive);
        // Survivors appear in the same relative order as the full list.
        let expect: Vec<usize> = full.iter().copied().filter(|&i| alive[i]).collect();
        prop_assert_eq!(survivors, expect);
    }
}
