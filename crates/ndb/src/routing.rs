//! AZ-aware proximity ordering and transaction-coordinator selection —
//! the paper's §IV-A4 (datanode ordering) and §IV-A5 (the four TC-selection
//! cases).

use crate::partition::PartitionMap;
use crate::schema::{PartitionKey, TableId};
use crate::view::ClusterView;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use simnet::{AzId, Location};

/// Proximity score between a caller and a datanode, in ascending order of
/// expected latency (§IV-A4):
///
/// 0. same host (and hence same AZ);
/// 1. different hosts, same AZ (requires both sides to have a
///    `LocationDomainId`);
/// 2. different hosts, different AZs.
///
/// Without AZ awareness on either side, everything off-host scores 2 — the
/// original NDB behaviour, which only distinguishes co-located processes.
pub fn proximity_score(
    caller: Location,
    caller_domain: Option<AzId>,
    node: Location,
    node_domain: Option<AzId>,
) -> u8 {
    if caller.host == node.host {
        0
    } else {
        match (caller_domain, node_domain) {
            (Some(a), Some(b)) if a == b => 1,
            _ => 2,
        }
    }
}

/// Which of the paper's four TC-selection cases applied (for tests and the
/// ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcCase {
    /// Case 1: table is Read Backup enabled — local replica (primary or backup).
    ReadBackup,
    /// Case 2: table is fully replicated — any node, by proximity.
    FullyReplicated,
    /// Case 3: default — a replica by partition key; backup reads reroute to
    /// the primary.
    Default,
    /// Case 4: no partition-key hint — any node, by proximity.
    NoHint,
}

/// Selects the transaction coordinator datanode for a new transaction.
///
/// `hint` is the distribution-awareness hint (table + partition key) HopsFS
/// supplies when it starts a transaction. `alive` is the caller's current
/// liveness estimate per datanode index. Returns the chosen datanode index
/// and the selection case, or `None` if no datanode is believed alive.
///
/// With `caller_domain = None` (vanilla deployment), selection degrades to
/// classic distribution-aware transactions: the primary replica for the hint,
/// or a uniformly random node without one.
///
/// `pmap` is the caller's current partition map — under online node-group
/// reconfiguration clients route against the epoch they have adopted, so the
/// map is passed explicitly rather than read from the (static) cluster view.
/// Hintless and fallback selection only considers datanodes active under the
/// map: spares own no data and refuse coordination.
pub fn select_tc(
    view: &ClusterView,
    pmap: &PartitionMap,
    caller: Location,
    caller_domain: Option<AzId>,
    hint: Option<(TableId, PartitionKey)>,
    alive: &[bool],
    rng: &mut StdRng,
) -> Option<(usize, TcCase)> {
    let active_len = pmap.active_len().min(view.datanode_count());
    let any_alive = alive.iter().take(active_len).any(|&a| a);
    if !any_alive {
        return None;
    }
    let score = |i: usize| proximity_score(caller, caller_domain, view.location_of(i), view.domain_of(i));
    let live = |i: &usize| alive[*i];

    match hint {
        Some((table, pk)) => {
            let options = view.schema.table(table).options;
            let pid = pmap.partition_of(pk);
            let candidates = pmap.read_replicas(pid, options, alive);
            if candidates.is_empty() {
                // Case 4 fallback: no (alive) nodes for this partition key.
                return nearest((0..active_len).filter(live), score, rng).map(|i| (i, TcCase::NoHint));
            }
            if caller_domain.is_none() {
                // Vanilla DAT: primary replica of the partition.
                return Some((candidates[0], TcCase::Default));
            }
            if options.fully_replicated {
                return nearest((0..active_len).filter(live), score, rng)
                    .map(|i| (i, TcCase::FullyReplicated));
            }
            let case = if options.read_backup { TcCase::ReadBackup } else { TcCase::Default };
            nearest(candidates.iter().copied().filter(live), score, rng).map(|i| (i, case))
        }
        None => {
            if caller_domain.is_none() {
                // Vanilla: uniformly random alive (active) datanode.
                let aliveset: Vec<usize> = (0..active_len).filter(|&i| alive[i]).collect();
                let pick = aliveset[rng.gen_range(0..aliveset.len())];
                return Some((pick, TcCase::NoHint));
            }
            nearest((0..active_len).filter(live), score, rng).map(|i| (i, TcCase::NoHint))
        }
    }
}

/// Uniformly picks one of the lowest-scoring candidates (load balance among
/// equally close nodes) with a single `next_u64() % ties` draw, or `None`
/// without candidates.
fn nearest(
    candidates: impl Iterator<Item = usize> + Clone,
    score: impl Fn(usize) -> u8,
    rng: &mut StdRng,
) -> Option<usize> {
    let best = candidates.clone().map(&score).min()?;
    let mut ties = candidates.filter(|&i| score(i) == best);
    let n = ties.clone().count() as u64;
    ties.nth((rng.next_u64() % n) as usize)
}

/// Chooses the replica that should serve a read-committed read, given the
/// coordinator's position (§IV-A5 read routing):
///
/// - Read Backup or fully replicated tables: the candidate closest to the
///   coordinator (primary or backup — this is what makes reads AZ-local and
///   produces Figure 14's balanced per-replica read counts);
/// - default tables: always the (effective) primary, `candidates[0]`.
pub fn route_read(
    view: &ClusterView,
    tc_idx: usize,
    candidates: &[usize],
    read_backup_or_fr: bool,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    if !read_backup_or_fr {
        return Some(candidates[0]);
    }
    let me = view.location_of(tc_idx);
    let my_domain = view.domain_of(tc_idx);
    candidates
        .iter()
        .copied()
        .min_by_key(|&i| {
            (
                proximity_score(me, my_domain, view.location_of(i), view.domain_of(i)),
                // Tie-break on replica order for determinism.
                candidates.iter().position(|&c| c == i).unwrap_or(usize::MAX),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::deploy;
    use crate::schema::{Schema, TableOptions};
    use rand::SeedableRng;
    use simnet::Simulation;

    fn view_3az(read_backup: bool, fully_replicated: bool) -> std::sync::Arc<ClusterView> {
        let mut schema = Schema::new();
        schema.add_table("t", TableOptions { read_backup, fully_replicated });
        let cfg = ClusterConfig::az_aware(6, 3, &[AzId(0), AzId(1), AzId(2)]);
        let mut sim = Simulation::new(1);
        deploy::build_cluster(&mut sim, cfg, schema, &[AzId(0), AzId(1), AzId(2)]).view
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn proximity_orders_host_az_region() {
        let here = Location::new(0, 1);
        assert_eq!(proximity_score(here, Some(AzId(0)), Location::new(0, 1), Some(AzId(0))), 0);
        assert_eq!(proximity_score(here, Some(AzId(0)), Location::new(0, 2), Some(AzId(0))), 1);
        assert_eq!(proximity_score(here, Some(AzId(0)), Location::new(1, 3), Some(AzId(1))), 2);
    }

    #[test]
    fn proximity_without_domains_only_sees_hosts() {
        let here = Location::new(0, 1);
        assert_eq!(proximity_score(here, None, Location::new(0, 1), None), 0);
        // Same AZ physically, but invisible without LocationDomainId.
        assert_eq!(proximity_score(here, None, Location::new(0, 2), None), 2);
    }

    #[test]
    fn case1_read_backup_prefers_local_replica() {
        let view = view_3az(true, false);
        let alive = vec![true; 6];
        let table = TableId(0);
        for az in 0..3u8 {
            let caller = Location::new(az, 100);
            for pk in 0..32u64 {
                let (idx, case) = select_tc(
                    &view,
                    &view.pmap,
                    caller,
                    Some(AzId(az)),
                    Some((table, PartitionKey(pk))),
                    &alive,
                    &mut rng(),
                )
                .unwrap();
                assert_eq!(case, TcCase::ReadBackup);
                assert_eq!(view.domain_of(idx), Some(AzId(az)), "pk={pk} az={az} idx={idx}");
                // And the chosen node is a replica of the partition.
                let pid = view.pmap.partition_of(PartitionKey(pk));
                assert!(view.pmap.replicas(pid).contains(&idx));
            }
        }
    }

    #[test]
    fn case2_fully_replicated_uses_any_local_node() {
        let view = view_3az(false, true);
        let alive = vec![true; 6];
        let caller = Location::new(2, 100);
        let (idx, case) = select_tc(
            &view,
            &view.pmap,
            caller,
            Some(AzId(2)),
            Some((TableId(0), PartitionKey(5))),
            &alive,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(case, TcCase::FullyReplicated);
        assert_eq!(view.domain_of(idx), Some(AzId(2)));
    }

    #[test]
    fn case3_default_selects_az_local_replica() {
        let view = view_3az(false, false);
        let alive = vec![true; 6];
        let caller = Location::new(1, 100);
        let (idx, case) = select_tc(
            &view,
            &view.pmap,
            caller,
            Some(AzId(1)),
            Some((TableId(0), PartitionKey(3))),
            &alive,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(case, TcCase::Default);
        assert_eq!(view.domain_of(idx), Some(AzId(1)));
    }

    #[test]
    fn case4_no_hint_picks_by_proximity() {
        let view = view_3az(false, false);
        let alive = vec![true; 6];
        let caller = Location::new(0, 100);
        let (idx, case) =
            select_tc(&view, &view.pmap, caller, Some(AzId(0)), None, &alive, &mut rng()).unwrap();
        assert_eq!(case, TcCase::NoHint);
        assert_eq!(view.domain_of(idx), Some(AzId(0)));
    }

    #[test]
    fn vanilla_hint_goes_to_primary() {
        let view = view_3az(false, false);
        let alive = vec![true; 6];
        let caller = Location::new(0, 100);
        let pk = PartitionKey(11);
        let (idx, _) = select_tc(
            &view,
            &view.pmap,
            caller,
            None,
            Some((TableId(0), pk)),
            &alive,
            &mut rng(),
        )
        .unwrap();
        let pid = view.pmap.partition_of(pk);
        assert_eq!(idx, view.pmap.replicas(pid)[0], "vanilla DAT picks the primary");
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let view = view_3az(true, false);
        let mut alive = vec![true; 6];
        let caller = Location::new(0, 100);
        let pk = PartitionKey(7);
        let pid = view.pmap.partition_of(pk);
        // Kill the AZ-0 replica of this partition; selection must pick another.
        let local = view
            .pmap
            .replicas(pid)
            .into_iter()
            .find(|&i| view.domain_of(i) == Some(AzId(0)))
            .unwrap();
        alive[local] = false;
        let (idx, _) = select_tc(
            &view,
            &view.pmap,
            caller,
            Some(AzId(0)),
            Some((TableId(0), pk)),
            &alive,
            &mut rng(),
        )
        .unwrap();
        assert_ne!(idx, local);
        assert!(alive[idx]);
    }

    #[test]
    fn all_dead_returns_none() {
        let view = view_3az(true, false);
        let alive = vec![false; 6];
        assert!(select_tc(
            &view,
            &view.pmap,
            Location::new(0, 100),
            Some(AzId(0)),
            None,
            &alive,
            &mut rng()
        )
        .is_none());
    }

    #[test]
    fn shrunk_map_never_selects_spares() {
        let view = view_3az(false, false);
        let cfg = ClusterConfig::az_aware(6, 3, &[AzId(0), AzId(1), AzId(2)]);
        let half = crate::partition::PartitionMap::with_groups(&cfg, 1);
        let alive = vec![true; 6];
        let mut r = rng();
        for pk in 0..64u64 {
            let (idx, _) = select_tc(
                &view,
                &half,
                Location::new(1, 100),
                Some(AzId(1)),
                Some((TableId(0), PartitionKey(pk))),
                &alive,
                &mut r,
            )
            .unwrap();
            assert!(idx < 3, "spare {idx} selected under 1-group map");
        }
        // Hintless selection is also confined to the active prefix.
        for _ in 0..32 {
            let (idx, _) = select_tc(
                &view,
                &half,
                Location::new(2, 100),
                Some(AzId(2)),
                None,
                &alive,
                &mut r,
            )
            .unwrap();
            assert!(idx < 3, "spare {idx} selected under 1-group map");
        }
        // And if only spares are alive, selection reports no candidates.
        let mut dead_active = vec![false; 6];
        dead_active[3] = true;
        dead_active[4] = true;
        dead_active[5] = true;
        assert!(select_tc(
            &view,
            &half,
            Location::new(0, 100),
            Some(AzId(0)),
            None,
            &dead_active,
            &mut r
        )
        .is_none());
    }

    #[test]
    fn route_read_default_table_hits_primary() {
        let view = view_3az(false, false);
        let candidates = vec![3, 4, 5];
        assert_eq!(route_read(&view, 0, &candidates, false), Some(3));
    }

    #[test]
    fn route_read_read_backup_prefers_tc_local() {
        let view = view_3az(true, false);
        // Candidates spanning all AZs; TC at index 1 (az1).
        let candidates = vec![0, 1, 2];
        let tc = 1;
        let chosen = route_read(&view, tc, &candidates, true).unwrap();
        assert_eq!(view.domain_of(chosen), view.domain_of(tc));
    }
}
