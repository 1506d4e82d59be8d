//! Partition-to-node-group mapping and replica placement.
//!
//! NDB hashes a row's partition key to one of the table's partitions; each
//! partition is owned by one node group and replicated on every datanode of
//! that group, with one member designated primary. Fully-replicated tables
//! instead place a copy of every partition on *all* node groups.

use crate::config::ClusterConfig;
use crate::schema::{PartitionKey, TableOptions};

/// Identifier of a partition within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

/// Pure mapping from partition keys to partitions to datanode indices.
///
/// Datanodes are identified by their index in
/// [`ClusterConfig::datanodes`]; translating to simulation `NodeId`s is the
/// deployment layer's job.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    partitions: usize,
    groups: usize,
    replication: usize,
}

/// splitmix64: spreads sequential application keys (inode ids…) uniformly.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl PartitionMap {
    /// Builds the map for a cluster configuration with every node group
    /// active.
    pub fn new(cfg: &ClusterConfig) -> Self {
        Self::with_groups(cfg, cfg.node_group_count())
    }

    /// Builds the map for a cluster configuration with only the first
    /// `groups` node groups active — the epoch-versioned maps the online
    /// reconfiguration protocol installs. `partition_of` is independent of
    /// the group count (it hashes into a fixed partition space), so two
    /// maps over the same config disagree only on *ownership* of a
    /// partition, never on which partition a key lives in.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or exceeds the provisioned group count.
    pub fn with_groups(cfg: &ClusterConfig, groups: usize) -> Self {
        assert!(
            groups >= 1 && groups <= cfg.node_group_count(),
            "active group count {groups} outside 1..={}",
            cfg.node_group_count()
        );
        PartitionMap {
            partitions: cfg.partitions_per_table(),
            groups,
            replication: cfg.replication_factor,
        }
    }

    /// Number of partitions per table.
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// Number of active node groups in this map.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Number of datanodes that own data under this map (`groups` ×
    /// replication factor); indices at or past this are spares.
    pub fn active_len(&self) -> usize {
        self.groups * self.replication
    }

    /// Partition that stores a partition key.
    pub fn partition_of(&self, pk: PartitionKey) -> PartitionId {
        PartitionId((mix(pk.0) % self.partitions as u64) as u32)
    }

    /// Node group that owns a partition (for non-fully-replicated tables).
    pub fn group_of(&self, pid: PartitionId) -> usize {
        pid.0 as usize % self.groups
    }

    /// Datanode indices replicating a partition, primary first.
    ///
    /// The primary rotates within the node group with the partition id so
    /// primaries spread evenly over group members.
    pub fn replicas(&self, pid: PartitionId) -> Vec<usize> {
        self.replica_iter(pid).collect()
    }

    /// First datanode index of a partition's node group, and the offset of
    /// its primary within the group.
    fn group_base_and_lead(&self, pid: PartitionId) -> (usize, usize) {
        let base = self.group_of(pid) * self.replication;
        let lead = (pid.0 as usize / self.groups) % self.replication;
        (base, lead)
    }

    fn replica_iter(&self, pid: PartitionId) -> impl Iterator<Item = usize> {
        let (base, lead) = self.group_base_and_lead(pid);
        let r = self.replication;
        (0..r).map(move |i| base + (lead + i) % r)
    }

    /// Like [`PartitionMap::replicas`] but with dead nodes removed; the
    /// first surviving replica acts as primary (backup promotion).
    pub fn replicas_alive(&self, pid: PartitionId, alive: &[bool]) -> Vec<usize> {
        self.replica_iter(pid).filter(|&i| alive.get(i).copied().unwrap_or(false)).collect()
    }

    /// The linear-2PC chain for a write to a partition, honoring the
    /// fully-replicated table option: for normal tables it is the owning
    /// group's replicas (primary first); for fully-replicated tables the
    /// chain concatenates every node group's replicas (each group's primary
    /// first), so the write lands on all datanodes.
    pub fn write_chain(&self, pid: PartitionId, options: TableOptions, alive: &[bool]) -> Vec<usize> {
        if options.fully_replicated {
            let lead = pid.0 as usize % self.replication;
            let mut chain = Vec::with_capacity(self.groups * self.replication);
            for g in 0..self.groups {
                let base = g * self.replication;
                for i in 0..self.replication {
                    let idx = base + (lead + i) % self.replication;
                    if alive.get(idx).copied().unwrap_or(false) {
                        chain.push(idx);
                    }
                }
            }
            chain
        } else {
            self.replicas_alive(pid, alive)
        }
    }

    /// Replica candidates for a *read* of a partition, primary first,
    /// honoring the fully-replicated option (any node holds the row).
    pub fn read_replicas(&self, pid: PartitionId, options: TableOptions, alive: &[bool]) -> Vec<usize> {
        self.write_chain(pid, options, alive)
    }

    /// Whether datanode `idx` stores the partition (under the table
    /// options). A fully replicated table lives on every *active* datanode;
    /// spares beyond [`PartitionMap::active_len`] own nothing.
    pub fn stores(&self, idx: usize, pid: PartitionId, options: TableOptions) -> bool {
        if options.fully_replicated {
            idx < self.active_len()
        } else {
            self.replica_rank(idx, pid).is_some()
        }
    }

    /// Rank of a datanode within a partition's replica list (0 = primary in
    /// the failure-free case), or `None` if it does not store the partition.
    pub fn replica_rank(&self, idx: usize, pid: PartitionId) -> Option<u8> {
        let (base, lead) = self.group_base_and_lead(pid);
        let r = self.replication;
        if !(base..base + r).contains(&idx) {
            return None;
        }
        // `replicas` puts `base + (lead + i) % r` at rank `i`; invert it.
        Some(((idx - base + r - lead) % r) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use simnet::AzId;

    fn map(n: usize, r: usize) -> PartitionMap {
        PartitionMap::new(&ClusterConfig::az_aware(n, r, &[AzId(0), AzId(1), AzId(2)]))
    }

    #[test]
    fn partition_hashing_is_stable_and_in_range() {
        let m = map(6, 3);
        for k in 0..1000u64 {
            let p = m.partition_of(PartitionKey(k));
            assert!((p.0 as usize) < m.partition_count());
            assert_eq!(p, m.partition_of(PartitionKey(k)));
        }
    }

    #[test]
    fn partition_hashing_is_roughly_balanced() {
        let m = map(12, 3);
        let mut counts = vec![0usize; m.partition_count()];
        for k in 0..24_000u64 {
            counts[m.partition_of(PartitionKey(k)).0 as usize] += 1;
        }
        let expect = 24_000 / m.partition_count();
        for &c in &counts {
            assert!(c > expect / 2 && c < expect * 2, "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn replicas_stay_within_group() {
        let m = map(6, 3);
        for p in 0..m.partition_count() as u32 {
            let reps = m.replicas(PartitionId(p));
            assert_eq!(reps.len(), 3);
            let group = m.group_of(PartitionId(p));
            for &r in &reps {
                assert_eq!(r / 3, group);
            }
            // Distinct nodes.
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
        }
    }

    #[test]
    fn primaries_rotate_within_group() {
        let m = map(6, 2); // 3 groups, r=2
        let mut lead_counts = vec![0usize; 6];
        for p in 0..m.partition_count() as u32 {
            lead_counts[m.replicas(PartitionId(p))[0]] += 1;
        }
        // Every datanode is primary for some partition.
        assert!(lead_counts.iter().all(|&c| c > 0), "{lead_counts:?}");
    }

    #[test]
    fn promotion_skips_dead_primary() {
        let m = map(6, 3);
        let pid = PartitionId(0);
        let full = m.replicas(pid);
        let mut alive = vec![true; 6];
        alive[full[0]] = false;
        let reps = m.replicas_alive(pid, &alive);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0], full[1], "first backup becomes primary");
    }

    #[test]
    fn fully_replicated_chain_covers_all_groups() {
        let m = map(6, 3);
        let chain = m.write_chain(
            PartitionId(1),
            TableOptions { read_backup: false, fully_replicated: true },
            &[true; 6],
        );
        assert_eq!(chain.len(), 6);
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn normal_chain_is_group_replicas() {
        let m = map(6, 3);
        let pid = PartitionId(2);
        assert_eq!(m.write_chain(pid, TableOptions::default(), &[true; 6]), m.replicas(pid));
    }

    #[test]
    fn replica_rank_identifies_position() {
        let m = map(6, 3);
        let pid = PartitionId(3);
        let reps = m.replicas(pid);
        assert_eq!(m.replica_rank(reps[0], pid), Some(0));
        assert_eq!(m.replica_rank(reps[2], pid), Some(2));
        let outside = (0..6).find(|i| !reps.contains(i)).unwrap();
        assert_eq!(m.replica_rank(outside, pid), None);
    }

    #[test]
    fn with_groups_shrinks_ownership_not_partitioning() {
        let cfg = ClusterConfig::az_aware(6, 3, &[AzId(0), AzId(1), AzId(2)]);
        let full = PartitionMap::new(&cfg); // 2 groups
        let half = PartitionMap::with_groups(&cfg, 1);
        assert_eq!(full.group_count(), 2);
        assert_eq!(half.group_count(), 1);
        assert_eq!(half.active_len(), 3);
        for k in 0..500u64 {
            // Same key → same partition under both maps.
            assert_eq!(full.partition_of(PartitionKey(k)), half.partition_of(PartitionKey(k)));
        }
        for p in 0..half.partition_count() as u32 {
            let pid = PartitionId(p);
            // All ownership collapses into group 0's nodes.
            assert_eq!(half.group_of(pid), 0);
            assert!(half.replicas(pid).iter().all(|&i| i < 3));
            // Spares store nothing, fully replicated or not.
            let fr = TableOptions { read_backup: false, fully_replicated: true };
            for idx in 3..6 {
                assert!(!half.stores(idx, pid, fr));
                assert!(!half.stores(idx, pid, TableOptions::default()));
            }
        }
        // FR chain under the shrunk map covers only the active group.
        let chain = half.write_chain(
            PartitionId(1),
            TableOptions { read_backup: false, fully_replicated: true },
            &[true; 6],
        );
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn rank_and_stores_match_the_replica_list() {
        let cfg = ClusterConfig::az_aware(12, 3, &[AzId(0), AzId(1), AzId(2)]);
        for groups in 1..=cfg.node_group_count() {
            let m = PartitionMap::with_groups(&cfg, groups);
            for p in 0..m.partition_count() as u32 {
                let pid = PartitionId(p);
                let reps = m.replicas(pid);
                for idx in 0..cfg.datanodes.len() + 2 {
                    let rank = reps.iter().position(|&i| i == idx).map(|r| r as u8);
                    assert_eq!(m.replica_rank(idx, pid), rank, "pid {p} idx {idx} groups {groups}");
                    assert_eq!(m.stores(idx, pid, TableOptions::default()), rank.is_some());
                }
            }
        }
    }

    #[test]
    fn stores_honors_fully_replicated() {
        let m = map(6, 3);
        let pid = PartitionId(0);
        let fr = TableOptions { read_backup: false, fully_replicated: true };
        for idx in 0..6 {
            assert!(m.stores(idx, pid, fr));
            assert_eq!(m.stores(idx, pid, TableOptions::default()), m.replicas(pid).contains(&idx));
        }
    }
}
