//! CephFS deployment configuration and calibration.

use simnet::{AzId, SimDuration};

/// How the namespace is partitioned over the metadata servers (§V-A of the
/// paper describes all three evaluated setups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMode {
    /// The default dynamic subtree partitioner: the monitor periodically
    /// migrates hot directories from overloaded to underloaded MDSs.
    Dynamic,
    /// `CephFS - DirPinned`: directories are statically pinned round-robin
    /// across MDSs (manual load balancing).
    DirPinned,
}

/// Calibration knobs for the CephFS model that [`CephConfig::scaled_down`]
/// scales. The fixed calibration values are constants next to the code that
/// charges them.
#[derive(Debug, Clone, PartialEq)]
pub struct CephCosts {
    /// MDS CPU per request. The MDS is single-threaded (its global lock), so
    /// `1 / mds_op` bounds per-MDS request throughput — calibrated to the
    /// ~4.2 K req/s the paper measures for one unloaded MDS (Figure 6).
    pub mds_op: SimDuration,
    /// Outstanding (unacked) journal bytes at which an MDS stalls mutations
    /// — this is what couples MDS throughput to OSD disk bandwidth and
    /// produces the DirPinned decline past 24 MDSs (Figures 5, 12d).
    pub journal_stall_bytes: u64,
    /// OSD sequential disk bandwidth (bytes/s). The paper's OSDs sat on
    /// cloud persistent disks, far slower than NVMe.
    pub osd_disk_bandwidth: u64,
    /// Client-side cost of a kernel-cache hit (VFS + cap check).
    pub cache_hit_cost: SimDuration,
}

impl Default for CephCosts {
    fn default() -> Self {
        CephCosts {
            mds_op: SimDuration::from_micros(236),
            journal_stall_bytes: 4 << 20,
            osd_disk_bandwidth: 120_000_000,
            cache_hit_cost: SimDuration::from_micros(35),
        }
    }
}

/// Full CephFS deployment description.
#[derive(Debug, Clone)]
pub struct CephConfig {
    /// Number of metadata servers.
    pub mds_count: usize,
    /// Number of object storage daemons (the paper uses 12, matching the 12
    /// NDB datanodes).
    pub osd_count: usize,
    /// AZs to spread MDSs/OSDs/clients over (HA setup = 3 AZs, replication 3).
    pub azs: Vec<AzId>,
    /// Subtree partitioning mode.
    pub mode: BalanceMode,
    /// `CephFS - SkipKCache`: bypass the client kernel cache entirely.
    pub skip_kcache: bool,
    /// Calibration.
    pub costs: CephCosts,
}

impl CephConfig {
    /// The paper's HA CephFS setup: `mds_count` MDSs, 12 OSDs, 3 AZs.
    pub fn paper(mds_count: usize, mode: BalanceMode, skip_kcache: bool) -> Self {
        CephConfig {
            mds_count,
            osd_count: 12,
            azs: vec![AzId(0), AzId(1), AzId(2)],
            mode,
            skip_kcache,
            costs: CephCosts::default(),
        }
    }

    /// Uniform scale-down: MDS/client CPU costs multiply, OSD bandwidth
    /// divides — the same shrink the HopsFS side applies to thread pools, so
    /// relative comparisons stay fair.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        let f = factor.max(1) as u64;
        self.costs.mds_op = self.costs.mds_op * f;
        self.costs.cache_hit_cost = self.costs.cache_hit_cost * f;
        self.costs.osd_disk_bandwidth = (self.costs.osd_disk_bandwidth / f).max(1);
        self.costs.journal_stall_bytes = (self.costs.journal_stall_bytes / f).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mds_capacity_matches_paper() {
        let c = CephCosts::default();
        let per_sec = 1_000_000_000 / c.mds_op.as_nanos();
        assert!((4000..4600).contains(&per_sec), "1/mds_op = {per_sec} req/s");
    }

    #[test]
    fn scaling_is_uniform() {
        let c = CephConfig::paper(4, BalanceMode::Dynamic, false).scaled_down(4);
        assert_eq!(c.costs.mds_op, SimDuration::from_micros(944));
        assert_eq!(c.costs.osd_disk_bandwidth, 30_000_000);
    }
}
