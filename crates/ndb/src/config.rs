//! Cluster configuration: datanodes, node groups, replication, thread
//! layout (the paper's Table II) and protocol timeouts.

use simnet::{AzId, Batching, LaneClassSpec, SimDuration};

/// Lane-class names used by NDB datanodes, mirroring the paper's Table II.
pub mod lane {
    /// Local data manager threads: table shards, row storage, locking.
    pub const LDM: &str = "LDM";
    /// Transaction coordinator threads.
    pub const TC: &str = "TC";
    /// Inbound network traffic threads.
    pub const RECV: &str = "RECV";
    /// Outbound network traffic threads.
    pub const SEND: &str = "SEND";
    /// Cross-cluster replication thread (idle here; helps busy threads).
    pub const REP: &str = "REP";
    /// I/O thread (redo log, checkpoints).
    pub const IO: &str = "IO";
    /// Schema management thread.
    pub const MAIN: &str = "MAIN";
}

/// Thread counts per datanode. Defaults to the paper's Table II
/// (27 CPUs: 12 LDM, 7 TC, 3 RECV, 2 SEND, 1 REP, 1 IO, 1 MAIN).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadConfig {
    /// LDM (shard) threads.
    pub ldm: usize,
    /// Transaction coordinator threads.
    pub tc: usize,
    /// Receive threads.
    pub recv: usize,
    /// Send threads.
    pub send: usize,
}

impl Default for ThreadConfig {
    fn default() -> Self {
        ThreadConfig { ldm: 12, tc: 7, recv: 3, send: 2 }
    }
}

/// Batching discount on the LDM and TC lanes: the backlog at which it is
/// full, and the service-time multiplier it then applies.
const BATCHING: Batching =
    Batching { saturation_backlog: SimDuration::from_micros(250), min_factor: 0.35 };

impl ThreadConfig {
    /// Threads of each of the REP, IO and MAIN classes: one, as in Table II,
    /// at every scale.
    pub const SINGLE_CLASS_THREADS: usize = 1;

    /// A proportionally shrunk configuration for scaled-down simulations.
    /// Classes never drop below one thread.
    pub fn scaled_down(&self, factor: usize) -> Self {
        let f = factor.max(1);
        ThreadConfig {
            ldm: (self.ldm / f).max(1),
            tc: (self.tc / f).max(1),
            recv: (self.recv / f).max(1),
            send: (self.send / f).max(1),
        }
    }

    /// Total thread count (27 for the paper's configuration).
    pub fn total(&self) -> usize {
        self.ldm + self.tc + self.recv + self.send + 3 * Self::SINGLE_CLASS_THREADS
    }

    /// Materializes the `simnet` lane specs, with NDB's batching discount on
    /// the LDM and TC classes (the paper explains continued throughput growth
    /// past the CPU plateau by request batching).
    pub fn lane_specs(&self) -> Vec<LaneClassSpec> {
        vec![
            LaneClassSpec::new(lane::LDM, self.ldm).with_batching(BATCHING),
            LaneClassSpec::new(lane::TC, self.tc).with_batching(BATCHING),
            LaneClassSpec::new(lane::RECV, self.recv),
            LaneClassSpec::new(lane::SEND, self.send),
            LaneClassSpec::new(lane::REP, Self::SINGLE_CLASS_THREADS),
            LaneClassSpec::new(lane::IO, Self::SINGLE_CLASS_THREADS),
            LaneClassSpec::new(lane::MAIN, Self::SINGLE_CLASS_THREADS),
        ]
    }
}

/// Protocol timeouts, named after their NDB configuration parameters.
/// These are the ones tests shorten or stretch; the rest of the protocol's
/// timeouts are constants next to the code that waits on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeouts {
    /// Abort a transaction stuck on locks / failed nodes (also the lock-wait
    /// deadlock resolution timeout).
    pub transaction_deadlock_detection: SimDuration,
    /// Datanode-to-datanode heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// Datanode-to-arbitrator liveness check period.
    pub arbitration_interval: SimDuration,
    /// Global checkpoint period (redo log flush across node groups).
    pub gcp_interval: SimDuration,
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts {
            transaction_deadlock_detection: SimDuration::from_millis(150),
            heartbeat_interval: SimDuration::from_millis(100),
            arbitration_interval: SimDuration::from_millis(100),
            gcp_interval: SimDuration::from_millis(500),
        }
    }
}

/// Static description of one NDB datanode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatanodeSpec {
    /// The AZ this datanode runs in — the paper's new `LocationDomainId`
    /// configuration parameter (`None` models a vanilla, non-AZ-aware
    /// deployment where the id is unset/0).
    pub location_domain_id: Option<AzId>,
}

/// Full cluster configuration.
///
/// Node groups are formed like NDB forms them: datanodes are taken in
/// declaration order, `replication_factor` at a time. The AZ-aware deployment
/// helpers in [`ClusterConfig::az_aware`] order datanodes so that each node
/// group spans AZs (Figures 3 and 4 of the paper).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Datanodes in node-group order.
    pub datanodes: Vec<DatanodeSpec>,
    /// Replicas per partition (NDB `NoOfReplicas`, the paper's
    /// "metadata replication factor": 2 or 3).
    pub replication_factor: usize,
    /// Thread layout per datanode.
    pub threads: ThreadConfig,
    /// Protocol timeouts.
    pub timeouts: Timeouts,
    /// Whether restarted datanodes run the node-recovery protocol (rejoin
    /// in Recovering state, copy-fragment resync, re-admission only once
    /// synchronized). Disabling it models the naive revive-with-stale-state
    /// behavior and exists for the ablation in `fig_az_outage`.
    pub node_recovery: bool,
    /// Node groups active at deployment (`0` = all provisioned groups).
    /// Datanodes beyond `initial_node_groups × replication_factor` boot as
    /// live spares owning no data, until an online reconfiguration
    /// ([`crate::mgmt::MgmtActor`] `ReconfigReq`) brings their group in.
    pub initial_node_groups: usize,
}

impl ClusterConfig {
    /// A cluster of `n` datanodes with replication factor `r`, with node
    /// groups spanning AZs round-robin over `azs` (AZ-aware deployment).
    ///
    /// With `azs = [a, b]` and `r = 2` this is the paper's Figure 3 layout;
    /// with `azs = [a, b, c]` and `r = 3`, Figure 4.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a multiple of `r`, or `azs` is empty.
    pub fn az_aware(n: usize, r: usize, azs: &[AzId]) -> Self {
        assert!(!azs.is_empty(), "need at least one AZ");
        assert!(r >= 1 && n.is_multiple_of(r), "datanode count must be a multiple of the replication factor");
        // Node group g = datanodes [g*r .. (g+1)*r); member i of each group
        // goes to azs[i % azs.len()], so replicas of every partition span AZs.
        let mut datanodes = Vec::with_capacity(n);
        for _group in 0..n / r {
            for member in 0..r {
                datanodes.push(DatanodeSpec {
                    location_domain_id: Some(azs[member % azs.len()]),
                });
            }
        }
        ClusterConfig {
            datanodes,
            replication_factor: r,
            threads: ThreadConfig::default(),
            timeouts: Timeouts::default(),
            node_recovery: true,
            initial_node_groups: 0,
        }
    }

    /// A vanilla (non-AZ-aware) cluster: all datanodes have no
    /// LocationDomainId. `azs` still controls physical placement round-robin
    /// (the nodes live *somewhere*), but the database cannot see it.
    pub fn vanilla(n: usize, r: usize) -> Self {
        let mut c = Self::az_aware(n, r, &[AzId(0)]);
        for d in &mut c.datanodes {
            d.location_domain_id = None;
        }
        c
    }

    /// Partitions per table: two per provisioned datanode, at least 8.
    pub fn partitions_per_table(&self) -> usize {
        (self.datanodes.len() * 2).max(8)
    }

    /// Number of node groups (`n / r`).
    pub fn node_group_count(&self) -> usize {
        self.datanodes.len() / self.replication_factor
    }

    /// Node groups active at deployment (clamped into
    /// `1..=node_group_count()`; `initial_node_groups == 0` means all).
    pub fn active_node_groups(&self) -> usize {
        if self.initial_node_groups == 0 {
            self.node_group_count()
        } else {
            self.initial_node_groups.clamp(1, self.node_group_count())
        }
    }

    /// Node group of datanode `idx` (its index in [`ClusterConfig::datanodes`]).
    pub fn node_group_of(&self, idx: usize) -> usize {
        idx / self.replication_factor
    }

    /// Datanode indices of one node group.
    pub fn group_members(&self, group: usize) -> std::ops::Range<usize> {
        group * self.replication_factor..(group + 1) * self.replication_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let t = ThreadConfig::default();
        assert_eq!(t.total(), 27);
        assert_eq!(t.ldm, 12);
        assert_eq!(t.tc, 7);
        assert_eq!(t.recv, 3);
        assert_eq!(t.send, 2);
    }

    #[test]
    fn scaled_down_never_hits_zero() {
        let t = ThreadConfig::default().scaled_down(100);
        assert!(t.ldm >= 1 && t.tc >= 1 && t.recv >= 1 && t.send >= 1);
    }

    #[test]
    fn az_aware_groups_span_azs() {
        // Figure 4: 6 datanodes, r=3, 3 AZs -> groups {N1,N3,N5}, {N2,N4,N6}
        // in paper numbering; here consecutive triples span az0,az1,az2.
        let c = ClusterConfig::az_aware(6, 3, &[AzId(0), AzId(1), AzId(2)]);
        assert_eq!(c.node_group_count(), 2);
        for g in 0..2 {
            let azs: Vec<_> = c.group_members(g)
                .map(|i| c.datanodes[i].location_domain_id.unwrap())
                .collect();
            assert_eq!(azs, vec![AzId(0), AzId(1), AzId(2)]);
        }
    }

    #[test]
    fn figure3_layout_two_azs() {
        // Figure 3: r=2 across Zone2/Zone3.
        let c = ClusterConfig::az_aware(4, 2, &[AzId(1), AzId(2)]);
        assert_eq!(c.node_group_count(), 2);
        for g in 0..2 {
            let azs: Vec<_> = c.group_members(g)
                .map(|i| c.datanodes[i].location_domain_id.unwrap())
                .collect();
            assert_eq!(azs, vec![AzId(1), AzId(2)]);
        }
    }

    #[test]
    fn vanilla_has_no_domain_ids() {
        let c = ClusterConfig::vanilla(4, 2);
        assert!(c.datanodes.iter().all(|d| d.location_domain_id.is_none()));
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_bad_group_division() {
        let _ = ClusterConfig::az_aware(5, 2, &[AzId(0)]);
    }
}
