//! File-system deployment configuration.

use ndb::ClusterConfig;
use simnet::{AzId, SimDuration};

/// Where large-file blocks live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockBackend {
    /// The HopsFS block storage layer: blocks replicated across block
    /// datanodes (§IV-C).
    Datanodes,
    /// The paper's §VII future work: blocks stored as objects in a regional
    /// cloud object store (AZ-local endpoints, provider-internal
    /// replication, request fees — see [`crate::cloudstore`]).
    CloudStore,
}

/// Block-placement policies for the block storage layer (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Uniformly random distinct datanodes (no topology knowledge).
    Random,
    /// The HDFS rack-aware default with AZs configured as racks (the paper's
    /// approach): first replica local to the writer, second on a different
    /// AZ, third on the same AZ as the second but a different node.
    RackAwareAzAsRack,
}

/// Full HopsFS / HopsFS-CL deployment description.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Metadata-storage (NDB) cluster configuration.
    pub ndb: ClusterConfig,
    /// AZs the deployment spans (placement for non-AZ-aware processes is
    /// round-robin over these).
    pub azs: Vec<AzId>,
    /// Number of namenodes.
    pub nn_count: usize,
    /// Whether namenodes and clients are AZ-aware (HopsFS-CL): namenodes get
    /// `locationDomainId`s, every table is Read Backup enabled, clients
    /// prefer AZ-local namenodes, and block placement spreads across AZs.
    pub az_aware: bool,
    /// Block placement policy (datanode backend only).
    pub placement: PlacementPolicy,
    /// Where large-file blocks are stored.
    pub block_backend: BlockBackend,
    /// Overrides whether tables are Read Backup enabled (None = follow
    /// `az_aware`); used by the ablation experiments and Figure 14.
    pub read_backup_override: Option<bool>,
    /// Strict mode: re-read (validate) every cache-resolved ancestor inside
    /// the transaction. HopsFS proper trusts its inode-hint cache for
    /// ancestor directories and only lock-reads the parent and target
    /// (FAST'17), so this defaults to off; turning it on trades a hot root
    /// partition for rename-vs-resolve linearizability.
    pub validate_ancestors: bool,
    /// Worker threads per namenode (the paper's VMs had 32 vCPUs); the
    /// namenode's CPU costs per op are constants of [`crate::namenode`].
    pub nn_worker_threads: usize,
    /// Leader-election round period (paper: 2 s).
    pub election_period: SimDuration,
    /// How long since the last heartbeat a block datanode is still counted
    /// alive when choosing replica placements and re-replication targets.
    pub dn_heartbeat_window: SimDuration,
    /// Max write ops per transaction during the batched phase of a subtree
    /// operation (the STO protocol, FAST'17 §3.6). A 10k-inode delete runs
    /// as ⌈rows / batch⌉ bounded transactions instead of one huge one.
    pub subtree_batch_size: usize,
    /// Overload control at the namenode front door (admission, shedding,
    /// priority classes). Off by default: existing benches measure the
    /// unprotected system; overload experiments flip `enabled`.
    pub admission: AdmissionConfig,
    /// Leased client-side metadata caching (see [`crate::lease`]). Off by
    /// default: every existing experiment measures the server-side-only
    /// system; the client-cache experiments flip `enabled`.
    pub lease: LeaseConfig,
    /// Elastic namenode-pool serving (see [`crate::elastic`]). Off by
    /// default: every existing experiment runs the static pool; the
    /// elasticity experiments flip `enabled`.
    pub elastic: ElasticConfig,
}

/// Namenode pool autoscaling knobs (see [`crate::elastic`] for the
/// controller).
///
/// The controller watches the pool-mean composite overload signal (the same
/// worker-backlog + NDB-hint signal the admission gates use) and keeps it
/// inside the `[scale_down_threshold, scale_up_threshold]` band by
/// activating parked namenodes or draining serving ones. Spread the two
/// thresholds far apart and hold `cooldown` between actions — that is the
/// hysteresis that keeps a noisy signal from flapping the pool.
#[derive(Debug, Clone, Copy)]
pub struct ElasticConfig {
    /// Master switch. When off, all `nn_count` namenodes serve from t=0 and
    /// the wire protocol is exactly the static system.
    pub enabled: bool,
    /// Namenodes serving at t=0; indices at and above this park (boot idle,
    /// own no election row, shed every request with a redirect).
    pub initial_active: usize,
    /// Floor on the serving count: the controller never drains below this.
    pub min_active: usize,
    /// Cold-start cost: a parked namenode takes this long from `NnActivate`
    /// to serving its first request (process launch, NDB session setup).
    /// Its first ops then pay a fixed cache-warm penalty.
    pub boot_delay: SimDuration,
    /// Pool-mean composite signal above which one namenode is activated.
    pub scale_up_threshold: SimDuration,
    /// Pool-mean composite signal below which one namenode is drained.
    pub scale_down_threshold: SimDuration,
    /// Minimum gap between scaling actions (hysteresis).
    pub cooldown: SimDuration,
    /// How long the controller waits for `NnDrainDone` before force-parking
    /// a draining namenode (covers a namenode crash mid-drain; the node is
    /// already out of the membership, so clients have moved on).
    pub drain_timeout: SimDuration,
    /// Minimum time a draining namenode lingers before parking, even when
    /// idle: the membership update removing it propagates to clients lazily
    /// (piggybacked on responses), so requests routed under the old epoch
    /// may still be in the air when the drain order arrives. Must be below
    /// `drain_timeout`.
    pub drain_grace: SimDuration,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            enabled: false,
            initial_active: 1,
            min_active: 1,
            boot_delay: SimDuration::from_secs(2),
            scale_up_threshold: SimDuration::from_millis(60),
            scale_down_threshold: SimDuration::from_millis(5),
            cooldown: SimDuration::from_secs(4),
            drain_timeout: SimDuration::from_secs(3),
            drain_grace: SimDuration::from_millis(200),
        }
    }
}

/// Client-side lease-cache knobs (see [`crate::lease`] for the protocol).
///
/// Leases are time-bounded: a client may serve a read locally only while
/// `now < expiry`, and a namenode that cannot reach a lease holder (crash,
/// partition) need only out-wait `ttl` before acknowledging the conflicting
/// mutation. `ttl` therefore bounds both staleness *and* mutation latency
/// under failures — the classic lease trade-off.
#[derive(Debug, Clone, Copy)]
pub struct LeaseConfig {
    /// Master switch. When off, namenodes grant nothing and clients cache
    /// nothing: the wire protocol and all behavior are exactly the
    /// pre-lease system.
    pub enabled: bool,
    /// Lease duration from grant (and from each successful renewal).
    pub ttl: SimDuration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            enabled: false,
            ttl: SimDuration::from_secs(10),
        }
    }
}

/// Namenode admission-control knobs (the cross-layer overload-control
/// subsystem). One [`simnet::Gate`] per priority class; the load signal is
/// the worker-lane queue delay plus a fixed share of the latest NDB
/// TC-queue-delay hint piggybacked on transaction replies.
///
/// Priority classes, highest to lowest:
/// - **interactive** — ordinary client ops (stat/create/read/...);
/// - **batch** — subtree-operation (STO) phase batches;
/// - **maintenance** — re-replication scans after datanode loss.
///
/// Lower classes get *lower* thresholds, so under pressure maintenance
/// yields first, then batches, and interactive traffic sheds only when the
/// namenode is truly saturated.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Master switch. When off, every request is admitted unconditionally
    /// (the pre-overload-control behavior).
    pub enabled: bool,
    /// Queue-delay threshold above which interactive ops shed.
    pub interactive_threshold: SimDuration,
    /// Queue-delay threshold above which STO batches defer.
    pub batch_threshold: SimDuration,
    /// Queue-delay threshold above which re-replication pumping pauses.
    pub maintenance_threshold: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            interactive_threshold: SimDuration::from_millis(200),
            batch_threshold: SimDuration::from_millis(50),
            maintenance_threshold: SimDuration::from_millis(20),
        }
    }
}

impl FsConfig {
    /// Whether the schema's tables are registered Read Backup enabled.
    pub fn read_backup_tables(&self) -> bool {
        self.read_backup_override.unwrap_or(self.az_aware)
    }

    /// The paper's deployment tuples: `hopsfs(metadata_replication, az_count)`
    /// is vanilla HopsFS, non-AZ-aware, on `ndb_nodes` datanodes.
    ///
    /// # Panics
    ///
    /// Panics if `az_count` is not 1 or 3, or the datanode count is not a
    /// multiple of the replication factor.
    pub fn hopsfs(ndb_nodes: usize, metadata_replication: usize, az_count: usize, nn_count: usize) -> Self {
        let azs: Vec<AzId> = match az_count {
            1 => vec![AzId(1)], // us-west1-b, where the paper ran 1-AZ setups
            3 => vec![AzId(0), AzId(1), AzId(2)],
            _ => panic!("the paper deploys over 1 or 3 AZs"),
        };
        let ndb = ClusterConfig::vanilla(ndb_nodes, metadata_replication);
        FsConfig {
            ndb,
            azs,
            nn_count,
            az_aware: false,
            placement: PlacementPolicy::Random,
            block_backend: BlockBackend::Datanodes,
            read_backup_override: None,
            validate_ancestors: false,
            nn_worker_threads: 32,
            election_period: SimDuration::from_secs(2),
            dn_heartbeat_window: SimDuration::from_millis(1500),
            subtree_batch_size: 256,
            admission: AdmissionConfig::default(),
            lease: LeaseConfig::default(),
            elastic: ElasticConfig::default(),
        }
    }

    /// HopsFS-CL: AZ-aware at all three layers, always across 3 AZs.
    pub fn hopsfs_cl(ndb_nodes: usize, metadata_replication: usize, nn_count: usize) -> Self {
        let azs = vec![AzId(0), AzId(1), AzId(2)];
        let ndb = ClusterConfig::az_aware(ndb_nodes, metadata_replication, &azs);
        let mut c = Self::hopsfs(ndb_nodes, metadata_replication, 3, nn_count);
        c.ndb = ndb;
        c.az_aware = true;
        c.placement = PlacementPolicy::RackAwareAzAsRack;
        c
    }

    /// Applies a uniform scale-down factor to the CPU-heavy knobs (thread
    /// pools), for fast simulations; reported throughput should be scaled
    /// back up by the same factor.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        self.ndb.threads = self.ndb.threads.scaled_down(factor);
        self.nn_worker_threads = (self.nn_worker_threads / factor.max(1)).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tuples() {
        let h21 = FsConfig::hopsfs(12, 2, 1, 60);
        assert_eq!(h21.azs.len(), 1);
        assert!(!h21.az_aware);
        assert_eq!(h21.ndb.replication_factor, 2);

        let cl33 = FsConfig::hopsfs_cl(12, 3, 60);
        assert!(cl33.az_aware);
        assert_eq!(cl33.azs.len(), 3);
        assert_eq!(cl33.ndb.replication_factor, 3);
        assert!(cl33.ndb.datanodes.iter().all(|d| d.location_domain_id.is_some()));
        assert_eq!(cl33.placement, PlacementPolicy::RackAwareAzAsRack);
    }

    #[test]
    fn scaling_shrinks_pools() {
        let c = FsConfig::hopsfs(12, 2, 1, 4).scaled_down(4);
        assert_eq!(c.nn_worker_threads, 8);
        assert_eq!(c.ndb.threads.ldm, 3);
    }

    #[test]
    #[should_panic(expected = "1 or 3")]
    fn rejects_two_azs() {
        let _ = FsConfig::hopsfs(12, 2, 2, 1);
    }
}
