//! Deployment helper: materializes a configured cluster into a simulation.

use crate::config::ClusterConfig;
use crate::datanode::DatanodeActor;
use crate::mgmt::MgmtActor;
use crate::partition::PartitionMap;
use crate::schema::{RowKey, Schema, TableId};
use crate::view::ClusterView;
use bytes::Bytes;
use simnet::{AzId, Disk, Location, NodeId, NodeSpec, Simulation};
use std::sync::Arc;

/// Handle to a deployed cluster.
#[derive(Debug)]
pub struct NdbCluster {
    /// The shared static view (config, schema, ids).
    pub view: Arc<ClusterView>,
}

/// Allocates a fresh host id: every process gets its own host unless the
/// caller wants explicit co-location.
pub fn next_host(sim: &Simulation) -> u32 {
    sim.node_count() as u32
}

/// Deploys management nodes and datanodes for `cfg` into `sim`.
///
/// Datanodes with a `LocationDomainId` are placed in that AZ; others are
/// placed round-robin over `placement_azs` (they still run *somewhere*, the
/// database just cannot exploit it). One management node is created per
/// distinct AZ in `placement_azs`, the first acting as default arbitrator —
/// matching the paper's Figures 3 and 4.
///
/// # Panics
///
/// Panics if `placement_azs` is empty.
pub fn build_cluster(
    sim: &mut Simulation,
    cfg: ClusterConfig,
    schema: Schema,
    placement_azs: &[AzId],
) -> NdbCluster {
    assert!(!placement_azs.is_empty(), "need at least one placement AZ");

    // Distinct AZs hosting a management node each, preserving order.
    let mut mgmt_azs: Vec<AzId> = Vec::new();
    for &az in placement_azs {
        if !mgmt_azs.contains(&az) {
            mgmt_azs.push(az);
        }
    }

    // Predict node ids: management nodes first, then datanodes in order.
    let base = sim.node_count() as u32;
    let mgmt_ids: Vec<NodeId> = (0..mgmt_azs.len()).map(|i| NodeId(base + i as u32)).collect();
    let dn_base = base + mgmt_azs.len() as u32;
    let datanode_ids: Vec<NodeId> =
        (0..cfg.datanodes.len()).map(|i| NodeId(dn_base + i as u32)).collect();

    let datanode_locations: Vec<Location> = cfg
        .datanodes
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let az = d.location_domain_id.unwrap_or(placement_azs[i % placement_azs.len()]);
            Location { az, host: simnet::HostId(dn_base + i as u32) }
        })
        .collect();

    let pmap = PartitionMap::with_groups(&cfg, cfg.active_node_groups());
    let view = ClusterView {
        config: cfg,
        schema,
        pmap,
        datanode_ids: datanode_ids.clone(),
        datanode_locations: datanode_locations.clone(),
        mgmt_ids: mgmt_ids.clone(),
    }
    .shared();

    // Management nodes.
    let hb = view.config.timeouts.heartbeat_interval;
    for (rank, &az) in mgmt_azs.iter().enumerate() {
        let loc = Location { az, host: simnet::HostId(base + rank as u32) };
        let id = sim.add_node(
            NodeSpec::new(format!("ndb-mgmt-{rank}"), loc).with_layer("ndb-mgmt"),
            Box::new(
                MgmtActor::new(rank, mgmt_ids.clone(), hb).with_datanodes(
                        datanode_ids.clone(),
                        view.config.replication_factor,
                        view.config.active_node_groups(),
                    ),
            ),
        );
        assert_eq!(id, mgmt_ids[rank], "node id prediction drifted");
    }

    // Datanodes: Table II thread lanes + an NVMe-class disk for the redo log
    // and (in HopsFS) inlined small-file data.
    for i in 0..view.datanode_count() {
        let lanes = view.config.threads.lane_specs();
        let disk = Disk::new(1_200_000_000); // ~1.2 GB/s NVMe
        let spec = NodeSpec::new(format!("ndb-dn-{i}"), datanode_locations[i])
            .with_lanes(lanes)
            .with_disk(disk)
            .with_layer("ndb");
        let id = sim.add_node(spec, Box::new(DatanodeActor::new(Arc::clone(&view), i)));
        assert_eq!(id, datanode_ids[i], "node id prediction drifted");
    }

    NdbCluster { view }
}

impl NdbCluster {
    /// Bulk-loads a row into every datanode that replicates it (initial data
    /// without simulating inserts). Returns how many replicas stored it.
    pub fn load_row(&self, sim: &mut Simulation, table: TableId, key: RowKey, data: Bytes) -> usize {
        let mut stored = 0;
        for &id in &self.view.datanode_ids {
            let dn = sim.actor_mut::<DatanodeActor>(id);
            if dn.load_row(table, key.clone(), data.clone()) {
                stored += 1;
            }
        }
        stored
    }

    /// Reads a row directly from each replica (bypassing the protocol) and
    /// returns the values found — a verification hook for tests.
    pub fn peek_row(&self, sim: &Simulation, table: TableId, key: &RowKey) -> Vec<Bytes> {
        self.view
            .datanode_ids
            .iter()
            .filter_map(|&id| sim.actor::<DatanodeActor>(id).peek_row(table, key))
            .collect()
    }
}
