//! Deployment: materializes a CephFS cluster (monitor, MDSs, OSDs) into a
//! simulation and bulk-loads namespaces.

use crate::client::CephClientActor;
use crate::config::CephConfig;
use crate::mds::{MdsActor, MDS_LANE};
use crate::mon::MonActor;
use crate::namespace::{CephNamespace, SubtreeMap};
use crate::osd::OsdActor;
use hopsfs::client::{ClientStats, OpSource};
use simnet::{AzId, Disk, HostId, LaneClassSpec, Location, NodeId, NodeSpec, SimDuration, Simulation};
use std::sync::Mutex;
use std::sync::Arc;

/// A deployed CephFS cluster.
pub struct CephCluster {
    /// Configuration.
    pub config: CephConfig,
    /// Shared namespace store.
    pub ns: Arc<Mutex<CephNamespace>>,
    /// Shared subtree-ownership map.
    pub map: Arc<Mutex<SubtreeMap>>,
    /// Monitor node.
    pub mon_id: NodeId,
    /// MDS nodes, rank order.
    pub mds_ids: Vec<NodeId>,
    /// OSD nodes.
    pub osd_ids: Vec<NodeId>,
    /// Directories registered for DirPinned assignment.
    pinned_dirs: Vec<String>,
}

/// Builds the cluster into `sim`.
pub fn build_ceph_cluster(sim: &mut Simulation, config: CephConfig) -> CephCluster {
    let ns = CephNamespace::shared();
    let map = SubtreeMap::shared();
    map.lock().unwrap().set_mds_count(config.mds_count);
    let azs = &config.azs;

    let mon_loc = Location { az: azs[0], host: HostId(sim.node_count() as u32) };
    // Mon placeholder: actor needs mds ids; predict them.
    let mon_id = NodeId(sim.node_count() as u32);
    let mds_base = mon_id.0 + 1;
    let mds_ids: Vec<NodeId> = (0..config.mds_count).map(|i| NodeId(mds_base + i as u32)).collect();
    let osd_base = mds_base + config.mds_count as u32;
    let osd_ids: Vec<NodeId> = (0..config.osd_count).map(|i| NodeId(osd_base + i as u32)).collect();

    let got = sim.add_node(
        NodeSpec::new("ceph-mon", mon_loc).with_layer("ceph-mon"),
        Box::new(MonActor::new(Arc::clone(&map), mds_ids.clone(), config.mode)),
    );
    assert_eq!(got, mon_id, "node id prediction drifted");

    for i in 0..config.mds_count {
        let az = azs[i % azs.len()];
        let loc = Location { az, host: HostId(mds_base + i as u32) };
        // One lane: the MDS global lock.
        let spec = NodeSpec::new(format!("ceph-mds-{i}"), loc)
            .with_lanes(vec![LaneClassSpec::new(MDS_LANE, 1)])
            .with_layer("ceph-mds");
        let got = sim.add_node(
            spec,
            Box::new(MdsActor::new(
                i,
                Arc::clone(&ns),
                Arc::clone(&map),
                mon_id,
                osd_ids.clone(),
                config.costs.clone(),
                config.skip_kcache,
            )),
        );
        assert_eq!(got, mds_ids[i], "node id prediction drifted");
    }

    // OSDs with metadata-pool replication across AZs: primary i replicates
    // to the next OSDs in other AZs (replication 3 when 3 AZs are present).
    for i in 0..config.osd_count {
        let az = azs[i % azs.len()];
        let loc = Location { az, host: HostId(osd_base + i as u32) };
        let mut replicas = Vec::new();
        if azs.len() >= 3 {
            replicas.push(osd_ids[(i + 1) % config.osd_count]);
            replicas.push(osd_ids[(i + 2) % config.osd_count]);
        }
        let spec = NodeSpec::new(format!("ceph-osd-{i}"), loc)
            .with_lanes(vec![LaneClassSpec::new(crate::osd::OSD_LANE, 8)])
            .with_disk(Disk::new(config.costs.osd_disk_bandwidth))
            .with_layer("ceph-osd");
        let got = sim.add_node(spec, Box::new(OsdActor::new(i, replicas)));
        assert_eq!(got, osd_ids[i], "node id prediction drifted");
    }

    CephCluster { config, ns, map, mon_id, mds_ids, osd_ids, pinned_dirs: Vec::new() }
}

impl CephCluster {
    /// Bulk-creates a directory chain directly in the namespace store.
    pub fn bulk_mkdir_p(&mut self, path: &str) {
        let mut ns = self.ns.lock().unwrap();
        let mut cur = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur.push('/');
            cur.push_str(comp);
            let _ = ns.mkdir(&cur, 0);
        }
        drop(ns);
        // Remember depth-≤2 prefixes for DirPinned.
        let top: String = {
            let mut parts = path.split('/').filter(|c| !c.is_empty());
            match (parts.next(), parts.next()) {
                (Some(a), Some(b)) => format!("/{a}/{b}"),
                (Some(a), None) => format!("/{a}"),
                _ => return,
            }
        };
        if !self.pinned_dirs.contains(&top) {
            self.pinned_dirs.push(top);
        }
    }

    /// Bulk-creates a file (ancestors included).
    pub fn bulk_add_file(&mut self, path: &str, size: u64) {
        if let Some(idx) = path.rfind('/') {
            if idx > 0 {
                self.bulk_mkdir_p(&path[..idx]);
            }
        }
        let _ = self.ns.lock().unwrap().create(path, size, 0);
    }

    /// Applies the subtree assignment that holds when the measurement
    /// starts. In `DirPinned` mode this is the paper's manual round-robin
    /// pinning; in `Dynamic` mode it is the steady state a long-running
    /// balancer converges to (spreading it live would burn hours of virtual
    /// time on a known fixpoint) — the dynamic balancer keeps running on
    /// top, and its ongoing migration churn and redirect traffic are what
    /// separate the two modes.
    pub fn apply_pinning(&mut self) {
        let mut map = self.map.lock().unwrap();
        for (i, dir) in self.pinned_dirs.iter().enumerate() {
            map.assign(dir, i % self.config.mds_count);
        }
    }

    /// Adds a client session in `az`.
    pub fn add_client(
        &self,
        sim: &mut Simulation,
        az: AzId,
        source: Box<dyn OpSource>,
        stats: Arc<Mutex<ClientStats>>,
    ) -> NodeId {
        let host = HostId(sim.node_count() as u32);
        let actor = CephClientActor::new(
            Arc::clone(&self.map),
            self.mds_ids.clone(),
            self.config.costs.clone(),
            self.config.skip_kcache,
            source,
            stats,
        );
        sim.add_node(NodeSpec::new("ceph-client", Location { az, host }).with_layer("ceph-client"), Box::new(actor))
    }

    /// Per-MDS requests handled (for Figure 6).
    pub fn mds_requests(&self, sim: &Simulation) -> Vec<u64> {
        self.mds_ids.iter().map(|&id| sim.actor::<MdsActor>(id).stats.requests).collect()
    }
}

/// Waits until all given clients are done or `limit` passes; returns whether
/// all finished (test helper).
pub fn run_clients_until_done(sim: &mut Simulation, clients: &[NodeId], limit: simnet::SimTime) -> bool {
    while sim.now() < limit {
        sim.run_for(SimDuration::from_millis(50));
        if clients.iter().all(|&c| sim.actor::<CephClientActor>(c).done) {
            return true;
        }
    }
    false
}
