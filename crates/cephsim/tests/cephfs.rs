//! End-to-end CephFS baseline tests: clients → MDS → namespace/journal/OSD.

use cephsim::deploy::run_clients_until_done;
use cephsim::{build_ceph_cluster, BalanceMode, CephClientActor, CephConfig, MdsActor};
use hopsfs::client::ClientStats;
use hopsfs::{FsError, FsOk, FsOp, FsPath, ScriptedSource};
use simnet::{AzId, SimDuration, SimTime, Simulation};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

fn run_ops(
    mode: BalanceMode,
    skip_kcache: bool,
    ops: Vec<FsOp>,
) -> (Simulation, cephsim::CephCluster, Vec<hopsfs::FsResult>) {
    let mut sim = Simulation::new(5);
    sim.set_jitter(0.0);
    let mut cluster = build_ceph_cluster(&mut sim, CephConfig::paper(3, mode, skip_kcache));
    cluster.bulk_mkdir_p("/seed/dir");
    cluster.apply_pinning();
    let stats = ClientStats::shared();
    let client = cluster.add_client(&mut sim, AzId(0), Box::new(ScriptedSource::new(ops)), stats);
    sim.actor_mut::<CephClientActor>(client).keep_results = true;
    assert!(run_clients_until_done(&mut sim, &[client], SimTime::from_secs(30)));
    let results = sim.actor::<CephClientActor>(client).results.clone();
    (sim, cluster, results)
}

#[test]
fn basic_fs_semantics_match_hopsfs() {
    let (_, _, results) = run_ops(
        BalanceMode::Dynamic,
        false,
        vec![
            FsOp::Mkdir { path: p("/a") },
            FsOp::Create { path: p("/a/f"), size: 10 },
            FsOp::Stat { path: p("/a/f") },
            FsOp::List { path: p("/a") },
            FsOp::Mkdir { path: p("/a") },
            FsOp::Delete { path: p("/a"), recursive: false },
            FsOp::Rename { src: p("/a/f"), dst: p("/a/g") },
            FsOp::Stat { path: p("/a/g") },
            FsOp::Delete { path: p("/a"), recursive: true },
            FsOp::Stat { path: p("/a") },
        ],
    );
    assert!(results[0].is_ok() && results[1].is_ok());
    assert!(matches!(&results[2], Ok(FsOk::Attrs(a)) if a.size == 10));
    assert!(matches!(&results[3], Ok(FsOk::Listing(e)) if e.len() == 1));
    assert_eq!(results[4], Err(FsError::AlreadyExists));
    assert_eq!(results[5], Err(FsError::NotEmpty));
    assert!(results[6].is_ok());
    assert!(results[7].is_ok());
    assert!(results[8].is_ok());
    assert_eq!(results[9], Err(FsError::NotFound));
}

#[test]
fn kernel_cache_serves_repeated_reads_locally() {
    let mut ops = vec![FsOp::Create { path: p("/seed/dir/f"), size: 0 }];
    for _ in 0..50 {
        ops.push(FsOp::Stat { path: p("/seed/dir/f") });
    }
    let (sim, cluster, results) = run_ops(BalanceMode::Dynamic, false, ops);
    assert!(results.iter().all(|r| r.is_ok()));
    // Find our client actor: it's the last node.
    let client_id = simnet::NodeId(sim.node_count() as u32 - 1);
    let client = sim.actor::<CephClientActor>(client_id);
    assert!(client.cache_hits >= 45, "only {} cache hits", client.cache_hits);
    // The MDS saw only a handful of requests.
    let total: u64 = cluster.mds_requests(&sim).iter().sum();
    assert!(total <= 10, "MDS handled {total} requests despite caching");
}

#[test]
fn skip_kcache_sends_everything_to_mds() {
    let mut ops = vec![FsOp::Create { path: p("/seed/dir/f"), size: 0 }];
    for _ in 0..50 {
        ops.push(FsOp::Stat { path: p("/seed/dir/f") });
    }
    let (sim, cluster, results) = run_ops(BalanceMode::Dynamic, true, ops);
    assert!(results.iter().all(|r| r.is_ok()));
    let total: u64 = cluster.mds_requests(&sim).iter().sum();
    assert_eq!(total, 51, "all requests must reach the MDS");
    let client_id = simnet::NodeId(sim.node_count() as u32 - 1);
    assert_eq!(sim.actor::<CephClientActor>(client_id).cache_hits, 0);
}

#[test]
fn dirpinned_distributes_subtrees_across_mds() {
    let mut sim = Simulation::new(6);
    sim.set_jitter(0.0);
    let mut cluster =
        build_ceph_cluster(&mut sim, CephConfig::paper(3, BalanceMode::DirPinned, false));
    for u in 0..6 {
        cluster.bulk_mkdir_p(&format!("/user/u{u}"));
        cluster.bulk_add_file(&format!("/user/u{u}/f"), 0);
    }
    cluster.apply_pinning();
    let owners: simnet::FxHashSet<usize> =
        (0..6).map(|u| cluster.map.lock().unwrap().owner_of(&format!("/user/u{u}/f"))).collect();
    assert_eq!(owners.len(), 3, "pinning should use all 3 MDSs: {owners:?}");
    // Ops on differently pinned subtrees are served by different MDSs.
    let stats = ClientStats::shared();
    let ops: Vec<FsOp> = (0..6).map(|u| FsOp::Stat { path: p(&format!("/user/u{u}/f")) }).collect();
    let client = cluster.add_client(&mut sim, AzId(1), Box::new(ScriptedSource::new(ops)), stats);
    assert!(run_clients_until_done(&mut sim, &[client], SimTime::from_secs(10)));
    let reqs = cluster.mds_requests(&sim);
    assert!(reqs.iter().all(|&r| r >= 2), "uneven pinned load: {reqs:?}");
}

#[test]
fn journal_reaches_osds_with_replication() {
    let mut sim = Simulation::new(7);
    sim.set_jitter(0.0);
    let mut cluster =
        build_ceph_cluster(&mut sim, CephConfig::paper(2, BalanceMode::Dynamic, false));
    cluster.bulk_mkdir_p("/w");
    let stats = ClientStats::shared();
    let ops: Vec<FsOp> =
        (0..40).map(|i| FsOp::Create { path: p(&format!("/w/f{i}")), size: 0 }).collect();
    let client = cluster.add_client(&mut sim, AzId(0), Box::new(ScriptedSource::new(ops)), stats);
    assert!(run_clients_until_done(&mut sim, &[client], SimTime::from_secs(30)));
    sim.run_for(SimDuration::from_secs(1)); // let journal flush
    // MDS journaled the mutations.
    let per_mutation = cephsim::mds::JOURNAL_BYTES_PER_MUTATION;
    let journal: u64 = cluster
        .mds_ids
        .iter()
        .map(|&id| sim.actor::<MdsActor>(id).stats.journal_bytes)
        .sum();
    assert!(journal >= 40 * per_mutation, "journal bytes = {journal}");
    // OSD disks saw the writes, including replication (x3 across AZs).
    let disk_writes: u64 =
        cluster.osd_ids.iter().map(|&id| sim.disk(id).unwrap().bytes_written()).sum();
    assert!(
        disk_writes >= journal * 3,
        "disk {disk_writes} < 3x journal {journal} (replication missing)"
    );
}

#[test]
fn dynamic_balancer_spreads_hot_load() {
    let mut sim = Simulation::new(8);
    sim.set_jitter(0.0);
    let mut cluster =
        build_ceph_cluster(&mut sim, CephConfig::paper(3, BalanceMode::Dynamic, false));
    for u in 0..9 {
        cluster.bulk_add_file(&format!("/user/u{u}/data"), 0);
    }
    // Hammer the namespace with mutations (never served from the kernel
    // cache) so the MDSs see real load.
    let stats = ClientStats::shared();
    let mut clients = Vec::new();
    for c in 0..9 {
        let ops: Vec<FsOp> = (0..2000)
            .map(|i| FsOp::SetPerm { path: p(&format!("/user/u{}/data", (c + i) % 9)), perm: 0o600 })
            .collect();
        clients.push(cluster.add_client(&mut sim, AzId((c % 3) as u8), Box::new(ScriptedSource::new(ops)), stats.clone()));
    }
    sim.run_until(SimTime::from_secs(20));
    // After balancing, ownership is spread beyond MDS 0.
    let owners: simnet::FxHashSet<usize> =
        (0..9).map(|u| cluster.map.lock().unwrap().owner_of(&format!("/user/u{u}/data"))).collect();
    assert!(owners.len() >= 2, "balancer never moved anything: {owners:?}");
    let version = cluster.map.lock().unwrap().version;
    assert!(version > 0, "no rebalances happened");
}
