//! Full-stack file-system tests: client → namenode → NDB on a simulated
//! 3-AZ HopsFS-CL cluster (and vanilla variants).

use hopsfs::client::ClientStats;
use hopsfs::deploy::{build_fs_cluster, FsCluster};
use hopsfs::{FsClientActor, FsError, FsOk, FsOp, FsPath, ScriptedSource};
use simnet::{AzId, NodeId, SimDuration, SimTime, Simulation};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

struct H {
    sim: Simulation,
    cluster: FsCluster,
}

fn cl_cluster(nn: usize) -> H {
    let cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, nn);
    let mut sim = Simulation::new(11);
    sim.set_jitter(0.0);
    let cluster = build_fs_cluster(&mut sim, cfg, 6);
    H { sim, cluster }
}

fn vanilla_cluster(nn: usize) -> H {
    let cfg = hopsfs::FsConfig::hopsfs(6, 2, 1, nn);
    let mut sim = Simulation::new(11);
    sim.set_jitter(0.0);
    let cluster = build_fs_cluster(&mut sim, cfg, 3);
    H { sim, cluster }
}

/// Runs `ops` through a fresh client and returns the results.
fn run_ops(h: &mut H, az: u8, ops: Vec<FsOp>) -> Vec<hopsfs::FsResult> {
    let n = ops.len();
    let stats = ClientStats::shared();
    let client = h.cluster.add_client(&mut h.sim, AzId(az), Box::new(ScriptedSource::new(ops)), stats);
    h.sim.actor_mut::<FsClientActor>(client).keep_results = true;
    run_client(h, client, n)
}

fn run_client(h: &mut H, client: NodeId, n: usize) -> Vec<hopsfs::FsResult> {
    let deadline = h.sim.now() + SimDuration::from_secs(60);
    while h.sim.now() < deadline {
        h.sim.run_for(SimDuration::from_millis(50));
        if h.sim.actor::<FsClientActor>(client).results.len() >= n {
            return h.sim.actor::<FsClientActor>(client).results.clone();
        }
    }
    panic!(
        "client finished only {}/{} ops by {}",
        h.sim.actor::<FsClientActor>(client).results.len(),
        n,
        h.sim.now()
    );
}

#[test]
fn mkdir_create_stat_list_roundtrip() {
    let mut h = cl_cluster(3);
    let results = run_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/user") },
            FsOp::Mkdir { path: p("/user/alice") },
            FsOp::Create { path: p("/user/alice/file1"), size: 0 },
            FsOp::Stat { path: p("/user/alice/file1") },
            FsOp::List { path: p("/user/alice") },
            FsOp::Stat { path: p("/") },
            FsOp::List { path: p("/") },
        ],
    );
    assert_eq!(results.len(), 7);
    assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok(), "{results:?}");
    match &results[3] {
        Ok(FsOk::Attrs(a)) => {
            assert!(!a.is_dir);
            assert_eq!(a.size, 0);
        }
        other => panic!("stat returned {other:?}"),
    }
    match &results[4] {
        Ok(FsOk::Listing(entries)) => {
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].name, "file1");
        }
        other => panic!("list returned {other:?}"),
    }
    match &results[6] {
        Ok(FsOk::Listing(entries)) => {
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].name, "user");
            assert!(entries[0].attrs.is_dir);
        }
        other => panic!("list / returned {other:?}"),
    }
}

#[test]
fn error_cases_match_posix_expectations() {
    let mut h = cl_cluster(2);
    let results = run_ops(
        &mut h,
        1,
        vec![
            FsOp::Stat { path: p("/nope") },                         // NotFound
            FsOp::Mkdir { path: p("/a/b") },                         // parent missing
            FsOp::Mkdir { path: p("/a") },                           // ok
            FsOp::Mkdir { path: p("/a") },                           // AlreadyExists
            FsOp::Create { path: p("/a"), size: 0 },                 // AlreadyExists
            FsOp::Create { path: p("/a/f"), size: 0 },               // ok
            FsOp::Mkdir { path: p("/a/f/sub") },                     // NotDir
            FsOp::Open { path: p("/a") },                            // IsDir
            FsOp::Delete { path: p("/a"), recursive: false },        // NotEmpty
            FsOp::Delete { path: p("/missing"), recursive: false },  // NotFound
        ],
    );
    assert_eq!(results[0], Err(FsError::NotFound));
    assert_eq!(results[1], Err(FsError::NotFound));
    assert!(results[2].is_ok());
    assert_eq!(results[3], Err(FsError::AlreadyExists));
    assert_eq!(results[4], Err(FsError::AlreadyExists));
    assert!(results[5].is_ok());
    assert_eq!(results[6], Err(FsError::NotDir));
    assert_eq!(results[7], Err(FsError::IsDir));
    assert_eq!(results[8], Err(FsError::NotEmpty));
    assert_eq!(results[9], Err(FsError::NotFound));
}

#[test]
fn delete_then_create_again() {
    let mut h = cl_cluster(2);
    let results = run_ops(
        &mut h,
        2,
        vec![
            FsOp::Mkdir { path: p("/d") },
            FsOp::Create { path: p("/d/f"), size: 0 },
            FsOp::Delete { path: p("/d/f"), recursive: false },
            FsOp::Stat { path: p("/d/f") },
            FsOp::Create { path: p("/d/f"), size: 0 },
            FsOp::Stat { path: p("/d/f") },
            FsOp::Delete { path: p("/d"), recursive: true },
            FsOp::Stat { path: p("/d") },
        ],
    );
    assert!(results[2].is_ok());
    assert_eq!(results[3], Err(FsError::NotFound));
    assert!(results[4].is_ok());
    assert!(results[5].is_ok());
    assert!(results[6].is_ok(), "recursive delete: {:?}", results[6]);
    assert_eq!(results[7], Err(FsError::NotFound));
}

#[test]
fn recursive_delete_removes_subtree() {
    let mut h = cl_cluster(2);
    let mut ops = vec![FsOp::Mkdir { path: p("/tree") }];
    for i in 0..3 {
        ops.push(FsOp::Mkdir { path: p(&format!("/tree/d{i}")) });
        for j in 0..4 {
            ops.push(FsOp::Create { path: p(&format!("/tree/d{i}/f{j}")), size: 0 });
        }
    }
    ops.push(FsOp::Delete { path: p("/tree"), recursive: true });
    ops.push(FsOp::List { path: p("/") });
    ops.push(FsOp::Stat { path: p("/tree/d1/f2") });
    let n = ops.len();
    let results = run_ops(&mut h, 0, ops);
    assert!(results[n - 3].is_ok(), "recursive delete failed: {:?}", results[n - 3]);
    match &results[n - 2] {
        Ok(FsOk::Listing(entries)) => assert!(entries.iter().all(|e| e.name != "tree")),
        other => panic!("list returned {other:?}"),
    }
    assert_eq!(results[n - 1], Err(FsError::NotFound));
}

/// The namenode's op-retry budget: an op refused on every attempt (here by
/// the subtree lock of a long recursive delete) ends `Busy` after exactly 8
/// attempts, i.e. 7 retries.
#[test]
fn op_refused_on_every_attempt_ends_busy_after_eight() {
    let mut cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 1);
    cfg.subtree_batch_size = 4;
    let mut sim = Simulation::new(11);
    sim.set_jitter(0.0);
    let cluster = build_fs_cluster(&mut sim, cfg, 6);
    let mut h = H { sim, cluster };
    h.cluster.bulk_mkdir_p(&mut h.sim, "/big");
    for i in 0..800 {
        h.cluster.bulk_add_file(&mut h.sim, &format!("/big/f{i}"), 0);
    }
    let nn = h.cluster.view.nn_ids[0];
    let delete = vec![FsOp::Delete { path: p("/big"), recursive: true }];
    let deleter = h.cluster.add_client(
        &mut h.sim,
        AzId(0),
        Box::new(ScriptedSource::new(delete)),
        ClientStats::shared(),
    );
    h.sim.actor_mut::<FsClientActor>(deleter).keep_results = true;
    // Let the delete take its subtree lock and start its batches.
    h.sim.run_for(SimDuration::from_millis(100));
    assert!(h.sim.actor::<FsClientActor>(deleter).results.is_empty(), "the delete is still running");
    assert_eq!(h.sim.actor::<hopsfs::NameNodeActor>(nn).stats.tx_retries, 0);

    let results = run_ops(&mut h, 1, vec![FsOp::Create { path: p("/big/late"), size: 0 }]);
    assert_eq!(results, vec![Err(FsError::Busy)]);
    let st = &h.sim.actor::<hopsfs::NameNodeActor>(nn).stats;
    assert_eq!(st.sto_rejections, 8, "one refusal per attempt");
    assert_eq!(st.tx_retries, 7, "retries between the 8 attempts");
    assert!(run_client(&mut h, deleter, 1)[0].is_ok(), "the delete itself completes");
}

#[test]
fn rename_moves_entries_atomically() {
    let mut h = cl_cluster(2);
    let results = run_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/src") },
            FsOp::Mkdir { path: p("/dst") },
            FsOp::Mkdir { path: p("/src/dir") },
            FsOp::Create { path: p("/src/dir/f"), size: 0 },
            FsOp::Rename { src: p("/src/dir"), dst: p("/dst/moved") },
            FsOp::Stat { path: p("/src/dir") },
            FsOp::Stat { path: p("/dst/moved") },
            // The subtree moved with the directory (children key by inode).
            FsOp::Stat { path: p("/dst/moved/f") },
            // Destination exists -> error.
            FsOp::Mkdir { path: p("/src/dir2") },
            FsOp::Rename { src: p("/src/dir2"), dst: p("/dst/moved") },
            // Rename into own subtree -> invalid.
            FsOp::Rename { src: p("/dst"), dst: p("/dst/moved/x") },
            // Rename within the same directory.
            FsOp::Create { path: p("/src/a"), size: 0 },
            FsOp::Rename { src: p("/src/a"), dst: p("/src/b") },
            FsOp::Stat { path: p("/src/b") },
        ],
    );
    assert!(results[4].is_ok(), "rename: {:?}", results[4]);
    assert_eq!(results[5], Err(FsError::NotFound));
    assert!(matches!(&results[6], Ok(FsOk::Attrs(a)) if a.is_dir));
    assert!(results[7].is_ok(), "child path after rename: {:?}", results[7]);
    assert_eq!(results[9], Err(FsError::AlreadyExists));
    assert_eq!(results[10], Err(FsError::Invalid));
    assert!(results[12].is_ok(), "same-dir rename: {:?}", results[12]);
    assert!(results[13].is_ok());
}

#[test]
fn small_files_live_inline_in_metadata() {
    let mut h = cl_cluster(2);
    let results = run_ops(
        &mut h,
        1,
        vec![
            FsOp::Mkdir { path: p("/small") },
            FsOp::Create { path: p("/small/tiny"), size: 4096 },
            FsOp::Open { path: p("/small/tiny") },
        ],
    );
    match &results[2] {
        Ok(FsOk::Locations { attrs, blocks }) => {
            assert_eq!(attrs.size, 4096);
            assert_eq!(attrs.inline_len, 4096, "small file should be inline");
            assert!(blocks.is_empty(), "small files have no blocks");
        }
        other => panic!("open returned {other:?}"),
    }
}

#[test]
fn large_files_get_replicated_blocks() {
    let mut h = cl_cluster(2);
    let size = 300u64 << 20; // 300 MB -> 3 blocks of 128 MB
    let results = run_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/big") },
            FsOp::Create { path: p("/big/blob"), size },
            FsOp::Open { path: p("/big/blob") },
        ],
    );
    match &results[2] {
        Ok(FsOk::Locations { attrs, blocks }) => {
            assert_eq!(attrs.size, size);
            assert_eq!(blocks.len(), 3, "300MB = 3 blocks");
            for b in blocks {
                assert_eq!(b.replicas.len(), 3, "3 replicas per block: {b:?}");
                let mut dns = b.replicas.clone();
                dns.sort_unstable();
                dns.dedup();
                assert_eq!(dns.len(), 3, "replicas on distinct datanodes");
            }
            // AZ-aware placement spans at least 2 AZs.
            let view = &h.cluster.view;
            for b in blocks {
                let azs: simnet::FxHashSet<_> =
                    b.replicas.iter().map(|&d| view.dn_azs[d as usize]).collect();
                assert!(azs.len() >= 2, "block replicas all in one AZ: {b:?}");
            }
        }
        other => panic!("open returned {other:?}"),
    }
    // The blocks physically landed on the datanodes.
    h.sim.run_for(SimDuration::from_secs(2));
    let total_blocks: usize = h
        .cluster
        .view
        .dn_ids
        .iter()
        .map(|&id| h.sim.actor::<hopsfs::block::BlockDnActor>(id).block_count())
        .sum();
    assert_eq!(total_blocks, 9, "3 blocks x 3 replicas stored");
}

#[test]
fn bulk_loaded_namespace_is_visible() {
    let mut h = cl_cluster(2);
    h.cluster.bulk_mkdir_p(&mut h.sim, "/data/logs");
    for i in 0..5 {
        h.cluster.bulk_add_file(&mut h.sim, &format!("/data/logs/day{i}"), 0);
    }
    let results = run_ops(
        &mut h,
        0,
        vec![
            FsOp::Stat { path: p("/data/logs/day3") },
            FsOp::List { path: p("/data/logs") },
            FsOp::Delete { path: p("/data/logs/day0"), recursive: false },
            FsOp::List { path: p("/data/logs") },
        ],
    );
    assert!(results[0].is_ok());
    assert!(matches!(&results[1], Ok(FsOk::Listing(e)) if e.len() == 5));
    assert!(results[2].is_ok());
    assert!(matches!(&results[3], Ok(FsOk::Listing(e)) if e.len() == 4));
}

#[test]
fn vanilla_cluster_serves_the_same_api() {
    let mut h = vanilla_cluster(2);
    let results = run_ops(
        &mut h,
        1,
        vec![
            FsOp::Mkdir { path: p("/v") },
            FsOp::Create { path: p("/v/f"), size: 0 },
            FsOp::Stat { path: p("/v/f") },
            FsOp::Rename { src: p("/v/f"), dst: p("/v/g") },
            FsOp::Stat { path: p("/v/g") },
        ],
    );
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
}

#[test]
fn concurrent_creates_in_one_directory_serialize() {
    let mut h = cl_cluster(3);
    h.cluster.bulk_mkdir_p(&mut h.sim, "/shared");
    // Two clients race to create the same file; exactly one must win.
    let stats = ClientStats::shared();
    let mk = |i: u64| {
        vec![
            FsOp::Create { path: p("/shared/race"), size: 0 },
            FsOp::Create { path: p(&format!("/shared/mine-{i}")), size: 0 },
        ]
    };
    let a = h.cluster.add_client(&mut h.sim, AzId(0), Box::new(ScriptedSource::new(mk(0))), stats.clone());
    let b = h.cluster.add_client(&mut h.sim, AzId(1), Box::new(ScriptedSource::new(mk(1))), stats);
    h.sim.actor_mut::<FsClientActor>(a).keep_results = true;
    h.sim.actor_mut::<FsClientActor>(b).keep_results = true;
    let ra = run_client(&mut h, a, 2);
    let rb = run_client(&mut h, b, 2);
    let wins = [&ra[0], &rb[0]].iter().filter(|r| r.is_ok()).count();
    let losses = [&ra[0], &rb[0]]
        .iter()
        .filter(|r| ***r == Err(FsError::AlreadyExists))
        .count();
    assert_eq!((wins, losses), (1, 1), "a={ra:?} b={rb:?}");
    assert!(ra[1].is_ok() && rb[1].is_ok());
    // The listing shows exactly 3 entries.
    let results = run_ops(&mut h, 2, vec![FsOp::List { path: p("/shared") }]);
    assert!(matches!(&results[0], Ok(FsOk::Listing(e)) if e.len() == 3), "{results:?}");
}

#[test]
fn namenode_failure_fails_over_clients() {
    let mut h = cl_cluster(4);
    h.cluster.bulk_mkdir_p(&mut h.sim, "/ha");
    // Let elections stabilize.
    h.sim.run_until(SimTime::from_secs(5));
    // Kill two namenodes, including the current leader.
    let nn0 = h.cluster.view.nn_ids[0];
    let nn1 = h.cluster.view.nn_ids[1];
    h.sim.kill_node(nn0);
    h.sim.kill_node(nn1);
    // Ops still succeed via the survivors (after client timeout/failover).
    let mut ops = Vec::new();
    for i in 0..10 {
        ops.push(FsOp::Create { path: p(&format!("/ha/f{i}")), size: 0 });
    }
    ops.push(FsOp::List { path: p("/ha") });
    let n = ops.len();
    let results = run_ops(&mut h, 0, ops);
    assert!(results[..n - 1].iter().all(|r| r.is_ok()), "{results:?}");
    assert!(matches!(&results[n - 1], Ok(FsOk::Listing(e)) if e.len() == 10));
    // A new leader emerged among the survivors.
    h.sim.run_for(SimDuration::from_secs(8));
    let leader_votes: Vec<u32> = (2..4)
        .map(|i| h.sim.actor::<hopsfs::NameNodeActor>(h.cluster.view.nn_ids[i]).leader_idx)
        .collect();
    assert!(leader_votes.iter().all(|&l| l >= 2), "dead NN still leads: {leader_votes:?}");
}

#[test]
fn az_failure_cluster_stays_available() {
    let mut h = cl_cluster(6); // 2 NNs per AZ
    h.cluster.bulk_mkdir_p(&mut h.sim, "/drill");
    h.sim.run_until(SimTime::from_secs(3));
    h.sim.kill_az(AzId(2));
    h.sim.run_for(SimDuration::from_secs(3));
    let mut ops = Vec::new();
    for i in 0..5 {
        ops.push(FsOp::Create { path: p(&format!("/drill/f{i}")), size: 0 });
    }
    ops.push(FsOp::List { path: p("/drill") });
    let n = ops.len();
    let results = run_ops(&mut h, 0, ops);
    assert!(results[..n - 1].iter().all(|r| r.is_ok()), "after AZ loss: {results:?}");
}

#[test]
fn dn_failure_triggers_rereplication() {
    let mut h = cl_cluster(2);
    let size = 200u64 << 20; // 2 blocks
    let results = run_ops(
        &mut h,
        0,
        vec![FsOp::Mkdir { path: p("/rr") }, FsOp::Create { path: p("/rr/blob"), size }],
    );
    assert!(results.iter().all(|r| r.is_ok()));
    h.sim.run_for(SimDuration::from_secs(3)); // blocks stored, elections done
    // Kill a datanode that holds at least one block.
    let victim = h
        .cluster
        .view
        .dn_ids
        .iter()
        .position(|&id| h.sim.actor::<hopsfs::block::BlockDnActor>(id).block_count() > 0)
        .expect("someone stores a block");
    let victim_blocks = h
        .sim
        .actor::<hopsfs::block::BlockDnActor>(h.cluster.view.dn_ids[victim])
        .block_count();
    h.sim.kill_node(h.cluster.view.dn_ids[victim]);
    // Leader notices (heartbeat timeout) and re-replicates.
    h.sim.run_for(SimDuration::from_secs(20));
    let live_copies: usize = h
        .cluster
        .view
        .dn_ids
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, &id)| h.sim.actor::<hopsfs::block::BlockDnActor>(id).block_count())
        .sum();
    assert_eq!(
        live_copies,
        6,
        "each of 2 blocks should be back at 3 live replicas (victim held {victim_blocks})"
    );
    // Re-opening the file reports only live datanodes eventually.
    let results = run_ops(&mut h, 1, vec![FsOp::Open { path: p("/rr/blob") }]);
    match &results[0] {
        Ok(FsOk::Locations { blocks, .. }) => {
            for b in blocks {
                assert_eq!(b.replicas.len(), 3);
                assert!(
                    b.replicas.iter().all(|&d| d as usize != victim),
                    "metadata still lists the dead datanode: {b:?}"
                );
            }
        }
        other => panic!("open returned {other:?}"),
    }
}

/// Regression (hint-cache staleness): a recursive delete must invalidate
/// the namenode's inode-hint cache for the *whole* subtree, not just the
/// root's own `(parent, name)` entry. Before the fix, delete-then-recreate
/// of the same names left descendant hints pointing at dead inode ids, so
/// later resolutions could bind to the old tree's inodes.
#[test]
fn hints_are_invalidated_for_whole_subtree_on_recursive_delete() {
    use hopsfs::InodeId;
    let mut h = cl_cluster(1); // one namenode, so its cache serves every op
    let nn_id = h.cluster.view.nn_ids[0];

    // Build and warm: stat/list walk the chain and plant hints for it.
    let results = run_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/d") },
            FsOp::Mkdir { path: p("/d/sub") },
            FsOp::Create { path: p("/d/sub/f"), size: 7 },
            FsOp::Stat { path: p("/d/sub/f") },
            FsOp::List { path: p("/d/sub") },
        ],
    );
    assert!(results.iter().all(|r| r.is_ok()), "build+warm failed: {results:?}");

    // White-box: the ancestor-hint chain root -> d -> sub is cached (only
    // intermediate directories are hinted; lock targets are not).
    let chain = {
        let cache = h.sim.actor::<hopsfs::NameNodeActor>(nn_id).hint_cache();
        let (d, _) = cache.peek(InodeId::ROOT.0, "d").expect("hint for /d");
        let (sub, _) = cache.peek(d, "sub").expect("hint for /d/sub");
        (d, sub)
    };

    let results = run_ops(&mut h, 0, vec![FsOp::Delete { path: p("/d"), recursive: true }]);
    assert!(results[0].is_ok(), "recursive delete failed: {:?}", results[0]);

    // White-box: every hint of the old subtree is gone, at every level —
    // the fix under test; dropping only (root, "d") left (d, "sub") stale.
    {
        let cache = h.sim.actor::<hopsfs::NameNodeActor>(nn_id).hint_cache();
        assert!(cache.peek(InodeId::ROOT.0, "d").is_none(), "stale hint for deleted /d");
        assert!(cache.peek(chain.0, "sub").is_none(), "stale hint for deleted /d/sub");
    }

    // Black-box: recreate the same names with different shapes; resolution
    // must see the new inodes, not the old tree. (`f` is a directory now —
    // a stale hint would misreport it as the old 7-byte file.)
    let results = run_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/d") },
            FsOp::Mkdir { path: p("/d/sub") },
            FsOp::Mkdir { path: p("/d/sub/f") },
            FsOp::Stat { path: p("/d/sub/f") },
            FsOp::List { path: p("/d/sub") },
        ],
    );
    assert!(results[..3].iter().all(|r| r.is_ok()), "recreate failed: {results:?}");
    match &results[3] {
        Ok(FsOk::Attrs(a)) => assert!(a.is_dir, "stale hint resolved old file inode: {a:?}"),
        other => panic!("stat of recreated /d/sub/f returned {other:?}"),
    }
    match &results[4] {
        Ok(FsOk::Listing(entries)) => {
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].name, "f");
        }
        other => panic!("list of recreated /d/sub returned {other:?}"),
    }
    // The recreated chain re-warmed the cache with *new* inode ids.
    let cache = h.sim.actor::<hopsfs::NameNodeActor>(nn_id).hint_cache();
    if let Some((d2, _)) = cache.peek(InodeId::ROOT.0, "d") {
        assert_ne!(d2, chain.0, "recreated /d reuses the deleted inode id");
    }
}

// ---------------------------------------------------------------------------
// Leased client cache: id-rebirth and rename interaction regressions
// ---------------------------------------------------------------------------

fn lease_cluster() -> H {
    let mut cfg = hopsfs::FsConfig::hopsfs_cl(6, 3, 3);
    cfg.lease.enabled = true;
    cfg.lease.ttl = SimDuration::from_secs(30);
    let mut sim = Simulation::new(11);
    sim.set_jitter(0.0);
    let cluster = build_fs_cluster(&mut sim, cfg, 6);
    H { sim, cluster }
}

/// Like [`run_ops`], but on a single persistent client with the lease
/// coherence monitor attached, returning stats and monitor for inspection.
fn run_lease_ops(
    h: &mut H,
    az: u8,
    ops: Vec<FsOp>,
) -> (
    Vec<hopsfs::FsResult>,
    std::sync::Arc<std::sync::Mutex<ClientStats>>,
    std::sync::Arc<std::sync::Mutex<hopsfs::LeaseMonitor>>,
) {
    let n = ops.len();
    let stats = ClientStats::shared();
    let mon = std::sync::Arc::new(std::sync::Mutex::new(hopsfs::LeaseMonitor::default()));
    let c = h.cluster.add_client(
        &mut h.sim,
        AzId(az),
        Box::new(ScriptedSource::new(ops)),
        stats.clone(),
    );
    {
        let a = h.sim.actor_mut::<FsClientActor>(c);
        a.keep_results = true;
        a.monitor = Some(mon.clone());
    }
    let results = run_client(h, c, n);
    (results, stats, mon)
}

#[test]
fn lease_does_not_survive_delete_and_recreate() {
    let mut h = lease_cluster();
    // Past the grant warm-up (election visibility window).
    h.sim.run_until(SimTime::from_secs(7));
    let (r, stats, mon) = run_lease_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/d") },
            FsOp::Create { path: p("/d/f"), size: 0 },
            FsOp::Stat { path: p("/d/f") }, // grants a lease on the chain
            FsOp::Stat { path: p("/d/f") }, // served locally from the lease
            FsOp::Delete { path: p("/d/f"), recursive: false },
            FsOp::Create { path: p("/d/f"), size: 1000 }, // same name, new inode
            FsOp::Stat { path: p("/d/f") }, // must see the REBORN file
        ],
    );
    assert!(r.iter().all(|x| x.is_ok()), "{r:?}");
    let old_id = match &r[2] {
        Ok(FsOk::Attrs(a)) => a.id,
        other => panic!("stat returned {other:?}"),
    };
    match &r[6] {
        Ok(FsOk::Attrs(a)) => {
            assert_eq!(a.size, 1000, "stale lease served the pre-delete file: {a:?}");
            assert_ne!(a.id, old_id, "recreate reused the deleted inode id");
        }
        other => panic!("stat of recreated file returned {other:?}"),
    }
    let s = stats.lock().unwrap();
    assert!(s.lease_hits >= 1, "the repeat stat never hit the lease cache");
    assert!(s.lease_invalidations >= 1, "the delete's conflict notice dropped nothing");
    assert_eq!(mon.lock().unwrap().violations, 0, "lease served data across its own delete");
}

#[test]
fn lease_respects_rename_over_existing_and_rename_away() {
    let mut h = lease_cluster();
    h.sim.run_until(SimTime::from_secs(7));
    let (r, stats, mon) = run_lease_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/a") },
            FsOp::Create { path: p("/a/x"), size: 0 },
            FsOp::Create { path: p("/a/y"), size: 0 },
            FsOp::Stat { path: p("/a/x") }, // grant
            FsOp::Stat { path: p("/a/x") }, // local hit
            // Rename over an existing destination fails (no overwrite) and
            // must NOT invalidate the target's lease — nothing changed.
            FsOp::Rename { src: p("/a/y"), dst: p("/a/x") },
            FsOp::Stat { path: p("/a/x") }, // still serveable from lease
            FsOp::Rename { src: p("/a/x"), dst: p("/a/z") },
            FsOp::Stat { path: p("/a/x") }, // gone — cache must not resurrect it
            FsOp::Stat { path: p("/a/z") },
        ],
    );
    assert!(r[..5].iter().all(|x| x.is_ok()), "{r:?}");
    assert_eq!(r[5], Err(FsError::AlreadyExists), "rename-over-existing must fail");
    assert!(r[6].is_ok(), "failed rename wrongly killed the target lease: {:?}", r[6]);
    assert!(r[7].is_ok(), "rename away failed: {:?}", r[7]);
    assert_eq!(r[8], Err(FsError::NotFound), "lease served a renamed-away path");
    assert!(r[9].is_ok(), "{:?}", r[9]);
    let s = stats.lock().unwrap();
    assert!(s.lease_hits >= 2, "expected local serves at ops 4 and 6, got {}", s.lease_hits);
    assert_eq!(mon.lock().unwrap().violations, 0);
}

#[test]
fn stale_chain_fallback_keeps_unrelated_hot_entries() {
    let mut h = cl_cluster(1);
    let view = h.cluster.view.clone();
    let nn = view.nn_ids[0];
    let r = run_ops(
        &mut h,
        0,
        vec![
            FsOp::Mkdir { path: p("/hot") },
            FsOp::Mkdir { path: p("/hot/a") },
            FsOp::Create { path: p("/hot/a/f"), size: 0 },
            FsOp::Stat { path: p("/hot/a/f") }, // caches /hot and /hot/a links
            FsOp::Mkdir { path: p("/cold") },
            FsOp::Create { path: p("/cold/x"), size: 0 },
            FsOp::Stat { path: p("/cold/x") }, // caches the /cold link
        ],
    );
    assert!(r.iter().all(|x| x.is_ok()), "{r:?}");
    // Provoke the stale-chain fallback: a walk through the cached /hot/a
    // chain breaks on a missing intermediate ("sub"). The namenode cannot
    // tell a plain miss from a moved ancestor, so it drops the chain and
    // retries from the root — but must NOT flush the whole working set.
    let r2 = run_ops(&mut h, 0, vec![FsOp::Stat { path: p("/hot/a/sub/missing") }]);
    assert_eq!(r2[0], Err(FsError::NotFound), "{r2:?}");
    assert!(
        h.sim.actor::<hopsfs::NameNodeActor>(nn).stats.cache_stale_drops >= 1,
        "the stale-chain fallback never fired"
    );
    // The unrelated /cold hint survived the scoped drop: the next stat
    // resolves its ancestor from the cache, not from the database.
    let hits_before = h.sim.actor::<hopsfs::NameNodeActor>(nn).stats.cache_hits;
    let r3 = run_ops(&mut h, 0, vec![FsOp::Stat { path: p("/cold/x") }]);
    assert!(r3[0].is_ok(), "{r3:?}");
    let hits_after = h.sim.actor::<hopsfs::NameNodeActor>(nn).stats.cache_hits;
    assert!(
        hits_after > hits_before,
        "scoped stale drop flushed unrelated hot entries (hits {hits_before} -> {hits_after})"
    );
}
