//! The experiment runner: deploys one of the paper's setups, drives it with
//! a workload under closed-loop load, and collects every metric the paper's
//! figures need from a warm measurement window.

use crate::setup::Setup;
use cephsim::{build_ceph_cluster, CephCluster, CephConfig};
use hopsfs::client::ClientStats;
use hopsfs::{build_fs_cluster, FsConfig, NameNodeActor, OpKind};
use serde::{Deserialize, Serialize};
use simnet::{AzId, FxHashMap, NodeId, SimDuration, SimTime, Simulation};
use std::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use workload::{MicroOp, MicroSource, Mix, Namespace, NamespaceSpec, SpotifySource};

/// Which workload drives the clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The Spotify-trace mix (§V-B1).
    Spotify,
    /// One of the single-op micro-benchmarks (§V-B2).
    Micro(MicroOp),
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Metadata servers (namenodes / MDSs).
    pub servers: usize,
    /// Client sessions per metadata server, before scaling (the paper's
    /// benchmark ran hundreds of client threads per server).
    pub sessions_per_server: usize,
    /// Uniform scale-down factor (thread pools, client counts ÷; reported
    /// throughput ×). See `DESIGN.md`.
    pub scale: usize,
    /// Warm-up before the measurement window.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Namespace shape.
    pub ns: NamespaceSpec,
    /// Workload.
    pub load: Load,
    /// NDB datanodes (paper: 12) / also the OSD count for CephFS.
    pub storage_nodes: usize,
    /// Files pre-created per session for the delete micro-benchmark.
    pub delete_precreate: u64,
    /// Optional configuration tweak applied to HopsFS deployments after the
    /// setup's config is built (ablations, Figure 14's read-backup toggle).
    pub tweak: Option<fn(&mut FsConfig)>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            servers: 12,
            sessions_per_server: 96,
            scale: std::env::var("BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(4),
            warmup: SimDuration::from_millis(1500),
            measure: SimDuration::from_millis(1000),
            seed: 42,
            ns: NamespaceSpec::default(),
            load: Load::Spotify,
            storage_nodes: 12,
            delete_precreate: 300,
            tweak: None,
        }
    }
}

impl Params {
    /// Effective (scaled) session count for a run.
    pub fn session_count(&self) -> usize {
        ((self.servers * self.sessions_per_server) / self.scale.max(1)).max(1)
    }
}

/// Everything one run measures (all rates already scaled back up).
///
/// Serialized form is deterministic: map fields are `BTreeMap` (stable key
/// order) and the wall-clock diagnostic is skipped, so the JSON for a run —
/// and for the artifacts built from it — is byte-identical across repeat
/// runs and across `run_grid` thread counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Setup label.
    pub label: String,
    /// Metadata-server count.
    pub servers: usize,
    /// RNG seed the cell ran under (the first seed, for multi-seed merges;
    /// absent in result files saved by older versions).
    #[serde(default)]
    pub seed: u64,
    /// Seeds averaged into this result (1 for a plain single-seed run).
    #[serde(default)]
    pub seed_runs: u64,
    /// Client-visible throughput, ops/s.
    pub throughput: f64,
    /// Mean end-to-end latency, ms.
    pub avg_latency_ms: f64,
    /// Per-kind `[p50, p90, p99]` latency in ms.
    pub latency_pct_ms: BTreeMap<String, [f64; 3]>,
    /// Per-kind throughput, ops/s.
    pub per_kind_tput: BTreeMap<String, f64>,
    /// Requests handled per metadata server per second (Figure 6).
    pub per_server_handled: f64,
    /// Mean CPU utilization of the metadata *storage* nodes (Figure 10a).
    pub storage_cpu: f64,
    /// Mean CPU utilization of the metadata *servers* (Figure 10b).
    pub server_cpu: f64,
    /// NDB per-thread-class utilization (Figure 11; empty for CephFS).
    pub ndb_thread_util: Vec<(String, f64)>,
    /// Storage-layer per-node network MB/s `[rx, tx]` (Figure 12a/b).
    pub storage_net_mb_s: [f64; 2],
    /// Storage-layer per-node disk MB/s `[read, write]` (Figure 12c/d).
    pub storage_disk_mb_s: [f64; 2],
    /// Metadata-server per-node network MB/s `[rx, tx]` (Figure 13a/b).
    pub server_net_mb_s: [f64; 2],
    /// Reads served per replica rank `[primary, backup1, backup2]`
    /// over the window (Figure 14; empty for CephFS).
    pub reads_by_rank: [u64; 3],
    /// Reads per (inode-table partition, replica rank) (Figure 14 detail).
    pub reads_by_partition_rank: Vec<(u32, u8, u64)>,
    /// Failed-op tallies.
    pub errors: BTreeMap<String, u64>,
    /// Cross-AZ bytes during the window (cost analysis).
    pub cross_az_bytes: u64,
    /// Simulation events processed (diagnostics).
    pub events: u64,
    /// Wall-clock milliseconds spent (diagnostics; never serialized — it
    /// would make otherwise-identical runs produce different artifacts).
    #[serde(skip)]
    pub wall_ms: u64,
    /// Per-layer time breakdown over the measurement window (absent in
    /// result files saved by older versions).
    #[serde(default)]
    pub breakdown: crate::artifact::LayerBreakdown,
}

#[derive(Debug, Clone, Default)]
struct NodeSnap {
    net_in: u64,
    net_out: u64,
    disk_r: u64,
    disk_w: u64,
    lanes_busy: Vec<(&'static str, SimDuration)>,
}

fn snap_node(sim: &Simulation, id: NodeId) -> NodeSnap {
    NodeSnap {
        net_in: sim.net_in_bytes(id),
        net_out: sim.net_out_bytes(id),
        disk_r: sim.disk(id).map(|d| d.bytes_read()).unwrap_or(0),
        disk_w: sim.disk(id).map(|d| d.bytes_written()).unwrap_or(0),
        lanes_busy: sim.lanes(id).snapshot_busy(),
    }
}

#[derive(Debug, Default)]
struct Baseline {
    at: SimTime,
    storage: Vec<NodeSnap>,
    servers: Vec<NodeSnap>,
    server_ops: Vec<u64>,
    reads_rank: FxHashMap<(u32, u8), u64>,
    cross_az: u64,
}

fn capture(
    sim: &Simulation,
    storage_ids: &[NodeId],
    server_ids: &[NodeId],
    server_ops: impl Fn(&Simulation, NodeId) -> u64,
    reads_rank: impl Fn(&Simulation) -> FxHashMap<(u32, u8), u64>,
) -> Baseline {
    Baseline {
        at: sim.now(),
        storage: storage_ids.iter().map(|&id| snap_node(sim, id)).collect(),
        servers: server_ids.iter().map(|&id| snap_node(sim, id)).collect(),
        server_ops: server_ids.iter().map(|&id| server_ops(sim, id)).collect(),
        reads_rank: reads_rank(sim),
        cross_az: sim.cross_az_bytes(),
    }
}

fn lane_util(
    sim: &Simulation,
    ids: &[NodeId],
    before: &[NodeSnap],
    window: SimDuration,
) -> (f64, Vec<(String, f64)>) {
    let mut per_class: FxHashMap<&'static str, (f64, usize)> = FxHashMap::default();
    let mut node_utils = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let lanes = sim.lanes(id);
        let mut busy_total = SimDuration::ZERO;
        let mut threads_total = 0usize;
        for &(class, busy0) in &before[i].lanes_busy {
            let busy = lanes.busy_total(class).saturating_sub(busy0);
            let threads = lanes.threads(class);
            busy_total += busy;
            threads_total += threads;
            let cap = window.as_nanos() as f64 * threads as f64;
            if cap > 0.0 {
                let e = per_class.entry(class).or_insert((0.0, 0));
                e.0 += (busy.as_nanos() as f64 / cap).min(1.0);
                e.1 += 1;
            }
        }
        if threads_total > 0 {
            let cap = window.as_nanos() as f64 * threads_total as f64;
            node_utils.push((busy_total.as_nanos() as f64 / cap).min(1.0));
        }
    }
    let avg = if node_utils.is_empty() {
        0.0
    } else {
        node_utils.iter().sum::<f64>() / node_utils.len() as f64
    };
    let mut classes: Vec<(String, f64)> = per_class
        .into_iter()
        .map(|(class, (sum, n))| (class.to_string(), sum / n as f64))
        .collect();
    classes.sort_by(|a, b| a.0.cmp(&b.0));
    (avg, classes)
}

fn mb_per_s(bytes: u64, window: SimDuration, nodes: usize, scale: usize) -> f64 {
    if nodes == 0 || window == SimDuration::ZERO {
        return 0.0;
    }
    bytes as f64 * scale as f64 / window.as_secs_f64() / nodes as f64 / 1e6
}

/// Runs one experiment point.
pub fn run(setup: Setup, params: &Params) -> RunResult {
    let wall_start = std::time::Instant::now();
    let mut sim = Simulation::new(params.seed);
    // CephFS cells keep the sequential kernel: their MDSs share one
    // namespace object behind a lock, so parallel shards would race on it
    // within a window. HopsFS cells are pure message-passing actors and
    // shard cleanly; results are bit-identical for any shard count.
    if !matches!(setup, Setup::Ceph { .. }) {
        sim.set_shards(shards());
    }
    // Effective per-tenant inter-AZ capacity per directed AZ pair (~3 Gb/s;
    // a calibration constant documented in DESIGN.md). This is what makes
    // "network I/O become a bottleneck" for non-AZ-aware deployments at high
    // metadata-server counts (§V-B1).
    sim.set_inter_az_bandwidth(Some(380_000_000 / params.scale.max(1) as u64));
    let ns = Arc::new(Namespace::generate(&params.ns));
    let stats = ClientStats::shared();
    stats.lock().unwrap().recording = false;

    // Deploy + load + add clients; returns the node sets to probe and the
    // per-server handled-requests accessor.
    let (storage_ids, server_ids, is_ceph): (Vec<NodeId>, Vec<NodeId>, bool) = match setup {
        Setup::HopsFs { .. } | Setup::HopsFsCl { .. } => {
            let cfg = match setup {
                Setup::HopsFs { r, azs } => {
                    FsConfig::hopsfs(params.storage_nodes, r, azs, params.servers)
                }
                Setup::HopsFsCl { r } => FsConfig::hopsfs_cl(params.storage_nodes, r, params.servers),
                Setup::Ceph { .. } => unreachable!(),
            };
            let mut cfg = cfg.scaled_down(params.scale);
            cfg.election_period = SimDuration::from_millis(1000);
            if let Some(tweak) = params.tweak {
                tweak(&mut cfg);
            }
            let azs = cfg.azs.clone();
            let mut cluster = build_fs_cluster(&mut sim, cfg, 0);
            ns.load_hopsfs(&mut sim, &mut cluster, params.ns.file_size);
            add_hopsfs_sessions(&mut sim, &mut cluster, &ns, params, &azs, &stats);
            (cluster.view.ndb.datanode_ids.clone(), cluster.view.nn_ids.clone(), false)
        }
        Setup::Ceph { mode, skip_kcache } => {
            let mut cfg = CephConfig::paper(params.servers, mode, skip_kcache);
            cfg.osd_count = params.storage_nodes;
            let cfg = cfg.scaled_down(params.scale);
            let azs = cfg.azs.clone();
            let mut cluster = build_ceph_cluster(&mut sim, cfg);
            ns.load_ceph(&mut cluster, params.ns.file_size);
            let clients = add_ceph_sessions(&mut sim, &mut cluster, &ns, params, &azs, &stats);
            cluster.apply_pinning();
            if !skip_kcache {
                // Steady-state capability cache: every session already holds
                // caps on the hot file set and the directory attributes, as
                // a long-warmed cluster would.
                let mut warm: FxHashMap<(String, bool), hopsfs::FsOk> = FxHashMap::default();
                {
                    let store = cluster.ns.lock().unwrap();
                    for f in ns.files.iter().take(1024) {
                        if let Some(e) = store.get(f) {
                            warm.insert((f.clone(), false), hopsfs::FsOk::Attrs(e.attrs()));
                        }
                    }
                    for d in &ns.dirs {
                        if let Ok(listing) = store.list(d) {
                            warm.insert((d.clone(), true), hopsfs::FsOk::Listing(listing));
                        }
                    }
                }
                let warm = Arc::new(warm);
                for &c in &clients {
                    sim.actor_mut::<cephsim::CephClientActor>(c).prewarm = Some(Arc::clone(&warm));
                }
            }
            (cluster.osd_ids.clone(), cluster.mds_ids.clone(), true)
        }
    };

    let server_ops = move |sim: &Simulation, id: NodeId| -> u64 {
        if is_ceph {
            sim.actor::<cephsim::MdsActor>(id).stats.requests
        } else {
            sim.actor::<NameNodeActor>(id).stats.total_ok()
        }
    };
    let storage_for_reads = storage_ids.clone();
    let reads_rank = move |sim: &Simulation| -> FxHashMap<(u32, u8), u64> {
        let mut out = FxHashMap::default();
        if is_ceph {
            return out;
        }
        for &id in &storage_for_reads {
            let dn = sim.actor::<ndb::DatanodeActor>(id);
            for (&(table, pid, rank), &count) in &dn.stats.reads_by_partition_rank {
                // Inode table is table 0 in the HopsFS schema.
                if table == ndb::TableId(0) {
                    *out.entry((pid, rank)).or_insert(0) += count;
                }
            }
        }
        out
    };

    // Warm up, then open the measurement window. CephFS needs a much longer
    // warm-up than HopsFS: its client caches and (in dynamic mode) the
    // subtree balancer converge over many seconds of virtual time — cheap to
    // simulate because the system is slow while cold.
    let warmup = if is_ceph { params.warmup.max(SimDuration::from_secs(30)) } else { params.warmup };
    let baseline: Arc<Mutex<Option<Baseline>>> = Arc::new(Mutex::new(None));
    {
        let baseline = Arc::clone(&baseline);
        let stats = Arc::clone(&stats);
        let storage_ids = storage_ids.clone();
        let server_ids = server_ids.clone();
        let reads_rank = reads_rank.clone();
        sim.at(SimTime::ZERO + warmup, move |sim| {
            stats.lock().unwrap().recording = true;
            // Restart the layer-metrics window so the exported breakdown
            // covers only the measurement interval (no RNG, no events).
            sim.metrics_mut().clear();
            *baseline.lock().unwrap() =
                Some(capture(sim, &storage_ids, &server_ids, server_ops, reads_rank));
        });
    }
    sim.run_until(SimTime::ZERO + warmup + params.measure);
    let end = capture(&sim, &storage_ids, &server_ids, server_ops, reads_rank);
    let base = baseline.lock().unwrap().take().expect("warmup hook ran");
    let window = end.at.saturating_since(base.at);
    let window_s = window.as_secs_f64();
    let scale = params.scale.max(1);

    let st = stats.lock().unwrap();
    let throughput = st.total_ok() as f64 * scale as f64 / window_s;
    let mut latency_pct_ms = BTreeMap::new();
    let mut per_kind_tput = BTreeMap::new();
    for kind in OpKind::ALL {
        let h = st.latency_of(kind);
        if h.count() > 0 {
            latency_pct_ms.insert(
                kind.name().to_string(),
                [
                    h.quantile(0.5) as f64 / 1e6,
                    h.quantile(0.9) as f64 / 1e6,
                    h.quantile(0.99) as f64 / 1e6,
                ],
            );
            per_kind_tput
                .insert(kind.name().to_string(), st.ok_of(kind) as f64 * scale as f64 / window_s);
        }
    }
    let handled: u64 =
        end.server_ops.iter().zip(&base.server_ops).map(|(e, b)| e - b).sum();
    let per_server_handled = handled as f64 * scale as f64 / window_s / server_ids.len() as f64;

    let (storage_cpu, ndb_thread_util) = lane_util(&sim, &storage_ids, &base.storage, window);
    let (server_cpu, _) = lane_util(&sim, &server_ids, &base.servers, window);

    let sum_delta = |nodes_end: &[NodeId], before: &[NodeSnap], f: fn(&NodeSnap) -> u64, g: fn(&Simulation, NodeId) -> u64| -> u64 {
        nodes_end
            .iter()
            .zip(before)
            .map(|(&id, b)| g(&sim, id).saturating_sub(f(b)))
            .sum()
    };
    let storage_rx = sum_delta(&storage_ids, &base.storage, |s| s.net_in, |sim, id| sim.net_in_bytes(id));
    let storage_tx = sum_delta(&storage_ids, &base.storage, |s| s.net_out, |sim, id| sim.net_out_bytes(id));
    let storage_dr = sum_delta(&storage_ids, &base.storage, |s| s.disk_r, |sim, id| {
        sim.disk(id).map(|d| d.bytes_read()).unwrap_or(0)
    });
    let storage_dw = sum_delta(&storage_ids, &base.storage, |s| s.disk_w, |sim, id| {
        sim.disk(id).map(|d| d.bytes_written()).unwrap_or(0)
    });
    let server_rx = sum_delta(&server_ids, &base.servers, |s| s.net_in, |sim, id| sim.net_in_bytes(id));
    let server_tx = sum_delta(&server_ids, &base.servers, |s| s.net_out, |sim, id| sim.net_out_bytes(id));

    let mut reads_by_rank = [0u64; 3];
    let mut reads_by_partition_rank = Vec::new();
    for (&(pid, rank), &count) in &end.reads_rank {
        let delta = count - base.reads_rank.get(&(pid, rank)).copied().unwrap_or(0);
        if (rank as usize) < 3 {
            reads_by_rank[rank as usize] += delta;
        }
        if delta > 0 {
            reads_by_partition_rank.push((pid, rank, delta));
        }
    }
    reads_by_partition_rank.sort_unstable();

    RunResult {
        label: setup.label(),
        servers: params.servers,
        seed: params.seed,
        seed_runs: 1,
        throughput,
        avg_latency_ms: st.latency_all.mean() / 1e6,
        latency_pct_ms,
        per_kind_tput,
        per_server_handled,
        storage_cpu,
        server_cpu,
        ndb_thread_util: if is_ceph { Vec::new() } else { ndb_thread_util },
        storage_net_mb_s: [
            mb_per_s(storage_rx, window, storage_ids.len(), scale),
            mb_per_s(storage_tx, window, storage_ids.len(), scale),
        ],
        storage_disk_mb_s: [
            mb_per_s(storage_dr, window, storage_ids.len(), scale),
            mb_per_s(storage_dw, window, storage_ids.len(), scale),
        ],
        server_net_mb_s: [
            mb_per_s(server_rx, window, server_ids.len(), scale),
            mb_per_s(server_tx, window, server_ids.len(), scale),
        ],
        reads_by_rank,
        reads_by_partition_rank,
        errors: st.errors.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
        cross_az_bytes: (sim.cross_az_bytes() - base.cross_az) * scale as u64,
        events: sim.events_processed(),
        wall_ms: wall_start.elapsed().as_millis() as u64,
        breakdown: crate::artifact::LayerBreakdown::from_registry(sim.metrics()),
    }
}

fn add_hopsfs_sessions(
    sim: &mut Simulation,
    cluster: &mut hopsfs::FsCluster,
    ns: &Arc<Namespace>,
    params: &Params,
    azs: &[AzId],
    stats: &Arc<Mutex<ClientStats>>,
) {
    let sessions = params.session_count();
    for s in 0..sessions as u64 {
        let az = azs[s as usize % azs.len()];
        let source: Box<dyn hopsfs::OpSource> = match params.load {
            Load::Spotify => {
                cluster.bulk_mkdir_p(sim, &SpotifySource::private_dir_for(s));
                Box::new(SpotifySource::new(Arc::clone(ns), Mix::SPOTIFY, s))
            }
            Load::Micro(op) => {
                cluster.bulk_mkdir_p(sim, &MicroSource::private_dir_for(s));
                if op == MicroOp::Delete {
                    for p in MicroSource::precreate_paths(s, params.delete_precreate) {
                        cluster.bulk_add_file(sim, &p, 0);
                    }
                }
                Box::new(MicroSource::new(op, Arc::clone(ns), s, params.delete_precreate))
            }
        };
        cluster.add_client(sim, az, source, Arc::clone(stats));
    }
}

fn add_ceph_sessions(
    sim: &mut Simulation,
    cluster: &mut CephCluster,
    ns: &Arc<Namespace>,
    params: &Params,
    azs: &[AzId],
    stats: &Arc<Mutex<ClientStats>>,
) -> Vec<NodeId> {
    let sessions = params.session_count();
    let mut ids = Vec::with_capacity(sessions);
    for s in 0..sessions as u64 {
        let az = azs[s as usize % azs.len()];
        let source: Box<dyn hopsfs::OpSource> = match params.load {
            Load::Spotify => {
                cluster.bulk_mkdir_p(&SpotifySource::private_dir_for(s));
                Box::new(SpotifySource::new(Arc::clone(ns), Mix::SPOTIFY, s))
            }
            Load::Micro(op) => {
                cluster.bulk_mkdir_p(&MicroSource::private_dir_for(s));
                if op == MicroOp::Delete {
                    for p in MicroSource::precreate_paths(s, params.delete_precreate) {
                        cluster.bulk_add_file(&p, 0);
                    }
                }
                Box::new(MicroSource::new(op, Arc::clone(ns), s, params.delete_precreate))
            }
        };
        ids.push(cluster.add_client(sim, az, source, Arc::clone(stats)));
    }
    ids
}

/// Worker-thread count for [`run_grid`]: `--threads N` on the command line
/// (the figure benches are `harness = false` binaries), else the
/// `BENCH_THREADS` environment variable, else all available cores.
pub fn threads() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            if let Ok(n) = v.parse() {
                return n;
            }
        }
    }
    if let Some(n) = std::env::var("BENCH_THREADS").ok().and_then(|v| v.parse().ok()) {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Kernel shard count for every HopsFS-family cell a bench runs:
/// `--shards N` on the command line, else the `BENCH_SHARDS` environment
/// variable, else 1 (the sequential kernel). Any value is safe — artifacts
/// are bit-identical across shard counts (the sharded-kernel determinism
/// battery enforces it); the knob only trades wall-clock for cores.
pub fn shards() -> u32 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--shards" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(v) = a.strip_prefix("--shards=") {
            if let Ok(n) = v.parse() {
                return n;
            }
        }
    }
    std::env::var("BENCH_SHARDS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// Runs many experiment points in parallel OS threads (each thread builds
/// and runs its own simulation; results are plain data). Thread count comes
/// from [`threads`].
pub fn run_grid(jobs: Vec<(Setup, Params)>) -> Vec<RunResult> {
    run_grid_with_threads(jobs, threads())
}

/// [`run_grid`] with an explicit worker count. Every `(setup, params)` cell
/// is independent — each worker owns its `Simulation` — and results come
/// back in job order regardless of which worker ran what or when, so the
/// output (and any artifact built from it) is identical for any `workers`.
pub fn run_grid_with_threads(jobs: Vec<(Setup, Params)>, workers: usize) -> Vec<RunResult> {
    let workers = workers.max(1).min(jobs.len().max(1));
    let jobs = Arc::new(parking_lot::Mutex::new(
        jobs.into_iter().enumerate().collect::<Vec<_>>(),
    ));
    let results = Arc::new(parking_lot::Mutex::new(Vec::<(usize, RunResult)>::new()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let jobs = Arc::clone(&jobs);
            let results = Arc::clone(&results);
            scope.spawn(move || loop {
                let job = jobs.lock().pop();
                match job {
                    Some((idx, (setup, params))) => {
                        let r = run(setup, &params);
                        results.lock().push((idx, r));
                    }
                    None => break,
                }
            });
        }
    });
    let mut out = Arc::try_unwrap(results).expect("threads joined").into_inner();
    out.sort_by_key(|&(idx, _)| idx);
    out.into_iter().map(|(_, r)| r).collect()
}

impl RunResult {
    /// Deterministically merges same-cell runs that differ only in seed:
    /// rates and utilizations average arithmetically in input order, tallies
    /// (errors, reads, events) sum, and the per-layer breakdown is kept from
    /// the first seed (histograms don't average meaningfully). Wall-clock
    /// sums, since the seeds really were all run.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or mixes cells (label/server mismatch).
    pub fn merge_seeds(runs: &[RunResult]) -> RunResult {
        let first = runs.first().expect("merge_seeds needs at least one run");
        assert!(
            runs.iter().all(|r| r.label == first.label && r.servers == first.servers),
            "merge_seeds must not mix cells"
        );
        let n = runs.len() as f64;
        let mean = |f: fn(&RunResult) -> f64| runs.iter().map(f).sum::<f64>() / n;
        // Union of keys, averaging over the runs that have each key (a kind
        // absent from a run saw no traffic there).
        let mut latency_pct_ms = BTreeMap::new();
        let mut per_kind_tput = BTreeMap::new();
        for r in runs {
            for (k, v) in &r.latency_pct_ms {
                let e = latency_pct_ms.entry(k.clone()).or_insert(([0.0f64; 3], 0u32));
                for (acc, x) in e.0.iter_mut().zip(v) {
                    *acc += x;
                }
                e.1 += 1;
            }
            for (k, &v) in &r.per_kind_tput {
                let e = per_kind_tput.entry(k.clone()).or_insert((0.0f64, 0u32));
                e.0 += v;
                e.1 += 1;
            }
        }
        let mut errors: BTreeMap<String, u64> = BTreeMap::new();
        for r in runs {
            for (k, &v) in &r.errors {
                *errors.entry(k.clone()).or_insert(0) += v;
            }
        }
        let mut thread_util: BTreeMap<String, (f64, u32)> = BTreeMap::new();
        for r in runs {
            for (class, u) in &r.ndb_thread_util {
                let e = thread_util.entry(class.clone()).or_insert((0.0, 0));
                e.0 += u;
                e.1 += 1;
            }
        }
        let mut reads_by_rank = [0u64; 3];
        let mut by_partition: BTreeMap<(u32, u8), u64> = BTreeMap::new();
        for r in runs {
            for (rank, &v) in r.reads_by_rank.iter().enumerate() {
                reads_by_rank[rank] += v;
            }
            for &(pid, rank, v) in &r.reads_by_partition_rank {
                *by_partition.entry((pid, rank)).or_insert(0) += v;
            }
        }
        let avg2 = |f: fn(&RunResult) -> [f64; 2]| {
            let mut out = [0.0f64; 2];
            for r in runs {
                let v = f(r);
                out[0] += v[0];
                out[1] += v[1];
            }
            [out[0] / n, out[1] / n]
        };
        RunResult {
            label: first.label.clone(),
            servers: first.servers,
            seed: first.seed,
            seed_runs: runs.iter().map(|r| r.seed_runs).sum(),
            throughput: mean(|r| r.throughput),
            avg_latency_ms: mean(|r| r.avg_latency_ms),
            latency_pct_ms: latency_pct_ms
                .into_iter()
                .map(|(k, (sum, c))| (k, sum.map(|s| s / f64::from(c))))
                .collect(),
            per_kind_tput: per_kind_tput
                .into_iter()
                .map(|(k, (sum, c))| (k, sum / f64::from(c)))
                .collect(),
            per_server_handled: mean(|r| r.per_server_handled),
            storage_cpu: mean(|r| r.storage_cpu),
            server_cpu: mean(|r| r.server_cpu),
            ndb_thread_util: thread_util
                .into_iter()
                .map(|(k, (sum, c))| (k, sum / f64::from(c)))
                .collect(),
            storage_net_mb_s: avg2(|r| r.storage_net_mb_s),
            storage_disk_mb_s: avg2(|r| r.storage_disk_mb_s),
            server_net_mb_s: avg2(|r| r.server_net_mb_s),
            reads_by_rank,
            reads_by_partition_rank: by_partition
                .into_iter()
                .map(|((pid, rank), v)| (pid, rank, v))
                .collect(),
            errors,
            cross_az_bytes: runs.iter().map(|r| r.cross_az_bytes).sum::<u64>() / runs.len() as u64,
            events: runs.iter().map(|r| r.events).sum(),
            wall_ms: runs.iter().map(|r| r.wall_ms).sum(),
            breakdown: first.breakdown.clone(),
        }
    }
}
