//! Deploys the benchmark's three workloads through the public `hopsfs`,
//! `workload` and `simnet` APIs, timing each set-up phase.

use crate::hostclock::HostCost;
use hopsfs::{build_fs_cluster, ChaosLog, ClientStats, FsCluster, FsConfig, FsOp, FsResult};
use hopsfs::{OpSource, TrackedSource};
use rand::rngs::StdRng;
use simnet::{AzId, NodeId, SimDuration, SimTime, Simulation};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{Mix, Namespace, NamespaceSpec, OverloadSource, SpotifySource};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 5 cell under the Spotify mix (closed loop).
    Spotify,
    /// The same cell under a mutation-heavy mix (closed loop).
    Mutations,
    /// The `fig_overload` cell at a ladder of offered rates (open loop).
    OpenLoop,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "spotify" => Some(Workload::Spotify),
            "mutations" => Some(Workload::Mutations),
            "openloop" => Some(Workload::OpenLoop),
            _ => None,
        }
    }
}

/// About 60% create/delete/rename/mkdir/setPerm; subtree bursts (1/16 of
/// deletes) lift the issued mutation share a few points higher.
pub const MUTATIONS_MIX: Mix = Mix {
    open: 2000,
    stat: 1400,
    list: 600,
    create: 2000,
    delete: 1800,
    set_perm: 800,
    rename: 800,
    mkdir: 600,
};

/// Closed-loop cell: HopsFS-CL (12 NDB datanodes, 3 replicas, 12 NNs).
const CL_NDB: usize = 12;
const CL_NNS: usize = 12;
const CL_SCALE: usize = 4;
/// 12 NNs x 96 sessions / scale 4, as in the Fig 5 harness.
const CL_SESSIONS: u64 = 288;
/// Closed-loop warm-up: elections settle and the hint caches fill.
pub const CL_WARMUP: SimDuration = SimDuration::from_millis(1000);

/// Open-loop cell: HopsFS-CL (6 NDB datanodes, 3 replicas, 3 NNs).
const OL_SESSIONS: u64 = 6;
const OL_QUEUE_CAP: usize = 256;
/// Elections settle before the open-loop clients join.
const OL_SETTLE: SimDuration = SimDuration::from_secs(3);
/// Open-loop warm-up at the rung's rate (the overload queue builds).
pub const OL_WARMUP: SimDuration = SimDuration::from_secs(2);

/// Host seconds of each set-up phase of one deployment, scaled to the
/// reference host speed; the simulated warm-up counts its robust host time
/// (`crate::hostclock`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub deploy_s: f64,
    pub load_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    /// The whole set-up: from `Simulation::new` to the opening of the window.
    pub fn total_s(&self) -> f64 {
        self.deploy_s + self.load_s + self.warmup_s
    }
}

/// Shared state of the benchmark's `OpSource` wrapper: host time spent
/// generating ops, a flag that ends every stream, and (in checked runs) the
/// paths that acked renames and deletes took away.
#[derive(Debug, Default)]
pub struct GenClock {
    stop: AtomicBool,
    ns: AtomicU64,
    calls: AtomicU64,
    removed: Mutex<Vec<String>>,
}

impl GenClock {
    /// `(host ns in next_op, next_op calls)` so far.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }

    /// Ends every session's stream at its next `next_op`.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Sources of acked renames and targets of acked deletes, so far. A
    /// path at or under one of them no longer exists by design.
    pub fn removed(&self) -> Vec<String> {
        self.removed.lock().expect("removed-paths lock").clone()
    }
}

/// Times the wrapped generator's `next_op` and ends the stream on request.
struct BenchSource {
    inner: Box<dyn OpSource>,
    clock: Arc<GenClock>,
    track_removals: bool,
}

impl OpSource for BenchSource {
    fn next_op(&mut self, rng: &mut StdRng, now: SimTime) -> Option<FsOp> {
        if self.clock.stop.load(Ordering::Relaxed) {
            return None;
        }
        let t = Instant::now();
        let op = self.inner.next_op(rng, now);
        self.clock
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        op
    }

    fn on_result(&mut self, op: &FsOp, result: &FsResult) {
        self.inner.on_result(op, result);
        if self.track_removals && result.is_ok() {
            if let FsOp::Rename { src: path, .. } | FsOp::Delete { path, .. } = op {
                self.clock
                    .removed
                    .lock()
                    .expect("removed-paths lock")
                    .push(path.to_string());
            }
        }
    }
}

/// How a deployment is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The measured run: nothing extra attached.
    Measure,
    /// Sessions wrapped in `TrackedSource` for the acked-mutation audit.
    Check,
    /// As `Check`, with span tracing switched on when the window opens.
    Traced,
}

/// One deployed, warmed-up cell, ready for its measurement window.
pub struct Deployment {
    pub sim: Simulation,
    pub cluster: FsCluster,
    pub clients: Vec<NodeId>,
    pub open_loop: bool,
    pub stats: Arc<Mutex<ClientStats>>,
    pub gen: Arc<GenClock>,
    pub log: Arc<Mutex<ChaosLog>>,
    pub setup: SetupTimes,
}

impl Deployment {
    /// Opens the measurement window: start recording client stats, clear
    /// the metrics registry (gauge high-water marks restart too) and, for a
    /// traced deployment, start recording spans.
    pub fn open_window(&mut self, role: Role) {
        self.stats.lock().expect("client stats lock").recording = true;
        self.sim.metrics_mut().clear();
        if role == Role::Traced {
            self.sim.enable_tracing();
        }
    }

    /// Closes the window: stop recording client stats.
    pub fn close_window(&mut self) {
        self.stats.lock().expect("client stats lock").recording = false;
    }
}

fn wrap(
    source: Box<dyn OpSource>,
    gen: &Arc<GenClock>,
    log: &Arc<Mutex<ChaosLog>>,
    role: Role,
) -> Box<dyn OpSource> {
    let timed = Box::new(BenchSource {
        inner: source,
        clock: Arc::clone(gen),
        track_removals: role != Role::Measure,
    });
    match role {
        Role::Measure => timed,
        Role::Check | Role::Traced => Box::new(TrackedSource::new(timed, Arc::clone(log))),
    }
}

/// Deploys the closed-loop Fig 5 cell under `mix` (`spotify` or
/// `mutations`) and warms it up.
pub fn closed_loop(mix: Mix, seed: u64, role: Role) -> Deployment {
    let t = Instant::now();
    let mut sim = Simulation::new(seed);
    // The harness's per-tenant inter-AZ capacity (~3 Gb/s per directed AZ
    // pair, divided by the scale-down factor).
    sim.set_inter_az_bandwidth(Some(380_000_000 / CL_SCALE as u64));
    let mut cfg = FsConfig::hopsfs_cl(CL_NDB, 3, CL_NNS).scaled_down(CL_SCALE);
    cfg.election_period = SimDuration::from_millis(1000);
    let azs = cfg.azs.clone();
    let mut cluster = build_fs_cluster(&mut sim, cfg, 0);
    let deploy_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let spec = NamespaceSpec::default();
    let ns = Arc::new(Namespace::generate(&spec));
    ns.load_hopsfs(&mut sim, &mut cluster, spec.file_size);
    let stats = ClientStats::shared();
    stats.lock().expect("client stats lock").recording = false;
    let gen = Arc::new(GenClock::default());
    let log = ChaosLog::shared();
    let mut clients = Vec::new();
    for s in 0..CL_SESSIONS {
        cluster.bulk_mkdir_p(&mut sim, &SpotifySource::private_dir_for(s));
        let source = Box::new(SpotifySource::new(Arc::clone(&ns), mix, s));
        let az = azs[s as usize % azs.len()];
        let source = wrap(source, &gen, &log, role);
        clients.push(cluster.add_client(&mut sim, az, source, Arc::clone(&stats)));
    }
    let load_s = t.elapsed().as_secs_f64();

    let warmup = HostCost::run(&mut sim, SimTime::ZERO + CL_WARMUP);
    let setup = SetupTimes {
        deploy_s: deploy_s * warmup.speed(),
        load_s: load_s * warmup.speed(),
        warmup_s: warmup.robust_s(),
    };
    Deployment {
        sim,
        cluster,
        clients,
        open_loop: false,
        stats,
        gen,
        log,
        setup,
    }
}

/// Deploys the `fig_overload` cell with admission on and six AIMD Poisson
/// sessions offering `rate` ops/s in total, and warms it up.
pub fn open_loop(seed: u64, rate: f64, role: Role) -> Deployment {
    let t = Instant::now();
    let mut sim = Simulation::new(seed);
    sim.set_jitter(0.0);
    let mut cfg = FsConfig::hopsfs_cl(6, 3, 3).scaled_down(16);
    cfg.admission.enabled = true;
    // fig_overload's gate: shed once the worker backlog costs ~60 ms.
    cfg.admission.interactive_threshold = SimDuration::from_millis(60);
    cfg.admission.batch_threshold = SimDuration::from_millis(30);
    cfg.admission.maintenance_threshold = SimDuration::from_millis(10);
    let mut cluster = build_fs_cluster(&mut sim, cfg, 6);
    let deploy_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ns = Arc::new(Namespace::generate(&NamespaceSpec {
        users: 2,
        dirs_per_user: 2,
        files_per_dir: 5,
        ..NamespaceSpec::default()
    }));
    ns.load_hopsfs(&mut sim, &mut cluster, 0);
    for s in 0..OL_SESSIONS {
        cluster.bulk_mkdir_p(&mut sim, &OverloadSource::private_dir_for(s));
    }
    let load_s = t.elapsed().as_secs_f64();

    let settle = HostCost::run(&mut sim, SimTime::ZERO + OL_SETTLE);

    let t = Instant::now();
    let stats = ClientStats::shared();
    stats.lock().expect("client stats lock").recording = false;
    let gen = Arc::new(GenClock::default());
    let log = ChaosLog::shared();
    let mut clients = Vec::new();
    for s in 0..OL_SESSIONS {
        let source = wrap(
            Box::new(OverloadSource::new(Arc::clone(&ns), s)),
            &gen,
            &log,
            role,
        );
        clients.push(cluster.add_open_loop_client(
            &mut sim,
            AzId((s % 3) as u8),
            source,
            Arc::clone(&stats),
            rate / OL_SESSIONS as f64,
            OL_QUEUE_CAP,
        ));
    }
    let load_s = load_s + t.elapsed().as_secs_f64();

    let mut warmup = HostCost::run(&mut sim, SimTime::ZERO + OL_SETTLE + OL_WARMUP);
    warmup.absorb(&settle);
    let setup = SetupTimes {
        deploy_s: deploy_s * warmup.speed(),
        load_s: load_s * warmup.speed(),
        warmup_s: warmup.robust_s(),
    };
    Deployment {
        sim,
        cluster,
        clients,
        open_loop: true,
        stats,
        gen,
        log,
        setup,
    }
}
