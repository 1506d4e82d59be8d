//! Measurement windows: cumulative counters probed at the window's edges,
//! the metrics registry (cleared when the window opens), and the client
//! stats (recording only inside the window) — folded into end-to-end and
//! per-layer numbers.
//!
//! Every layer is read from outside, through counters it already exposes:
//! `Simulation::metrics()`, `NnStats`, `DnStats`, `ClientStats` and the
//! open-loop client's public fields.

use crate::deploy::Deployment;
use crate::hostclock::HostCost;
use hopsfs::{NameNodeActor, OpKind, OpenLoopClientActor};
use ndb::config::lane;
use ndb::DatanodeActor;
use simnet::{Histogram, SimTime};

/// Cumulative counters at one instant of a deployment.
#[derive(Debug, Clone)]
pub struct Probe {
    at: SimTime,
    events: u64,
    allocs: (u64, u64),
    gen: (u64, u64),
    cross_az: u64,
    nn_hits: u64,
    nn_misses: u64,
    nn_tx_retries: u64,
    nn_shed: u64,
    nn_received: u64,
    dn_lock_waits: u64,
    dn_committed: u64,
    dn_aborted: u64,
    dn_reads_primary: u64,
    dn_reads_backup: u64,
    dn_disk_written: u64,
    ol_offered: u64,
    ol_dropped: u64,
}

impl Probe {
    pub fn take(d: &Deployment) -> Probe {
        let sim = &d.sim;
        let view = &d.cluster.view;
        let mut p = Probe {
            at: sim.now(),
            events: sim.events_processed(),
            allocs: crate::alloc::snapshot(),
            gen: d.gen.snapshot(),
            cross_az: sim.cross_az_bytes(),
            nn_hits: 0,
            nn_misses: 0,
            nn_tx_retries: 0,
            nn_shed: 0,
            nn_received: 0,
            dn_lock_waits: 0,
            dn_committed: 0,
            dn_aborted: 0,
            dn_reads_primary: 0,
            dn_reads_backup: 0,
            dn_disk_written: 0,
            ol_offered: 0,
            ol_dropped: 0,
        };
        for &id in &view.nn_ids {
            let s = &sim.actor::<NameNodeActor>(id).stats;
            p.nn_hits += s.cache_hits;
            p.nn_misses += s.cache_misses;
            p.nn_tx_retries += s.tx_retries;
            p.nn_shed += s.admission_shed;
            p.nn_received += s.requests_received;
        }
        for &id in &view.ndb.datanode_ids {
            let s = &sim.actor::<DatanodeActor>(id).stats;
            p.dn_lock_waits += s.lock_waits;
            p.dn_committed += s.tx_committed;
            p.dn_aborted += s.tx_aborted;
            for (&(_, _, rank), &n) in &s.reads_by_partition_rank {
                if rank == 0 {
                    p.dn_reads_primary += n;
                } else {
                    p.dn_reads_backup += n;
                }
            }
            p.dn_disk_written += sim.disk(id).map_or(0, |disk| disk.bytes_written());
        }
        if d.open_loop {
            for &id in &d.clients {
                let c = sim.actor::<OpenLoopClientActor>(id);
                p.ol_offered += c.offered;
                p.ol_dropped += c.dropped_arrivals;
            }
        }
        p
    }
}

/// Latency histograms (ns) of the read and write op classes.
#[derive(Debug, Clone)]
pub struct ClassHists {
    pub read: Histogram,
    pub write: Histogram,
    pub all: Histogram,
}

/// Reads are stat/open/ls; every other kind mutates.
pub fn is_read(kind: OpKind) -> bool {
    matches!(kind, OpKind::Stat | OpKind::Open | OpKind::List)
}

/// What one window measured. Sums are kept raw so that several windows (the
/// open-loop rungs) fold into one per-layer view before ratios are taken.
#[derive(Debug, Clone)]
pub struct Window {
    // Simulated.
    pub sim_s: f64,
    pub ok: u64,
    pub err: u64,
    pub dropped: u64,
    pub offered: u64,
    pub lat: ClassHists,
    pub events: u64,
    pub cross_az_bytes: u64,
    pub net_cross: (f64, u64),
    pub net_intra: (f64, u64),
    pub nn_worker_queue_ns: f64,
    pub nn_worker_service_ns: f64,
    pub nn_hits: u64,
    pub nn_misses: u64,
    pub nn_tx_retries: u64,
    pub nn_sto_hold_max_ns: u64,
    pub nn_shed: u64,
    pub nn_received: u64,
    pub nn_worker_queue_max_ns: u64,
    pub client_op_retries: u64,
    pub client_backoff_ns: f64,
    pub ol_arrival_queue_max: u64,
    pub ol_cwnd_sum: f64,
    pub ol_sessions: u64,
    /// Per NDB lane (TC, LDM, RECV, SEND): summed queue and service ns.
    pub ndb_lanes: [(f64, f64); 4],
    pub dn_lock_waits: u64,
    pub dn_lock_wait: Histogram,
    pub dn_committed: u64,
    pub dn_aborted: u64,
    pub dn_reads_primary: u64,
    pub dn_reads_backup: u64,
    pub dn_disk_written: u64,
    // Host.
    pub host: HostCost,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub gen_ns: u64,
    pub gen_calls: u64,
}

const NDB_LANES: [&str; 4] = [lane::TC, lane::LDM, lane::RECV, lane::SEND];

fn sum(h: &Histogram) -> f64 {
    h.mean() * h.count() as f64
}

impl Window {
    /// Folds the deltas between `open` and `close` of `d`, plus its registry
    /// and client stats, into a window.
    pub fn between(d: &Deployment, open: &Probe, close: &Probe, host: HostCost) -> Window {
        let sim = &d.sim;
        let reg = sim.metrics();
        let st = d.stats.lock().expect("client stats lock");
        let mut lat = ClassHists {
            read: Histogram::new(),
            write: Histogram::new(),
            all: Histogram::new(),
        };
        for kind in OpKind::ALL {
            let h = st.latency_of(kind);
            if is_read(kind) {
                lat.read.merge(h);
            } else {
                lat.write.merge(h);
            }
            lat.all.merge(h);
        }
        let mut net_cross = (0.0, 0);
        let mut net_intra = (0.0, 0);
        for (src, dst, h, _) in reg.iter_net() {
            let acc = if src == dst {
                &mut net_intra
            } else {
                &mut net_cross
            };
            acc.0 += sum(h);
            acc.1 += h.count();
        }
        let mut nn_worker = (0.0, 0.0);
        let mut ndb_lanes = [(0.0, 0.0); 4];
        for (layer, lane, m) in reg.iter_cpu() {
            if layer == "namenode" && lane == hopsfs::namenode::NN_WORKER {
                nn_worker.0 += sum(&m.queue);
                nn_worker.1 += sum(&m.service);
            }
            if layer == "ndb" {
                if let Some(i) = NDB_LANES.iter().position(|&l| l == lane) {
                    ndb_lanes[i].0 += sum(&m.queue);
                    ndb_lanes[i].1 += sum(&m.service);
                }
            }
        }
        let view = &d.cluster.view;
        let sto_hold_max = view
            .nn_ids
            .iter()
            .map(|&id| sim.actor::<NameNodeActor>(id).stats.sto_lock_hold_max_ns)
            .max()
            .unwrap_or(0);
        let mut cwnd_sum = 0.0;
        if d.open_loop {
            for &id in &d.clients {
                cwnd_sum += sim.actor::<OpenLoopClientActor>(id).cwnd();
            }
        }
        let (client_op_retries, client_backoff_ns) = (
            reg.counter("fs-client", "op_retries"),
            reg.hist("fs-client", "retry_backoff_ns").map_or(0.0, sum),
        );
        Window {
            sim_s: close.at.saturating_since(open.at).as_secs_f64(),
            ok: st.total_ok(),
            err: st.total_err(),
            dropped: close.ol_dropped - open.ol_dropped,
            offered: close.ol_offered - open.ol_offered,
            lat,
            events: close.events - open.events,
            cross_az_bytes: close.cross_az - open.cross_az,
            net_cross,
            net_intra,
            nn_worker_queue_ns: nn_worker.0,
            nn_worker_service_ns: nn_worker.1,
            nn_hits: close.nn_hits - open.nn_hits,
            nn_misses: close.nn_misses - open.nn_misses,
            nn_tx_retries: close.nn_tx_retries - open.nn_tx_retries,
            nn_sto_hold_max_ns: sto_hold_max,
            nn_shed: close.nn_shed - open.nn_shed,
            nn_received: close.nn_received - open.nn_received,
            nn_worker_queue_max_ns: reg.gauge("namenode", "worker_queue_ns").1,
            client_op_retries,
            client_backoff_ns,
            ol_arrival_queue_max: reg.gauge("fs-client", "arrival_queue").1,
            ol_cwnd_sum: cwnd_sum,
            ol_sessions: if d.open_loop {
                d.clients.len() as u64
            } else {
                0
            },
            ndb_lanes,
            dn_lock_waits: close.dn_lock_waits - open.dn_lock_waits,
            dn_lock_wait: reg.hist("ndb", "lock_wait_ns").cloned().unwrap_or_default(),
            dn_committed: close.dn_committed - open.dn_committed,
            dn_aborted: close.dn_aborted - open.dn_aborted,
            dn_reads_primary: close.dn_reads_primary - open.dn_reads_primary,
            dn_reads_backup: close.dn_reads_backup - open.dn_reads_backup,
            dn_disk_written: close.dn_disk_written - open.dn_disk_written,
            host,
            allocs: close.allocs.0 - open.allocs.0,
            alloc_bytes: close.allocs.1 - open.allocs.1,
            gen_ns: close.gen.0 - open.gen.0,
            gen_calls: close.gen.1 - open.gen.1,
        }
    }

    /// Ops that completed in the window, successfully or not.
    pub fn completed(&self) -> u64 {
        self.ok + self.err
    }

    /// Folds another window into this one (sums, maxima, merged histograms).
    pub fn absorb(&mut self, o: &Window) {
        self.sim_s += o.sim_s;
        self.ok += o.ok;
        self.err += o.err;
        self.dropped += o.dropped;
        self.offered += o.offered;
        self.lat.read.merge(&o.lat.read);
        self.lat.write.merge(&o.lat.write);
        self.lat.all.merge(&o.lat.all);
        self.events += o.events;
        self.cross_az_bytes += o.cross_az_bytes;
        self.net_cross = (
            self.net_cross.0 + o.net_cross.0,
            self.net_cross.1 + o.net_cross.1,
        );
        self.net_intra = (
            self.net_intra.0 + o.net_intra.0,
            self.net_intra.1 + o.net_intra.1,
        );
        self.nn_worker_queue_ns += o.nn_worker_queue_ns;
        self.nn_worker_service_ns += o.nn_worker_service_ns;
        self.nn_hits += o.nn_hits;
        self.nn_misses += o.nn_misses;
        self.nn_tx_retries += o.nn_tx_retries;
        self.nn_sto_hold_max_ns = self.nn_sto_hold_max_ns.max(o.nn_sto_hold_max_ns);
        self.nn_shed += o.nn_shed;
        self.nn_received += o.nn_received;
        self.nn_worker_queue_max_ns = self.nn_worker_queue_max_ns.max(o.nn_worker_queue_max_ns);
        self.client_op_retries += o.client_op_retries;
        self.client_backoff_ns += o.client_backoff_ns;
        self.ol_arrival_queue_max = self.ol_arrival_queue_max.max(o.ol_arrival_queue_max);
        self.ol_cwnd_sum += o.ol_cwnd_sum;
        self.ol_sessions += o.ol_sessions;
        for (a, b) in self.ndb_lanes.iter_mut().zip(&o.ndb_lanes) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.dn_lock_waits += o.dn_lock_waits;
        self.dn_lock_wait.merge(&o.dn_lock_wait);
        self.dn_committed += o.dn_committed;
        self.dn_aborted += o.dn_aborted;
        self.dn_reads_primary += o.dn_reads_primary;
        self.dn_reads_backup += o.dn_reads_backup;
        self.dn_disk_written += o.dn_disk_written;
        self.host.absorb(&o.host);
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.gen_ns += o.gen_ns;
        self.gen_calls += o.gen_calls;
    }

    /// The per-layer metrics of simulated quantities, by name with unit.
    /// Deterministic per seed: the traced and untraced runs must agree on
    /// every one of them exactly.
    pub fn simulated_layers(&self) -> Vec<(String, f64, &'static str)> {
        let ops = self.completed().max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut out = vec![
            (
                "simnet.events_per_op".to_string(),
                self.events as f64 / ops,
                "count/op",
            ),
            (
                "simnet.net.cross_az_transit_us".into(),
                ratio(self.net_cross.0, self.net_cross.1 as f64) / 1e3,
                "us",
            ),
            (
                "simnet.net.intra_az_transit_us".into(),
                ratio(self.net_intra.0, self.net_intra.1 as f64) / 1e3,
                "us",
            ),
            (
                "hopsfs.namenode.worker_queue_us_per_op".into(),
                self.nn_worker_queue_ns / ops / 1e3,
                "us/op",
            ),
            (
                "hopsfs.namenode.worker_service_us_per_op".into(),
                self.nn_worker_service_ns / ops / 1e3,
                "us/op",
            ),
            (
                "hopsfs.namenode.hint_hit_frac".into(),
                ratio(self.nn_hits as f64, (self.nn_hits + self.nn_misses) as f64),
                "frac",
            ),
            (
                "hopsfs.namenode.tx_retries_per_op".into(),
                self.nn_tx_retries as f64 / ops,
                "count/op",
            ),
            (
                "hopsfs.namenode.sto_lock_hold_max_ms".into(),
                self.nn_sto_hold_max_ns as f64 / 1e6,
                "ms",
            ),
            (
                "hopsfs.namenode.admission_shed_frac".into(),
                ratio(self.nn_shed as f64, self.nn_received as f64),
                "frac",
            ),
            (
                "hopsfs.namenode.worker_queue_max_ms".into(),
                self.nn_worker_queue_max_ns as f64 / 1e6,
                "ms",
            ),
            (
                "hopsfs.client.op_retries_per_op".into(),
                self.client_op_retries as f64 / ops,
                "count/op",
            ),
            (
                "hopsfs.client.retry_backoff_ms_per_op".into(),
                self.client_backoff_ns / ops / 1e6,
                "ms/op",
            ),
            (
                "hopsfs.openloop.arrival_queue_max".into(),
                self.ol_arrival_queue_max as f64,
                "count",
            ),
            (
                "hopsfs.openloop.dropped_frac".into(),
                ratio(self.dropped as f64, self.offered as f64),
                "frac",
            ),
            (
                "hopsfs.openloop.cwnd_mean".into(),
                ratio(self.ol_cwnd_sum, self.ol_sessions as f64),
                "count",
            ),
        ];
        for (lane, &(queue, service)) in NDB_LANES.iter().zip(&self.ndb_lanes) {
            out.push((
                format!("ndb.{lane}.queue_us_per_op"),
                queue / ops / 1e3,
                "us/op",
            ));
            out.push((
                format!("ndb.{lane}.service_us_per_op"),
                service / ops / 1e3,
                "us/op",
            ));
        }
        out.extend([
            (
                "ndb.lock_waits_per_op".to_string(),
                self.dn_lock_waits as f64 / ops,
                "count/op",
            ),
            (
                "ndb.lock_wait_p99_us".into(),
                crate::stats::quantile(&self.dn_lock_wait, 0.99) / 1e3,
                "us",
            ),
            (
                "ndb.tx_abort_frac".into(),
                ratio(
                    self.dn_aborted as f64,
                    (self.dn_committed + self.dn_aborted) as f64,
                ),
                "frac",
            ),
            (
                "ndb.backup_read_frac".into(),
                ratio(
                    self.dn_reads_backup as f64,
                    (self.dn_reads_primary + self.dn_reads_backup) as f64,
                ),
                "frac",
            ),
            (
                "ndb.disk_write_bytes_per_op".into(),
                self.dn_disk_written as f64 / ops,
                "B/op",
            ),
        ]);
        out
    }

    /// The per-layer metrics of host quantities.
    pub fn host_layers(&self) -> Vec<(String, f64, &'static str)> {
        let events = self.events.max(1) as f64;
        vec![
            (
                "simnet.host_ns_per_event".to_string(),
                self.host.ns_per_event(),
                "ns/event",
            ),
            (
                "simnet.allocs_per_event".into(),
                self.allocs as f64 / events,
                "count/event",
            ),
            (
                "simnet.alloc_bytes_per_event".into(),
                self.alloc_bytes as f64 / events,
                "B/event",
            ),
            (
                "workload.gen_ns_per_op".into(),
                self.gen_ns as f64 / self.gen_calls.max(1) as f64,
                "ns/op",
            ),
        ]
    }
}
