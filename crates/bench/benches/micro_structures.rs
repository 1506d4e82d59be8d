//! Criterion micro-benchmarks of the core data structures (not a paper
//! figure; performance hygiene for the simulator itself).

#![allow(clippy::field_reassign_with_default, clippy::type_complexity)]

use criterion::{criterion_group, criterion_main, Criterion};
use ndb::locks::{LockManager, TxId};
use ndb::{LockMode, PartitionKey, PartitionMap, RowKey, TableId};
use simnet::{Histogram, SimDuration, SimTime, Simulation};
use std::hint::black_box;

fn bench_lock_manager(c: &mut Criterion) {
    c.bench_function("lock_acquire_release_1k_rows", |b| {
        b.iter(|| {
            let mut lm = LockManager::default();
            for i in 0..1000u64 {
                let tx = TxId { client: 1, seq: i };
                lm.acquire(tx, TableId(0), RowKey::simple(i % 64), LockMode::Exclusive, i);
                lm.release_all(tx);
            }
            black_box(lm.locked_rows())
        })
    });
}

fn bench_partition_map(c: &mut Criterion) {
    let cfg = ndb::ClusterConfig::az_aware(12, 3, &[simnet::AzId(0), simnet::AzId(1), simnet::AzId(2)]);
    let pmap = PartitionMap::new(&cfg);
    c.bench_function("partition_of_and_replicas", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for k in 0..1000u64 {
                let pid = pmap.partition_of(PartitionKey(k));
                acc += pmap.replicas(pid)[0];
            }
            black_box(acc)
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record_10k", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            for v in 0..10_000u64 {
                h.record(v * 97 + 13);
            }
            black_box(h.quantile(0.99))
        })
    });
}

fn bench_event_loop(c: &mut Criterion) {
    use simnet::{Actor, Ctx, NodeId, Payload};
    #[derive(Debug, Clone)]
    struct Tick;
    struct Ticker {
        n: u32,
    }
    impl Actor for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(SimDuration::from_micros(1), Tick);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Payload>) {
            self.n += 1;
            if self.n < 10_000 {
                ctx.schedule(SimDuration::from_micros(1), Tick);
            }
        }
    }
    c.bench_function("sim_10k_timer_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            sim.add_node(simnet::NodeSpec::new("t", simnet::Location::new(0, 0)), Box::new(Ticker { n: 0 }));
            sim.run_until(SimTime::from_secs(1));
            black_box(sim.events_processed())
        })
    });

    // Same event count but through a *deep* queue: 10k timers pending at
    // once, spread over ~10 ms, the regime where kernel push/pop cost
    // actually shows up in the figure benches.
    struct Burst {
        n: u32,
    }
    impl Actor for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..10_000u64 {
                ctx.schedule(SimDuration::from_nanos(1 + i * 997), Tick);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Payload>) {
            self.n += 1;
        }
    }
    c.bench_function("sim_10k_pending_timers", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            sim.add_node(simnet::NodeSpec::new("t", simnet::Location::new(0, 0)), Box::new(Burst { n: 0 }));
            sim.run_until(SimTime::from_secs(1));
            black_box(sim.events_processed())
        })
    });

    // The kernel-sharding cell: 12 actors on 12 host groups across 3 AZs,
    // each keeping a deep pending-timer queue plus steady cross-AZ traffic.
    // The same cell runs at shards=1 (sequential kernel) and shards=4
    // (conservative-parallel windows); outputs are bit-identical — the
    // determinism battery enforces it — so the wall-clock ratio of the two
    // is exactly the sharding speedup (or, on a single hardware thread, the
    // window-protocol overhead). EXPERIMENTS.md records both.
    struct AzStorm {
        peers: Vec<NodeId>,
        i: u64,
        n: u64,
    }
    #[derive(Debug, Clone)]
    struct Ping;
    impl Actor for AzStorm {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..2_000u64 {
                ctx.schedule(SimDuration::from_nanos(1 + i * 49_999), Tick);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _f: NodeId, m: Box<dyn Payload>) {
            self.n += 1;
            if m.is::<Tick>() {
                let peer = self.peers[self.i as usize % self.peers.len()];
                self.i += 1;
                ctx.send_sized(peer, 256, Ping);
            }
        }
    }
    fn run_multi_az_storm(shards: u32) -> u64 {
        let mut sim = Simulation::new(7);
        sim.set_shards(shards);
        let mut ids = Vec::new();
        for az in 0u8..3 {
            for host in 0u32..4 {
                let id = sim.add_node(
                    simnet::NodeSpec::new(
                        format!("s{az}-{host}"),
                        simnet::Location::new(az, u32::from(az) * 4 + host),
                    ),
                    Box::new(AzStorm { peers: vec![], i: u64::from(az) * 7 + u64::from(host), n: 0 }),
                );
                ids.push(id);
            }
        }
        for &id in &ids {
            let peers: Vec<NodeId> = ids.iter().copied().filter(|p| *p != id).collect();
            sim.actor_mut::<AzStorm>(id).peers = peers;
        }
        sim.run_until(SimTime::from_millis(100));
        sim.events_processed()
    }
    c.bench_function("sim_multi_az_storm_shards1", |b| {
        b.iter(|| black_box(run_multi_az_storm(1)))
    });
    c.bench_function("sim_multi_az_storm_shards4", |b| {
        b.iter(|| black_box(run_multi_az_storm(4)))
    });
}

fn bench_hintcache(c: &mut Criterion) {
    // The resolution hot path: probe a warm cache once per path component.
    // Before the borrowed-key lookup, every probe allocated an owned
    // `(u64, String)` key; this bench is the before/after evidence.
    let mut cache = hopsfs::HintCache::new(4096);
    let names: Vec<String> = (0..512).map(|i| format!("dir{i:04}")).collect();
    for (i, name) in names.iter().enumerate() {
        cache.put(1, name, 100 + i as u64, true);
    }
    c.bench_function("hintcache_get_hit_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..1000usize {
                if let Some((id, _)) = cache.get(1, &names[k % names.len()]) {
                    acc += id;
                }
            }
            black_box(acc)
        })
    });
    c.bench_function("hintcache_get_miss_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..1000usize {
                if cache.get(2, &names[k % names.len()]).is_none() {
                    acc += 1;
                }
            }
            black_box(acc)
        })
    });
}

fn bench_path_parse(c: &mut Criterion) {
    c.bench_function("fspath_parse", |b| {
        b.iter(|| {
            for _ in 0..100 {
                black_box(hopsfs::FsPath::parse("/user/u42/d3/part-00017").unwrap());
            }
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lock_manager, bench_partition_map, bench_histogram, bench_event_loop, bench_hintcache, bench_path_parse
);
criterion_main!(benches);
