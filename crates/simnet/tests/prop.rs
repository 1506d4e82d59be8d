//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simnet::{
    Actor, Ctx, Histogram, LaneClassSpec, Lanes, Location, NodeId, NodeSpec, Payload, SimDuration,
    SimTime, Simulation,
};

#[derive(Debug, Clone)]
struct Stamp(u64);

/// Fires a batch of timers with arbitrary delays.
struct Firer {
    delays: Vec<u64>,
    to: NodeId,
}
impl Actor for Firer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &d) in self.delays.iter().enumerate() {
            ctx.send_sized(self.to, 64, StampAt(i as u64, d));
        }
        // Also schedule them as self-timers relayed to the recorder.
        let _ = ctx;
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Box<dyn Payload>) {}
}
#[derive(Debug, Clone)]
struct StampAt(u64, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Virtual time never goes backwards, regardless of timer order.
    #[test]
    fn delivery_times_are_monotone(delays in proptest::collection::vec(0u64..10_000, 1..50)) {
        let mut sim = Simulation::new(1);
        sim.set_jitter(0.0);
        let rec = sim.add_node(
            NodeSpec::new("rec", Location::new(0, 0)),
            Box::new(RecordingRelay { seen: Vec::new() }),
        );
        let _f = sim.add_node(
            NodeSpec::new("firer", Location::new(1, 1)),
            Box::new(Firer { delays: delays.clone(), to: rec }),
        );
        sim.run_until(SimTime::from_secs(60));
        let seen = &sim.actor::<RecordingRelay>(rec).seen;
        prop_assert_eq!(seen.len(), delays.len());
        for w in seen.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "time went backwards: {:?}", w);
        }
    }

    /// Same seed ⇒ identical event trace; the event count is stable.
    #[test]
    fn determinism_under_jitter(seed in 0u64..1000, delays in proptest::collection::vec(0u64..5_000, 1..20)) {
        let run = |seed: u64, delays: &[u64]| {
            let mut sim = Simulation::new(seed);
            let rec = sim.add_node(
                NodeSpec::new("rec", Location::new(0, 0)),
                Box::new(RecordingRelay { seen: Vec::new() }),
            );
            let _f = sim.add_node(
                NodeSpec::new("firer", Location::new(1, 1)),
                Box::new(Firer { delays: delays.to_vec(), to: rec }),
            );
            sim.run_until(SimTime::from_secs(60));
            (sim.events_processed(), sim.actor::<RecordingRelay>(rec).seen.clone())
        };
        let a = run(seed, &delays);
        let b = run(seed, &delays);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// Lanes: completion times are feasible (>= now + cost) and total busy
    /// time equals the sum of effective costs.
    #[test]
    fn lanes_conserve_work(costs in proptest::collection::vec(1u64..100_000, 1..100), threads in 1usize..8) {
        let mut lanes = Lanes::new(&[LaneClassSpec::new("w", threads)]);
        let now = SimTime::from_millis(1);
        let mut total = SimDuration::ZERO;
        for &c in &costs {
            let cost = SimDuration::from_nanos(c);
            let done = lanes.execute("w", now, cost);
            prop_assert!(done >= now + cost);
            total += cost;
        }
        prop_assert_eq!(lanes.busy_total("w"), total);
        prop_assert_eq!(lanes.items("w"), costs.len() as u64);
    }

    /// Histogram quantiles are order statistics within the bucket error.
    #[test]
    fn histogram_quantiles_bounded(mut values in proptest::collection::vec(1u64..1_000_000_000, 10..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for &(q, idx) in &[(0.5, values.len() / 2), (0.9, values.len() * 9 / 10)] {
            let est = h.quantile(q) as f64;
            // Compare against nearby order statistics with 6% relative slack.
            let lo = values[idx.saturating_sub(2)] as f64 * 0.94 - 1.0;
            let hi = values[(idx + 2).min(values.len() - 1)] as f64 * 1.06 + 1.0;
            prop_assert!(est >= lo && est <= hi, "q={q} est={est} window=[{lo},{hi}]");
        }
        prop_assert_eq!(h.max(), *values.last().unwrap());
        prop_assert_eq!(h.min(), values[0]);
    }
}

/// Arbitrary valid [`RetryPolicy`]: any base, a cap up to 63× it, and a
/// jitter within the `[0, 1]` range the builder admits.
fn retry_policy() -> impl Strategy<Value = simnet::RetryPolicy> {
    (1u64..1_000_000_000, 1u64..64, 0.0..1.0f64).prop_map(|(base_ns, cap_mul, jitter)| {
        let base = SimDuration::from_nanos(base_ns);
        simnet::RetryPolicy::new(base, SimDuration::from_nanos(base_ns * cap_mul)).with_jitter(jitter)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A retry schedule is a pure function of (policy, attempt, salt):
    /// recomputing it yields the identical sequence.
    #[test]
    fn retry_schedule_is_deterministic(policy in retry_policy(), salt in any::<u64>()) {
        let schedule = |p: &simnet::RetryPolicy| -> Vec<_> {
            (0..24).map(|i| p.delay(i, salt)).collect()
        };
        prop_assert_eq!(schedule(&policy), schedule(&policy));
    }

    /// Delays never shrink from one attempt to the next, even with the
    /// maximum jitter the policy admits.
    #[test]
    fn retry_schedule_is_monotone(policy in retry_policy(), salt in any::<u64>()) {
        let mut prev = SimDuration::ZERO;
        for attempt in 0..24 {
            let d = policy.delay(attempt, salt);
            prop_assert!(d >= prev, "delay({}) = {} < previous {}", attempt, d, prev);
            prev = d;
        }
    }

    /// No delay ever exceeds the cap, and the schedule reaches the cap once
    /// the un-jittered geometric growth would pass it.
    #[test]
    fn retry_schedule_is_bounded_by_cap(policy in retry_policy(), salt in any::<u64>()) {
        for attempt in 0..64 {
            let d = policy.delay(attempt, salt);
            prop_assert!(d <= policy.cap, "delay({}) = {} > cap {}", attempt, d, policy.cap);
        }
        // 2^63 × base overflows any cap: the tail is pinned at the cap.
        prop_assert_eq!(policy.delay(63, salt), policy.cap);
    }
}

/// One step of a random event-queue schedule (see
/// `timer_wheel_matches_reference_heap`).
#[derive(Debug, Clone)]
enum QueueOp {
    /// Push at `clock + offset` (clock = time of the last popped event).
    Push(u64),
    /// Pop the minimum and compare against the reference.
    Pop,
    /// Cancel the `k % live`-th oldest still-pending push (if any).
    Cancel(usize),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // Offsets cover same-timestamp bursts (0), sub-slot and mid-wheel
    // deltas, and far-future times past the wheel horizon (≈2^42 ns).
    fn push() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            Just(0u64),
            0u64..1_024,
            0u64..(1 << 20),
            0u64..(1 << 34),
            (1u64 << 42)..(1 << 46),
        ]
        .prop_map(QueueOp::Push)
    }
    // Roughly 4:3:1 push:pop:cancel, approximated by repetition (the
    // vendored proptest has no weighted prop_oneof).
    prop_oneof![
        push(),
        push(),
        push(),
        push(),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        any::<usize>().prop_map(QueueOp::Cancel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The timer-wheel kernel queue is observationally identical to a
    /// reference binary heap over `(time, insertion seq)`: any random
    /// schedule of pushes (including same-timestamp bursts and far-future
    /// times), pops, and cancels yields the same pop sequence, the same
    /// lengths, and the same cancel verdicts.
    #[test]
    fn timer_wheel_matches_reference_heap(ops in proptest::collection::vec(queue_op(), 1..400)) {
        let mut wheel = simnet::EventQueue::new();
        // Reference: pending (time, seq, id, handle); min of (time, seq)
        // pops first. O(n) scans are fine at test sizes.
        let mut pending: Vec<(u64, u64, u32, simnet::EventHandle)> = Vec::new();
        let mut next_seq = 0u64;
        let mut clock = 0u64;
        for (id, op) in ops.into_iter().enumerate() {
            let id = id as u32;
            match op {
                QueueOp::Push(offset) => {
                    let t = clock.saturating_add(offset);
                    let h = wheel.push(t, id);
                    pending.push((t, next_seq, id, h));
                    next_seq += 1;
                }
                QueueOp::Pop => {
                    let want = pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, s, _, _))| (t, s))
                        .map(|(i, _)| i);
                    let want = want.map(|i| {
                        let (t, _, v, _) = pending.remove(i);
                        (t, v)
                    });
                    let got = wheel.pop();
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        clock = t;
                    }
                }
                QueueOp::Cancel(k) => {
                    if pending.is_empty() {
                        // Cancelling nothing: a stale/foreign handle fails.
                        continue;
                    }
                    let (_, _, _, h) = pending.remove(k % pending.len());
                    prop_assert!(wheel.cancel(h), "live handle must cancel");
                    prop_assert!(!wheel.cancel(h), "second cancel must fail");
                }
            }
            prop_assert_eq!(wheel.len(), pending.len());
        }
        // Drain both: the tails must agree too.
        pending.sort_by_key(|&(t, s, _, _)| (t, s));
        for (t, _, v, _) in pending {
            prop_assert_eq!(wheel.pop(), Some((t, v)));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }
}

/// Relay + recorder in one actor (receives StampAt, self-schedules Stamp,
/// records Stamp arrival).
struct RecordingRelay {
    seen: Vec<(u64, SimTime)>,
}
impl Actor for RecordingRelay {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<StampAt>() {
            Ok(s) => {
                ctx.schedule(SimDuration::from_micros(s.1), Stamp(s.0));
                return;
            }
            Err(m) => m,
        };
        if let Ok(s) = any.downcast::<Stamp>() {
            self.seen.push((s.0, ctx.now()));
        }
    }
}

// ---- sharded-kernel differential battery ----

#[derive(Debug, Clone)]
struct StormTick;
#[derive(Debug, Clone)]
struct StormMsg(u64);

/// One node of a random actor graph: ticks on a timer, sends a sized
/// message to a seed-chosen peer, burns CPU, folds received payloads into a
/// running state hash, logs every dispatch, and optionally shuts itself
/// down mid-run. Exercises timers, jittered network delays, per-node RNG,
/// lanes, metrics, and the self-epoch path — everything that must stay
/// bit-identical across shard counts.
struct StormActor {
    peers: Vec<NodeId>,
    period_us: u64,
    bytes: u64,
    quit_at: Option<SimTime>,
    log: std::sync::Arc<std::sync::Mutex<Vec<(u64, u32, u64)>>>,
    seq: u64,
    state: u64,
}
impl Actor for StormActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_micros(self.period_us), StormTick);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        self.seq += 1;
        self.log.lock().unwrap().push((ctx.now().as_nanos(), ctx.me().0, self.seq));
        if msg.is::<StormTick>() {
            if self.quit_at.is_some_and(|q| ctx.now() >= q) {
                ctx.shutdown_self();
                return;
            }
            let peer = self.peers[rand::Rng::gen_range(ctx.rng(), 0..self.peers.len())];
            ctx.send_sized(peer, self.bytes, StormMsg(self.state));
            ctx.execute("cpu", SimDuration::from_micros(3));
            ctx.metrics().inc("storm", "ticks", 1);
            ctx.schedule(SimDuration::from_micros(self.period_us), StormTick);
        } else if let Ok(m) = simnet::downcast::<StormMsg>(msg) {
            self.state = self.state.wrapping_mul(31).wrapping_add(m.0 ^ u64::from(from.0));
            ctx.metrics().record_hist("storm", "recv_bytes", self.bytes);
        }
    }
}

/// A randomly generated storm scenario (see `storm_scenario`).
#[derive(Debug, Clone)]
struct StormScenario {
    seed: u64,
    /// Per node: (az, host-within-az, tick period µs, message bytes).
    nodes: Vec<(u8, u32, u64, u64)>,
    /// Node index that voluntarily shuts down at 2.5ms, if any.
    quitter: Option<usize>,
    /// Node index crashed at 1.5ms and revived at 3ms, if any.
    victim: Option<usize>,
    /// AZ pair partitioned from 1ms to 2ms, if any.
    cut: Option<(u8, u8)>,
    drop_p: f64,
    dup_p: f64,
}

fn storm_scenario() -> impl Strategy<Value = StormScenario> {
    (
        (
            any::<u64>(),
            proptest::collection::vec((0u8..3, 0u32..2, 100u64..400, 64u64..2048), 3..10),
        ),
        (
            (any::<bool>(), 0usize..16).prop_map(|(on, v)| on.then_some(v)),
            (any::<bool>(), 0usize..16).prop_map(|(on, v)| on.then_some(v)),
            (any::<bool>(), 0u8..3, 0u8..3).prop_map(|(on, a, b)| on.then_some((a, b))),
            0.0..0.3f64,
            0.0..0.3f64,
        ),
    )
        .prop_map(|((seed, nodes), (quitter, victim, cut, drop_p, dup_p))| StormScenario {
            seed,
            nodes,
            quitter,
            victim,
            cut,
            drop_p,
            dup_p,
        })
}

/// Runs a storm scenario at a given shard count and jitter; returns a full
/// observable signature plus the raw dispatch log in execution order.
fn run_storm(sc: &StormScenario, shards: u32, jitter: f64) -> (String, Vec<(u64, u32, u64)>) {
    use std::fmt::Write as _;
    let mut sim = Simulation::new(sc.seed);
    sim.set_shards(shards);
    sim.set_jitter(jitter);
    let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut ids = Vec::new();
    for (i, &(az, host, period_us, bytes)) in sc.nodes.iter().enumerate() {
        let id = sim.add_node(
            NodeSpec::new(format!("s{i}"), Location::new(az, u32::from(az) * 4 + host))
                .with_lanes(vec![LaneClassSpec::new("cpu", 2)]),
            Box::new(StormActor {
                peers: vec![],
                period_us,
                bytes,
                quit_at: None,
                log: std::sync::Arc::clone(&log),
                seq: 0,
                state: u64::from(az) << 32 | u64::from(host),
            }),
        );
        ids.push(id);
    }
    for &id in &ids {
        let peers: Vec<NodeId> = ids.iter().copied().filter(|p| *p != id).collect();
        sim.actor_mut::<StormActor>(id).peers = peers;
    }
    if let Some(q) = sc.quitter {
        let q = ids[q % ids.len()];
        sim.actor_mut::<StormActor>(q).quit_at = Some(SimTime::from_nanos(2_500_000));
    }
    if sc.drop_p > 0.0 || sc.dup_p > 0.0 {
        sim.add_link_fault(
            simnet::LinkFault::new(simnet::FaultScope::All)
                .with_drop(sc.drop_p)
                .with_dup(sc.dup_p),
        );
    }
    if let Some(v) = sc.victim {
        let v = ids[v % ids.len()];
        sim.at(SimTime::from_nanos(1_500_000), move |s| s.kill_node(v));
        sim.at(SimTime::from_millis(3), move |s| s.revive_node(v));
    }
    if let Some((a, b)) = sc.cut {
        sim.at(SimTime::from_millis(1), move |s| {
            s.partition_azs(simnet::AzId(a), simnet::AzId(b))
        });
        sim.at(SimTime::from_millis(2), move |s| s.heal_azs(simnet::AzId(a), simnet::AzId(b)));
    }
    sim.run_until(SimTime::from_millis(5));
    let mut sig = String::new();
    for &id in &ids {
        let a = sim.actor::<StormActor>(id);
        let (mi, mo) = sim.msg_counts(id);
        let _ = writeln!(
            sig,
            "{id} state={:#x} seq={} in={}/{} out={}/{} epoch={}",
            a.state,
            a.seq,
            mi,
            sim.net_in_bytes(id),
            mo,
            sim.net_out_bytes(id),
            sim.node_epoch(id),
        );
    }
    let m = sim.metrics();
    let mut net: Vec<String> = m
        .iter_net()
        .map(|(s, d, h, b)| format!("net {s}->{d} bytes={b} n={} max={}", h.count(), h.max()))
        .collect();
    net.sort();
    let mut cpu: Vec<String> = m
        .iter_cpu()
        .map(|(layer, lane, c)| format!("cpu {layer}/{lane} {:?}", c))
        .collect();
    cpu.sort();
    let hist = m.hist("storm", "recv_bytes").map(|h| (h.count(), h.max())).unwrap_or((0, 0));
    let _ = writeln!(
        sig,
        "{}\n{}\nticks={} recv=({},{}) cross={} events={} dropped={} duped={}",
        net.join("\n"),
        cpu.join("\n"),
        m.counter("storm", "ticks"),
        hist.0,
        hist.1,
        sim.cross_az_bytes(),
        sim.events_processed(),
        sim.msgs_dropped(),
        sim.msgs_duplicated(),
    );
    drop(sim);
    let log = std::sync::Arc::try_unwrap(log).expect("actors dropped").into_inner().unwrap();
    (sig, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded conservative-parallel kernel is observationally
    /// equivalent to the sequential kernel on random actor graphs and fault
    /// schedules: identical per-node states and timelines, metrics
    /// snapshots, AZ ledgers, and event counts at shards ∈ {2, 4, 8} vs the
    /// single-shard reference — and the dispatch multiset (every delivery's
    /// (time, node, per-node seq)) matches exactly.
    #[test]
    fn sharded_kernel_matches_sequential_reference(sc in storm_scenario()) {
        let (ref_sig, ref_log) = run_storm(&sc, 1, 0.05);
        let mut ref_sorted = ref_log.clone();
        ref_sorted.sort_unstable();
        for shards in [2u32, 4, 8] {
            let (sig, mut log) = run_storm(&sc, shards, 0.05);
            prop_assert_eq!(&sig, &ref_sig, "signature diverged at shards={}", shards);
            // Within a lockstep window shards dispatch concurrently, so the
            // wall-clock interleaving of the shared log is arbitrary — but
            // the set of dispatches (and each node's own order, via seq)
            // must match the sequential run exactly.
            log.sort_unstable();
            prop_assert_eq!(&log, &ref_sorted, "dispatch set diverged at shards={}", shards);
        }
    }

    /// With jitter >= 1 the lookahead collapses to zero and the multi-shard
    /// kernel falls back to the sequential multi-queue merge — which must
    /// reproduce the single-shard engine's *global dispatch order* event for
    /// event, not just the per-node projections.
    #[test]
    fn zero_lookahead_fallback_preserves_global_order(sc in storm_scenario()) {
        let (ref_sig, ref_log) = run_storm(&sc, 1, 1.0);
        let (sig, log) = run_storm(&sc, 4, 1.0);
        prop_assert_eq!(sig, ref_sig);
        prop_assert_eq!(log, ref_log, "global pop order diverged");
    }
}
