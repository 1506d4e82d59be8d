//! Open-loop load generation with adaptive concurrency.
//!
//! The closed-loop [`crate::client::FsClientActor`] self-throttles: a slow
//! server slows the client down, so offered load collapses to match capacity
//! and overload never materializes. Real front-ends are open-loop — arrivals
//! come from the outside world at their own rate, independent of completions
//! (§"strike back in the Cloud" motivation: bursty, multi-tenant clouds).
//!
//! [`OpenLoopClientActor`] models that: operations *arrive* on a Poisson
//! process at a configured rate whether or not earlier ones finished. An
//! AIMD concurrency window ([`OpenLoopClientActor::cwnd`]) decides how many
//! may be in flight at once; arrivals beyond the window wait in a bounded
//! queue and are **dropped** (counted, never silently) when it overflows.
//! The window grows additively on good completions and halves when the
//! server sheds (`Overloaded`), when an op times out, or when observed
//! latency blows past the target — the client-side half of the cross-layer
//! overload-control loop.

use crate::client::{ClientStats, OpSource};
use crate::ops::{ActiveNns, FsOp, FsResponse};
use crate::session::{Resend, Session};
use crate::types::{FsError, FsResult};
use crate::view::FsView;
use rand::Rng;
use simnet::{
    poisson_interarrival, Actor, BoundedQueue, Ctx, NodeId, Payload, RateCurve, SimDuration,
    SimTime,
};
use std::sync::Arc;
use std::sync::Mutex;

/// Ceiling on the AIMD window.
const CWND_MAX: f64 = 256.0;
/// Multiplicative-decrease factor.
const MD_FACTOR: f64 = 0.5;
/// Minimum spacing between multiplicative decreases: one decrease per
/// congestion *event*, not per congested reply.
const MD_HOLDOFF: SimDuration = SimDuration::from_millis(100);
/// Completions slower than this count as congestion for AIMD.
const LATENCY_TARGET: SimDuration = SimDuration::from_millis(500);

#[derive(Debug, Clone, Copy)]
struct Arrival;
#[derive(Debug, Clone, Copy)]
struct OlTick;

/// An open-loop client session: Poisson arrivals, AIMD admission window,
/// bounded arrival queue. Construct via
/// [`crate::deploy::FsCluster::add_open_loop_client`].
pub struct OpenLoopClientActor {
    view: Arc<FsView>,
    session: Session,
    /// Offered load: mean operation arrivals per second.
    pub rate_per_sec: f64,
    /// Time-varying offered load. When set, arrivals follow this curve (a
    /// non-homogeneous Poisson process) and `rate_per_sec` is ignored.
    pub curve: Option<RateCurve>,
    /// Namenodes currently serving (see [`crate::elastic`]); kept fresh via
    /// the membership-epoch piggyback on responses. Empty = use the static
    /// deployment list.
    members: Vec<NodeId>,
    membership_epoch: u64,
    cwnd: f64,
    last_decrease: SimTime,
    queue: BoundedQueue<FsOp>,
    /// Arrivals dropped because the bounded queue was full (client-side
    /// shedding — the open-loop analogue of a full accept queue).
    pub dropped_arrivals: u64,
    /// Arrivals offered so far (dispatched + queued + dropped).
    pub offered: u64,
    /// True once the source is exhausted.
    pub done: bool,
    /// Whether the AIMD window is active. When `false` the client is the
    /// pre-overload-control baseline: every arrival dispatches immediately
    /// (no window, no queue, no drops), and only the per-attempt timeout
    /// retry loop remains — the configuration that collapses under
    /// sustained overload.
    pub adaptive: bool,
}

impl OpenLoopClientActor {
    /// Creates an open-loop session offering `rate_per_sec` ops/s, holding
    /// at most `queue_cap` arrivals beyond the in-flight window.
    pub fn new(
        view: Arc<FsView>,
        source: Box<dyn OpSource>,
        stats: Arc<Mutex<ClientStats>>,
        rate_per_sec: f64,
        queue_cap: usize,
    ) -> Self {
        assert!(rate_per_sec > 0.0, "offered rate must be positive");
        // Elastic pool: only the initial members serve at t=0; the list
        // follows the controller's membership epochs from there.
        let members: Vec<NodeId> = if view.config.elastic.enabled {
            let n = view.config.elastic.initial_active.clamp(1, view.nn_ids.len());
            view.nn_ids[..n].to_vec()
        } else {
            Vec::new()
        };
        OpenLoopClientActor {
            view,
            session: Session::new(source, stats),
            rate_per_sec,
            curve: None,
            members,
            membership_epoch: 0,
            cwnd: 4.0,
            last_decrease: SimTime::ZERO,
            queue: BoundedQueue::new(queue_cap),
            dropped_arrivals: 0,
            offered: 0,
            done: false,
            adaptive: true,
        }
    }

    /// Replaces the constant arrival rate with a time-varying curve.
    pub fn with_rate_curve(mut self, curve: RateCurve) -> Self {
        self.curve = Some(curve);
        self
    }

    /// Current AIMD window (fractional; `floor` is the in-flight cap).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn next_gap(&self, ctx: &mut Ctx<'_>) -> SimDuration {
        let now = ctx.now();
        match &self.curve {
            Some(curve) => curve.next_arrival(ctx.rng(), now),
            None => poisson_interarrival(ctx.rng(), self.rate_per_sec),
        }
    }

    /// Whether nothing is in flight or queued (the session drained).
    pub fn idle(&self) -> bool {
        self.session.is_empty() && self.queue.is_empty()
    }

    fn window(&self) -> usize {
        if !self.adaptive {
            return usize::MAX;
        }
        (self.cwnd as usize).max(1)
    }

    fn decrease(&mut self, now: SimTime) {
        if !self.adaptive || now.saturating_since(self.last_decrease) < MD_HOLDOFF {
            return;
        }
        self.last_decrease = now;
        self.cwnd = (self.cwnd * MD_FACTOR).max(1.0);
    }

    fn increase(&mut self) {
        if !self.adaptive {
            return;
        }
        // +1 window per window of good completions (classic AIMD).
        self.cwnd = (self.cwnd + 1.0 / self.cwnd).min(CWND_MAX);
    }

    fn pick_nn(&self, ctx: &mut Ctx<'_>) -> Option<NodeId> {
        let alive: Vec<NodeId> = pool(&self.members, &self.view)
            .iter()
            .copied()
            .filter(|&nn| ctx.is_alive(nn))
            .collect();
        let alive = if alive.is_empty() {
            // Every member looks dead (e.g. mid-reconfiguration crash):
            // fall back to the full deployment rather than stalling.
            self.view.nn_ids.iter().copied().filter(|&nn| ctx.is_alive(nn)).collect()
        } else {
            alive
        };
        if alive.is_empty() {
            return None;
        }
        let i = ctx.rng().gen_range(0..alive.len());
        Some(alive[i])
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        let Some(op) = self.session.next_op(ctx) else {
            self.done = true;
            return;
        };
        // Schedule the next arrival *before* handling this one: offered
        // load never depends on how handling goes.
        let gap = self.next_gap(ctx);
        ctx.schedule(gap, Arrival);
        self.offered += 1;
        if self.session.len() < self.window() {
            self.dispatch(ctx, op);
        } else if let Err(op) = self.queue.push(op) {
            // Queue full: drop at the door, visibly.
            self.dropped_arrivals += 1;
            let layer = ctx.layer();
            ctx.metrics().inc(layer, "openloop_dropped", 1);
            self.session
                .source
                .on_result(&op, &Err(FsError::Overloaded { retry_after: SimDuration::ZERO }));
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, op: FsOp) {
        let req_id = self.session.begin(ctx, op);
        self.send(ctx, req_id);
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, req_id: u64) {
        // Everyone dead: nothing is sent, and the tick sweep times us out.
        if let Some(nn) = self.pick_nn(ctx) {
            self.session.send(ctx, req_id, nn);
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, req_id: u64, result: FsResult) {
        let latency = self.session.finish(ctx, req_id, &result);
        if result.is_ok() && latency <= LATENCY_TARGET {
            self.increase();
        } else if result.is_ok() {
            // Late success: the pipe is full even though nothing failed.
            self.decrease(ctx.now());
        }
        self.pump(ctx);
    }

    /// Fills freed window slots from the arrival queue.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.session.len() < self.window() {
            match self.queue.pop() {
                Some(op) => self.dispatch(ctx, op),
                None => break,
            }
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, resp: FsResponse) {
        // Membership-epoch piggyback (see `crate::elastic`): a newer epoch
        // invalidates the member list — refresh it from any namenode.
        if resp.membership_epoch > self.membership_epoch {
            self.membership_epoch = resp.membership_epoch;
            if !self.session.awaiting_list() {
                self.session.fetch_list(ctx, pool(&self.members, &self.view));
            }
        }
        if !self.session.admit(&resp) {
            return;
        }
        if let Err(FsError::Overloaded { retry_after }) = resp.result {
            // A redirect is misrouting (the namenode left the pool), not
            // congestion: re-pick without charging the AIMD window.
            if !resp.redirect {
                self.decrease(ctx.now());
            }
            if let Err(e) =
                self.session.overloaded(ctx, resp.req_id, retry_after, "overload_backoff")
            {
                self.complete(ctx, resp.req_id, Err(e));
            }
            return;
        }
        self.complete(ctx, resp.req_id, resp.result);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.session.refetch_lost_list(ctx, pool(&self.members, &self.view));
        for req_id in self.session.expired(now) {
            self.decrease(now);
            if let Err(e) = self.session.time_out(ctx, req_id) {
                self.complete(ctx, req_id, Err(e));
            }
        }
        let layer = ctx.layer();
        ctx.metrics().set_gauge(layer, "cwnd", self.cwnd as u64);
        ctx.metrics().set_gauge(layer, "arrival_queue", self.queue.len() as u64);
        if !(self.done && self.idle()) {
            ctx.schedule(SimDuration::from_millis(250), OlTick);
        }
    }
}

/// The namenodes a session routes to and asks for the member list: the
/// members, or the whole deployment before the first list.
fn pool<'a>(members: &'a [NodeId], view: &'a FsView) -> &'a [NodeId] {
    if members.is_empty() {
        &view.nn_ids
    } else {
        members
    }
}

impl Actor for OpenLoopClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let gap = self.next_gap(ctx);
        ctx.schedule(gap, Arrival);
        ctx.schedule(SimDuration::from_millis(250), OlTick);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<FsResponse>() {
            Ok(m) => return self.on_response(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<ActiveNns>() {
            Ok(m) => {
                self.session.list_arrived();
                if m.membership_epoch >= self.membership_epoch {
                    self.membership_epoch = m.membership_epoch;
                    self.members = m.nns.iter().map(|n| NodeId(n.node_id)).collect();
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<Arrival>() {
            Ok(_) => return self.on_arrival(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<OlTick>() {
            Ok(_) => return self.on_tick(ctx),
            Err(m) => m,
        };
        match any.downcast::<Resend>() {
            Ok(m) => {
                if let Some(req_id) = self.session.resend_due(*m) {
                    self.send(ctx, req_id);
                }
            }
            Err(m) => debug_assert!(false, "open-loop client got unknown message {m:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsConfig;
    use crate::deploy::build_fs_cluster;
    use crate::elastic::ElasticController;
    use crate::path::FsPath;
    use rand::rngs::StdRng;
    use simnet::{AzId, Simulation};

    /// Stats the root, forever.
    struct StatRoot;

    impl OpSource for StatRoot {
        fn next_op(&mut self, _rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
            Some(FsOp::Stat { path: FsPath::parse("/").unwrap() })
        }
    }

    fn session(sim: &Simulation, id: NodeId) -> &OpenLoopClientActor {
        sim.actor::<OpenLoopClientActor>(id)
    }

    #[test]
    fn lost_member_fetch_is_resent_until_the_list_catches_up() {
        let mut cfg = FsConfig::hopsfs_cl(6, 3, 3).scaled_down(16);
        cfg.elastic.enabled = true;
        // All three namenodes serve and none may be drained: the crash
        // eviction below is the run's only membership change.
        cfg.elastic.initial_active = 3;
        cfg.elastic.min_active = 3;
        let mut sim = Simulation::new(5);
        let cluster = build_fs_cluster(&mut sim, cfg, 6);
        sim.run_until(SimTime::from_secs(3)); // elections settle
        let stats = ClientStats::shared();
        let client =
            cluster.add_open_loop_client(&mut sim, AzId(0), Box::new(StatRoot), stats, 100.0, 64);
        sim.run_for(SimDuration::from_secs(2));

        // Crash a member: the controller evicts it and bumps the epoch. The
        // first response stamped with the new epoch makes the client fetch
        // the member list; cut the client off while that fetch is on the
        // wire, then reconnect it.
        let epoch = session(&sim, client).membership_epoch;
        sim.kill_node(cluster.view.nn_ids[2]);
        while session(&sim, client).membership_epoch == epoch {
            assert!(sim.step(), "the epoch bump never reached the client");
        }
        sim.isolate_node(client);
        sim.run_for(SimDuration::from_secs(1));
        sim.heal_isolation(client);
        sim.run_for(SimDuration::from_secs(5));

        let controller = cluster.view.controller_id.expect("elastic deployment");
        let controller = sim.actor::<ElasticController>(controller);
        let serving: Vec<NodeId> =
            controller.serving().iter().map(|&i| cluster.view.nn_ids[i as usize]).collect();
        assert_eq!(serving.len(), 2, "the crashed member was not evicted");
        assert_eq!(session(&sim, client).membership_epoch, controller.epoch());
        assert_eq!(session(&sim, client).members, serving, "member list stuck at the old epoch");
    }
}
