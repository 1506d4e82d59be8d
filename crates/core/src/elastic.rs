//! Elastic metadata serving: the namenode pool controller.
//!
//! HopsFS namenodes are stateless (all metadata lives in NDB), which makes
//! the serving layer the natural place to exploit cloud elasticity: spawn
//! namenodes when the pool saturates, retire them when load drops, and pay
//! for the peak only while it lasts. The [`ElasticController`] actor does
//! that with the composite overload signal the admission subsystem already
//! computes (worker-lane backlog plus the NDB TC-queue-delay hint):
//!
//! - every serving namenode pushes an [`NnLoadReport`] each sweep tick;
//! - the controller keeps the pool-mean signal inside the configured
//!   `[scale_down_threshold, scale_up_threshold]` band, activating one
//!   parked namenode ([`NnActivate`] → modeled boot delay → [`NnServing`])
//!   or draining one serving namenode per action, with a cooldown between
//!   actions (hysteresis);
//! - membership changes are versioned: each grow/shrink bumps a
//!   **membership epoch**, broadcast to namenodes ([`MembershipUpdate`])
//!   and piggybacked on every [`crate::ops::FsResponse`], so clients
//!   re-discover the active set lazily without a client broadcast;
//! - retiring is **drain-then-park**: the namenode leaves the membership
//!   first (no new work routes to it), then finishes its in-flight
//!   operations and lease revoke rounds before reporting [`NnDrainDone`].
//!   A namenode that crashes mid-drain simply never reports; the
//!   controller force-parks it after `drain_timeout` — it is already out
//!   of the membership, so clients have moved on.
//!
//! The activation cold-start is modeled explicitly: `boot_delay` before the
//! namenode serves at all, then a fixed number of operations at extra base
//! cost while its inode-hint cache refills (constants of the namenode). The `fig_elastic`
//! bench checks the resulting trade: near-static goodput at a fraction of
//! the static pool's provisioned namenode-hours.

use crate::view::FsView;
use simnet::{Actor, Ctx, NodeId, Payload, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Controller evaluation period.
const EVAL_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Controller evaluation tick.
#[derive(Debug, Clone, Copy)]
struct TickElastic;

/// Controller → namenode: leave the parked state. The namenode models its
/// cold start (`boot_delay`, then the cache-warm penalty) and reports
/// [`NnServing`] when it is taking traffic.
#[derive(Debug, Clone, Copy)]
pub struct NnActivate;

/// Controller → namenode: stop taking new work, finish what is in flight
/// (operations and lease revoke rounds), then report [`NnDrainDone`] and
/// park. The controller removes the namenode from the membership *before*
/// sending this, so no new work routes to it while it drains.
#[derive(Debug, Clone, Copy)]
pub struct NnDrain;

/// Namenode → controller: activation finished, now serving.
#[derive(Debug, Clone, Copy)]
pub struct NnServing {
    /// Namenode index.
    pub nn_idx: u32,
}

/// Namenode → controller: drain finished, now parked.
#[derive(Debug, Clone, Copy)]
pub struct NnDrainDone {
    /// Namenode index.
    pub nn_idx: u32,
}

/// Namenode → controller: periodic load sample (sent each sweep tick while
/// serving).
#[derive(Debug, Clone, Copy)]
pub struct NnLoadReport {
    /// Namenode index.
    pub nn_idx: u32,
    /// The composite overload signal, in nanoseconds (worker backlog plus
    /// the weighted NDB TC-queue-delay hint — the admission gates' view).
    pub signal_ns: u64,
    /// Requests shed at admission since the last report.
    pub shed_delta: u64,
}

/// Controller → namenodes: the new versioned membership. Namenodes serve it
/// to clients via [`crate::ops::GetActiveNns`] and stamp the epoch on every
/// response.
#[derive(Debug, Clone)]
pub struct MembershipUpdate {
    /// Monotonic membership epoch.
    pub epoch: u64,
    /// Serving namenode indices.
    pub active: Vec<u32>,
}

/// Where each namenode is in its lifecycle, from the controller's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NnPoolState {
    /// Idle, owns no election row, sheds everything with a redirect.
    Parked,
    /// `NnActivate` sent; waiting out the boot delay.
    Booting,
    /// In the membership, taking traffic.
    Serving,
    /// Out of the membership, finishing in-flight work.
    Draining,
}

/// Controller statistics for the harness.
#[derive(Debug, Default, Clone)]
pub struct ElasticStats {
    /// Scale-up actions (activations requested).
    pub scale_ups: u64,
    /// Scale-down actions (drains requested).
    pub scale_downs: u64,
    /// Draining namenodes force-parked after `drain_timeout` (crash
    /// mid-drain).
    pub forced_parks: u64,
    /// Serving namenodes removed from the membership because they died.
    pub crash_evictions: u64,
    /// Integral of the serving count over time, in node-nanoseconds —
    /// divide by the run length for the mean provisioned namenode count.
    pub provisioned_nn_ns: u128,
    /// Load-report samples folded into the controller's view.
    pub reports_received: u64,
}

/// The namenode pool controller actor. One per elastic deployment; spawned
/// by [`crate::deploy::build_fs_cluster`] when `config.elastic.enabled`.
pub struct ElasticController {
    view: Arc<FsView>,
    /// Lifecycle state per namenode index.
    state: Vec<NnPoolState>,
    /// Current membership epoch (starts at 1: epoch 0 means "static").
    epoch: u64,
    /// Latest load sample per serving namenode: (when, signal, shed delta).
    reports: BTreeMap<u32, (SimTime, u64, u64)>,
    /// When the last scaling action fired (cooldown anchor).
    last_action: SimTime,
    /// Per-namenode drain start times (drain-timeout fallback).
    drain_started: BTreeMap<u32, SimTime>,
    /// When the provisioned integral was last advanced.
    last_integral_at: SimTime,
    /// Statistics.
    pub stats: ElasticStats,
}

impl ElasticController {
    /// Creates the controller for a deployment.
    pub fn new(view: Arc<FsView>) -> Self {
        let n = view.nn_ids.len();
        let initial = view.config.elastic.initial_active.clamp(1, n);
        let state = (0..n)
            .map(|i| if i < initial { NnPoolState::Serving } else { NnPoolState::Parked })
            .collect();
        ElasticController {
            view,
            state,
            epoch: 1,
            reports: BTreeMap::new(),
            last_action: SimTime::ZERO,
            drain_started: BTreeMap::new(),
            last_integral_at: SimTime::ZERO,
            stats: ElasticStats::default(),
        }
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Serving namenode indices, ascending.
    pub fn serving(&self) -> Vec<u32> {
        self.state
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NnPoolState::Serving)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Lifecycle state of namenode `idx`.
    pub fn state_of(&self, idx: usize) -> NnPoolState {
        self.state[idx]
    }

    fn advance_integral(&mut self, now: SimTime) {
        let serving = self.state.iter().filter(|s| **s == NnPoolState::Serving).count() as u128;
        let dt = now.saturating_since(self.last_integral_at).as_nanos() as u128;
        self.stats.provisioned_nn_ns += serving * dt;
        self.last_integral_at = now;
    }

    fn broadcast_membership(&mut self, ctx: &mut Ctx<'_>) {
        let update = MembershipUpdate { epoch: self.epoch, active: self.serving() };
        for &nn in &self.view.nn_ids {
            ctx.send_sized(nn, 48 + 4 * update.active.len() as u64, update.clone());
        }
    }

    /// Pool-mean composite signal and total admission sheds over fresh
    /// reports from serving nodes. Sheds are the saturated tail of the
    /// signal: a gate that is already turning work away votes to scale up
    /// regardless of the latency mean.
    fn fresh_load(&self, now: SimTime) -> Option<(SimDuration, u64)> {
        let horizon = EVAL_PERIOD * 2;
        let fresh: Vec<(u64, u64)> = self
            .state
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NnPoolState::Serving)
            .filter_map(|(i, _)| self.reports.get(&(i as u32)))
            .filter(|(at, _, _)| now.saturating_since(*at) <= horizon)
            .map(|&(_, sig, shed)| (sig, shed))
            .collect();
        if fresh.is_empty() {
            return None;
        }
        let mean = fresh.iter().map(|&(s, _)| s).sum::<u64>() / fresh.len() as u64;
        let sheds = fresh.iter().map(|&(_, d)| d).sum();
        Some((SimDuration::from_nanos(mean), sheds))
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let cfg = self.view.config.elastic;
        self.advance_integral(now);

        // Crash detection: a serving namenode that died leaves the
        // membership now (clients were already timing out on it; the epoch
        // bump stops fresh picks). It rejoins through a normal activation
        // once it is back up.
        let mut evicted = false;
        for i in 0..self.state.len() {
            if self.state[i] == NnPoolState::Serving && !ctx.is_alive(self.view.nn_ids[i]) {
                self.state[i] = NnPoolState::Parked;
                self.reports.remove(&(i as u32));
                self.stats.crash_evictions += 1;
                evicted = true;
            }
        }
        if evicted {
            self.epoch += 1;
            self.broadcast_membership(ctx);
        }

        // Drain-timeout fallback: a drainer that never reported (crashed
        // mid-drain, or its DrainDone was lost) is force-parked. It is
        // already out of the membership, so this only reconciles state.
        let overdue: Vec<u32> = self
            .drain_started
            .iter()
            .filter(|&(_, &at)| now.saturating_since(at) > cfg.drain_timeout)
            .map(|(&i, _)| i)
            .collect();
        for i in overdue {
            self.drain_started.remove(&i);
            if self.state[i as usize] == NnPoolState::Draining {
                self.state[i as usize] = NnPoolState::Parked;
                self.stats.forced_parks += 1;
            }
        }

        let serving = self.serving();
        let cool = now.saturating_since(self.last_action) >= cfg.cooldown;
        if let Some((mean, sheds)) = self.fresh_load(now) {
            if cool && (mean > cfg.scale_up_threshold || sheds > 0) {
                // Activate the lowest parked index that is alive.
                let pick = self
                    .state
                    .iter()
                    .enumerate()
                    .position(|(i, s)| {
                        *s == NnPoolState::Parked && ctx.is_alive(self.view.nn_ids[i])
                    });
                if let Some(i) = pick {
                    self.state[i] = NnPoolState::Booting;
                    self.stats.scale_ups += 1;
                    self.last_action = now;
                    ctx.send_sized(self.view.nn_ids[i], 32, NnActivate);
                }
            } else if cool
                && mean < cfg.scale_down_threshold
                && sheds == 0
                && serving.len() > cfg.min_active.max(1)
            {
                // Drain the highest serving index: membership first, then
                // the drain order, so no new work races onto the leaver.
                let i = *serving.last().expect("non-empty serving set") as usize;
                self.state[i] = NnPoolState::Draining;
                self.reports.remove(&(i as u32));
                self.drain_started.insert(i as u32, now);
                self.stats.scale_downs += 1;
                self.last_action = now;
                self.epoch += 1;
                self.broadcast_membership(ctx);
                ctx.send_sized(self.view.nn_ids[i], 32, NnDrain);
            }
        }
        ctx.schedule(EVAL_PERIOD, TickElastic);
    }

    fn on_serving(&mut self, ctx: &mut Ctx<'_>, m: NnServing) {
        let i = m.nn_idx as usize;
        if i >= self.state.len() || self.state[i] != NnPoolState::Booting {
            return; // stale (e.g. crash-evicted while booting)
        }
        self.advance_integral(ctx.now());
        self.state[i] = NnPoolState::Serving;
        self.epoch += 1;
        self.broadcast_membership(ctx);
    }

    fn on_drain_done(&mut self, ctx: &mut Ctx<'_>, m: NnDrainDone) {
        let i = m.nn_idx as usize;
        if i >= self.state.len() || self.state[i] != NnPoolState::Draining {
            return;
        }
        self.advance_integral(ctx.now());
        self.state[i] = NnPoolState::Parked;
        self.drain_started.remove(&m.nn_idx);
    }
}

impl Actor for ElasticController {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.last_integral_at = ctx.now();
        // Seed the initial membership so namenodes and clients agree on
        // epoch 1 from the first response.
        self.broadcast_membership(ctx);
        ctx.schedule(EVAL_PERIOD, TickElastic);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<NnLoadReport>() {
            Ok(m) => {
                self.stats.reports_received += 1;
                self.reports.insert(m.nn_idx, (ctx.now(), m.signal_ns, m.shed_delta));
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<NnServing>() {
            Ok(m) => return self.on_serving(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<NnDrainDone>() {
            Ok(m) => return self.on_drain_done(ctx, *m),
            Err(m) => m,
        };
        match any.downcast::<TickElastic>() {
            Ok(_) => self.on_tick(ctx),
            Err(m) => debug_assert!(false, "elastic controller got unknown message {m:?}"),
        }
    }
}
