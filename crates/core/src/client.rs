//! HopsFS clients: one actor per client session, driven by an [`OpSource`].
//!
//! Clients implement the paper's metadata-server selection policy (§IV-B3):
//! an AZ-aware client first fetches the active namenode list (maintained by
//! the leader-election protocol, which piggybacks each NN's
//! `locationDomainId`) and picks a namenode in its own AZ, falling back to a
//! random one. A vanilla client picks a random namenode and sticks with it
//! until it fails, then picks a random survivor.
//!
//! Request framing, backoff, timeouts and the active-list fetch are the
//! session core in `session.rs`, shared with the open-loop client.

use crate::lease::{
    cache_kind, CacheEntry, LeaseCache, LeaseInvalidate, LeaseInvalidateAck, LeaseMonitor,
    LeaseRenew, LeaseRenewAck, RenewItem,
};
use crate::ops::{ActiveNn, ActiveNns, FsOp, FsResponse, OpKind};
use crate::session::{Resend, Session};
use crate::types::{FsError, FsResult};
use crate::view::FsView;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use simnet::{Actor, AzId, Ctx, FxHashMap, Histogram, NodeId, Payload, SimDuration, SimTime};
use std::sync::Arc;
use std::sync::Mutex;

/// Lease-cache capacity (entries); oldest-expiry entries are evicted first
/// when full.
const LEASE_CACHE_ENTRIES: usize = 4096;
/// How close to expiry a leased entry must be before the background refresh
/// considers renewing it.
const LEASE_REFRESH_MARGIN: SimDuration = SimDuration::from_secs(2);
/// Slack past the lease TTL for which an invalidation tombstone is kept
/// (covers detection and delivery skew).
const LEASE_REVOKE_MARGIN: SimDuration = SimDuration::from_millis(200);

/// Supplies operations to a client session (closed loop: the next op is
/// requested when the previous one completes).
pub trait OpSource: Send {
    /// The next operation, or `None` when the session is done.
    fn next_op(&mut self, rng: &mut StdRng, now: SimTime) -> Option<FsOp>;
    /// Observes a completed operation.
    fn on_result(&mut self, _op: &FsOp, _result: &FsResult) {}
}

/// A fixed list of operations (tests, examples).
#[derive(Debug)]
pub struct ScriptedSource {
    ops: std::collections::VecDeque<FsOp>,
}

impl ScriptedSource {
    /// Creates a source that plays `ops` in order.
    pub fn new(ops: Vec<FsOp>) -> Self {
        ScriptedSource { ops: ops.into() }
    }
}

impl OpSource for ScriptedSource {
    fn next_op(&mut self, _rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        self.ops.pop_front()
    }
}

/// Aggregated workload statistics, shared by all client sessions of one
/// experiment (single-threaded simulation ⇒ `Arc<Mutex<…>>`).
#[derive(Debug)]
pub struct ClientStats {
    /// Record only while true (toggled by the harness around the
    /// measurement window).
    pub recording: bool,
    /// Successful ops per kind.
    pub ok_per_kind: [u64; 9],
    /// Failed ops per kind.
    pub err_per_kind: [u64; 9],
    /// End-to-end latency (ns) across all ops.
    pub latency_all: Histogram,
    /// End-to-end latency (ns) per kind.
    pub latency_per_kind: [Histogram; 9],
    /// Error tallies.
    pub errors: FxHashMap<&'static str, u64>,
    /// `Overloaded` responses observed (admission sheds reaching clients).
    /// Counted on every arrival, ignoring `recording` — the chaos
    /// shed-accounting audit needs the full-run tally.
    pub overloaded_responses: u64,
    /// Reads served locally from a valid lease (zero namenode round trips).
    /// Gated on `recording`, like latencies.
    pub lease_hits: u64,
    /// Cacheable reads that went to a namenode (no valid lease). Gated on
    /// `recording`.
    pub lease_misses: u64,
    /// Cache entries dropped by invalidation (pushes plus self-notices).
    /// Counted on every arrival, ignoring `recording`.
    pub lease_invalidations: u64,
    /// Lease renewals confirmed by a namenode. Ignores `recording`.
    pub lease_renewed: u64,
}

impl Default for ClientStats {
    fn default() -> Self {
        ClientStats {
            recording: true,
            ok_per_kind: [0; 9],
            err_per_kind: [0; 9],
            latency_all: Histogram::new(),
            latency_per_kind: std::array::from_fn(|_| Histogram::new()),
            errors: FxHashMap::default(),
            overloaded_responses: 0,
            lease_hits: 0,
            lease_misses: 0,
            lease_invalidations: 0,
            lease_renewed: 0,
        }
    }
}

impl ClientStats {
    /// New shared handle.
    pub fn shared() -> Arc<Mutex<ClientStats>> {
        Arc::new(Mutex::new(ClientStats::default()))
    }

    /// Total successful operations.
    pub fn total_ok(&self) -> u64 {
        self.ok_per_kind.iter().sum()
    }

    /// Total failed operations.
    pub fn total_err(&self) -> u64 {
        self.err_per_kind.iter().sum()
    }

    fn kind_slot(kind: OpKind) -> usize {
        OpKind::ALL.iter().position(|&k| k == kind).expect("kind in ALL")
    }

    /// Latency histogram of one kind.
    pub fn latency_of(&self, kind: OpKind) -> &Histogram {
        &self.latency_per_kind[Self::kind_slot(kind)]
    }

    /// Successful op count of one kind.
    pub fn ok_of(&self, kind: OpKind) -> u64 {
        self.ok_per_kind[Self::kind_slot(kind)]
    }

    /// Records one completed operation (shared by HopsFS and baseline
    /// clients so all systems report through the same sink).
    pub fn record(&mut self, kind: OpKind, result: &FsResult, latency: SimDuration) {
        if !self.recording {
            return;
        }
        let slot = Self::kind_slot(kind);
        match result {
            Ok(_) => {
                self.ok_per_kind[slot] += 1;
                self.latency_all.record(latency.as_nanos());
                self.latency_per_kind[slot].record(latency.as_nanos());
            }
            Err(e) => {
                self.err_per_kind[slot] += 1;
                let label = match e {
                    FsError::NotFound => "not_found",
                    FsError::AlreadyExists => "already_exists",
                    FsError::NotDir => "not_dir",
                    FsError::NotEmpty => "not_empty",
                    FsError::IsDir => "is_dir",
                    FsError::Busy => "busy",
                    FsError::Unavailable => "unavailable",
                    FsError::Invalid => "invalid",
                    FsError::Overloaded { .. } => "overloaded",
                };
                *self.errors.entry(label).or_insert(0) += 1;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct TickClient;
#[derive(Debug, Clone)]
struct ThinkDone;

/// Wakes an idle session so it polls its [`OpSource`] immediately (used by
/// the synchronous test facade instead of waiting for the next tick).
#[derive(Debug, Clone, Copy)]
pub struct Poke;

/// One client session.
pub struct FsClientActor {
    view: Arc<FsView>,
    /// The client's `locationDomainId` (None = vanilla).
    pub domain: Option<AzId>,
    session: Session,
    /// Current metadata server, as a simulation node id.
    my_nn: Option<NodeId>,
    active: Vec<ActiveNn>,
    /// Highest pool-membership epoch seen on any response (see
    /// [`crate::elastic`]); a higher epoch on a response invalidates the
    /// cached active list.
    membership_epoch: u64,
    /// Pause between ops (0 = fully closed loop).
    pub think_time: SimDuration,
    /// A think pause is in progress (`ThinkDone` scheduled): the stall
    /// ticker must not cut it short by issuing early.
    thinking: bool,
    /// Results kept when enabled (tests/examples).
    pub keep_results: bool,
    /// Collected results (when `keep_results`).
    pub results: Vec<FsResult>,
    /// True once the source is exhausted.
    pub done: bool,
    /// Leased metadata cache (inert unless `config.lease.enabled`).
    pub cache: LeaseCache,
    /// Coherence observer shared across the experiment's clients; checked
    /// on every local serve, fed on every mutation ack. `None` outside
    /// chaos/property harnesses.
    pub monitor: Option<Arc<Mutex<LeaseMonitor>>>,
}

impl FsClientActor {
    /// Creates a client session.
    pub fn new(
        view: Arc<FsView>,
        domain: Option<AzId>,
        source: Box<dyn OpSource>,
        stats: Arc<Mutex<ClientStats>>,
    ) -> Self {
        let cache = LeaseCache::new(LEASE_CACHE_ENTRIES);
        FsClientActor {
            view,
            domain,
            session: Session::new(source, stats),
            my_nn: None,
            active: Vec::new(),
            membership_epoch: 0,
            think_time: SimDuration::ZERO,
            thinking: false,
            keep_results: false,
            results: Vec::new(),
            done: false,
            cache,
            monitor: None,
        }
    }

    /// Picks from a clone of the node RNG, so a pick never advances the
    /// node's random stream.
    fn pick_nn(&self, ctx: &mut Ctx<'_>) -> Option<NodeId> {
        let rng = &mut ctx.rng().clone();
        if !self.active.is_empty() {
            if let Some(domain) = self.domain {
                // AZ-aware policy: same-AZ active namenode, else random active.
                let local: Vec<&ActiveNn> =
                    self.active.iter().filter(|n| n.location_domain == domain.0).collect();
                let chosen = if local.is_empty() {
                    self.active.choose(rng)
                } else {
                    local.choose(rng).copied()
                };
                return chosen.map(|n| NodeId(n.node_id));
            }
            if self.view.config.elastic.enabled {
                // Elastic pool: only members serve — a static pick would
                // land on a parked namenode and bounce.
                return self.active.choose(rng).map(|n| NodeId(n.node_id));
            }
        }
        // Vanilla (or no active list yet): random from the static deployment.
        self.view.nn_ids.choose(rng).copied()
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        self.thinking = false;
        if !self.session.is_empty() || self.done {
            return;
        }
        let now = ctx.now();
        let Some(op) = self.session.next_op(ctx) else {
            self.done = true;
            return;
        };
        // Lease-cache fast path: a cacheable read with a valid lease is
        // served locally — zero namenode round trips — at a synthetic
        // local-lookup latency (scheduled, not recursed, so a long run of
        // hits cannot blow the stack).
        if self.view.config.lease.enabled {
            if let Some(kind) = cache_kind(op.kind()) {
                let path = op.path().to_string();
                if let Some(e) = self.cache.get(&path, kind, now) {
                    let result = Ok(e.value.clone());
                    if let Some(mon) = &self.monitor {
                        mon.lock().unwrap().check_serve(e, kind, now);
                    }
                    let local = SimDuration::from_micros(5);
                    {
                        let mut stats = self.session.stats();
                        if stats.recording {
                            stats.lease_hits += 1;
                        }
                    }
                    self.session.record(&op, &result, local);
                    let layer = ctx.layer();
                    ctx.metrics().inc(layer, "lease_cache_hits", 1);
                    if self.keep_results {
                        self.results.push(result);
                    }
                    self.thinking = true;
                    ctx.schedule(self.think_time.max(local), ThinkDone);
                    return;
                }
                {
                    let mut stats = self.session.stats();
                    if stats.recording {
                        stats.lease_misses += 1;
                    }
                }
                let layer = ctx.layer();
                ctx.metrics().inc(layer, "lease_cache_misses", 1);
            }
        }
        let req_id = self.session.begin(ctx, op);
        self.send_pending(ctx, req_id);
    }

    fn send_pending(&mut self, ctx: &mut Ctx<'_>, req_id: u64) {
        if !self.my_nn.is_some_and(|nn| ctx.is_alive(nn)) {
            self.my_nn = self.pick_nn(ctx);
        }
        if let Some(nn) = self.my_nn {
            self.session.send(ctx, req_id, nn);
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, req_id: u64, result: FsResult) {
        self.session.finish(ctx, req_id, &result);
        if self.keep_results {
            self.results.push(result);
        }
        if self.think_time == SimDuration::ZERO {
            self.issue_next(ctx);
        } else {
            self.thinking = true;
            ctx.schedule(self.think_time, ThinkDone);
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, resp: FsResponse) {
        // Conflict notices apply stale-or-not: a late-arriving mutation ack
        // is still this client's first knowledge of the conflict — drop the
        // affected entries, tombstone the ids, and (in harnesses) feed the
        // coherence monitor before anything else can serve.
        if let Some(notice) = &resp.notice {
            let dropped =
                self.cache.invalidate(&notice.targets, &notice.listing_dirs, notice.commit_time);
            self.session.stats().lease_invalidations += dropped;
            if let Some(mon) = &self.monitor {
                mon.lock().unwrap().record_ack(notice, ctx.now());
            }
        }
        // Pool-membership epoch piggyback (see `crate::elastic`): a higher
        // epoch means the namenode pool grew or shrank — the cached active
        // list no longer reflects who serves. Adopt lazily: drop the list
        // and re-fetch; no controller broadcast to every client needed.
        if resp.membership_epoch > self.membership_epoch {
            self.membership_epoch = resp.membership_epoch;
            self.active.clear();
            if !self.session.awaiting_list() {
                self.session.fetch_list(ctx, &self.view.nn_ids);
            }
        }
        if !self.session.admit(&resp) {
            return;
        }
        if let Err(FsError::Overloaded { retry_after }) = resp.result {
            // Stay on the same namenode — it is alive, just saturated, and
            // its gate trickle decides when we get through. Exception:
            // `redirect` marks a namenode that is out of the pool (parked,
            // booting or draining) — backing off against it would never
            // succeed, so drop it and re-pick a member instead.
            let counter =
                if resp.redirect { "elastic_redirect_repicks" } else { "overload_backoff" };
            match self.session.overloaded(ctx, resp.req_id, retry_after, counter) {
                Err(e) => self.complete(ctx, resp.req_id, Err(e)),
                Ok(()) if resp.redirect => {
                    self.my_nn = None;
                    self.active.clear();
                }
                Ok(()) => {}
            }
            return;
        }
        // Install a piggybacked lease (tombstones may refuse it: a push for
        // a conflicting mutation can overtake a grant on the wire).
        if let Some(grant) = resp.lease {
            let op = self.session.op(resp.req_id).expect("admitted above");
            if let (Some(kind), Ok(value)) = (cache_kind(op.kind()), &resp.result) {
                let path = op.path().to_string();
                let entry = CacheEntry {
                    value: value.clone(),
                    chain: grant.ids,
                    target: grant.target,
                    listing_dir: grant.listing_dir,
                    anchor: grant.anchor,
                    expiry: grant.expiry,
                    granted_by: grant.granted_by,
                };
                self.cache.insert(&path, kind, entry);
            }
        }
        self.complete(ctx, resp.req_id, resp.result);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.session.refetch_lost_list(ctx, &self.view.nn_ids);
        // Kick the loop if we stalled with nothing in flight — but not
        // during a think pause, or every think time degrades to the tick
        // interval.
        if !self.session.awaiting_list() && self.session.is_empty() && !self.done && !self.thinking
        {
            self.issue_next(ctx);
        }
        for req_id in self.session.expired(now) {
            match self.session.time_out(ctx, req_id) {
                Err(e) => self.complete(ctx, req_id, Err(e)),
                // The namenode looks dead: pick a random survivor (§IV-B3)
                // once the backoff expires.
                Ok(()) => {
                    self.my_nn = None;
                    self.active.clear();
                }
            }
        }
        self.lease_refresh(ctx, now);
        ctx.schedule(SimDuration::from_millis(250), TickClient);
    }

    /// Background lease upkeep, off the client tick: drop expired entries
    /// and batch near-expiry renewals to each granting namenode.
    fn lease_refresh(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let lcfg = self.view.config.lease;
        if !lcfg.enabled || self.cache.is_empty() {
            return;
        }
        self.cache.sweep(now, lcfg.ttl + LEASE_REVOKE_MARGIN);
        let cands = self.cache.renewal_candidates(now, LEASE_REFRESH_MARGIN, 64);
        if cands.is_empty() {
            return;
        }
        let mut by_nn: std::collections::BTreeMap<u32, Vec<RenewItem>> =
            std::collections::BTreeMap::new();
        for (path, kind) in cands {
            if let Some(e) = self.cache.peek(&path, kind) {
                by_nn.entry(e.granted_by).or_default().push(RenewItem {
                    path,
                    kind,
                    ids: e.chain.clone(),
                    listing_dir: e.listing_dir,
                    anchor: e.anchor,
                });
            }
        }
        for (nn, items) in by_nn {
            // Renewals only go to the granting namenode (its holder table
            // has the registration); a dead granter simply means the entry
            // expires and the next read re-fetches.
            let node = NodeId(nn);
            if ctx.is_alive(node) {
                let size = 64 + 48 * items.len() as u64;
                ctx.send_sized(node, size, LeaseRenew { items });
            }
        }
    }

    fn on_resend(&mut self, ctx: &mut Ctx<'_>, m: Resend) {
        let Some(req_id) = self.session.resend_due(m) else { return };
        let needs_list =
            self.domain.is_some() || (self.view.config.elastic.enabled && self.active.is_empty());
        if needs_list && !self.session.awaiting_list() {
            self.session.fetch_list(ctx, &self.view.nn_ids);
        } else {
            self.send_pending(ctx, req_id);
        }
    }

    /// Whether the session has nothing in flight and nothing queued — used
    /// by the chaos liveness checker ("every submitted op terminates").
    pub fn idle(&self) -> bool {
        self.session.is_empty() && !self.session.awaiting_list()
    }
}

impl Actor for FsClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_millis(250), TickClient);
        if self.domain.is_some() || self.view.config.elastic.enabled {
            self.session.fetch_list(ctx, &self.view.nn_ids);
        } else {
            self.issue_next(ctx);
        }
    }

    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {
        // A restarted client process has no cache. The namenode-side
        // registrations it leaves behind are harmless — revoke rounds wait
        // them out or get no ack and fall back to expiry.
        self.cache.clear();
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<FsResponse>() {
            Ok(m) => return self.on_response(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseInvalidate>() {
            Ok(m) => {
                // A namenode push: drop conflicting entries and ack so the
                // revoke round (and the mutation behind it) can complete.
                let dropped = self.cache.invalidate(&m.targets, &m.listing_dirs, m.commit_time);
                self.session.stats().lease_invalidations += dropped;
                let layer = ctx.layer();
                ctx.metrics().inc(layer, "lease_invalidations", dropped);
                ctx.send_sized(
                    from,
                    64,
                    LeaseInvalidateAck { round: m.round, origin_idx: m.origin_idx },
                );
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<LeaseRenewAck>() {
            Ok(m) => {
                for (path, kind, expiry) in m.renewed {
                    self.cache.extend(&path, kind, expiry);
                    self.session.stats().lease_renewed += 1;
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<ActiveNns>() {
            Ok(m) => {
                self.session.list_arrived();
                self.active = m.nns;
                if m.membership_epoch > self.membership_epoch {
                    self.membership_epoch = m.membership_epoch;
                }
                // Re-send only if the pending request has no namenode yet
                // (failover repick); an already-sent request must not be
                // duplicated to a second namenode.
                if self.my_nn.is_none() {
                    self.my_nn = self.pick_nn(ctx);
                    if let Some(req_id) = self.session.oldest() {
                        self.send_pending(ctx, req_id);
                    }
                }
                if self.session.is_empty() {
                    self.issue_next(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<TickClient>() {
            Ok(_) => return self.on_tick(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<ThinkDone>() {
            Ok(_) => return self.issue_next(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<Resend>() {
            Ok(m) => return self.on_resend(ctx, *m),
            Err(m) => m,
        };
        match any.downcast::<Poke>() {
            Ok(_) => self.issue_next(ctx),
            Err(m) => debug_assert!(false, "client got unknown message {m:?}"),
        }
    }
}
