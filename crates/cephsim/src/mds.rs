//! The CephFS metadata server (MDS) actor.
//!
//! Requests are processed on a **single** CPU lane — the MDS global lock the
//! paper blames for CephFS's per-server ceiling (§VI) — and every mutation
//! appends to a journal that is periodically flushed to the OSDs. When the
//! OSDs fall behind (disk-bound), outstanding journal bytes exceed the stall
//! threshold and mutations queue, which is the mechanism behind the
//! DirPinned throughput decline past 24 MDSs (Figures 5 and 12d).

use crate::config::CephCosts;
use crate::namespace::{CephNamespace, SubtreeMap};
use crate::osd::{OsdWrite, OsdWriteAck};
use hopsfs::types::{FsError, FsOk, FsResult};
use hopsfs::{FsOp, OpKind};
use simnet::{Actor, Ctx, FxHashMap, NodeId, Payload, SimDuration};
use std::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Lane-class name of the single MDS request thread.
pub const MDS_LANE: &str = "mds";

/// Multiplier on MDS work when the kernel cache is skipped: every operation
/// then carries capability acquisition/release and tracking.
const SKIP_KCACHE_FACTOR: u64 = 9;
/// Journal bytes appended per mutating operation (dirfrag + event).
pub const JOURNAL_BYTES_PER_MUTATION: u64 = 8 * 1024;
/// Journal flush period.
const JOURNAL_FLUSH_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// MDS pause charged per migrated subtree (export/import).
const MIGRATION_COST: SimDuration = SimDuration::from_millis(4);

#[derive(Debug, Clone)]
struct TickJournal;
#[derive(Debug, Clone)]
struct TickReport;

/// Client → MDS request.
#[derive(Debug, Clone)]
pub struct MdsRequest {
    /// Client correlation id.
    pub req_id: u64,
    /// The operation.
    pub op: FsOp,
    /// Tracing span of the client operation ([`simnet::SpanId::NONE`] when
    /// tracing is off); restored when stalled requests resume.
    pub span: simnet::SpanId,
}

/// MDS → client response, with an optional capability grant that lets the
/// kernel client cache the result.
#[derive(Debug, Clone)]
pub struct MdsResponse {
    /// Correlation id.
    pub req_id: u64,
    /// Result.
    pub result: FsResult,
    /// Whether the client may cache (capability granted).
    pub cap: bool,
}

/// MDS → client: wrong server (subtree moved); re-resolve and resend.
#[derive(Debug, Clone, Copy)]
pub struct MdsRedirect {
    /// Correlation id.
    pub req_id: u64,
}

/// Monitor → MDS: a subtree was exported away from (or imported to) this
/// MDS; charges the migration pause.
#[derive(Debug, Clone)]
pub struct SubtreeMigrate;

/// MDS → monitor: periodic load report with the hottest directories.
#[derive(Debug, Clone)]
pub struct MdsLoad {
    /// Reporting MDS.
    pub mds_idx: usize,
    /// Requests handled in the window.
    pub requests: u64,
    /// Hottest (top-level-ish) directories by request count.
    pub hot_dirs: Vec<(String, u64)>,
}

/// Per-MDS statistics.
#[derive(Debug, Default, Clone)]
pub struct MdsStats {
    /// Requests handled (including redirects).
    pub requests: u64,
    /// Requests handled per kind.
    pub by_kind: FxHashMap<OpKind, u64>,
    /// Redirects sent.
    pub redirects: u64,
    /// Journal bytes written.
    pub journal_bytes: u64,
    /// Subtree migrations exported/imported.
    pub migrations: u64,
    /// Mutations stalled on journal backpressure.
    pub journal_stalls: u64,
}

/// The MDS actor.
pub struct MdsActor {
    /// My MDS rank.
    pub my_idx: usize,
    ns: Arc<Mutex<CephNamespace>>,
    map: Arc<Mutex<SubtreeMap>>,
    mon: NodeId,
    osd_ids: Vec<NodeId>,
    costs: CephCosts,
    skip_kcache: bool,
    journal_pending: u64,
    journal_outstanding: u64,
    next_osd: usize,
    stalled: VecDeque<(NodeId, MdsRequest, simnet::SimTime)>,
    window_requests: u64,
    dir_heat: FxHashMap<String, u64>,
    /// Statistics.
    pub stats: MdsStats,
}

impl MdsActor {
    /// Creates MDS `my_idx`.
    pub fn new(
        my_idx: usize,
        ns: Arc<Mutex<CephNamespace>>,
        map: Arc<Mutex<SubtreeMap>>,
        mon: NodeId,
        osd_ids: Vec<NodeId>,
        costs: CephCosts,
        skip_kcache: bool,
    ) -> Self {
        MdsActor {
            my_idx,
            ns,
            map,
            mon,
            osd_ids,
            costs,
            skip_kcache,
            journal_pending: 0,
            journal_outstanding: 0,
            next_osd: my_idx,
            stalled: VecDeque::new(),
            window_requests: 0,
            dir_heat: FxHashMap::default(),
            stats: MdsStats::default(),
        }
    }

    /// The top-level (or second-level under /user-style trees) prefix used
    /// for heat accounting and balancing.
    fn heat_prefix(path: &str) -> String {
        let mut depth = 0;
        for (i, b) in path.bytes().enumerate() {
            if b == b'/' {
                depth += 1;
                if depth == 3 {
                    return path[..i].to_string();
                }
            }
        }
        path.to_string()
    }

    fn apply(&mut self, ctx: &mut Ctx<'_>, op: &FsOp) -> FsResult {
        let now = ctx.now().as_nanos();
        let mut ns = self.ns.lock().unwrap();
        match op {
            FsOp::Mkdir { path } => ns.mkdir(&path.to_string(), now).map(|_| FsOk::Done),
            FsOp::Create { path, size } => ns.create(&path.to_string(), *size, now).map(|_| FsOk::Done),
            FsOp::Delete { path, recursive } => {
                ns.delete(&path.to_string(), *recursive).map(|_| FsOk::Done)
            }
            FsOp::Rename { src, dst } => {
                if src.is_prefix_of(dst) {
                    Err(FsError::Invalid)
                } else {
                    ns.rename(&src.to_string(), &dst.to_string()).map(|_| FsOk::Done)
                }
            }
            FsOp::Stat { path } => ns.stat(&path.to_string()).map(FsOk::Attrs),
            FsOp::List { path } => ns.list(&path.to_string()).map(FsOk::Listing),
            FsOp::Open { path } => match ns.stat(&path.to_string()) {
                Err(e) => Err(e),
                Ok(a) if a.is_dir => Err(FsError::IsDir),
                Ok(a) => Ok(FsOk::Locations { attrs: a, blocks: Vec::new() }),
            },
            FsOp::SetPerm { path, perm } => {
                ns.set_perm(&path.to_string(), *perm).map(|_| FsOk::Done)
            }
            FsOp::Append { path, bytes } => {
                ns.append(&path.to_string(), *bytes, now).map(|_| FsOk::Done)
            }
        }
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: MdsRequest) {
        ctx.set_span(req.span);
        // Ownership check against the (possibly rebalanced) subtree map.
        // Reads of replicated hot subtrees are served by any MDS.
        let path = req.op.path().to_string();
        let serveable = {
            let map = self.map.lock().unwrap();
            map.owner_of(&path) == self.my_idx
                || (!req.op.kind().is_mutation() && map.is_replicated(&path))
        };
        if !serveable {
            self.stats.redirects += 1;
            ctx.send_sized(from, 48, MdsRedirect { req_id: req.req_id });
            return;
        }
        let kind = req.op.kind();
        if kind.is_mutation() && self.journal_outstanding >= self.costs.journal_stall_bytes {
            // Journal backpressure: park the mutation until OSDs catch up.
            self.stats.journal_stalls += 1;
            self.stalled.push_back((from, req, ctx.now()));
            return;
        }
        self.process(ctx, from, req);
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: MdsRequest) {
        let kind = req.op.kind();
        let mut cost = self.costs.mds_op;
        if self.skip_kcache {
            // Per-op capability acquire/track/release without a cache to
            // amortize it over (§V-A setup 3).
            cost = cost * SKIP_KCACHE_FACTOR;
        }
        if kind == OpKind::List {
            cost += SimDuration::from_nanos(500) * 16;
        }
        let done = ctx.execute(MDS_LANE, cost);
        let result = self.apply(ctx, &req.op);
        self.stats.requests += 1;
        self.window_requests += 1;
        *self.stats.by_kind.entry(kind).or_insert(0) += 1;
        *self.dir_heat.entry(Self::heat_prefix(&req.op.path().to_string())).or_insert(0) += 1;
        if kind.is_mutation() && result.is_ok() {
            self.journal_pending += JOURNAL_BYTES_PER_MUTATION;
        }
        let cap = !self.skip_kcache && result.is_ok();
        let bytes = 128 + if kind == OpKind::List { 512 } else { 0 };
        ctx.send_sized_from(done, from, bytes, MdsResponse { req_id: req.req_id, result, cap });
    }

    fn flush_journal(&mut self, ctx: &mut Ctx<'_>) {
        if self.journal_pending > 0 && !self.osd_ids.is_empty() {
            let bytes = std::mem::take(&mut self.journal_pending);
            self.journal_outstanding += bytes;
            self.stats.journal_bytes += bytes;
            // Journal flush costs MDS CPU on the same single lane.
            ctx.execute(MDS_LANE, SimDuration::from_micros(20) + SimDuration::from_nanos(bytes / 2));
            let osd = self.osd_ids[self.next_osd % self.osd_ids.len()];
            self.next_osd += 1;
            ctx.send_sized(osd, bytes, OsdWrite { bytes });
        }
        ctx.schedule(JOURNAL_FLUSH_INTERVAL, TickJournal);
    }

    fn on_osd_ack(&mut self, ctx: &mut Ctx<'_>, ack: OsdWriteAck) {
        self.journal_outstanding = self.journal_outstanding.saturating_sub(ack.bytes);
        while self.journal_outstanding < self.costs.journal_stall_bytes {
            match self.stalled.pop_front() {
                Some((from, req, queued_at)) => {
                    let now = ctx.now();
                    let layer = ctx.layer();
                    ctx.metrics().record_hist(
                        layer,
                        "journal_stall_ns",
                        now.saturating_since(queued_at).as_nanos(),
                    );
                    ctx.span_at("journal-stall", "stall", req.span, queued_at, now);
                    ctx.set_span(req.span);
                    self.process(ctx, from, req);
                }
                None => break,
            }
        }
    }

    fn report_load(&mut self, ctx: &mut Ctx<'_>) {
        let mut hot: Vec<(String, u64)> = self.dir_heat.drain().collect();
        // Secondary key on the path: `dir_heat` is a HashMap, so ties in the
        // count would otherwise surface in iteration order, which differs
        // across same-seed runs and leaks into the monitor's rebalancing.
        hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hot.truncate(8);
        let load = MdsLoad { mds_idx: self.my_idx, requests: self.window_requests, hot_dirs: hot };
        self.window_requests = 0;
        ctx.send_sized(self.mon, 128, load);
        ctx.schedule(SimDuration::from_secs(1), TickReport);
    }
}

impl Actor for MdsActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(JOURNAL_FLUSH_INTERVAL, TickJournal);
        ctx.schedule(SimDuration::from_secs(1), TickReport);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<MdsRequest>() {
            Ok(m) => return self.handle_request(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<OsdWriteAck>() {
            Ok(m) => return self.on_osd_ack(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<SubtreeMigrate>() {
            Ok(_) => {
                self.stats.migrations += 1;
                ctx.execute(MDS_LANE, MIGRATION_COST);
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<TickJournal>() {
            Ok(_) => return self.flush_journal(ctx),
            Err(m) => m,
        };
        match any.downcast::<TickReport>() {
            Ok(_) => self.report_load(ctx),
            Err(m) => debug_assert!(false, "mds got unknown message {m:?}"),
        }
    }
}
