//! The NDB datanode actor.
//!
//! Each datanode plays two protocol roles, as in NDB:
//!
//! - **LDM** (local data manager): stores the rows of the partitions its node
//!   group replicates, runs the row lock manager, and executes the hops of
//!   the linear-2PC chains;
//! - **TC** (transaction coordinator): receives client transaction steps,
//!   routes reads to replicas (AZ-aware when `Read Backup` / fully
//!   replicated options apply), buffers writes, and drives the commit
//!   protocol of Figure 2 — `Prepare` down each row's replica chain,
//!   `Commit` in reverse, `Complete` to the backups, with the client `Ack`
//!   delayed until all `Completed`s when the paper's table options require
//!   it (§IV-A3).
//!
//! Membership is handled with all-to-all heartbeats, and split-brain
//! scenarios with the management-node arbitrator (§IV-A2).

use crate::config::lane;
use crate::locks::{LockManager, TxId, Waiter};
use crate::messages::*;
use crate::partition::{PartitionId, PartitionMap};
use crate::schema::{LockMode, PartitionKey, Row, RowKey, TableId, TableOptions};
use crate::routing::route_read;
use crate::view::ClusterView;
use bytes::Bytes;
use simnet::{Actor, Ctx, DiskOp, FxHashMap, NodeId, Payload, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

// CPU service-time calibration for the protocol steps (see DESIGN.md): set
// once so that the vanilla HopsFS (2,1) baseline lands near the paper's
// absolute scale; every other experiment inherits it.
/// LDM cost to serve one row read.
const LDM_READ: SimDuration = SimDuration::from_micros(30);
/// LDM cost to prepare/apply one row write.
const LDM_WRITE: SimDuration = SimDuration::from_micros(60);
/// LDM cost to scan one row during a partition-pruned scan.
const LDM_SCAN_ROW: SimDuration = SimDuration::from_micros(6);
/// Fixed LDM cost to start a scan.
const LDM_SCAN_BASE: SimDuration = SimDuration::from_micros(30);
/// TC cost per operation routed through a coordinator.
const TC_OP: SimDuration = SimDuration::from_micros(7);
/// TC fixed cost per transaction step (request parsing, state).
const TC_STEP: SimDuration = SimDuration::from_micros(12);
/// RECV cost per inbound message.
const RECV_MSG: SimDuration = SimDuration::from_micros(3);
/// SEND cost per outbound message.
const SEND_MSG: SimDuration = SimDuration::from_micros(2);
/// Redo-log bytes written per committed row write.
const REDO_BYTES_PER_WRITE: u64 = 512;

// Protocol timeouts no deployment varies, named after their NDB
// configuration parameters; the varied ones are in `Timeouts`.
/// Abort a transaction the client has abandoned (`TransactionInactiveTimeout`).
const TRANSACTION_INACTIVE: SimDuration = SimDuration::from_millis(800);
/// Missed-heartbeat count after which a peer is declared dead.
const HEARTBEAT_MISSES: u64 = 4;
/// Time without arbitrator contact after which a datanode tries the next
/// arbitrator; past twice this while it suspects peers, it shuts itself down.
const ARBITRATION_TIMEOUT: SimDuration = SimDuration::from_millis(500);

// Timer payloads.
#[derive(Debug, Clone)]
struct TickHeartbeat;
#[derive(Debug, Clone)]
struct TickArbitration;
#[derive(Debug, Clone)]
struct TickGcp;
#[derive(Debug, Clone)]
struct TickTxSweep;
/// Fires once suspicion has settled after a peer death, carrying the
/// arbitration request to the arbitrator.
#[derive(Debug, Clone)]
struct ArbRequestDue;
/// Periodic retry of the copy-fragment resync while in Recovering state
/// (re-requests rotate through the live node-group peers).
#[derive(Debug, Clone)]
struct TickResync;
/// Fires once the settle delay after an `EpochPrepare` has elapsed: any
/// transaction prepared on an old-only chain has finished, so the scoped
/// migration pulls may start.
#[derive(Debug, Clone)]
struct MigratePullsDue {
    epoch: u64,
}
/// Periodic retry of the scoped migration pulls (re-requests rotate
/// through the old map's replicas of each gained partition).
#[derive(Debug, Clone)]
struct TickMigrate;
/// Fires once take-over reports for an orphaned transaction have settled;
/// the take-over TC then re-drives the transaction to its outcome.
#[derive(Debug, Clone)]
struct TakeOverDue {
    tx: TxId,
}
/// Completion of deferred local work carrying the action to resume.
#[derive(Debug, Clone)]
struct ReadsFlush {
    tx: TxId,
}

/// Aggregate statistics one datanode exposes for the experiment harness.
#[derive(Debug, Default, Clone)]
pub struct DnStats {
    /// Read-committed and locked reads served, keyed by
    /// `(table, partition, replica rank)` — rank 0 is the partition's
    /// primary. This is the data behind Figure 14.
    pub reads_by_partition_rank: FxHashMap<(TableId, u32, u8), u64>,
    /// Transactions committed while this node coordinated them.
    pub tx_committed: u64,
    /// Transactions aborted while this node coordinated them.
    pub tx_aborted: u64,
    /// Point reads served by the LDM role.
    pub reads_served: u64,
    /// Scans served by the LDM role.
    pub scans_served: u64,
    /// Rows prepared by the LDM role.
    pub rows_prepared: u64,
    /// Rows committed (applied) by the LDM role.
    pub rows_committed: u64,
    /// Lock requests that had to queue.
    pub lock_waits: u64,
    /// Copy-fragment resyncs completed after a restart.
    pub resyncs_completed: u64,
    /// Modeled bytes received during copy-fragment resyncs.
    pub resync_bytes: u64,
    /// Reads/scans refused because this node was in Recovering state.
    pub reads_refused_recovering: u64,
    /// Reads actually served while recovering — must stay zero; anything
    /// else is a stale-read bug (checked by the chaos invariants).
    pub reads_served_while_recovering: u64,
    /// Orphaned transactions this node re-drove to commit as take-over TC.
    pub takeover_commits: u64,
    /// Orphaned transactions this node released (aborted) as take-over TC.
    pub takeover_aborts: u64,
    /// Scoped partition migrations this node completed as a gaining node
    /// (one per epoch in which it gained fragments).
    pub migrations_completed: u64,
    /// Modeled bytes received during scoped migration pulls.
    pub migrate_bytes: u64,
    /// Prepares refused because the coordinator routed them under a
    /// superseded partition-map epoch (the epoch fence working as designed).
    pub epoch_refusals: u64,
    /// Transactions this node aborted as TC after an epoch refusal (or
    /// refused outright as a spare); the client re-routes under the new map.
    pub wrong_epoch_aborts: u64,
    /// Writes applied to a fragment this node owns under neither the
    /// committed nor the pending map — must stay zero; anything else is an
    /// epoch-fencing bug (checked by the `epoch_routing` chaos invariant).
    pub epoch_stale_applies: u64,
    /// Rows garbage-collected when an epoch commit removed this node's
    /// ownership of their fragments.
    pub gc_rows: u64,
}

/// A pending partition-map epoch announced by `EpochPrepare`: mutations
/// dual-apply to the union of the committed and pending maps' chains until
/// the epoch commits.
#[derive(Debug)]
struct PendingEpoch {
    epoch: u64,
    map: PartitionMap,
}

/// Scoped copy-fragment pull state for a pending epoch under which this
/// node gains fragments.
#[derive(Debug, Default)]
struct MigratePull {
    /// `(table, partition)` fragments gained under the pending map, sorted.
    scope: Vec<(TableId, PartitionId)>,
    /// Pulls started (the post-`EpochPrepare` settle delay elapsed).
    started: bool,
    /// Scoped `CopyFragReq`s whose `CopyFragDone` is still outstanding.
    reqs_outstanding: usize,
    /// Snapshot fragments received across sources this attempt.
    frags_recv: u64,
    /// Sum of fragment counts announced by received `CopyFragDone`s.
    frags_expected: u64,
    /// `frags_recv` at the previous retry tick (stall detection).
    progress_mark: u64,
    /// Pull attempts so far (rotates snapshot sources).
    attempts: u32,
    /// `MigrationDone` already reported for this epoch.
    done_sent: bool,
}

/// State a take-over TC accumulates about one orphaned transaction.
#[derive(Debug, Default)]
struct TakeOverState {
    /// Datanode indices that reported state for the transaction (ordered:
    /// resolution messages are emitted by iterating this set).
    reporters: BTreeSet<u32>,
    /// Total commit evidence across reports: rows any replica already
    /// applied at commit. Non-zero means the decision was commit.
    committed: u32,
}

#[derive(Debug)]
enum LockCont {
    Read { requester: NodeId, req: LdmReadReq },
    Prepare(PrepareRow),
}

/// A lock request waiting for its grant.
#[derive(Debug)]
struct QueuedLock {
    /// The read or prepare to resume on grant.
    cont: LockCont,
    /// When the request started waiting, and the op span it belongs to —
    /// drives the `lock_wait_ns` histogram and lock spans.
    since: SimTime,
    span: simnet::SpanId,
}

/// LDM state of one token (row operation) of a transaction.
#[derive(Debug)]
struct LdmToken {
    token: u64,
    /// Row locked by this 2PC token, for the per-row releases of the commit
    /// protocol.
    row: Option<(TableId, RowKey)>,
    /// Prepared write awaiting commit.
    write: Option<WriteOp>,
    /// Lock request waiting for a grant (boxed: waits are rare, and the
    /// continuation is most of the record's size).
    queued: Option<Box<QueuedLock>>,
}

/// Everything the LDM role holds for one transaction.
///
/// Created only when the LDM takes state for the transaction: a locking
/// read or a prepare. Read-committed reads and scans create nothing. Removed
/// only by `release_tx_local` (`ReleaseTx`, take-over resolution, or the
/// take-over deadline).
#[derive(Debug, Default)]
struct LdmTx {
    /// Datanode index of the coordinator; `None` once it died and the
    /// transaction was reported to a take-over TC.
    tc: Option<u32>,
    /// Per-token state, in arrival order (a handful per transaction).
    tokens: Vec<LdmToken>,
    /// Rows this LDM already applied at commit — the commit evidence
    /// reported during TC take-over.
    committed: u32,
    /// Set when the transaction was reported to a remote take-over TC: past
    /// this deadline, this node falls back to releasing locally.
    takeover_deadline: Option<SimTime>,
}

impl LdmTx {
    /// The state of `token`, created empty on first use.
    fn entry(&mut self, token: u64) -> &mut LdmToken {
        let i = match self.tokens.iter().position(|t| t.token == token) {
            Some(i) => i,
            None => {
                self.tokens.push(LdmToken { token, row: None, write: None, queued: None });
                self.tokens.len() - 1
            }
        };
        &mut self.tokens[i]
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut LdmToken> {
        self.tokens.iter_mut().find(|t| t.token == token)
    }

    /// Tokens holding a prepared write, in token order.
    fn prepared(&self) -> Vec<u64> {
        let mut tokens: Vec<u64> =
            self.tokens.iter().filter(|t| t.write.is_some()).map(|t| t.token).collect();
        tokens.sort_unstable();
        tokens
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcPhase {
    Idle,
    Reading,
    Scanning,
    Preparing,
    Committing,
    Completing,
}

#[derive(Debug)]
struct TcTx {
    client: NodeId,
    /// Span of the client operation this transaction serves (from the
    /// latest [`TxRequest`]; NONE when tracing is off).
    span: simnet::SpanId,
    token_counter: u64,
    phase: TcPhase,
    writes: Vec<WriteOp>,
    /// Datanode indices that may hold locks or pending state for this tx.
    /// Ordered: release/abort messages are emitted by iterating this set,
    /// and emission order must be identical across same-seed runs.
    participants: BTreeSet<u32>,
    last_activity: SimTime,
    step_started: SimTime,
    // Read step.
    pending_reads: FxHashMap<u64, usize>,
    read_results: Vec<Option<Bytes>>,
    reads_outstanding: usize,
    // Commit step: (token, replica chain) per written row.
    chains: Vec<(u64, Arc<[u32]>)>,
    prepared: usize,
    committed: usize,
    completed: usize,
    completed_needed: usize,
    delayed_ack: bool,
}

impl TcTx {
    fn new(client: NodeId, now: SimTime) -> Self {
        TcTx {
            client,
            span: simnet::SpanId::NONE,
            token_counter: 0,
            phase: TcPhase::Idle,
            writes: Vec::new(),
            participants: BTreeSet::new(),
            last_activity: now,
            step_started: now,
            pending_reads: FxHashMap::default(),
            read_results: Vec::new(),
            reads_outstanding: 0,
            chains: Vec::new(),
            prepared: 0,
            committed: 0,
            completed: 0,
            completed_needed: 0,
            delayed_ack: false,
        }
    }

    fn next_token(&mut self) -> u64 {
        self.token_counter += 1;
        self.token_counter
    }
}

/// The datanode actor. Construct via [`crate::deploy::build_cluster`].
pub struct DatanodeActor {
    view: Arc<ClusterView>,
    my_idx: usize,
    /// Committed partition-map epoch (0 = the deployment map).
    epoch: u64,
    /// Partition map of the committed epoch. Starts as the deployment map
    /// (`view.pmap`) and is replaced wholesale by `EpochCommit` / heartbeat
    /// epoch gossip as online reconfigurations commit.
    pmap: PartitionMap,
    /// Pending epoch announced by `EpochPrepare`, if a reconfiguration is
    /// in flight.
    pending: Option<PendingEpoch>,
    /// Scoped migration pulls, if this node gains fragments under the
    /// pending map.
    migrate: Option<MigratePull>,
    /// My liveness estimate per datanode index.
    alive: Vec<bool>,
    /// My estimate of whether each peer's fragments are synchronized. A
    /// restarted peer is unsynced until its `SyncedAnnounce`; reads are
    /// only routed to peers that are both alive and synced.
    synced: Vec<bool>,
    last_hb: Vec<SimTime>,
    cluster_down: bool,
    shutting_down: bool,
    /// Node-recovery state: this node restarted and is catching up via
    /// copy-fragment resync. While set, the node refuses reads and TC
    /// coordination but accepts (dual-applied) writes.
    recovering: bool,
    /// Rows written while recovering; snapshot rows for these keys are
    /// discarded so the resync copy converges with ongoing traffic.
    resync_dirty: simnet::FxHashSet<(TableId, RowKey)>,
    /// Resync attempts so far (rotates the snapshot source).
    resync_attempts: u32,
    /// Snapshot fragments received while recovering. A `CopyFragDone` (a
    /// small message) can overtake the large `CopyFrag` snapshots in
    /// flight, so completion waits until every announced fragment arrived.
    resync_frags_recv: u64,
    /// Fragment count announced by a received `CopyFragDone`, if any.
    resync_expected: Option<u64>,
    /// `resync_frags_recv` at the previous resync tick: a new snapshot is
    /// requested only when a tick sees no progress (source slow or dead).
    resync_progress_mark: u64,
    // LDM role.
    store: FxHashMap<(TableId, PartitionKey), BTreeMap<Bytes, Bytes>>,
    locks: LockManager,
    /// Per-transaction LDM state: queued lock requests, locked rows,
    /// prepared writes, coordinator and take-over bookkeeping.
    ldm_txs: FxHashMap<TxId, LdmTx>,
    /// Take-over TC role: reports collected per orphaned transaction.
    takeover: BTreeMap<TxId, TakeOverState>,
    redo_pending: u64,
    // TC role.
    txs: FxHashMap<TxId, TcTx>,
    // Arbitration.
    current_arb: usize,
    last_arb_pong: SimTime,
    suspect_since: Option<SimTime>,
    arb_requested: bool,
    /// Public statistics.
    pub stats: DnStats,
}

impl DatanodeActor {
    /// Creates the actor for datanode `my_idx` of `view`.
    pub fn new(view: Arc<ClusterView>, my_idx: usize) -> Self {
        let n = view.datanode_count();
        let pmap = view.pmap.clone();
        DatanodeActor {
            view,
            my_idx,
            epoch: 0,
            pmap,
            pending: None,
            migrate: None,
            alive: vec![true; n],
            synced: vec![true; n],
            last_hb: vec![SimTime::ZERO; n],
            cluster_down: false,
            shutting_down: false,
            recovering: false,
            resync_dirty: simnet::FxHashSet::default(),
            resync_attempts: 0,
            resync_frags_recv: 0,
            resync_expected: None,
            resync_progress_mark: 0,
            store: FxHashMap::default(),
            locks: LockManager::default(),
            ldm_txs: FxHashMap::default(),
            takeover: BTreeMap::new(),
            redo_pending: 0,
            txs: FxHashMap::default(),
            current_arb: 0,
            last_arb_pong: SimTime::ZERO,
            suspect_since: None,
            arb_requested: false,
            stats: DnStats::default(),
        }
    }

    /// Directly loads a row into this node's store if it replicates the
    /// row's partition (bulk-loading initial data without simulating it).
    pub fn load_row(&mut self, table: TableId, key: RowKey, data: Bytes) -> bool {
        let options = self.view.schema.table(table).options;
        let pid = self.pmap.partition_of(key.pk);
        if !self.pmap.stores(self.my_idx, pid, options) {
            return false;
        }
        self.store.entry((table, key.pk)).or_default().insert(key.suffix, data);
        true
    }

    /// Direct read of a row from the local store (test/verification hook; no
    /// protocol messages, no locks).
    pub fn peek_row(&self, table: TableId, key: &RowKey) -> Option<Bytes> {
        self.store.get(&(table, key.pk)).and_then(|m| m.get(&key.suffix)).cloned()
    }

    /// Direct read of every locally stored row of one partition, in suffix
    /// order (test/verification hook; no protocol messages, no locks). For a
    /// fully-replicated table any node returns the complete partition.
    pub fn peek_partition(&self, table: TableId, pk: PartitionKey) -> Vec<(Bytes, Bytes)> {
        self.store
            .get(&(table, pk))
            .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }

    /// Number of rows stored locally.
    pub fn stored_rows(&self) -> usize {
        self.store.values().map(BTreeMap::len).sum()
    }

    /// Whether this node considers the cluster down (a full node group lost).
    pub fn is_cluster_down(&self) -> bool {
        self.cluster_down
    }

    /// This node's current liveness estimate for a peer.
    pub fn peer_alive(&self, idx: usize) -> bool {
        self.alive[idx]
    }

    /// This node's estimate of whether a peer's fragments are synchronized.
    pub fn peer_synced(&self, idx: usize) -> bool {
        self.synced[idx]
    }

    /// Whether this node is in Recovering state (restarted, resync pending).
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Committed partition-map epoch (0 = the deployment map).
    pub fn committed_epoch(&self) -> u64 {
        self.epoch
    }

    /// Active node-group count under the committed map.
    pub fn committed_groups(&self) -> usize {
        self.pmap.group_count()
    }

    /// Whether an epoch is pending (reconfiguration in flight at this node).
    pub fn epoch_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Per-fragment digests of the local store, for replica-divergence
    /// checks: FNV-1a over the sorted rows of each `(table, partition)`
    /// fragment. Two replicas of a fragment are byte-identical iff their
    /// digests match.
    pub fn fragment_digests(&self) -> BTreeMap<(TableId, PartitionKey), u64> {
        fn fnv(h: &mut u64, b: u8) {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut out = BTreeMap::new();
        for (&(table, pk), rows) in &self.store {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (suffix, data) in rows {
                for &b in suffix.iter() {
                    fnv(&mut h, b);
                }
                fnv(&mut h, 0xff);
                for &b in data.iter() {
                    fnv(&mut h, b);
                }
                fnv(&mut h, 0xfe);
            }
            out.insert((table, pk), h);
        }
        out
    }

    // --- CPU charging helpers -------------------------------------------

    /// Charges inbound-network CPU; overflows to the REP helper thread when
    /// the RECV lanes are backlogged (this is what drives the paper's
    /// observation that the otherwise-idle REP thread runs at ~90%).
    fn charge_net_in(&self, ctx: &mut Ctx<'_>) {
        if ctx.lane_backlog(lane::RECV) > SimDuration::ZERO
            && ctx.lane_backlog(lane::REP) == SimDuration::ZERO
        {
            ctx.execute(lane::REP, RECV_MSG);
        } else {
            ctx.execute(lane::RECV, RECV_MSG);
        }
    }

    fn charge_net_out(&self, ctx: &mut Ctx<'_>) {
        if ctx.lane_backlog(lane::SEND) > SimDuration::ZERO
            && ctx.lane_backlog(lane::REP) == SimDuration::ZERO
        {
            ctx.execute(lane::REP, SEND_MSG);
        } else {
            ctx.execute(lane::SEND, SEND_MSG);
        }
    }

    fn send_from<P: Payload>(&self, ctx: &mut Ctx<'_>, depart: SimTime, to: NodeId, bytes: u64, msg: P) {
        self.charge_net_out(ctx);
        ctx.send_sized_from(depart, to, bytes, msg);
    }

    fn dn_node(&self, idx: u32) -> NodeId {
        self.view.datanode_ids[idx as usize]
    }

    // --- TC role ---------------------------------------------------------

    /// Per-datanode read eligibility: alive and fragment-synchronized.
    fn read_mask(&self) -> Vec<bool> {
        self.alive.iter().zip(&self.synced).map(|(&a, &s)| a && s).collect()
    }

    /// The 2PC chain for a write under the committed map, extended with any
    /// nodes that own the partition only under the pending map (dual-apply
    /// during an online reconfiguration). Old owners stay first so the
    /// commit point (chain head) is a node that also serves reads.
    fn write_chain_union(&self, pid: PartitionId, options: TableOptions) -> Vec<u32> {
        let mut chain: Vec<u32> =
            self.pmap.write_chain(pid, options, &self.alive).iter().map(|&i| i as u32).collect();
        if let Some(p) = &self.pending {
            for i in p.map.write_chain(pid, options, &self.alive) {
                let i = i as u32;
                if !chain.contains(&i) {
                    chain.push(i);
                }
            }
        }
        chain
    }

    fn respond(&self, ctx: &mut Ctx<'_>, depart: SimTime, client: NodeId, mut resp: TxResponse) {
        // Piggyback the TC overload signal on every reply (the paper's NDB
        // never sheds; backpressure is the *client's* job, so it needs to
        // see how deep the coordinator's queue is). Reading the backlog
        // neither schedules nor draws randomness — replies are unchanged
        // except for this field.
        resp.tc_queue_delay = ctx.lane_backlog(lane::TC);
        // Likewise the committed partition-map epoch: clients adopt newer
        // epochs from any response, converging on a reconfigured map within
        // one round trip.
        resp.map_epoch = self.epoch;
        resp.map_groups = self.pmap.group_count() as u32;
        let bytes = resp.wire_size();
        self.send_from(ctx, depart, client, bytes, resp);
    }

    fn on_tx_request(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: TxRequest) {
        let now = ctx.now();
        if self.shutting_down || self.cluster_down {
            let reason = if self.cluster_down { AbortReason::ClusterDown } else { AbortReason::Shutdown };
            let resp = TxResponse::new(req.tx, RespBody::Aborted(reason));
            self.respond(ctx, now, from, resp);
            return;
        }
        if self.recovering {
            // A recovering node must not coordinate: its liveness view and
            // fragments are stale. The abort reason tells the client to
            // suspect this TC until it announces itself synced.
            let resp = TxResponse::new(req.tx, RespBody::Aborted(AbortReason::NodeRecovering));
            self.respond(ctx, now, from, resp);
            return;
        }
        if self.my_idx >= self.pmap.active_len() {
            // Spare under the committed map: owns nothing and must not
            // coordinate (a client routed here under a superseded map).
            // The stamped epoch/groups on the response redirect the client.
            self.stats.wrong_epoch_aborts += 1;
            let resp = TxResponse::new(req.tx, RespBody::Aborted(AbortReason::WrongEpoch));
            self.respond(ctx, now, from, resp);
            return;
        }
        ctx.set_span(req.span);
        self.txs.entry(req.tx).or_insert_with(|| TcTx::new(from, now)).span = req.span;
        match req.body {
            TxBody::Read(specs) => self.tc_read_step(ctx, req.tx, specs),
            TxBody::Scan { table, pk } => self.tc_scan_step(ctx, req.tx, table, pk),
            TxBody::Write(ops) => self.tc_write_step(ctx, req.tx, ops),
            TxBody::Commit => self.tc_commit_step(ctx, req.tx),
            TxBody::Abort => self.abort_tx(ctx, req.tx, AbortReason::ClientAbort, true),
        }
    }

    fn tc_read_step(&mut self, ctx: &mut Ctx<'_>, tx_id: TxId, specs: Vec<ReadSpec>) {
        let now = ctx.now();
        let step_cost = TC_STEP + TC_OP * specs.len() as u64;
        let done = ctx.execute(lane::TC, step_cost);
        let my_idx = self.my_idx as u32;
        let view = Arc::clone(&self.view);
        // Reads route under the *committed* map only: a node gaining a
        // fragment under a pending epoch dual-applies writes but does not
        // serve the fragment until the epoch commits.
        let pmap = self.pmap.clone();
        // Reads are only routed to replicas that are alive AND synced —
        // a recovering replica stays in the write chains (dual-apply) but
        // must not serve data until its resync completes.
        let read_mask = self.read_mask();

        // Resolve buffered writes first (read-your-own-writes), then route
        // the remainder to replicas.
        let mut sends: Vec<(u32, LdmReadReq, u64)> = Vec::new();
        let mut failed = false;
        {
            let tx = self.txs.get_mut(&tx_id).expect("tx registered above");
            tx.phase = TcPhase::Reading;
            tx.step_started = now;
            tx.last_activity = now;
            tx.read_results = vec![None; specs.len()];
            tx.pending_reads.clear();
            tx.reads_outstanding = 0;
            for (slot, spec) in specs.into_iter().enumerate() {
                // Check the transaction's own write buffer.
                if let Some(op) = tx
                    .writes
                    .iter()
                    .rev()
                    .find(|op| op.table() == spec.table && op.key() == &spec.key)
                {
                    tx.read_results[slot] = match op {
                        WriteOp::Put { data, .. } => Some(data.clone()),
                        WriteOp::Delete { .. } => None,
                    };
                    continue;
                }
                let options = view.schema.table(spec.table).options;
                let pid = pmap.partition_of(spec.key.pk);
                let candidates = pmap.read_replicas(pid, options, &read_mask);
                let target = if spec.mode.is_locking() {
                    candidates.first().copied()
                } else {
                    route_read(
                        &view,
                        self.my_idx,
                        &candidates,
                        options.read_backup || options.fully_replicated,
                    )
                };
                let target = match target {
                    Some(t) => t,
                    None => {
                        failed = true;
                        break;
                    }
                };
                let token = tx.next_token();
                tx.pending_reads.insert(token, slot);
                tx.reads_outstanding += 1;
                if spec.mode.is_locking() {
                    tx.participants.insert(target as u32);
                }
                sends.push((
                    target as u32,
                    LdmReadReq { tx: tx_id, token, table: spec.table, key: spec.key, mode: spec.mode, tc_idx: my_idx },
                    96,
                ));
            }
        }
        if failed {
            self.abort_tx(ctx, tx_id, AbortReason::ClusterDown, true);
            return;
        }
        let outstanding = self.txs[&tx_id].reads_outstanding;
        for (target, msg, bytes) in sends {
            let to = self.dn_node(target);
            self.send_from(ctx, done, to, bytes, msg);
        }
        if outstanding == 0 {
            // All reads were served from the write buffer.
            ctx.schedule_at(done, ReadsFlush { tx: tx_id });
        }
    }

    fn tc_scan_step(&mut self, ctx: &mut Ctx<'_>, tx_id: TxId, table: TableId, pk: PartitionKey) {
        let now = ctx.now();
        let done = ctx.execute(lane::TC, TC_STEP + TC_OP);
        let options = self.view.schema.table(table).options;
        let pid = self.pmap.partition_of(pk);
        let read_mask = self.read_mask();
        let candidates = self.pmap.read_replicas(pid, options, &read_mask);
        let target = route_read(
            &self.view,
            self.my_idx,
            &candidates,
            options.read_backup || options.fully_replicated,
        );
        let target = match target {
            Some(t) => t,
            None => {
                self.abort_tx(ctx, tx_id, AbortReason::ClusterDown, true);
                return;
            }
        };
        let my_idx = self.my_idx as u32;
        let token = {
            let tx = self.txs.get_mut(&tx_id).expect("tx registered");
            tx.phase = TcPhase::Scanning;
            tx.step_started = now;
            tx.last_activity = now;
            tx.next_token()
        };
        let to = self.dn_node(target as u32);
        self.send_from(ctx, done, to, 96, LdmScanReq { tx: tx_id, token, table, pk, tc_idx: my_idx });
    }

    fn tc_write_step(&mut self, ctx: &mut Ctx<'_>, tx_id: TxId, ops: Vec<WriteOp>) {
        let now = ctx.now();
        let done = ctx.execute(lane::TC, TC_STEP + TC_OP * ops.len() as u64);
        let client = {
            let tx = self.txs.get_mut(&tx_id).expect("tx registered");
            tx.last_activity = now;
            tx.writes.extend(ops);
            tx.phase = TcPhase::Idle;
            tx.client
        };
        let resp = TxResponse::new(tx_id, RespBody::WriteAck);
        self.respond(ctx, done, client, resp);
    }

    fn tc_commit_step(&mut self, ctx: &mut Ctx<'_>, tx_id: TxId) {
        let now = ctx.now();
        let view = Arc::clone(&self.view);
        let my_idx = self.my_idx as u32;

        let n_writes = self.txs[&tx_id].writes.len();
        let done = ctx.execute(lane::TC, TC_STEP + TC_OP * (n_writes as u64 + 1));

        if n_writes == 0 {
            // Read-only: release any read locks, Ack immediately.
            self.finish_tx(ctx, tx_id, done, RespBody::Committed);
            self.stats.tx_committed += 1;
            return;
        }

        // Build the replica chain per written row. Chains are the union of
        // the committed and (if an epoch is pending) the pending map's
        // chains, so mutations dual-apply to gaining nodes throughout a
        // live reconfiguration.
        let epoch = self.epoch;
        let writes = {
            let tx = self.txs.get_mut(&tx_id).expect("tx registered");
            tx.phase = TcPhase::Preparing;
            tx.step_started = now;
            tx.last_activity = now;
            tx.prepared = 0;
            tx.committed = 0;
            tx.completed = 0;
            tx.completed_needed = 0;
            tx.delayed_ack = false;
            tx.chains.clear();
            std::mem::take(&mut tx.writes)
        };
        let mut plans: Vec<(WriteOp, Vec<u32>, bool)> = Vec::with_capacity(writes.len());
        let mut failed = false;
        for op in writes {
            let options = view.schema.table(op.table()).options;
            let pid = self.pmap.partition_of(op.key().pk);
            let chain = self.write_chain_union(pid, options);
            if chain.is_empty() {
                failed = true;
                break;
            }
            plans.push((op, chain, options.delayed_ack()));
        }
        if failed {
            self.abort_tx(ctx, tx_id, AbortReason::ClusterDown, true);
            return;
        }
        let mut sends: Vec<(u32, PrepareRow)> = Vec::with_capacity(plans.len());
        {
            let tx = self.txs.get_mut(&tx_id).expect("tx registered");
            for (op, chain, delayed) in plans {
                if delayed {
                    tx.delayed_ack = true;
                }
                tx.completed_needed += chain.len() - 1;
                for &c in &chain {
                    tx.participants.insert(c);
                }
                let token = tx.next_token();
                let first = chain[0];
                let chain: Arc<[u32]> = chain.into();
                tx.chains.push((token, Arc::clone(&chain)));
                sends.push((
                    first,
                    PrepareRow { tx: tx_id, token, chain, pos: 0, op, tc_idx: my_idx, epoch },
                ));
            }
        }
        for (target, msg) in sends {
            let bytes = 64 + msg.op.wire_size();
            let to = self.dn_node(target);
            self.send_from(ctx, done, to, bytes, msg);
        }
    }

    /// Read step fully resolved: respond to the client.
    fn tc_finish_reads(&mut self, ctx: &mut Ctx<'_>, tx_id: TxId) {
        let now = ctx.now();
        let (client, rows) = {
            let tx = match self.txs.get_mut(&tx_id) {
                Some(tx) => tx,
                None => return,
            };
            tx.phase = TcPhase::Idle;
            tx.last_activity = now;
            (tx.client, std::mem::take(&mut tx.read_results))
        };
        let resp = TxResponse::new(tx_id, RespBody::Rows(rows));
        self.respond(ctx, now, client, resp);
    }

    fn on_ldm_read_resp(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: LdmReadResp) {
        let finished = {
            let tx = match self.txs.get_mut(&m.tx) {
                Some(tx) => tx,
                None => return, // aborted meanwhile
            };
            if let Some(slot) = tx.pending_reads.remove(&m.token) {
                tx.read_results[slot] = m.data;
                tx.reads_outstanding = tx.reads_outstanding.saturating_sub(1);
            }
            tx.reads_outstanding == 0 && tx.phase == TcPhase::Reading
        };
        if finished {
            self.tc_finish_reads(ctx, m.tx);
        }
    }

    fn on_ldm_scan_resp(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: LdmScanResp) {
        let now = ctx.now();
        let client = {
            let tx = match self.txs.get_mut(&m.tx) {
                Some(tx) => tx,
                None => return,
            };
            if tx.phase != TcPhase::Scanning {
                return;
            }
            tx.phase = TcPhase::Idle;
            tx.last_activity = now;
            tx.client
        };
        let resp = TxResponse::new(m.tx, RespBody::ScanRows(m.rows));
        self.respond(ctx, now, client, resp);
    }

    fn on_ldm_refused(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: LdmReadRefused) {
        // A replica refused to serve (it is recovering): abort fast so the
        // client retries; by then the routing mask has excluded the replica.
        if self.txs.contains_key(&m.tx) {
            self.abort_tx(ctx, m.tx, AbortReason::NodeFailure, true);
        }
    }

    fn on_prepared_row(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: PreparedRow) {
        let my_idx = self.my_idx as u32;
        let ready = {
            let tx = match self.txs.get_mut(&m.tx) {
                Some(tx) => tx,
                None => return,
            };
            if tx.phase != TcPhase::Preparing {
                return;
            }
            tx.prepared += 1;
            tx.last_activity = ctx.now();
            tx.prepared == tx.chains.len()
        };
        if !ready {
            return;
        }
        // All rows prepared: send Commit to the LAST node of each chain; the
        // message travels the chain in reverse (Figure 2).
        let done = ctx.execute(lane::TC, TC_OP * self.txs[&m.tx].chains.len() as u64);
        let tx = self.txs.get_mut(&m.tx).expect("checked above");
        tx.phase = TcPhase::Committing;
        tx.step_started = ctx.now();
        for (token, chain) in &self.txs[&m.tx].chains {
            let last = *chain.last().expect("chains are non-empty");
            let msg = CommitRow {
                tx: m.tx,
                token: *token,
                chain: Arc::clone(chain),
                pos: (chain.len() - 1) as u8,
                tc_idx: my_idx,
            };
            let to = self.dn_node(last);
            self.send_from(ctx, done, to, 72, msg);
        }
    }

    fn on_committed_row(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: CommittedRow) {
        let all_committed = {
            let tx = match self.txs.get_mut(&m.tx) {
                Some(tx) => tx,
                None => return,
            };
            if tx.phase != TcPhase::Committing {
                return;
            }
            tx.committed += 1;
            tx.last_activity = ctx.now();
            tx.committed == tx.chains.len()
        };
        if !all_committed {
            return;
        }
        let done = ctx.execute(lane::TC, TC_OP);
        // Send Complete to every backup replica of every chain.
        let tx = self.txs.get_mut(&m.tx).expect("checked above");
        tx.phase = TcPhase::Completing;
        tx.step_started = ctx.now();
        let (delayed_ack, completed_needed) = (tx.delayed_ack, tx.completed_needed);
        for (token, chain) in &self.txs[&m.tx].chains {
            for &backup in chain.iter().skip(1) {
                let to = self.dn_node(backup);
                self.send_from(ctx, done, to, 64, CompleteRow { tx: m.tx, token: *token });
            }
        }
        self.stats.tx_committed += 1;
        if !delayed_ack || completed_needed == 0 {
            // Classic NDB: Ack as soon as the primaries committed (message 10
            // in Figure 2); Complete runs in parallel.
            self.finish_tx(ctx, m.tx, done, RespBody::Committed);
        }
    }

    fn on_completed_row(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: CompletedRow) {
        let finished = {
            let tx = match self.txs.get_mut(&m.tx) {
                Some(tx) => tx,
                None => return, // already acked (non-delayed) and cleaned
            };
            tx.completed += 1;
            tx.last_activity = ctx.now();
            tx.phase == TcPhase::Completing && tx.delayed_ack && tx.completed >= tx.completed_needed
        };
        if finished {
            // Read Backup / fully replicated: the Ack is message 14, only
            // after every backup completed (§IV-A3).
            let now = ctx.now();
            self.finish_tx(ctx, m.tx, now, RespBody::Committed);
        }
    }

    fn on_prepare_refused(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: PrepareRefused) {
        // A replica fenced our prepare: we routed under a superseded
        // partition-map epoch. Abort with `WrongEpoch` — the client adopts
        // the current map from the response stamps (or from this node once
        // heartbeat gossip catches us up) and retries without suspecting
        // anyone.
        if self.txs.contains_key(&m.tx) {
            self.stats.wrong_epoch_aborts += 1;
            self.abort_tx(ctx, m.tx, AbortReason::WrongEpoch, true);
        }
    }

    /// Sends the final response, releases participants, and forgets the tx.
    fn finish_tx(&mut self, ctx: &mut Ctx<'_>, tx_id: TxId, depart: SimTime, body: RespBody) {
        let tx = match self.txs.remove(&tx_id) {
            Some(tx) => tx,
            None => return,
        };
        for &p in &tx.participants {
            let to = self.dn_node(p);
            self.send_from(ctx, depart, to, 48, ReleaseTx { tx: tx_id });
        }
        self.respond(ctx, depart, tx.client, TxResponse::new(tx_id, body));
    }

    fn abort_tx(&mut self, ctx: &mut Ctx<'_>, tx_id: TxId, reason: AbortReason, respond: bool) {
        let now = ctx.now();
        let tx = match self.txs.remove(&tx_id) {
            Some(tx) => tx,
            None => return,
        };
        // Sweeps and peer-death handlers run outside the op's dispatch;
        // restore its span so the abort traffic is attributed correctly.
        ctx.set_span(tx.span);
        self.stats.tx_aborted += 1;
        let layer = ctx.layer();
        ctx.metrics().inc(layer, "tx_aborts", 1);
        for &p in &tx.participants {
            let to = self.dn_node(p);
            self.send_from(ctx, now, to, 48, ReleaseTx { tx: tx_id });
        }
        if respond {
            self.respond(ctx, now, tx.client, TxResponse::new(tx_id, RespBody::Aborted(reason)));
        }
    }

    // --- LDM role ---------------------------------------------------------

    fn serve_read(&mut self, ctx: &mut Ctx<'_>, requester: NodeId, req: &LdmReadReq) {
        if self.recovering {
            // Defense in depth: the refusal in `on_ldm_read` should make
            // this unreachable; the chaos invariants assert it stays zero.
            self.stats.reads_served_while_recovering += 1;
        }
        let done = ctx.execute(lane::LDM, LDM_READ);
        let data = self.store.get(&(req.table, req.key.pk)).and_then(|m| m.get(&req.key.suffix)).cloned();
        self.stats.reads_served += 1;
        let pid = self.pmap.partition_of(req.key.pk);
        let rank = self.pmap.replica_rank(self.my_idx, pid).unwrap_or(u8::MAX);
        *self.stats.reads_by_partition_rank.entry((req.table, pid.0, rank)).or_insert(0) += 1;
        let bytes = 48 + data.as_ref().map_or(0, |d| d.len() as u64);
        let resp = LdmReadResp { tx: req.tx, token: req.token, data };
        self.send_from(ctx, done, requester, bytes, resp);
    }

    fn on_ldm_read(&mut self, ctx: &mut Ctx<'_>, from: NodeId, m: LdmReadReq) {
        if self.recovering {
            // Recovering replicas must not serve data (it may be stale).
            self.stats.reads_refused_recovering += 1;
            let now = ctx.now();
            self.send_from(ctx, now, from, 48, LdmReadRefused { tx: m.tx, token: m.token });
            return;
        }
        if m.mode.is_locking() {
            self.ldm_txs.entry(m.tx).or_default().tc = Some(m.tc_idx);
            let acq = self.locks.acquire(m.tx, m.table, m.key.clone(), m.mode, m.token);
            if !acq.is_granted() {
                self.queue_lock(ctx, m.tx, m.token, LockCont::Read { requester: from, req: m });
                return;
            }
        }
        self.serve_read(ctx, from, &m);
    }

    fn on_ldm_scan(&mut self, ctx: &mut Ctx<'_>, from: NodeId, m: LdmScanReq) {
        if self.recovering {
            self.stats.reads_refused_recovering += 1;
            let now = ctx.now();
            self.send_from(ctx, now, from, 48, LdmReadRefused { tx: m.tx, token: m.token });
            return;
        }
        let rows: Vec<Row> = self
            .store
            .get(&(m.table, m.pk))
            .map(|map| {
                map.iter()
                    .map(|(suffix, data)| Row {
                        key: RowKey { pk: m.pk, suffix: suffix.clone() },
                        data: data.clone(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        let cost = LDM_SCAN_BASE + LDM_SCAN_ROW * rows.len() as u64;
        let done = ctx.execute(lane::LDM, cost);
        self.stats.scans_served += 1;
        let pid = self.pmap.partition_of(m.pk);
        let rank = self.pmap.replica_rank(self.my_idx, pid).unwrap_or(u8::MAX);
        *self.stats.reads_by_partition_rank.entry((m.table, pid.0, rank)).or_insert(0) += 1;
        let bytes = 64 + rows.iter().map(Row::wire_size).sum::<u64>();
        let resp = LdmScanResp { tx: m.tx, token: m.token, rows };
        self.send_from(ctx, done, from, bytes, resp);
    }

    fn prepare_apply(&mut self, ctx: &mut Ctx<'_>, m: PrepareRow) {
        if m.epoch < self.epoch {
            // Second fence: the prepare sat in the lock queue across an
            // epoch commit. Refuse now rather than apply under a map that
            // is no longer in force (the TC aborts; the client re-routes).
            self.stats.epoch_refusals += 1;
            let row = self.ldm_token(m.tx, m.token).and_then(|t| t.row.take());
            self.release_row(ctx, m.tx, row);
            let now = ctx.now();
            let to = self.dn_node(m.tc_idx);
            self.send_from(
                ctx,
                now,
                to,
                48,
                PrepareRefused { tx: m.tx, token: m.token, epoch: self.epoch },
            );
            return;
        }
        let done = ctx.execute(lane::LDM, LDM_WRITE);
        self.stats.rows_prepared += 1;
        if let Some(t) = self.ldm_token(m.tx, m.token) {
            t.write = Some(m.op.clone());
        }
        let next_pos = m.pos as usize + 1;
        if next_pos < m.chain.len() {
            let to = self.dn_node(m.chain[next_pos]);
            let bytes = 64 + m.op.wire_size();
            let fwd = PrepareRow { pos: next_pos as u8, ..m };
            self.send_from(ctx, done, to, bytes, fwd);
        } else {
            let to = self.dn_node(m.tc_idx);
            self.send_from(ctx, done, to, 48, PreparedRow { tx: m.tx, token: m.token });
        }
    }

    fn on_prepare_row(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: PrepareRow) {
        if m.epoch < self.epoch {
            // Epoch fence: the coordinator routed this write under a
            // superseded partition map. Refuse before taking any lock; the
            // TC aborts with `WrongEpoch` and the client retries under the
            // current map (adopted from the abort response's stamps).
            self.stats.epoch_refusals += 1;
            let now = ctx.now();
            let to = self.dn_node(m.tc_idx);
            self.send_from(
                ctx,
                now,
                to,
                48,
                PrepareRefused { tx: m.tx, token: m.token, epoch: self.epoch },
            );
            return;
        }
        let ltx = self.ldm_txs.entry(m.tx).or_default();
        ltx.tc = Some(m.tc_idx);
        ltx.entry(m.token).row = Some((m.op.table(), m.op.key().clone()));
        let acq = self.locks.acquire(m.tx, m.op.table(), m.op.key().clone(), LockMode::Exclusive, m.token);
        if !acq.is_granted() {
            self.queue_lock(ctx, m.tx, m.token, LockCont::Prepare(m));
            return;
        }
        self.prepare_apply(ctx, m);
    }

    fn apply_write(&mut self, op: &WriteOp) {
        if self.recovering || self.migrate.is_some() {
            // Dual-applied write during resync or migration: the snapshot
            // copy of this key (taken earlier) must not clobber it.
            self.resync_dirty.insert((op.table(), op.key().clone()));
        }
        match op {
            WriteOp::Put { table, key, data } => {
                self.store.entry((*table, key.pk)).or_default().insert(key.suffix.clone(), data.clone());
            }
            WriteOp::Delete { table, key } => {
                if let Some(map) = self.store.get_mut(&(*table, key.pk)) {
                    map.remove(&key.suffix);
                    if map.is_empty() {
                        self.store.remove(&(*table, key.pk));
                    }
                }
            }
        }
        self.redo_pending += REDO_BYTES_PER_WRITE;
    }

    fn on_commit_row(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: CommitRow) {
        let done = ctx.execute(lane::LDM, LDM_WRITE / 2);
        // Commit evidence for TC take-over: if the coordinator dies, any
        // applied row proves the decision was commit.
        let prepared = self.ldm_txs.get_mut(&m.tx).and_then(|ltx| {
            let op = ltx.get_mut(m.token)?.write.take()?;
            ltx.committed += 1;
            Some(op)
        });
        if let Some(op) = prepared {
            // Epoch-routing invariant: every applied write must land on a
            // node that owns the row's fragment under the committed or the
            // pending map (or is catching up via node recovery). The
            // prepare fences plus the stale-prepare GC in `install_epoch`
            // keep this at zero; the chaos harness asserts it.
            let pid = self.pmap.partition_of(op.key().pk);
            let options = self.view.schema.table(op.table()).options;
            let owned = self.recovering
                || self.pmap.stores(self.my_idx, pid, options)
                || self.pending.as_ref().is_some_and(|p| p.map.stores(self.my_idx, pid, options));
            if !owned {
                self.stats.epoch_stale_applies += 1;
            }
            self.apply_write(&op);
            self.stats.rows_committed += 1;
        }
        if m.pos > 0 {
            // Keep traveling the chain in reverse; backups keep their locks
            // until Complete.
            let next = m.chain[m.pos as usize - 1];
            let to = self.dn_node(next);
            let fwd = CommitRow { pos: m.pos - 1, ..m };
            self.send_from(ctx, done, to, 72, fwd);
        } else {
            // Primary: commit point — release this row's lock and tell the TC.
            let row = self.ldm_token(m.tx, m.token).and_then(|t| t.row.take());
            self.release_row(ctx, m.tx, row);
            let to = self.dn_node(m.tc_idx);
            self.send_from(ctx, done, to, 48, CommittedRow { tx: m.tx, token: m.token });
        }
    }

    fn on_complete_row(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: CompleteRow) {
        let done = ctx.execute(lane::LDM, LDM_SCAN_ROW);
        let row = self.ldm_token(m.tx, m.token).and_then(|t| {
            t.write = None;
            t.row.take()
        });
        self.release_row(ctx, m.tx, row);
        // Reply Completed to the TC (the sender of CompleteRow).
        let to = _from;
        self.send_from(ctx, done, to, 48, CompletedRow { tx: m.tx, token: m.token });
    }

    fn on_release_tx(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: ReleaseTx) {
        self.release_tx_local(ctx, m.tx);
    }

    /// Drops all LDM state of the tx (queued lock requests, prepared
    /// writes, take-over bookkeeping) and releases its locks: the one place
    /// an [`LdmTx`] ends (`ReleaseTx`, take-over resolution and fallback).
    fn release_tx_local(&mut self, ctx: &mut Ctx<'_>, tx: TxId) {
        self.ldm_txs.remove(&tx);
        let granted = self.locks.release_all(tx);
        self.resume_grants(ctx, granted);
    }

    /// The state of one token of a transaction this LDM holds state for.
    fn ldm_token(&mut self, tx: TxId, token: u64) -> Option<&mut LdmToken> {
        self.ldm_txs.get_mut(&tx)?.get_mut(token)
    }

    /// Parks a read or prepare whose lock request queued.
    fn queue_lock(&mut self, ctx: &mut Ctx<'_>, tx: TxId, token: u64, cont: LockCont) {
        self.stats.lock_waits += 1;
        let queued = Box::new(QueuedLock { cont, since: ctx.now(), span: ctx.current_span() });
        self.ldm_txs.entry(tx).or_default().entry(token).queued = Some(queued);
    }

    /// Releases one row lock a 2PC token held, resuming the waiters it
    /// grants.
    fn release_row(&mut self, ctx: &mut Ctx<'_>, tx: TxId, row: Option<(TableId, RowKey)>) {
        if let Some((table, key)) = row {
            let granted = self.locks.release_row(tx, table, &key);
            self.resume_grants(ctx, granted);
        }
    }

    fn resume_grants(&mut self, ctx: &mut Ctx<'_>, granted: Vec<Waiter>) {
        for w in granted {
            // A grant without continuation is re-entrant bookkeeping, or a
            // request dropped when its coordinator died.
            let Some(q) = self.ldm_token(w.tx, w.token).and_then(|t| t.queued.take()) else {
                continue;
            };
            let QueuedLock { cont, since, span } = *q;
            let now = ctx.now();
            let layer = ctx.layer();
            ctx.metrics().record_hist(layer, "lock_wait_ns", now.saturating_since(since).as_nanos());
            ctx.span_at("lock-wait", "lock", span, since, now);
            // The grant resumes another transaction's work; attribute the
            // downstream read/prepare to *its* op, not the releaser's.
            ctx.set_span(span);
            match cont {
                LockCont::Read { requester, req } => self.serve_read(ctx, requester, &req),
                LockCont::Prepare(m) => self.prepare_apply(ctx, m),
            }
        }
    }

    // --- Membership, arbitration, maintenance ----------------------------

    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: Heartbeat) {
        let idx = m.from as usize;
        self.last_hb[idx] = ctx.now();
        // A partitioned-but-never-restarted peer heartbeats `synced: true`
        // and is re-trusted instantly when the partition heals; a restarted
        // peer heartbeats `synced: false` until its resync completes.
        self.synced[idx] = m.synced;
        if !self.alive[idx] {
            // Peer recovered (or partition healed).
            self.alive[idx] = true;
            self.recheck_cluster_viability();
        }
        // Epoch gossip: a node that missed an `EpochCommit` (restarted and
        // reset to the deployment map, or the commit was lost) catches up
        // from any peer within one heartbeat interval.
        if m.epoch > self.epoch {
            self.install_epoch(ctx, m.epoch, m.groups);
        }
    }

    fn on_tick_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let interval = self.view.config.timeouts.heartbeat_interval;
        let deadline = interval * HEARTBEAT_MISSES;
        let my = self.my_idx as u32;
        for i in 0..self.view.datanode_count() {
            if i == self.my_idx {
                continue;
            }
            let to = self.dn_node(i as u32);
            let hb = Heartbeat {
                from: my,
                synced: !self.recovering,
                epoch: self.epoch,
                groups: self.pmap.group_count() as u32,
            };
            self.send_from(ctx, now, to, 32, hb);
        }
        let mut newly_dead = Vec::new();
        for i in 0..self.view.datanode_count() {
            if i == self.my_idx || !self.alive[i] {
                continue;
            }
            if now.saturating_since(self.last_hb[i]) > deadline {
                newly_dead.push(i);
            }
        }
        for i in newly_dead {
            self.on_peer_dead(ctx, i);
        }
        ctx.schedule(interval, TickHeartbeat);
    }

    fn recheck_cluster_viability(&mut self) {
        // Only groups active under the committed map matter: losing every
        // node of an idle spare group does not take data offline.
        let groups = self.pmap.group_count();
        let mut down = false;
        for g in 0..groups {
            let members = self.view.config.group_members(g);
            if members.clone().all(|i| !self.alive[i] && i != self.my_idx) {
                down = true;
            }
        }
        self.cluster_down = down;
    }

    fn on_peer_dead(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        self.alive[idx] = false;
        // Until proven otherwise (SyncedAnnounce or a `synced` heartbeat),
        // assume a dead peer comes back with stale fragments.
        self.synced[idx] = false;
        self.suspect_since = Some(now);

        // TC role: abort transactions that involve the dead node. (Sorted:
        // HashMap iteration order is not deterministic across runs, and the
        // abort order decides message emission order.)
        let mut doomed: Vec<TxId> = self
            .txs
            .iter()
            .filter(|(_, tx)| tx.participants.contains(&(idx as u32)))
            .map(|(&id, _)| id)
            .collect();
        doomed.sort_unstable();
        for tx in doomed {
            self.abort_tx(ctx, tx, AbortReason::NodeFailure, true);
        }

        // LDM role: transactions coordinated by the dead node are orphans.
        // Report their state (prepared tokens + commit evidence) to the
        // take-over TC — the first live, synced member of the dead node's
        // group — which re-drives each to a consistent outcome. Without a
        // take-over target, fall back to releasing immediately (the client
        // times out and retries against a surviving coordinator).
        let takeover_tc = self
            .view
            .config
            .group_members(self.view.config.node_group_of(idx))
            .find(|&i| i != idx && self.alive[i] && self.synced[i]);
        let mut orphans: Vec<TxId> = self
            .ldm_txs
            .iter()
            .filter(|(_, ltx)| ltx.tc == Some(idx as u32))
            .map(|(&tx, _)| tx)
            .collect();
        orphans.sort_unstable();
        for tx in orphans {
            let Some(ltx) = self.ldm_txs.get_mut(&tx) else { continue };
            ltx.tc = None;
            // Queued lock requests would answer to a dead TC: drop them.
            for t in &mut ltx.tokens {
                t.queued = None;
            }
            match takeover_tc {
                Some(t) => {
                    let report = TakeOverReport {
                        from: self.my_idx as u32,
                        tx,
                        dead: idx as u32,
                        prepared: ltx.prepared(),
                        committed: ltx.committed,
                    };
                    if t == self.my_idx {
                        self.accept_takeover_report(ctx, report);
                    } else {
                        ltx.takeover_deadline =
                            Some(now + self.view.config.timeouts.transaction_deadlock_detection * 6);
                        let to = self.dn_node(t as u32);
                        self.send_from(ctx, now, to, 96, report);
                    }
                }
                None => {
                    self.release_tx_local(ctx, tx);
                }
            }
        }

        self.recheck_cluster_viability();

        // Ask the arbitrator whether my side may survive (split-brain guard).
        // The request is delayed one suspicion window so the cohort reflects
        // the *settled* partition, not just the first peer to miss a beat.
        if !self.arb_requested {
            self.arb_requested = true;
            let settle = self.view.config.timeouts.heartbeat_interval * (HEARTBEAT_MISSES + 1);
            ctx.schedule(settle, ArbRequestDue);
        }
        let _ = now;
    }

    fn on_arb_request_due(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let cohort: Vec<u32> = (0..self.view.datanode_count())
            .filter(|&i| self.alive[i] || i == self.my_idx)
            .map(|i| i as u32)
            .collect();
        let to = self.view.mgmt_ids[self.current_arb];
        self.send_from(ctx, now, to, 64, ArbRequest { from: self.my_idx as u32, cohort });
    }

    fn on_tick_arbitration(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if self.last_arb_pong == SimTime::ZERO {
            self.last_arb_pong = now; // grace period at startup
        }
        let silent = now.saturating_since(self.last_arb_pong);
        if silent > ARBITRATION_TIMEOUT {
            // Try the next management node.
            self.current_arb = (self.current_arb + 1) % self.view.mgmt_ids.len();
            if self.suspect_since.is_some() && silent > ARBITRATION_TIMEOUT * 2 {
                // §IV-A2: nodes that cannot reach the arbitrator during a
                // suspected partition shut down gracefully.
                self.shutting_down = true;
                ctx.shutdown_self();
                return;
            }
        }
        let to = self.view.mgmt_ids[self.current_arb];
        self.send_from(ctx, now, to, 32, ArbPing { from: self.my_idx as u32 });
        ctx.schedule(self.view.config.timeouts.arbitration_interval, TickArbitration);
    }

    fn on_tick_gcp(&mut self, ctx: &mut Ctx<'_>) {
        let t = self.view.config.timeouts.gcp_interval;
        if self.redo_pending > 0 {
            let bytes = std::mem::take(&mut self.redo_pending);
            ctx.execute(lane::IO, SimDuration::from_micros(20));
            ctx.execute(lane::MAIN, SimDuration::from_micros(10));
            ctx.disk_io(DiskOp::Write, bytes);
        }
        ctx.schedule(t, TickGcp);
    }

    fn on_tick_tx_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let t = self.view.config.timeouts.clone();
        let mut lock_timeouts = Vec::new();
        let mut inactive = Vec::new();
        for (&id, tx) in &self.txs {
            match tx.phase {
                TcPhase::Reading | TcPhase::Scanning | TcPhase::Preparing => {
                    if now.saturating_since(tx.step_started) > t.transaction_deadlock_detection {
                        lock_timeouts.push(id);
                    }
                }
                TcPhase::Committing | TcPhase::Completing => {
                    // Past the commit point we only give up on node failure
                    // (much longer fuse) — outcome is ambiguous for the client.
                    if now.saturating_since(tx.step_started) > t.transaction_deadlock_detection * 6 {
                        lock_timeouts.push(id);
                    }
                }
                TcPhase::Idle => {
                    if now.saturating_since(tx.last_activity) > TRANSACTION_INACTIVE {
                        inactive.push(id);
                    }
                }
            }
        }
        // Sorted: `txs` is a HashMap, and the abort order decides message
        // emission order, which must be identical across same-seed runs.
        lock_timeouts.sort_unstable();
        inactive.sort_unstable();
        for id in lock_timeouts {
            self.abort_tx(ctx, id, AbortReason::LockTimeout, true);
        }
        for id in inactive {
            self.abort_tx(ctx, id, AbortReason::Inactive, false);
        }
        // Take-over fallback: if the take-over TC never resolved an orphan
        // (it died too, or the report was lost), release locally so the
        // locks do not leak.
        let mut expired: Vec<TxId> = self
            .ldm_txs
            .iter()
            .filter(|(_, ltx)| ltx.takeover_deadline.is_some_and(|deadline| now > deadline))
            .map(|(&tx, _)| tx)
            .collect();
        expired.sort_unstable();
        for tx in expired {
            self.release_tx_local(ctx, tx);
        }
        ctx.schedule(t.transaction_deadlock_detection / 2, TickTxSweep);
    }

    fn on_arb_pong(&mut self, ctx: &mut Ctx<'_>) {
        self.last_arb_pong = ctx.now();
    }

    fn on_arb_grant(&mut self, _ctx: &mut Ctx<'_>) {
        self.arb_requested = false;
        self.suspect_since = None;
    }

    fn on_arb_shutdown(&mut self, ctx: &mut Ctx<'_>) {
        self.shutting_down = true;
        ctx.shutdown_self();
    }

    // --- Node recovery: rejoin, copy-fragment resync, TC take-over --------

    fn on_rejoin_req(&mut self, ctx: &mut Ctx<'_>, m: RejoinReq) {
        let idx = m.from as usize;
        // The peer restarted: it is alive again (so writes dual-apply to
        // it) but unsynced (so no reads route to it) until it announces.
        self.alive[idx] = true;
        self.synced[idx] = false;
        self.last_hb[idx] = ctx.now();
        self.recheck_cluster_viability();
    }

    fn on_synced_announce(&mut self, ctx: &mut Ctx<'_>, m: SyncedAnnounce) {
        let idx = m.from as usize;
        self.alive[idx] = true;
        self.synced[idx] = true;
        self.last_hb[idx] = ctx.now();
        self.recheck_cluster_viability();
    }

    fn on_tick_resync(&mut self, ctx: &mut Ctx<'_>) {
        if !self.recovering {
            return; // resync finished meanwhile; let the timer die
        }
        let now = ctx.now();
        let group = self.view.config.node_group_of(self.my_idx);
        let sources: Vec<usize> = self
            .view
            .config
            .group_members(group)
            .filter(|&i| i != self.my_idx && self.alive[i] && self.synced[i])
            .collect();
        // Only re-request when the previous attempt made no progress since
        // the last tick (source slow or dead): a full snapshot can easily
        // outlast one tick interval and must not be restarted mid-stream.
        let stalled = self.resync_frags_recv == self.resync_progress_mark;
        self.resync_progress_mark = self.resync_frags_recv;
        if !sources.is_empty() && stalled {
            // Rotate through live group peers across attempts so a slow or
            // just-died source does not wedge the resync.
            let src = sources[self.resync_attempts as usize % sources.len()];
            let to = self.dn_node(src as u32);
            self.send_from(ctx, now, to, 32, CopyFragReq { from: self.my_idx as u32, scope: None });
            self.resync_attempts += 1;
        }
        ctx.schedule(self.view.config.timeouts.heartbeat_interval * 2, TickResync);
    }

    /// LDM of a live replica: stream a snapshot of every fragment the
    /// requester should store (node recovery) or exactly the scoped
    /// fragments (live migration), then `CopyFragDone`. Fragments are sent
    /// in sorted order so same-seed runs emit identical message sequences.
    fn on_copy_frag_req(&mut self, ctx: &mut Ctx<'_>, from: NodeId, m: CopyFragReq) {
        if self.recovering {
            return; // cannot seed a copy while catching up myself
        }
        let req_idx = m.from as usize;
        let view = Arc::clone(&self.view);
        let pmap = self.pmap.clone();
        let scope: Option<simnet::FxHashSet<(TableId, PartitionId)>> =
            m.scope.map(|s| s.into_iter().collect());
        let mut frags: Vec<(TableId, PartitionKey)> = self
            .store
            .keys()
            .filter(|&&(table, pk)| {
                let pid = pmap.partition_of(pk);
                match &scope {
                    // Migration pull: exactly the requested fragments.
                    Some(s) => s.contains(&(table, pid)),
                    // Node recovery: everything the requester stores under
                    // this node's committed map.
                    None => {
                        let options = view.schema.table(table).options;
                        pmap.stores(req_idx, pid, options)
                    }
                }
            })
            .copied()
            .collect();
        frags.sort_unstable();
        let mut fragments = 0u64;
        let mut nrows = 0u64;
        let mut total = 0u64;
        let mut done = ctx.now();
        for (table, pk) in frags {
            let rows: Vec<Row> = self.store[&(table, pk)]
                .iter()
                .map(|(suffix, data)| Row {
                    key: RowKey { pk, suffix: suffix.clone() },
                    data: data.clone(),
                })
                .collect();
            done = ctx.execute(
                lane::LDM,
                LDM_SCAN_BASE + LDM_SCAN_ROW * rows.len() as u64,
            );
            let msg = CopyFrag { table, pk, rows };
            let bytes = msg.wire_size();
            fragments += 1;
            nrows += msg.rows.len() as u64;
            total += bytes;
            self.send_from(ctx, done, from, bytes, msg);
        }
        self.send_from(ctx, done, from, 48, CopyFragDone { fragments, rows: nrows, bytes: total });
    }

    fn on_copy_frag(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: CopyFrag) {
        let migrating =
            !self.recovering && self.migrate.as_ref().is_some_and(|mg| mg.started && !mg.done_sent);
        if !self.recovering && !migrating {
            return; // late snapshot from a previous attempt
        }
        let bytes = m.wire_size();
        ctx.execute(lane::LDM, LDM_SCAN_BASE + (LDM_WRITE / 2) * m.rows.len() as u64);
        let CopyFrag { table, pk: _, rows } = m;
        for row in rows {
            // A key written while recovering or migrating already holds a
            // newer value than the snapshot (dual-apply); keep it.
            if self.resync_dirty.contains(&(table, row.key.clone())) {
                continue;
            }
            self.store.entry((table, row.key.pk)).or_default().insert(row.key.suffix, row.data);
        }
        // The restored rows go through the redo log like any other write,
        // so the next GCP tick flushes them to disk.
        self.redo_pending += bytes;
        if migrating {
            self.stats.migrate_bytes += bytes;
            let mg = self.migrate.as_mut().expect("migrating checked above");
            mg.frags_recv += 1;
            self.try_finish_migration(ctx);
        } else {
            self.stats.resync_bytes += bytes;
            self.resync_frags_recv += 1;
            self.try_finish_resync(ctx);
        }
    }

    fn on_copy_frag_done(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: CopyFragDone) {
        if self.recovering {
            // The done marker is tiny and can overtake the snapshot
            // fragments still in flight: record the expected count and only
            // complete once every fragment has actually been applied.
            self.resync_expected = Some(m.fragments);
            self.try_finish_resync(ctx);
            return;
        }
        if self.migrate.as_ref().is_some_and(|mg| mg.started && !mg.done_sent) {
            let mg = self.migrate.as_mut().expect("checked above");
            mg.reqs_outstanding = mg.reqs_outstanding.saturating_sub(1);
            mg.frags_expected += m.fragments;
            self.try_finish_migration(ctx);
        }
    }

    fn try_finish_resync(&mut self, ctx: &mut Ctx<'_>) {
        let expected = match self.resync_expected {
            Some(n) if self.recovering => n,
            _ => return,
        };
        if self.resync_frags_recv < expected {
            return;
        }
        self.recovering = false;
        self.synced[self.my_idx] = true;
        if self.migrate.is_none() {
            // Keep the dirty set while a migration pull is also in flight:
            // it guards those snapshots too (cleared at epoch commit).
            self.resync_dirty.clear();
        }
        self.resync_frags_recv = 0;
        self.resync_expected = None;
        self.stats.resyncs_completed += 1;
        let now = ctx.now();
        let my = self.my_idx as u32;
        for i in 0..self.view.datanode_count() {
            if i == self.my_idx {
                continue;
            }
            let to = self.dn_node(i as u32);
            self.send_from(ctx, now, to, 32, SyncedAnnounce { from: my });
        }
    }

    // --- Online node-group reconfiguration --------------------------------

    /// `EpochPrepare` from the active management node: a new partition map
    /// is pending. From here on mutations dual-apply to the union of both
    /// maps' chains; if this node gains fragments, it schedules a scoped
    /// copy-fragment pull after a settle delay (long enough that any
    /// transaction prepared on an old-only chain has finished).
    fn on_epoch_prepare(&mut self, ctx: &mut Ctx<'_>, m: EpochPrepare) {
        if m.epoch <= self.epoch {
            return; // stale announcement of an epoch already committed
        }
        if let Some(p) = &self.pending {
            if p.epoch == m.epoch {
                // Re-broadcast (the management node retries until every
                // new-map-active node reports): re-send a lost done.
                if self.migrate.as_ref().is_none_or(|mg| mg.done_sent)
                    && self.my_idx < p.map.active_len()
                {
                    self.send_migration_done(ctx, m.epoch);
                }
                return;
            }
        }
        let new_map = PartitionMap::with_groups(&self.view.config, m.to_groups as usize);
        // Fragments this node owns only under the pending map, sorted for
        // deterministic pull order.
        let mut scope: Vec<(TableId, PartitionId)> = Vec::new();
        for t in 0..self.view.schema.len() {
            let table = TableId(t as u16);
            let options = self.view.schema.table(table).options;
            for p in 0..self.pmap.partition_count() as u32 {
                let pid = PartitionId(p);
                if new_map.stores(self.my_idx, pid, options)
                    && !self.pmap.stores(self.my_idx, pid, options)
                {
                    scope.push((table, pid));
                }
            }
        }
        scope.sort_unstable();
        let new_active = self.my_idx < new_map.active_len();
        self.pending = Some(PendingEpoch { epoch: m.epoch, map: new_map });
        if scope.is_empty() {
            self.migrate = None;
            if new_active {
                // Nothing to pull: report immediately.
                self.send_migration_done(ctx, m.epoch);
            }
            return;
        }
        self.migrate = Some(MigratePull { scope, ..MigratePull::default() });
        let settle = TRANSACTION_INACTIVE + self.view.config.timeouts.heartbeat_interval * 2;
        ctx.schedule(settle, MigratePullsDue { epoch: m.epoch });
    }

    fn send_migration_done(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        let now = ctx.now();
        let msg = MigrationDone { from: self.my_idx as u32, epoch };
        for &mgmt in &self.view.mgmt_ids.clone() {
            self.send_from(ctx, now, mgmt, 48, msg);
        }
    }

    fn on_migrate_pulls_due(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        let valid = self.pending.as_ref().is_some_and(|p| p.epoch == epoch)
            && self.migrate.as_ref().is_some_and(|mg| !mg.started && !mg.done_sent);
        if !valid {
            return;
        }
        if self.recovering {
            // Node recovery owns the copy-fragment machinery right now;
            // try again shortly.
            let t = self.view.config.timeouts.heartbeat_interval * 2;
            ctx.schedule(t, MigratePullsDue { epoch });
            return;
        }
        self.migrate.as_mut().expect("checked above").started = true;
        self.issue_migrate_pulls(ctx);
        ctx.schedule(self.view.config.timeouts.heartbeat_interval * 2, TickMigrate);
    }

    /// Sends one scoped `CopyFragReq` per snapshot source: each gained
    /// fragment is pulled from a live, synced replica of its partition
    /// under the *old* (committed) map, rotating replicas across attempts.
    fn issue_migrate_pulls(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let (scope, attempts) = {
            let mg = self.migrate.as_mut().expect("issue_migrate_pulls without migrate state");
            mg.frags_recv = 0;
            mg.frags_expected = 0;
            mg.progress_mark = 0;
            let a = mg.attempts;
            mg.attempts += 1;
            (mg.scope.clone(), a)
        };
        let mut by_source: BTreeMap<usize, Vec<(TableId, PartitionId)>> = BTreeMap::new();
        for (table, pid) in scope {
            let sources: Vec<usize> = self
                .pmap
                .replicas(pid)
                .into_iter()
                .filter(|&i| i != self.my_idx && self.alive[i] && self.synced[i])
                .collect();
            if sources.is_empty() {
                continue; // no live old owner right now; the tick retries
            }
            let src = sources[attempts as usize % sources.len()];
            by_source.entry(src).or_default().push((table, pid));
        }
        let n = by_source.len();
        self.migrate.as_mut().expect("checked above").reqs_outstanding = n;
        for (src, frags) in by_source {
            let bytes = 32 + frags.len() as u64 * 8;
            let to = self.dn_node(src as u32);
            let req = CopyFragReq { from: self.my_idx as u32, scope: Some(frags) };
            self.send_from(ctx, now, to, bytes, req);
        }
    }

    fn on_tick_migrate(&mut self, ctx: &mut Ctx<'_>) {
        let live = self.migrate.as_ref().is_some_and(|mg| mg.started && !mg.done_sent);
        if !live {
            return; // migration finished or superseded; let the timer die
        }
        if !self.recovering {
            let stalled = {
                let mg = self.migrate.as_mut().expect("checked above");
                let s = mg.frags_recv == mg.progress_mark;
                mg.progress_mark = mg.frags_recv;
                s
            };
            if stalled {
                // No progress since the last tick (source slow or dead):
                // restart the pulls against rotated sources. Dual-apply
                // dirty tracking makes re-pulls idempotent.
                self.issue_migrate_pulls(ctx);
            }
        }
        ctx.schedule(self.view.config.timeouts.heartbeat_interval * 2, TickMigrate);
    }

    fn try_finish_migration(&mut self, ctx: &mut Ctx<'_>) {
        let epoch = match &self.pending {
            Some(p) => p.epoch,
            None => return,
        };
        {
            let mg = match &self.migrate {
                Some(mg) => mg,
                None => return,
            };
            if !mg.started
                || mg.done_sent
                || mg.reqs_outstanding > 0
                || mg.frags_recv < mg.frags_expected
            {
                return;
            }
        }
        self.migrate.as_mut().expect("checked above").done_sent = true;
        self.stats.migrations_completed += 1;
        self.send_migration_done(ctx, epoch);
    }

    /// Installs a committed epoch: adopt the new map, drop the pending
    /// state, GC fragments this node no longer owns, and drop prepared
    /// writes for rows it no longer stores (their union chains guarantee
    /// the new owners hold them). Driven by `EpochCommit` and by heartbeat
    /// epoch gossip.
    fn install_epoch(&mut self, ctx: &mut Ctx<'_>, epoch: u64, groups: u32) {
        if epoch <= self.epoch {
            return;
        }
        self.epoch = epoch;
        self.pmap = PartitionMap::with_groups(&self.view.config, groups as usize);
        if self.pending.as_ref().is_some_and(|p| p.epoch <= epoch) {
            self.pending = None;
            self.migrate = None;
        }
        if !self.recovering && self.migrate.is_none() {
            self.resync_dirty.clear();
        }
        let view = Arc::clone(&self.view);
        let pmap = self.pmap.clone();
        let my = self.my_idx;
        // Drop prepared-but-uncommitted writes for rows this node no longer
        // owns: applying them later would resurrect a GC'd fragment. The
        // commit chain simply skips the missing entry (`on_commit_row`
        // applies nothing and keeps forwarding), and the new owners hold
        // the row via the union chain.
        if !self.recovering {
            let mut stale: Vec<(TxId, u64)> = self
                .ldm_txs
                .iter()
                .flat_map(|(&tx, ltx)| ltx.tokens.iter().map(move |t| (tx, t)))
                .filter(|(_, t)| {
                    t.write.as_ref().is_some_and(|op| {
                        let options = view.schema.table(op.table()).options;
                        !pmap.stores(my, pmap.partition_of(op.key().pk), options)
                    })
                })
                .map(|(tx, t)| (tx, t.token))
                .collect();
            stale.sort_unstable();
            for (tx, token) in stale {
                let row = self.ldm_token(tx, token).and_then(|t| {
                    t.write = None;
                    t.row.take()
                });
                self.release_row(ctx, tx, row);
            }
        }
        // GC fragments not owned under the committed map (skipped while
        // recovering: the resync in flight targets the old ownership and
        // re-converges via gossip afterwards).
        if !self.recovering {
            let mut gc_rows = 0u64;
            self.store.retain(|&(table, pk), rows| {
                let options = view.schema.table(table).options;
                let keep = pmap.stores(my, pmap.partition_of(pk), options);
                if !keep {
                    gc_rows += rows.len() as u64;
                }
                keep
            });
            if gc_rows > 0 {
                self.stats.gc_rows += gc_rows;
                let cost = LDM_SCAN_ROW * gc_rows;
                ctx.execute(lane::LDM, cost);
            }
        }
        self.recheck_cluster_viability();
    }

    fn on_epoch_commit(&mut self, ctx: &mut Ctx<'_>, m: EpochCommit) {
        self.install_epoch(ctx, m.epoch, m.groups);
    }

    /// Take-over TC: collect one report about an orphaned transaction.
    /// The first report starts a settle timer; once it fires, the
    /// accumulated commit evidence decides the outcome.
    fn accept_takeover_report(&mut self, ctx: &mut Ctx<'_>, m: TakeOverReport) {
        let first = !self.takeover.contains_key(&m.tx);
        let st = self.takeover.entry(m.tx).or_default();
        st.reporters.insert(m.from);
        st.committed += m.committed;
        if first {
            let settle = self.view.config.timeouts.heartbeat_interval * (HEARTBEAT_MISSES + 1);
            ctx.schedule(settle, TakeOverDue { tx: m.tx });
        }
    }

    fn on_takeover_report(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: TakeOverReport) {
        self.accept_takeover_report(ctx, m);
    }

    fn on_takeover_due(&mut self, ctx: &mut Ctx<'_>, tx: TxId) {
        let now = ctx.now();
        let st = match self.takeover.remove(&tx) {
            Some(st) => st,
            None => return,
        };
        // Linear 2PC: the primary applies before the TC learns of commit;
        // any applied row anywhere means the decision was commit, so the
        // remaining prepared rows must be applied too. No evidence means
        // no replica passed the commit point: release (abort).
        let commit = st.committed > 0 || self.ldm_txs.get(&tx).is_some_and(|ltx| ltx.committed > 0);
        for &r in &st.reporters {
            if r as usize == self.my_idx {
                continue;
            }
            let to = self.dn_node(r);
            if commit {
                self.send_from(ctx, now, to, 48, TakeOverCommit { tx });
            } else {
                self.send_from(ctx, now, to, 48, ReleaseTx { tx });
            }
        }
        if commit {
            self.stats.takeover_commits += 1;
            self.takeover_commit_local(ctx, tx);
        } else {
            self.stats.takeover_aborts += 1;
            self.release_tx_local(ctx, tx);
        }
    }

    /// Applies this node's prepared rows of a taken-over transaction (in
    /// token order) and releases its locks.
    fn takeover_commit_local(&mut self, ctx: &mut Ctx<'_>, tx: TxId) {
        let writes: Vec<WriteOp> = match self.ldm_txs.get_mut(&tx) {
            Some(ltx) => {
                let tokens = ltx.prepared();
                tokens.into_iter().filter_map(|token| ltx.get_mut(token)?.write.take()).collect()
            }
            None => Vec::new(),
        };
        if !writes.is_empty() {
            let cost = (LDM_WRITE / 2) * writes.len() as u64;
            ctx.execute(lane::LDM, cost);
        }
        for op in &writes {
            self.apply_write(op);
            self.stats.rows_committed += 1;
        }
        self.release_tx_local(ctx, tx);
    }

    fn on_takeover_commit(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, m: TakeOverCommit) {
        self.takeover_commit_local(ctx, m.tx);
    }
}

impl Actor for DatanodeActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let t = self.view.config.timeouts.clone();
        for i in 0..self.last_hb.len() {
            self.last_hb[i] = now;
        }
        self.last_arb_pong = now;
        ctx.schedule(t.heartbeat_interval, TickHeartbeat);
        ctx.schedule(t.arbitration_interval, TickArbitration);
        ctx.schedule(t.gcp_interval, TickGcp);
        ctx.schedule(t.transaction_deadlock_detection / 2, TickTxSweep);
        if self.recovering {
            // Restarted with node recovery on: announce the rejoin (peers
            // mark us alive-but-unsynced, the arbitrator forgets our death)
            // and start the copy-fragment resync.
            let my = self.my_idx as u32;
            for i in 0..self.view.datanode_count() {
                if i == self.my_idx {
                    continue;
                }
                let to = self.dn_node(i as u32);
                self.send_from(ctx, now, to, 32, RejoinReq { from: my });
            }
            for &mgmt in &self.view.mgmt_ids {
                self.send_from(ctx, now, mgmt, 32, ArbRejoin { from: my });
            }
            ctx.schedule(t.heartbeat_interval, TickResync);
        }
    }

    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {
        if self.view.config.node_recovery {
            // A restarted process lost its in-memory state: rebuild from
            // scratch (keeping only the harness statistics) and rejoin in
            // Recovering state; `on_start` (re-delivered next) announces
            // the rejoin and starts the resync.
            let stats = std::mem::take(&mut self.stats);
            *self = DatanodeActor::new(Arc::clone(&self.view), self.my_idx);
            self.stats = stats;
            self.recovering = true;
            self.synced[self.my_idx] = false;
        } else {
            // Ablation (`node_recovery: false`): the naive revive the seed
            // repo had — keep whatever rows survived in the store, reset
            // only the protocol state, and rejoin as if nothing happened.
            // `fig_az_outage` uses this to show the stale-read/durability
            // violations the recovery protocol exists to prevent.
            self.locks = LockManager::default();
            self.ldm_txs.clear();
            self.takeover.clear();
            self.txs.clear();
            self.redo_pending = 0;
            self.shutting_down = false;
            self.cluster_down = false;
            self.recovering = false;
            self.suspect_since = None;
            self.arb_requested = false;
            self.current_arb = 0;
            for i in 0..self.alive.len() {
                self.alive[i] = true;
                self.synced[i] = true;
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        if from != ctx.me() {
            self.charge_net_in(ctx);
        }
        let any = msg.into_any();
        let any = match any.downcast::<TxRequest>() {
            Ok(m) => return self.on_tx_request(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LdmReadReq>() {
            Ok(m) => return self.on_ldm_read(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LdmReadResp>() {
            Ok(m) => return self.on_ldm_read_resp(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LdmScanReq>() {
            Ok(m) => return self.on_ldm_scan(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LdmScanResp>() {
            Ok(m) => return self.on_ldm_scan_resp(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<PrepareRow>() {
            Ok(m) => return self.on_prepare_row(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<PreparedRow>() {
            Ok(m) => return self.on_prepared_row(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<PrepareRefused>() {
            Ok(m) => return self.on_prepare_refused(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<CommitRow>() {
            Ok(m) => return self.on_commit_row(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<CommittedRow>() {
            Ok(m) => return self.on_committed_row(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<CompleteRow>() {
            Ok(m) => return self.on_complete_row(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<CompletedRow>() {
            Ok(m) => return self.on_completed_row(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<ReleaseTx>() {
            Ok(m) => return self.on_release_tx(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<LdmReadRefused>() {
            Ok(m) => return self.on_ldm_refused(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<Heartbeat>() {
            Ok(m) => return self.on_heartbeat(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<RejoinReq>() {
            Ok(m) => return self.on_rejoin_req(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<SyncedAnnounce>() {
            Ok(m) => return self.on_synced_announce(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<CopyFragReq>() {
            Ok(m) => return self.on_copy_frag_req(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<CopyFrag>() {
            Ok(m) => return self.on_copy_frag(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<CopyFragDone>() {
            Ok(m) => return self.on_copy_frag_done(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<TakeOverReport>() {
            Ok(m) => return self.on_takeover_report(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<TakeOverCommit>() {
            Ok(m) => return self.on_takeover_commit(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<EpochPrepare>() {
            Ok(m) => return self.on_epoch_prepare(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<EpochCommit>() {
            Ok(m) => return self.on_epoch_commit(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<MigratePullsDue>() {
            Ok(m) => return self.on_migrate_pulls_due(ctx, m.epoch),
            Err(m) => m,
        };
        let any = match any.downcast::<TickMigrate>() {
            Ok(_) => return self.on_tick_migrate(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<TickResync>() {
            Ok(_) => return self.on_tick_resync(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<TakeOverDue>() {
            Ok(m) => return self.on_takeover_due(ctx, m.tx),
            Err(m) => m,
        };
        let any = match any.downcast::<ReadsFlush>() {
            Ok(m) => return self.tc_finish_reads(ctx, m.tx),
            Err(m) => m,
        };
        let any = match any.downcast::<TickHeartbeat>() {
            Ok(_) => return self.on_tick_heartbeat(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<TickArbitration>() {
            Ok(_) => return self.on_tick_arbitration(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<TickGcp>() {
            Ok(_) => return self.on_tick_gcp(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<TickTxSweep>() {
            Ok(_) => return self.on_tick_tx_sweep(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<ArbRequestDue>() {
            Ok(_) => return self.on_arb_request_due(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<ArbPong>() {
            Ok(_) => return self.on_arb_pong(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<ArbGrant>() {
            Ok(_) => return self.on_arb_grant(ctx),
            Err(m) => m,
        };
        match any.downcast::<ArbShutdown>() {
            Ok(_) => self.on_arb_shutdown(ctx),
            Err(m) => debug_assert!(false, "datanode got unknown message {m:?}"),
        }
    }
}
