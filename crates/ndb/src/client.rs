//! Sans-IO client kernel: the library an application actor (a HopsFS
//! NameNode, a test driver) embeds to talk to the cluster.
//!
//! The kernel owns transaction bookkeeping — coordinator selection
//! (AZ-aware, §IV-A5), request framing, response correlation, and timeouts —
//! while the owning actor supplies the `Ctx` for sending and feeds responses
//! back in. All methods are synchronous and deterministic.

use crate::locks::TxId;
use crate::messages::{AbortReason, ReadSpec, RespBody, TxBody, TxRequest, TxResponse, WriteOp};
use crate::partition::PartitionMap;
use crate::routing::select_tc;
use crate::schema::{PartitionKey, Row, TableId};
use crate::view::ClusterView;
use bytes::Bytes;
use simnet::{AzId, Ctx, FxHashMap, Location, NodeId, RetryPolicy, SimDuration, SimTime};
use std::sync::Arc;

/// Time without a coordinator response after which a transaction is
/// abandoned and its coordinator suspected.
const RESPONSE_TIMEOUT: SimDuration = SimDuration::from_millis(1200);
/// Suspicion backoff: a datanode that keeps timing out is avoided for
/// exponentially longer, from 1.5 s up to 8× that, so a gray, flapping
/// coordinator stops re-capturing traffic every TTL.
const SUSPICION: RetryPolicy =
    RetryPolicy::new(SimDuration::from_millis(1500), SimDuration::from_millis(12_000)).with_jitter(0.0);
/// How long the coordinator-queue-delay overload hint cached from the last
/// response stays fresh. A quiet client ages the signal back to zero after
/// this, instead of sitting on a stale congestion report indefinitely.
const TC_SIGNAL_TTL: SimDuration = SimDuration::from_millis(400);

/// What a transaction is currently waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Nothing,
    Rows,
    Scan,
    WriteAck,
    Commit,
}

#[derive(Debug)]
struct ClientTx {
    tc_idx: usize,
    hint: Option<(TableId, PartitionKey)>,
    expect: Expect,
    pending_since: Option<SimTime>,
    /// Tracing span of the operation this transaction serves (captured from
    /// the ambient span at `begin`; NONE when tracing is off).
    span: simnet::SpanId,
    /// Write ops buffered by this transaction so far (across `write` calls).
    writes_issued: usize,
}

/// Event surfaced to the embedding application.
#[derive(Debug)]
pub enum TxEvent {
    /// Point-read results, in request order.
    Rows {
        /// Transaction.
        tx: TxId,
        /// One entry per requested key; `None` = row absent.
        rows: Vec<Option<Bytes>>,
    },
    /// Scan results.
    Scanned {
        /// Transaction.
        tx: TxId,
        /// Matching rows.
        rows: Vec<Row>,
    },
    /// Writes were buffered at the coordinator.
    WriteAcked {
        /// Transaction.
        tx: TxId,
    },
    /// Commit acknowledged.
    Committed {
        /// Transaction.
        tx: TxId,
    },
    /// Transaction aborted (by the coordinator, or locally on timeout).
    Aborted {
        /// Transaction.
        tx: TxId,
        /// Why.
        reason: AbortReason,
        /// True when the abort raced the commit point: the transaction *may*
        /// have committed (the application should use idempotent retries).
        maybe_committed: bool,
    },
}

/// The client kernel. One per application actor.
#[derive(Debug)]
pub struct ClientKernel {
    view: Arc<ClusterView>,
    my_loc: Location,
    /// The client's `LocationDomainId` (None = vanilla, not AZ-aware).
    my_domain: Option<AzId>,
    client_bits: u32,
    next_seq: u64,
    txs: FxHashMap<TxId, ClientTx>,
    /// Per-datanode suspicion deadline (believed dead until then).
    suspect_until: Vec<SimTime>,
    /// Consecutive timeouts per datanode; indexes the suspicion backoff and
    /// resets on the first successful response.
    tc_failures: Vec<u32>,
    /// Datanodes that answered `Aborted(NodeRecovering)` since the last
    /// sweep: they are alive but must not be selected as coordinators until
    /// resynced, so the sweep marks them suspect (responses carry no
    /// timestamp, hence the deferred application).
    pending_suspects: Vec<usize>,
    /// Which coordinator case/TC each tx used (exposed for stats/tests).
    pub last_tc: Option<usize>,
    /// Largest number of write ops any single transaction has carried
    /// (cumulative across its `write` calls). Lets tests assert batching
    /// bounds — e.g. that a subtree delete never exceeds its configured
    /// per-transaction batch size.
    pub largest_write_batch: usize,
    /// Most recent TC-queue-delay overload signal piggybacked on any
    /// coordinator reply ([`TxResponse::tc_queue_delay`]). The embedding
    /// layer folds this into its own admission decisions; it decays to
    /// zero as soon as a reply from an unloaded coordinator arrives.
    tc_queue_delay: SimDuration,
    /// When `tc_queue_delay` was last refreshed by a response. The sweep
    /// ages the signal out after `TC_SIGNAL_TTL`:
    /// without the TTL a kernel that stops receiving responses (idle NN, or
    /// every TC suspect) would hold a stale overload reading forever and
    /// keep shedding load the cluster could serve.
    tc_signal_at: SimTime,
    /// Partition-map epoch this kernel has adopted (0 = the deployment
    /// map). Updated from the stamps on every coordinator response.
    map_epoch: u64,
    /// The adopted epoch's partition map; coordinator selection routes
    /// against it.
    pmap: PartitionMap,
}

impl ClientKernel {
    /// Creates a kernel for an application actor at `my_loc`.
    ///
    /// `client_node` must be the owning actor's node id (it seeds unique
    /// transaction ids). `my_domain` enables AZ-aware coordinator selection.
    pub fn new(view: Arc<ClusterView>, client_node: NodeId, my_loc: Location, my_domain: Option<AzId>) -> Self {
        let n = view.datanode_count();
        ClientKernel {
            my_loc,
            my_domain,
            client_bits: client_node.0,
            next_seq: 0,
            txs: FxHashMap::default(),
            suspect_until: vec![SimTime::ZERO; n],
            tc_failures: vec![0; n],
            pending_suspects: Vec::new(),
            last_tc: None,
            largest_write_batch: 0,
            tc_queue_delay: SimDuration::ZERO,
            tc_signal_at: SimTime::ZERO,
            map_epoch: 0,
            pmap: view.pmap.clone(),
            view,
        }
    }

    /// The latest TC overload signal any coordinator piggybacked on a reply
    /// (zero when the metadata store is keeping up, or when the signal aged
    /// past its TTL without a refresh).
    pub fn tc_queue_delay(&self) -> SimDuration {
        self.tc_queue_delay
    }

    /// The partition-map epoch this kernel has adopted.
    pub fn map_epoch(&self) -> u64 {
        self.map_epoch
    }

    /// Active node-group count under the adopted map.
    pub fn map_groups(&self) -> usize {
        self.pmap.group_count()
    }

    /// The shared cluster view.
    pub fn view(&self) -> &Arc<ClusterView> {
        &self.view
    }

    fn alive_mask(&self, now: SimTime) -> Vec<bool> {
        self.suspect_until.iter().map(|&t| now >= t).collect()
    }

    /// Starts a transaction, selecting its coordinator with the paper's
    /// policy. Returns `None` when no datanode is believed reachable.
    pub fn begin(&mut self, ctx: &mut Ctx<'_>, hint: Option<(TableId, PartitionKey)>) -> Option<TxId> {
        let now = ctx.now();
        let alive = self.alive_mask(now);
        let (tc_idx, _case) =
            select_tc(&self.view, &self.pmap, self.my_loc, self.my_domain, hint, &alive, ctx.rng())?;
        self.next_seq += 1;
        let tx = TxId { client: self.client_bits, seq: self.next_seq };
        self.last_tc = Some(tc_idx);
        let span = ctx.current_span();
        self.txs.insert(
            tx,
            ClientTx {
                tc_idx,
                hint,
                expect: Expect::Nothing,
                pending_since: None,
                span,
                writes_issued: 0,
            },
        );
        Some(tx)
    }

    fn send_step(&mut self, ctx: &mut Ctx<'_>, tx: TxId, body: TxBody, expect: Expect, bytes: u64) {
        let now = ctx.now();
        let (to, hint, span) = {
            let st = self.txs.get_mut(&tx).expect("unknown transaction");
            st.expect = expect;
            st.pending_since = Some(now);
            (self.view.datanode_ids[st.tc_idx], st.hint, st.span)
        };
        ctx.set_span(span);
        ctx.send_sized(to, bytes, TxRequest { tx, hint, body, span });
    }

    /// Issues a batch of point reads.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown or already has a step in flight.
    pub fn read(&mut self, ctx: &mut Ctx<'_>, tx: TxId, specs: Vec<ReadSpec>) {
        let bytes = 64 + 32 * specs.len() as u64;
        self.send_step(ctx, tx, TxBody::Read(specs), Expect::Rows, bytes);
    }

    /// Issues a partition-pruned scan.
    pub fn scan(&mut self, ctx: &mut Ctx<'_>, tx: TxId, table: TableId, pk: PartitionKey) {
        self.send_step(ctx, tx, TxBody::Scan { table, pk }, Expect::Scan, 64);
    }

    /// Buffers writes at the coordinator.
    pub fn write(&mut self, ctx: &mut Ctx<'_>, tx: TxId, ops: Vec<WriteOp>) {
        let bytes = 64 + ops.iter().map(WriteOp::wire_size).sum::<u64>();
        if let Some(st) = self.txs.get_mut(&tx) {
            st.writes_issued += ops.len();
            self.largest_write_batch = self.largest_write_batch.max(st.writes_issued);
        }
        self.send_step(ctx, tx, TxBody::Write(ops), Expect::WriteAck, bytes);
    }

    /// Commits the transaction.
    pub fn commit(&mut self, ctx: &mut Ctx<'_>, tx: TxId) {
        self.send_step(ctx, tx, TxBody::Commit, Expect::Commit, 64);
    }

    /// Aborts the transaction (fire-and-forget; the tx is forgotten locally).
    pub fn abort(&mut self, ctx: &mut Ctx<'_>, tx: TxId) {
        if let Some(st) = self.txs.remove(&tx) {
            let to = self.view.datanode_ids[st.tc_idx];
            ctx.set_span(st.span);
            ctx.send_sized(to, 64, TxRequest { tx, hint: st.hint, body: TxBody::Abort, span: st.span });
        }
    }

    /// Feeds a coordinator response in; returns the application-level event,
    /// or `None` for stale responses (e.g. after a local timeout).
    pub fn on_response(&mut self, now: SimTime, resp: TxResponse) -> Option<TxEvent> {
        // The overload signal is fresh even when the transaction itself is
        // stale (timed out locally): record it before correlation.
        self.tc_queue_delay = resp.tc_queue_delay;
        self.tc_signal_at = now;
        // Likewise the partition-map stamps: adopt a newer epoch from any
        // response (including `WrongEpoch` aborts), so the next attempt
        // routes under the reconfigured map.
        if resp.map_epoch > self.map_epoch && resp.map_groups >= 1 {
            self.map_epoch = resp.map_epoch;
            self.pmap = PartitionMap::with_groups(&self.view.config, resp.map_groups as usize);
        }
        let st = self.txs.get_mut(&resp.tx)?;
        let expect = st.expect;
        st.pending_since = None;
        st.expect = Expect::Nothing;
        // The coordinator answered: clear its consecutive-failure streak so
        // the suspicion backoff starts over next time.
        self.tc_failures[st.tc_idx] = 0;
        let tx = resp.tx;
        match (resp.body, expect) {
            (RespBody::Rows(rows), Expect::Rows) => Some(TxEvent::Rows { tx, rows }),
            (RespBody::ScanRows(rows), Expect::Scan) => Some(TxEvent::Scanned { tx, rows }),
            (RespBody::WriteAck, Expect::WriteAck) => Some(TxEvent::WriteAcked { tx }),
            (RespBody::Committed, Expect::Commit) => {
                self.txs.remove(&tx);
                Some(TxEvent::Committed { tx })
            }
            (RespBody::Aborted(reason), expect) => {
                let tc_idx = self.txs.remove(&tx).map(|st| st.tc_idx);
                // Only `NodeRecovering` marks the coordinator suspect. In
                // particular `WrongEpoch` is pure re-routing: the node is
                // healthy, the client just raced a reconfiguration (its
                // map was refreshed from the stamps above).
                if reason == AbortReason::NodeRecovering {
                    if let Some(idx) = tc_idx {
                        self.pending_suspects.push(idx);
                    }
                }
                Some(TxEvent::Aborted { tx, reason, maybe_committed: expect == Expect::Commit })
            }
            (body, expect) => {
                debug_assert!(false, "response {body:?} does not match expectation {expect:?}");
                None
            }
        }
    }

    /// Times out transactions whose coordinator went silent; marks those
    /// coordinators suspect so new transactions avoid them. Call
    /// periodically from the owning actor.
    pub fn sweep(&mut self, now: SimTime) -> Vec<TxEvent> {
        let mut events = Vec::new();
        // Age out the cached overload signal: with no response refreshing
        // it within the TTL, the reading no longer describes the cluster
        // (the queue it measured has long drained or grown).
        if self.tc_queue_delay > SimDuration::ZERO
            && now.saturating_since(self.tc_signal_at) > TC_SIGNAL_TTL
        {
            self.tc_queue_delay = SimDuration::ZERO;
        }
        let mut dead_tcs = Vec::new();
        // Sorted: `txs` is a HashMap, and the order the aborts surface in
        // decides the owner's retry order — it must be identical across
        // same-seed runs.
        let mut expired: Vec<TxId> = self
            .txs
            .iter()
            .filter(|(_, st)| {
                st.pending_since.is_some_and(|since| now.saturating_since(since) > RESPONSE_TIMEOUT)
            })
            .map(|(&tx, _)| tx)
            .collect();
        expired.sort_unstable();
        for tx in expired {
            let st = self.txs.remove(&tx).expect("expired tx present");
            dead_tcs.push(st.tc_idx);
            events.push(TxEvent::Aborted {
                tx,
                reason: AbortReason::NodeFailure,
                maybe_committed: st.expect == Expect::Commit,
            });
        }
        // Recovering coordinators refuse until resynced: avoid them like
        // dead ones (their SyncedAnnounce shows up as normal service again
        // once the suspicion TTL lapses).
        dead_tcs.append(&mut self.pending_suspects);
        for idx in dead_tcs {
            let streak = self.tc_failures[idx];
            self.tc_failures[idx] = streak.saturating_add(1);
            let ttl = SUSPICION.delay(streak, idx as u64);
            self.suspect_until[idx] = self.suspect_until[idx].max(now + ttl);
        }
        events
    }

    /// Number of in-flight transactions.
    pub fn in_flight(&self) -> usize {
        self.txs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::deploy;
    use crate::schema::{Schema, TableOptions};
    use simnet::{AzId, Simulation};

    fn kernel() -> ClientKernel {
        let mut schema = Schema::new();
        schema.add_table("t", TableOptions::default());
        let cfg = ClusterConfig::az_aware(6, 3, &[AzId(0), AzId(1), AzId(2)]);
        let mut sim = Simulation::new(1);
        let view = deploy::build_cluster(&mut sim, cfg, schema, &[AzId(0), AzId(1), AzId(2)]).view;
        ClientKernel::new(view, NodeId(999), Location::new(0, 99), Some(AzId(0)))
    }

    #[test]
    fn tc_queue_delay_signal_ages_out() {
        let mut k = kernel();
        let ttl = TC_SIGNAL_TTL;
        let t0 = SimTime::ZERO + SimDuration::from_millis(1);

        let mut resp = TxResponse::new(TxId { client: 1, seq: 1 }, RespBody::WriteAck);
        resp.tc_queue_delay = SimDuration::from_millis(7);
        k.on_response(t0, resp);
        assert_eq!(k.tc_queue_delay(), SimDuration::from_millis(7));

        // Within the TTL the sweep keeps the signal.
        k.sweep(t0 + ttl / 2);
        assert_eq!(k.tc_queue_delay(), SimDuration::from_millis(7));

        // Past the TTL with no refresh it decays to zero. Regression: the
        // cached signal used to persist forever once coordinators went
        // quiet, leaving the embedding layer shedding load indefinitely.
        k.sweep(t0 + ttl * 2);
        assert_eq!(k.tc_queue_delay(), SimDuration::ZERO);

        // A fresh response restarts the clock.
        let mut resp = TxResponse::new(TxId { client: 1, seq: 2 }, RespBody::WriteAck);
        resp.tc_queue_delay = SimDuration::from_millis(3);
        let t1 = t0 + ttl * 3;
        k.on_response(t1, resp);
        k.sweep(t1 + ttl / 2);
        assert_eq!(k.tc_queue_delay(), SimDuration::from_millis(3));
    }

    #[test]
    fn responses_update_the_adopted_partition_map() {
        let mut k = kernel();
        assert_eq!(k.map_epoch(), 0);
        assert_eq!(k.map_groups(), 2);

        let mut resp = TxResponse::new(TxId { client: 1, seq: 1 }, RespBody::WriteAck);
        resp.map_epoch = 3;
        resp.map_groups = 1;
        k.on_response(SimTime::ZERO, resp);
        assert_eq!(k.map_epoch(), 3);
        assert_eq!(k.map_groups(), 1);

        // An older stamp never rolls the map back.
        let mut resp = TxResponse::new(TxId { client: 1, seq: 2 }, RespBody::WriteAck);
        resp.map_epoch = 2;
        resp.map_groups = 2;
        k.on_response(SimTime::ZERO, resp);
        assert_eq!(k.map_epoch(), 3);
        assert_eq!(k.map_groups(), 1);
    }
}
