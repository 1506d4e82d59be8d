//! Wire messages of the NDB protocols: the client transaction API, the
//! linear-2PC commit chain (Figure 2 of the paper), heartbeats and
//! arbitration.

use crate::locks::TxId;
use crate::schema::{LockMode, PartitionKey, Row, RowKey, TableId};
use bytes::Bytes;
use std::sync::Arc;

/// One read in a transaction step.
#[derive(Debug, Clone)]
pub struct ReadSpec {
    /// Table to read from.
    pub table: TableId,
    /// Row key.
    pub key: RowKey,
    /// Lock mode: read-committed (lock-free, backup-eligible) or locked
    /// (always served by the primary).
    pub mode: LockMode,
}

/// One buffered write in a transaction.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Insert or overwrite a row.
    Put {
        /// Target table.
        table: TableId,
        /// Row key.
        key: RowKey,
        /// New payload.
        data: Bytes,
    },
    /// Delete a row (idempotent).
    Delete {
        /// Target table.
        table: TableId,
        /// Row key.
        key: RowKey,
    },
}

impl WriteOp {
    /// Target table of the write.
    pub fn table(&self) -> TableId {
        match self {
            WriteOp::Put { table, .. } | WriteOp::Delete { table, .. } => *table,
        }
    }

    /// Row key of the write.
    pub fn key(&self) -> &RowKey {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Delete { key, .. } => key,
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        match self {
            WriteOp::Put { key, data, .. } => 16 + key.wire_size() + data.len() as u64,
            WriteOp::Delete { key, .. } => 16 + key.wire_size(),
        }
    }
}

/// Body of a client transaction step.
#[derive(Debug, Clone)]
pub enum TxBody {
    /// Execute a batch of point reads.
    Read(Vec<ReadSpec>),
    /// Scan all rows with a given partition key (read-committed).
    Scan {
        /// Table to scan.
        table: TableId,
        /// Partition key selecting the rows.
        pk: PartitionKey,
    },
    /// Buffer writes (applied at commit through the 2PC chains).
    Write(Vec<WriteOp>),
    /// Commit the transaction.
    Commit,
    /// Abort the transaction and release its locks.
    Abort,
}

/// Client → coordinator transaction step.
#[derive(Debug, Clone)]
pub struct TxRequest {
    /// Transaction id.
    pub tx: TxId,
    /// Distribution-awareness hint the transaction was started with.
    pub hint: Option<(TableId, PartitionKey)>,
    /// Step body.
    pub body: TxBody,
    /// Tracing span of the client-side operation this transaction serves
    /// ([`simnet::SpanId::NONE`] when tracing is off).
    pub span: simnet::SpanId,
}

/// Why a transaction was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Lock wait exceeded `TransactionDeadlockDetectionTimeout`.
    LockTimeout,
    /// Client went quiet past `TransactionInactiveTimeout`.
    Inactive,
    /// A participant datanode failed mid-transaction.
    NodeFailure,
    /// A whole node group is down; the cluster cannot serve transactions.
    ClusterDown,
    /// The coordinator is shutting down (arbitration loss).
    Shutdown,
    /// The contacted datanode is catching up after a restart and refuses
    /// to coordinate until its fragments are resynchronized.
    NodeRecovering,
    /// The transaction was routed under a superseded partition-map epoch
    /// (an online node-group reconfiguration committed mid-flight). The
    /// response carries the current epoch and group count
    /// ([`TxResponse::map_epoch`] / [`TxResponse::map_groups`]); clients
    /// update their map and retry — retryable, never a suspicion.
    WrongEpoch,
    /// Client aborted voluntarily.
    ClientAbort,
}

/// Coordinator → client response body.
#[derive(Debug, Clone)]
pub enum RespBody {
    /// Read results, one per [`ReadSpec`] in request order (`None` = absent row).
    Rows(Vec<Option<Bytes>>),
    /// Scan results.
    ScanRows(Vec<Row>),
    /// Writes buffered.
    WriteAck,
    /// Transaction committed (and for Read Backup / fully replicated tables,
    /// completed on every replica).
    Committed,
    /// Transaction aborted; all locks released.
    Aborted(AbortReason),
}

/// Coordinator → client transaction response.
#[derive(Debug, Clone)]
pub struct TxResponse {
    /// Transaction id.
    pub tx: TxId,
    /// Response body.
    pub body: RespBody,
    /// Overload signal piggybacked on every reply: the coordinator's TC-lane
    /// backlog (how long a step arriving now would queue before a TC thread
    /// picks it up) at the instant the reply departed. Clients fold this
    /// into their own admission/backpressure decisions — the NDB layer never
    /// sheds on its own, it only tells the layer above how deep the water is.
    pub tc_queue_delay: simnet::SimDuration,
    /// Partition-map epoch the responding datanode has committed, stamped
    /// at departure like `tc_queue_delay`. Clients adopt newer epochs from
    /// every response, so the fleet converges on a reconfigured map within
    /// one round trip instead of discovering it abort-by-abort.
    pub map_epoch: u64,
    /// Active node-group count under `map_epoch`.
    pub map_groups: u32,
}

impl TxResponse {
    /// A response with no overload signal yet; the coordinator's send path
    /// stamps `tc_queue_delay` (and the partition-map epoch) at departure.
    pub fn new(tx: TxId, body: RespBody) -> Self {
        TxResponse {
            tx,
            body,
            tc_queue_delay: simnet::SimDuration::ZERO,
            map_epoch: 0,
            map_groups: 0,
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        match &self.body {
            RespBody::Rows(rows) => {
                64 + rows.iter().map(|r| r.as_ref().map_or(1, |b| b.len() as u64 + 5)).sum::<u64>()
            }
            RespBody::ScanRows(rows) => 64 + rows.iter().map(Row::wire_size).sum::<u64>(),
            _ => 64,
        }
    }
}

// ---------------------------------------------------------------------------
// Datanode-internal protocol (TC role <-> LDM role).
// ---------------------------------------------------------------------------

/// TC → LDM: execute one read (possibly acquiring a row lock).
#[derive(Debug, Clone)]
pub struct LdmReadReq {
    /// Transaction.
    pub tx: TxId,
    /// Coordinator continuation token.
    pub token: u64,
    /// Table.
    pub table: TableId,
    /// Row key.
    pub key: RowKey,
    /// Lock mode.
    pub mode: LockMode,
    /// Datanode index of the coordinator (for take-over bookkeeping).
    pub tc_idx: u32,
}

/// LDM → TC: read result.
#[derive(Debug, Clone)]
pub struct LdmReadResp {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token from the request.
    pub token: u64,
    /// Row payload, `None` if absent.
    pub data: Option<Bytes>,
}

/// TC → LDM: partition-pruned scan.
#[derive(Debug, Clone)]
pub struct LdmScanReq {
    /// Transaction.
    pub tx: TxId,
    /// Coordinator continuation token.
    pub token: u64,
    /// Table.
    pub table: TableId,
    /// Partition key selecting rows.
    pub pk: PartitionKey,
    /// Datanode index of the coordinator.
    pub tc_idx: u32,
}

/// LDM → TC: scan result.
#[derive(Debug, Clone)]
pub struct LdmScanResp {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token.
    pub token: u64,
    /// Matching rows.
    pub rows: Vec<Row>,
}

/// Linear-2PC `Prepare`, traveling down the replica chain
/// (primary → backup → backup; the last replica reports `Prepared` to the TC).
#[derive(Debug, Clone)]
pub struct PrepareRow {
    /// Transaction.
    pub tx: TxId,
    /// Coordinator continuation token (one per written row).
    pub token: u64,
    /// Replica chain as datanode indices, primary first.
    pub chain: Arc<[u32]>,
    /// This hop's position in the chain.
    pub pos: u8,
    /// The write to prepare.
    pub op: WriteOp,
    /// Datanode index of the coordinator.
    pub tc_idx: u32,
    /// Partition-map epoch the coordinator routed this write under. A
    /// replica that has already committed a *newer* epoch refuses the
    /// prepare ([`PrepareRefused`]) instead of applying under a superseded
    /// map — the epoch fence of online reconfiguration.
    pub epoch: u64,
}

/// Replica → TC: prepare refused — the coordinator's partition-map epoch
/// is superseded (an online reconfiguration committed between routing and
/// prepare). The TC aborts the transaction with
/// [`AbortReason::WrongEpoch`] so the client re-routes under the new map.
#[derive(Debug, Clone, Copy)]
pub struct PrepareRefused {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token of the refused prepare.
    pub token: u64,
    /// The refusing replica's committed epoch.
    pub epoch: u64,
}

/// Last replica → TC: the row is prepared on the whole chain.
#[derive(Debug, Clone)]
pub struct PreparedRow {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token.
    pub token: u64,
}

/// Linear-2PC `Commit`, traveling the chain in reverse
/// (last backup → … → primary). Backups apply and keep their locks; the
/// primary applies, releases its locks, and reports `Committed` to the TC.
#[derive(Debug, Clone)]
pub struct CommitRow {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token.
    pub token: u64,
    /// Replica chain (same as the prepare chain).
    pub chain: Arc<[u32]>,
    /// This hop's position (runs `chain.len()-1` down to 0).
    pub pos: u8,
    /// Datanode index of the coordinator.
    pub tc_idx: u32,
}

/// Primary → TC: the row is committed.
#[derive(Debug, Clone)]
pub struct CommittedRow {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token.
    pub token: u64,
}

/// TC → backups: release locks and clean transaction state for the row.
#[derive(Debug, Clone)]
pub struct CompleteRow {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token.
    pub token: u64,
}

/// Backup → TC: completion acknowledged. With Read Backup / fully replicated
/// tables the TC only Acks the client after all of these (§IV-A3: the Ack
/// becomes message 14 instead of 10 in Figure 2).
#[derive(Debug, Clone)]
pub struct CompletedRow {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token.
    pub token: u64,
}

/// TC → participants: abort/cleanup — release all locks of the transaction.
#[derive(Debug, Clone)]
pub struct ReleaseTx {
    /// Transaction to release.
    pub tx: TxId,
}

/// LDM → TC: read/scan refused — the replica is recovering and must not
/// serve data until its copy-fragment resync completes. The TC aborts the
/// transaction so the client retries against a synchronized replica.
#[derive(Debug, Clone, Copy)]
pub struct LdmReadRefused {
    /// Transaction.
    pub tx: TxId,
    /// Continuation token of the refused read.
    pub token: u64,
}

// ---------------------------------------------------------------------------
// Membership, heartbeats, arbitration.
// ---------------------------------------------------------------------------

/// Datanode ↔ datanode liveness heartbeat.
#[derive(Debug, Clone, Copy)]
pub struct Heartbeat {
    /// Sender's datanode index.
    pub from: u32,
    /// Whether the sender's fragments are synchronized. A node that was
    /// merely partitioned heartbeats `true` and is re-trusted instantly; a
    /// restarted node heartbeats `false` until copy-fragment resync
    /// completes, keeping it out of read routing and TC candidacy.
    pub synced: bool,
    /// Sender's committed partition-map epoch — gossip that lets a peer
    /// which missed an `EpochCommit` (e.g. one that restarted and reset to
    /// the deployment map) catch up within a heartbeat interval.
    pub epoch: u64,
    /// Active node-group count under `epoch`.
    pub groups: u32,
}

/// Datanode → management node liveness probe.
#[derive(Debug, Clone, Copy)]
pub struct ArbPing {
    /// Sender's datanode index.
    pub from: u32,
}

/// Management node → datanode probe response (only sent by the node that
/// currently believes it is the active arbitrator).
#[derive(Debug, Clone, Copy)]
pub struct ArbPong;

/// Datanode → arbitrator: "I suspect these peers; may my side survive?"
#[derive(Debug, Clone)]
pub struct ArbRequest {
    /// Requester's datanode index.
    pub from: u32,
    /// Datanode indices the requester believes alive (its cohort).
    pub cohort: Vec<u32>,
}

/// Arbitrator → datanode: survive.
#[derive(Debug, Clone, Copy)]
pub struct ArbGrant;

/// Arbitrator → datanode: you lost arbitration; shut down gracefully.
#[derive(Debug, Clone, Copy)]
pub struct ArbShutdown;

/// Management ↔ management heartbeat (for arbitrator failover).
#[derive(Debug, Clone, Copy)]
pub struct MgmtHeartbeat {
    /// Sender's index in the management list.
    pub from: u32,
}

// ---------------------------------------------------------------------------
// Node recovery: rejoin, copy-fragment resync, transaction take-over.
// ---------------------------------------------------------------------------

/// Restarted datanode → all peers: "I am back, in Recovering state".
/// Receivers mark the sender alive-but-unsynced and resume dual-applying
/// writes to it so the fragment copy converges.
#[derive(Debug, Clone, Copy)]
pub struct RejoinReq {
    /// Sender's datanode index.
    pub from: u32,
}

/// Recovered datanode → all peers: copy-fragment resync finished; the
/// sender may again serve reads and coordinate transactions.
#[derive(Debug, Clone, Copy)]
pub struct SyncedAnnounce {
    /// Sender's datanode index.
    pub from: u32,
}

/// Recovering datanode → a live node-group peer: send me a snapshot of
/// every fragment we share (the copy-fragment phase of node restart).
/// During an online reconfiguration the same message, scoped, pulls only
/// the fragments a node *gains* under the pending partition map.
#[derive(Debug, Clone)]
pub struct CopyFragReq {
    /// Requester's datanode index.
    pub from: u32,
    /// `None` = node-recovery semantics (every fragment the requester
    /// stores under the sender's current map). `Some` = exactly these
    /// `(table, partition)` fragments, for live partition migration.
    pub scope: Option<Vec<(TableId, crate::partition::PartitionId)>>,
}

/// One fragment's snapshot, streamed from the live replica to the
/// recovering node. Modeled bytes scale with row payloads, so the
/// transfer exercises the real AZ-pair links.
#[derive(Debug, Clone)]
pub struct CopyFrag {
    /// Table of the fragment.
    pub table: TableId,
    /// Partition key of the fragment.
    pub pk: PartitionKey,
    /// All rows of the fragment at snapshot time.
    pub rows: Vec<Row>,
}

impl CopyFrag {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        64 + self.rows.iter().map(Row::wire_size).sum::<u64>()
    }
}

/// Live replica → recovering node: snapshot stream complete.
#[derive(Debug, Clone, Copy)]
pub struct CopyFragDone {
    /// Number of fragments copied.
    pub fragments: u64,
    /// Number of rows copied.
    pub rows: u64,
    /// Total modeled bytes of the copy.
    pub bytes: u64,
}

/// Restarted datanode → management node: forget my previous incarnation
/// (clear me from any death episode) so a later failure episode sees the
/// true membership.
#[derive(Debug, Clone, Copy)]
pub struct ArbRejoin {
    /// Sender's datanode index.
    pub from: u32,
}

/// Surviving participant → take-over TC: state of an in-flight transaction
/// whose coordinator (or chain member) died. The take-over node collects
/// these and re-drives the transaction to a consistent outcome.
#[derive(Debug, Clone)]
pub struct TakeOverReport {
    /// Reporter's datanode index.
    pub from: u32,
    /// The orphaned transaction.
    pub tx: TxId,
    /// The dead datanode's index.
    pub dead: u32,
    /// Continuation tokens of rows this reporter holds in prepared state.
    pub prepared: Vec<u64>,
    /// Rows of this transaction the reporter has already committed —
    /// commit evidence: if any replica committed, the decision was commit.
    pub committed: u32,
}

/// Take-over TC → reporters: the orphaned transaction's decision was
/// commit; apply your prepared rows and release.
#[derive(Debug, Clone, Copy)]
pub struct TakeOverCommit {
    /// The transaction to commit.
    pub tx: TxId,
}

// ---------------------------------------------------------------------------
// Online node-group reconfiguration (management-node-driven).
// ---------------------------------------------------------------------------

/// Operator/controller → management nodes: change the active node-group
/// count online. The active arbitrator drives the reconfiguration; inactive
/// management nodes ignore the request.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigReq {
    /// Desired active node-group count (1..=provisioned groups).
    pub target_groups: u32,
}

/// Active management node → all datanodes: a new partition-map epoch is
/// pending. Coordinators immediately switch mutations to the **union** of
/// the old and new write chains (dual-apply), and datanodes that gain
/// fragments under the new map start a scoped copy-fragment pull after a
/// settle delay (long enough for transactions prepared on old-only chains
/// to finish).
#[derive(Debug, Clone, Copy)]
pub struct EpochPrepare {
    /// The epoch being installed (committed epoch + 1).
    pub epoch: u64,
    /// Active group count under the current (old) map.
    pub from_groups: u32,
    /// Active group count under the pending (new) map.
    pub to_groups: u32,
}

/// Datanode → active management node: this node holds every fragment it
/// owns under the pending map (scoped pulls complete, or nothing to gain).
#[derive(Debug, Clone, Copy)]
pub struct MigrationDone {
    /// Sender's datanode index.
    pub from: u32,
    /// The pending epoch this completes.
    pub epoch: u64,
}

/// Active management node → all datanodes: every gaining node reported
/// [`MigrationDone`] — commit the epoch. Receivers install the new map,
/// fence older-epoch prepares, and garbage-collect fragments they no
/// longer own.
#[derive(Debug, Clone, Copy)]
pub struct EpochCommit {
    /// The committed epoch.
    pub epoch: u64,
    /// Active node-group count under the committed map.
    pub groups: u32,
}
