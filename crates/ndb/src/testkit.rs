//! Scripted client actors for exercising the full protocol stack in tests
//! and experiments without an application layer on top.

use crate::client::{ClientKernel, TxEvent};
use crate::messages::{AbortReason, ReadSpec, TxResponse, WriteOp};
use crate::schema::{PartitionKey, Row, TableId};
use crate::view::ClusterView;
use bytes::Bytes;
use simnet::{Actor, AzId, Ctx, Location, NodeId, Payload, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// One step of a scripted transaction.
#[derive(Debug, Clone)]
pub enum ProgStep {
    /// Batch point reads.
    Read(Vec<ReadSpec>),
    /// Partition-pruned scan.
    Scan(TableId, PartitionKey),
    /// Buffer writes.
    Write(Vec<WriteOp>),
    /// Commit.
    Commit,
    /// Abort.
    Abort,
}

/// A scripted transaction.
#[derive(Debug, Clone)]
pub struct TxProgram {
    /// Distribution-awareness hint.
    pub hint: Option<(TableId, PartitionKey)>,
    /// Steps, executed sequentially; the program ends at `Commit`/`Abort` or
    /// when steps run out (which implicitly aborts).
    pub steps: Vec<ProgStep>,
    /// Retry the whole program on abort, up to this many times.
    pub retries: u32,
}

impl TxProgram {
    /// A program with no retries.
    pub fn new(hint: Option<(TableId, PartitionKey)>, steps: Vec<ProgStep>) -> Self {
        TxProgram { hint, steps, retries: 0 }
    }
}

/// The recorded outcome of one program run (after retries).
#[derive(Debug)]
pub struct TxOutcome {
    /// Whether the final attempt committed.
    pub committed: bool,
    /// Abort reason of the final attempt, if any.
    pub reason: Option<AbortReason>,
    /// Results of each `Read` step of the final attempt.
    pub rows: Vec<Vec<Option<Bytes>>>,
    /// Results of each `Scan` step of the final attempt.
    pub scans: Vec<Vec<Row>>,
    /// Wall-clock (virtual) duration from first attempt start to completion.
    pub latency: SimDuration,
    /// Attempts used (1 = no retries needed).
    pub attempts: u32,
    /// Virtual time at completion.
    pub finished_at: SimTime,
}

#[derive(Debug, Clone)]
struct SweepTick;
#[derive(Debug, Clone)]
struct StartNext;
#[derive(Debug, Clone)]
struct StartRetry;

struct Running {
    tx: crate::locks::TxId,
    program: TxProgram,
    next_step: usize,
    started: SimTime,
    attempts: u32,
    rows: Vec<Vec<Option<Bytes>>>,
    scans: Vec<Vec<Row>>,
}

/// An actor that runs a queue of [`TxProgram`]s sequentially and records
/// their outcomes.
pub struct ScriptClient {
    view: Arc<ClusterView>,
    domain: Option<AzId>,
    kernel: Option<ClientKernel>,
    queue: VecDeque<TxProgram>,
    current: Option<Running>,
    retry_pending: Option<(TxProgram, u32, SimTime)>,
    /// Outcomes, in program order.
    pub outcomes: Vec<TxOutcome>,
    /// Pause between programs.
    pub think_time: SimDuration,
}

impl ScriptClient {
    /// Creates a client that will run `programs` once started. `domain` is
    /// the client's `LocationDomainId` (AZ-awareness).
    pub fn new(view: Arc<ClusterView>, domain: Option<AzId>, programs: Vec<TxProgram>) -> Self {
        ScriptClient {
            view,
            domain,
            kernel: None,
            queue: programs.into(),
            current: None,
            retry_pending: None,
            outcomes: Vec::new(),
            think_time: SimDuration::ZERO,
        }
    }

    /// Whether every queued program has completed.
    pub fn is_done(&self) -> bool {
        self.queue.is_empty() && self.current.is_none()
    }

    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.current.is_some() {
            return;
        }
        let program = match self.queue.pop_front() {
            Some(p) => p,
            None => return,
        };
        self.begin_attempt(ctx, program, 1, ctx.now());
    }

    fn begin_attempt(&mut self, ctx: &mut Ctx<'_>, program: TxProgram, attempts: u32, started: SimTime) {
        let kernel = self.kernel.as_mut().expect("started");
        let tx = match kernel.begin(ctx, program.hint) {
            Some(tx) => tx,
            None => {
                // Nothing reachable: record an abort outcome.
                self.outcomes.push(TxOutcome {
                    committed: false,
                    reason: Some(AbortReason::ClusterDown),
                    rows: Vec::new(),
                    scans: Vec::new(),
                    latency: ctx.now().saturating_since(started),
                    attempts,
                    finished_at: ctx.now(),
                });
                ctx.schedule(self.think_time, StartNext);
                return;
            }
        };
        self.current =
            Some(Running { tx, program, next_step: 0, started, attempts, rows: Vec::new(), scans: Vec::new() });
        self.advance(ctx);
    }

    /// Issues the next step of the current program.
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        let (tx, step) = {
            let run = self.current.as_mut().expect("advance without current");
            let step = run.program.steps.get(run.next_step).cloned();
            run.next_step += 1;
            (run.tx, step)
        };
        let kernel = self.kernel.as_mut().expect("started");
        match step {
            Some(ProgStep::Read(specs)) => kernel.read(ctx, tx, specs),
            Some(ProgStep::Scan(table, pk)) => kernel.scan(ctx, tx, table, pk),
            Some(ProgStep::Write(ops)) => kernel.write(ctx, tx, ops),
            Some(ProgStep::Commit) => kernel.commit(ctx, tx),
            Some(ProgStep::Abort) | None => {
                kernel.abort(ctx, tx);
                self.finish(ctx, false, Some(AbortReason::ClientAbort));
            }
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, committed: bool, reason: Option<AbortReason>) {
        let run = self.current.take().expect("finish without current");
        let retry = !committed
            && run.attempts <= run.program.retries
            && reason != Some(AbortReason::ClientAbort);
        if retry {
            // Randomized exponential-ish backoff breaks retry lockstep
            // between deadlocking transactions (HopsFS's backpressure).
            let attempts = run.attempts + 1;
            let cap = 5u64 * u64::from(attempts.min(8));
            let jitter_ms = rand::Rng::gen_range(ctx.rng(), 0..cap.max(1));
            self.retry_pending = Some((run.program, attempts, run.started));
            ctx.schedule(SimDuration::from_millis(jitter_ms), StartRetry);
            return;
        }
        self.outcomes.push(TxOutcome {
            committed,
            reason,
            rows: run.rows,
            scans: run.scans,
            latency: ctx.now().saturating_since(run.started),
            attempts: run.attempts,
            finished_at: ctx.now(),
        });
        ctx.schedule(self.think_time, StartNext);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: TxEvent) {
        let current_tx = match &self.current {
            Some(run) => run.tx,
            None => return,
        };
        match ev {
            TxEvent::Rows { tx, rows } if tx == current_tx => {
                self.current.as_mut().expect("checked").rows.push(rows);
                self.advance(ctx);
            }
            TxEvent::Scanned { tx, rows } if tx == current_tx => {
                self.current.as_mut().expect("checked").scans.push(rows);
                self.advance(ctx);
            }
            TxEvent::WriteAcked { tx } if tx == current_tx => self.advance(ctx),
            TxEvent::Committed { tx } if tx == current_tx => self.finish(ctx, true, None),
            TxEvent::Aborted { tx, reason, .. } if tx == current_tx => {
                self.finish(ctx, false, Some(reason))
            }
            _ => {}
        }
    }
}

impl Actor for ScriptClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.kernel.is_none() {
            let me = ctx.me();
            let loc = ctx.location(me);
            self.kernel = Some(ClientKernel::new(Arc::clone(&self.view), me, loc, self.domain));
            ctx.schedule(SimDuration::from_millis(50), SweepTick);
        }
        self.start_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<TxResponse>() {
            Ok(resp) => {
                let now = ctx.now();
                if let Some(ev) = self.kernel.as_mut().expect("started").on_response(now, *resp) {
                    self.on_event(ctx, ev);
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<SweepTick>() {
            Ok(_) => {
                let now = ctx.now();
                let events = self.kernel.as_mut().expect("started").sweep(now);
                for ev in events {
                    self.on_event(ctx, ev);
                }
                ctx.schedule(SimDuration::from_millis(50), SweepTick);
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<StartNext>() {
            Ok(_) => return self.start_next(ctx),
            Err(m) => m,
        };
        match any.downcast::<StartRetry>() {
            Ok(_) => {
                if let Some((program, attempts, started)) = self.retry_pending.take() {
                    self.begin_attempt(ctx, program, attempts, started);
                }
            }
            Err(m) => debug_assert!(false, "script client got unknown message {m:?}"),
        }
    }
}

/// Convenience: adds a [`ScriptClient`] to the simulation at `loc`.
pub fn add_client(
    sim: &mut simnet::Simulation,
    view: Arc<ClusterView>,
    loc: Location,
    domain: Option<AzId>,
    programs: Vec<TxProgram>,
) -> NodeId {
    sim.add_node(
        simnet::NodeSpec::new("script-client", loc).with_layer("ndb-client"),
        Box::new(ScriptClient::new(view, domain, programs)),
    )
}
