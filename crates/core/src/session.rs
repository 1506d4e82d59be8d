//! The client request lifecycle both HopsFS front ends embed.
//!
//! [`crate::client::FsClientActor`] (closed loop) and
//! [`crate::openloop::OpenLoopClientActor`] (open loop) differ only in *when*
//! they issue an operation and *which* namenode they send it to. Everything
//! between issue and verdict is this sans-IO core, shaped like
//! `ndb::ClientKernel`: the owning actor supplies the `Ctx` and feeds
//! responses, timer ticks and retry timers back in.
//!
//! - [`Session::begin`] opens a request: fresh root span, `req_id`, attempt 1.
//! - [`Session::send`] frames the [`FsRequest`] to the namenode the front
//!   end picked, with the op's span restored as the ambient span.
//! - [`Session::admit`] tallies a shed and filters stale responses.
//! - [`Session::overloaded`] and [`Session::time_out`] back off and schedule a
//!   [`Resend`], or report the spent budget as the op's error.
//! - [`Session::finish`] ends the span and records latency and verdict.
//! - [`Session::fetch_list`] asks for the active namenode list, and the
//!   tick re-sends a fetch that went unanswered.
//!
//! The per-attempt timeout, the attempt budget and the backoff curve are
//! constants of the core, shared by both front ends.

use crate::client::{ClientStats, OpSource};
use crate::ops::{FsOp, FsRequest, FsResponse, GetActiveNns};
use crate::types::{FsError, FsResult};
use rand::Rng;
use simnet::{Ctx, NodeId, RetryPolicy, SimDuration, SimTime, SpanId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-attempt timeout before the namenode is presumed failed.
pub(crate) const OP_TIMEOUT: SimDuration = SimDuration::from_secs(4);
/// Total send attempts per op; sheds and timeouts both spend the budget.
pub(crate) const MAX_ATTEMPTS: u32 = 6;
/// First backoff between resends.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(50);
/// Longest backoff between resends (server retry-after hints may exceed it).
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(800);
/// Backoff between resends, jittered per (client, request) so a namenode
/// crash does not stampede every client onto the same survivor at the same
/// instant. The budget is [`MAX_ATTEMPTS`].
const BACKOFF: RetryPolicy = RetryPolicy::new(BACKOFF_BASE, BACKOFF_CAP);
/// How long an active-list fetch may go unanswered before it is re-sent.
const LIST_REFETCH: SimDuration = SimDuration::from_millis(900);

/// Backoff expired: resend the request if it is still the same attempt (a
/// response or a newer timeout invalidates the resend).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resend {
    req_id: u64,
    attempt: u32,
}

#[derive(Debug)]
struct Inflight {
    op: FsOp,
    started: SimTime,
    sent_at: SimTime,
    attempt: u32,
    idempotent_retry: bool,
    /// Root tracing span of this op (NONE when tracing is off); restored as
    /// the ambient span on every resend so retries stay attributed.
    span: SpanId,
}

/// One client session's requests in flight, from issue to verdict.
pub(crate) struct Session {
    /// Supplies the session's operations and observes their verdicts.
    pub(crate) source: Box<dyn OpSource>,
    stats: Arc<Mutex<ClientStats>>,
    /// Keyed by `req_id`: a `BTreeMap`, so the timeout sweep expires in the
    /// same order every run. The closed loop holds at most one entry.
    inflight: BTreeMap<u64, Inflight>,
    next_req: u64,
    /// An active-list fetch is out and unanswered.
    awaiting_list: bool,
    list_sent_at: SimTime,
}

impl Session {
    pub(crate) fn new(source: Box<dyn OpSource>, stats: Arc<Mutex<ClientStats>>) -> Self {
        Session {
            source,
            stats,
            inflight: BTreeMap::new(),
            next_req: 0,
            awaiting_list: false,
            list_sent_at: SimTime::ZERO,
        }
    }

    /// Requests in flight.
    pub(crate) fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether nothing is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// The oldest request in flight (the closed loop's only one).
    pub(crate) fn oldest(&self) -> Option<u64> {
        self.inflight.keys().next().copied()
    }

    /// The operation of request `req_id`, if still in flight.
    pub(crate) fn op(&self, req_id: u64) -> Option<&FsOp> {
        self.inflight.get(&req_id).map(|p| &p.op)
    }

    /// The experiment's shared statistics sink.
    pub(crate) fn stats(&self) -> MutexGuard<'_, ClientStats> {
        self.stats.lock().expect("a client panicked while recording stats")
    }

    /// The source's next operation, or `None` when it is exhausted.
    pub(crate) fn next_op(&mut self, ctx: &mut Ctx<'_>) -> Option<FsOp> {
        let now = ctx.now();
        self.source.next_op(ctx.rng(), now)
    }

    /// Records a verdict in the shared stats and reports it to the source.
    pub(crate) fn record(&mut self, op: &FsOp, result: &FsResult, latency: SimDuration) {
        self.stats().record(op.kind(), result, latency);
        self.source.on_result(op, result);
    }

    /// Opens a request for `op` under a fresh root span and returns its id.
    /// Nothing is sent until [`Session::send`].
    pub(crate) fn begin(&mut self, ctx: &mut Ctx<'_>, op: FsOp) -> u64 {
        self.next_req += 1;
        let req_id = self.next_req;
        let now = ctx.now();
        // Drop whatever ambient context this dispatch arrived under (e.g.
        // the previous op's response).
        ctx.set_span(SpanId::NONE);
        let span = ctx.span_start(op.kind().name(), "op");
        let p =
            Inflight { op, started: now, sent_at: now, attempt: 1, idempotent_retry: false, span };
        self.inflight.insert(req_id, p);
        req_id
    }

    /// Sends the current attempt of `req_id` to namenode `nn`.
    pub(crate) fn send(&mut self, ctx: &mut Ctx<'_>, req_id: u64, nn: NodeId) {
        let p = self.inflight.get_mut(&req_id).expect("request in flight");
        p.sent_at = ctx.now();
        let req = FsRequest {
            req_id,
            op: p.op.clone(),
            idempotent_retry: p.idempotent_retry,
            span: p.span,
        };
        ctx.set_span(req.span);
        ctx.send_sized(nn, 256, req);
    }

    /// Closes request `req_id` with `result`: ends its span, records its
    /// latency and verdict. Returns the latency.
    pub(crate) fn finish(
        &mut self,
        ctx: &mut Ctx<'_>,
        req_id: u64,
        result: &FsResult,
    ) -> SimDuration {
        let p = self.inflight.remove(&req_id).expect("request in flight");
        ctx.span_end(p.span);
        let latency = ctx.now().saturating_since(p.started);
        self.record(&p.op, result, latency);
        latency
    }

    /// Whether `resp` answers a request still in flight; a timed-out attempt
    /// answered late is stale. Sheds are tallied first: the shed-accounting
    /// audit matches namenode sheds against *deliveries*, stale or not.
    pub(crate) fn admit(&self, resp: &FsResponse) -> bool {
        if let Err(FsError::Overloaded { .. }) = &resp.result {
            self.stats().overloaded_responses += 1;
        }
        self.inflight.contains_key(&resp.req_id)
    }

    /// The namenode shed request `req_id` at admission. The resend waits
    /// for the server's `retry_after` hint, not the local backoff curve;
    /// `counter` names the metric that counts the wait. Returns the op's
    /// error once the attempt budget is spent.
    pub(crate) fn overloaded(
        &mut self,
        ctx: &mut Ctx<'_>,
        req_id: u64,
        retry_after: SimDuration,
        counter: &'static str,
    ) -> Result<(), FsError> {
        self.retry(ctx, req_id, Some(retry_after), counter)
    }

    /// Requests whose current attempt outlived [`OP_TIMEOUT`], by `req_id`.
    pub(crate) fn expired(&self, now: SimTime) -> Vec<u64> {
        self.inflight
            .iter()
            .filter(|(_, p)| now.saturating_since(p.sent_at) > OP_TIMEOUT)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Request `req_id` timed out. The resend waits out the local backoff
    /// curve. Returns `Unavailable` once the attempt budget is spent.
    pub(crate) fn time_out(&mut self, ctx: &mut Ctx<'_>, req_id: u64) -> Result<(), FsError> {
        self.retry(ctx, req_id, None, "op_retries")
    }

    /// The request a retry timer fires for, unless it was answered or
    /// superseded by a newer attempt while backing off.
    pub(crate) fn resend_due(&self, r: Resend) -> Option<u64> {
        match self.inflight.get(&r.req_id) {
            Some(p) if p.attempt == r.attempt => Some(r.req_id),
            _ => None,
        }
    }

    /// Whether an active-list fetch is out and unanswered.
    pub(crate) fn awaiting_list(&self) -> bool {
        self.awaiting_list
    }

    /// Asks a random namenode of `pool` for the active list.
    pub(crate) fn fetch_list(&mut self, ctx: &mut Ctx<'_>, pool: &[NodeId]) {
        self.awaiting_list = true;
        self.list_sent_at = ctx.now();
        let pick = pool[ctx.rng().gen_range(0..pool.len())];
        ctx.send_sized(pick, 48, GetActiveNns);
    }

    /// Re-sends a fetch unanswered for [`LIST_REFETCH`]: the namenode it
    /// went to may be dead or cut off from us. Called from the tick.
    pub(crate) fn refetch_lost_list(&mut self, ctx: &mut Ctx<'_>, pool: &[NodeId]) {
        if self.awaiting_list && ctx.now().saturating_since(self.list_sent_at) > LIST_REFETCH {
            self.fetch_list(ctx, pool);
        }
    }

    /// An active list arrived.
    pub(crate) fn list_arrived(&mut self) {
        self.awaiting_list = false;
    }

    /// Spends an attempt of `req_id` after a shed (`hint` set) or a
    /// timeout, and arms the [`Resend`] timer that ends its wait.
    fn retry(
        &mut self,
        ctx: &mut Ctx<'_>,
        req_id: u64,
        hint: Option<SimDuration>,
        counter: &'static str,
    ) -> Result<(), FsError> {
        let now = ctx.now();
        // Deterministic jitter, decorrelated per client and request.
        let salt = req_id ^ (u64::from(ctx.me().0) << 32);
        let p = self.inflight.get_mut(&req_id).expect("request in flight");
        p.attempt += 1;
        // A shed op never ran; a timed-out one may have, so from then on
        // every resend is an idempotent retry.
        p.idempotent_retry |= hint.is_none();
        if p.attempt > MAX_ATTEMPTS {
            return Err(match hint {
                Some(retry_after) => FsError::Overloaded { retry_after },
                None => FsError::Unavailable,
            });
        }
        let retry = p.attempt - 2;
        let (d, span) = match hint {
            Some(h) => (BACKOFF.delay_after_hint(h, retry, salt), "overload_backoff"),
            None => (BACKOFF.delay(retry, salt), "backoff"),
        };
        // Mask the op timeout until the resend fires.
        p.sent_at = now + d;
        let layer = ctx.layer();
        ctx.metrics().inc(layer, counter, 1);
        ctx.metrics().record_hist(layer, "retry_backoff_ns", d.as_nanos());
        ctx.span_at(span, "retry", p.span, now, now + d);
        ctx.schedule(d, Resend { req_id, attempt: p.attempt });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FsClientActor;
    use crate::config::FsConfig;
    use crate::deploy::build_fs_view_for_tests;
    use crate::openloop::OpenLoopClientActor;
    use crate::path::FsPath;
    use rand::rngs::StdRng;
    use simnet::{Actor, AzId, HostId, Location, NodeSpec, Payload, Simulation};
    use std::collections::VecDeque;

    const SHED_HINT: SimDuration = SimDuration::from_millis(20);

    /// How the stub namenode answers.
    #[derive(Debug, Clone, Copy)]
    enum Stub {
        /// Sheds every request with [`SHED_HINT`].
        Shed,
        /// Never answers.
        Silent,
        /// Answers the first request `Busy`, but only after the op timeout,
        /// and its retry `NotFound` at once. Holds the `NotFound` answers to
        /// other requests until just after the late `Busy` lands, so a
        /// request is in flight when it does.
        LateFirst,
        /// Sheds the first request twice, as if the shed were duplicated on
        /// the wire; answers every later request `NotFound` 100 ms later, so
        /// a stale retry timer would fire while the resend is unanswered.
        DoubleShedFirst,
    }

    /// A namenode stand-in that logs every request it receives.
    struct StubNn {
        stub: Stub,
        seen: Arc<Mutex<Vec<FsRequest>>>,
        /// The first request and when its answer lands (`LateFirst`).
        late: Option<(u64, SimTime)>,
    }

    impl Actor for StubNn {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
            let req = *msg.into_any().downcast::<FsRequest>().expect("stub only serves requests");
            let first = {
                let mut seen = self.seen.lock().unwrap();
                seen.push(req.clone());
                seen.len() == 1
            };
            let reply = |result| FsResponse::plain(req.req_id, result);
            let shed = || reply(Err(FsError::Overloaded { retry_after: SHED_HINT }));
            match self.stub {
                Stub::Shed => ctx.send_sized(from, 64, shed()),
                Stub::Silent => {}
                Stub::LateFirst if first => {
                    let late = ctx.now() + OP_TIMEOUT + SimDuration::from_millis(600);
                    self.late = Some((req.req_id, late));
                    ctx.send_sized_from(late, from, 64, reply(Err(FsError::Busy)));
                }
                Stub::DoubleShedFirst if first => {
                    ctx.send_sized(from, 64, shed());
                    ctx.send_sized(from, 64, shed());
                }
                Stub::LateFirst => {
                    let (first_id, late) = self.late.expect("first request seen");
                    let at = if req.req_id == first_id {
                        ctx.now()
                    } else {
                        late.max(ctx.now()) + SimDuration::from_millis(100)
                    };
                    ctx.send_sized_from(at, from, 64, reply(Err(FsError::NotFound)));
                }
                Stub::DoubleShedFirst => {
                    let later = ctx.now() + SimDuration::from_millis(100);
                    ctx.send_sized_from(later, from, 64, reply(Err(FsError::NotFound)));
                }
            }
        }
    }

    /// Plays `ops` and keeps every verdict the session reports.
    struct Recorder {
        ops: VecDeque<FsOp>,
        verdicts: Arc<Mutex<Vec<FsResult>>>,
    }

    impl OpSource for Recorder {
        fn next_op(&mut self, _rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
            self.ops.pop_front()
        }

        fn on_result(&mut self, _op: &FsOp, result: &FsResult) {
            self.verdicts.lock().unwrap().push(result.clone());
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Front {
        Closed,
        Open,
    }

    /// Runs `ops` stats through one front end against a stub namenode for
    /// `span` of simulated time. Returns the requests the stub saw and the
    /// verdicts the source heard.
    fn run(
        front: Front,
        stub: Stub,
        ops: usize,
        span: SimDuration,
    ) -> (Vec<FsRequest>, Vec<FsResult>) {
        let mut sim = Simulation::new(7);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let nn = sim.add_node(
            NodeSpec::new("stub-nn", Location { az: AzId(1), host: HostId(0) }),
            Box::new(StubNn { stub, seen: Arc::clone(&seen), late: None }),
        );
        let view = build_fs_view_for_tests(FsConfig::hopsfs(3, 3, 1, 1), 3);
        let mut view = Arc::try_unwrap(view).expect("sole owner");
        view.nn_ids = vec![nn];
        let view = view.shared();
        let verdicts = Arc::new(Mutex::new(Vec::new()));
        let path = FsPath::parse("/f").unwrap();
        let source = Box::new(Recorder {
            ops: (0..ops).map(|_| FsOp::Stat { path: path.clone() }).collect(),
            verdicts: Arc::clone(&verdicts),
        });
        let stats = ClientStats::shared();
        let client: Box<dyn Actor> = match front {
            Front::Closed => Box::new(FsClientActor::new(view, None, source, stats)),
            Front::Open => Box::new(OpenLoopClientActor::new(view, source, stats, 100.0, 8)),
        };
        sim.add_node(
            NodeSpec::new("client", Location { az: AzId(1), host: HostId(1) })
                .with_layer("fs-client"),
            client,
        );
        sim.run_for(span);
        let seen = seen.lock().unwrap().clone();
        let verdicts = verdicts.lock().unwrap().clone();
        (seen, verdicts)
    }

    #[test]
    fn shedding_namenode_ends_the_op_overloaded_after_the_attempt_budget() {
        for front in [Front::Closed, Front::Open] {
            let (seen, verdicts) = run(front, Stub::Shed, 1, SimDuration::from_secs(2));
            assert_eq!(seen.len(), MAX_ATTEMPTS as usize, "{front:?}: sends");
            assert!(seen.iter().all(|r| r.req_id == seen[0].req_id), "{front:?}: one request");
            assert!(seen.iter().all(|r| !r.idempotent_retry), "{front:?}: a shed op never ran");
            assert_eq!(
                verdicts,
                vec![Err(FsError::Overloaded { retry_after: SHED_HINT })],
                "{front:?}"
            );
        }
    }

    #[test]
    fn silent_namenode_ends_the_op_unavailable_with_idempotent_resends() {
        for front in [Front::Closed, Front::Open] {
            let (seen, verdicts) = run(front, Stub::Silent, 1, SimDuration::from_secs(40));
            assert_eq!(seen.len(), MAX_ATTEMPTS as usize, "{front:?}: sends");
            assert!(!seen[0].idempotent_retry, "{front:?}: first attempt");
            assert!(seen[1..].iter().all(|r| r.idempotent_retry), "{front:?}: every resend");
            assert_eq!(verdicts, vec![Err(FsError::Unavailable)], "{front:?}");
        }
    }

    #[test]
    fn late_reply_to_a_timed_out_attempt_is_ignored() {
        for front in [Front::Closed, Front::Open] {
            let (seen, verdicts) = run(front, Stub::LateFirst, 2, SimDuration::from_secs(10));
            let op1 = seen.iter().filter(|r| r.req_id == seen[0].req_id).count();
            assert_eq!(op1, 2, "{front:?}: op 1 should time out once and be retried");
            assert_eq!(
                verdicts,
                vec![Err(FsError::NotFound); 2],
                "{front:?}: the late Busy leaked"
            );
        }
    }

    #[test]
    fn retry_timer_superseded_by_a_newer_attempt_is_ignored() {
        for front in [Front::Closed, Front::Open] {
            let (seen, verdicts) = run(front, Stub::DoubleShedFirst, 1, SimDuration::from_secs(2));
            // Two sheds arm two timers; only the newer attempt's resends.
            assert_eq!(seen.len(), 2, "{front:?}: sends");
            assert_eq!(verdicts, vec![Err(FsError::NotFound)], "{front:?}");
        }
    }
}
