//! Cloud object-store block backend — the paper's §VII future work:
//! *"we will integrate HopsFS-CL with native cloud storage as a block layer
//! to make storage and inter-AZ networking costs competitive with native
//! cloud object stores."*
//!
//! The store is modeled after S3-class regional object storage:
//!
//! - one **front-end per AZ**; tenants talk to the AZ-local endpoint, so
//!   their block traffic never crosses AZs on *their* bill (regional object
//!   storage replicates across AZs inside the provider);
//! - **request-rate limits** per front-end (the paper notes these stores are
//!   "API-request rate-limited" — §VI), modeled as a pacing interval with
//!   queueing;
//! - first-byte **latency** far above a datanode hop (~15 ms), plus a
//!   bandwidth term;
//! - per-request **fees** (PUT/GET), tracked for the cost comparison bench.
//!
//! Enable with [`crate::config::BlockBackend::CloudStore`]: large-file
//! blocks become objects instead of 3×-replicated datanode blocks; replica
//! rows carry the [`CLOUD_LOCATION`] sentinel, and datanode re-replication
//! is the provider's problem.

use simnet::{Actor, Ctx, FxHashMap, NodeId, Payload, SimDuration, SimTime};
use std::sync::Mutex;
use std::sync::Arc;

/// Replica-location sentinel meaning "the block lives in the object store".
pub const CLOUD_LOCATION: u32 = u32::MAX;

/// Tenant → store: persist a block object.
#[derive(Debug, Clone, Copy)]
pub struct PutObject {
    /// Object key (block id).
    pub key: u64,
    /// Payload size.
    pub bytes: u64,
}

/// Store → tenant: object durable (across AZs, inside the provider).
#[derive(Debug, Clone, Copy)]
pub struct PutObjectAck {
    /// Object key.
    pub key: u64,
}

/// Tenant → store: fetch a block object.
#[derive(Debug, Clone, Copy)]
pub struct GetObject {
    /// Object key.
    pub key: u64,
}

/// Store → tenant: object payload (or absence).
#[derive(Debug, Clone, Copy)]
pub struct GetObjectResp {
    /// Object key.
    pub key: u64,
    /// Payload size; `None` if the key does not exist.
    pub bytes: Option<u64>,
}

/// Tenant → store: delete an object (idempotent, free of charge, as on S3).
#[derive(Debug, Clone, Copy)]
pub struct DeleteObject {
    /// Object key.
    pub key: u64,
}

/// Regional object contents + request accounting, shared by the per-AZ
/// front-ends (provider-internal replication is not tenant traffic).
#[derive(Debug, Default)]
pub struct CloudStoreState {
    objects: FxHashMap<u64, u64>,
    /// PUT requests served (for the fee model).
    pub put_requests: u64,
    /// GET requests served.
    pub get_requests: u64,
    /// DELETE requests served.
    pub delete_requests: u64,
    /// Total object bytes ingested.
    pub bytes_in: u64,
}

impl CloudStoreState {
    /// New shared handle.
    pub fn shared() -> Arc<Mutex<CloudStoreState>> {
        Arc::new(Mutex::new(CloudStoreState::default()))
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Size of one object, if present.
    pub fn object_size(&self, key: u64) -> Option<u64> {
        self.objects.get(&key).copied()
    }

    /// Estimated request fees in USD (S3-like: $5/million PUT,
    /// $0.40/million GET).
    pub fn request_fees_usd(&self) -> f64 {
        self.put_requests as f64 * 5.0 / 1e6 + self.get_requests as f64 * 0.4 / 1e6
    }
}

/// One AZ-local front-end of the regional object store.
pub struct CloudStoreActor {
    state: Arc<Mutex<CloudStoreState>>,
    /// First-byte service latency.
    pub service_latency: SimDuration,
    /// Per-front-end ingest/egress bandwidth (bytes/s).
    pub bandwidth: u64,
    /// Minimum spacing between requests (the API rate limit; e.g. 3500
    /// mutating requests/s on an S3 prefix ⇒ ~286 µs).
    pub request_interval: SimDuration,
    next_slot: SimTime,
}

impl CloudStoreActor {
    /// Creates a front-end over the shared regional state.
    pub fn new(state: Arc<Mutex<CloudStoreState>>) -> Self {
        CloudStoreActor {
            state,
            service_latency: SimDuration::from_millis(15),
            bandwidth: 500_000_000, // 500 MB/s per front-end stream budget
            request_interval: SimDuration::from_micros(286),
            next_slot: SimTime::ZERO,
        }
    }

    /// Admission + service time for one request of `bytes` (rate limiting by
    /// pacing: requests beyond the limit queue).
    fn service(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.next_slot.max(now);
        self.next_slot = start + self.request_interval;
        let xfer = SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / self.bandwidth.max(1));
        start + self.service_latency + xfer
    }
}

impl Actor for CloudStoreActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let now = ctx.now();
        let any = msg.into_any();
        let any = match any.downcast::<PutObject>() {
            Ok(m) => {
                let done = self.service(now, m.bytes);
                let mut st = self.state.lock().unwrap();
                st.objects.insert(m.key, m.bytes);
                st.put_requests += 1;
                st.bytes_in += m.bytes;
                drop(st);
                ctx.send_sized_from(done, from, 64, PutObjectAck { key: m.key });
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<GetObject>() {
            Ok(m) => {
                let bytes = self.state.lock().unwrap().object_size(m.key);
                let done = self.service(now, bytes.unwrap_or(0));
                self.state.lock().unwrap().get_requests += 1;
                ctx.send_sized_from(done, from, bytes.unwrap_or(0).max(64), GetObjectResp {
                    key: m.key,
                    bytes,
                });
                return;
            }
            Err(m) => m,
        };
        match any.downcast::<DeleteObject>() {
            Ok(m) => {
                let mut st = self.state.lock().unwrap();
                st.objects.remove(&m.key);
                st.delete_requests += 1;
            }
            Err(m) => debug_assert!(false, "cloud store got unknown message {m:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Location, NodeSpec, Simulation};

    #[derive(Debug, Clone)]
    struct Go;

    struct Tenant {
        store: NodeId,
        pub acks: u32,
        pub got: Option<Option<u64>>,
        pub last_at: SimTime,
        puts: u32,
    }
    impl Actor for Tenant {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(SimDuration::from_millis(1), Go);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
            let any = msg.into_any();
            let any = match any.downcast::<Go>() {
                Ok(_) => {
                    for i in 0..self.puts {
                        ctx.send_sized(self.store, 1_000_000, PutObject { key: u64::from(i), bytes: 1_000_000 });
                    }
                    return;
                }
                Err(m) => m,
            };
            let any = match any.downcast::<PutObjectAck>() {
                Ok(_) => {
                    self.acks += 1;
                    self.last_at = ctx.now();
                    if self.acks == self.puts {
                        ctx.send_sized(self.store, 64, GetObject { key: 0 });
                        ctx.send_sized(self.store, 64, GetObject { key: 999_999 });
                    }
                    return;
                }
                Err(m) => m,
            };
            if let Ok(r) = any.downcast::<GetObjectResp>() {
                if r.key == 0 {
                    self.got = Some(r.bytes);
                }
                self.last_at = ctx.now();
            }
        }
    }

    fn run(puts: u32) -> (Simulation, NodeId, Arc<Mutex<CloudStoreState>>) {
        let mut sim = Simulation::new(3);
        sim.set_jitter(0.0);
        let state = CloudStoreState::shared();
        let store = sim.add_node(
            NodeSpec::new("s3-az0", Location::new(0, 0)),
            Box::new(CloudStoreActor::new(Arc::clone(&state))),
        );
        let tenant = sim.add_node(
            NodeSpec::new("tenant", Location::new(0, 1)),
            Box::new(Tenant { store, acks: 0, got: None, last_at: SimTime::ZERO, puts }),
        );
        sim.run_until(SimTime::from_secs(30));
        (sim, tenant, state)
    }

    #[test]
    fn put_get_round_trip_with_fees() {
        let (sim, tenant, state) = run(3);
        let t = sim.actor::<Tenant>(tenant);
        assert_eq!(t.acks, 3);
        assert_eq!(t.got, Some(Some(1_000_000)), "stored object readable");
        let st = state.lock().unwrap();
        assert_eq!(st.object_count(), 3);
        assert_eq!(st.put_requests, 3);
        assert_eq!(st.get_requests, 2);
        assert!(st.request_fees_usd() > 0.0);
    }

    #[test]
    fn put_latency_includes_service_floor() {
        let (sim, tenant, _) = run(1);
        let t = sim.actor::<Tenant>(tenant);
        // Sent at 1ms; 15ms service + 2ms transfer at 500MB/s + network.
        assert!(t.last_at >= SimTime::from_millis(16), "cloud latency too low: {}", t.last_at);
    }

    #[test]
    fn rate_limit_paces_bursts() {
        // 2000 puts at a 286us interval take >= ~0.57s even though they all
        // arrive at once.
        let (sim, tenant, _) = run(2000);
        let t = sim.actor::<Tenant>(tenant);
        assert_eq!(t.acks, 2000);
        assert!(
            t.last_at >= SimTime::from_millis(550),
            "rate limit not enforced: finished at {}",
            t.last_at
        );
    }

    #[test]
    fn missing_objects_read_as_none() {
        let (sim, tenant, state) = run(1);
        let _ = sim.actor::<Tenant>(tenant);
        assert_eq!(state.lock().unwrap().object_size(424242), None);
    }
}
