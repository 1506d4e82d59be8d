//! Kernel-only reference: a fixed message storm between bench-owned no-op
//! actors. Each delivery charges a tiny CPU cost on a lane and forwards the
//! token to a random peer, so the storm exercises exactly the kernel paths
//! every real actor pays for (event queue, payload boxing, network model,
//! CPU lanes, per-layer metrics) and nothing of the file system above them.
//!
//! The storm is the same in every run (fixed seed, fixed size), so its host
//! ns per event moves only when the kernel or the host changes speed. It is
//! timed like every other run (`crate::hostclock`).

use rand::Rng;
use simnet::{Actor, AzId, Ctx, HostId, LaneClassSpec, Location, NodeId, NodeSpec, Payload};
use simnet::{SimDuration, SimTime, Simulation};
use std::any::Any;

const SEED: u64 = 0x5eed_5707;
const NODES: u32 = 48;
const TOKENS_PER_NODE: u32 = 32;
const LANE: &str = "relay";
/// Simulated span of the storm; about 2.3 million events.
const SPAN: SimDuration = SimDuration::from_millis(250);

#[derive(Debug, Clone)]
struct Token;

struct Relay;

impl Relay {
    fn forward(ctx: &mut Ctx<'_>) {
        let to = NodeId(ctx.rng().gen_range(0..NODES));
        let done = ctx.execute(LANE, SimDuration::from_micros(2));
        ctx.send_sized_from(done, to, 64, Token);
    }
}

impl Actor for Relay {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..TOKENS_PER_NODE {
            Self::forward(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _msg: Box<dyn Payload>) {
        Self::forward(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Host ns per event of the storm (lower-quartile slice cost) and its
/// event count.
pub fn ns_per_event() -> (f64, u64) {
    let mut sim = Simulation::new(SEED);
    for i in 0..NODES {
        let loc = Location {
            az: AzId((i % 3) as u8),
            host: HostId(i),
        };
        let spec = NodeSpec::new(format!("relay-{i}"), loc)
            .with_lanes(vec![LaneClassSpec::new(LANE, 2)])
            .with_layer("relay");
        sim.add_node(spec, Box::new(Relay));
    }
    let cost = crate::hostclock::HostCost::run(&mut sim, SimTime::ZERO + SPAN);
    (cost.ns_per_event(), sim.events_processed())
}
