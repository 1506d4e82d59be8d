//! Inter-AZ bandwidth model: cross-AZ messages share a finite link per
//! directed AZ pair and queue behind each other; intra-AZ traffic is
//! unaffected.

use simnet::{Actor, Ctx, Location, NodeId, NodeSpec, Payload, SimTime, Simulation};

#[derive(Debug, Clone)]
struct Blob(u32);

struct Rx {
    arrivals: Vec<(u32, SimTime)>,
}
impl Actor for Rx {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        if let Ok(b) = msg.into_any().downcast::<Blob>() {
            self.arrivals.push((b.0, ctx.now()));
        }
    }
}

struct Tx {
    to: NodeId,
    n: u32,
    bytes: u64,
}
impl Actor for Tx {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.n {
            ctx.send_sized(self.to, self.bytes, Blob(i));
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Box<dyn Payload>) {}
}

fn run(cross_az: bool, bandwidth: Option<u64>, n: u32, bytes: u64) -> Vec<(u32, SimTime)> {
    let mut sim = Simulation::new(1);
    sim.set_jitter(0.0);
    sim.set_inter_az_bandwidth(bandwidth);
    let dst_az = if cross_az { 1 } else { 0 };
    let rx = sim.add_node(NodeSpec::new("rx", Location::new(dst_az, 0)), Box::new(Rx { arrivals: vec![] }));
    sim.add_node(NodeSpec::new("tx", Location::new(0, 1)), Box::new(Tx { to: rx, n, bytes }));
    sim.run_until(SimTime::from_secs(30));
    sim.actor::<Rx>(rx).arrivals.clone()
}

#[test]
fn cross_az_messages_queue_on_the_link() {
    // 10 x 1MB at 1 MB/s: each transfer occupies the link for 1s, so
    // arrivals are spaced ~1s apart.
    let arrivals = run(true, Some(1_000_000), 10, 1_000_000);
    assert_eq!(arrivals.len(), 10);
    for w in arrivals.windows(2) {
        let gap = w[1].1.saturating_since(w[0].1).as_secs_f64();
        assert!((gap - 1.0).abs() < 0.05, "gap {gap}s should be ~1s");
    }
    // Total: last arrival ~10s in.
    assert!(arrivals.last().unwrap().1 >= SimTime::from_secs(9));
}

#[test]
fn intra_az_traffic_is_not_capped() {
    let arrivals = run(false, Some(1_000_000), 10, 1_000_000);
    assert_eq!(arrivals.len(), 10);
    // All arrive within milliseconds (only base latency + NIC serialization).
    assert!(
        arrivals.last().unwrap().1 < SimTime::from_millis(100),
        "intra-AZ messages must ignore the inter-AZ cap: {:?}",
        arrivals.last()
    );
}

#[test]
fn uncapped_cross_az_is_fast() {
    let arrivals = run(true, None, 10, 1_000_000);
    assert!(arrivals.last().unwrap().1 < SimTime::from_millis(100));
}

#[test]
fn small_messages_barely_notice_the_cap() {
    let capped = run(true, Some(380_000_000), 100, 256);
    let free = run(true, None, 100, 256);
    let t_capped = capped.last().unwrap().1;
    let t_free = free.last().unwrap().1;
    let slowdown = t_capped.as_secs_f64() / t_free.as_secs_f64();
    assert!(slowdown < 1.5, "256B control messages should see <50% slowdown: {slowdown}");
}
