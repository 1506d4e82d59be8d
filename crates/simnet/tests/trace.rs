//! Span assembly and metrics-attribution invariants of `simnet::trace`.

use simnet::{
    Actor, Ctx, LaneClassSpec, Location, NodeId, NodeSpec, Payload, SimDuration, SimTime,
    Simulation, SpanId,
};

#[derive(Debug, Clone)]
struct Req;
#[derive(Debug, Clone)]
struct Resp;

/// Executes CPU work per request and replies when the lane finishes.
struct Server;
impl Actor for Server {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        if msg.is::<Req>() {
            let done = ctx.execute("srv", SimDuration::from_micros(500));
            ctx.send_sized_from(done, from, 256, Resp);
        }
    }
}

/// Opens a root span per request and closes it on the response.
struct Client {
    server: NodeId,
    root: SpanId,
    done_at: SimTime,
    responses: u32,
}
impl Actor for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.root = ctx.span_start("op", "op");
        ctx.send_sized(self.server, 256, Req);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        if msg.is::<Resp>() {
            ctx.span_end(self.root);
            self.done_at = ctx.now();
            self.responses += 1;
        }
    }
}

fn request_reply_sim(tracing: bool) -> (Simulation, NodeId) {
    let mut sim = Simulation::new(11);
    sim.set_jitter(0.0);
    if tracing {
        sim.enable_tracing();
    }
    let srv = sim.add_node(
        NodeSpec::new("srv", Location::new(1, 0))
            .with_lanes(vec![LaneClassSpec::new("srv", 1)])
            .with_layer("server"),
        Box::new(Server),
    );
    let cli = sim.add_node(
        NodeSpec::new("cli", Location::new(0, 1)).with_layer("client"),
        Box::new(Client { server: srv, root: SpanId::NONE, done_at: SimTime::ZERO, responses: 0 }),
    );
    sim.run_until(SimTime::from_millis(50));
    (sim, cli)
}

#[test]
fn nested_spans_tile_and_sum_to_parent_duration() {
    let (sim, cli) = request_reply_sim(true);
    assert_eq!(sim.actor::<Client>(cli).responses, 1);
    let spans = sim.spans();
    let root = spans.iter().find(|s| s.cat == "op").expect("root span");
    assert_eq!(root.parent, SpanId::NONE);
    assert_eq!(root.end, sim.actor::<Client>(cli).done_at);
    let children: Vec<_> = spans.iter().filter(|s| s.parent == root.id).collect();
    // request hop, server CPU, response hop — contiguous, so their durations
    // sum exactly to the root op's duration.
    assert_eq!(children.len(), 3, "{children:?}");
    assert_eq!(children.iter().filter(|s| s.cat == "net").count(), 2);
    assert_eq!(children.iter().filter(|s| s.cat == "cpu" && s.name == "srv").count(), 1);
    let sum: SimDuration = children.iter().map(|s| s.duration()).sum();
    assert_eq!(sum, root.duration());
}

#[test]
fn hop_attribution_matches_az_traffic_ledger() {
    let (sim, _) = request_reply_sim(true);
    let m = sim.metrics();
    // Every directed AZ pair the registry knows about must agree byte-for-
    // byte with the simulation's delivery-side az_traffic ledger.
    let mut pairs = 0;
    for (src, dst, transit, bytes) in m.iter_net() {
        assert_eq!(bytes, sim.az_traffic(src, dst), "pair az{}->az{}", src.0, dst.0);
        assert!(transit.count() > 0);
        pairs += 1;
    }
    assert_eq!(pairs, 2, "one request pair and one response pair");
    assert_eq!(m.net_bytes(simnet::AzId(0), simnet::AzId(1)), 256);
    assert_eq!(m.net_bytes(simnet::AzId(1), simnet::AzId(0)), 256);
    // The traced hop spans cover the same bytes (from their args).
    let hops = sim.spans().iter().filter(|s| s.cat == "net").count();
    assert_eq!(hops, 2);
    // CPU attribution landed under the server's layer tag.
    assert_eq!(m.iter_cpu().count(), 1);
    let (layer, lane, cpu) = m.iter_cpu().next().unwrap();
    assert_eq!((layer, lane), ("server", "srv"));
    assert_eq!(cpu.service.count(), 1);
    assert_eq!(cpu.service.max(), SimDuration::from_micros(500).as_nanos());
}

#[test]
fn tracing_does_not_perturb_the_event_schedule() {
    let (plain, cli_a) = request_reply_sim(false);
    let (traced, cli_b) = request_reply_sim(true);
    assert_eq!(plain.events_processed(), traced.events_processed());
    assert_eq!(plain.actor::<Client>(cli_a).done_at, traced.actor::<Client>(cli_b).done_at);
    // Metrics are always on; spans only exist when tracing was enabled.
    assert!(plain.spans().is_empty());
    assert!(!traced.spans().is_empty());
    assert_eq!(plain.metrics().net_bytes(simnet::AzId(0), simnet::AzId(1)), 256);
}

#[test]
fn chrome_trace_export_is_loadable_json() {
    let (sim, _) = request_reply_sim(true);
    let json = sim.chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"name\":\"op\""));
    assert!(json.contains("\"name\":\"hop\""));
    assert!(json.contains("\"cat\":\"cpu\""));
    assert!(json.contains("az1->az0 256B"));
    // Balanced braces — cheap structural sanity without a JSON parser.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
