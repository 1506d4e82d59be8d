//! **Table I**: measured RTTs between VMs in different AZs of `us-west1`.
//!
//! Deploys one prober VM per AZ pair and ping-pongs between them, printing
//! the measured matrix next to the paper's.

#![allow(clippy::field_reassign_with_default, clippy::type_complexity)]

use bench::report::print_table;
use simnet::{Actor, Ctx, Location, NodeId, Payload, SimDuration, SimTime, Simulation};

#[derive(Debug, Clone)]
struct Ping {
    seq: u32,
}
#[derive(Debug, Clone)]
struct Pong {
    seq: u32,
}
#[derive(Debug, Clone)]
struct Kick;

/// Sends N pings to a target and records the mean RTT.
struct Prober {
    target: NodeId,
    sent_at: SimTime,
    seq: u32,
    remaining: u32,
    total: SimDuration,
    samples: u32,
}

impl Actor for Prober {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_millis(1), Kick);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<Kick>() {
            Ok(_) => {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    self.seq += 1;
                    self.sent_at = ctx.now();
                    ctx.send_sized(self.target, 64, Ping { seq: self.seq });
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(p) = any.downcast::<Pong>() {
            if p.seq == self.seq {
                self.total += ctx.now().saturating_since(self.sent_at);
                self.samples += 1;
                ctx.schedule(SimDuration::from_millis(2), Kick);
            }
        }
    }
}

/// An actor that only answers pings.
struct Responder;
impl Actor for Responder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        if let Ok(p) = msg.into_any().downcast::<Ping>() {
            ctx.send_sized(from, 64, Pong { seq: p.seq });
        }
    }
}

fn main() {
    const N: u32 = 200;
    let paper = [[0.247, 0.360, 0.372], [0.360, 0.251, 0.399], [0.372, 0.399, 0.249]];
    let az_name = |i: usize| format!("us-west1-{}", (b'a' + i as u8) as char);
    let mut measured = [[0.0f64; 3]; 3];
    for a in 0..3u8 {
        for b in 0..3u8 {
            let mut sim = Simulation::new(7 + u64::from(a) * 3 + u64::from(b));
            let responder = sim.add_node(
                simnet::NodeSpec::new("vm-b", Location::new(b, 1)),
                Box::new(Responder),
            );
            let prober = sim.add_node(
                simnet::NodeSpec::new("vm-a", Location::new(a, 2)),
                Box::new(Prober {
                    target: responder,
                    sent_at: SimTime::ZERO,
                    seq: 0,
                    remaining: N,
                    total: SimDuration::ZERO,
                    samples: 0,
                }),
            );
            sim.run_until(SimTime::from_secs(5));
            let p = sim.actor::<Prober>(prober);
            assert_eq!(p.samples, N, "lost pings between az{a} and az{b}");
            measured[a as usize][b as usize] = (p.total / u64::from(p.samples)).as_millis_f64();
        }
    }

    let rows: Vec<Vec<String>> = (0..3)
        .map(|a| {
            let mut row = vec![az_name(a)];
            for b in 0..3 {
                row.push(format!("{:.3} ({:.3})", measured[a][b], paper[a][b]));
            }
            row
        })
        .collect();
    print_table(
        "Table I — inter-AZ RTT, ms: measured (paper)",
        &["", &az_name(0), &az_name(1), &az_name(2)],
        &rows,
    );
    // The model embeds Table I, so measured means must track the paper
    // within jitter (the matrix uses pure network RTT; probers share no host).
    for a in 0..3 {
        for b in 0..3 {
            let err = (measured[a][b] - paper[a][b]).abs() / paper[a][b];
            assert!(err < 0.06, "az{a}->az{b}: {:.3} vs {:.3}", measured[a][b], paper[a][b]);
        }
    }
    println!("\nall pairs within 6% of the paper's measurements");
}
