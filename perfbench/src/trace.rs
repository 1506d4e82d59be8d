//! Traced-run attribution: splits the simulated time of each op that
//! started and finished inside the window by layer, from the spans the
//! kernel and the protocol layers record (`Simulation::spans`), with each
//! span's node mapped to its deployment layer (`Simulation::node_layer`).
//!
//! Buckets per op class: `net_intra` and `net_cross_az` (network hops, by
//! the AZ pair in the hop's detail), `namenode_cpu` and `ndb_cpu` (CPU lane
//! service on those layers), `ndb_lock_wait`, `retry` (client and namenode
//! backoff) and `admission` (sheds and deferrals). `uncovered` is the part
//! of the op's root span that no descendant span covers: CPU lane queueing,
//! disk and the client itself. Overlapping children (parallel fan-out) each
//! count in full in their bucket, so buckets may sum past the op's latency.

use crate::measure::is_read;
use hopsfs::OpKind;
use simnet::{NodeId, SimTime, Simulation, Span};

const BUCKETS: [&str; 7] = [
    "net_intra",
    "net_cross_az",
    "namenode_cpu",
    "ndb_cpu",
    "ndb_lock_wait",
    "retry",
    "admission",
];

fn bucket(sim: &Simulation, s: &Span) -> Option<usize> {
    let layer = sim.node_layer(NodeId(s.node));
    match (s.cat, layer) {
        ("net", _) => {
            // Hop detail reads "az{src}->az{dst} {bytes}B".
            let hop = s
                .arg
                .as_deref()
                .and_then(|a| a.split(' ').next())
                .unwrap_or("");
            let mut azs = hop.split("->");
            Some(if azs.next() == azs.next() { 0 } else { 1 })
        }
        ("cpu", "namenode") => Some(2),
        ("cpu", "ndb") => Some(3),
        ("lock", "ndb") => Some(4),
        ("retry", _) => Some(5),
        ("admission", _) => Some(6),
        _ => None,
    }
}

/// Mean simulated µs per op in each bucket, per class, as named metrics.
pub fn attribute(sim: &Simulation, window_start: SimTime) -> Vec<(String, f64, &'static str)> {
    let spans = sim.spans();
    // Root (index) of every span; spans are created after their parents.
    let mut root = vec![usize::MAX; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = if s.parent.is_some() {
            let p = s.parent.0 as usize - 1;
            assert!(
                p < i,
                "span {} recorded before its parent {}",
                s.id.0,
                s.parent.0
            );
            root[p]
        } else {
            i
        };
    }
    // Class of each measured root: 0 = read, 1 = write.
    let class_of = |s: &Span| -> Option<usize> {
        if s.cat != "op" || s.start < window_start || s.end <= s.start {
            return None;
        }
        let kind = OpKind::ALL.into_iter().find(|k| k.name() == s.name)?;
        Some(if is_read(kind) { 0 } else { 1 })
    };
    let class: Vec<Option<usize>> = spans.iter().map(class_of).collect();

    let mut ops = [0u64; 2];
    let mut root_ns = [0u64; 2];
    let mut buckets = [[0u64; 7]; 2];
    let mut children: Vec<(usize, u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let r = root[i];
        let Some(c) = class[r] else { continue };
        if r == i {
            ops[c] += 1;
            root_ns[c] += s.duration().as_nanos();
            continue;
        }
        if let Some(b) = bucket(sim, s) {
            buckets[c][b] += s.duration().as_nanos();
        }
        // Clip to the root's interval for the coverage sweep.
        let (rs, re) = (spans[r].start.as_nanos(), spans[r].end.as_nanos());
        let (a, z) = (s.start.as_nanos().max(rs), s.end.as_nanos().min(re));
        if z > a {
            children.push((r, a, z));
        }
    }
    children.sort_unstable();
    let mut covered = [0u64; 2];
    let mut k = 0;
    while k < children.len() {
        let r = children[k].0;
        let (mut cur_a, mut cur_z) = (children[k].1, children[k].2);
        let mut total = 0;
        while k < children.len() && children[k].0 == r {
            let (_, a, z) = children[k];
            if a > cur_z {
                total += cur_z - cur_a;
                (cur_a, cur_z) = (a, z);
            } else {
                cur_z = cur_z.max(z);
            }
            k += 1;
        }
        total += cur_z - cur_a;
        covered[class[r].expect("children belong to classified roots")] += total;
    }

    let mut out = Vec::new();
    for (c, name) in ["read", "write"].into_iter().enumerate() {
        let n = ops[c].max(1) as f64;
        for (b, bucket) in BUCKETS.iter().enumerate() {
            out.push((
                format!("trace.{name}.{bucket}"),
                buckets[c][b] as f64 / n / 1e3,
                "us/op",
            ));
        }
        let uncovered = root_ns[c].saturating_sub(covered[c]);
        out.push((
            format!("trace.{name}.uncovered"),
            uncovered as f64 / n / 1e3,
            "us/op",
        ));
    }
    out
}
