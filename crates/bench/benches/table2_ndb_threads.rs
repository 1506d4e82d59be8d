//! **Table II**: the NDB CPU/thread configuration (27 threads per datanode),
//! verified against the lanes actually instantiated on a deployed cluster.

#![allow(clippy::field_reassign_with_default, clippy::type_complexity)]

use bench::report::print_table;
use ndb::{ClusterConfig, Schema, ThreadConfig};
use simnet::{AzId, Simulation};

fn main() {
    let cfg = ClusterConfig::az_aware(12, 3, &[AzId(0), AzId(1), AzId(2)]);
    let t = &cfg.threads;
    let paper = [("LDM", 12usize), ("TC", 7), ("RECV", 3), ("SEND", 2), ("REP", 1), ("IO", 1), ("MAIN", 1)];
    let one = ThreadConfig::SINGLE_CLASS_THREADS;
    let ours = [("LDM", t.ldm), ("TC", t.tc), ("RECV", t.recv), ("SEND", t.send), ("REP", one), ("IO", one), ("MAIN", one)];

    // Deploy and read the lanes back off a real datanode.
    let mut sim = Simulation::new(1);
    let cluster = ndb::build_cluster(&mut sim, cfg.clone(), Schema::new(), &[AzId(0), AzId(1), AzId(2)]);
    let dn = cluster.view.datanode_ids[0];
    let lanes = sim.lanes(dn);

    let responsibility = |name: &str| match name {
        "LDM" => "tables' data shards",
        "TC" => "on going transactions on the database nodes",
        "RECV" => "inbound network traffic",
        "SEND" => "outbound network traffic",
        "REP" => "replication across clusters",
        "IO" => "I/O operations",
        "MAIN" => "schema management",
        _ => "",
    };

    let mut rows = Vec::new();
    for ((name, want), (_, got)) in paper.iter().zip(ours.iter()) {
        let instantiated = lanes.threads(name);
        rows.push(vec![
            name.to_string(),
            want.to_string(),
            got.to_string(),
            instantiated.to_string(),
            responsibility(name).to_string(),
        ]);
        assert_eq!(want, got, "{name} thread count differs from Table II");
        assert_eq!(*want, instantiated, "{name} lanes on the deployed datanode differ");
    }
    print_table(
        "Table II — NDB CPU configuration (27 CPUs)",
        &["type", "paper", "config", "deployed lanes", "responsibility"],
        &rows,
    );
    assert_eq!(cfg.threads.total(), 27);
    assert_eq!(lanes.total_threads(), 27);
    println!("\n27/27 threads per datanode, matching Table II");
}
