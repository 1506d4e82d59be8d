//! LDM transaction state: read-committed reads and scans take no lock and
//! leave nothing behind at the serving LDM, so a coordinator's death finds
//! no orphans from them and the survivors have no take-over work.

use bytes::Bytes;
use ndb::testkit::{add_client, ProgStep, ScriptClient, TxProgram};
use ndb::{
    ClusterConfig, DatanodeActor, LockMode, PartitionKey, ReadSpec, RowKey, Schema, TableOptions,
    WriteOp,
};
use simnet::{AzId, HostId, Location, NodeId, SimDuration, Simulation};
use std::sync::Arc;

const AZS: [AzId; 3] = [AzId(0), AzId(1), AzId(2)];
const KEYS: u64 = 24;

#[test]
fn committed_reads_leave_no_takeover_work_when_their_coordinator_dies() {
    let mut schema = Schema::new();
    let t = schema.add_table("t", TableOptions { read_backup: true, fully_replicated: false });
    let cfg = ClusterConfig::az_aware(6, 3, &AZS);
    let mut sim = Simulation::new(7);
    sim.set_jitter(0.0);
    let cluster = ndb::build_cluster(&mut sim, cfg, schema, &AZS);
    let key = |pk: u64| RowKey::with_suffix(pk, b"k".to_vec());
    let mut host = 1000;
    let mut client = |sim: &mut Simulation, az: u8, programs: Vec<TxProgram>| -> NodeId {
        host += 1;
        let loc = Location { az: AzId(az), host: HostId(host) };
        add_client(sim, Arc::clone(&cluster.view), loc, Some(AzId(az)), programs)
    };
    let run_until_done = |sim: &mut Simulation, clients: &[NodeId]| {
        let limit = sim.now() + SimDuration::from_secs(30);
        while !clients.iter().all(|&c| sim.actor::<ScriptClient>(c).is_done()) {
            assert!(sim.now() < limit, "clients did not finish");
            let next = sim.now() + SimDuration::from_millis(20);
            sim.run_until(next);
        }
    };

    // Load the keys through the protocol.
    let writes = (0..KEYS)
        .map(|pk| {
            let op = WriteOp::Put { table: t, key: key(pk), data: Bytes::from_static(b"v") };
            let mut p = TxProgram::new(
                Some((t, PartitionKey(pk))),
                vec![ProgStep::Write(vec![op]), ProgStep::Commit],
            );
            p.retries = 8;
            p
        })
        .collect();
    let writer = client(&mut sim, 0, writes);
    run_until_done(&mut sim, &[writer]);
    assert!(sim.actor::<ScriptClient>(writer).outcomes.iter().all(|o| o.committed));

    // Hintless readers in every AZ: coordinators spread over the datanodes
    // and most rows are served by another node's LDM.
    let readers: Vec<NodeId> = (0..3u8)
        .map(|az| {
            let programs = (0..KEYS)
                .map(|pk| {
                    let spec = ReadSpec { table: t, key: key(pk), mode: LockMode::ReadCommitted };
                    TxProgram::new(
                        None,
                        vec![
                            ProgStep::Read(vec![spec]),
                            ProgStep::Scan(t, PartitionKey(pk)),
                            ProgStep::Commit,
                        ],
                    )
                })
                .collect();
            client(&mut sim, az, programs)
        })
        .collect();
    run_until_done(&mut sim, &readers);
    for &r in &readers {
        assert!(sim.actor::<ScriptClient>(r).outcomes.iter().all(|o| o.committed));
    }
    let victim = cluster.view.datanode_ids[0];
    assert!(
        sim.actor::<DatanodeActor>(victim).stats.tx_committed > 0,
        "datanode 0 coordinated none of the reads"
    );

    // Kill a coordinator of finished read-only transactions.
    sim.kill_node(victim);
    let end = sim.now() + SimDuration::from_secs(6);
    sim.run_until(end);
    let mut takeovers = 0;
    for &id in &cluster.view.datanode_ids[1..] {
        let dn = sim.actor::<DatanodeActor>(id);
        assert!(!dn.peer_alive(0), "survivors did not notice the death");
        takeovers += dn.stats.takeover_aborts + dn.stats.takeover_commits;
    }
    assert_eq!(takeovers, 0, "finished committed reads were taken over as orphans");
}
