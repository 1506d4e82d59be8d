//! Correctness checks of a checked deployment, run after its window closes:
//! drain every session, replay the acked-mutation audit, and scan the
//! cluster invariants.

use crate::deploy::Deployment;
use hopsfs::{audit_ops, check_invariants, epoch_routing, fragment_divergence, shed_audit};
use hopsfs::{FsClientActor, FsOp, OpenLoopClientActor, ScriptedSource};
use simnet::{AzId, NodeId, SimDuration, Simulation};
use std::collections::HashSet;
use std::sync::Arc;

/// Simulated time a drain may take before the sessions count as stuck.
const DRAIN_DEADLINE: SimDuration = SimDuration::from_secs(60);
const STEP: SimDuration = SimDuration::from_millis(250);
/// Audit replays are spread over this many client sessions.
const AUDITORS: usize = 48;

fn run_until_true(sim: &mut Simulation, mut done: impl FnMut(&Simulation) -> bool) -> bool {
    let deadline = sim.now() + DRAIN_DEADLINE;
    while !done(sim) {
        if sim.now() >= deadline {
            return false;
        }
        sim.run_for(STEP);
    }
    true
}

fn sessions_idle(sim: &Simulation, clients: &[NodeId], open_loop: bool) -> bool {
    clients.iter().all(|&id| {
        if open_loop {
            let c = sim.actor::<OpenLoopClientActor>(id);
            c.done && c.idle()
        } else {
            let c = sim.actor::<FsClientActor>(id);
            c.done && c.idle()
        }
    })
}

/// Whether `path` or one of its ancestors is in `removed`.
fn removed_by(path: &str, removed: &HashSet<String>) -> bool {
    removed.contains(path)
        || path
            .match_indices('/')
            .skip(1)
            .any(|(i, _)| removed.contains(&path[..i]))
}

/// Runs every check; returns the failures (empty = correct) and the number
/// of acked mutations audited.
pub fn verify(d: &mut Deployment) -> (Vec<String>, usize) {
    let mut problems = Vec::new();
    d.gen.stop();
    let (clients, open_loop) = (d.clients.clone(), d.open_loop);
    if !run_until_true(&mut d.sim, |sim| sessions_idle(sim, &clients, open_loop)) {
        problems.push("sessions still busy after the drain deadline".to_string());
    }
    // Let stale responses and namenode background work settle.
    d.sim.run_for(SimDuration::from_secs(2));

    // Every acked create/mkdir must still be readable, unless an acked
    // rename or delete of it (or of an ancestor) took it away.
    let removed: HashSet<String> = d.gen.removed().into_iter().collect();
    let audit: Vec<FsOp> = audit_ops(&d.log.lock().expect("chaos log lock"))
        .into_iter()
        .filter(|op| !removed_by(&op.path().to_string(), &removed))
        .collect();
    let audited = audit.len();
    let mut scripts: Vec<Vec<FsOp>> = vec![Vec::new(); AUDITORS];
    for (i, op) in audit.into_iter().enumerate() {
        scripts[i % AUDITORS].push(op);
    }
    let mut auditors = Vec::new();
    for (i, script) in scripts.into_iter().enumerate() {
        let n = script.len();
        let az = AzId((i % 3) as u8);
        let id = d.cluster.add_client(
            &mut d.sim,
            az,
            Box::new(ScriptedSource::new(script)),
            Arc::clone(&d.stats),
        );
        d.sim.actor_mut::<FsClientActor>(id).keep_results = true;
        auditors.push((id, n));
    }
    let replayed = run_until_true(&mut d.sim, |sim| {
        auditors
            .iter()
            .all(|&(id, n)| sim.actor::<FsClientActor>(id).results.len() >= n)
    });
    if !replayed {
        problems.push("audit replay did not finish".to_string());
    }
    let lost: usize = auditors
        .iter()
        .map(|&(id, _)| {
            d.sim
                .actor::<FsClientActor>(id)
                .results
                .iter()
                .filter(|r| r.is_err())
                .count()
        })
        .sum();
    if lost > 0 {
        problems.push(format!(
            "{lost} of {audited} acked mutations are not readable"
        ));
    }

    let view = Arc::clone(&d.cluster.view);
    let mut quiet: Vec<NodeId> = auditors.iter().map(|&(id, _)| id).collect();
    if !open_loop {
        quiet.extend(&clients);
    }
    let report = check_invariants(&d.sim, &view, &quiet);
    if !report.clean() {
        problems.push(format!("invariants violated: {report:?}"));
    }
    let diverged = fragment_divergence(&d.sim, &view);
    if !diverged.is_empty() {
        problems.push(format!(
            "{} NDB fragments diverge across replicas",
            diverged.len()
        ));
    }
    let stale = epoch_routing(&d.sim, &view);
    if stale != 0 {
        problems.push(format!(
            "{stale} writes applied under a superseded partition epoch"
        ));
    }
    if open_loop {
        let audit = shed_audit(&d.sim, &view, &d.stats.lock().expect("client stats lock"));
        if !audit.clean() {
            problems.push(format!("shed accounting does not balance: {audit:?}"));
        }
    }
    (problems, audited)
}
