//! The nemesis: a declarative, seeded fault-schedule engine.
//!
//! A [`Schedule`] is a list of `(time, Fault)` pairs built with a fluent API
//! (plus helpers like [`Schedule::flap`] that expand into crash/restart
//! trains, and [`Schedule::random`] that derives a well-formed schedule from
//! a seed). Installing a schedule arms one control event per entry; each
//! entry applies its [`Fault`] through the corresponding [`Simulation`]
//! method and appends a line to a shared [`NemesisTrace`].
//!
//! Everything is deterministic: the same simulation seed plus the same
//! schedule yields the identical event trace, which is what makes chaos
//! failures reproducible instead of anecdotal (`tests/chaos.rs` asserts
//! trace equality across two runs).

use crate::sim::{LinkFault, NodeId, Simulation};
use crate::time::{SimDuration, SimTime};
use crate::topology::AzId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One injectable fault. Every variant maps onto a [`Simulation`] method;
/// see those methods for precise semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Crash a node ([`Simulation::kill_node`]): epoch bump, connections die.
    Crash(NodeId),
    /// Revive a crashed node through its recovery hook
    /// ([`Simulation::revive_node`]).
    Restart(NodeId),
    /// Crash every node in an AZ ([`Simulation::kill_az`]).
    KillAz(AzId),
    /// Whole-AZ outage: crash every node in the zone with a short
    /// seed-deterministic stagger per node (real zone failures are not
    /// instantaneous — racks and hosts drop over tens of milliseconds).
    AzOutage(AzId),
    /// Restore a zone after an [`Fault::AzOutage`]: revive every dead node
    /// in it through its recovery hook ([`Simulation::revive_node`]), again
    /// with seed-deterministic per-node stagger.
    AzRestore(AzId),
    /// Symmetric AZ partition ([`Simulation::partition_azs`]).
    PartitionAzs(AzId, AzId),
    /// Heal a symmetric AZ partition.
    HealAzs(AzId, AzId),
    /// Asymmetric AZ partition: first AZ cannot reach the second
    /// ([`Simulation::partition_az_oneway`]).
    PartitionAzOneway(AzId, AzId),
    /// Heal an asymmetric AZ partition.
    HealAzOneway(AzId, AzId),
    /// Symmetric node-pair partition ([`Simulation::partition_nodes`]).
    PartitionNodes(NodeId, NodeId),
    /// Heal a node-pair partition.
    HealNodes(NodeId, NodeId),
    /// Cut one node off from everyone ([`Simulation::isolate_node`]).
    Isolate(NodeId),
    /// Reconnect an isolated node.
    Unisolate(NodeId),
    /// Gray failure: multiply the node's CPU costs by the factor
    /// ([`Simulation::set_node_slowdown`]).
    GraySlow(NodeId, f64),
    /// End a gray failure (slowdown back to 1.0).
    GrayHeal(NodeId),
    /// Install a probabilistic drop/duplicate/delay fault
    /// ([`Simulation::add_link_fault`]).
    Link(LinkFault),
    /// Remove all installed link faults.
    ClearLinks,
    /// Stall a node's disk for the duration ([`Simulation::stall_disk`]).
    DiskStall(NodeId, SimDuration),
}

impl Fault {
    fn apply(&self, sim: &mut Simulation) {
        match *self {
            Fault::Crash(n) => sim.kill_node(n),
            Fault::Restart(n) => sim.revive_node(n),
            Fault::KillAz(az) => sim.kill_az(az),
            Fault::AzOutage(az) => {
                // Stagger draws come from the sim's own RNG, so the spread is
                // seed-deterministic and replays bit-identically. Nodes are
                // enumerated in id order; each alive node crashes within the
                // next 40ms. A node may have died between scheduling and
                // firing (e.g. arbitration shutdown) — the deferred kill
                // re-checks liveness so it never double-bumps an epoch.
                for node in sim.nodes_in_az(az) {
                    if !sim.is_alive(node) {
                        continue;
                    }
                    let stagger = SimDuration::from_micros(sim.rng().gen_range(0..40_000));
                    let t = sim.now() + stagger;
                    sim.at(t, move |s| {
                        if s.is_alive(node) {
                            s.kill_node(node);
                        }
                    });
                }
            }
            Fault::AzRestore(az) => {
                for node in sim.nodes_in_az(az) {
                    if sim.is_alive(node) {
                        continue;
                    }
                    let stagger = SimDuration::from_micros(sim.rng().gen_range(0..40_000));
                    let t = sim.now() + stagger;
                    sim.at(t, move |s| {
                        if !s.is_alive(node) {
                            s.revive_node(node);
                        }
                    });
                }
            }
            Fault::PartitionAzs(a, b) => sim.partition_azs(a, b),
            Fault::HealAzs(a, b) => sim.heal_azs(a, b),
            Fault::PartitionAzOneway(a, b) => sim.partition_az_oneway(a, b),
            Fault::HealAzOneway(a, b) => sim.heal_az_oneway(a, b),
            Fault::PartitionNodes(a, b) => sim.partition_nodes(a, b),
            Fault::HealNodes(a, b) => sim.heal_nodes(a, b),
            Fault::Isolate(n) => sim.isolate_node(n),
            Fault::Unisolate(n) => sim.heal_isolation(n),
            Fault::GraySlow(n, f) => sim.set_node_slowdown(n, f),
            Fault::GrayHeal(n) => sim.set_node_slowdown(n, 1.0),
            Fault::Link(f) => sim.add_link_fault(f),
            Fault::ClearLinks => sim.clear_link_faults(),
            Fault::DiskStall(n, d) => sim.stall_disk(n, d),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Crash(n) => write!(f, "crash {n}"),
            Fault::Restart(n) => write!(f, "restart {n}"),
            Fault::KillAz(az) => write!(f, "kill-az az{}", az.0),
            Fault::AzOutage(az) => write!(f, "az-outage az{}", az.0),
            Fault::AzRestore(az) => write!(f, "az-restore az{}", az.0),
            Fault::PartitionAzs(a, b) => write!(f, "partition az{} <-> az{}", a.0, b.0),
            Fault::HealAzs(a, b) => write!(f, "heal az{} <-> az{}", a.0, b.0),
            Fault::PartitionAzOneway(a, b) => write!(f, "partition az{} -> az{}", a.0, b.0),
            Fault::HealAzOneway(a, b) => write!(f, "heal az{} -> az{}", a.0, b.0),
            Fault::PartitionNodes(a, b) => write!(f, "partition {a} <-> {b}"),
            Fault::HealNodes(a, b) => write!(f, "heal {a} <-> {b}"),
            Fault::Isolate(n) => write!(f, "isolate {n}"),
            Fault::Unisolate(n) => write!(f, "unisolate {n}"),
            Fault::GraySlow(n, x) => write!(f, "gray-slow {n} x{x}"),
            Fault::GrayHeal(n) => write!(f, "gray-heal {n}"),
            Fault::Link(lf) => write!(
                f,
                "link-fault {:?} drop={} dup={} delay<={}",
                lf.scope, lf.drop_p, lf.dup_p, lf.extra_delay
            ),
            Fault::ClearLinks => write!(f, "clear-link-faults"),
            Fault::DiskStall(n, d) => write!(f, "disk-stall {n} for {d}"),
        }
    }
}

/// Shared, append-only record of the faults a schedule actually applied, in
/// application order with their injection times. Clone it before
/// [`Schedule::install`] consumes the schedule; compare [`NemesisTrace::lines`]
/// across runs to prove replayability.
#[derive(Debug, Clone, Default)]
pub struct NemesisTrace {
    lines: Rc<RefCell<Vec<String>>>,
}

impl NemesisTrace {
    /// The formatted `"t=<time> <fault>"` lines applied so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.borrow().clone()
    }

    /// Number of faults applied so far.
    pub fn len(&self) -> usize {
        self.lines.borrow().len()
    }

    /// Whether no fault has been applied yet.
    pub fn is_empty(&self) -> bool {
        self.lines.borrow().is_empty()
    }
}

/// A timed fault schedule. Build with [`Schedule::at`] / [`Schedule::flap`]
/// (or derive one from a seed with [`Schedule::random`]), then arm it with
/// [`Schedule::install`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    entries: Vec<(SimTime, Fault)>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Adds a fault at an absolute time.
    pub fn at(mut self, t: SimTime, fault: Fault) -> Self {
        self.entries.push((t, fault));
        self
    }

    /// Adds a crash/restart train: starting at `first`, the node crashes,
    /// revives after `downtime`, and repeats every `period` for `cycles`
    /// rounds — a flapping process.
    ///
    /// # Panics
    ///
    /// Panics unless `downtime < period`.
    pub fn flap(
        mut self,
        node: NodeId,
        first: SimTime,
        downtime: SimDuration,
        period: SimDuration,
        cycles: u32,
    ) -> Self {
        assert!(downtime < period, "flap downtime must be shorter than its period");
        for c in 0..u64::from(cycles) {
            let down = first + period * c;
            self.entries.push((down, Fault::Crash(node)));
            self.entries.push((down + downtime, Fault::Restart(node)));
        }
        self
    }

    /// AZ-granular [`Schedule::flap`]: starting at `first`, the whole zone
    /// goes down ([`Fault::AzOutage`]), is restored after `downtime`
    /// ([`Fault::AzRestore`]), and repeats every `period` for `cycles`
    /// rounds — a flapping availability zone.
    ///
    /// # Panics
    ///
    /// Panics unless `downtime < period`.
    pub fn flap_az(
        mut self,
        az: AzId,
        first: SimTime,
        downtime: SimDuration,
        period: SimDuration,
        cycles: u32,
    ) -> Self {
        assert!(downtime < period, "flap downtime must be shorter than its period");
        for c in 0..u64::from(cycles) {
            let down = first + period * c;
            self.entries.push((down, Fault::AzOutage(az)));
            self.entries.push((down + downtime, Fault::AzRestore(az)));
        }
        self
    }

    /// Derives a well-formed random schedule from a seed: `episodes` faults
    /// drawn over `nodes`, each with a bounded duration inside
    /// `[start, end)`, and every one paired with its heal/restart so the
    /// cluster is nominally whole again by `end`. Crash targets come from
    /// `restartable` (nodes whose actors implement recovery).
    pub fn random(
        seed: u64,
        restartable: &[NodeId],
        azs: &[AzId],
        start: SimTime,
        end: SimTime,
        episodes: usize,
    ) -> Self {
        assert!(end > start, "empty fault window");
        let mut rng = StdRng::seed_from_u64(seed);
        let window = end.saturating_since(start).as_nanos();
        let mut s = Schedule::new();
        for _ in 0..episodes {
            let at = start + SimDuration::from_nanos(rng.gen_range(0..window.max(1)));
            let span = SimDuration::from_nanos(rng.gen_range(window / 16..window / 4 + 1));
            let until = (at + span).min(end);
            let kind = rng.gen_range(0..5u32);
            match kind {
                0 if !restartable.is_empty() => {
                    let n = restartable[rng.gen_range(0..restartable.len())];
                    s = s.at(at, Fault::Crash(n)).at(until, Fault::Restart(n));
                }
                1 if azs.len() >= 2 => {
                    let a = azs[rng.gen_range(0..azs.len())];
                    let mut b = azs[rng.gen_range(0..azs.len())];
                    while b == a {
                        b = azs[rng.gen_range(0..azs.len())];
                    }
                    s = s.at(at, Fault::PartitionAzOneway(a, b)).at(until, Fault::HealAzOneway(a, b));
                }
                2 if !restartable.is_empty() => {
                    let n = restartable[rng.gen_range(0..restartable.len())];
                    let factor = 1.5 + rng.gen_range(0.0..3.0);
                    s = s.at(at, Fault::GraySlow(n, factor)).at(until, Fault::GrayHeal(n));
                }
                3 if !azs.is_empty() => {
                    // Whole-AZ outage, paired with its restore (only survivable
                    // when replication spans AZs — exactly what the paper's
                    // deployment claims).
                    let a = azs[rng.gen_range(0..azs.len())];
                    s = s.at(at, Fault::AzOutage(a)).at(until, Fault::AzRestore(a));
                }
                _ if !restartable.is_empty() => {
                    let n = restartable[rng.gen_range(0..restartable.len())];
                    s = s.at(at, Fault::Isolate(n)).at(until, Fault::Unisolate(n));
                }
                _ => {}
            }
        }
        s
    }

    /// Number of scheduled fault applications.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scheduled entries (for inspection/printing).
    pub fn entries(&self) -> &[(SimTime, Fault)] {
        &self.entries
    }

    /// Arms every entry as a control event on `sim` and returns the shared
    /// trace that records each fault as it is applied.
    ///
    /// # Panics
    ///
    /// Panics if an entry is scheduled before the simulation's current time.
    pub fn install(self, sim: &mut Simulation) -> NemesisTrace {
        let trace = NemesisTrace::default();
        for (t, fault) in self.entries {
            assert!(t >= sim.now(), "fault at {t} scheduled in the past");
            let lines = Rc::clone(&trace.lines);
            sim.at(t, move |s| {
                fault.apply(s);
                lines.borrow_mut().push(format!("t={t} {fault}"));
            });
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_expands_to_crash_restart_pairs() {
        let n = NodeId(3);
        let s = Schedule::new().flap(
            n,
            SimTime::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_secs(1),
            2,
        );
        assert_eq!(
            s.entries(),
            &[
                (SimTime::from_secs(1), Fault::Crash(n)),
                (SimTime::from_millis(1200), Fault::Restart(n)),
                (SimTime::from_secs(2), Fault::Crash(n)),
                (SimTime::from_millis(2200), Fault::Restart(n)),
            ]
        );
    }

    #[test]
    fn random_schedules_are_seed_deterministic_and_paired() {
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let azs = [AzId(0), AzId(1), AzId(2)];
        let a = Schedule::random(9, &nodes, &azs, SimTime::from_secs(1), SimTime::from_secs(9), 6);
        let b = Schedule::random(9, &nodes, &azs, SimTime::from_secs(1), SimTime::from_secs(9), 6);
        assert_eq!(a, b);
        // Every fault arrives paired with its heal (entries come in pairs).
        assert!(a.len().is_multiple_of(2), "unpaired fault in {a:?}");
        let c = Schedule::random(10, &nodes, &azs, SimTime::from_secs(1), SimTime::from_secs(9), 6);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_schedules_pair_az_outages_with_restores() {
        let nodes = [NodeId(0), NodeId(1)];
        let azs = [AzId(0), AzId(1), AzId(2)];
        // Enough episodes that the AZ-outage kind is drawn at least once.
        let mut saw_outage = false;
        for seed in 0..16u64 {
            let s =
                Schedule::random(seed, &nodes, &azs, SimTime::from_secs(1), SimTime::from_secs(9), 12);
            let entries = s.entries();
            for (i, (_, fault)) in entries.iter().enumerate() {
                if let Fault::AzOutage(az) = fault {
                    saw_outage = true;
                    assert_eq!(
                        entries[i + 1].1,
                        Fault::AzRestore(*az),
                        "AZ outage not followed by its restore in {s:?}"
                    );
                }
            }
        }
        assert!(saw_outage, "random schedules never drew an AZ outage");
    }

    #[test]
    fn flap_az_expands_to_outage_restore_pairs() {
        let az = AzId(1);
        let s = Schedule::new().flap_az(
            az,
            SimTime::from_secs(1),
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
            2,
        );
        assert_eq!(
            s.entries(),
            &[
                (SimTime::from_secs(1), Fault::AzOutage(az)),
                (SimTime::from_millis(1500), Fault::AzRestore(az)),
                (SimTime::from_secs(3), Fault::AzOutage(az)),
                (SimTime::from_millis(3500), Fault::AzRestore(az)),
            ]
        );
    }

    #[test]
    fn az_outage_staggers_kills_and_restore_revives() {
        let mut sim = Simulation::new(11);
        let mut nodes = Vec::new();
        for h in 0..3 {
            nodes.push(sim.add_node(
                crate::sim::NodeSpec::new("z", crate::topology::Location::new(1, h)),
                Box::new(Idle),
            ));
        }
        let other = sim.add_node(
            crate::sim::NodeSpec::new("o", crate::topology::Location::new(0, 9)),
            Box::new(Idle),
        );
        let s = Schedule::new()
            .at(SimTime::from_millis(100), Fault::AzOutage(AzId(1)))
            .at(SimTime::from_millis(500), Fault::AzRestore(AzId(1)));
        let trace = s.install(&mut sim);
        // Stagger is bounded by 40ms: all zone nodes dead shortly after.
        sim.run_until(SimTime::from_millis(200));
        assert!(nodes.iter().all(|&n| !sim.is_alive(n)), "zone nodes survived the outage");
        assert!(sim.is_alive(other), "outage leaked outside its zone");
        sim.run_until(SimTime::from_millis(600));
        assert!(nodes.iter().all(|&n| sim.is_alive(n)), "zone nodes not revived");
        assert_eq!(
            trace.lines(),
            vec!["t=0.100000s az-outage az1", "t=0.500000s az-restore az1"]
        );
    }

    #[test]
    fn install_applies_faults_and_records_the_trace() {
        let mut sim = Simulation::new(5);
        let n = sim.add_node(
            crate::sim::NodeSpec::new("x", crate::topology::Location::new(0, 0)),
            Box::new(Idle),
        );
        let s = Schedule::new()
            .at(SimTime::from_millis(10), Fault::Crash(n))
            .at(SimTime::from_millis(20), Fault::Restart(n));
        let trace = s.install(&mut sim);
        sim.run_until(SimTime::from_millis(15));
        assert!(!sim.is_alive(n));
        assert_eq!(trace.len(), 1);
        sim.run_until(SimTime::from_millis(25));
        assert!(sim.is_alive(n));
        assert_eq!(trace.lines(), vec!["t=0.010000s crash n0", "t=0.020000s restart n0"]);
    }

    struct Idle;
    impl crate::sim::Actor for Idle {
        fn on_message(
            &mut self,
            _ctx: &mut crate::sim::Ctx<'_>,
            _from: NodeId,
            _msg: Box<dyn crate::sim::Payload>,
        ) {
        }
    }
}
