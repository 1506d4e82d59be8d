//! CPU and disk capacity models.
//!
//! Each simulated process owns a set of *thread lanes* grouped into named
//! classes (e.g. NDB's `LDM`/`TC`/`RECV`/`SEND`/... threads from the paper's
//! Table II, or a NameNode's worker pool). Executing work picks the
//! earliest-free lane in a class, occupies it for the service time, and
//! returns the completion timestamp — so queueing delay and saturation emerge
//! naturally. Busy time is accumulated per class for the utilization figures
//! (Figures 10 and 11).
//!
//! Disks are modeled the same way as a single lane with a bandwidth-derived
//! service time, which is what makes the CephFS journal become disk-bound
//! (Figure 12d).

use crate::time::{SimDuration, SimTime};

/// Declares one class of identical worker threads on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneClassSpec {
    /// Class name, e.g. `"LDM"` or `"worker"`.
    pub name: &'static str,
    /// Number of threads (parallel lanes) in the class.
    pub count: usize,
    /// Batching model applied to work on this class, if any.
    pub batching: Option<Batching>,
}

impl LaneClassSpec {
    /// A lane class with `count` threads and no batching discount.
    pub fn new(name: &'static str, count: usize) -> Self {
        LaneClassSpec { name, count, batching: None }
    }

    /// Adds a batching model to the class.
    pub fn with_batching(mut self, batching: Batching) -> Self {
        self.batching = Some(batching);
        self
    }
}

/// Models request batching: when a lane has a backlog, per-item fixed costs
/// amortize, so effective service time shrinks toward `min_factor`.
///
/// The paper observes that NDB throughput keeps growing after its CPUs
/// plateau "due to more batching of requests by NDB" (§V-D1); this is the
/// mechanism that reproduces it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Batching {
    /// Backlog (time queued ahead of a new item) at which the discount is fully applied.
    pub saturation_backlog: SimDuration,
    /// Service-time multiplier at full backlog (e.g. 0.5 = half cost).
    pub min_factor: f64,
}

impl Batching {
    fn factor(&self, backlog: SimDuration) -> f64 {
        if self.saturation_backlog == SimDuration::ZERO {
            return self.min_factor;
        }
        let x = (backlog.as_nanos() as f64 / self.saturation_backlog.as_nanos() as f64).min(1.0);
        1.0 - (1.0 - self.min_factor) * x
    }
}

#[derive(Debug, Clone)]
struct LaneClass {
    name: &'static str,
    /// `busy_until[i]`: next free instant of lane `i`.
    busy_until: Vec<SimTime>,
    /// Accumulated busy nanoseconds across all lanes of the class.
    busy_total: SimDuration,
    batching: Option<Batching>,
    /// Completed work items.
    items: u64,
}

/// The set of thread-lane classes owned by one simulated process.
#[derive(Debug, Clone, Default)]
pub struct Lanes {
    classes: Vec<LaneClass>,
    /// `(address, length, class index)` of every `'static` name a class has
    /// been looked up by, seeded with the spec names. Two `'static` strings
    /// with equal address and length are equal, and a shorter-lived string
    /// can never sit at a `'static` address, so an address hit needs no
    /// string compare.
    by_addr: Vec<(usize, usize, usize)>,
}

impl Lanes {
    /// Builds the lane set from specs.
    ///
    /// # Panics
    ///
    /// Panics if a class has zero threads or a duplicate name.
    pub fn new(specs: &[LaneClassSpec]) -> Self {
        let mut classes: Vec<LaneClass> = Vec::with_capacity(specs.len());
        let mut by_addr = Vec::with_capacity(specs.len());
        for s in specs {
            assert!(s.count > 0, "lane class {} must have at least one thread", s.name);
            assert!(
                classes.iter().all(|c| c.name != s.name),
                "duplicate lane class name {}",
                s.name
            );
            by_addr.push((s.name.as_ptr() as usize, s.name.len(), classes.len()));
            classes.push(LaneClass {
                name: s.name,
                busy_until: vec![SimTime::ZERO; s.count],
                busy_total: SimDuration::ZERO,
                batching: s.batching,
                items: 0,
            });
        }
        Lanes { classes, by_addr }
    }

    fn index_by_addr(&self, name: &str) -> Option<usize> {
        let addr = (name.as_ptr() as usize, name.len());
        self.by_addr.iter().find(|&&(p, l, _)| (p, l) == addr).map(|&(_, _, ix)| ix)
    }

    fn index_by_name(&self, name: &str) -> usize {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("unknown lane class {name}"))
    }

    fn index(&self, name: &str) -> usize {
        self.index_by_addr(name).unwrap_or_else(|| self.index_by_name(name))
    }

    fn class(&self, name: &str) -> &LaneClass {
        &self.classes[self.index(name)]
    }

    /// Index of class `name` in declaration order. Compares names only the
    /// first time a given `'static` string is seen.
    ///
    /// # Panics
    ///
    /// Panics if the class does not exist.
    pub(crate) fn class_index(&mut self, name: &'static str) -> usize {
        if let Some(ix) = self.index_by_addr(name) {
            return ix;
        }
        let ix = self.index_by_name(name);
        self.by_addr.push((name.as_ptr() as usize, name.len(), ix));
        ix
    }

    /// Schedules a work item of `cost` on the earliest-free lane of `class`,
    /// starting no earlier than `now`, and returns its completion time.
    ///
    /// # Panics
    ///
    /// Panics if the class does not exist.
    pub fn execute(&mut self, class: &str, now: SimTime, cost: SimDuration) -> SimTime {
        self.execute_timed(class, now, cost).1
    }

    /// Like [`execute`](Lanes::execute), but returns `(start, done, name)` —
    /// the instant the item actually started (so `start - now` is queueing
    /// delay and `done - start` service time) and the class's `'static` name,
    /// for metrics attribution.
    ///
    /// # Panics
    ///
    /// Panics if the class does not exist.
    pub fn execute_timed(
        &mut self,
        class: &str,
        now: SimTime,
        cost: SimDuration,
    ) -> (SimTime, SimTime, &'static str) {
        let ix = self.index(class);
        let (start, done) = self.execute_at(ix, now, cost);
        (start, done, self.classes[ix].name)
    }

    /// [`execute_timed`](Lanes::execute_timed) on the class at `ix` (from
    /// [`class_index`](Lanes::class_index)); returns `(start, done)`.
    pub(crate) fn execute_at(
        &mut self,
        ix: usize,
        now: SimTime,
        cost: SimDuration,
    ) -> (SimTime, SimTime) {
        let c = &mut self.classes[ix];
        // Earliest-free lane.
        let lane = {
            let mut best = 0usize;
            for i in 1..c.busy_until.len() {
                if c.busy_until[i] < c.busy_until[best] {
                    best = i;
                }
            }
            best
        };
        let start = c.busy_until[lane].max(now);
        let backlog = start.saturating_since(now);
        let effective = match c.batching {
            Some(b) => cost.mul_f64(b.factor(backlog)),
            None => cost,
        };
        let done = start + effective;
        c.busy_until[lane] = done;
        c.busy_total += effective;
        c.items += 1;
        (start, done)
    }

    /// Time at which the earliest lane of `class` becomes free (backlog probe).
    pub fn earliest_free(&self, class: &str) -> SimTime {
        let c = self.class(class);
        c.busy_until.iter().copied().min().unwrap_or(SimTime::ZERO)
    }

    /// Utilization of a class over the window `[start, end)`: busy time in the
    /// window divided by `threads × window`, as a fraction of 1.
    ///
    /// This uses total accumulated busy time, so call
    /// [`snapshot_busy`](Lanes::snapshot_busy) at `start` and subtract, or use
    /// [`UtilizationWindow`]. For whole-run utilization pass
    /// `start = SimTime::ZERO`.
    pub fn busy_total(&self, class: &str) -> SimDuration {
        self.class(class).busy_total
    }

    /// Completed work items on a class.
    pub fn items(&self, class: &str) -> u64 {
        self.class(class).items
    }

    /// Name of the class at `ix` (declaration order).
    pub(crate) fn class_name(&self, ix: usize) -> &'static str {
        self.classes[ix].name
    }

    /// Names of all classes, in declaration order.
    pub fn class_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.classes.iter().map(|c| c.name)
    }

    /// Snapshot of per-class busy totals, for windowed utilization.
    pub fn snapshot_busy(&self) -> Vec<(&'static str, SimDuration)> {
        self.classes.iter().map(|c| (c.name, c.busy_total)).collect()
    }

    /// Total thread count across all classes.
    pub fn total_threads(&self) -> usize {
        self.classes.iter().map(|c| c.busy_until.len()).sum()
    }

    /// Thread count of one class.
    pub fn threads(&self, class: &str) -> usize {
        self.class(class).busy_until.len()
    }
}

/// Utilization computed over a measurement window from two busy snapshots.
#[derive(Debug, Clone)]
pub struct UtilizationWindow {
    start_busy: Vec<(&'static str, SimDuration)>,
    start_time: SimTime,
}

impl UtilizationWindow {
    /// Opens a window at `now`.
    pub fn open(lanes: &Lanes, now: SimTime) -> Self {
        UtilizationWindow { start_busy: lanes.snapshot_busy(), start_time: now }
    }

    /// Closes the window at `now` and returns `(class, utilization ∈ [0,1])`
    /// per class.
    pub fn close(&self, lanes: &Lanes, now: SimTime) -> Vec<(&'static str, f64)> {
        let window = now.saturating_since(self.start_time);
        if window == SimDuration::ZERO {
            return self.start_busy.iter().map(|&(n, _)| (n, 0.0)).collect();
        }
        self.start_busy
            .iter()
            .map(|&(name, start)| {
                let busy = lanes.busy_total(name).saturating_sub(start);
                let cap = window.as_nanos() as f64 * lanes.threads(name) as f64;
                (name, (busy.as_nanos() as f64 / cap).min(1.0))
            })
            .collect()
    }
}

/// A single-queue disk with a fixed sequential bandwidth.
///
/// I/O items occupy the device for `bytes / bandwidth` plus a fixed per-op
/// overhead; reads and writes share the queue. Byte totals are tracked
/// separately for the disk-utilization figures.
#[derive(Debug, Clone)]
pub struct Disk {
    busy_until: SimTime,
    busy_total: SimDuration,
    /// Device frozen until this instant (fault injection): no I/O starts
    /// earlier, modeling a firmware hiccup or an EBS brown-out.
    stalled_until: SimTime,
    /// Device bandwidth in bytes/second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-operation overhead (seek/submit).
    pub per_op: SimDuration,
    bytes_read: u64,
    bytes_written: u64,
}

/// Direction of a disk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Read from the device.
    Read,
    /// Write to the device.
    Write,
}

impl Disk {
    /// Creates a disk with the given sequential bandwidth.
    pub fn new(bandwidth_bytes_per_sec: u64) -> Self {
        Disk {
            busy_until: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
            stalled_until: SimTime::ZERO,
            bandwidth_bytes_per_sec,
            per_op: SimDuration::from_micros(20),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Submits an I/O of `bytes` at `now`; returns its completion time.
    pub fn submit(&mut self, op: DiskOp, now: SimTime, bytes: u64) -> SimTime {
        let xfer = SimDuration::from_nanos(
            bytes.saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec.max(1),
        );
        let cost = self.per_op + xfer;
        let start = self.busy_until.max(now).max(self.stalled_until);
        self.busy_until = start + cost;
        self.busy_total += cost;
        match op {
            DiskOp::Read => self.bytes_read += bytes,
            DiskOp::Write => self.bytes_written += bytes,
        }
        self.busy_until
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Accumulated busy time (for utilization over a window).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Freezes the device until `until`: I/O submitted before then (and any
    /// backlog) only starts once the stall lifts. Stalls never shorten an
    /// earlier stall.
    pub fn stall(&mut self, until: SimTime) {
        self.stalled_until = self.stalled_until.max(until);
    }

    /// The instant the current stall lifts (`ZERO` when never stalled).
    pub fn stalled_until(&self) -> SimTime {
        self.stalled_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes2() -> Lanes {
        Lanes::new(&[LaneClassSpec::new("w", 2)])
    }

    #[test]
    fn idle_lane_starts_immediately() {
        let mut l = lanes2();
        let done = l.execute("w", SimTime::from_millis(1), SimDuration::from_micros(100));
        assert_eq!(done, SimTime::from_millis(1) + SimDuration::from_micros(100));
    }

    #[test]
    fn work_spreads_across_lanes_then_queues() {
        let mut l = lanes2();
        let t0 = SimTime::ZERO;
        let c = SimDuration::from_micros(100);
        let d1 = l.execute("w", t0, c);
        let d2 = l.execute("w", t0, c);
        let d3 = l.execute("w", t0, c);
        // Two lanes run in parallel; third item queues behind the first.
        assert_eq!(d1, t0 + c);
        assert_eq!(d2, t0 + c);
        assert_eq!(d3, t0 + c * 2);
    }

    #[test]
    fn execute_timed_reports_queueing_split() {
        let mut l = Lanes::new(&[LaneClassSpec::new("q", 1)]);
        let c = SimDuration::from_micros(100);
        let (s1, d1, name) = l.execute_timed("q", SimTime::ZERO, c);
        assert_eq!((s1, d1, name), (SimTime::ZERO, SimTime::ZERO + c, "q"));
        // Second item queues behind the first: start = previous completion.
        let (s2, d2, _) = l.execute_timed("q", SimTime::ZERO, c);
        assert_eq!(s2, d1);
        assert_eq!(d2, d1 + c);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut l = lanes2();
        let w = UtilizationWindow::open(&l, SimTime::ZERO);
        l.execute("w", SimTime::ZERO, SimDuration::from_millis(1));
        let u = w.close(&l, SimTime::from_millis(1));
        // 1ms busy of 2ms capacity (2 threads x 1ms window).
        assert_eq!(u.len(), 1);
        assert!((u[0].1 - 0.5).abs() < 1e-9, "{u:?}");
    }

    #[test]
    fn batching_discounts_under_backlog() {
        let spec = LaneClassSpec::new("b", 1).with_batching(Batching {
            saturation_backlog: SimDuration::from_micros(100),
            min_factor: 0.5,
        });
        let mut l = Lanes::new(&[spec]);
        let c = SimDuration::from_micros(100);
        let d1 = l.execute("b", SimTime::ZERO, c);
        assert_eq!(d1, SimTime::ZERO + c); // no backlog, full cost
        let d2 = l.execute("b", SimTime::ZERO, c);
        // 100us backlog = full discount: half cost.
        assert_eq!(d2, d1 + SimDuration::from_micros(50));
    }

    #[test]
    fn disk_serializes_ios() {
        let mut d = Disk::new(1_000_000); // 1 MB/s for easy math
        d.per_op = SimDuration::ZERO;
        let t1 = d.submit(DiskOp::Write, SimTime::ZERO, 500_000);
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_millis(500));
        let t2 = d.submit(DiskOp::Read, SimTime::ZERO, 500_000);
        assert_eq!(t2, SimTime::from_secs(1));
        assert_eq!(d.bytes_written(), 500_000);
        assert_eq!(d.bytes_read(), 500_000);
    }

    #[test]
    fn disk_stall_delays_queued_and_new_io() {
        let mut d = Disk::new(1_000_000);
        d.per_op = SimDuration::ZERO;
        d.stall(SimTime::from_millis(100));
        let t1 = d.submit(DiskOp::Write, SimTime::ZERO, 1_000);
        // 1ms of work may only start once the stall lifts at 100ms.
        assert_eq!(t1, SimTime::from_millis(101));
        // A later, longer stall extends; an earlier one never shortens.
        d.stall(SimTime::from_millis(50));
        assert_eq!(d.stalled_until(), SimTime::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "unknown lane class")]
    fn unknown_class_panics() {
        let mut l = lanes2();
        l.execute("nope", SimTime::ZERO, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_class_rejected() {
        let _ = Lanes::new(&[LaneClassSpec::new("x", 1), LaneClassSpec::new("x", 2)]);
    }
}
