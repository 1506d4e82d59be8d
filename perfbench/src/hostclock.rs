//! Host time of simulation runs, measured so that interference from other
//! tenants of a shared host does not read as a change in the program.
//!
//! A run advances in short slices of simulated time, and each slice's host
//! time per processed event is recorded. Interference only ever adds time,
//! and on a shared 2-thread host it comes in bursts of a few seconds that
//! slow a fixed workload by up to 2x; the lower quartile of the per-slice
//! cost tracks the program's own speed, while the plain sum follows the
//! bursts. The robust estimate of a run is its event count times that
//! lower quartile; the plain wall time is kept beside it.
//!
//!
//! Slow phases also last minutes, long enough to cover whole runs. So the
//! robust estimate is further scaled to a reference host speed: around and
//! during each run a fixed, bench-owned calibration loop is timed, and the
//! run's time is multiplied by `CAL_NOMINAL_MS` over the loop's median time.
//! The loop is shaped like a discrete-event simulator's inner loop (a
//! binary-heap event queue, boxed messages, ordered-map lookups over a
//! working set of a few MB) but shares no code with the program under test,
//! so a change to the program moves the run and not the calibration.
//!
//! Blind spots: work concentrated in a minority of slices (a rare, costly
//! periodic event) weighs less in the quartile than in the sum; a host
//! slowdown that hits the simulator harder than the calibration loop (or
//! the reverse) still shows.

use simnet::{SimDuration, SimTime, Simulation};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Simulated length of one timed slice.
const SLICE: SimDuration = SimDuration::from_millis(10);
/// Which quantile of the per-slice ns/event stands for the run.
const QUANTILE: f64 = 0.25;
/// Host milliseconds the calibration loop takes at the reference speed: the
/// fast phase of the 2-thread Xeon host this benchmark was built on.
const CAL_NOMINAL_MS: f64 = 6.0;
/// Host seconds between calibrations inside a run.
const CAL_EVERY_S: f64 = 0.5;
const CAL_KEYS: u64 = 60_000;
const CAL_EVENTS: u64 = 20_000;

/// The calibration loop's state: an ordered map of a few MB, built once.
struct Calibrator {
    map: BTreeMap<u64, Vec<u64>>,
    x: u64,
}

impl Calibrator {
    fn new() -> Calibrator {
        let map = (0..CAL_KEYS)
            .map(|i| (i * 7919 % (CAL_KEYS * 8), vec![i; 6]))
            .collect();
        Calibrator {
            map,
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// xorshift64: a fixed pseudo-random sequence.
    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Host milliseconds of one fixed round of the loop.
    fn measure_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut queue = BinaryHeap::new();
        let mut msgs: Vec<Option<Box<dyn Any>>> = Vec::new();
        for id in 0..512u64 {
            queue.push(Reverse((self.next() % 1000, id)));
            msgs.push(Some(Box::new(id)));
        }
        let mut acc = 0u64;
        for _ in 0..CAL_EVENTS {
            let Reverse((at, id)) = queue.pop().expect("the queue never empties");
            let msg = msgs[id as usize].take().expect("one message per id");
            let v = *msg.downcast::<u64>().expect("messages are u64");
            let key = self.next() % (CAL_KEYS * 8);
            if let Some((_, row)) = self.map.range(key..).next() {
                acc = acc.wrapping_add(row[(v % 6) as usize]);
            }
            msgs[id as usize] = Some(Box::new(v.wrapping_add(acc)));
            queue.push(Reverse((at + 1 + self.next() % 1000, id)));
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Host milliseconds of one calibration round, now.
fn calibrate_ms() -> f64 {
    static CALIBRATOR: OnceLock<Mutex<Calibrator>> = OnceLock::new();
    CALIBRATOR
        .get_or_init(|| Mutex::new(Calibrator::new()))
        .lock()
        .expect("calibrator lock")
        .measure_ms()
}

/// Host cost of one timed run, or of several folded together.
#[derive(Debug, Clone, Default)]
pub struct HostCost {
    wall_s: f64,
    events: u64,
    /// Robust seconds of the runs folded in so far.
    robust_s: f64,
    /// Reference host speed over measured speed, for the last run.
    speed: f64,
}

impl HostCost {
    /// Runs `sim` until `end`, slice by slice, timing each slice and
    /// calibrating before, during and after.
    pub fn run(sim: &mut Simulation, end: SimTime) -> HostCost {
        let mut wall_s = 0.0;
        let start_events = sim.events_processed();
        let mut slices = Vec::new();
        let mut cals = vec![calibrate_ms()];
        let mut since_cal = 0.0;
        let mut at = sim.now();
        while at < end {
            at = (at + SLICE).min(end);
            let events = sim.events_processed();
            let t = Instant::now();
            sim.run_until(at);
            let dt = t.elapsed().as_secs_f64();
            let n = sim.events_processed() - events;
            wall_s += dt;
            since_cal += dt;
            if n > 0 {
                slices.push(dt * 1e9 / n as f64);
            }
            if since_cal >= CAL_EVERY_S {
                cals.push(calibrate_ms());
                since_cal = 0.0;
            }
        }
        cals.push(calibrate_ms());
        let speed = CAL_NOMINAL_MS / crate::stats::median(&cals);
        let events = sim.events_processed() - start_events;
        let robust_s = if slices.is_empty() {
            wall_s
        } else {
            slices.sort_by(f64::total_cmp);
            let ns = slices[((slices.len() - 1) as f64 * QUANTILE).round() as usize];
            ns * events as f64 / 1e9
        };
        HostCost {
            wall_s,
            events,
            robust_s: robust_s * speed,
            speed,
        }
    }

    /// Reference host speed over the speed measured around the last run:
    /// multiply other host times taken next to it by this.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Plain host seconds, summed over slices.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Robust host seconds: each run's events times its lower-quartile
    /// slice cost, scaled to the reference host speed, summed over the runs
    /// folded together.
    pub fn robust_s(&self) -> f64 {
        self.robust_s
    }

    /// Robust host ns per event (0 with no events).
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.robust_s * 1e9 / self.events as f64
        }
    }

    /// Folds another run into this one.
    pub fn absorb(&mut self, other: &HostCost) {
        self.wall_s += other.wall_s;
        self.events += other.events;
        self.robust_s += other.robust_s;
    }
}
