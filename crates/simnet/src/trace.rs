//! Request tracing and the process-wide metrics registry.
//!
//! Two observability subsystems share this module:
//!
//! - [`MetricsRegistry`] is **always on**: every simulation aggregates, per
//!   deployment layer (a [`crate::NodeSpec::with_layer`] tag), where time
//!   goes — network transit per directed AZ pair, CPU-lane queueing vs.
//!   service, lock waits, retry/backoff — into named [`Histogram`]s and
//!   counters. Each metric lives in a dense slot: the kernel resolves a
//!   node's CPU-lane slots once, when it places the node; the network
//!   ledger is indexed by AZ pair; and a named key is resolved by content
//!   the first time it is seen and by string address after that. Recording
//!   is an index (or one fast hash probe) plus the histogram update, cheap
//!   enough to leave enabled in benchmarks.
//! - [`Tracer`] is **opt-in** ([`crate::Simulation::enable_tracing`]): it
//!   assembles per-request [`Span`]s into a tree. Span ids ride along with
//!   every message and timer delivery, so a client operation's span follows
//!   the request across namenodes, transaction coordinators and datanodes
//!   without any per-protocol plumbing; protocol layers may additionally
//!   store span ids in their request payloads and restore them with
//!   [`crate::Ctx::set_span`] when they resume work from their own state.
//!   Spans export in Chrome `trace_event` format ([`chrome_trace_json`]) and
//!   open directly in Perfetto or `chrome://tracing`.
//!
//! Neither subsystem draws from the simulation RNG or schedules events, so
//! enabling tracing never perturbs the event schedule: a seeded run replays
//! bit-identically with tracing on or off.

use crate::hash::FxHashMap;
use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};
use crate::topology::AzId;
use std::collections::BTreeMap;

/// Identifier of one [`Span`]. `NONE` (id 0) means "no tracing context".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span: work not attributed to any traced request.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to a real span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One recorded interval of a traced request.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span ([`SpanId::NONE`] for request roots).
    pub parent: SpanId,
    /// Static label, e.g. the op kind (`"createFile"`) or lane (`"LDM"`).
    pub name: &'static str,
    /// Category: `"op"`, `"net"`, `"cpu"`, `"lock"`, `"retry"`, ...
    pub cat: &'static str,
    /// Node the span is attributed to.
    pub node: u32,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval (equals `start` while the span is open).
    pub end: SimTime,
    /// Optional free-form detail (allocated only while tracing is enabled).
    pub arg: Option<String>,
}

impl Span {
    /// The span's duration (zero while still open).
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Span recorder. Disabled by default; every method is a no-op (returning
/// [`SpanId::NONE`]) until enabled, so instrumented protocol code costs
/// nothing in ordinary runs.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// Turns span recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether span recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span starting at `now`; returns its id ([`SpanId::NONE`] when
    /// disabled).
    pub fn start(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: SpanId,
        node: u32,
        now: SimTime,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(Span { id, parent, name, cat, node, start: now, end: now, arg: None });
        id
    }

    /// Closes an open span at `now`. No-op for [`SpanId::NONE`].
    pub fn end(&mut self, id: SpanId, now: SimTime) {
        if let Some(s) = self.get_mut(id) {
            s.end = now;
        }
    }

    /// Records an already-closed span covering `[start, end]`.
    pub fn complete(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: SpanId,
        node: u32,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        let id = self.start(name, cat, parent, node, start);
        self.end(id, end);
        id
    }

    /// Attaches a free-form detail string to a span.
    pub fn set_arg(&mut self, id: SpanId, arg: String) {
        if let Some(s) = self.get_mut(id) {
            s.arg = Some(arg);
        }
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        if id.is_some() {
            self.spans.get_mut(id.0 as usize - 1)
        } else {
            None
        }
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Queueing-vs-service time breakdown of one (layer, lane class) pair.
#[derive(Debug, Clone, Default)]
pub struct CpuMetric {
    /// Time work items waited for a free lane before starting (ns).
    pub queue: Histogram,
    /// Time work items occupied the lane (ns).
    pub service: Histogram,
}

/// Global dispatch order `(time, phase, key)` of a metrics write; the kernel
/// sets it before each dispatch so per-shard gauge merges have a
/// shard-invariant "last writer".
pub(crate) type DispatchStamp = (u64, u8, u128);

/// A last-written gauge: current value, high-water mark since the last
/// clear, and the dispatch stamp of the write.
#[derive(Debug, Clone, Copy, Default)]
struct Gauge {
    cur: u64,
    high: u64,
    stamp: DispatchStamp,
}

/// One metric value of a [`Family`]: recorded into in place, folded from
/// another registry's value, and reset without giving up its allocation.
trait Metric: Default {
    /// Folds `other`, a live value of another registry, into this live one.
    fn absorb(&mut self, other: &Self);
    /// Returns to the never-recorded state (`Default`), keeping allocations.
    fn reset(&mut self);
}

impl Metric for Histogram {
    fn absorb(&mut self, other: &Self) {
        self.merge(other);
    }
    fn reset(&mut self) {
        self.clear();
    }
}

impl Metric for CpuMetric {
    fn absorb(&mut self, other: &Self) {
        self.queue.merge(&other.queue);
        self.service.merge(&other.service);
    }
    fn reset(&mut self) {
        self.queue.clear();
        self.service.clear();
    }
}

impl Metric for u64 {
    fn absorb(&mut self, other: &Self) {
        *self += other;
    }
    fn reset(&mut self) {
        *self = 0;
    }
}

impl Metric for Gauge {
    /// Last write wins by dispatch stamp (independent of how nodes were
    /// partitioned onto shards); high-water marks take the max.
    fn absorb(&mut self, other: &Self) {
        if other.stamp >= self.stamp {
            self.cur = other.cur;
            self.stamp = other.stamp;
        }
        self.high = self.high.max(other.high);
    }
    fn reset(&mut self) {
        *self = Gauge::default();
    }
}

/// A metric key: `(layer, name)`.
type Key = (&'static str, &'static str);

/// Where a key's two strings live: `(layer ptr, layer len, name ptr, name
/// len)`. Two `'static` strings with equal address and length are equal, so
/// an address hit needs no string compare.
fn key_addr((layer, name): Key) -> [usize; 4] {
    [layer.as_ptr() as usize, layer.len(), name.as_ptr() as usize, name.len()]
}

/// A metric value and whether it was recorded into since the last clear or
/// drain. Only live cells are visible; a dead cell holds `T::default()`.
#[derive(Debug, Default)]
struct Cell<T> {
    live: bool,
    value: T,
}

impl<T: Metric> Cell<T> {
    /// The value, marked live for recording.
    fn record(&mut self) -> &mut T {
        self.live = true;
        &mut self.value
    }

    fn get(&self) -> Option<&T> {
        self.live.then_some(&self.value)
    }

    fn clear(&mut self) {
        if self.live {
            self.live = false;
            self.value.reset();
        }
    }

    /// Moves a live `other` into this cell, leaving `other` dead.
    fn drain_from(&mut self, other: &mut Cell<T>) {
        if !other.live {
            return;
        }
        other.live = false;
        if self.live {
            self.value.absorb(&other.value);
            other.value.reset();
        } else {
            // A dead cell holds the default, so the swap leaves `other`
            // reset and `self` with exactly the drained value.
            std::mem::swap(&mut self.value, &mut other.value);
            self.live = true;
        }
    }
}

/// One family of `(layer, name)`-keyed metrics in dense slots. A key is
/// resolved to its slot once, by content; after that its address finds the
/// slot with one fast hash lookup. Slots are never removed, so a resolved
/// slot index stays valid for the registry's lifetime.
#[derive(Debug)]
struct Family<T> {
    slots: Vec<(Key, Cell<T>)>,
    /// Content index in key order: iteration walks it, and it makes
    /// content-equal keys at different addresses share one slot.
    by_key: BTreeMap<Key, usize>,
    /// Address cache over `by_key`.
    by_addr: FxHashMap<[usize; 4], usize>,
}

impl<T> Default for Family<T> {
    fn default() -> Self {
        Family { slots: Vec::new(), by_key: BTreeMap::new(), by_addr: FxHashMap::default() }
    }
}

impl<T: Metric> Family<T> {
    /// The slot of `key`, created (dead) on first sight.
    fn slot(&mut self, key: Key) -> usize {
        let addr = key_addr(key);
        if let Some(&ix) = self.by_addr.get(&addr) {
            return ix;
        }
        let next = self.slots.len();
        let ix = *self.by_key.entry(key).or_insert(next);
        if ix == next {
            self.slots.push((key, Cell::default()));
        }
        self.by_addr.insert(addr, ix);
        ix
    }

    /// The value in slot `ix`, marked live for recording.
    fn at(&mut self, ix: usize) -> &mut T {
        self.slots[ix].1.record()
    }

    /// The value of `key`, marked live for recording.
    fn record(&mut self, key: Key) -> &mut T {
        let ix = self.slot(key);
        self.at(ix)
    }

    /// The live value of a key, looked up by content.
    fn get(&self, layer: &str, name: &str) -> Option<&T> {
        self.slots[*self.by_key.get(&(layer, name))?].1.get()
    }

    /// Live entries in key order.
    fn iter(&self) -> impl Iterator<Item = (Key, &T)> + '_ {
        self.by_key.iter().filter_map(|(&key, &ix)| Some((key, self.slots[ix].1.get()?)))
    }

    /// Kills every slot (keeping slots and allocations).
    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|(_, c)| c.clear());
    }

    /// Moves every live value of `other` into `self`, leaving `other` dead.
    fn drain_from(&mut self, other: &mut Family<T>) {
        for (key, theirs) in other.slots.iter_mut().filter(|(_, c)| c.live) {
            let ix = self.slot(*key);
            self.slots[ix].1.drain_from(theirs);
        }
    }
}

/// The per-AZ-pair network ledger of one directed AZ pair.
#[derive(Debug, Default)]
struct NetCell {
    /// Message transit time (send → delivery, ns).
    transit: Histogram,
    /// Delivered payload bytes. Mirrors the simulation's `az_traffic`
    /// ledger exactly (recorded at delivery).
    bytes: u64,
}

impl Metric for NetCell {
    fn absorb(&mut self, other: &Self) {
        self.transit.merge(&other.transit);
        self.bytes += other.bytes;
    }
    fn reset(&mut self) {
        self.transit.clear();
        self.bytes = 0;
    }
}

/// Network ledger stored densely by directed AZ pair: the cell of
/// `(src, dst)` is `cells[src * dim + dst]`, so row-major order is key
/// order. Cells are allocated on first delivery.
#[derive(Debug, Default)]
struct NetGrid {
    dim: usize,
    cells: Vec<Option<Cell<NetCell>>>,
}

impl NetGrid {
    fn cell(&mut self, src: u8, dst: u8) -> &mut Cell<NetCell> {
        let need = src.max(dst) as usize + 1;
        if need > self.dim {
            let mut cells: Vec<Option<Cell<NetCell>>> = (0..need * need).map(|_| None).collect();
            for (ix, c) in self.cells.drain(..).enumerate() {
                cells[(ix / self.dim) * need + ix % self.dim] = c;
            }
            self.cells = cells;
            self.dim = need;
        }
        self.cells[src as usize * self.dim + dst as usize].get_or_insert_with(Default::default)
    }

    fn get(&self, src: u8, dst: u8) -> Option<&NetCell> {
        let (s, d) = (src as usize, dst as usize);
        if s.max(d) >= self.dim {
            return None;
        }
        self.cells[s * self.dim + d].as_ref()?.get()
    }

    /// Live cells as `(src, dst, cell)`, in key order.
    fn iter(&self) -> impl Iterator<Item = (u8, u8, &NetCell)> + '_ {
        self.cells.iter().enumerate().filter_map(|(ix, c)| {
            Some(((ix / self.dim) as u8, (ix % self.dim) as u8, c.as_ref()?.get()?))
        })
    }

    fn clear(&mut self) {
        self.cells.iter_mut().flatten().for_each(Cell::clear);
    }

    fn drain_from(&mut self, other: &mut NetGrid) {
        let dim = other.dim;
        for (ix, theirs) in other.cells.iter_mut().enumerate() {
            if let Some(theirs) = theirs.as_mut().filter(|c| c.live) {
                self.cell((ix / dim) as u8, (ix % dim) as u8).drain_from(theirs);
            }
        }
    }
}

/// A resolved CPU-metric slot of one (layer, lane class) pair in one
/// registry ([`MetricsRegistry::cpu_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CpuSlot(usize);

/// Process-wide aggregation of named histograms and counters, keyed by the
/// deployment layer of the recording node.
///
/// Every family stores its values in dense slots. A `(layer, name)` key is
/// resolved to its slot by content the first time it is seen (so
/// content-equal keys share a slot) and by address after that; the kernel
/// resolves each node's CPU-lane keys once, when the node is placed, and
/// records through the slot. The network ledger is a dense AZ-pair grid.
/// Iteration follows key order, so everything derived from it, like
/// exported JSON, is deterministic. The registry never draws randomness or
/// schedules events.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Per directed AZ pair: transit histogram and delivered bytes.
    net: NetGrid,
    /// Per (layer, lane class): CPU queue/service breakdown.
    cpu: Family<CpuMetric>,
    /// Per (layer, name): protocol wait histograms (lock waits, backoff, …).
    hists: Family<Histogram>,
    /// Per (layer, name): event counters (retries, timeouts, …).
    counters: Family<u64>,
    /// Per (layer, name): last-written gauges (queue depths, windows, …).
    /// The stamp is the global dispatch order `(time, phase, key)` of the
    /// write (set by the kernel before each dispatch), which makes
    /// "last-written" well-defined when per-shard registries are merged: the
    /// entry with the largest stamp wins, independent of shard count.
    /// High-water marks are since the last [`clear`].
    ///
    /// [`clear`]: MetricsRegistry::clear
    gauges: Family<Gauge>,
    /// Dispatch stamp applied to gauge writes (see `gauges`). The kernel
    /// updates it before every actor/control dispatch; recording methods
    /// never change it.
    cur_stamp: DispatchStamp,
}

impl MetricsRegistry {
    /// Records one delivered inter-node message.
    pub fn record_net(&mut self, src: AzId, dst: AzId, bytes: u64, transit: SimDuration) {
        let c = self.net.cell(src.0, dst.0).record();
        c.transit.record(transit.as_nanos());
        c.bytes += bytes;
    }

    /// Records one CPU work item's queueing and service time.
    pub fn record_cpu(
        &mut self,
        layer: &'static str,
        lane: &'static str,
        queue: SimDuration,
        service: SimDuration,
    ) {
        let slot = self.cpu_slot(layer, lane);
        self.record_cpu_at(slot, queue, service);
    }

    /// Resolves the CPU-metric slot of a (layer, lane class) pair.
    pub(crate) fn cpu_slot(&mut self, layer: &'static str, lane: &'static str) -> CpuSlot {
        CpuSlot(self.cpu.slot((layer, lane)))
    }

    /// [`record_cpu`](Self::record_cpu) through a slot resolved by
    /// [`cpu_slot`](Self::cpu_slot) on this registry.
    pub(crate) fn record_cpu_at(
        &mut self,
        slot: CpuSlot,
        queue: SimDuration,
        service: SimDuration,
    ) {
        let m = self.cpu.at(slot.0);
        m.queue.record(queue.as_nanos());
        m.service.record(service.as_nanos());
    }

    /// Records a sample into the named histogram of a layer.
    pub fn record_hist(&mut self, layer: &'static str, name: &'static str, value: u64) {
        self.hists.record((layer, name)).record(value);
    }

    /// Adds `n` to the named counter of a layer.
    pub fn inc(&mut self, layer: &'static str, name: &'static str, n: u64) {
        *self.counters.record((layer, name)) += n;
    }

    /// Sets the named gauge of a layer to its current value, tracking the
    /// high-water mark as well (overload diagnosis cares about the peak
    /// queue depth, not just where it happened to sit at the last sample).
    pub fn set_gauge(&mut self, layer: &'static str, name: &'static str, value: u64) {
        let stamp = self.cur_stamp;
        let g = self.gauges.record((layer, name));
        g.cur = value;
        g.high = g.high.max(value);
        g.stamp = stamp;
    }

    /// The named gauge's `(current, high_water)` pair (zeros if never set).
    pub fn gauge(&self, layer: &str, name: &str) -> (u64, u64) {
        self.gauges.get(layer, name).map(|g| (g.cur, g.high)).unwrap_or((0, 0))
    }

    /// Iterates `(layer, name, current, high_water)` for gauges, in key
    /// order.
    pub fn iter_gauges(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, u64, u64)> + '_ {
        self.gauges.iter().map(|((layer, name), g)| (layer, name, g.cur, g.high))
    }

    /// Stamps subsequent gauge writes with the global dispatch order of the
    /// event about to run. Called by the kernel before every dispatch.
    pub(crate) fn set_stamp(&mut self, stamp: DispatchStamp) {
        self.cur_stamp = stamp;
    }

    /// Drains every sample from `other` into `self`, leaving `other` empty
    /// (its slots stay resolved).
    ///
    /// Histograms, counters, and byte ledgers merge by integer addition, so
    /// the result is independent of merge order — which is what lets the
    /// sharded kernel keep one registry per shard and fold them together at
    /// coordinator points without perturbing artifacts. Gauges are
    /// last-write-wins by dispatch stamp (largest stamp's current value
    /// survives; high-water marks take the max), which is likewise
    /// independent of how nodes were partitioned onto shards.
    pub fn merge_from(&mut self, other: &mut MetricsRegistry) {
        self.net.drain_from(&mut other.net);
        self.cpu.drain_from(&mut other.cpu);
        self.hists.drain_from(&mut other.hists);
        self.counters.drain_from(&mut other.counters);
        self.gauges.drain_from(&mut other.gauges);
    }

    /// Transit-time histogram of one directed AZ pair, if any was recorded.
    pub fn net_transit(&self, src: AzId, dst: AzId) -> Option<&Histogram> {
        self.net.get(src.0, dst.0).map(|c| &c.transit)
    }

    /// Delivered bytes of one directed AZ pair.
    pub fn net_bytes(&self, src: AzId, dst: AzId) -> u64 {
        self.net.get(src.0, dst.0).map_or(0, |c| c.bytes)
    }

    /// The named histogram of a layer, if any sample was recorded.
    pub fn hist(&self, layer: &str, name: &str) -> Option<&Histogram> {
        self.hists.get(layer, name)
    }

    /// The named counter of a layer (0 if never incremented).
    pub fn counter(&self, layer: &str, name: &str) -> u64 {
        self.counters.get(layer, name).copied().unwrap_or(0)
    }

    /// Iterates `(src, dst, transit histogram, delivered bytes)` per
    /// directed AZ pair, in key order.
    pub fn iter_net(&self) -> impl Iterator<Item = (AzId, AzId, &Histogram, u64)> + '_ {
        self.net.iter().map(|(s, d, c)| (AzId(s), AzId(d), &c.transit, c.bytes))
    }

    /// Iterates `(layer, lane, breakdown)` per CPU lane class, in key order.
    pub fn iter_cpu(&self) -> impl Iterator<Item = (&'static str, &'static str, &CpuMetric)> + '_ {
        self.cpu.iter().map(|((layer, lane), m)| (layer, lane, m))
    }

    /// Iterates `(layer, name, histogram)` for protocol wait histograms.
    pub fn iter_hists(&self) -> impl Iterator<Item = (&'static str, &'static str, &Histogram)> + '_ {
        self.hists.iter().map(|((layer, name), h)| (layer, name, h))
    }

    /// Iterates `(layer, name, count)` for counters.
    pub fn iter_counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.counters.iter().map(|((layer, name), &c)| (layer, name, c))
    }

    /// Drops every recorded sample and counter (e.g. at the start of a
    /// measurement window).
    pub fn clear(&mut self) {
        self.net.clear();
        self.cpu.clear();
        self.hists.clear();
        self.counters.clear();
        self.gauges.clear();
    }
}

/// Serializes spans as a Chrome `trace_event` JSON document (complete `"X"`
/// events, microsecond timestamps, `tid` = node id). Load the result in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = s.start.as_nanos() as f64 / 1e3;
        let dur = s.duration().as_nanos() as f64 / 1e3;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{}",
            escape(s.name),
            escape(s.cat),
            s.node,
            s.id.0,
            s.parent.0,
        ));
        if let Some(arg) = &s.arg {
            out.push_str(&format!(",\"detail\":\"{}\"", escape(arg)));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_free_and_returns_none() {
        let mut t = Tracer::default();
        let id = t.start("op", "op", SpanId::NONE, 0, SimTime::ZERO);
        assert_eq!(id, SpanId::NONE);
        t.end(id, SimTime::from_millis(1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_record_parentage_and_duration() {
        let mut t = Tracer::default();
        t.enable();
        let root = t.start("op", "op", SpanId::NONE, 1, SimTime::ZERO);
        let child = t.complete("hop", "net", root, 2, SimTime::ZERO, SimTime::from_nanos(200_000));
        t.end(root, SimTime::from_millis(1));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].duration(), SimDuration::from_millis(1));
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].id, child);
    }

    #[test]
    fn registry_aggregates_per_key() {
        let mut m = MetricsRegistry::default();
        m.record_net(AzId(0), AzId(1), 256, SimDuration::from_micros(180));
        m.record_net(AzId(0), AzId(1), 128, SimDuration::from_micros(190));
        m.record_cpu("nn", "worker", SimDuration::ZERO, SimDuration::from_micros(50));
        m.record_hist("ndb", "lock_wait_ns", 1_000);
        m.inc("client", "retries", 2);
        assert_eq!(m.net_bytes(AzId(0), AzId(1)), 384);
        assert_eq!(m.net_transit(AzId(0), AzId(1)).unwrap().count(), 2);
        assert_eq!(m.counter("client", "retries"), 2);
        assert_eq!(m.hist("ndb", "lock_wait_ns").unwrap().count(), 1);
        assert_eq!(m.iter_cpu().count(), 1);
        m.clear();
        assert_eq!(m.iter_net().count(), 0);
        assert_eq!(m.counter("client", "retries"), 0);
    }

    #[test]
    fn gauges_track_current_and_high_water() {
        let mut m = MetricsRegistry::default();
        assert_eq!(m.gauge("namenode", "worker_queue_ns"), (0, 0));
        m.set_gauge("namenode", "worker_queue_ns", 500);
        m.set_gauge("namenode", "worker_queue_ns", 120);
        assert_eq!(m.gauge("namenode", "worker_queue_ns"), (120, 500));
        let all: Vec<_> = m.iter_gauges().collect();
        assert_eq!(all, vec![("namenode", "worker_queue_ns", 120, 500)]);
        m.clear();
        assert_eq!(m.gauge("namenode", "worker_queue_ns"), (0, 0));
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let mut t = Tracer::default();
        t.enable();
        let root = t.start("create\"File", "op", SpanId::NONE, 3, SimTime::from_nanos(1_000));
        t.set_arg(root, "az0->az1".to_string());
        t.end(root, SimTime::from_nanos(5_000));
        let json = chrome_trace_json(t.spans());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("create\\\"File"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"dur\":4.000"));
    }
}
