//! Equivalence of [`MetricsRegistry`] with a plain ordered-map model.
//!
//! The registry stores metrics in slots resolved once per key. Random
//! interleavings of every recording, clearing and merging call must leave it
//! answering every query exactly as a registry of `BTreeMap`s keyed by
//! string content would — including for keys whose strings are equal but
//! live at different addresses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{AzId, Histogram, MetricsRegistry, SimDuration};
use std::collections::BTreeMap;

type Key = (&'static str, &'static str);

/// The reference: one ordered map per family, entries created on first
/// write, removed by `clear` and by being drained in a merge.
#[derive(Default)]
struct Model {
    net: BTreeMap<(u8, u8), (Vec<u64>, u64)>,
    cpu: BTreeMap<Key, (Vec<u64>, Vec<u64>)>,
    hists: BTreeMap<Key, Vec<u64>>,
    counters: BTreeMap<Key, u64>,
    /// `(current, high_water)`. Every write carries the same dispatch stamp
    /// outside the kernel, so a merge's incoming value wins.
    gauges: BTreeMap<Key, (u64, u64)>,
}

impl Model {
    fn merge_from(&mut self, other: &mut Model) {
        for (k, (t, b)) in std::mem::take(&mut other.net) {
            let e = self.net.entry(k).or_default();
            e.0.extend(t);
            e.1 += b;
        }
        for (k, (q, s)) in std::mem::take(&mut other.cpu) {
            let e = self.cpu.entry(k).or_default();
            e.0.extend(q);
            e.1.extend(s);
        }
        for (k, v) in std::mem::take(&mut other.hists) {
            self.hists.entry(k).or_default().extend(v);
        }
        for (k, c) in std::mem::take(&mut other.counters) {
            *self.counters.entry(k).or_default() += c;
        }
        for (k, (cur, hi)) in std::mem::take(&mut other.gauges) {
            let g = self.gauges.entry(k).or_insert((cur, 0));
            g.0 = cur;
            g.1 = g.1.max(hi);
        }
    }

    fn clear(&mut self) {
        *self = Model::default();
    }
}

/// A histogram summary precise enough to tell any two sample sets apart
/// that the queries could distinguish.
fn summary(h: &Histogram) -> Vec<u64> {
    let mut out = vec![h.count(), h.min(), h.max(), h.mean().to_bits()];
    out.extend([0.5, 0.99].map(|q| h.quantile(q)));
    out
}

fn summary_of(samples: &[u64]) -> Vec<u64> {
    let mut h = Histogram::new();
    samples.iter().for_each(|&v| h.record(v));
    summary(&h)
}

fn assert_same(reg: &MetricsRegistry, model: &Model, probe: &[Key]) {
    let net: Vec<_> = reg.iter_net().map(|(s, d, h, b)| ((s.0, d.0), summary(h), b)).collect();
    let want: Vec<_> = model.net.iter().map(|(&k, (t, b))| (k, summary_of(t), *b)).collect();
    assert_eq!(net, want, "iter_net");
    for a in 0..4u8 {
        for b in 0..4u8 {
            let m = model.net.get(&(a, b));
            assert_eq!(reg.net_bytes(AzId(a), AzId(b)), m.map_or(0, |e| e.1));
            assert_eq!(reg.net_transit(AzId(a), AzId(b)).map(summary), m.map(|e| summary_of(&e.0)));
        }
    }
    let cpu: Vec<_> =
        reg.iter_cpu().map(|(l, n, m)| (l, n, summary(&m.queue), summary(&m.service))).collect();
    let want: Vec<_> =
        model.cpu.iter().map(|(&(l, n), (q, s))| (l, n, summary_of(q), summary_of(s))).collect();
    assert_eq!(cpu, want, "iter_cpu");
    let hists: Vec<_> = reg.iter_hists().map(|(l, n, h)| (l, n, summary(h))).collect();
    let want: Vec<_> = model.hists.iter().map(|(&(l, n), v)| (l, n, summary_of(v))).collect();
    assert_eq!(hists, want, "iter_hists");
    let counters: Vec<_> = reg.iter_counters().collect();
    let want: Vec<_> = model.counters.iter().map(|(&(l, n), &c)| (l, n, c)).collect();
    assert_eq!(counters, want, "iter_counters");
    let gauges: Vec<_> = reg.iter_gauges().collect();
    let want: Vec<_> = model.gauges.iter().map(|(&(l, n), &(c, h))| (l, n, c, h)).collect();
    assert_eq!(gauges, want, "iter_gauges");
    for &(l, n) in probe {
        assert_eq!(reg.hist(l, n).map(summary), model.hists.get(&(l, n)).map(|v| summary_of(v)));
        assert_eq!(reg.counter(l, n), model.counters.get(&(l, n)).copied().unwrap_or(0));
        assert_eq!(reg.gauge(l, n), model.gauges.get(&(l, n)).copied().unwrap_or((0, 0)));
    }
}

/// `s` again, at a fresh address.
fn leaked(s: &str) -> &'static str {
    Box::leak(s.to_owned().into_boxed_str())
}

#[test]
fn registry_matches_ordered_map_model_under_random_interleavings() {
    let mut layers: Vec<&'static str> = vec!["namenode", "ndb", "client", "nn"];
    let mut names: Vec<&'static str> = vec!["worker", "LDM", "TC", "op_retries", "lock_wait_ns"];
    // Same content, different addresses: must share the originals' slots.
    layers.extend(["namenode", "ndb"].map(leaked));
    names.extend(["worker", "op_retries", "lock_wait_ns"].map(leaked));
    let probe: Vec<Key> = layers.iter().flat_map(|&l| names.iter().map(move |&n| (l, n))).collect();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut regs = [MetricsRegistry::default(), MetricsRegistry::default()];
        let mut models = [Model::default(), Model::default()];
        for step in 0..300 {
            let i = rng.gen_range(0..2usize);
            let layer = layers[rng.gen_range(0..layers.len())];
            let key = (layer, names[rng.gen_range(0..names.len())]);
            let bits = rng.gen_range(1..40u32);
            let v = rng.gen_range(0..1u64 << bits);
            match rng.gen_range(0..100u32) {
                0..=19 => {
                    let (a, b) = (rng.gen_range(0..4u8), rng.gen_range(0..4u8));
                    let bytes = rng.gen_range(0..4096u64);
                    regs[i].record_net(AzId(a), AzId(b), bytes, SimDuration::from_nanos(v));
                    let e = models[i].net.entry((a, b)).or_default();
                    e.0.push(v);
                    e.1 += bytes;
                }
                20..=39 => {
                    let s = rng.gen_range(0..1_000_000u64);
                    regs[i].record_cpu(
                        key.0,
                        key.1,
                        SimDuration::from_nanos(v),
                        SimDuration::from_nanos(s),
                    );
                    let e = models[i].cpu.entry(key).or_default();
                    e.0.push(v);
                    e.1.push(s);
                }
                40..=54 => {
                    regs[i].record_hist(key.0, key.1, v);
                    models[i].hists.entry(key).or_default().push(v);
                }
                55..=69 => {
                    let n = rng.gen_range(0..3u64);
                    regs[i].inc(key.0, key.1, n);
                    *models[i].counters.entry(key).or_default() += n;
                }
                70..=84 => {
                    regs[i].set_gauge(key.0, key.1, v);
                    let g = models[i].gauges.entry(key).or_insert((0, 0));
                    g.0 = v;
                    g.1 = g.1.max(v);
                }
                85..=88 => {
                    regs[i].clear();
                    models[i].clear();
                }
                _ => {
                    let [r0, r1] = &mut regs;
                    let [m0, m1] = &mut models;
                    if i == 0 {
                        r0.merge_from(r1);
                        m0.merge_from(m1);
                    } else {
                        r1.merge_from(r0);
                        m1.merge_from(m0);
                    }
                }
            }
            if step % 20 == 19 {
                assert_same(&regs[0], &models[0], &probe);
                assert_same(&regs[1], &models[1], &probe);
            }
        }
    }
}
