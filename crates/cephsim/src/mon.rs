//! The monitor: runs the dynamic subtree balancer (Weil et al.'s dynamic
//! metadata partitioning, simplified to its load-driven essence).

use crate::config::BalanceMode;
use crate::mds::{MdsLoad, SubtreeMigrate};
use crate::namespace::SubtreeMap;
use simnet::{Actor, Ctx, NodeId, Payload, SimDuration};
use std::sync::Mutex;
use std::sync::Arc;

/// Dynamic balancer period.
const BALANCE_INTERVAL: SimDuration = SimDuration::from_millis(250);

#[derive(Debug, Clone)]
struct TickBalance;

/// The monitor actor.
pub struct MonActor {
    map: Arc<Mutex<SubtreeMap>>,
    mds_ids: Vec<NodeId>,
    mode: BalanceMode,
    /// Last reported request rate per MDS.
    loads: Vec<u64>,
    /// Last reported hot dirs per MDS.
    hot: Vec<Vec<(String, u64)>>,
    /// Balancing decisions made.
    pub migrations: u64,
}

impl MonActor {
    /// Creates the monitor.
    pub fn new(map: Arc<Mutex<SubtreeMap>>, mds_ids: Vec<NodeId>, mode: BalanceMode) -> Self {
        let n = mds_ids.len();
        MonActor { map, mds_ids, mode, loads: vec![0; n], hot: vec![Vec::new(); n], migrations: 0 }
    }

    fn rebalance(&mut self, ctx: &mut Ctx<'_>) {
        if self.mode != BalanceMode::Dynamic || self.mds_ids.len() < 2 {
            return;
        }
        // Move up to a few subtrees per round: the real balancer migrates a
        // handful of dirfrags per tick, which is what leaves it imperfectly
        // balanced at scale (the sub-linear "CephFS" curve in Figure 5).
        for _ in 0..32 {
            let (max_idx, &max_load) =
                self.loads.iter().enumerate().max_by_key(|&(_, &l)| l).expect("non-empty");
            let (min_idx, &min_load) =
                self.loads.iter().enumerate().min_by_key(|&(_, &l)| l).expect("non-empty");
            // Rebalance while the hottest MDS carries meaningfully more load.
            if max_load < 50 || max_load * 10 < min_load.max(1) * 13 {
                return;
            }
            // Export the hottest subtree of the overloaded MDS that isn't
            // everything it serves (keep at least its top dir).
            let candidate = {
                let map = self.map.lock().unwrap();
                self.hot[max_idx]
                    .iter()
                    .find(|(dir, count)| {
                        // Don't move a dir that is already most of the load
                        // (it would just move the hotspot); only move dirs
                        // this MDS actually owns.
                        map.owner_of(dir) == max_idx && *count * 2 < max_load + 1
                    })
                    .or_else(|| {
                        self.hot[max_idx].iter().find(|(dir, _)| map.owner_of(dir) == max_idx)
                    })
                    .map(|(dir, count)| (dir.clone(), *count))
            };
            // A prefix that alone dominates its MDS cannot be moved usefully:
            // replicate its metadata so every MDS can serve its reads
            // (CephFS's hot-dirfrag replication).
            {
                let hot_unsplittable: Vec<String> = {
                    let map = self.map.lock().unwrap();
                    self.hot[max_idx]
                        .iter()
                        .filter(|(dir, count)| {
                            dir != "/"
                                && map.owner_of(dir) == max_idx
                                && *count * 2 > max_load
                                && !map.is_replicated(dir)
                        })
                        .map(|(d, _)| d.clone())
                        .collect()
                };
                for dir in hot_unsplittable {
                    self.map.lock().unwrap().replicate(&dir);
                    self.migrations += 1;
                    ctx.send_sized(self.mds_ids[max_idx], 64, SubtreeMigrate);
                }
            }
            match candidate {
                Some((dir, count)) if dir != "/" => {
                    self.map.lock().unwrap().assign(&dir, min_idx);
                    self.migrations += 1;
                    // Update the local estimate so further moves this round
                    // pick different targets.
                    self.loads[max_idx] = self.loads[max_idx].saturating_sub(count);
                    self.loads[min_idx] += count;
                    self.hot[max_idx].retain(|(d, _)| d != &dir);
                    ctx.send_sized(self.mds_ids[max_idx], 64, SubtreeMigrate);
                    ctx.send_sized(self.mds_ids[min_idx], 64, SubtreeMigrate);
                }
                _ => return,
            }
        }
    }
}

impl Actor for MonActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(BALANCE_INTERVAL, TickBalance);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<MdsLoad>() {
            Ok(m) => {
                if m.mds_idx < self.loads.len() {
                    self.loads[m.mds_idx] = m.requests;
                    self.hot[m.mds_idx] = m.hot_dirs;
                }
                return;
            }
            Err(m) => m,
        };
        match any.downcast::<TickBalance>() {
            Ok(_) => {
                self.rebalance(ctx);
                ctx.schedule(BALANCE_INTERVAL, TickBalance);
            }
            Err(m) => debug_assert!(false, "mon got unknown message {m:?}"),
        }
    }
}
