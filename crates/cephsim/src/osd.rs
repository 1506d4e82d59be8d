//! Object storage daemons: the disk layer under the MDS journal.
//!
//! In the paper's HA setup the metadata pool is replicated ×3 across AZs; a
//! journal write therefore lands on a primary OSD and two replicas in other
//! AZs before it is acknowledged.

use simnet::{Actor, Ctx, DiskOp, NodeId, Payload, SimDuration};

/// Lane-class name of the OSD worker pool.
pub const OSD_LANE: &str = "osd";

/// MDS → OSD (or OSD → replica OSD): persist journal bytes.
#[derive(Debug, Clone, Copy)]
pub struct OsdWrite {
    /// Bytes to persist.
    pub bytes: u64,
}

/// Internal: primary → replica OSD replication write.
#[derive(Debug, Clone, Copy)]
pub struct OsdReplWrite {
    /// Bytes to persist.
    pub bytes: u64,
    /// Where the final ack should go.
    pub origin: NodeId,
    /// Primary waiting for this replica.
    pub primary: NodeId,
}

/// Replica → primary: replica persisted.
#[derive(Debug, Clone, Copy)]
pub struct OsdReplAck {
    /// Bytes persisted.
    pub bytes: u64,
    /// Original writer.
    pub origin: NodeId,
}

/// OSD → MDS: write fully replicated and persisted.
#[derive(Debug, Clone, Copy)]
pub struct OsdWriteAck {
    /// Bytes acknowledged.
    pub bytes: u64,
}

/// The OSD actor.
pub struct OsdActor {
    /// My OSD index.
    pub my_idx: usize,
    /// Replica OSDs (in other AZs) this primary copies writes to.
    pub replicas: Vec<NodeId>,
    /// Outstanding replica acks per (origin, bytes) — simplified tally.
    pending_repl: Vec<(NodeId, u64, usize)>,
    /// Total journal bytes accepted as primary.
    pub bytes_primary: u64,
}

impl OsdActor {
    /// Creates OSD `my_idx` with its replication targets.
    pub fn new(my_idx: usize, replicas: Vec<NodeId>) -> Self {
        OsdActor { my_idx, replicas, pending_repl: Vec::new(), bytes_primary: 0 }
    }
}

impl Actor for OsdActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<OsdWrite>() {
            Ok(m) => {
                self.bytes_primary += m.bytes;
                ctx.execute(OSD_LANE, SimDuration::from_micros(50));
                let done = ctx.disk_io(DiskOp::Write, m.bytes);
                if self.replicas.is_empty() {
                    ctx.send_sized_from(done, from, 64, OsdWriteAck { bytes: m.bytes });
                } else {
                    let me = ctx.me();
                    for &r in &self.replicas {
                        ctx.send_sized_from(
                            done,
                            r,
                            m.bytes,
                            OsdReplWrite { bytes: m.bytes, origin: from, primary: me },
                        );
                    }
                    self.pending_repl.push((from, m.bytes, self.replicas.len()));
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<OsdReplWrite>() {
            Ok(m) => {
                ctx.execute(OSD_LANE, SimDuration::from_micros(50));
                let done = ctx.disk_io(DiskOp::Write, m.bytes);
                ctx.send_sized_from(done, m.primary, 64, OsdReplAck { bytes: m.bytes, origin: m.origin });
                return;
            }
            Err(m) => m,
        };
        match any.downcast::<OsdReplAck>() {
            Ok(m) => {
                if let Some(pos) = self
                    .pending_repl
                    .iter()
                    .position(|&(o, b, _)| o == m.origin && b == m.bytes)
                {
                    self.pending_repl[pos].2 -= 1;
                    if self.pending_repl[pos].2 == 0 {
                        let (origin, bytes, _) = self.pending_repl.remove(pos);
                        ctx.send_sized(origin, 64, OsdWriteAck { bytes });
                    }
                }
            }
            Err(m) => debug_assert!(false, "osd got unknown message {m:?}"),
        }
    }
}
