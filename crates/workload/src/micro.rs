//! Single-operation micro-benchmarks (the paper's Figure 7 and Figure 9
//! workloads): mkdir, createFile, readFile, deleteFile.

use crate::namespace::Namespace;
use hopsfs::client::OpSource;
use hopsfs::{FsOp, FsPath};
use rand::rngs::StdRng;
use simnet::SimTime;
use std::sync::Arc;

/// Which single operation the session repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// `mkdir` of fresh directories.
    Mkdir,
    /// `createFile` of fresh empty files.
    Create,
    /// `readFile` (open) of existing files.
    Read,
    /// `deleteFile` of pre-created files.
    Delete,
    /// Subtree micro-op: repeatedly grow a small directory tree, rename it,
    /// and remove it with a recursive delete — exercising the subtree
    /// operations protocol (lock, batched transactions, closing rename or
    /// delete). Not part of [`MicroOp::ALL`] (it is not one of the paper's
    /// Figure 7 single-call benchmarks); select it explicitly.
    Subtree,
}

impl MicroOp {
    /// All micro-benchmarks in the paper's Figure 7 order.
    pub const ALL: [MicroOp; 4] = [MicroOp::Mkdir, MicroOp::Create, MicroOp::Delete, MicroOp::Read];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            MicroOp::Mkdir => "mkdir",
            MicroOp::Create => "createFile",
            MicroOp::Read => "readFile",
            MicroOp::Delete => "deleteFile",
            MicroOp::Subtree => "subtreeOps",
        }
    }
}

/// A micro-benchmark session.
pub struct MicroSource {
    op: MicroOp,
    ns: Arc<Namespace>,
    private_dir: String,
    /// Queued ops of the current `Subtree` round.
    round: std::collections::VecDeque<FsOp>,
    seq: u64,
    /// For `Delete`: number of pre-created files available (created at bulk
    /// load under the private dir as `p0..p{n-1}`); the session ends when
    /// they run out.
    pub precreated: u64,
    /// Stop after this many ops (`None` = until exhausted/forever).
    pub max_ops: Option<u64>,
    issued: u64,
}

impl MicroSource {
    /// Creates a session. For `Delete`, pre-create `precreated` files named
    /// `{private_dir}/p{i}` at bulk-load time (see
    /// [`MicroSource::precreate_paths`]).
    pub fn new(op: MicroOp, ns: Arc<Namespace>, session_id: u64, precreated: u64) -> Self {
        MicroSource {
            op,
            ns,
            private_dir: Self::private_dir_for(session_id),
            round: std::collections::VecDeque::new(),
            seq: 0,
            precreated,
            max_ops: None,
            issued: 0,
        }
    }

    /// The session's private directory (pre-create at bulk load).
    pub fn private_dir_for(session_id: u64) -> String {
        format!("/micro/s{session_id}")
    }

    /// Paths to pre-create for a `Delete` session.
    pub fn precreate_paths(session_id: u64, n: u64) -> impl Iterator<Item = String> {
        let dir = Self::private_dir_for(session_id);
        (0..n).map(move |i| format!("{dir}/p{i}"))
    }
}

impl OpSource for MicroSource {
    fn next_op(&mut self, rng: &mut StdRng, _now: SimTime) -> Option<FsOp> {
        if let Some(max) = self.max_ops {
            if self.issued >= max {
                return None;
            }
        }
        self.issued += 1;
        let p = |s: &str| FsPath::parse(s).expect("generated paths are valid");
        let op = match self.op {
            MicroOp::Mkdir => {
                self.seq += 1;
                FsOp::Mkdir { path: p(&format!("{}/d{}", self.private_dir, self.seq)) }
            }
            MicroOp::Create => {
                self.seq += 1;
                FsOp::Create { path: p(&format!("{}/f{}", self.private_dir, self.seq)), size: 0 }
            }
            MicroOp::Read => FsOp::Open { path: p(self.ns.sample_file(rng)) },
            MicroOp::Delete => {
                if self.seq >= self.precreated {
                    return None;
                }
                let path = format!("{}/p{}", self.private_dir, self.seq);
                self.seq += 1;
                FsOp::Delete { path: p(&path), recursive: false }
            }
            MicroOp::Subtree => {
                // One round = grow a two-level tree, rename it, recursively
                // delete it. Each call emits the round's next op.
                if self.round.is_empty() {
                    self.seq += 1;
                    let (d, n) = (&self.private_dir, self.seq);
                    self.round.extend([
                        FsOp::Mkdir { path: p(&format!("{d}/t{n}")) },
                        FsOp::Mkdir { path: p(&format!("{d}/t{n}/s")) },
                        FsOp::Create { path: p(&format!("{d}/t{n}/a")), size: 0 },
                        FsOp::Create { path: p(&format!("{d}/t{n}/s/b")), size: 0 },
                        FsOp::Rename { src: p(&format!("{d}/t{n}")), dst: p(&format!("{d}/m{n}")) },
                        FsOp::Delete { path: p(&format!("{d}/m{n}")), recursive: true },
                    ]);
                }
                self.round.pop_front().expect("round queued")
            }
        };
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::NamespaceSpec;
    use hopsfs::OpKind;
    use rand::SeedableRng;

    fn ns() -> Arc<Namespace> {
        Arc::new(Namespace::generate(&NamespaceSpec::default()))
    }

    #[test]
    fn each_micro_op_emits_its_kind() {
        let mut rng = StdRng::seed_from_u64(1);
        for (op, kind) in [
            (MicroOp::Mkdir, OpKind::Mkdir),
            (MicroOp::Create, OpKind::Create),
            (MicroOp::Read, OpKind::Open),
        ] {
            let mut s = MicroSource::new(op, ns(), 1, 0);
            for _ in 0..10 {
                assert_eq!(s.next_op(&mut rng, SimTime::ZERO).unwrap().kind(), kind);
            }
        }
    }

    #[test]
    fn create_paths_are_unique() {
        let mut s = MicroSource::new(MicroOp::Create, ns(), 2, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = simnet::FxHashSet::default();
        for _ in 0..100 {
            let op = s.next_op(&mut rng, SimTime::ZERO).unwrap();
            assert!(seen.insert(op.path().to_string()), "duplicate create path");
        }
    }

    /// A `Subtree` round is self-contained: everything it grows is under
    /// one fresh root, the root is renamed once, and the renamed root is
    /// removed by exactly one recursive delete.
    #[test]
    fn subtree_rounds_are_self_contained() {
        let mut s = MicroSource::new(MicroOp::Subtree, ns(), 4, 0);
        let mut rng = StdRng::seed_from_u64(1);
        for round in 1..=5u64 {
            let ops: Vec<FsOp> = (0..6).map(|_| s.next_op(&mut rng, SimTime::ZERO).unwrap()).collect();
            let root = format!("/micro/s4/t{round}");
            let moved = format!("/micro/s4/m{round}");
            assert!(ops[..4].iter().all(|o| o.path().to_string().starts_with(&root)));
            assert!(
                matches!(&ops[4], FsOp::Rename { src, dst }
                    if src.to_string() == root && dst.to_string() == moved),
                "round {round}: {:?}",
                ops[4]
            );
            assert!(
                matches!(&ops[5], FsOp::Delete { path, recursive: true }
                    if path.to_string() == moved),
                "round {round}: {:?}",
                ops[5]
            );
        }
    }

    #[test]
    fn delete_consumes_precreated_then_ends() {
        let mut s = MicroSource::new(MicroOp::Delete, ns(), 3, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let expected: Vec<String> = MicroSource::precreate_paths(3, 4).collect();
        for want in &expected {
            let op = s.next_op(&mut rng, SimTime::ZERO).unwrap();
            assert_eq!(&op.path().to_string(), want);
        }
        assert!(s.next_op(&mut rng, SimTime::ZERO).is_none());
    }
}
