//! # hopsfs — HopsFS and HopsFS-CL: AZ-aware distributed hierarchical file system
//!
//! A from-scratch Rust reproduction of the system from *"Distributed
//! Hierarchical File Systems strike back in the Cloud"* (ICDCS 2020): HopsFS
//! — an HDFS derivative whose metadata lives fully normalized in an NDB
//! database — redesigned as **HopsFS-CL** with availability-zone awareness
//! at all three layers:
//!
//! - **metadata storage** ([`ndb`]): node groups spanning AZs, Read Backup /
//!   fully replicated tables, AZ-aware transaction-coordinator selection;
//! - **metadata serving** ([`namenode`]): stateless namenodes executing file
//!   system operations as NDB transactions with hierarchical locking, an
//!   NDB-backed leader election that reports each NN's `locationDomainId`,
//!   and an AZ-local client selection policy ([`client`]);
//! - **block storage** ([`block`]): replicated block datanodes with AZ-aware
//!   placement ([`placement`]) and leader-driven re-replication; files under
//!   128 KB live inline in the metadata layer.
//!
//! Deploy a full simulated cluster with [`deploy::build_fs_cluster`] and
//! drive it with client sessions; see the `workload` crate for the paper's
//! Spotify-trace and micro-benchmark drivers, and the `bench` crate for the
//! experiments that regenerate the paper's figures.

#![warn(missing_docs)]

pub mod block;
pub mod chaos;
pub mod client;
pub mod cloudstore;
pub mod config;
pub mod deploy;
pub mod elastic;
pub mod hintcache;
pub mod lease;
pub mod meta;
pub mod namenode;
pub mod openloop;
pub mod ops;
pub mod path;
pub mod placement;
mod session;
pub mod testkit;
pub mod types;
pub mod view;

pub use chaos::{
    audit_ops, check_invariants, epoch_routing, fragment_divergence, lease_coherence,
    recovering_read_violations, shed_audit, ChaosLog, InvariantReport, ShedAudit, TrackedSource,
};
pub use client::{ClientStats, FsClientActor, OpSource, ScriptedSource};
pub use config::{
    AdmissionConfig, BlockBackend, ElasticConfig, FsConfig, LeaseConfig, PlacementPolicy,
};
pub use deploy::{build_fs_cluster, FsCluster};
pub use elastic::{ElasticController, ElasticStats, NnPoolState};
pub use hintcache::HintCache;
pub use lease::{LeaseCache, LeaseGrant, LeaseMonitor, LeaseTable, MutationNotice};
pub use namenode::{NameNodeActor, NnStats};
pub use openloop::OpenLoopClientActor;
pub use ops::{FsOp, FsRequest, FsResponse, OpKind};
pub use path::FsPath;
pub use types::{DirEntry, FsError, FsOk, FsResult, InodeAttrs, InodeId};
pub use view::FsView;
