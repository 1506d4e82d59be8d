//! # ndb — an NDB (MySQL Cluster)-like distributed in-memory database
//!
//! A from-scratch reimplementation, on the [`simnet`] simulation substrate,
//! of the metadata storage layer the HopsFS-CL paper (ICDCS 2020) builds on:
//!
//! - shared-nothing datanodes organized into **node groups**, with
//!   application-defined partitioning and distribution-aware transactions
//!   (§II-B1);
//! - strict two-phase row locking and the **non-blocking linear 2PC commit
//!   protocol** of Figure 2 (§II-B2);
//! - the paper's three NDB extensions (§IV-A): the `LocationDomainId`
//!   configuration parameter, the **Read Backup** table option (with the
//!   delayed client Ack), and the **Fully Replicated** table option;
//! - AZ-aware **proximity ordering** (§IV-A4) and the four-case
//!   **transaction coordinator selection policy** (§IV-A5);
//! - heartbeats, failure detection, backup→primary promotion, transaction
//!   timeouts (`TransactionInactiveTimeout`,
//!   `TransactionDeadlockDetectionTimeout`), and **arbitrator-based
//!   split-brain resolution** via management nodes (§IV-A2).
//!
//! The HopsFS crate stores its file-system metadata in these tables; the
//! `bench` crate measures the stack against the paper's figures.

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod config;
pub mod datanode;
pub mod deploy;
pub mod locks;
pub mod messages;
pub mod mgmt;
pub mod partition;
pub mod routing;
pub mod schema;
pub mod testkit;
pub mod view;

pub use client::{ClientKernel, TxEvent};
pub use config::{ClusterConfig, DatanodeSpec, ThreadConfig, Timeouts};
pub use datanode::{DatanodeActor, DnStats};
pub use deploy::{build_cluster, NdbCluster};
pub use locks::TxId;
pub use messages::{AbortReason, ReadSpec, ReconfigReq, WriteOp};
pub use partition::{PartitionId, PartitionMap};
pub use schema::{LockMode, PartitionKey, Row, RowKey, Schema, TableDef, TableId, TableOptions};
pub use view::ClusterView;
