//! The normalized metadata schema HopsFS stores in NDB, and the row codecs.
//!
//! Tables (primary keys chosen exactly like HopsFS so that transactions are
//! distribution-aware):
//!
//! | table        | partition key | suffix            | row                 |
//! |--------------|---------------|-------------------|---------------------|
//! | `inodes`     | parent inode  | entry name        | [`InodeRecord`]     |
//! | `blocks`     | file inode    | block index       | [`BlockRecord`]     |
//! | `replicas`   | file inode    | block id ∥ dn idx | [`ReplicaRecord`]   |
//! | `small_files`| file inode    | (empty)           | inline file bytes   |
//! | `dn_replicas`| datanode idx  | block id          | file inode (for re-replication) |
//! | `election`   | 0 (fully replicated) | namenode idx | [`NnRecord`]     |
//! | `sequences`  | 0 (fully replicated) | sequence name | next value       |
//! | `sto_locks`  | 0 (fully replicated) | subtree root id | [`StoRecord`]  |
//!
//! Partitioning inodes by **parent id** makes directory listings single-
//! partition scans, and blocks/replicas by **file inode** makes file reads
//! single-partition — the application-defined-partitioning design HopsFS
//! inherits from [Niazi et al., FAST'17].

use crate::types::{InodeAttrs, InodeId, Perm};
use bytes::Bytes;
use ndb::codec::{Dec, Enc};
use ndb::{RowKey, Schema, TableId, TableOptions};

/// Table ids of the HopsFS schema within the NDB schema.
#[derive(Debug, Clone, Copy)]
pub struct FsSchema {
    /// Directory entries / inode attributes.
    pub inodes: TableId,
    /// Block metadata per file.
    pub blocks: TableId,
    /// Replica locations per block.
    pub replicas: TableId,
    /// Inline data of small files (< 128 KB), stored with the metadata.
    pub small_files: TableId,
    /// Reverse index datanode → blocks (drives re-replication).
    pub dn_replicas: TableId,
    /// Leader-election rows, one per namenode.
    pub election: TableId,
    /// Id-allocation sequences.
    pub sequences: TableId,
    /// On-going subtree operations, one row per STO-locked subtree root.
    /// Fully replicated so orphan detection is a single-partition scan
    /// (the HopsFS "on-going subtree ops" table, FAST'17 §3.6).
    pub sto_locks: TableId,
}

impl FsSchema {
    /// Registers the HopsFS tables in `schema`.
    ///
    /// With `az_aware` (HopsFS-CL) every table is Read Backup enabled
    /// (§IV-A5: "in HopsFS-CL, we ensure that all the tables are Read Backup
    /// enabled"); the election and sequence tables are additionally fully
    /// replicated (small, hot, read-mostly).
    pub fn register(schema: &mut Schema, az_aware: bool) -> FsSchema {
        let plain = TableOptions { read_backup: az_aware, fully_replicated: false };
        let full = TableOptions { read_backup: az_aware, fully_replicated: true };
        FsSchema {
            inodes: schema.add_table("inodes", plain),
            blocks: schema.add_table("blocks", plain),
            replicas: schema.add_table("replicas", plain),
            small_files: schema.add_table("small_files", plain),
            dn_replicas: schema.add_table("dn_replicas", plain),
            election: schema.add_table("election", full),
            sequences: schema.add_table("sequences", full),
            sto_locks: schema.add_table("sto_locks", full),
        }
    }

    /// Row key of a directory entry.
    pub fn inode_key(parent: InodeId, name: &str) -> RowKey {
        RowKey::with_suffix(parent.0, Bytes::copy_from_slice(name.as_bytes()))
    }

    /// Row key of a block row.
    pub fn block_key(file: InodeId, index: u64) -> RowKey {
        RowKey::with_u64(file.0, index)
    }

    /// Row key of a replica row.
    pub fn replica_key(file: InodeId, block: u64, dn_idx: u32) -> RowKey {
        let mut suffix = [0u8; 12];
        suffix[..8].copy_from_slice(&block.to_le_bytes());
        suffix[8..].copy_from_slice(&dn_idx.to_le_bytes());
        RowKey::with_suffix(file.0, Bytes::copy_from_slice(&suffix))
    }

    /// Row key of a small file's inline data.
    pub fn small_file_key(file: InodeId) -> RowKey {
        RowKey::simple(file.0)
    }

    /// Row key of the datanode→block reverse-index row.
    pub fn dn_replica_key(dn_idx: u32, block: u64) -> RowKey {
        RowKey::with_u64(dn_idx as u64, block)
    }

    /// Row key of a namenode's election row.
    pub fn election_key(nn_idx: u32) -> RowKey {
        RowKey::with_u64(0, nn_idx as u64)
    }

    /// Row key of a named id sequence.
    pub fn sequence_key(name: &str) -> RowKey {
        RowKey::with_suffix(0, Bytes::copy_from_slice(name.as_bytes()))
    }

    /// Row key of a subtree operation's lock row.
    pub fn sto_key(root: InodeId) -> RowKey {
        RowKey::with_u64(0, root.0)
    }
}

/// The inode row: attributes of one file or directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InodeRecord {
    /// Inode id (directory entries point at it; children key under it).
    pub id: u64,
    /// Directory flag.
    pub is_dir: bool,
    /// Permission bits.
    pub perm: u16,
    /// Owner id.
    pub owner: u32,
    /// Group id.
    pub group: u32,
    /// File size in bytes.
    pub size: u64,
    /// Modification time (virtual ns).
    pub mtime: u64,
    /// Block replication factor.
    pub replication: u8,
    /// Inline (small-file) data length; 0 when block-backed or directory.
    pub inline_len: u32,
    /// Number of blocks.
    pub block_count: u32,
    /// Subtree-operation lock flag: a recursive delete/rename is in flight
    /// on this directory; concurrent ops walking through it must back off.
    pub sto_locked: bool,
}

impl InodeRecord {
    /// A fresh directory record.
    pub fn dir(id: InodeId, now: u64) -> Self {
        InodeRecord {
            id: id.0,
            is_dir: true,
            perm: 0o755,
            owner: 0,
            group: 0,
            size: 0,
            mtime: now,
            replication: 0,
            inline_len: 0,
            block_count: 0,
            sto_locked: false,
        }
    }

    /// A fresh file record.
    pub fn file(id: InodeId, now: u64, replication: u8) -> Self {
        InodeRecord {
            id: id.0,
            is_dir: false,
            perm: 0o644,
            owner: 0,
            group: 0,
            size: 0,
            mtime: now,
            replication,
            inline_len: 0,
            block_count: 0,
            sto_locked: false,
        }
    }

    /// Encodes to a row payload.
    pub fn encode(&self) -> Bytes {
        let mut e = Enc::new();
        e.u64(self.id)
            .bool(self.is_dir)
            .u16(self.perm)
            .u32(self.owner)
            .u32(self.group)
            .u64(self.size)
            .u64(self.mtime)
            .u8(self.replication)
            .u32(self.inline_len)
            .u32(self.block_count)
            .bool(self.sto_locked);
        e.finish()
    }

    /// Decodes from a row payload.
    ///
    /// # Panics
    ///
    /// Panics on malformed rows (only this module produces them).
    pub fn decode(data: &[u8]) -> Self {
        let mut d = Dec::new(data);
        InodeRecord {
            id: d.u64(),
            is_dir: d.bool(),
            perm: d.u16(),
            owner: d.u32(),
            group: d.u32(),
            size: d.u64(),
            mtime: d.u64(),
            replication: d.u8(),
            inline_len: d.u32(),
            block_count: d.u32(),
            sto_locked: d.bool(),
        }
    }

    /// Converts to client-facing attributes.
    pub fn attrs(&self) -> InodeAttrs {
        InodeAttrs {
            id: InodeId(self.id),
            is_dir: self.is_dir,
            perm: Perm(self.perm),
            owner: self.owner,
            group: self.group,
            size: self.size,
            mtime: self.mtime,
            replication: self.replication,
            inline_len: self.inline_len,
        }
    }
}

/// The block row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// Globally unique block id.
    pub block_id: u64,
    /// Length in bytes.
    pub len: u64,
    /// Generation stamp.
    pub gen: u64,
}

impl BlockRecord {
    /// Encodes to a row payload.
    pub fn encode(&self) -> Bytes {
        let mut e = Enc::new();
        e.u64(self.block_id).u64(self.len).u64(self.gen);
        e.finish()
    }

    /// Decodes from a row payload.
    pub fn decode(data: &[u8]) -> Self {
        let mut d = Dec::new(data);
        BlockRecord { block_id: d.u64(), len: d.u64(), gen: d.u64() }
    }
}

/// The replica row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaRecord {
    /// Block id this replica belongs to.
    pub block_id: u64,
    /// Block-storage datanode index holding it.
    pub dn_idx: u32,
}

impl ReplicaRecord {
    /// Encodes to a row payload.
    pub fn encode(&self) -> Bytes {
        let mut e = Enc::new();
        e.u64(self.block_id).u32(self.dn_idx);
        e.finish()
    }

    /// Decodes from a row payload.
    pub fn decode(data: &[u8]) -> Self {
        let mut d = Dec::new(data);
        ReplicaRecord { block_id: d.u64(), dn_idx: d.u32() }
    }
}

/// A namenode's leader-election row (Niazi et al., "Leader election using
/// NewSQL database systems", extended with the paper's `locationDomainId`
/// reporting, §IV-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NnRecord {
    /// Namenode index.
    pub nn_idx: u32,
    /// Monotonic liveness counter, bumped every election round.
    pub counter: u64,
    /// The namenode's `locationDomainId` (255 = unset/vanilla).
    pub location_domain: u8,
    /// Simulation node id (so clients can address it).
    pub node_id: u32,
}

impl NnRecord {
    /// Encodes to a row payload.
    pub fn encode(&self) -> Bytes {
        let mut e = Enc::new();
        e.u32(self.nn_idx).u64(self.counter).u8(self.location_domain).u32(self.node_id);
        e.finish()
    }

    /// Decodes from a row payload.
    pub fn decode(data: &[u8]) -> Self {
        let mut d = Dec::new(data);
        NnRecord { nn_idx: d.u32(), counter: d.u64(), location_domain: d.u8(), node_id: d.u32() }
    }
}

/// An on-going subtree operation row. Written in the same small transaction
/// that sets the root inode's [`InodeRecord::sto_locked`] flag, and deleted
/// in the transaction that clears it. Carries the root's `(parent, name)`
/// entry key so a *different* namenode can find and rewrite the locked inode
/// row when cleaning up after the owner crashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoRecord {
    /// Subtree root inode id.
    pub inode: u64,
    /// Parent directory of the subtree root.
    pub parent: u64,
    /// Entry name of the subtree root under `parent`.
    pub name: String,
    /// Namenode index that owns the operation.
    pub owner_nn: u32,
}

impl StoRecord {
    /// Encodes to a row payload.
    pub fn encode(&self) -> Bytes {
        let mut e = Enc::new();
        e.u64(self.inode).u64(self.parent).str(&self.name).u32(self.owner_nn);
        e.finish()
    }

    /// Decodes from a row payload.
    pub fn decode(data: &[u8]) -> Self {
        let mut d = Dec::new(data);
        StoRecord { inode: d.u64(), parent: d.u64(), name: d.str(), owner_nn: d.u32() }
    }
}

/// Encodes a sequence row (next available value).
pub fn encode_sequence(next: u64) -> Bytes {
    let mut e = Enc::new();
    e.u64(next);
    e.finish()
}

/// Decodes a sequence row.
pub fn decode_sequence(data: &[u8]) -> u64 {
    Dec::new(data).u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_record_round_trip() {
        let r = InodeRecord {
            id: 42,
            is_dir: false,
            perm: 0o640,
            owner: 7,
            group: 8,
            size: 1 << 30,
            mtime: 123456789,
            replication: 3,
            inline_len: 1000,
            block_count: 9,
            sto_locked: false,
        };
        assert_eq!(InodeRecord::decode(&r.encode()), r);
        let locked = InodeRecord { sto_locked: true, ..r };
        assert_eq!(InodeRecord::decode(&locked.encode()), locked);
    }

    #[test]
    fn sto_record_round_trip() {
        let s = StoRecord { inode: 77, parent: 3, name: "victim".into(), owner_nn: 4 };
        assert_eq!(StoRecord::decode(&s.encode()), s);
    }

    #[test]
    fn block_and_replica_round_trip() {
        let b = BlockRecord { block_id: 5, len: 128 << 20, gen: 2 };
        assert_eq!(BlockRecord::decode(&b.encode()), b);
        let r = ReplicaRecord { block_id: 5, dn_idx: 3 };
        assert_eq!(ReplicaRecord::decode(&r.encode()), r);
    }

    #[test]
    fn nn_record_round_trip() {
        let n = NnRecord { nn_idx: 2, counter: 99, location_domain: 1, node_id: 77 };
        assert_eq!(NnRecord::decode(&n.encode()), n);
    }

    #[test]
    fn sequence_round_trip() {
        assert_eq!(decode_sequence(&encode_sequence(12345)), 12345);
    }

    #[test]
    fn keys_partition_by_the_right_column() {
        // Directory entries partition by parent: a listing is one partition.
        let k1 = FsSchema::inode_key(InodeId(10), "a");
        let k2 = FsSchema::inode_key(InodeId(10), "b");
        assert_eq!(k1.pk, k2.pk);
        // Blocks and replicas partition by file inode.
        assert_eq!(FsSchema::block_key(InodeId(5), 0).pk, FsSchema::replica_key(InodeId(5), 9, 1).pk);
    }

    #[test]
    fn register_sets_read_backup_only_when_az_aware() {
        for &aware in &[true, false] {
            let mut s = Schema::new();
            let fs = FsSchema::register(&mut s, aware);
            assert_eq!(s.table(fs.inodes).options.read_backup, aware);
            assert!(s.table(fs.election).options.fully_replicated);
            assert!(s.table(fs.sequences).options.fully_replicated);
            assert!(s.table(fs.sto_locks).options.fully_replicated);
        }
    }

    #[test]
    fn attrs_conversion() {
        let r = InodeRecord::dir(InodeId(3), 9);
        let a = r.attrs();
        assert!(a.is_dir);
        assert_eq!(a.id, InodeId(3));
        assert_eq!(a.mtime, 9);
    }
}
