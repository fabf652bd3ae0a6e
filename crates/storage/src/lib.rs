//! # aio-storage — the relational storage substrate
//!
//! In-memory relations, schemas, indexes, a catalog with temporary tables,
//! and a simulated write-ahead log. This is the bottom layer of the
//! `all-in-one` reproduction of *"All-in-One: Graph Processing in RDBMSs
//! Revisited"* (Zhao & Yu, SIGMOD 2017): everything above it — relational
//! algebra, the four new operations, the with+ engine — manipulates the
//! [`Relation`]s and [`Catalog`] defined here.
//!
//! Graphs are stored exactly as the paper stores them (Section 4): a node
//! relation `V(ID, vw)` and an edge relation `E(F, T, ew)` with `(F, T)` as
//! the primary key, which double as the relation representations of the
//! node vector and adjacency matrix.

pub mod cache;
pub mod catalog;
pub mod column;
pub mod error;
pub mod hash;
pub mod index;
pub mod keyidx;
pub mod mvcc;
pub mod recover;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod trie;
pub mod value;
pub mod vfs;
pub mod wal;

pub use cache::IndexCache;
pub use catalog::{Catalog, CheckpointStats, TableEntry};
pub use column::{Batch, ColumnBuilder, ColumnVec, NullMask, StringTable, GATHER_NULL};
pub use error::{Result, StorageError};
pub use hash::{FxHashMap, FxHashSet};
pub use index::{HashIndex, SortedIndex};
pub use keyidx::{key_has_null, key_hash, keys_eq, KeyDict, KeyIndex};
pub use mvcc::{GenerationHub, PinnedSnapshot, Snapshot};
pub use recover::{open_catalog, InterruptedRun, RecoveryReport};
pub use relation::{edge_schema, node_schema, ColumnSketch, Key, Relation, RelationStats, Row};
pub use schema::{Column, DataType, Schema};
pub use trie::{TrieCursor, TrieIndex};
pub use value::Value;
pub use vfs::{SimVfs, StdVfs, UnsyncedFate, Vfs};
pub use wal::{CommitKind, Durability, Wal, WalPolicy, WalRecord};
