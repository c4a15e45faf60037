//! Partitioned in-memory columnar storage.
//!
//! The paper's deployment target stores data as large immutable partitions
//! (SCOPE extents / HDFS blocks, tens to hundreds of MB). All PS3 needs from
//! the storage layer is:
//!
//! * typed, named columns ([`schema`], [`mod@column`]),
//! * a table abstraction over them ([`table`]),
//! * a division of the row space into contiguous partitions ([`partition`]),
//! * the ability to materialize different *data layouts* — the order rows
//!   were ingested in — without changing partition boundaries ([`layout`]),
//! * the on-disk artifact container ([`mod@format`]) and the one little-endian
//!   byte reader/writer every artifact section and wire frame is encoded
//!   with ([`codec`]).
//!
//! Everything downstream (sketches, features, the picker) treats a partition
//! as an opaque unit that is either read entirely or not at all, exactly as
//! the paper does.

pub mod codec;
pub mod column;
pub mod format;
pub mod layout;
pub mod mmap;
pub mod partition;
pub mod schema;
pub mod table;
pub mod value;

pub use column::{chunks64, ColumnData, Dictionary, CHUNK_ROWS};
pub use format::{Artifact, ArtifactWriter, FormatError};
pub use layout::Layout;
pub use mmap::{Bytes, Mmap};
pub use partition::{PartitionId, PartitionedTable, Partitioning};
pub use schema::{ColId, ColumnMeta, ColumnType, Schema};
pub use table::Table;
pub use value::Value;
