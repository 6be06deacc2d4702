#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Stable storage substrate for agent-server recovery.
//!
//! The AAA MOM is fault-tolerant: agents are persistent, reactions are
//! atomic, and each server keeps "a persistent image of the matrix on each
//! server in order to recover communication in case of failure" (§3). The
//! paper specifically calls the resulting disk I/O one of the two costs the
//! domain decomposition reduces.
//!
//! This crate provides the storage the reproduction needs:
//!
//! - [`StableStore`] — a key-value store for snapshots (server
//!   checkpoints), with [`MemoryStore`] and [`DirStore`] (one file per
//!   key, replaced atomically and fsynced) implementations;
//! - [`Journal`] — the on-disk record log: durable, bounded,
//!   TTL-retained delivery streams plus one write-only state stream in
//!   one set of checksummed segments, group-committed by one `fdatasync`
//!   per [`Journal::sync`], with a crash-safe compaction pass. Segments
//!   are kept zero-filled ahead of their tail and written in place, so a
//!   commit's `fdatasync` flushes data and, once per 64 KiB step only,
//!   the file's size and extents. Each relay in `aaa-mom` keeps all its subscriber queues and its
//!   server's state records in one; [`SegmentQueue`] is its single-stream
//!   face, committed after every operation;
//! - [`crc32c`] — the CRC-32C every journal record and checkpoint
//!   carries;
//! - [`StorageStats`] — byte-exact write/read accounting shared by all
//!   backends (record bytes: a journal's zero fill is not counted), so
//!   experiments can report persistence traffic per message
//!   (experiment X2 of DESIGN.md).
//!
//! # Example
//!
//! ```
//! use aaa_storage::{MemoryStore, StableStore};
//!
//! let store = MemoryStore::new();
//! store.put("matrix/d0", b"...cells...")?;
//! assert_eq!(store.get("matrix/d0")?.as_deref(), Some(&b"...cells..."[..]));
//! assert_eq!(store.stats().bytes_written(), 11);
//! # Ok::<(), aaa_base::Error>(())
//! ```

mod crc;
mod file;
mod memory;
mod queue;
mod stats;

pub use crc::crc32c;
pub use file::DirStore;
pub use memory::MemoryStore;
pub use queue::{CompactionReport, Journal, QueueConfig, QueueEntry, SegmentQueue, SyncPolicy};
pub use stats::StorageStats;

use aaa_base::Result;

/// A durable key-value store.
///
/// Implementations must make [`StableStore::put`] atomic per key: after a
/// crash, [`StableStore::get`] returns either the previous or the new
/// value, never a mixture. A durable implementation also makes the new
/// value survive power loss before `put` returns `Ok`. Methods take
/// `&self`; implementations are internally synchronized so a store can be
/// shared across server threads.
pub trait StableStore: Send + Sync {
    /// Stores `value` under `key`, replacing any previous value.
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Storage`] if the backing medium fails.
    fn put(&self, key: &str, value: &[u8]) -> Result<()>;

    /// Fetches the value stored under `key`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Storage`] if the backing medium fails.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;

    /// Removes `key` if present; removing an absent key is not an error.
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Storage`] if the backing medium fails.
    fn remove(&self, key: &str) -> Result<()>;

    /// Lists the stored keys, in unspecified order.
    ///
    /// # Errors
    ///
    /// Returns [`aaa_base::Error::Storage`] if the backing medium fails.
    fn keys(&self) -> Result<Vec<String>>;

    /// The write/read accounting for this store.
    fn stats(&self) -> &StorageStats;
}
