//! Durable per-subscriber queues: append-only segments with TTL-bound
//! retention and a crash-safe compaction pass.
//!
//! The store-and-forward relay (see `aaa-mom`) journals every publication
//! destined for a subscriber *before* attempting delivery, so a subscriber
//! that is disconnected — or a relay that crashes mid-fan-out — never
//! loses a message or the causal stamp that orders it. Each subscriber
//! gets one [`SegmentQueue`]:
//!
//! - **Append-only segments.** Records carry a `u32` little-endian length
//!   prefix, so a torn final record from a crash mid-append is detected
//!   and ignored on recovery. Segments roll at a configured record count;
//!   the highest generation is the active tail.
//! - **Cumulative acks.** Delivery commits by journaling an `AckUpTo`
//!   record; acknowledged entries stay on disk until compaction reclaims
//!   them, so recovery replays at-least-once and the receiver's dedup map
//!   restores exactly-once.
//! - **TTL retention.** Entries older than `ttl_ticks` are no longer
//!   offered for delivery and are dropped (and counted) at compaction —
//!   the bound that keeps a forever-cold subscriber from pinning disk.
//! - **Crash-safe compaction.** [`SegmentQueue::compact`] rewrites the
//!   live suffix into a fresh highest-generation segment via
//!   tmp-write → fsync → rename → directory fsync, then deletes the old
//!   segments. A crash in any window leaves either the `.tmp` (ignored
//!   on open) or duplicate records across generations (deduplicated by
//!   sequence number on open), so recovery always reconstructs the same
//!   queue.
//! - **Sync policy.** Under the default [`SyncPolicy::Always`] every
//!   append is `fdatasync`ed and segment creation/rename is made
//!   durable with a directory fsync, so the journal survives OS crash
//!   and power loss — not just a process crash. [`SyncPolicy::OsBuffered`]
//!   trades that down to process-crash durability for throughput.
//!
//! The queue is sans-IO-adjacent: it is single-owner (`&mut self`
//! throughout, no locks) and all durability flows through one internal
//! `append_record` seed, which the `persist-before-deliver` audit rule
//! treats as a stable-store write.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use aaa_base::{Error, Result};

use crate::stats::StorageStats;

fn storage_err(context: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{context}: {e}"))
}

/// Record tags on disk. `Enqueue` carries a full entry; `AckUpTo` commits
/// cumulative delivery.
const TAG_ENQUEUE: u8 = 1;
const TAG_ACK_UP_TO: u8 = 2;

/// Shape of one segment file name: `seg-NNNNNN.q`.
const SEG_PREFIX: &str = "seg-";
const SEG_SUFFIX: &str = ".q";

/// How aggressively queue writes are pushed to stable storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` every appended record and fsync the queue directory
    /// around segment creation and the compaction rename: journaled
    /// entries survive an OS crash or power loss, not just a process
    /// crash. The default — the relay's journal-before-deliver guarantee
    /// is only as strong as the journal.
    #[default]
    Always,
    /// Leave writes in the OS page cache (no `fsync`). Entries survive a
    /// process crash but **not** an OS crash or power loss. For tests,
    /// simulators and deployments that accept replay loss in exchange
    /// for throughput.
    OsBuffered,
}

/// Retention and sizing policy of a [`SegmentQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum unacknowledged entries held; `enqueue` beyond this returns
    /// [`Error::Backpressure`] instead of growing without bound.
    pub max_depth: usize,
    /// Entries enqueued more than this many ticks ago are expired: no
    /// longer offered by [`SegmentQueue::pending`], reclaimed (and
    /// counted) by [`SegmentQueue::compact`]. `None` retains forever.
    pub ttl_ticks: Option<u64>,
    /// Records per segment before the active segment rolls.
    pub segment_max_records: usize,
    /// Durability of the journal against OS crash / power loss.
    pub sync: SyncPolicy,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            max_depth: 4096,
            ttl_ticks: None,
            segment_max_records: 1024,
            sync: SyncPolicy::Always,
        }
    }
}

/// One journaled publication awaiting acknowledged delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// Per-queue sequence number (1-based, dense).
    pub seq: u64,
    /// Enqueue time in the owner's tick domain (TTL reference).
    pub tick: u64,
    /// The wire causal stamp journaled with the payload (empty for
    /// stampless local publications); re-validated on redelivery.
    pub stamp: Vec<u8>,
    /// Opaque payload (the relay's encoded publication).
    pub payload: Vec<u8>,
}

impl QueueEntry {
    fn encoded(&self) -> Vec<u8> {
        let mut rec = Vec::with_capacity(1 + 8 + 8 + 4 + self.stamp.len() + 4 + self.payload.len());
        rec.push(TAG_ENQUEUE);
        rec.extend_from_slice(&self.seq.to_le_bytes());
        rec.extend_from_slice(&self.tick.to_le_bytes());
        let stamp_len = u32::try_from(self.stamp.len()).unwrap_or(u32::MAX);
        rec.extend_from_slice(&stamp_len.to_le_bytes());
        rec.extend_from_slice(&self.stamp);
        let payload_len = u32::try_from(self.payload.len()).unwrap_or(u32::MAX);
        rec.extend_from_slice(&payload_len.to_le_bytes());
        rec.extend_from_slice(&self.payload);
        rec
    }
}

/// What one [`SegmentQueue::compact`] pass reclaimed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Old segment files deleted (the rewritten generation excluded).
    pub segments_removed: usize,
    /// Acknowledged records reclaimed.
    pub acked_dropped: u64,
    /// Live-but-expired entries dropped by the TTL bound.
    pub expired_dropped: u64,
    /// Disk bytes reclaimed (old segment sizes minus the new segment).
    pub bytes_reclaimed: u64,
}

/// The file-backed half of a queue: the directory, the active tail file
/// and its record count.
#[derive(Debug)]
struct DirBackend {
    dir: PathBuf,
    active_gen: u64,
    active: fs::File,
    active_records: usize,
}

impl DirBackend {
    fn seg_path(dir: &Path, gen: u64) -> PathBuf {
        dir.join(format!("{SEG_PREFIX}{gen:06}{SEG_SUFFIX}"))
    }

    fn open_active(dir: &Path, gen: u64) -> Result<fs::File> {
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::seg_path(dir, gen))
            .map_err(|e| storage_err("open active segment", e))
    }

    /// Makes directory metadata (a created segment or a compaction
    /// rename) durable. Only called under [`SyncPolicy::Always`].
    fn sync_dir(dir: &Path) -> Result<()> {
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| storage_err("sync queue dir", e))
    }

    /// Lists committed segment generations in ascending order. `.tmp`
    /// files (a compaction that crashed before its rename) are ignored.
    fn list_gens(dir: &Path) -> Result<Vec<u64>> {
        let mut gens = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| storage_err("list queue dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| storage_err("read queue dir entry", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(rest) = name.strip_prefix(SEG_PREFIX) else {
                continue;
            };
            let Some(num) = rest.strip_suffix(SEG_SUFFIX) else {
                continue; // `.q.tmp` and strangers
            };
            if let Ok(gen) = num.parse::<u64>() {
                gens.push(gen);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }
}

/// A durable, bounded, TTL-retained delivery queue for one subscriber.
///
/// Invariants: `entries` holds exactly the unacknowledged entries (acked
/// ones are removed in memory, reclaimed on disk at compaction);
/// sequence numbers are dense and 1-based; `acked` only grows.
#[derive(Debug)]
pub struct SegmentQueue {
    cfg: QueueConfig,
    backend: Option<DirBackend>,
    entries: BTreeMap<u64, QueueEntry>,
    next_seq: u64,
    acked: u64,
    /// Torn or malformed records found in a *non-final* generation at
    /// recovery. A tear in the final segment is the expected signature
    /// of a crash mid-append; one anywhere else truncated records that
    /// later generations may not re-cover, so it is surfaced instead of
    /// silently swallowed.
    recovery_anomalies: u64,
    stats: StorageStats,
}

impl SegmentQueue {
    /// A volatile queue (tests, simulator, relays that accept replay
    /// loss): same API and bookkeeping, no files.
    pub fn in_memory(cfg: QueueConfig) -> SegmentQueue {
        SegmentQueue {
            cfg,
            backend: None,
            entries: BTreeMap::new(),
            next_seq: 1,
            acked: 0,
            recovery_anomalies: 0,
            stats: StorageStats::new(),
        }
    }

    /// Opens (creating if needed) a durable queue rooted at `dir`,
    /// recovering state from the committed segments: records are replayed
    /// in generation order, deduplicated by sequence number, and the
    /// highest journaled ack wins. A torn final record in any segment is
    /// ignored, and `.tmp` files from a crashed compaction are removed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the directory or a segment cannot be
    /// read.
    pub fn open(dir: impl AsRef<Path>, cfg: QueueConfig) -> Result<SegmentQueue> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| storage_err("create queue dir", e))?;
        let gens = DirBackend::list_gens(&dir)?;
        let mut entries: BTreeMap<u64, QueueEntry> = BTreeMap::new();
        let mut acked = 0u64;
        let mut next_seq = 1u64;
        let mut bytes_read = 0u64;
        let mut active_records = 0usize;
        let mut tail_torn = false;
        let mut recovery_anomalies = 0u64;
        for (idx, &gen) in gens.iter().enumerate() {
            let buf = fs::read(DirBackend::seg_path(&dir, gen))
                .map_err(|e| storage_err("read segment", e))?;
            bytes_read += buf.len() as u64;
            let (records, consumed) = parse_records(&buf);
            let torn = consumed < buf.len();
            if idx + 1 == gens.len() {
                // A tear in the highest generation is the expected
                // crash-mid-append signature; the tail rolls past it.
                active_records = records.len();
                tail_torn = torn;
            } else if torn {
                // A tear in the *middle* of the generation chain
                // truncated that segment's remaining records even though
                // later generations still parse — an anomaly the caller
                // must be able to see, not a normal crash signature.
                recovery_anomalies += 1;
            }
            for rec in records {
                match rec {
                    ParsedRecord::Enqueue(entry) => {
                        next_seq = next_seq.max(entry.seq.saturating_add(1));
                        // Duplicates across generations (compaction crash
                        // window) collapse here; last copy wins but they
                        // are byte-identical by construction.
                        entries.insert(entry.seq, entry);
                    }
                    ParsedRecord::AckUpTo(upto) => acked = acked.max(upto),
                }
            }
        }
        entries.retain(|&seq, _| seq > acked);
        // A fully-acked, fully-compacted queue leaves only an `AckUpTo`
        // record behind: without this clamp `next_seq` would reset to 1
        // while `acked` stays high, and every new enqueue would land at
        // a sequence the ack watermark already covers — skipped by the
        // relay's dispatch and dropped by the retain above on the next
        // reopen, i.e. silent message loss.
        next_seq = next_seq.max(acked.saturating_add(1));
        // Clear crashed-compaction leftovers so they cannot shadow a
        // future generation of the same number.
        if let Ok(listing) = fs::read_dir(&dir) {
            for entry in listing.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".tmp") {
                    // Best-effort cleanup; a survivor is ignored on open.
                    // audit:allow(error-swallow)
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        // A torn tail means the last segment ends in garbage; appending
        // behind it would strand every later record, so the active tail
        // rolls to a fresh generation and the tear is never written past.
        let mut active_gen = gens.last().copied().unwrap_or(0);
        if tail_torn {
            active_gen = active_gen.saturating_add(1);
            active_records = 0;
        }
        let active = DirBackend::open_active(&dir, active_gen)?;
        if cfg.sync == SyncPolicy::Always {
            // The active segment's directory entry (freshly created on a
            // first open or a roll past a torn tail) must survive power
            // loss, or the records synced into it are lost with it.
            DirBackend::sync_dir(&dir)?;
        }
        let stats = StorageStats::new();
        stats.record_read(bytes_read);
        Ok(SegmentQueue {
            cfg,
            backend: Some(DirBackend {
                dir,
                active_gen,
                active,
                active_records,
            }),
            entries,
            next_seq,
            acked,
            recovery_anomalies,
            stats,
        })
    }

    /// The retention policy in force.
    pub fn config(&self) -> QueueConfig {
        self.cfg
    }

    /// Unacknowledged entries currently held (expired ones included until
    /// compaction reclaims them).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Highest cumulatively acknowledged sequence number (0 = none).
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// The sequence number the next [`SegmentQueue::enqueue`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Committed segment files on disk (1 for an in-memory queue's
    /// logical tail).
    pub fn segment_count(&self) -> usize {
        match &self.backend {
            Some(b) => DirBackend::list_gens(&b.dir).map(|g| g.len()).unwrap_or(1),
            None => 1,
        }
    }

    /// Torn or malformed records detected in a non-final generation at
    /// the last [`SegmentQueue::open`] (0 for clean recoveries and
    /// in-memory queues). A non-zero value means a middle segment lost
    /// its suffix — acknowledged state or entries may have been dropped,
    /// so callers should surface it rather than trust the queue blindly.
    pub fn recovery_anomalies(&self) -> u64 {
        self.recovery_anomalies
    }

    /// Storage traffic accounting.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// `true` if `entry` is past its TTL at `now_tick`.
    fn is_expired(&self, entry: &QueueEntry, now_tick: u64) -> bool {
        match self.cfg.ttl_ticks {
            Some(ttl) => now_tick.saturating_sub(entry.tick) > ttl,
            None => false,
        }
    }

    /// The durability seed: every state change that must survive a crash
    /// flows through this single append (length-prefixed, then
    /// `fdatasync`ed under [`SyncPolicy::Always`]). The in-memory backend
    /// accounts the bytes and returns.
    fn append_record(&mut self, record: &[u8]) -> Result<()> {
        self.stats.record_write(record.len() as u64 + 4);
        let sync = self.cfg.sync;
        let Some(backend) = &mut self.backend else {
            return Ok(());
        };
        if backend.active_records >= self.cfg.segment_max_records {
            let next_gen = backend.active_gen.saturating_add(1);
            backend.active = DirBackend::open_active(&backend.dir, next_gen)?;
            if sync == SyncPolicy::Always {
                // The rolled segment's directory entry must be durable
                // before records synced into it can count as durable.
                DirBackend::sync_dir(&backend.dir)?;
            }
            backend.active_gen = next_gen;
            backend.active_records = 0;
        }
        let len = u32::try_from(record.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes();
        backend
            .active
            .write_all(&len)
            .and_then(|()| backend.active.write_all(record))
            .and_then(|()| match sync {
                SyncPolicy::Always => backend.active.sync_data(),
                SyncPolicy::OsBuffered => backend.active.flush(),
            })
            .map_err(|e| storage_err("append queue record", e))?;
        backend.active_records += 1;
        Ok(())
    }

    /// Journals one publication, assigning and returning its sequence
    /// number. Under [`SyncPolicy::Always`] (the default) the entry is
    /// durable against power loss before this returns; under
    /// [`SyncPolicy::OsBuffered`] it survives a process crash only.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Backpressure`] when the queue already holds
    /// `max_depth` unacknowledged entries — the caller drops (and counts)
    /// rather than growing without bound — or [`Error::Storage`] if the
    /// journal write fails.
    pub fn enqueue(&mut self, tick: u64, stamp: Vec<u8>, payload: Vec<u8>) -> Result<u64> {
        if self.entries.len() >= self.cfg.max_depth {
            return Err(Error::Backpressure);
        }
        let entry = QueueEntry {
            seq: self.next_seq,
            tick,
            stamp,
            payload,
        };
        self.append_record(&entry.encoded())?;
        self.next_seq = self.next_seq.saturating_add(1);
        self.entries.insert(entry.seq, entry);
        Ok(self.next_seq - 1)
    }

    /// Commits cumulative delivery up to and including `upto`: journals
    /// the ack, then releases the covered entries. Idempotent — a stale or
    /// duplicate ack is a no-op that touches no disk.
    ///
    /// `upto` is clamped to the highest sequence number this queue has
    /// assigned: acks arrive from remote receivers, and a corrupt or
    /// malicious ack beyond the assigned range must not journal a bogus
    /// watermark that would swallow entries enqueued later (and, via the
    /// recovery path, wedge the queue permanently).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the journal write fails.
    pub fn ack_up_to(&mut self, upto: u64) -> Result<u64> {
        let upto = upto.min(self.next_seq.saturating_sub(1));
        if upto <= self.acked {
            return Ok(0);
        }
        let mut rec = Vec::with_capacity(9);
        rec.push(TAG_ACK_UP_TO);
        rec.extend_from_slice(&upto.to_le_bytes());
        self.append_record(&rec)?;
        self.acked = upto;
        let before = self.entries.len();
        self.entries.retain(|&seq, _| seq > upto);
        Ok((before - self.entries.len()) as u64)
    }

    /// Unacknowledged, unexpired entries in sequence order — the relay's
    /// redelivery window source.
    pub fn pending(&self, now_tick: u64) -> impl Iterator<Item = &QueueEntry> {
        self.entries
            .values()
            .filter(move |e| !self.is_expired(e, now_tick))
    }

    /// The highest sequence number `s` such that *every* unacknowledged
    /// entry in `acked+1 ..= s` is TTL-expired at `now_tick` (0 when the
    /// head of the queue is still live). The relay acks this prefix away
    /// so TTL-dropped entries cannot wedge the redelivery window.
    pub fn expired_prefix(&self, now_tick: u64) -> u64 {
        let mut upto = self.acked;
        for entry in self.entries.values() {
            if entry.seq == upto + 1 && self.is_expired(entry, now_tick) {
                upto = entry.seq;
            } else {
                break;
            }
        }
        if upto > self.acked {
            upto
        } else {
            0
        }
    }

    /// Unacknowledged entries past their TTL at `now_tick`.
    pub fn expired(&self, now_tick: u64) -> u64 {
        self.entries
            .values()
            .filter(|e| self.is_expired(e, now_tick))
            .count() as u64
    }

    /// Rewrites the live (unacked, unexpired) suffix into a fresh
    /// highest-generation segment and deletes the old ones, reclaiming
    /// acknowledged and TTL-expired records.
    ///
    /// Crash-safety: the new segment is written to a `.tmp`, fsynced
    /// (under [`SyncPolicy::Always`]), renamed into place and the rename
    /// made durable with a directory fsync before any old segment is
    /// deleted. A crash before the rename leaves only the ignored
    /// `.tmp`; a crash after it leaves duplicate records that
    /// [`SegmentQueue::open`] deduplicates by sequence number — every
    /// window recovers to the same state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] on filesystem failure.
    pub fn compact(&mut self, now_tick: u64) -> Result<CompactionReport> {
        // TTL expiry is decided here, in memory first, so the in-memory
        // and on-disk views agree after the pass.
        let expired: Vec<u64> = self
            .entries
            .values()
            .filter(|e| self.is_expired(e, now_tick))
            .map(|e| e.seq)
            .collect();
        let expired_dropped = expired.len() as u64;
        for seq in expired {
            self.entries.remove(&seq);
        }
        let Some(backend) = &mut self.backend else {
            return Ok(CompactionReport {
                expired_dropped,
                ..CompactionReport::default()
            });
        };
        let old_gens = DirBackend::list_gens(&backend.dir)?;
        let old_bytes: u64 = old_gens
            .iter()
            .map(|&g| {
                fs::metadata(DirBackend::seg_path(&backend.dir, g))
                    .map(|m| m.len())
                    .unwrap_or(0)
            })
            .sum();
        let new_gen = backend.active_gen.saturating_add(1);
        let final_path = DirBackend::seg_path(&backend.dir, new_gen);
        let tmp_path = backend.dir.join(format!(".compact-{new_gen:06}.tmp"));
        let mut live_records = 0usize;
        let mut written = 0u64;
        {
            let mut tmp =
                fs::File::create(&tmp_path).map_err(|e| storage_err("create compaction tmp", e))?;
            let mut write_rec = |rec: &[u8]| -> Result<()> {
                let len = u32::try_from(rec.len()).unwrap_or(u32::MAX).to_le_bytes();
                tmp.write_all(&len)
                    .and_then(|()| tmp.write_all(rec))
                    .map_err(|e| storage_err("write compaction record", e))
            };
            for entry in self.entries.values() {
                let rec = entry.encoded();
                written += rec.len() as u64 + 4;
                write_rec(&rec)?;
                live_records += 1;
            }
            if self.acked > 0 {
                let mut rec = Vec::with_capacity(9);
                rec.push(TAG_ACK_UP_TO);
                rec.extend_from_slice(&self.acked.to_le_bytes());
                written += rec.len() as u64 + 4;
                write_rec(&rec)?;
                live_records += 1;
            }
            match self.cfg.sync {
                // The tmp's contents must hit stable storage before the
                // rename publishes it, or power loss could leave a
                // committed-looking segment full of garbage.
                SyncPolicy::Always => tmp.sync_all(),
                SyncPolicy::OsBuffered => tmp.flush(),
            }
            .map_err(|e| storage_err("flush compaction", e))?;
        }
        self.stats.record_write(written);
        fs::rename(&tmp_path, &final_path).map_err(|e| storage_err("commit compaction", e))?;
        if self.cfg.sync == SyncPolicy::Always {
            // Make the rename itself durable before deleting the old
            // segments it supersedes.
            DirBackend::sync_dir(&backend.dir)?;
        }
        // The compacted generation is durable; everything older is now
        // redundant (recovery dedups by seq if this loop is interrupted).
        let mut segments_removed = 0usize;
        for &gen in &old_gens {
            if gen == new_gen {
                continue;
            }
            fs::remove_file(DirBackend::seg_path(&backend.dir, gen))
                .map_err(|e| storage_err("remove stale segment", e))?;
            segments_removed += 1;
        }
        backend.active = DirBackend::open_active(&backend.dir, new_gen)?;
        backend.active_gen = new_gen;
        backend.active_records = live_records;
        let new_bytes = fs::metadata(&final_path).map(|m| m.len()).unwrap_or(0);
        Ok(CompactionReport {
            segments_removed,
            acked_dropped: 0,
            expired_dropped,
            bytes_reclaimed: old_bytes.saturating_sub(new_bytes),
        })
    }
}

enum ParsedRecord {
    Enqueue(QueueEntry),
    AckUpTo(u64),
}

fn le_u32(buf: &[u8], i: usize) -> Option<u32> {
    Some(u32::from_le_bytes([
        *buf.get(i)?,
        *buf.get(i + 1)?,
        *buf.get(i + 2)?,
        *buf.get(i + 3)?,
    ]))
}

fn le_u64(buf: &[u8], i: usize) -> Option<u64> {
    let mut bytes = [0u8; 8];
    for (k, b) in bytes.iter_mut().enumerate() {
        *b = *buf.get(i + k)?;
    }
    Some(u64::from_le_bytes(bytes))
}

/// Decodes the length-prefixed records of one segment. Parsing stops at
/// the first torn or malformed record — everything before the tear is the
/// recovered prefix, the tail is rejected. Returns the records and the
/// number of bytes cleanly consumed (short of the buffer length exactly
/// when the tail was torn).
fn parse_records(buf: &[u8]) -> (Vec<ParsedRecord>, usize) {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 4 <= buf.len() {
        let Some(len) = le_u32(buf, i) else { break };
        let len = len as usize;
        if i + 4 + len > buf.len() {
            break; // torn final record
        }
        let rec = &buf[i + 4..i + 4 + len];
        let Some(parsed) = parse_one(rec) else {
            break; // malformed body: treat like a tear, reject the tail
        };
        out.push(parsed);
        i += 4 + len;
    }
    (out, i)
}

fn parse_one(rec: &[u8]) -> Option<ParsedRecord> {
    match *rec.first()? {
        TAG_ENQUEUE => {
            let seq = le_u64(rec, 1)?;
            let tick = le_u64(rec, 9)?;
            let stamp_len = le_u32(rec, 17)? as usize;
            let stamp = rec.get(21..21 + stamp_len)?.to_vec();
            let payload_len = le_u32(rec, 21 + stamp_len)? as usize;
            let start = 25 + stamp_len;
            let payload = rec.get(start..start + payload_len)?.to_vec();
            Some(ParsedRecord::Enqueue(QueueEntry {
                seq,
                tick,
                stamp,
                payload,
            }))
        }
        TAG_ACK_UP_TO => Some(ParsedRecord::AckUpTo(le_u64(rec, 1)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aaa-storage-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(max_depth: usize, ttl: Option<u64>, seg: usize) -> QueueConfig {
        QueueConfig {
            max_depth,
            ttl_ticks: ttl,
            segment_max_records: seg,
            sync: SyncPolicy::Always,
        }
    }

    #[test]
    fn enqueue_ack_pending_in_memory() {
        let mut q = SegmentQueue::in_memory(cfg(8, None, 4));
        for i in 0..5u8 {
            let seq = q.enqueue(i as u64, vec![], vec![i]).unwrap();
            assert_eq!(seq, i as u64 + 1);
        }
        assert_eq!(q.depth(), 5);
        let seqs: Vec<u64> = q.pending(10).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.ack_up_to(3).unwrap(), 3);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.acked(), 3);
        // Stale / duplicate acks are no-ops.
        assert_eq!(q.ack_up_to(3).unwrap(), 0);
        assert_eq!(q.ack_up_to(1).unwrap(), 0);
        let seqs: Vec<u64> = q.pending(10).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn backpressure_at_max_depth() {
        let mut q = SegmentQueue::in_memory(cfg(2, None, 4));
        q.enqueue(0, vec![], b"a".to_vec()).unwrap();
        q.enqueue(0, vec![], b"b".to_vec()).unwrap();
        assert!(matches!(
            q.enqueue(0, vec![], b"c".to_vec()),
            Err(Error::Backpressure)
        ));
        // Acking frees budget.
        q.ack_up_to(1).unwrap();
        assert_eq!(q.enqueue(0, vec![], b"c".to_vec()).unwrap(), 3);
    }

    #[test]
    fn ttl_expires_pending_entries() {
        let mut q = SegmentQueue::in_memory(cfg(8, Some(5), 4));
        q.enqueue(0, vec![], b"old".to_vec()).unwrap();
        q.enqueue(4, vec![], b"new".to_vec()).unwrap();
        assert_eq!(q.pending(4).count(), 2);
        // Tick 6: entry from tick 0 is 6 > 5 ticks old.
        let live: Vec<&[u8]> = q.pending(6).map(|e| e.payload.as_slice()).collect();
        assert_eq!(live, vec![b"new".as_slice()]);
        assert_eq!(q.expired(6), 1);
        let report = q.compact(6).unwrap();
        assert_eq!(report.expired_dropped, 1);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn expired_prefix_tracks_the_head_only() {
        let mut q = SegmentQueue::in_memory(cfg(8, Some(5), 4));
        q.enqueue(0, vec![], b"a".to_vec()).unwrap();
        q.enqueue(1, vec![], b"b".to_vec()).unwrap();
        q.enqueue(9, vec![], b"c".to_vec()).unwrap();
        // Nothing expired yet.
        assert_eq!(q.expired_prefix(4), 0);
        // Tick 8: entries 1 and 2 are past TTL, entry 3 is live.
        assert_eq!(q.expired_prefix(8), 2);
        // A live head blocks the prefix even if later entries expire.
        q.ack_up_to(2).unwrap();
        assert_eq!(q.expired_prefix(8), 0);
        assert_eq!(q.expired_prefix(100), 3);
    }

    #[test]
    fn durable_queue_recovers_after_reopen() {
        let dir = tmp_dir("queue-reopen");
        {
            let mut q = SegmentQueue::open(&dir, cfg(16, None, 4)).unwrap();
            for i in 0..6u8 {
                q.enqueue(i as u64, vec![0xAA, i], vec![i; 3]).unwrap();
            }
            q.ack_up_to(2).unwrap();
        }
        let q = SegmentQueue::open(&dir, cfg(16, None, 4)).unwrap();
        assert_eq!(q.acked(), 2);
        assert_eq!(q.depth(), 4);
        assert_eq!(q.next_seq(), 7);
        let entries: Vec<(u64, Vec<u8>)> =
            q.pending(100).map(|e| (e.seq, e.stamp.clone())).collect();
        assert_eq!(entries[0], (3, vec![0xAA, 2]));
        assert_eq!(entries.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_compaction_reclaims() {
        let dir = tmp_dir("queue-compact");
        let mut q = SegmentQueue::open(&dir, cfg(64, None, 3)).unwrap();
        for i in 0..10u8 {
            q.enqueue(0, vec![], vec![i; 8]).unwrap();
        }
        assert!(q.segment_count() > 1, "segments must roll");
        q.ack_up_to(8).unwrap();
        let report = q.compact(0).unwrap();
        assert!(report.segments_removed >= 1);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(q.segment_count(), 1);
        // Queue state is unchanged by compaction...
        assert_eq!(q.depth(), 2);
        assert_eq!(q.acked(), 8);
        // ...and survives a reopen of the compacted directory.
        drop(q);
        let q = SegmentQueue::open(&dir, cfg(64, None, 3)).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.acked(), 8);
        assert_eq!(q.next_seq(), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_acked_compacted_queue_stays_usable_after_reopen() {
        let dir = tmp_dir("queue-full-ack");
        {
            let mut q = SegmentQueue::open(&dir, cfg(16, None, 4)).unwrap();
            for i in 0..3u8 {
                q.enqueue(0, vec![], vec![i]).unwrap();
            }
            // Ack everything and compact: only an AckUpTo record remains
            // on disk.
            q.ack_up_to(3).unwrap();
            q.compact(0).unwrap();
        }
        let mut q = SegmentQueue::open(&dir, cfg(16, None, 4)).unwrap();
        assert_eq!(q.acked(), 3);
        assert_eq!(q.depth(), 0);
        // next_seq must resume past the ack watermark, or the new entry
        // would be assigned an already-acked sequence: skipped by the
        // dispatcher and silently dropped on the next reopen.
        assert_eq!(q.next_seq(), 4);
        let seq = q.enqueue(1, vec![], b"after".to_vec()).unwrap();
        assert!(seq > q.acked(), "new entries land beyond the watermark");
        assert_eq!(q.pending(1).count(), 1);
        drop(q);
        let q = SegmentQueue::open(&dir, cfg(16, None, 4)).unwrap();
        assert_eq!(q.depth(), 1, "the post-compaction entry survives");
        let payloads: Vec<&[u8]> = q.pending(1).map(|e| e.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"after".as_slice()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ack_beyond_assigned_range_is_clamped() {
        let dir = tmp_dir("queue-ack-clamp");
        {
            let mut q = SegmentQueue::open(&dir, cfg(16, None, 8)).unwrap();
            q.enqueue(0, vec![], b"a".to_vec()).unwrap();
            q.enqueue(0, vec![], b"b".to_vec()).unwrap();
            // A corrupt or malicious remote ack far past the assigned
            // range commits only what was actually assigned.
            assert_eq!(q.ack_up_to(u64::MAX).unwrap(), 2);
            assert_eq!(q.acked(), 2);
        }
        // The journaled watermark is the clamped one, so entries
        // enqueued after recovery are not swallowed by a bogus ack.
        let mut q = SegmentQueue::open(&dir, cfg(16, None, 8)).unwrap();
        assert_eq!(q.acked(), 2);
        assert_eq!(q.next_seq(), 3);
        q.enqueue(1, vec![], b"c".to_vec()).unwrap();
        drop(q);
        let q = SegmentQueue::open(&dir, cfg(16, None, 8)).unwrap();
        assert_eq!(q.depth(), 1);
        fs::remove_dir_all(&dir).unwrap();

        // An empty queue rejects any positive ack outright.
        let mut q = SegmentQueue::in_memory(cfg(4, None, 4));
        assert_eq!(q.ack_up_to(10).unwrap(), 0);
        assert_eq!(q.acked(), 0);
    }

    #[test]
    fn torn_middle_generation_is_surfaced_as_anomaly() {
        let dir = tmp_dir("queue-torn-middle");
        {
            // Three entries across two generations (2 + 1).
            let mut q = SegmentQueue::open(&dir, cfg(16, None, 2)).unwrap();
            for i in 0..3u8 {
                q.enqueue(0, vec![], vec![i]).unwrap();
            }
        }
        // Tear the *first* generation's tail while the later generation
        // stays intact: entry 2 is gone even though parsing continues.
        let gen0 = DirBackend::seg_path(&dir, 0);
        let bytes = fs::read(&gen0).unwrap();
        fs::write(&gen0, &bytes[..bytes.len() - 3]).unwrap();
        let q = SegmentQueue::open(&dir, cfg(16, None, 2)).unwrap();
        assert_eq!(
            q.recovery_anomalies(),
            1,
            "a torn non-final generation must be surfaced, not swallowed"
        );
        let seqs: Vec<u64> = q.pending(0).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3], "the tear dropped entry 2");
        // A clean reopen reports no anomaly, and a tear in the *final*
        // generation stays the ordinary crash signature (no anomaly).
        drop(q);
        let q = SegmentQueue::open(&dir, cfg(16, None, 2)).unwrap();
        assert_eq!(q.recovery_anomalies(), 1, "tear persists until compaction");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rename_and_delete_recovers_by_dedup() {
        let dir = tmp_dir("queue-crash-dup");
        let mut q = SegmentQueue::open(&dir, cfg(64, None, 2)).unwrap();
        for i in 0..5u8 {
            q.enqueue(0, vec![], vec![i]).unwrap();
        }
        q.ack_up_to(2).unwrap();
        // Save the pre-compaction segments, compact, then restore one old
        // segment: the state a crash after rename-but-before-delete leaves.
        let saved: Vec<(PathBuf, Vec<u8>)> = DirBackend::list_gens(&dir)
            .unwrap()
            .iter()
            .map(|&g| {
                let p = DirBackend::seg_path(&dir, g);
                (p.clone(), fs::read(&p).unwrap())
            })
            .collect();
        q.compact(0).unwrap();
        drop(q);
        let (old_path, old_bytes) = &saved[0];
        fs::write(old_path, old_bytes).unwrap();
        let q = SegmentQueue::open(&dir, cfg(64, None, 2)).unwrap();
        assert_eq!(q.acked(), 2, "highest journaled ack wins");
        assert_eq!(q.depth(), 3, "duplicates collapse by seq");
        assert_eq!(q.next_seq(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_leaves_tmp_which_is_ignored() {
        let dir = tmp_dir("queue-crash-tmp");
        {
            let mut q = SegmentQueue::open(&dir, cfg(64, None, 8)).unwrap();
            q.enqueue(0, vec![], b"live".to_vec()).unwrap();
        }
        // A compaction that crashed before its rename: stray tmp file.
        fs::write(dir.join(".compact-000042.tmp"), b"garbage").unwrap();
        let q = SegmentQueue::open(&dir, cfg(64, None, 8)).unwrap();
        assert_eq!(q.depth(), 1);
        assert!(
            !dir.join(".compact-000042.tmp").exists(),
            "leftover tmp cleaned up"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_rejected_cleanly() {
        let dir = tmp_dir("queue-torn");
        {
            let mut q = SegmentQueue::open(&dir, cfg(64, None, 8)).unwrap();
            q.enqueue(0, vec![1, 2], b"intact".to_vec()).unwrap();
        }
        // Crash mid-append: a promising length prefix with a short body.
        let seg = DirBackend::seg_path(&dir, 0);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&500u32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
        drop(f);
        let mut q = SegmentQueue::open(&dir, cfg(64, None, 8)).unwrap();
        assert_eq!(q.depth(), 1);
        assert_eq!(
            q.recovery_anomalies(),
            0,
            "a torn final record is the normal crash signature"
        );
        let payloads: Vec<&[u8]> = q.pending(0).map(|e| e.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"intact".as_slice()]);
        // The queue stays appendable after recovering past a tear: the
        // new record lands in a fresh generation, not behind the garbage.
        q.enqueue(1, vec![], b"after".to_vec()).unwrap();
        drop(q);
        let q = SegmentQueue::open(&dir, cfg(64, None, 8)).unwrap();
        assert_eq!(q.depth(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
