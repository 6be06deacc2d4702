//! Durable delivery journals: one segmented log holding any
//! number of per-subscriber streams, group-committed, with TTL-bound
//! retention and a crash-safe compaction pass.
//!
//! The store-and-forward relay (see `aaa-mom`) journals every publication
//! destined for a subscriber *before* attempting delivery, so a subscriber
//! that is disconnected — or a relay that crashes mid-fan-out — never
//! loses a message. A relay owns one [`Journal`]; every record carries a
//! **stream key** (the relay packs the subscriber's `AgentId` into it), so
//! all of its subscriber queues share one set of segment files and one
//! commit point:
//!
//! - **Zero-filled, checksummed segments, written in place.** Records
//!   carry a `u32` little-endian length prefix and end in the CRC-32C of
//!   their tag and body. A segment file is kept zero-filled ahead of its
//!   logical tail, in 64 KiB steps from its second commit on, and each
//!   commit overwrites zeros at the tail: the blocks it writes are
//!   already allocated and the file keeps its size, so the commit's
//!   `fdatasync` flushes data only, and the filesystem's metadata journal
//!   is committed once per step rather than once per commit. Recovery
//!   reads a segment up to a **clean end** — end of file, or a zero
//!   length prefix with nothing but zeros after it — or to the first
//!   record that is torn, malformed or fails its checksum. Such a record
//!   and the rest of the segment are a torn tail: the active generation
//!   rolls past it, and a checksum mismatch (or a tear in a non-final
//!   generation) is counted in [`Journal::recovery_anomalies`]. A record
//!   whose checksum field is still zero and after which only zeros follow
//!   was never finished, so it reads as a tear, not a mismatch. The
//!   active segment rolls once it holds the configured record count; the
//!   highest generation is the active tail. Segments written before zero
//!   fill end at their last record and open unchanged.
//! - **The state stream.** Beside the delivery streams, a journal holds
//!   one reserved, write-only stream of opaque *state records*: the relay's
//!   server appends one per committed step ([`Journal::append_state`]),
//!   so the step's state and its relay records become durable with the
//!   same `fdatasync`. State records are not kept in memory. The owner
//!   takes a checkpoint of its state elsewhere, then declares the records
//!   it covers with [`Journal::cover_state`]; compaction drops covered
//!   records and refuses to run while any record is uncovered. Recovery
//!   hands the uncovered records back once, in order
//!   ([`Journal::take_state_tail`]).
//! - **Group commit.** [`Journal::enqueue`] and [`Journal::ack_up_to`]
//!   change the in-memory stream and buffer their record; nothing is
//!   durable until [`Journal::sync`] writes the buffer with one `write`
//!   and makes it durable with one `fdatasync` (under
//!   [`SyncPolicy::Always`]). A record counts as committed only once
//!   `sync` has returned `Ok`, so the owner must sync before anything that
//!   depends on the record — an ack watermark in another store, a frame on
//!   the wire — leaves it.
//! - **Poisoning.** A failed write, sync or compaction leaves the journal
//!   *poisoned*: every later operation returns [`Error::Storage`] until
//!   the journal is reopened by recovery. Retrying an `fsync` after a
//!   failure can report success for data the kernel already dropped, so
//!   the only honest answer is to stop and recover from what is on disk.
//! - **Cumulative acks.** Delivery commits by journaling an `AckUpTo`
//!   record for the stream; acknowledged entries stay on disk until
//!   compaction reclaims them, so recovery replays at-least-once and the
//!   receiver's dedup map restores exactly-once.
//! - **TTL retention.** Entries older than `ttl_ticks` are no longer
//!   offered for delivery and are acknowledged away (and counted) at
//!   compaction — the bound that keeps a forever-cold subscriber from
//!   pinning disk. A stream's ticks never decrease (enqueue clamps them),
//!   so its expired entries are always a prefix.
//! - **Crash-safe compaction.** [`Journal::compact`] rewrites every
//!   stream's live suffix and ack watermark, and the state stream's
//!   covered watermark, into a fresh highest-generation
//!   segment via tmp-write (with its zero fill) → fsync → rename →
//!   directory fsync, then
//!   deletes the old segments. A crash in any window leaves either the
//!   `.tmp` (ignored on open) or duplicate records across generations
//!   (deduplicated by sequence number on open), so recovery always
//!   reconstructs the same streams. [`Journal::compaction_due`] asks for a
//!   pass only once the dead records outnumber both the live ones and one
//!   segment, so every rewrite is paid for by at least as many reclaimed
//!   records.
//!
//! [`SegmentQueue`] is the single-stream face of the same code: stream 0,
//! committed after every operation. Segments written before records were
//! checksummed (tags 1–4) still open; those of the earlier
//! one-directory-per-subscriber layout (tags 1 and 2, no stream key) open
//! as stream 0.
//!
//! The journal is single-owner (`&mut self` throughout, no locks).
//! [`Journal::sync`] is the commit point; the `persist-before-deliver`
//! audit rule requires every relay `ack_up_to` to be dominated by the
//! server's call of it.

use std::collections::{vec_deque, BTreeMap, VecDeque};
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use aaa_base::{Error, Result};

use crate::crc::crc32c;
use crate::stats::StorageStats;

fn storage_err(context: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{context}: {e}"))
}

/// Record tags on disk. `Enqueue` carries a full entry; `AckUpTo` commits
/// cumulative delivery. Tags 1 and 2 are the stream-less records of the
/// per-subscriber layout, read as stream 0; 3 and 4 are the same records
/// behind a `u64` stream key. Neither is written any more.
const TAG_ENQUEUE: u8 = 1;
const TAG_ACK_UP_TO: u8 = 2;
const TAG_STREAM_ENQUEUE: u8 = 3;
const TAG_STREAM_ACK_UP_TO: u8 = 4;
/// The records written today, each ending in the CRC-32C of its tag and
/// body: the stream-keyed entry and ack, a state record (`seq | bytes`)
/// and the state stream's covered watermark. Every one of them differs
/// from every tag above in at least two bits, so no single flipped bit
/// turns a checksummed record into one that is read unchecked.
const TAG_SUMMED_ENQUEUE: u8 = 0x53;
const TAG_SUMMED_ACK_UP_TO: u8 = 0x54;
const TAG_STATE: u8 = 0x55;
const TAG_STATE_COVERED: u8 = 0x56;

/// Shape of one segment file name: `seg-NNNNNN.q`.
const SEG_PREFIX: &str = "seg-";
const SEG_SUFFIX: &str = ".q";

/// How aggressively journal writes are pushed to stable storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` the journal at every commit point and fsync its
    /// directory around segment creation and the compaction rename:
    /// committed entries survive an OS crash or power loss, not just a
    /// process crash. The default — the relay's journal-before-deliver
    /// guarantee is only as strong as the journal.
    #[default]
    Always,
    /// Leave writes in the OS page cache (no `fsync`). Entries survive a
    /// process crash but **not** an OS crash or power loss. For tests,
    /// simulators and deployments that accept replay loss in exchange
    /// for throughput.
    OsBuffered,
}

/// Retention and sizing policy of a [`Journal`] (applied per stream) or a
/// [`SegmentQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum unacknowledged entries held per stream; `enqueue` beyond
    /// this returns [`Error::Backpressure`] instead of growing without
    /// bound.
    pub max_depth: usize,
    /// Entries enqueued more than this many ticks ago are expired: no
    /// longer offered by `pending`, acknowledged away (and counted) by
    /// `compact`. `None` retains forever.
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
    /// Per-stream sequence number (1-based, dense).
    pub seq: u64,
    /// Enqueue time in the owner's tick domain (TTL reference).
    pub tick: u64,
    /// A stamp field the relay writes empty: nothing reads it. It stays
    /// for the record format and for the callers of
    /// [`SegmentQueue::enqueue`].
    pub stamp: Vec<u8>,
    /// Opaque payload (the relay's encoded publication).
    pub payload: Vec<u8>,
}

/// What one compaction pass reclaimed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Old segment files deleted (the rewritten generation excluded).
    pub segments_removed: usize,
    /// Acknowledged records reclaimed.
    pub acked_dropped: u64,
    /// Live-but-expired entries dropped by the TTL bound.
    pub expired_dropped: u64,
    /// Record bytes reclaimed: the old segments' records minus the new
    /// segment's, zero fill excluded.
    pub bytes_reclaimed: u64,
}

/// Bytes of one checksummed record with a `body`-byte body, length prefix
/// excluded: tag, body, CRC.
const fn summed_len(body: usize) -> usize {
    1 + body + 4
}

/// Bytes of one stream-keyed `AckUpTo` record, length prefix excluded.
const ACK_RECORD_LEN: usize = summed_len(8 + 8);

/// Bytes of one stream-keyed entry record, length prefix excluded.
fn enqueue_record_len(e: &QueueEntry) -> usize {
    summed_len(8 + 8 + 8 + 4 + e.stamp.len() + 4 + e.payload.len())
}

/// Appends one checksummed record to `out`: the length prefix, `tag`,
/// what `body` writes, and the CRC-32C of tag and body.
fn push_summed(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(tag);
    body(out);
    let crc = crc32c(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = u32::try_from(out.len() - start - 4).unwrap_or(u32::MAX);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends one stream-keyed entry record to `out`.
fn push_enqueue(out: &mut Vec<u8>, stream: u64, e: &QueueEntry) {
    out.reserve(4 + enqueue_record_len(e));
    push_summed(out, TAG_SUMMED_ENQUEUE, |out| {
        out.extend_from_slice(&stream.to_le_bytes());
        out.extend_from_slice(&e.seq.to_le_bytes());
        out.extend_from_slice(&e.tick.to_le_bytes());
        let stamp_len = u32::try_from(e.stamp.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&stamp_len.to_le_bytes());
        out.extend_from_slice(&e.stamp);
        let payload_len = u32::try_from(e.payload.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&payload_len.to_le_bytes());
        out.extend_from_slice(&e.payload);
    });
}

/// Appends one stream-keyed cumulative-ack record to `out`.
fn push_ack(out: &mut Vec<u8>, stream: u64, upto: u64) {
    push_summed(out, TAG_SUMMED_ACK_UP_TO, |out| {
        out.extend_from_slice(&stream.to_le_bytes());
        out.extend_from_slice(&upto.to_le_bytes());
    });
}

/// Appends the state stream's covered watermark to `out`.
fn push_covered(out: &mut Vec<u8>, upto: u64) {
    push_summed(out, TAG_STATE_COVERED, |out| {
        out.extend_from_slice(&upto.to_le_bytes());
    });
}

/// How far ahead of its logical tail a segment is kept zero-filled: a
/// commit whose records pass the filled end also writes zeros up to the
/// next multiple of this, so one commit per step grows the file and every
/// other commit overwrites blocks that are already allocated. Not larger:
/// a relay's segment takes ~130–200 KB of records before compaction
/// replaces it, and zeros past that are written and flushed for nothing
/// (DESIGN.md §17.1).
const FILL_STEP: u64 = 64 << 10;

/// Bytes of [`ZEROS`].
const PAGE: usize = 4096;

/// The zeros a fill is written from and the zero fill is compared with.
/// One page: every slice of a fill's vectored `write` points at it, so a
/// fill touches one page of the binary's read-only data, not a step.
static ZEROS: [u8; PAGE] = [0; PAGE];

/// Slices of [`ZEROS`] handed to one vectored `write`: one step.
const ZERO_SLICES: usize = FILL_STEP as usize / PAGE;

/// The end of the zero fill behind records that end at `end`: the next
/// multiple of [`FILL_STEP`], or `end` itself when it is one.
fn fill_end(end: u64) -> u64 {
    end.div_ceil(FILL_STEP).saturating_mul(FILL_STEP)
}

/// Writes `bytes` zeros at the file position, up to [`ZERO_SLICES`]
/// pages per vectored `write`.
fn write_zeros(file: &mut impl Write, mut bytes: u64) -> std::io::Result<()> {
    let pages = [IoSlice::new(&ZEROS); ZERO_SLICES];
    let page = ZEROS.len() as u64;
    while bytes > 0 {
        let written = if bytes >= page {
            let n = usize::try_from(bytes / page).map_or(ZERO_SLICES, |n| n.min(ZERO_SLICES));
            file.write_vectored(pages.get(..n).unwrap_or(&pages))
        } else {
            file.write(ZEROS.get(..bytes as usize).unwrap_or(&ZEROS))
        };
        match written {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = bytes.saturating_sub(n as u64),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The file-backed half of a journal: the directory, the active tail file,
/// where its records end and its record count.
#[derive(Debug)]
struct DirBackend {
    dir: PathBuf,
    active_gen: u64,
    active: fs::File,
    active_records: usize,
    /// The active segment's logical tail: where the next commit writes.
    tail: u64,
    /// The active segment's file length: its records, then zeros from
    /// `tail` on.
    filled: u64,
    /// Record bytes in every committed segment, zero fill excluded.
    record_bytes: u64,
}

impl DirBackend {
    fn seg_path(dir: &Path, gen: u64) -> PathBuf {
        dir.join(format!("{SEG_PREFIX}{gen:06}{SEG_SUFFIX}"))
    }

    /// Opens (creating if needed) a segment for writing in place at
    /// `tail`, with its current length. Between commits the file position
    /// is the tail, so a commit is one `write`.
    fn open_active(dir: &Path, gen: u64, tail: u64) -> Result<(fs::File, u64)> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(Self::seg_path(dir, gen))
            .map_err(|e| storage_err("open active segment", e))?;
        let len = file
            .metadata()
            .and_then(|m| file.seek(SeekFrom::Start(tail)).map(|_| m.len()))
            .map_err(|e| storage_err("position active segment", e))?;
        Ok((file, len))
    }

    /// Makes directory metadata (a created segment or a compaction
    /// rename) durable. Only called under [`SyncPolicy::Always`].
    fn sync_dir(dir: &Path, stats: &StorageStats) -> Result<()> {
        stats.record_sync();
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| storage_err("sync journal dir", e))
    }

    /// Lists committed segment generations in ascending order. `.tmp`
    /// files (a compaction that crashed before its rename) are ignored.
    fn list_gens(dir: &Path) -> Result<Vec<u64>> {
        let mut gens = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| storage_err("list journal dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| storage_err("read journal dir entry", e))?;
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

    /// Writes `bytes` (whole records) at the active segment's tail with
    /// one `write` and, under [`SyncPolicy::Always`], one `fdatasync`.
    /// When the records pass the zero-filled end, the same commit writes
    /// zeros up to the next [`FILL_STEP`] boundary before its sync —
    /// unless it is the segment's first: that commit creates the file's
    /// first extent whatever it writes, and a segment rolled just before a
    /// compaction (the two come due together, at about
    /// `segment_max_records` records) is deleted before a second commit
    /// reaches it, so its fill would be written for nothing. The segment
    /// rolls first if it already holds its record quota, so a segment may
    /// exceed the quota by what one commit carries.
    fn append(&mut self, bytes: &[u8], cfg: &QueueConfig, stats: &StorageStats) -> Result<()> {
        if self.active_records >= cfg.segment_max_records {
            let next_gen = self.active_gen.saturating_add(1);
            let (active, len) = Self::open_active(&self.dir, next_gen, 0)?;
            if cfg.sync == SyncPolicy::Always {
                // The rolled segment's directory entry must be durable
                // before records synced into it can count as durable.
                Self::sync_dir(&self.dir, stats)?;
            }
            self.active = active;
            self.active_gen = next_gen;
            self.active_records = 0;
            self.tail = 0;
            self.filled = len;
        }
        let end = self.tail.saturating_add(bytes.len() as u64);
        self.active
            .write_all(bytes)
            .map_err(|e| storage_err("write journal records", e))?;
        if end > self.filled && self.tail > 0 {
            let filled = fill_end(end);
            write_zeros(&mut self.active, filled - end)
                .and_then(|()| self.active.seek(SeekFrom::Start(end)))
                .map_err(|e| storage_err("zero-fill journal segment", e))?;
            self.filled = filled;
        }
        if cfg.sync == SyncPolicy::Always {
            stats.record_sync();
            self.active
                .sync_data()
                .map_err(|e| storage_err("sync journal segment", e))?;
        }
        self.tail = end;
        self.record_bytes = self.record_bytes.saturating_add(bytes.len() as u64);
        Ok(())
    }

    /// Writes every stream's unacknowledged entries and ack watermark, and
    /// the state stream's covered watermark, into a fresh highest
    /// generation and deletes the generations it supersedes. Returns
    /// `(segments_removed, bytes_reclaimed)`, counting record bytes only.
    fn rewrite(
        &mut self,
        streams: &BTreeMap<u64, Stream>,
        state_covered: u64,
        cfg: &QueueConfig,
        stats: &StorageStats,
    ) -> Result<(usize, u64)> {
        let old_gens = Self::list_gens(&self.dir)?;
        let new_gen = self.active_gen.saturating_add(1);
        let final_path = Self::seg_path(&self.dir, new_gen);
        let tmp_path = self.dir.join(format!(".compact-{new_gen:06}.tmp"));
        let mut live_records = 0usize;
        let mut written = 0u64;
        {
            let tmp =
                fs::File::create(&tmp_path).map_err(|e| storage_err("create compaction tmp", e))?;
            let mut w = BufWriter::new(tmp);
            let mut rec = Vec::new();
            for (&key, stream) in streams {
                for entry in &stream.entries {
                    push_enqueue(&mut rec, key, entry);
                    live_records += 1;
                }
                if stream.acked > 0 {
                    push_ack(&mut rec, key, stream.acked);
                    live_records += 1;
                }
                written += rec.len() as u64;
                w.write_all(&rec)
                    .map_err(|e| storage_err("write compaction records", e))?;
                rec.clear();
            }
            if state_covered > 0 {
                // Keeps the state stream's sequence past what the owner's
                // checkpoint covers once the covered records are gone.
                push_covered(&mut rec, state_covered);
                live_records += 1;
                written += rec.len() as u64;
                w.write_all(&rec)
                    .map_err(|e| storage_err("write compaction records", e))?;
            }
            write_zeros(&mut w, fill_end(written) - written)
                .map_err(|e| storage_err("zero-fill compaction", e))?;
            let tmp = w
                .into_inner()
                .map_err(|e| storage_err("flush compaction", e.into_error()))?;
            if cfg.sync == SyncPolicy::Always {
                // The tmp's contents must hit stable storage before the
                // rename publishes it, or power loss could leave a
                // committed-looking segment full of garbage.
                stats.record_sync();
                tmp.sync_all()
                    .map_err(|e| storage_err("sync compaction", e))?;
            }
        }
        stats.record_write(written);
        fs::rename(&tmp_path, &final_path).map_err(|e| storage_err("commit compaction", e))?;
        if cfg.sync == SyncPolicy::Always {
            // Make the rename itself durable before deleting the old
            // segments it supersedes.
            Self::sync_dir(&self.dir, stats)?;
        }
        // The compacted generation is durable; everything older is now
        // redundant (recovery dedups by seq if this loop is interrupted).
        let mut segments_removed = 0usize;
        for &gen in &old_gens {
            if gen == new_gen {
                continue;
            }
            fs::remove_file(Self::seg_path(&self.dir, gen))
                .map_err(|e| storage_err("remove stale segment", e))?;
            segments_removed += 1;
        }
        let (active, filled) = Self::open_active(&self.dir, new_gen, written)?;
        self.active = active;
        self.active_gen = new_gen;
        self.active_records = live_records;
        self.tail = written;
        self.filled = filled;
        let reclaimed = self.record_bytes.saturating_sub(written);
        self.record_bytes = written;
        Ok((segments_removed, reclaimed))
    }
}

/// The in-memory state of one stream.
#[derive(Debug)]
struct Stream {
    /// Unacknowledged entries in sequence order. Ticks never decrease
    /// along it, so the TTL-expired entries are always a prefix.
    entries: VecDeque<QueueEntry>,
    next_seq: u64,
    acked: u64,
}

impl Stream {
    fn new() -> Stream {
        Stream {
            entries: VecDeque::new(),
            next_seq: 1,
            acked: 0,
        }
    }

    /// How many entries at the head are past `ttl` at `now_tick`.
    fn expired_len(&self, ttl: Option<u64>, now_tick: u64) -> usize {
        match ttl {
            Some(ttl) => self
                .entries
                .partition_point(|e| now_tick.saturating_sub(e.tick) > ttl),
            None => 0,
        }
    }
}

/// An empty stream's entries, for lookups of streams never written.
static NO_ENTRIES: VecDeque<QueueEntry> = VecDeque::new();

/// The bookkeeping of the write-only state stream; its records live on
/// disk only.
#[derive(Debug, Default)]
struct StateStream {
    /// Highest sequence number assigned (or found on disk).
    last: u64,
    /// Records up to here are covered by the owner's checkpoint: dead.
    covered: u64,
    /// The uncovered records recovery found, contiguous from
    /// `covered + 1`, until the owner takes them.
    tail: Vec<(u64, Vec<u8>)>,
}

/// A durable, bounded, TTL-retained journal of any number of delivery
/// streams, committed by [`Journal::sync`].
///
/// Invariants, per stream: `entries` holds exactly the unacknowledged
/// entries (acked ones are removed in memory, reclaimed on disk at
/// compaction); sequence numbers are dense and 1-based; `acked` only
/// grows; `next_seq > acked`.
#[derive(Debug)]
pub struct Journal {
    cfg: QueueConfig,
    backend: Option<DirBackend>,
    streams: BTreeMap<u64, Stream>,
    /// Length-prefixed records appended since the last commit (file-backed
    /// journals only).
    unwritten: Vec<u8>,
    unwritten_records: usize,
    /// Records in the journal, live or dead: on disk plus `unwritten`.
    records: u64,
    /// Unacknowledged entries across all streams.
    depth: u64,
    /// Streams with a non-zero ack watermark, each of which keeps one
    /// `AckUpTo` record through compaction.
    acked_streams: u64,
    state: StateStream,
    /// Records recovery rejected although no crash mid-append explains
    /// them: a checksum mismatch anywhere, or a torn or malformed record
    /// in a *non-final* generation. A tear in the final segment is the
    /// expected signature of a crash mid-append; anything else truncated
    /// records that later generations may not re-cover, so it is surfaced
    /// instead of silently swallowed.
    recovery_anomalies: u64,
    /// Set by a failed write, sync or compaction; see the module docs.
    poisoned: bool,
    stats: StorageStats,
    /// Fails the next file write, for the poisoning tests.
    #[cfg(test)]
    fail_next_write: bool,
}

impl Journal {
    fn with_backend(cfg: QueueConfig, backend: Option<DirBackend>) -> Journal {
        Journal {
            cfg,
            backend,
            streams: BTreeMap::new(),
            unwritten: Vec::new(),
            unwritten_records: 0,
            records: 0,
            depth: 0,
            acked_streams: 0,
            state: StateStream::default(),
            recovery_anomalies: 0,
            poisoned: false,
            stats: StorageStats::new(),
            #[cfg(test)]
            fail_next_write: false,
        }
    }

    /// A volatile journal (tests, simulator, relays that accept replay
    /// loss): same API and bookkeeping, no files.
    pub fn in_memory(cfg: QueueConfig) -> Journal {
        Journal::with_backend(cfg, None)
    }

    /// Opens (creating if needed) a durable journal rooted at `dir`,
    /// recovering every stream from the committed segments: records are
    /// replayed in generation order, deduplicated per stream by sequence
    /// number, and the highest journaled ack wins. A segment's records are
    /// read, streaming, up to its clean end (end of file, or a zero length
    /// prefix followed only by zeros) or its first torn, malformed or
    /// checksum-failing record; appends resume at the last segment's
    /// logical tail, or in a fresh generation past a torn one. `.tmp`
    /// files from a crashed compaction are removed. The state
    /// stream's uncovered records are kept for [`Journal::take_state_tail`].
    /// This is the only recovery path; [`SegmentQueue::open`] uses it too.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the directory or a segment cannot be
    /// read.
    pub fn open(dir: impl AsRef<Path>, cfg: QueueConfig) -> Result<Journal> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| storage_err("create journal dir", e))?;
        let gens = DirBackend::list_gens(&dir)?;
        // Per stream: every entry seen (by seq) and the highest ack.
        let mut replay: BTreeMap<u64, (BTreeMap<u64, QueueEntry>, u64)> = BTreeMap::new();
        let mut state: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut state_covered = 0u64;
        let mut records = 0u64;
        let mut record_bytes = 0u64;
        let mut active_records = 0usize;
        let mut tail = 0u64;
        let mut tail_torn = false;
        let mut recovery_anomalies = 0u64;
        for (idx, &gen) in gens.iter().enumerate() {
            let seg = read_segment(&DirBackend::seg_path(&dir, gen))
                .map_err(|e| storage_err("read segment", e))?;
            record_bytes += seg.end;
            let last = idx + 1 == gens.len();
            if last {
                // A tear in the highest generation is the expected
                // crash-mid-append signature; the tail rolls past it.
                active_records = seg.records.len();
                tail = seg.end;
                tail_torn = seg.how != SegmentEnd::Clean;
            }
            if seg.how == SegmentEnd::Corrupt || (seg.how == SegmentEnd::Torn && !last) {
                // A failed checksum anywhere, or a tear in the *middle*
                // of the generation chain, truncated records a crash
                // mid-append cannot explain — an anomaly the caller must
                // be able to see, not a normal crash signature.
                recovery_anomalies += 1;
            }
            records += seg.records.len() as u64;
            for rec in seg.records {
                match rec {
                    Record::Enqueue(key, entry) => {
                        // Duplicates across generations (compaction crash
                        // window) collapse here; last copy wins but they
                        // are byte-identical by construction.
                        replay.entry(key).or_default().0.insert(entry.seq, entry);
                    }
                    Record::AckUpTo(key, upto) => {
                        let acked = &mut replay.entry(key).or_default().1;
                        *acked = (*acked).max(upto);
                    }
                    Record::State(seq, bytes) => {
                        state.insert(seq, bytes);
                    }
                    Record::StateCovered(upto) => state_covered = state_covered.max(upto),
                }
            }
        }
        let mut journal = Journal::with_backend(cfg, None);
        journal.records = records;
        journal.recovery_anomalies = recovery_anomalies;
        journal.state.last = state
            .keys()
            .next_back()
            .map_or(state_covered, |&s| s.max(state_covered));
        journal.state.covered = state_covered;
        // The tail replays only while it is contiguous: a record past a
        // gap describes a change on top of one that is lost.
        let mut next = state_covered.saturating_add(1);
        for (seq, bytes) in state.split_off(&next) {
            if seq != next {
                break;
            }
            journal.state.tail.push((seq, bytes));
            next = next.saturating_add(1);
        }
        for (key, (seen, acked)) in replay {
            // A fully-acked, fully-compacted stream leaves only an
            // `AckUpTo` record behind: without the clamp to `acked + 1`
            // `next_seq` would reset to 1 while `acked` stays high, and
            // every new enqueue would land at a sequence the watermark
            // already covers — skipped by the relay's dispatch and dropped
            // on the next reopen, i.e. silent message loss.
            let next_seq = seen
                .keys()
                .next_back()
                .map_or(1, |s| s.saturating_add(1))
                .max(acked.saturating_add(1));
            let mut tick = 0;
            let entries: VecDeque<QueueEntry> = seen
                .into_values()
                .filter(|e| e.seq > acked)
                .map(|mut e| {
                    tick = tick.max(e.tick);
                    e.tick = tick;
                    e
                })
                .collect();
            journal.depth += entries.len() as u64;
            journal.acked_streams += u64::from(acked > 0);
            journal.streams.insert(
                key,
                Stream {
                    entries,
                    next_seq,
                    acked,
                },
            );
        }
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
            tail = 0;
        }
        let (active, filled) = DirBackend::open_active(&dir, active_gen, tail)?;
        if cfg.sync == SyncPolicy::Always {
            // The active segment's directory entry (freshly created on a
            // first open or a roll past a torn tail) must survive power
            // loss, or the records synced into it are lost with it.
            DirBackend::sync_dir(&dir, &journal.stats)?;
        }
        journal.stats.record_read(record_bytes);
        journal.backend = Some(DirBackend {
            dir,
            active_gen,
            active,
            active_records,
            tail,
            filled,
            record_bytes,
        });
        Ok(journal)
    }

    /// Unacknowledged entries of `stream` (expired ones included until
    /// compaction reclaims them).
    pub fn depth(&self, stream: u64) -> usize {
        self.streams.get(&stream).map_or(0, |s| s.entries.len())
    }

    /// Highest cumulatively acknowledged sequence number of `stream`
    /// (0 = none).
    pub fn acked(&self, stream: u64) -> u64 {
        self.streams.get(&stream).map_or(0, |s| s.acked)
    }

    /// The sequence number the next [`Journal::enqueue`] to `stream` will
    /// assign.
    pub fn next_seq(&self, stream: u64) -> u64 {
        self.streams.get(&stream).map_or(1, |s| s.next_seq)
    }

    /// Committed segment files on disk (1 for an in-memory journal's
    /// logical tail).
    fn segment_count(&self) -> usize {
        match &self.backend {
            Some(b) => DirBackend::list_gens(&b.dir).map(|g| g.len()).unwrap_or(1),
            None => 1,
        }
    }

    /// Segments the last [`Journal::open`] cut short for a reason other
    /// than a crash mid-append: a record failing its checksum, or a torn
    /// or malformed record in a non-final generation (0 for clean
    /// recoveries and in-memory journals). A non-zero value means a
    /// segment lost its suffix — acknowledged state, entries or state
    /// records may have been dropped, so callers should surface it rather
    /// than trust the journal blindly.
    pub fn recovery_anomalies(&self) -> u64 {
        self.recovery_anomalies
    }

    /// `true` for a file-backed journal, whose committed records survive
    /// the process.
    pub fn is_durable(&self) -> bool {
        self.backend.is_some()
    }

    /// Appends one record to the state stream and returns its sequence
    /// number (dense, from 1). Like every record it is durable only after
    /// the next [`Journal::sync`]; unlike stream entries it is not kept in
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the journal is poisoned.
    pub fn append_state(&mut self, record: &[u8]) -> Result<u64> {
        self.check_usable()?;
        let seq = self.state.last.saturating_add(1);
        self.state.last = seq;
        self.append(summed_len(8 + record.len()), |out| {
            push_summed(out, TAG_STATE, |out| {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(record);
            });
        });
        Ok(seq)
    }

    /// The sequence number of the last state record appended or
    /// recovered (0 = none).
    pub fn state_seq(&self) -> u64 {
        self.state.last
    }

    /// Declares the state records up to `upto` covered by a durable
    /// checkpoint the owner keeps elsewhere: they are dead, and the next
    /// [`Journal::compact`] drops them.
    pub fn cover_state(&mut self, upto: u64) {
        self.state.covered = self.state.covered.max(upto.min(self.state.last));
    }

    /// The uncovered state records the last [`Journal::open`] recovered,
    /// in sequence order and contiguous from the covered watermark; empty
    /// on every later call. Records past a gap are not returned, so
    /// [`Journal::state_seq`] may be ahead of the last one.
    pub fn take_state_tail(&mut self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut self.state.tail)
    }

    /// What a compaction writes back: every unacknowledged entry, one ack
    /// watermark per acknowledged stream and the state stream's covered
    /// watermark.
    fn live_records(&self) -> u64 {
        self.depth + self.acked_streams + u64::from(self.state.covered > 0)
    }

    /// Storage traffic accounting: one write per record appended, one
    /// sync per durability barrier.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    fn check_usable(&self) -> Result<()> {
        if !self.poisoned {
            return Ok(());
        }
        let dir = self
            .backend
            .as_ref()
            .map_or_else(|| "in-memory".to_owned(), |b| b.dir.display().to_string());
        Err(Error::Storage(format!(
            "journal {dir} is poisoned by an earlier write or sync failure; \
             reopen it to recover from what is on disk"
        )))
    }

    /// Accounts one appended record of `len` bytes (prefix excluded) and,
    /// for a file-backed journal, buffers it for the next commit.
    fn append(&mut self, len: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.backend.is_some() {
            encode(&mut self.unwritten);
            self.unwritten_records += 1;
        }
        self.stats.record_write(4 + len as u64);
        self.records += 1;
    }

    /// Journals one publication on `stream`, assigning and returning its
    /// sequence number. The entry is visible at once but durable only
    /// after the next [`Journal::sync`]. Its tick is raised to the
    /// stream's latest if it is older, so expiry stays a prefix; that can
    /// only keep an entry longer, never expire it early.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Backpressure`] when the stream already holds
    /// `max_depth` unacknowledged entries — the caller drops (and counts)
    /// rather than growing without bound — or [`Error::Storage`] if the
    /// journal is poisoned.
    pub fn enqueue(
        &mut self,
        stream: u64,
        tick: u64,
        stamp: Vec<u8>,
        payload: Vec<u8>,
    ) -> Result<u64> {
        self.check_usable()?;
        let s = self.streams.entry(stream).or_insert_with(Stream::new);
        if s.entries.len() >= self.cfg.max_depth {
            return Err(Error::Backpressure);
        }
        let entry = QueueEntry {
            seq: s.next_seq,
            tick: s.entries.back().map_or(tick, |last| tick.max(last.tick)),
            stamp,
            payload,
        };
        s.next_seq = s.next_seq.saturating_add(1);
        let seq = entry.seq;
        self.append(enqueue_record_len(&entry), |out| {
            push_enqueue(out, stream, &entry);
        });
        if let Some(s) = self.streams.get_mut(&stream) {
            s.entries.push_back(entry);
        }
        self.depth += 1;
        Ok(seq)
    }

    /// Commits cumulative delivery on `stream` up to and including
    /// `upto`: journals the ack (durable at the next [`Journal::sync`]),
    /// then releases the covered entries and returns how many. Idempotent
    /// — a stale or duplicate ack is a no-op that journals nothing.
    ///
    /// `upto` is clamped to the highest sequence number the stream has
    /// assigned: acks arrive from remote receivers, and a corrupt or
    /// malicious ack beyond the assigned range must not journal a bogus
    /// watermark that would swallow entries enqueued later (and, via the
    /// recovery path, wedge the stream permanently).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the journal is poisoned.
    pub fn ack_up_to(&mut self, stream: u64, upto: u64) -> Result<u64> {
        self.check_usable()?;
        let Some(s) = self.streams.get(&stream) else {
            return Ok(0);
        };
        let upto = upto.min(s.next_seq.saturating_sub(1));
        if upto <= s.acked {
            return Ok(0);
        }
        let first_ack = s.acked == 0;
        self.append(ACK_RECORD_LEN, |out| push_ack(out, stream, upto));
        self.acked_streams += u64::from(first_ack);
        let Some(s) = self.streams.get_mut(&stream) else {
            return Ok(0);
        };
        s.acked = upto;
        let released = s.entries.partition_point(|e| e.seq <= upto);
        s.entries.drain(..released);
        self.depth -= released as u64;
        Ok(released as u64)
    }

    /// Unacknowledged, unexpired entries of `stream` with a sequence
    /// number above `after_seq`, in sequence order — the relay's dispatch
    /// source (`after_seq` = what is already in flight). Found with two
    /// binary searches, so its `len()` is the undispatched backlog in
    /// O(log depth).
    pub fn pending_after(
        &self,
        stream: u64,
        now_tick: u64,
        after_seq: u64,
    ) -> vec_deque::Iter<'_, QueueEntry> {
        let Some(s) = self.streams.get(&stream) else {
            return NO_ENTRIES.iter();
        };
        let live = s.expired_len(self.cfg.ttl_ticks, now_tick);
        let undispatched = s.entries.partition_point(|e| e.seq <= after_seq);
        s.entries.range(live.max(undispatched)..)
    }

    /// The highest sequence number `s` such that *every* unacknowledged
    /// entry of `stream` in `acked+1 ..= s` is TTL-expired at `now_tick`
    /// (0 when the head of the stream is still live). The relay acks this
    /// prefix away so TTL-dropped entries cannot wedge the redelivery
    /// window.
    pub fn expired_prefix(&self, stream: u64, now_tick: u64) -> u64 {
        let Some(s) = self.streams.get(&stream) else {
            return 0;
        };
        let expired = s.expired_len(self.cfg.ttl_ticks, now_tick);
        let mut upto = s.acked;
        for entry in s.entries.range(..expired) {
            if entry.seq != upto + 1 {
                break;
            }
            upto = entry.seq;
        }
        if upto > s.acked {
            upto
        } else {
            0
        }
    }

    /// Unacknowledged entries of `stream` past their TTL at `now_tick`.
    fn expired(&self, stream: u64, now_tick: u64) -> u64 {
        self.streams
            .get(&stream)
            .map_or(0, |s| s.expired_len(self.cfg.ttl_ticks, now_tick) as u64)
    }

    /// The commit point: writes every record appended since the last
    /// commit with one `write` and, under [`SyncPolicy::Always`], makes
    /// it durable with one `fdatasync`. Does nothing when the journal is
    /// clean. After it returns `Ok`, everything enqueued or acknowledged
    /// so far survives a crash (power loss too, under `Always`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the write or sync fails — which
    /// poisons the journal — or if it is already poisoned.
    pub fn sync(&mut self) -> Result<()> {
        self.check_usable()?;
        if self.unwritten.is_empty() {
            return Ok(());
        }
        let Some(backend) = &mut self.backend else {
            return Ok(());
        };
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_write) {
            self.poisoned = true;
            return Err(Error::Storage("injected write failure".into()));
        }
        match backend.append(&self.unwritten, &self.cfg, &self.stats) {
            Ok(()) => {
                backend.active_records += self.unwritten_records;
                self.unwritten.clear();
                self.unwritten_records = 0;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// `true` once the dead records (acknowledged entries, superseded
    /// acks, state records) are at least `max(live, segment_max_records)`,
    /// where live is what a compaction would write back: every
    /// unacknowledged entry, one ack watermark per acknowledged stream and
    /// the state watermark. A pass then reclaims at least as many records
    /// as it rewrites, so its cost is amortised over the appends that
    /// created the garbage, and a cold stream's backlog is not rewritten
    /// every time warm streams ack. State records count as dead whether or
    /// not they are covered yet: the owner covers them before it compacts.
    pub fn compaction_due(&self) -> bool {
        let live = self.live_records();
        let dead = self.records.saturating_sub(live);
        dead >= live.max(self.cfg.segment_max_records as u64)
    }

    /// Rewrites every stream's live (unacked, unexpired) entries and ack
    /// watermark, and the state stream's covered watermark, into a fresh
    /// highest-generation segment and deletes the old ones, reclaiming
    /// acknowledged and TTL-expired records and covered state records. Expired
    /// entries — a prefix of each stream — are acknowledged away first, so
    /// the stream's watermark and sequence survive the rewrite. Records
    /// not yet committed are part of the rewrite, so a successful pass
    /// also commits them.
    ///
    /// Crash-safety: the new segment is written to a `.tmp`, fsynced
    /// (under [`SyncPolicy::Always`]), renamed into place and the rename
    /// made durable with a directory fsync before any old segment is
    /// deleted. A crash before the rename leaves only the ignored `.tmp`;
    /// a crash after it leaves duplicate records that [`Journal::open`]
    /// deduplicates by sequence number — every window recovers to the
    /// same state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] on filesystem failure — which poisons
    /// the journal — or if it is already poisoned. Refuses, without
    /// poisoning, while any state record is not covered
    /// ([`Journal::cover_state`]): the pass would drop it.
    pub fn compact(&mut self, now_tick: u64) -> Result<CompactionReport> {
        self.check_usable()?;
        let uncovered = self.state.last.saturating_sub(self.state.covered);
        if uncovered > 0 {
            return Err(Error::Storage(format!(
                "compaction would drop {uncovered} state records no checkpoint covers"
            )));
        }
        let mut expired_dropped = 0u64;
        for s in self.streams.values_mut() {
            let expired = s.expired_len(self.cfg.ttl_ticks, now_tick);
            let Some(last) = expired.checked_sub(1).and_then(|i| s.entries.get(i)) else {
                continue;
            };
            self.acked_streams += u64::from(s.acked == 0);
            s.acked = s.acked.max(last.seq);
            s.entries.drain(..expired);
            expired_dropped += expired as u64;
        }
        self.depth -= expired_dropped;
        let live = self.live_records();
        let mut report = CompactionReport {
            acked_dropped: self
                .records
                .saturating_sub(live)
                .saturating_sub(expired_dropped),
            expired_dropped,
            ..CompactionReport::default()
        };
        let Some(backend) = &mut self.backend else {
            self.records = live;
            return Ok(report);
        };
        match backend.rewrite(&self.streams, self.state.covered, &self.cfg, &self.stats) {
            Ok((segments_removed, bytes_reclaimed)) => {
                report.segments_removed = segments_removed;
                report.bytes_reclaimed = bytes_reclaimed;
                self.records = live;
                self.unwritten.clear();
                self.unwritten_records = 0;
                Ok(report)
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

/// A durable, bounded, TTL-retained delivery queue for one subscriber:
/// stream 0 of a [`Journal`], committed after every operation.
#[derive(Debug)]
pub struct SegmentQueue {
    journal: Journal,
}

/// The one stream of a [`SegmentQueue`].
const STREAM: u64 = 0;

impl SegmentQueue {
    /// A volatile queue (tests, simulator, relays that accept replay
    /// loss): same API and bookkeeping, no files.
    pub fn in_memory(cfg: QueueConfig) -> SegmentQueue {
        SegmentQueue {
            journal: Journal::in_memory(cfg),
        }
    }

    /// Opens (creating if needed) a durable queue rooted at `dir`,
    /// recovering it as [`Journal::open`] does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the directory or a segment cannot be
    /// read.
    pub fn open(dir: impl AsRef<Path>, cfg: QueueConfig) -> Result<SegmentQueue> {
        Journal::open(dir, cfg).map(|journal| SegmentQueue { journal })
    }

    /// The retention policy in force.
    pub fn config(&self) -> QueueConfig {
        self.journal.cfg
    }

    /// Unacknowledged entries currently held (expired ones included until
    /// compaction reclaims them).
    pub fn depth(&self) -> usize {
        self.journal.depth(STREAM)
    }

    /// Highest cumulatively acknowledged sequence number (0 = none).
    pub fn acked(&self) -> u64 {
        self.journal.acked(STREAM)
    }

    /// The sequence number the next [`SegmentQueue::enqueue`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.journal.next_seq(STREAM)
    }

    /// Committed segment files on disk (1 for an in-memory queue's
    /// logical tail).
    pub fn segment_count(&self) -> usize {
        self.journal.segment_count()
    }

    /// See [`Journal::recovery_anomalies`].
    pub fn recovery_anomalies(&self) -> u64 {
        self.journal.recovery_anomalies()
    }

    /// Storage traffic accounting.
    pub fn stats(&self) -> &StorageStats {
        self.journal.stats()
    }

    /// Journals one publication, assigning and returning its sequence
    /// number. Under [`SyncPolicy::Always`] (the default) the entry is
    /// durable against power loss before this returns; under
    /// [`SyncPolicy::OsBuffered`] it survives a process crash only.
    ///
    /// # Errors
    ///
    /// As for [`Journal::enqueue`] and [`Journal::sync`].
    pub fn enqueue(&mut self, tick: u64, stamp: Vec<u8>, payload: Vec<u8>) -> Result<u64> {
        let seq = self.journal.enqueue(STREAM, tick, stamp, payload)?;
        self.journal.sync()?;
        Ok(seq)
    }

    /// Commits cumulative delivery up to and including `upto`, durably,
    /// as [`Journal::ack_up_to`] followed by a commit.
    ///
    /// # Errors
    ///
    /// As for [`Journal::ack_up_to`] and [`Journal::sync`].
    pub fn ack_up_to(&mut self, upto: u64) -> Result<u64> {
        let released = self.journal.ack_up_to(STREAM, upto)?;
        self.journal.sync()?;
        Ok(released)
    }

    /// Unacknowledged, unexpired entries in sequence order — the relay's
    /// redelivery window source.
    pub fn pending(&self, now_tick: u64) -> impl Iterator<Item = &QueueEntry> {
        self.journal.pending_after(STREAM, now_tick, 0)
    }

    /// See [`Journal::expired_prefix`].
    pub fn expired_prefix(&self, now_tick: u64) -> u64 {
        self.journal.expired_prefix(STREAM, now_tick)
    }

    /// Unacknowledged entries past their TTL at `now_tick`.
    pub fn expired(&self, now_tick: u64) -> u64 {
        self.journal.expired(STREAM, now_tick)
    }

    /// Compacts the queue as [`Journal::compact`] does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] on filesystem failure.
    pub fn compact(&mut self, now_tick: u64) -> Result<CompactionReport> {
        self.journal.compact(now_tick)
    }
}

enum Record {
    Enqueue(u64, QueueEntry),
    AckUpTo(u64, u64),
    State(u64, Vec<u8>),
    StateCovered(u64),
}

/// What one record's bytes turned out to be.
enum Parsed {
    Record(Record),
    /// Not a record of any known shape: read like a tear.
    Malformed,
    /// A checksummed record whose CRC does not match its bytes.
    Mismatch,
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

/// How a segment's records end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentEnd {
    /// End of file, or a zero length prefix with nothing but zeros after
    /// it: the zero fill ahead of the tail.
    Clean,
    /// A torn or malformed record: what a crash mid-write leaves.
    Torn,
    /// A record failing its checksum that no tear explains.
    Corrupt,
}

/// Bytes a segment is read in per `read`.
const READ_CHUNK: usize = 16 << 10;

/// What recovery read from one segment.
struct Segment {
    records: Vec<Record>,
    /// Where the records read end: the logical tail of a clean segment.
    end: u64,
    how: SegmentEnd,
}

/// `true` when `r` holds nothing but zeros from here to its end.
fn only_zeros_left(r: &mut impl BufRead) -> std::io::Result<bool> {
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(true);
        }
        if !buf
            .chunks(ZEROS.len())
            .all(|c| ZEROS.get(..c.len()) == Some(c))
        {
            return Ok(false);
        }
        let n = buf.len();
        r.consume(n);
    }
}

/// Reads the length-prefixed records of the segment at `path`, streaming,
/// up to its clean end or the first torn, malformed or checksum-failing
/// record. A record that fails its checksum reads as a tear, not as
/// corruption, when its checksum field is still zero and only zeros
/// follow it: a commit cut short inside the zero fill leaves exactly that.
fn read_segment(path: &Path) -> std::io::Result<Segment> {
    let file = fs::File::open(path)?;
    let len = file.metadata()?.len();
    // The zero fill is checked through this buffer, never held in memory.
    let mut r = BufReader::with_capacity(READ_CHUNK, file);
    let mut records = Vec::new();
    let mut rec = Vec::new();
    let mut end = 0u64;
    let how = loop {
        let left = len - end;
        let mut prefix = [0u8; 4];
        let prefix = prefix.get_mut(..left.min(4) as usize).unwrap_or(&mut []);
        r.read_exact(prefix)?;
        if prefix.iter().all(|&b| b == 0) {
            // End of file, or a zero length prefix: clean only if the
            // zero fill behind it is untouched.
            break if only_zeros_left(&mut r)? {
                SegmentEnd::Clean
            } else {
                SegmentEnd::Torn
            };
        }
        let Some(body) = le_u32(prefix, 0) else {
            break SegmentEnd::Torn; // a torn length prefix
        };
        if u64::from(body) > left - 4 {
            break SegmentEnd::Torn; // a torn final record
        }
        rec.resize(body as usize, 0);
        r.read_exact(&mut rec)?;
        match parse_one(&rec) {
            Parsed::Record(parsed) => records.push(parsed),
            Parsed::Malformed => break SegmentEnd::Torn,
            Parsed::Mismatch => {
                let unfinished = rec.iter().rev().take(4).all(|&b| b == 0);
                break if unfinished && only_zeros_left(&mut r)? {
                    SegmentEnd::Torn
                } else {
                    SegmentEnd::Corrupt
                };
            }
        }
        end += 4 + u64::from(body);
    };
    Ok(Segment { records, end, how })
}

fn parse_one(rec: &[u8]) -> Parsed {
    let legacy = match rec.first() {
        None => return Parsed::Malformed,
        Some(&TAG_ENQUEUE) => rec
            .get(1..)
            .and_then(parse_entry)
            .map(|e| Record::Enqueue(STREAM, e)),
        Some(&TAG_ACK_UP_TO) => le_u64(rec, 1).map(|upto| Record::AckUpTo(STREAM, upto)),
        Some(&TAG_STREAM_ENQUEUE) => le_u64(rec, 1)
            .zip(rec.get(9..).and_then(parse_entry))
            .map(|(key, e)| Record::Enqueue(key, e)),
        Some(&TAG_STREAM_ACK_UP_TO) => le_u64(rec, 1)
            .zip(le_u64(rec, 9))
            .map(|(key, upto)| Record::AckUpTo(key, upto)),
        Some(_) => return parse_summed(rec),
    };
    legacy.map_or(Parsed::Malformed, Parsed::Record)
}

/// Checks and decodes a checksummed record: `tag | body | crc`.
fn parse_summed(rec: &[u8]) -> Parsed {
    let Some(summed) = rec.len().checked_sub(4).and_then(|n| rec.get(..n)) else {
        return Parsed::Mismatch;
    };
    if le_u32(rec, summed.len()) != Some(crc32c(summed)) {
        return Parsed::Mismatch;
    }
    let Some((&tag, body)) = summed.split_first() else {
        return Parsed::Mismatch;
    };
    let record = match tag {
        TAG_SUMMED_ENQUEUE => le_u64(body, 0)
            .zip(body.get(8..).and_then(parse_entry))
            .map(|(key, e)| Record::Enqueue(key, e)),
        TAG_SUMMED_ACK_UP_TO => le_u64(body, 0)
            .zip(le_u64(body, 8))
            .map(|(key, upto)| Record::AckUpTo(key, upto)),
        TAG_STATE => le_u64(body, 0)
            .zip(body.get(8..))
            .map(|(seq, bytes)| Record::State(seq, bytes.to_vec())),
        TAG_STATE_COVERED => le_u64(body, 0).map(Record::StateCovered),
        _ => None,
    };
    record.map_or(Parsed::Malformed, Parsed::Record)
}

/// Decodes `seq | tick | stamp_len | stamp | payload_len | payload`.
fn parse_entry(b: &[u8]) -> Option<QueueEntry> {
    let seq = le_u64(b, 0)?;
    let tick = le_u64(b, 8)?;
    let stamp_len = le_u32(b, 16)? as usize;
    let stamp = b.get(20..20 + stamp_len)?.to_vec();
    let payload_len = le_u32(b, 20 + stamp_len)? as usize;
    let start = 24 + stamp_len;
    let payload = b.get(start..start + payload_len)?.to_vec();
    Some(QueueEntry {
        seq,
        tick,
        stamp,
        payload,
    })
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

    /// Where the records of a segment image end: its length prefixes
    /// walked up to a zero one or the end of the bytes.
    fn logical_end(bytes: &[u8]) -> usize {
        let mut at = 0;
        while let Some(len) = le_u32(bytes, at).filter(|&len| len > 0) {
            at += 4 + len as usize;
        }
        at.min(bytes.len())
    }

    /// Overwrites `seg` from byte `at` on with `bytes`, in place.
    fn write_at(seg: &Path, at: usize, bytes: &[u8]) {
        let mut f = fs::OpenOptions::new().write(true).open(seg).unwrap();
        f.seek(SeekFrom::Start(at as u64)).unwrap();
        f.write_all(bytes).unwrap();
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
        // The tear is at the logical tail; the zero fill behind it stays.
        let gen0 = DirBackend::seg_path(&dir, 0);
        let end = logical_end(&fs::read(&gen0).unwrap());
        write_at(&gen0, end - 3, &[0; 3]);
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
            q.ack_up_to(1).unwrap();
            q.enqueue(0, vec![1, 2], b"intact".to_vec()).unwrap();
        }
        // Crash mid-append: a promising length prefix with a short body,
        // at the logical tail, with the zero fill behind it.
        let seg = DirBackend::seg_path(&dir, 0);
        let end = logical_end(&fs::read(&seg).unwrap());
        let mut torn = 500u32.to_le_bytes().to_vec();
        torn.extend_from_slice(b"torn");
        write_at(&seg, end, &torn);
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

    #[test]
    fn streams_share_one_journal_and_commit_together() {
        let dir = tmp_dir("journal-group-commit");
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        j.stats().reset();
        for stream in [7u64, 9, 7] {
            j.enqueue(stream, 0, vec![], vec![stream as u8]).unwrap();
        }
        j.ack_up_to(9, 1).unwrap();
        let seg = DirBackend::seg_path(&dir, 0);
        assert_eq!(fs::metadata(&seg).unwrap().len(), 0, "nothing written");
        assert_eq!(j.stats().syncs(), 0);
        j.sync().unwrap();
        assert_eq!(j.stats().syncs(), 1, "one fdatasync for the whole group");
        j.sync().unwrap();
        assert_eq!(j.stats().syncs(), 1, "a clean journal syncs nothing");
        // A record appended after the last commit dies with the process.
        j.enqueue(9, 0, vec![], b"lost".to_vec()).unwrap();
        drop(j);
        let j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.depth(7), 2);
        assert_eq!((j.depth(9), j.acked(9), j.next_seq(9)), (0, 1, 2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_queue_segment_opens_as_stream_zero() {
        let dir = tmp_dir("journal-legacy");
        fs::create_dir_all(&dir).unwrap();
        let mut records: Vec<Vec<u8>> = Vec::new();
        for (seq, payload) in [(1u64, b'a'), (2, b'b')] {
            let mut rec = vec![TAG_ENQUEUE];
            rec.extend_from_slice(&seq.to_le_bytes());
            rec.extend_from_slice(&0u64.to_le_bytes());
            rec.extend_from_slice(&0u32.to_le_bytes());
            rec.extend_from_slice(&1u32.to_le_bytes());
            rec.push(payload);
            records.push(rec);
        }
        let mut ack = vec![TAG_ACK_UP_TO];
        ack.extend_from_slice(&1u64.to_le_bytes());
        records.push(ack);
        let mut seg = Vec::new();
        for rec in records {
            seg.extend_from_slice(&u32::try_from(rec.len()).unwrap().to_le_bytes());
            seg.extend_from_slice(&rec);
        }
        fs::write(DirBackend::seg_path(&dir, 0), &seg).unwrap();
        let q = SegmentQueue::open(&dir, cfg(16, None, 8)).unwrap();
        assert_eq!((q.acked(), q.next_seq()), (1, 3));
        let payloads: Vec<&[u8]> = q.pending(0).map(|e| e.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"b".as_slice()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_poisons_until_reopen() {
        let dir = tmp_dir("journal-poison");
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        j.enqueue(1, 0, vec![], b"kept".to_vec()).unwrap();
        j.sync().unwrap();
        j.enqueue(1, 0, vec![], b"lost".to_vec()).unwrap();
        j.fail_next_write = true;
        assert!(matches!(j.sync(), Err(Error::Storage(_))));
        // Every later operation refuses, a clean commit included: a
        // retried fsync could report success for data already dropped.
        assert!(matches!(j.sync(), Err(Error::Storage(_))));
        assert!(matches!(
            j.enqueue(1, 0, vec![], vec![]),
            Err(Error::Storage(_))
        ));
        assert!(matches!(j.ack_up_to(1, 1), Err(Error::Storage(_))));
        assert!(matches!(j.compact(0), Err(Error::Storage(_))));
        drop(j);
        // Recovery starts over from what was committed.
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        let payloads: Vec<&[u8]> = j
            .pending_after(1, 0, 0)
            .map(|e| e.payload.as_slice())
            .collect();
        assert_eq!(payloads, vec![b"kept".as_slice()]);
        assert_eq!(j.enqueue(1, 0, vec![], b"after".to_vec()).unwrap(), 2);
        j.sync().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_records_replay_past_the_covered_watermark_only() {
        let dir = tmp_dir("journal-state");
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert!(j.is_durable());
        for (i, rec) in [&b"one"[..], b"two", b"three"].into_iter().enumerate() {
            assert_eq!(j.append_state(rec).unwrap(), i as u64 + 1);
        }
        j.enqueue(7, 0, vec![], b"entry".to_vec()).unwrap();
        j.sync().unwrap();
        // Unsynced records die with the process, state ones included.
        j.append_state(b"lost").unwrap();
        drop(j);

        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.state_seq(), 3);
        let tail: Vec<(u64, Vec<u8>)> = j.take_state_tail();
        assert_eq!(
            tail,
            vec![
                (1, b"one".to_vec()),
                (2, b"two".to_vec()),
                (3, b"three".to_vec())
            ]
        );
        assert!(j.take_state_tail().is_empty(), "handed over once");
        // Compaction refuses to drop records no checkpoint covers...
        assert!(matches!(j.compact(0), Err(Error::Storage(_))));
        j.enqueue(7, 0, vec![], b"still usable".to_vec()).unwrap();
        // ...and, once they are covered, keeps only the watermark.
        j.cover_state(2);
        assert!(j.compact(0).is_err(), "record 3 is still uncovered");
        j.cover_state(3);
        j.compact(0).unwrap();
        assert_eq!(j.append_state(b"four").unwrap(), 4);
        j.sync().unwrap();
        drop(j);

        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.take_state_tail(), vec![(4, b"four".to_vec())]);
        assert_eq!(j.depth(7), 2);
        j.cover_state(4);
        j.compact(0).unwrap();
        drop(j);
        // A fully covered, compacted stream keeps its sequence.
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert!(j.take_state_tail().is_empty());
        assert_eq!(j.append_state(b"five").unwrap(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_checksum_cuts_the_segment_and_is_counted() {
        let dir = tmp_dir("journal-crc");
        {
            let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
            for payload in [&b"first"[..], b"second", b"third"] {
                j.enqueue(1, 0, vec![], payload.to_vec()).unwrap();
                j.sync().unwrap();
            }
        }
        // Flip one bit inside the second record's payload.
        let seg = DirBackend::seg_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let at = bytes.windows(6).position(|w| w == b"second").unwrap();
        bytes[at] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.recovery_anomalies(), 1);
        let payloads: Vec<&[u8]> = j
            .pending_after(1, 0, 0)
            .map(|e| e.payload.as_slice())
            .collect();
        assert_eq!(payloads, vec![b"first".as_slice()], "read up to the flip");
        // The rest of the segment is a torn tail: appends roll past it.
        assert_eq!(j.enqueue(1, 0, vec![], b"after".to_vec()).unwrap(), 2);
        j.sync().unwrap();
        drop(j);
        let j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.depth(1), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commits_overwrite_the_zero_fill_and_grow_the_file_once_per_step() {
        let dir = tmp_dir("journal-fill");
        let mut j = Journal::open(&dir, cfg(4096, None, 4096)).unwrap();
        let seg = DirBackend::seg_path(&dir, 0);
        let mut sizes = Vec::new();
        while sizes.last().is_none_or(|&len| len <= FILL_STEP) {
            j.enqueue(1, 0, vec![], vec![0xA5; 1000]).unwrap();
            j.append_state(&[0x5A; 200]).unwrap();
            j.sync().unwrap();
            sizes.push(fs::metadata(&seg).unwrap().len());
        }
        // The segment's first commit writes its records only and the
        // second fills one step; every commit inside it leaves the size
        // alone (no extent or size change for its fdatasync to commit),
        // and the commit that passes it fills the next step.
        let growths = sizes[1..].windows(2).filter(|w| w[0] != w[1]).count();
        // An entry of 4 + 1 037 bytes and a state record of 4 + 213.
        assert_eq!(sizes[0], 1041 + 217, "records only");
        assert_eq!(sizes[1], FILL_STEP);
        assert_eq!(sizes.last(), Some(&(2 * FILL_STEP)));
        assert_eq!(growths, 1, "{sizes:?}");
        // Accounting counts record bytes, never the zeros.
        let end = logical_end(&fs::read(&seg).unwrap());
        assert_eq!(j.stats().bytes_written(), end as u64);
        assert!(fs::read(&seg).unwrap()[end..].iter().all(|&b| b == 0));
        drop(j);
        let j = Journal::open(&dir, cfg(4096, None, 4096)).unwrap();
        assert_eq!(j.stats().bytes_read(), end as u64);
        assert_eq!(j.depth(1), sizes.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_clean_reopen_appends_right_after_the_last_record() {
        let dir = tmp_dir("journal-resume");
        let seg = DirBackend::seg_path(&dir, 0);
        {
            let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
            j.enqueue(3, 6, vec![1], b"first".to_vec()).unwrap();
            j.sync().unwrap();
            j.enqueue(3, 7, vec![1], b"before".to_vec()).unwrap();
            j.sync().unwrap();
        }
        let before = fs::read(&seg).unwrap();
        assert_eq!(before.len() as u64, FILL_STEP);
        let end = logical_end(&before);
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.recovery_anomalies(), 0);
        j.enqueue(3, 8, vec![2], b"after".to_vec()).unwrap();
        j.sync().unwrap();
        let after = fs::read(&seg).unwrap();
        let mut want = Vec::new();
        push_enqueue(
            &mut want,
            3,
            &QueueEntry {
                seq: 3,
                tick: 8,
                stamp: vec![2],
                payload: b"after".to_vec(),
            },
        );
        assert_eq!(after.len(), before.len(), "written in place, not at EOF");
        assert_eq!(&after[..end], &before[..end]);
        assert_eq!(&after[end..end + want.len()], &want[..]);
        assert_eq!(logical_end(&after), end + want.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_zero_filled_non_final_generation_is_no_anomaly() {
        let dir = tmp_dir("journal-filled-middle");
        {
            let mut q = SegmentQueue::open(&dir, cfg(16, None, 2)).unwrap();
            for i in 0..5u8 {
                q.enqueue(0, vec![], vec![i]).unwrap();
            }
            q.ack_up_to(1).unwrap();
        }
        let gens = DirBackend::list_gens(&dir).unwrap();
        assert_eq!(gens.len(), 3);
        for gen in gens {
            let len = fs::metadata(DirBackend::seg_path(&dir, gen)).unwrap().len();
            assert_eq!(len, FILL_STEP, "generation {gen} is zero-filled");
        }
        let q = SegmentQueue::open(&dir, cfg(16, None, 2)).unwrap();
        assert_eq!(q.recovery_anomalies(), 0);
        let seqs: Vec<u64> = q.pending(0).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zeros_too_short_for_a_length_prefix_are_a_clean_end() {
        let dir = tmp_dir("journal-short-fill");
        let seg = DirBackend::seg_path(&dir, 0);
        {
            let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
            for payload in [&b"kept"[..], b"too"] {
                j.enqueue(1, 0, vec![], payload.to_vec()).unwrap();
                j.sync().unwrap();
            }
        }
        // Records that end two bytes short of the end of the file.
        let bytes = fs::read(&seg).unwrap();
        let end = logical_end(&bytes);
        fs::write(&seg, &bytes[..end + 2]).unwrap();
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!((j.depth(1), j.recovery_anomalies()), (2, 0));
        j.enqueue(1, 0, vec![], b"next".to_vec()).unwrap();
        j.sync().unwrap();
        assert_eq!(DirBackend::list_gens(&dir).unwrap(), vec![0], "no roll");
        drop(j);
        let j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.depth(1), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_behind_a_zero_length_prefix_are_a_tear() {
        let dir = tmp_dir("journal-dirty-fill");
        let seg = DirBackend::seg_path(&dir, 0);
        {
            let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
            j.enqueue(1, 0, vec![], b"kept".to_vec()).unwrap();
            j.sync().unwrap();
        }
        // A commit whose first page never reached the disk but whose
        // second did: a zero length prefix, then something written.
        let end = logical_end(&fs::read(&seg).unwrap());
        write_at(&seg, end + 5000, b"later page");
        let mut j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!((j.depth(1), j.recovery_anomalies()), (1, 0));
        // Appending in place would leave those bytes behind the new
        // records, so the tail rolls instead.
        j.enqueue(1, 0, vec![], b"next".to_vec()).unwrap();
        j.sync().unwrap();
        assert_eq!(DirBackend::list_gens(&dir).unwrap(), vec![0, 1]);
        drop(j);
        let j = Journal::open(&dir, cfg(16, None, 64)).unwrap();
        assert_eq!(j.depth(1), 2);
        assert_eq!(j.recovery_anomalies(), 1, "now a torn middle generation");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_writes_its_zero_fill_and_reclaims_record_bytes() {
        let dir = tmp_dir("journal-compact-fill");
        let mut j = Journal::open(&dir, cfg(64, None, 4)).unwrap();
        for i in 0..10u8 {
            j.enqueue(1, 0, vec![], vec![i; 8]).unwrap();
            j.sync().unwrap();
        }
        j.ack_up_to(1, 8).unwrap();
        j.sync().unwrap();
        let written = j.stats().bytes_written();
        let report = j.compact(0).unwrap();
        let gens = DirBackend::list_gens(&dir).unwrap();
        let seg = DirBackend::seg_path(&dir, gens[0]);
        let bytes = fs::read(&seg).unwrap();
        let end = logical_end(&bytes);
        assert_eq!(bytes.len() as u64, FILL_STEP);
        assert_eq!(report.bytes_reclaimed, written - end as u64);
        // Appends after the compaction land in the fill.
        j.enqueue(1, 0, vec![], b"next".to_vec()).unwrap();
        j.sync().unwrap();
        assert_eq!(fs::metadata(&seg).unwrap().len(), FILL_STEP);
        drop(j);
        let j = Journal::open(&dir, cfg(64, None, 4)).unwrap();
        assert_eq!((j.depth(1), j.acked(1), j.recovery_anomalies()), (3, 8, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_is_due_only_once_dead_records_pay_for_the_rewrite() {
        let mut j = Journal::in_memory(cfg(4096, None, 8));
        // A cold stream's backlog: 20 live entries.
        for _ in 0..20 {
            j.enqueue(1, 0, vec![], vec![]).unwrap();
        }
        // A warm stream whose every entry is acked at once: two records,
        // one of them dead, per round.
        let mut rounds = 0;
        while !j.compaction_due() {
            rounds += 1;
            j.enqueue(2, 0, vec![], vec![]).unwrap();
            j.ack_up_to(2, rounds).unwrap();
        }
        // live = 20 cold entries + 1 ack watermark; dead = 2 * rounds - 1
        // reaches it at round 11, not at the 8-record segment size.
        assert_eq!(rounds, 11);
        let report = j.compact(0).unwrap();
        assert_eq!(report.acked_dropped, 21);
        assert!(!j.compaction_due());
        assert_eq!((j.depth(1), j.acked(2)), (20, 11));
    }

    /// One operation of the undispatched-count property.
    #[derive(Debug, Clone)]
    enum Op {
        /// Enqueue at `now` minus a jitter (ticks may run backwards).
        Enqueue(u64),
        Ack(u64),
        Advance(u64),
        Dispatch(u64),
        Compact,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0u64..4).prop_map(Op::Enqueue),
            (0u64..40).prop_map(Op::Ack),
            (0u64..8).prop_map(Op::Advance),
            (0u64..40).prop_map(Op::Dispatch),
            Just(Op::Compact),
        ]
    }

    fn ttl() -> impl proptest::strategy::Strategy<Value = Option<u64>> {
        use proptest::prelude::*;
        prop_oneof![Just(None), (0u64..12).prop_map(Some)]
    }

    proptest::proptest! {
        /// `pending_after(..).len()` — two binary searches — equals the
        /// scan it replaced (every unexpired entry past the dispatch
        /// horizon), with and without a TTL.
        #[test]
        fn undispatched_count_matches_the_scan(
            ops in proptest::collection::vec(op(), 0..80),
            ttl in ttl(),
        ) {
            const S: u64 = 3;
            let mut j = Journal::in_memory(cfg(32, ttl, 8));
            let (mut now, mut horizon) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Enqueue(jitter) => {
                        let _ = j.enqueue(S, now.saturating_sub(jitter), vec![], vec![]);
                    }
                    Op::Ack(upto) => {
                        j.ack_up_to(S, upto).unwrap();
                    }
                    Op::Advance(d) => now += d,
                    Op::Dispatch(h) => horizon = h,
                    Op::Compact => {
                        j.compact(now).unwrap();
                    }
                }
                let scan: Vec<u64> = j.streams.get(&S).map_or_else(Vec::new, |s| {
                    s.entries
                        .iter()
                        .filter(|e| ttl.is_none_or(|t| now.saturating_sub(e.tick) <= t))
                        .filter(|e| e.seq > horizon)
                        .map(|e| e.seq)
                        .collect()
                });
                let fast = j.pending_after(S, now, horizon);
                proptest::prop_assert_eq!(fast.len(), scan.len());
                proptest::prop_assert_eq!(fast.map(|e| e.seq).collect::<Vec<_>>(), scan);
            }
        }
    }
}
