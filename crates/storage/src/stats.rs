//! Byte-exact storage accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters of storage traffic.
///
/// The paper identifies "high disk I/O activity to maintain a persistent
/// image of the matrix on each server" as one of the two scalability
/// problems (§3); experiments use these counters to report persistence
/// bytes per delivered message, with and without domains.
#[derive(Debug, Default)]
pub struct StorageStats {
    writes: AtomicU64,
    bytes_written: AtomicU64,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    syncs: AtomicU64,
}

impl StorageStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one write of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one read of `bytes` bytes.
    pub fn record_read(&self, bytes: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one durability barrier (`fdatasync` of a journal segment,
    /// `fsync` of a compaction file, a stored value or a directory).
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of write operations so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of read operations so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Number of durability barriers so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero (between experiment phases).
    pub fn reset(&self) {
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.reads.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let s = StorageStats::new();
        s.record_write(10);
        s.record_write(5);
        s.record_read(3);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.bytes_written(), 15);
        assert_eq!(s.reads(), 1);
        assert_eq!(s.bytes_read(), 3);
    }

    #[test]
    fn reset_zeroes() {
        let s = StorageStats::new();
        s.record_write(10);
        s.record_sync();
        s.reset();
        assert_eq!(s.writes(), 0);
        assert_eq!(s.bytes_written(), 0);
        assert_eq!(s.syncs(), 0);
    }

    #[test]
    fn concurrent_updates() {
        let s = std::sync::Arc::new(StorageStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_write(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.writes(), 4000);
        assert_eq!(s.bytes_written(), 4000);
    }
}
