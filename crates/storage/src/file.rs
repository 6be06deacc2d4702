//! File-backed storage: one file per key.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use aaa_base::{Error, Result};

use crate::stats::StorageStats;
use crate::StableStore;

fn storage_err(context: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{context}: {e}"))
}

/// Escapes a key into a safe file name (alphanumerics, `-`, `_`, `.` pass
/// through; everything else becomes `%XX`).
fn escape_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for b in key.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn unescape_key(name: &str) -> Option<String> {
    let bytes = name.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = name.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// A [`StableStore`] persisting each key as one file in a directory.
///
/// Writes are crash-atomic and durable per key: the value is written to a
/// temporary file, fsynced, renamed over the target, and the rename made
/// durable with a directory fsync, so recovery — after power loss too —
/// sees the old value until `put` returns and the new one after.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
    stats: StorageStats,
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| storage_err("create store dir", e))?;
        Ok(DirStore {
            dir,
            stats: StorageStats::new(),
        })
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(escape_key(key))
    }
}

impl StableStore for DirStore {
    fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        self.stats.record_write(value.len() as u64);
        let target = self.path_for(key);
        let tmp = self.dir.join(format!(".tmp-{}", escape_key(key)));
        let mut file = fs::File::create(&tmp).map_err(|e| storage_err("create temp file", e))?;
        file.write_all(value)
            .map_err(|e| storage_err("write temp file", e))?;
        // The contents must be on stable storage before the rename
        // publishes them, or power loss could leave the key naming garbage.
        self.stats.record_sync();
        file.sync_all()
            .map_err(|e| storage_err("sync temp file", e))?;
        fs::rename(&tmp, &target).map_err(|e| storage_err("rename into place", e))?;
        self.stats.record_sync();
        fs::File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| storage_err("sync store dir", e))
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        match fs::read(self.path_for(key)) {
            Ok(v) => {
                self.stats.record_read(v.len() as u64);
                Ok(Some(v))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(storage_err("read value", e)),
        }
    }

    fn remove(&self, key: &str) -> Result<()> {
        self.stats.record_write(0);
        match fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(storage_err("remove value", e)),
        }
    }

    fn keys(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| storage_err("list store dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| storage_err("read dir entry", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".tmp-") {
                continue;
            }
            if let Some(key) = unescape_key(&name) {
                out.push(key);
            }
        }
        Ok(out)
    }

    fn stats(&self) -> &StorageStats {
        &self.stats
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

    #[test]
    fn dir_store_roundtrip() {
        let dir = tmp_dir("kv");
        let store = DirStore::open(&dir).unwrap();
        store.put("matrix/d0", b"hello").unwrap();
        store.put("agent#1", b"state").unwrap();
        assert_eq!(
            store.get("matrix/d0").unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(store.get("nope").unwrap(), None);
        let mut keys = store.keys().unwrap();
        keys.sort();
        assert_eq!(keys, vec!["agent#1", "matrix/d0"]);
        store.remove("agent#1").unwrap();
        assert_eq!(store.get("agent#1").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_syncs_the_file_and_the_rename() {
        let dir = tmp_dir("durable-put");
        let store = DirStore::open(&dir).unwrap();
        for (i, value) in [&b"first"[..], b"second", b""].into_iter().enumerate() {
            store.put("image", value).unwrap();
            assert_eq!(store.stats().syncs(), 2 * (i as u64 + 1), "two per put");
            assert_eq!(store.get("image").unwrap().as_deref(), Some(value));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let store = DirStore::open(&dir).unwrap();
            store.put("k", b"persisted").unwrap();
        }
        let store = DirStore::open(&dir).unwrap();
        assert_eq!(store.get("k").unwrap().as_deref(), Some(&b"persisted"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_escaping_roundtrips() {
        for key in ["plain", "with/slash", "sp ace", "uni\u{e9}", "%weird%"] {
            assert_eq!(unescape_key(&escape_key(key)).as_deref(), Some(key));
        }
    }
}
