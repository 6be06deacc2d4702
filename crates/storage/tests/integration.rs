//! Cross-backend store tests: trait-object use, concurrency, and
//! memory-vs-file behavioural equivalence.

use std::sync::Arc;

use aaa_storage::{DirStore, MemoryStore, StableStore};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aaa-storage-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the same scenario against any store and returns the observable
/// outcome, for backend-equivalence checks.
fn store_scenario(store: &dyn StableStore) -> Vec<(String, Option<Vec<u8>>)> {
    store.put("a", b"1").unwrap();
    store.put("b", b"2").unwrap();
    store.put("a", b"3").unwrap(); // overwrite
    store.remove("b").unwrap();
    store.put("c/d e", b"4").unwrap(); // key needing escaping on disk
    let mut keys = store.keys().unwrap();
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let v = store.get(&k).unwrap();
            (k, v)
        })
        .collect()
}

#[test]
fn memory_and_dir_stores_behave_identically() {
    let mem = MemoryStore::new();
    let dir = tmp("equiv");
    let disk = DirStore::open(&dir).unwrap();
    assert_eq!(store_scenario(&mem), store_scenario(&disk));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_store_access_through_trait_object() {
    let store: Arc<dyn StableStore> = Arc::new(MemoryStore::new());
    let mut handles = Vec::new();
    for t in 0..4 {
        let store = store.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..100 {
                store
                    .put(&format!("t{t}/k{i}"), &[t as u8, i as u8])
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.keys().unwrap().len(), 400);
    assert_eq!(store.stats().writes(), 400);
}
