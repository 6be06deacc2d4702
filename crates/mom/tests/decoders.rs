//! Byte-soup properties of the decoders a recovering server feeds with
//! disk bytes: the checkpoint (`ServerImage`) and the state record.
//!
//! Whatever the bytes, decoding returns or refuses with `Error::Codec`,
//! never panics, and allocates at most `16·N + 64` bytes for `N` bytes of
//! input — the bound `crates/net/tests/properties.rs` holds the wire
//! decoder to. Inputs are random bytes, random bytes under a valid
//! checksum (so they reach the checkpoint's structural decoder), and real
//! checkpoints and records from a short relay fan-out with bytes
//! overwritten. The proptest block runs the default number of cases,
//! which `PROPTEST_CASES` deepens.

// The counting allocator below is this package's one piece of `unsafe`; it
// forwards every call to `System` unchanged. See `[lints]` in the manifest.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use aaa_base::{AgentId, Error, ServerId, VTime};
use aaa_mom::pubsub::{publication, subscription, TopicAgent};
use aaa_mom::{relay_agent, FnAgent, RelayConfig, ServerConfig, ServerCore, Transmission};
use aaa_storage::{crc32c, Journal, MemoryStore, QueueConfig, StableStore};
use aaa_topology::TopologySpec;
use bytes::Bytes;
use proptest::prelude::*;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        ALLOCATED.with(|bytes| bytes.set(bytes.get().wrapping_add(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` and `layout` describe a block this allocator handed
        // out, which means `System` did.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Decodes `input` as a checkpoint or a state record, holding the decoder
/// to `16·N + 64` bytes of allocation for `N` bytes of input.
fn decode_bounded(checkpoint: bool, input: Bytes) -> aaa_base::Result<()> {
    let n = input.len();
    let before = ALLOCATED.with(Cell::get);
    let result = ServerCore::decode_persisted(checkpoint, input);
    let allocated = ALLOCATED.with(Cell::get).wrapping_sub(before);
    assert!(
        allocated <= 16 * n + 64,
        "{allocated} B allocated decoding {n} B"
    );
    result
}

/// `body` followed by its CRC-32C, as a checkpoint is sealed.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&crc32c(body).to_le_bytes());
    out
}

fn sid(s: u16) -> ServerId {
    ServerId::new(s)
}

/// Real checkpoints and state records: both servers' of a two-server
/// relay fan-out that persists, after a few publications (the records are
/// still on disk after the checkpoints cover them: nothing compacted).
struct Samples {
    checkpoints: Vec<Vec<u8>>,
    records: Vec<Vec<u8>>,
}

fn samples() -> &'static Samples {
    static SAMPLES: OnceLock<Samples> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("aaa-mom-decoders-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topo = TopologySpec::single_domain(2).validate().unwrap();
        let config = ServerConfig {
            persist: true,
            ..ServerConfig::default()
        };
        let stores: Vec<Arc<MemoryStore>> = (0..2).map(|_| Arc::new(MemoryStore::new())).collect();
        let mut cores: Vec<ServerCore> = (0..2)
            .map(|i| {
                let store: Arc<dyn StableStore> = stores[i].clone();
                let mut core = ServerCore::new(&topo, sid(i as u16), config, store).unwrap();
                core.enable_relay(RelayConfig::default().dir(&dir), VTime::ZERO)
                    .unwrap();
                core
            })
            .collect();
        let topic =
            cores[0].register_agent(1, Box::new(TopicAgent::with_relay(relay_agent(sid(0)))));
        let mut queue: VecDeque<(ServerId, Transmission)> = VecDeque::new();
        for local in 1..=3 {
            let sub = cores[1].register_agent(local, Box::new(FnAgent::new(|_, _, _| {})));
            let (_, tx) = cores[1]
                .client_send(sub, topic, subscription(), VTime::ZERO)
                .unwrap();
            queue.extend(tx.into_iter().map(|t| (sid(1), t)));
        }
        for seq in 0..4u8 {
            let client = AgentId::new(sid(0), 9);
            let note = publication("ev", vec![seq; usize::from(seq) * 8]);
            let (_, tx) = cores[0]
                .client_send(client, topic, note, VTime::ZERO)
                .unwrap();
            queue.extend(tx.into_iter().map(|t| (sid(0), t)));
            while let Some((from, t)) = queue.pop_front() {
                let to = t.to;
                let more = cores[to.as_usize()]
                    .on_datagram(from, t.bytes, VTime::ZERO)
                    .unwrap();
                queue.extend(more.into_iter().map(|t| (to, t)));
            }
        }
        for core in &mut cores {
            core.checkpoint().unwrap();
        }
        let checkpoints = stores
            .iter()
            .map(|s| s.get("server-image").unwrap().expect("a checkpoint"))
            .collect();
        let mut records = Vec::new();
        for i in 0..2 {
            let journal = dir.join(format!("relay-{i}")).join("journal");
            let mut journal = Journal::open(journal, QueueConfig::default()).unwrap();
            records.extend(journal.take_state_tail().into_iter().map(|(_, r)| r));
        }
        drop(cores);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(records.len() >= 4, "{} state records", records.len());
        Samples {
            checkpoints,
            records,
        }
    })
}

/// Decodes `input`, which may decode or be refused with a codec error.
fn decodes_or_refuses(checkpoint: bool, input: Vec<u8>, what: &str) {
    match decode_bounded(checkpoint, Bytes::from(input)) {
        Ok(()) | Err(Error::Codec(_)) => {}
        Err(other) => panic!("{what}: not a codec error: {other}"),
    }
}

/// Every real checkpoint and record decodes; every cut of one is refused;
/// and every byte of one overwritten with each of a few values — small
/// counts, large ones — decodes or is refused, within the bound. A
/// checkpoint is resealed after each change, so the structural decoder
/// behind the seal sees it.
#[test]
fn real_checkpoints_and_records_survive_every_cut_and_overwrite() {
    let samples = samples();
    for (checkpoint, all) in [(true, &samples.checkpoints), (false, &samples.records)] {
        let reseal = |body: &[u8]| {
            if checkpoint {
                sealed(body)
            } else {
                body.to_vec()
            }
        };
        for bytes in all {
            decode_bounded(checkpoint, Bytes::from(bytes.clone())).expect("decodes");
            let body = if checkpoint {
                &bytes[..bytes.len() - 4]
            } else {
                &bytes[..]
            };
            for cut in 0..body.len() {
                let res = decode_bounded(checkpoint, Bytes::from(reseal(&body[..cut])));
                assert!(matches!(res, Err(Error::Codec(_))), "cut at {cut}: {res:?}");
            }
            for at in 0..body.len() {
                for value in [0x00, 0x01, 0x02, 0x07, 0x40, 0x7F, 0x80, 0xFF] {
                    let mut changed = body.to_vec();
                    changed[at] = value;
                    decodes_or_refuses(
                        checkpoint,
                        reseal(&changed),
                        &format!("{value:#x} at {at}"),
                    );
                }
            }
        }
    }
}

proptest! {
    /// Random bytes, random bytes under a valid checksum, and a real
    /// checkpoint with bytes overwritten (resealed or not) decode or are
    /// refused with a codec error; nothing panics and the allocation
    /// bound holds.
    #[test]
    fn checkpoint_byte_soup_never_panics(
        soup in prop::collection::vec(any::<u8>(), 0..256),
        damage in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        pick in any::<usize>(),
        reseal in any::<bool>(),
    ) {
        let real = &samples().checkpoints[pick % samples().checkpoints.len()];
        let mut damaged = real[..real.len() - 4].to_vec();
        for (at, byte) in damage {
            let at = at % damaged.len();
            damaged[at] = byte;
        }
        let damaged = if reseal {
            sealed(&damaged)
        } else {
            [&damaged[..], &real[real.len() - 4..]].concat()
        };
        for input in [soup.clone(), sealed(&soup), damaged] {
            decodes_or_refuses(true, input, "checkpoint soup");
        }
    }

    /// The same for state records, which the journal's per-record CRC
    /// guards on disk: random bytes and real records with bytes
    /// overwritten.
    #[test]
    fn state_record_byte_soup_never_panics(
        soup in prop::collection::vec(any::<u8>(), 0..256),
        damage in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        pick in any::<usize>(),
    ) {
        let mut damaged = samples().records[pick % samples().records.len()].clone();
        for (at, byte) in damage {
            let at = at % damaged.len();
            damaged[at] = byte;
        }
        for input in [soup.clone(), damaged] {
            decodes_or_refuses(false, input, "state record soup");
        }
    }
}
