//! Tier-1 gate: exhaustive model check of the **real clock protocol**.
//!
//! Where `model_evented.rs` checks an abstract model of the runtime's
//! wakeup protocol, this gate drives the production `CausalState` in each
//! of its two stamp modes (`Full`, `Updates`) through every
//! interleaving of send / transmit / deliver at a small network shape,
//! including FIFO-link reorder across senders, duplicate delivery
//! attempts, mid-group `GroupNext` continuations, and crash/recovery
//! through the real `write_bytes`/`read_bytes` persistence images. On every reachable
//! state it asserts (DESIGN.md §16):
//!
//! - **causal order** — no delivery before the ground-truth causal
//!   dependencies of the message are delivered;
//! - **exactly-once** — a delivered message is never admitted again;
//! - **quiescence** — when links and pending sets drain, everything sent
//!   was delivered;
//! - **mode equivalence** — each bounded mode agrees with a lock-step
//!   `Full` reference on every delivery verdict, link counter, carried
//!   predicate-column cell and sent/delivered transcript.
//!
//! `AAA_MODEL_DEPTH` scales the shape: unset/0/1 is the PR-CI shape
//! (3 servers x 2 msgs/sender, ~6.3k states/mode), 2 deepens the
//! workload (3 msgs/sender), 3+ widens the ring (4 servers; main-branch
//! CI runs this, ~124k states/mode). The `sabotage_*` leg is the
//! check's own acceptance criterion: weakening the §4.2 delivery
//! predicate by one (`>` -> `>=` on the sender column) must produce a
//! concrete causal-order-violation trace in every mode.

use aaa_audit::interleave::{explore, EngineConfig, EngineModel, Options};
use aaa_clocks::StampMode;

const MODES: [(&str, StampMode); 2] = [("full", StampMode::Full), ("updates", StampMode::Updates)];

fn depth_level() -> u8 {
    std::env::var("AAA_MODEL_DEPTH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn every_clock_engine_is_causally_sound_at_configured_depth() {
    let level = depth_level();
    for (name, mode) in MODES {
        let m = EngineModel {
            cfg: EngineConfig::at_depth(mode, level),
        };
        match explore(&m, Options::default()) {
            Ok(e) => {
                assert!(
                    !e.truncated,
                    "{name}: exploration truncated at depth level {level} — raise \
                     max_depth; an exhaustiveness claim needs the full reachable set"
                );
                assert!(
                    e.states > 1_000,
                    "{name}: implausibly small state space ({}) — did the network \
                     model lose actions?",
                    e.states
                );
                // One greppable line per engine; the deep CI leg runs with
                // --nocapture and uploads these as the state-count artifact.
                println!(
                    "model-states model=engine-{name} level={level} states={} transitions={}",
                    e.states, e.transitions
                );
            }
            Err(v) => panic!("{name}: causal-protocol violation at depth level {level}:\n{v}"),
        }
    }
}

#[test]
fn sabotage_weakened_delivery_predicate_fails_every_mode() {
    // §4.2's sender-column condition is `ST[i][j] == DELIV[i] + 1`:
    // exactly the next message from that sender, in FIFO order. The
    // weakened variant accepts `>=` — the classic off-by-one that admits
    // message k+2 while k+1 is still in flight. Every mode's check must
    // refute it with a concrete interleaving, caught by the ground-truth
    // dependency oracle (not by the protocol's own predicate, which is the
    // thing under suspicion).
    for (name, mode) in MODES {
        let mut cfg = EngineConfig::ci(mode);
        cfg.weaken_can_deliver = true;
        let v = explore(&EngineModel { cfg }, Options::default())
            .expect_err("model check must catch the weakened delivery predicate");
        assert!(
            v.message.contains("causal-order violation"),
            "{name}: expected a causal-order verdict, got: {v}"
        );
        assert!(
            !v.trace.is_empty(),
            "{name}: violation must carry a witness trace"
        );
    }
}
