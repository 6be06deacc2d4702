//! Property tests for the engine model check (`interleave::engine_model`).
//!
//! Same contract as `interleave_props.rs`, lifted from the abstract slot
//! protocol to the real clock protocol: the exploration must be *total*
//! (every seed reaches the same state set — otherwise "exhaustive at CI
//! shape" is meaningless) and *deterministic* (the same seed replays the
//! identical walk, so a causal-order violation trace printed once can
//! always be reproduced). The pinned counts are the regression canary:
//! a silent drop means the network model lost interleavings, a silent
//! explosion threatens the CI runtime budget.

use aaa_audit::interleave::{explore, EngineConfig, EngineModel, Exploration, Options};
use aaa_clocks::StampMode;
use proptest::prelude::*;

fn ci_exploration(mode: StampMode, seed: u64) -> Exploration {
    let m = EngineModel {
        cfg: EngineConfig::ci(mode),
    };
    match explore(
        &m,
        Options {
            seed,
            ..Options::default()
        },
    ) {
        Ok(e) => e,
        Err(v) => panic!("CI engine config ({mode:?}) must be sound, got {v}"),
    }
}

/// The seed-0 Full-mode exploration, computed once — each proptest case
/// compares against it, and at ~6k states (each a vector of serialized
/// engine images) recomputing it per case would dominate the suite.
fn base() -> &'static Exploration {
    static BASE: std::sync::OnceLock<Exploration> = std::sync::OnceLock::new();
    BASE.get_or_init(|| ci_exploration(StampMode::Full, 0))
}

proptest! {
    // Each case is a full exploration driving real clock states through
    // serialize/deserialize round-trips — an order of magnitude more
    // expensive per state than the slot model, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed explores the exact same reachable state set: same state
    /// count, same transition count, same canonical state-set hash, and
    /// never truncated. The seed may only permute visit order.
    #[test]
    fn state_set_is_seed_independent(seed in any::<u64>()) {
        let base = base();
        let e = ci_exploration(StampMode::Full, seed);
        prop_assert!(!e.truncated);
        prop_assert_eq!(e.states, base.states);
        prop_assert_eq!(e.transitions, base.transitions);
        prop_assert_eq!(e.state_set_hash, base.state_set_hash);
    }

    /// The same seed replays the identical walk — the visit-order hash
    /// (and everything else) matches run to run.
    #[test]
    fn same_seed_replays_identically(seed in any::<u64>()) {
        let a = ci_exploration(StampMode::Updates, seed);
        let b = ci_exploration(StampMode::Updates, seed);
        prop_assert_eq!(a, b);
    }
}

/// Regression pin on the CI shape's reachable state count, for **both**
/// stamp modes. The counts are identical across modes by design:
/// equivalent modes take identical delivery decisions, so the
/// network-level transition structure — and with it the reachable graph
/// — is mode-independent. A mode whose count diverges from the others
/// has stopped being equivalent *structurally*, before any invariant
/// even fires. Update deliberately when the network model changes.
///
/// 6 340 / 16 755 since the clock image lost its per-sender image matrices
/// (6 370 / 16 767 with them). The 30 states that merged differed only in
/// cells of an image matrix in the *receiver's own row* — how much of the
/// receiver's own sends the sender knew of when it stamped — which no
/// protocol step reads and the receiver's `SENT` always dominates; putting
/// the matrices back as inert persisted state restores 6 370 exactly. The
/// reachable graph is that quotient, with every verdict unchanged.
#[test]
fn ci_state_count_is_pinned_for_every_mode() {
    for mode in StampMode::ALL {
        let e = ci_exploration(mode, 0);
        assert!(
            !e.truncated,
            "{mode:?}: CI shape must stay exhaustively explorable"
        );
        assert_eq!(
            (e.states, e.transitions),
            (PINNED_STATES, PINNED_TRANSITIONS),
            "{mode:?}: reachable state space changed — if the network model \
             changed on purpose, update the pin"
        );
    }
}

const PINNED_STATES: usize = 6_340;
const PINNED_TRANSITIONS: usize = 16_755;
