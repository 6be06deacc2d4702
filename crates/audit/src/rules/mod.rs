//! The codified rule set.
//!
//! Every rule reports [`Finding`](crate::Finding)s with a stable rule id;
//! the engine maps those ids to allowlist files, to the
//! `aaa_audit_findings_total{rule=...}` metric and to SARIF `rules`
//! entries. PR 3's rules are token-window scanners; PR 4 added five
//! dataflow-aware rules built on the [tree](crate::tree) layer; PR 8's
//! concurrency pass adds three more on the [guards](crate::guards)
//! layer — `lock-order`, `guard-across-blocking` (which subsumed and
//! retired the proximity-based `lock-across-send`) and
//! `atomic-protocol` — plus the [interleave](crate::interleave) model
//! checker, which is not a rule but a test-time exhaustive explorer.
//! PR 9's verification pass ties the model checker back into the rule
//! set: `model-drift` fails when the evented runtime's shared-memory
//! access set outgrows the `SlotModel`'s declared coverage, and
//! `persist-before-deliver` requires recovery-critical delivery effects
//! to be dominated by a stable-store write.

pub mod atomic_protocol;
pub mod block_in_step;
pub mod clock_overflow;
pub mod determinism;
pub mod error_swallow;
pub mod guard_across_blocking;
pub mod lock_order;
pub mod match_drift;
pub mod metric_drift;
pub mod model_drift;
pub mod panic_freedom;
pub mod persist_before_deliver;
pub mod pub_api;
pub mod stamp_flow;
pub mod wire_cast;

/// Rule id: panic-freedom on delivery-critical crates.
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// Rule id: no wall-clock / OS entropy in deterministic crates.
pub const DETERMINISM: &str = "determinism";
/// Rule id: wire-enum serializer/deserializer coverage.
pub const MATCH_DRIFT: &str = "match-drift";
/// Rule id: metric vocabulary consistency (code / README / golden file).
pub const METRIC_DRIFT: &str = "metric-drift";
/// Rule id: every transport send dominated by a `stamp_send*` call.
pub const STAMP_FLOW: &str = "stamp-flow";
/// Rule id: no unguarded narrowing casts on codec/wire paths.
pub const WIRE_CAST: &str = "wire-cast-truncation";
/// Rule id: no wrapping arithmetic on matrix/vector clock cells.
pub const CLOCK_OVERFLOW: &str = "clock-overflow";
/// Rule id: no discarded fallible results in protocol crates.
pub const ERROR_SWALLOW: &str = "error-swallow";
/// Rule id: no blocking calls reachable from the batched server step.
pub const BLOCK_IN_STEP: &str = "block-in-step";
/// Rule id: aaa-mom's `pub` surface matches its committed baseline.
pub const PUB_API: &str = "pub-api-drift";
/// Rule id: the interprocedural lock-acquisition graph is a DAG.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule id: no guard live across a blocking primitive or transport send.
pub const GUARD_ACROSS_BLOCKING: &str = "guard-across-blocking";
/// Rule id: atomic memory orderings match the shape of the use.
pub const ATOMIC_PROTOCOL: &str = "atomic-protocol";
/// Rule id: the evented runtime's shared-memory access set is covered by
/// the interleaving model's declared actions.
pub const MODEL_DRIFT: &str = "model-drift";
/// Rule id: delivery/ack effects on recovery-critical paths are
/// dominated by a stable-store write.
pub const PERSIST_BEFORE_DELIVER: &str = "persist-before-deliver";

/// Every rule id, in reporting order.
pub const ALL_RULES: &[&str] = &[
    PANIC_FREEDOM,
    DETERMINISM,
    MATCH_DRIFT,
    METRIC_DRIFT,
    STAMP_FLOW,
    WIRE_CAST,
    CLOCK_OVERFLOW,
    ERROR_SWALLOW,
    BLOCK_IN_STEP,
    PUB_API,
    LOCK_ORDER,
    GUARD_ACROSS_BLOCKING,
    ATOMIC_PROTOCOL,
    MODEL_DRIFT,
    PERSIST_BEFORE_DELIVER,
];

/// One-line description per rule id (SARIF `shortDescription`, docs).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        r if r == PANIC_FREEDOM => {
            "No unwrap/expect/panic-family/indexing-by-literal in non-test delivery-path code."
        }
        r if r == DETERMINISM => {
            "No wall-clock or OS entropy reads inside the deterministic simulator and clocks."
        }
        r if r == MATCH_DRIFT => {
            "Every wire-enum variant is covered by both its serializer and its deserializer."
        }
        r if r == METRIC_DRIFT => {
            "The aaa_* metric vocabulary agrees across code, README table and Prometheus golden."
        }
        r if r == STAMP_FLOW => {
            "Every transport send outside aaa-net is dominated by a stamp_send* call."
        }
        r if r == WIRE_CAST => "No unguarded narrowing casts (as u16/u32) on codec and wire paths.",
        r if r == CLOCK_OVERFLOW => {
            "Matrix/vector clock cell arithmetic uses saturating/checked operations."
        }
        r if r == ERROR_SWALLOW => {
            "No discarded fallible results (let _ =, .ok();, dropped Results) in protocol crates."
        }
        r if r == BLOCK_IN_STEP => {
            "No blocking calls or .await reachable from the batched server step."
        }
        r if r == PUB_API => {
            "Every pub item in aaa-mom is recorded in the committed PUBLIC_API.txt baseline."
        }
        r if r == LOCK_ORDER => {
            "The interprocedural lock-acquisition graph across mom/net/obs/storage is acyclic."
        }
        r if r == GUARD_ACROSS_BLOCKING => {
            "No Mutex/RwLock guard is live across a blocking primitive, channel recv or send*."
        }
        r if r == ATOMIC_PROTOCOL => {
            "Gate-shaped atomics use Acquire/Release+; Relaxed only on counters; SeqCst justified."
        }
        r if r == MODEL_DRIFT => {
            "The evented runtime's shared-memory accesses stay covered by the SlotModel's actions."
        }
        r if r == PERSIST_BEFORE_DELIVER => {
            "Every deliver/on_ack effect on recovery paths is dominated by a stable-store put, \
             every relay ack_up_to by the journal sync."
        }
        _ => "Workspace protocol-invariant audit rule.",
    }
}

/// Long-form documentation per rule id: what the rule enforces, why the
/// middleware needs it, and how to fix or suppress a finding. Printed by
/// `aaa-audit --explain <rule>` and embedded as the SARIF `help` text.
pub fn explain(rule: &str) -> &'static str {
    match rule {
        r if r == PANIC_FREEDOM => {
            "A panic on the delivery path aborts a half-committed channel transaction and \
             tears down a whole shard worker. The rule flags `.unwrap()`, `.expect(..)`, \
             `panic!`-family macros and indexing by integer literal in non-test code of the \
             configured crates (net, mom, clocks, storage, plus bench drivers under src/bin \
             and examples/). Fix by propagating a `Result` or handling the `None`; suppress \
             a deliberate invariant with `// audit:allow(panic-freedom)` plus a comment \
             stating why the invariant holds."
        }
        r if r == DETERMINISM => {
            "The simulator's replay guarantee (same seed, same trace) dies the moment a \
             wall-clock or OS-entropy read sneaks into `sim` or `clocks`. The rule flags \
             `Instant::now`, `SystemTime`, `thread_rng` and friends there. Fix by threading \
             the simulated clock or seeded RNG through instead."
        }
        r if r == MATCH_DRIFT => {
            "A wire-enum variant handled in `encode` but not `decode` (or vice versa) \
             silently breaks cross-version delivery: the peer reads a valid-looking frame \
             and drops or misroutes it. The rule parses each configured enum definition and \
             checks every variant name appears in both the serializer and the deserializer \
             function bodies."
        }
        r if r == METRIC_DRIFT => {
            "Operators alert on metric names; a renamed counter that the README table or \
             the Prometheus golden file still lists the old way produces silent blind spots. \
             The rule cross-checks the `aaa_*` vocabulary across code, README and goldens."
        }
        r if r == STAMP_FLOW => {
            "The paper's causal guarantee needs every message stamped before it leaves the \
             process. The rule walks the call graph from each transport send site in mom/sim \
             and requires a dominating `stamp_send*` call — a raw send is a causality leak."
        }
        r if r == WIRE_CAST => {
            "`v.len() as u32` in a codec truncates silently past 2^32 and the peer decodes \
             a structurally valid, wrong value. The rule flags narrowing `as u16`/`as u32` \
             casts with runtime operands on wire paths (including bench drivers and \
             examples) unless the enclosing function already guards with `try_from` or an \
             explicit `::MAX` bound check."
        }
        r if r == CLOCK_OVERFLOW => {
            "Matrix/vector clock cells only ever grow; wrapping arithmetic would travel \
             back in causal time. The rule requires saturating/checked ops on configured \
             clock-cell fields."
        }
        r if r == ERROR_SWALLOW => {
            "`let _ = send(..)` on a protocol path turns a transport failure into silent \
             message loss. The rule flags discarded fallible results in protocol crates; \
             handle the error, log it through the obs layer, or justify inline."
        }
        r if r == BLOCK_IN_STEP => {
            "One blocking call inside the batched server step stalls a whole shard — every \
             server multiplexed onto that worker. The rule walks the call graph from the \
             step entry points and flags reachable blocking primitives and `.await`s."
        }
        r if r == PUB_API => {
            "aaa-mom's `pub` surface is a compatibility contract. The rule inventories pub \
             items and diffs them against the committed PUBLIC_API.txt; admit a deliberate \
             change by regenerating the baseline with `--fix-pub-api`."
        }
        r if r == LOCK_ORDER => {
            "Two threads taking the same pair of locks in opposite orders can deadlock, \
             and a deadlocked shard worker freezes every server multiplexed onto it. The \
             guard-tracking layer computes which guards are live at each call site — \
             including guards returned up the call chain — and builds an interprocedural \
             lock-order graph over mom/net/obs/storage: an edge A -> B whenever B is \
             acquired (directly or transitively through a call) while a guard on A is \
             live. Any cycle is reported with the full cycle path and the witness site \
             that closed it. Fix by acquiring locks in one global order (DESIGN.md §15 \
             documents the sanctioned DAG) or by shrinking the guard's span with an \
             explicit `drop(guard)`."
        }
        r if r == GUARD_ACROSS_BLOCKING => {
            "A blocking call under a lock couples unrelated peers: every thread contending \
             for that lock inherits the stall, acks miss retransmission deadlines, and the \
             retry storm collapses throughput. Using real liveness spans (not token \
             proximity — this rule subsumed PR 3's `lock-across-send`), the rule flags any \
             blocking primitive, channel `recv`, or transport `send*`/`write_all`/`connect*` \
             executed while a Mutex/RwLock guard is live, including guards returned by \
             helpers. Fix by dropping the guard first or staging the data out of the \
             critical section; a deliberate coupling (per-socket write serialization, \
             group-commit file I/O) takes an inline `// audit:allow(guard-across-blocking)` \
             with the reasoning."
        }
        r if r == ATOMIC_PROTOCOL => {
            "Atomic orderings must match the idiom: gate-shaped RMWs (`swap`, \
             `compare_exchange*`, `fetch_or`-family) and `store`s to AtomicBool flags \
             publish state transitions and need Acquire/Release or stronger — `Relaxed` \
             there is a lost wakeup on weak memory. Counter-shaped `fetch_add`/`fetch_sub` \
             sites are exempt (Relaxed is correct: nothing is published). `SeqCst` must \
             carry a nearby `// ...SeqCst...` why-comment or be downgraded — total order \
             costs a full fence and usually hides the real protocol. Single-writer state \
             machines document themselves with inline `// audit:allow(atomic-protocol)` \
             comments stating the single-writer argument (DESIGN.md §15 has the policy \
             table)."
        }
        r if r == MODEL_DRIFT => {
            "The interleaving model check (crates/audit/src/interleave.rs) proves the evented \
             shard runtime free of lost wakeups and step-after-dead races — but only for the \
             protocol as modeled. The proof rots silently the day an atomic, lock or channel \
             operation is added to the shard loop without a matching model action: the \
             explorer keeps passing, now about the wrong protocol. This rule statically \
             extracts every `field.method(..)` shared-memory access reachable from the \
             runtime's entry points (run_ready_server, schedule, the worker/timer loops, \
             send_cmd; reachability stops at `drop` so shutdown-only teardown stays out of \
             the modeled window) and fails unless `interleave::COVERED_ACCESSES` covers it. \
             Fix by adding a transition to the SlotModel and listing the access in \
             COVERED_ACCESSES — or justify a genuinely model-irrelevant access inline with \
             `// audit:allow(model-drift)`. The reverse drift (a declared access the code no \
             longer performs) is reported as a stale-coverage finding."
        }
        r if r == PERSIST_BEFORE_DELIVER => {
            "Delivery is an irreversible protocol effect: once a clock engine's DELIV row \
             advances (CausalState::deliver) or a link's retransmission buffer releases the \
             frames a cumulative ack covers (on_ack), peers' matrix clocks may already encode that the message is consumed. \
             If the transition lives only in memory, a crash forks history — the reloaded \
             server re-admits the message and exactly-once dies on the recovery path. The \
             rule requires every `.deliver(from, pending)` / `.on_ack(from)` site in mom to \
             be dominated by a `put`/group-commit, and every relay `.ack_up_to(..)` by the \
             journal `sync` that makes its record durable: in the enclosing function, a \
             transitive callee, or a transitive caller (batched group-commit in the drain \
             loop counts). \
             Route the effect through the persistence path, or mark a deliberately volatile \
             path (pure-simulation harness) with `// audit:allow(persist-before-deliver)`."
        }
        _ => "Workspace protocol-invariant audit rule; see crates/audit/src/rules/.",
    }
}
