//! The AAA Engine: atomic agent reactions (§3).
//!
//! The engine "guarantees the Agents' properties": it serializes reactions,
//! makes each reaction atomic (the notifications an agent emits while
//! reacting are buffered and released on commit) and snapshots agent state
//! for recovery.

use std::collections::{HashMap, VecDeque};

use aaa_base::AgentId;
use aaa_obs::Meter;

use crate::agent::{Agent, ReactionContext};
use crate::message::{AgentMessage, DeliveryPolicy, Notification};
use crate::metrics::EngineMetrics;

/// The result of one committed reaction.
#[derive(Debug)]
pub struct Reaction {
    /// The message that triggered the reaction.
    pub msg: AgentMessage,
    /// Notifications the agent emitted, in emission order, with their
    /// delivery policy.
    pub outgoing: Vec<(AgentId, Notification, DeliveryPolicy)>,
    /// `false` if no agent with the destination id exists (the message
    /// became a dead letter).
    pub reacted: bool,
}

/// The engine of one agent server (sans-IO).
pub struct EngineCore {
    agents: HashMap<AgentId, Box<dyn Agent>>,
    queue_in: VecDeque<AgentMessage>,
    reactions: u64,
    dead_letters: u64,
    /// Optional instruments; `None` (the default) costs one branch per event.
    metrics: Option<EngineMetrics>,
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("agents", &self.agents.len())
            .field("queue_in", &self.queue_in.len())
            .field("reactions", &self.reactions)
            .field("dead_letters", &self.dead_letters)
            .finish()
    }
}

impl Default for EngineCore {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineCore {
    /// Creates an engine with no agents.
    pub fn new() -> Self {
        EngineCore {
            agents: HashMap::new(),
            queue_in: VecDeque::new(),
            reactions: 0,
            dead_letters: 0,
            metrics: None,
        }
    }

    /// Attaches a metrics meter; subsequent events update `aaa_engine_*`
    /// instruments in the meter's registry. Without a meter (the default)
    /// instrumentation compiles to one branch per event.
    pub fn attach_meter(&mut self, meter: &Meter) {
        let m = EngineMetrics::new(meter);
        m.queue_depth.set(self.queue_in.len() as i64);
        self.metrics = Some(m);
    }

    /// Registers (or replaces) the agent with identity `id`.
    pub fn register(&mut self, id: AgentId, agent: Box<dyn Agent>) {
        self.agents.insert(id, agent);
    }

    /// Returns `true` if an agent with identity `id` is registered.
    pub fn has_agent(&self, id: AgentId) -> bool {
        self.agents.contains_key(&id)
    }

    /// The registered agent identities, in unspecified order.
    pub fn agent_ids(&self) -> Vec<AgentId> {
        self.agents.keys().copied().collect()
    }

    /// Snapshot of one agent's state, if it exists.
    pub fn snapshot_agent(&self, id: AgentId) -> Option<Vec<u8>> {
        self.agents.get(&id).map(|a| a.snapshot())
    }

    /// Restores one agent's state from a persisted image.
    ///
    /// Returns `false` if no such agent is registered.
    pub fn restore_agent(&mut self, id: AgentId, image: &[u8]) -> bool {
        match self.agents.get_mut(&id) {
            Some(a) => {
                a.restore(image);
                true
            }
            None => false,
        }
    }

    /// Enqueues a delivered message on `QueueIN`.
    pub fn enqueue(&mut self, msg: AgentMessage) {
        self.queue_in.push_back(msg);
        if let Some(m) = &self.metrics {
            m.queue_depth.inc();
        }
    }

    /// Messages waiting on `QueueIN`.
    pub fn pending(&self) -> usize {
        self.queue_in.len()
    }

    /// The engine queue, for the persisted image.
    pub(crate) fn queue_snapshot(&self) -> impl Iterator<Item = &AgentMessage> + '_ {
        self.queue_in.iter()
    }

    /// Replaces `QueueIN` with a recovered one.
    pub(crate) fn reload_queue(&mut self, queue: Vec<AgentMessage>) {
        self.queue_in = queue.into();
        if let Some(m) = &self.metrics {
            m.queue_depth.set(self.queue_in.len() as i64);
        }
    }

    /// Committed reactions so far.
    pub fn reactions(&self) -> u64 {
        self.reactions
    }

    /// Messages dropped because no agent matched their destination.
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters
    }

    /// Executes one atomic reaction from `QueueIN`, if any message waits.
    pub fn step(&mut self) -> Option<Reaction> {
        let msg = self.queue_in.pop_front()?;
        if let Some(m) = &self.metrics {
            m.queue_depth.dec();
        }
        let mut outgoing = Vec::new();
        let reacted = match self.agents.get_mut(&msg.to) {
            Some(agent) => {
                let started = self.metrics.is_some().then(std::time::Instant::now);
                let mut ctx = ReactionContext::new(msg.to, &mut outgoing);
                agent.react(&mut ctx, msg.from, &msg.note);
                self.reactions += 1;
                if let Some(m) = &self.metrics {
                    m.reactions.inc();
                    if let Some(t0) = started {
                        m.reaction_latency_us
                            .observe(t0.elapsed().as_micros() as u64);
                    }
                }
                true
            }
            None => {
                self.dead_letters += 1;
                if let Some(m) = &self.metrics {
                    m.dead_letters.inc();
                }
                false
            }
        };
        Some(Reaction {
            msg,
            outgoing,
            reacted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{EchoAgent, FnAgent};
    use aaa_base::{MessageId, ServerId};

    fn aid(s: u16, l: u32) -> AgentId {
        AgentId::new(ServerId::new(s), l)
    }

    fn msg(from: AgentId, to: AgentId, kind: &str) -> AgentMessage {
        AgentMessage {
            id: MessageId::new(from.server(), 1),
            from,
            to,
            note: Notification::signal(kind),
        }
    }

    #[test]
    fn reaction_produces_buffered_sends() {
        let mut eng = EngineCore::new();
        eng.register(aid(0, 1), Box::new(EchoAgent));
        assert!(eng.has_agent(aid(0, 1)));
        eng.enqueue(msg(aid(1, 1), aid(0, 1), "ping"));
        let r = eng.step().expect("one message queued");
        assert!(r.reacted);
        assert_eq!(r.outgoing.len(), 1);
        assert_eq!(r.outgoing[0].0, aid(1, 1));
        assert_eq!(r.outgoing[0].2, DeliveryPolicy::Causal);
        assert_eq!(eng.reactions(), 1);
        assert!(eng.step().is_none());
    }

    #[test]
    fn missing_agent_is_dead_letter() {
        let mut eng = EngineCore::new();
        eng.enqueue(msg(aid(1, 1), aid(0, 9), "lost"));
        let r = eng.step().unwrap();
        assert!(!r.reacted);
        assert!(r.outgoing.is_empty());
        assert_eq!(eng.dead_letters(), 1);
        assert_eq!(eng.reactions(), 0);
    }

    #[test]
    fn reactions_are_serialized_in_queue_order() {
        let mut eng = EngineCore::new();
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log2 = log.clone();
        eng.register(
            aid(0, 1),
            Box::new(FnAgent::new(move |_ctx, _from, note| {
                log2.lock().unwrap().push(note.kind().to_owned());
            })),
        );
        for k in ["a", "b", "c"] {
            eng.enqueue(msg(aid(1, 1), aid(0, 1), k));
        }
        assert_eq!(eng.pending(), 3);
        while eng.step().is_some() {}
        assert_eq!(*log.lock().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn snapshot_and_restore_roundtrip() {
        struct Counter(u32);
        impl Agent for Counter {
            fn react(&mut self, _: &mut ReactionContext<'_>, _: AgentId, _: &Notification) {
                self.0 += 1;
            }
            fn snapshot(&self) -> Vec<u8> {
                self.0.to_le_bytes().to_vec()
            }
            fn restore(&mut self, image: &[u8]) {
                self.0 = u32::from_le_bytes(image.try_into().expect("4 bytes"));
            }
        }
        let mut eng = EngineCore::new();
        eng.register(aid(0, 1), Box::new(Counter(0)));
        eng.enqueue(msg(aid(1, 1), aid(0, 1), "x"));
        eng.step();
        let image = eng.snapshot_agent(aid(0, 1)).unwrap();
        assert_eq!(image, 1u32.to_le_bytes().to_vec());

        let mut eng2 = EngineCore::new();
        eng2.register(aid(0, 1), Box::new(Counter(0)));
        assert!(eng2.restore_agent(aid(0, 1), &image));
        assert_eq!(eng2.snapshot_agent(aid(0, 1)).unwrap(), image);
        assert!(!eng2.restore_agent(aid(0, 9), &image));
    }

    #[test]
    fn agent_ids_lists_registered() {
        let mut eng = EngineCore::new();
        eng.register(aid(0, 1), Box::new(EchoAgent));
        eng.register(aid(0, 2), Box::new(EchoAgent));
        let mut ids = eng.agent_ids();
        ids.sort();
        assert_eq!(ids, vec![aid(0, 1), aid(0, 2)]);
        assert!(format!("{eng:?}").contains("EngineCore"));
    }
}
