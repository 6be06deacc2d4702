//! Topic-based publish/subscribe on top of the agent model.
//!
//! The real AAA MOM shipped with a JMS implementation (Joram) layered on
//! its agents; this module provides the equivalent surface for the
//! reproduction: a [`TopicAgent`] holds a durable subscriber list and fans
//! every published notification out to it.
//!
//! Because fan-out happens inside one atomic reaction, the bus's causal
//! guarantee lifts directly to topics: if a publisher emits `e1` then
//! `e2`, every subscriber — wherever it lives in the domain graph —
//! receives `e1` before `e2`; and if a subscriber republishes a reaction
//! to `e1` on another topic, no third party can see the reaction before
//! learning of `e1` itself (the stock-exchange pattern from the paper's
//! introduction).

use aaa_base::AgentId;
use aaa_net::wire::{Decoder, Encoder};
use bytes::Bytes;

use crate::agent::{Agent, ReactionContext};
use crate::message::Notification;

/// Bytes of one encoded [`AgentId`] (server `u16` + local `u32`): what a
/// snapshot's subscriber count is held against before allocating for it.
const AGENT_ID_LEN: usize = 2 + 4;

/// Control notification kind: subscribe the sender to the topic.
pub const SUBSCRIBE: &str = "__topic_subscribe";
/// Control notification kind: unsubscribe the sender from the topic.
pub const UNSUBSCRIBE: &str = "__topic_unsubscribe";
/// Control notification kind: publish the enclosed event to the topic.
pub const PUBLISH: &str = "__topic_publish";

/// Wraps an application event for the [`PUBLISH`] control message.
///
/// The returned notification can be sent to any [`TopicAgent`]; the topic
/// unwraps it and delivers the original `(kind, body)` to every
/// subscriber.
pub fn publication(kind: &str, body: impl Into<Bytes>) -> Notification {
    let mut e = Encoder::new();
    e.string(kind);
    e.bytes(&body.into());
    Notification::new(PUBLISH, e.finish())
}

/// A subscription request notification.
pub fn subscription() -> Notification {
    Notification::signal(SUBSCRIBE)
}

/// An unsubscription request notification.
pub fn unsubscription() -> Notification {
    Notification::signal(UNSUBSCRIBE)
}

/// A persistent topic: remembers its subscribers and fans publications out
/// to them in arrival order.
///
/// # Examples
///
/// ```
/// use aaa_base::ServerId;
/// use aaa_mom::pubsub::{publication, subscription, TopicAgent};
/// use aaa_mom::{MomBuilder, FnAgent};
/// use aaa_topology::TopologySpec;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mom = MomBuilder::new(TopologySpec::single_domain(2)).build()?;
/// let topic = mom.register_agent(ServerId::new(0), 1, Box::new(TopicAgent::new()))?;
/// let sub = mom.register_agent(ServerId::new(1), 1, Box::new(FnAgent::new(|_, _, note| {
///     assert_eq!(note.kind(), "price");
/// })))?;
/// mom.send(sub, topic, subscription())?;
/// mom.send(topic, topic, publication("price", b"42".to_vec()))?; // self-publish for demo
/// assert!(mom.quiesce(Duration::from_secs(5)));
/// mom.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct TopicAgent {
    subscribers: Vec<AgentId>,
    published: u64,
    /// The store-and-forward relay pseudo-agent backing this topic, if
    /// any. With a relay, publications are journaled per subscriber and
    /// redelivered across disconnects instead of fanned out fire-and-
    /// forget (the live-subscriber assumption this field removes).
    relay: Option<AgentId>,
}

impl TopicAgent {
    /// Creates a topic with no subscribers and direct (non-durable)
    /// fan-out.
    ///
    /// Direct fan-out assumes every subscriber is live: a publication to
    /// a disconnected subscriber is lost. Use [`TopicAgent::with_relay`]
    /// for durable store-and-forward delivery.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a topic whose fan-out is journaled by the store-and-forward
    /// relay at `relay` (see [`crate::relay::relay_agent`]): publications
    /// are persisted per subscriber and redelivered until acknowledged,
    /// surviving subscriber disconnects and relay crashes (DESIGN.md §17).
    pub fn with_relay(relay: AgentId) -> Self {
        TopicAgent {
            relay: Some(relay),
            ..Self::default()
        }
    }

    /// Current subscribers, in subscription order.
    pub fn subscribers(&self) -> &[AgentId] {
        &self.subscribers
    }

    /// Number of publications fanned out so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// The relay backing this topic, if durable fan-out is enabled.
    pub fn relay(&self) -> Option<AgentId> {
        self.relay
    }
}

impl Agent for TopicAgent {
    fn react(&mut self, ctx: &mut ReactionContext<'_>, from: AgentId, note: &Notification) {
        match note.kind() {
            SUBSCRIBE if !self.subscribers.contains(&from) => {
                self.subscribers.push(from);
                if let Some(relay) = self.relay {
                    let mut e = Encoder::new();
                    e.agent_id(ctx.me());
                    e.agent_id(from);
                    ctx.send(
                        relay,
                        Notification::new(crate::relay::RELAY_SUBSCRIBE, e.finish()),
                    );
                }
            }
            SUBSCRIBE => {} // duplicate subscription: idempotent
            UNSUBSCRIBE => {
                self.subscribers.retain(|s| *s != from);
                if let Some(relay) = self.relay {
                    let mut e = Encoder::new();
                    e.agent_id(ctx.me());
                    e.agent_id(from);
                    ctx.send(
                        relay,
                        Notification::new(crate::relay::RELAY_UNSUBSCRIBE, e.finish()),
                    );
                }
            }
            PUBLISH => {
                let mut d = Decoder::new(note.body().clone());
                let Ok(kind) = d.string() else { return };
                let Ok(body) = d.bytes() else { return };
                self.published += 1;
                if let Some(relay) = self.relay {
                    // Durable path: one journaled hand-over to the relay,
                    // which fans out per subscriber queue and redelivers
                    // until each subscriber acknowledges.
                    let mut e = Encoder::new();
                    e.agent_id(ctx.me());
                    e.string(&kind);
                    e.bytes(&body);
                    ctx.send(
                        relay,
                        Notification::new(crate::relay::RELAY_PUBLISH, e.finish()),
                    );
                } else {
                    for sub in &self.subscribers {
                        ctx.send(*sub, Notification::new(kind.clone(), body.clone()));
                    }
                }
            }
            _ => {
                // Unknown control message: ignored (a topic is not a
                // general-purpose agent).
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.published);
        e.count(self.subscribers.len());
        for s in &self.subscribers {
            e.agent_id(*s);
        }
        match self.relay {
            Some(relay) => {
                e.u8(1);
                e.agent_id(relay);
            }
            None => {
                e.u8(0);
            }
        }
        e.finish().to_vec()
    }

    fn restore(&mut self, image: &[u8]) {
        let mut d = Decoder::new(Bytes::from(image.to_vec()));
        let Ok(published) = d.u64() else { return };
        let Ok(count) = d.count(AGENT_ID_LEN) else {
            return;
        };
        let mut subscribers = Vec::with_capacity(count);
        for _ in 0..count {
            let Ok(id) = d.agent_id() else { return };
            subscribers.push(id);
        }
        // Pre-relay snapshots end after the subscriber list.
        let relay = if d.remaining() > 0 {
            match d.u8() {
                Ok(1) => match d.agent_id() {
                    Ok(id) => Some(id),
                    Err(_) => return,
                },
                Ok(_) => None,
                Err(_) => return,
            }
        } else {
            None
        };
        self.published = published;
        self.subscribers = subscribers;
        self.relay = relay;
    }
}

/// A point-to-point queue: messages are distributed round-robin among the
/// registered consumers (JMS queue semantics, competing consumers),
/// instead of being copied to all of them like a topic.
///
/// Consumers register with [`subscription`] and leave with
/// [`unsubscription`]; producers send [`publication`]s. Delivery to a
/// single consumer preserves causal order (it rides the same bus); across
/// consumers a queue makes no ordering promise, exactly like JMS.
#[derive(Debug, Default, Clone)]
pub struct QueueAgent {
    consumers: Vec<AgentId>,
    next: usize,
    dispatched: u64,
}

impl QueueAgent {
    /// Creates a queue with no consumers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current consumers, in registration order.
    pub fn consumers(&self) -> &[AgentId] {
        &self.consumers
    }

    /// Messages dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

impl Agent for QueueAgent {
    fn react(&mut self, ctx: &mut ReactionContext<'_>, from: AgentId, note: &Notification) {
        match note.kind() {
            SUBSCRIBE if !self.consumers.contains(&from) => {
                self.consumers.push(from);
            }
            SUBSCRIBE => {} // duplicate subscription: idempotent
            UNSUBSCRIBE => {
                self.consumers.retain(|c| *c != from);
                if self.next >= self.consumers.len() {
                    self.next = 0;
                }
            }
            PUBLISH => {
                if self.consumers.is_empty() {
                    return; // no consumer: the message is dropped (JMS
                            // would buffer; our queue is best-effort)
                }
                let mut d = Decoder::new(note.body().clone());
                let Ok(kind) = d.string() else { return };
                let Ok(body) = d.bytes() else { return };
                let target = self.consumers[self.next % self.consumers.len()];
                self.next = (self.next + 1) % self.consumers.len();
                self.dispatched += 1;
                ctx.send(target, Notification::new(kind, body));
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.dispatched);
        // `next` is an index into `consumers`, so it fits whenever the
        // consumer count does; `count` keeps the narrowing checked.
        e.count(self.next);
        e.count(self.consumers.len());
        for c in &self.consumers {
            e.agent_id(*c);
        }
        e.finish().to_vec()
    }

    fn restore(&mut self, image: &[u8]) {
        let mut d = Decoder::new(Bytes::from(image.to_vec()));
        let Ok(dispatched) = d.u64() else { return };
        let Ok(next) = d.u32() else { return };
        let Ok(count) = d.count(AGENT_ID_LEN) else {
            return;
        };
        let mut consumers = Vec::with_capacity(count);
        for _ in 0..count {
            let Ok(id) = d.agent_id() else { return };
            consumers.push(id);
        }
        self.dispatched = dispatched;
        self.next = next as usize;
        self.consumers = consumers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_base::ServerId;

    fn aid(s: u16, l: u32) -> AgentId {
        AgentId::new(ServerId::new(s), l)
    }

    fn react(
        topic: &mut TopicAgent,
        from: AgentId,
        note: Notification,
    ) -> Vec<(AgentId, Notification)> {
        let mut out = Vec::new();
        let mut ctx = ReactionContext::new(aid(0, 1), &mut out);
        topic.react(&mut ctx, from, &note);
        out.into_iter().map(|(to, note, _)| (to, note)).collect()
    }

    #[test]
    fn subscribe_publish_unsubscribe() {
        let mut topic = TopicAgent::new();
        assert!(react(&mut topic, aid(1, 1), subscription()).is_empty());
        assert!(react(&mut topic, aid(2, 1), subscription()).is_empty());
        assert_eq!(topic.subscribers().len(), 2);

        let out = react(
            &mut topic,
            aid(9, 9),
            publication("news", b"hello".to_vec()),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, aid(1, 1));
        assert_eq!(out[0].1.kind(), "news");
        assert_eq!(out[0].1.body_str(), Some("hello"));
        assert_eq!(topic.published(), 1);

        react(&mut topic, aid(1, 1), unsubscription());
        let out = react(
            &mut topic,
            aid(9, 9),
            publication("news", b"again".to_vec()),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, aid(2, 1));
    }

    #[test]
    fn duplicate_subscription_is_idempotent() {
        let mut topic = TopicAgent::new();
        react(&mut topic, aid(1, 1), subscription());
        react(&mut topic, aid(1, 1), subscription());
        assert_eq!(topic.subscribers().len(), 1);
    }

    #[test]
    fn unknown_kinds_ignored() {
        let mut topic = TopicAgent::new();
        react(&mut topic, aid(1, 1), subscription());
        let out = react(&mut topic, aid(1, 1), Notification::signal("whatever"));
        assert!(out.is_empty());
        assert_eq!(topic.subscribers().len(), 1);
    }

    #[test]
    fn corrupt_publication_is_dropped() {
        let mut topic = TopicAgent::new();
        react(&mut topic, aid(1, 1), subscription());
        let out = react(
            &mut topic,
            aid(9, 9),
            Notification::new(PUBLISH, vec![1, 2, 3]),
        );
        assert!(out.is_empty());
        assert_eq!(topic.published(), 0);
    }

    fn react_queue(
        q: &mut QueueAgent,
        from: AgentId,
        note: Notification,
    ) -> Vec<(AgentId, Notification)> {
        let mut out = Vec::new();
        let mut ctx = ReactionContext::new(aid(0, 1), &mut out);
        q.react(&mut ctx, from, &note);
        out.into_iter().map(|(to, note, _)| (to, note)).collect()
    }

    #[test]
    fn queue_round_robins_consumers() {
        let mut q = QueueAgent::new();
        react_queue(&mut q, aid(1, 1), subscription());
        react_queue(&mut q, aid(2, 1), subscription());
        assert_eq!(q.consumers().len(), 2);
        let mut targets = Vec::new();
        for i in 0..4 {
            let out = react_queue(&mut q, aid(9, 9), publication("job", vec![i]));
            assert_eq!(out.len(), 1, "a queue delivers to exactly one consumer");
            targets.push(out[0].0);
        }
        assert_eq!(targets, vec![aid(1, 1), aid(2, 1), aid(1, 1), aid(2, 1)]);
        assert_eq!(q.dispatched(), 4);
    }

    #[test]
    fn queue_without_consumers_drops() {
        let mut q = QueueAgent::new();
        let out = react_queue(&mut q, aid(9, 9), publication("job", b"x".to_vec()));
        assert!(out.is_empty());
        assert_eq!(q.dispatched(), 0);
    }

    #[test]
    fn queue_unsubscription_rebalances() {
        let mut q = QueueAgent::new();
        react_queue(&mut q, aid(1, 1), subscription());
        react_queue(&mut q, aid(2, 1), subscription());
        react_queue(&mut q, aid(9, 9), publication("j", vec![0])); // -> 1
        react_queue(&mut q, aid(1, 1), unsubscription());
        let out = react_queue(&mut q, aid(9, 9), publication("j", vec![1]));
        assert_eq!(out[0].0, aid(2, 1));
        let out = react_queue(&mut q, aid(9, 9), publication("j", vec![2]));
        assert_eq!(out[0].0, aid(2, 1));
    }

    #[test]
    fn queue_snapshot_restore() {
        let mut q = QueueAgent::new();
        react_queue(&mut q, aid(1, 1), subscription());
        react_queue(&mut q, aid(2, 1), subscription());
        react_queue(&mut q, aid(9, 9), publication("j", vec![0]));
        let image = q.snapshot();
        let mut restored = QueueAgent::new();
        restored.restore(&image);
        assert_eq!(restored.consumers(), q.consumers());
        assert_eq!(restored.dispatched(), 1);
        // Round-robin position survives: next dispatch goes to consumer 2.
        let out = react_queue(&mut restored, aid(9, 9), publication("j", vec![1]));
        assert_eq!(out[0].0, aid(2, 1));

        // A consumer count no snapshot of this size can hold is refused
        // before it is allocated for; the agent keeps what it had.
        let mut corrupt = image.clone();
        corrupt[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        restored.restore(&corrupt);
        assert_eq!(restored.consumers(), q.consumers());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut topic = TopicAgent::new();
        react(&mut topic, aid(1, 1), subscription());
        react(&mut topic, aid(2, 7), subscription());
        react(&mut topic, aid(9, 9), publication("k", b"x".to_vec()));
        let image = topic.snapshot();

        let mut restored = TopicAgent::new();
        restored.restore(&image);
        assert_eq!(restored.subscribers(), topic.subscribers());
        assert_eq!(restored.published(), 1);

        // Corrupt image leaves the agent unchanged.
        let mut untouched = TopicAgent::new();
        untouched.restore(&[1, 2]);
        assert!(untouched.subscribers().is_empty());
        // So does a subscriber count no snapshot of this size can hold.
        let mut corrupt = image.clone();
        corrupt[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        untouched.restore(&corrupt);
        assert!(untouched.subscribers().is_empty());
    }

    #[test]
    fn relayed_topic_routes_through_the_relay() {
        let relay = crate::relay::relay_agent(ServerId::new(0));
        let mut topic = TopicAgent::with_relay(relay);

        // Subscription is recorded locally *and* forwarded to the relay.
        let out = react(&mut topic, aid(1, 1), subscription());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, relay);
        assert_eq!(out[0].1.kind(), crate::relay::RELAY_SUBSCRIBE);
        assert_eq!(topic.subscribers().len(), 1);

        // A publication becomes one relay hand-over, not a direct fan-out.
        let out = react(&mut topic, aid(9, 9), publication("news", b"x".to_vec()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, relay);
        assert_eq!(out[0].1.kind(), crate::relay::RELAY_PUBLISH);
        let mut d = Decoder::new(out[0].1.body().clone());
        assert_eq!(d.agent_id().unwrap(), aid(0, 1)); // ctx.me() = topic id
        assert_eq!(d.string().unwrap(), "news");
        assert_eq!(d.bytes().unwrap().as_ref(), b"x");

        // Unsubscription forwards too.
        let out = react(&mut topic, aid(1, 1), unsubscription());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.kind(), crate::relay::RELAY_UNSUBSCRIBE);
        assert!(topic.subscribers().is_empty());
    }

    #[test]
    fn relay_field_survives_snapshot_and_old_images_restore() {
        let relay = crate::relay::relay_agent(ServerId::new(3));
        let mut topic = TopicAgent::with_relay(relay);
        react(&mut topic, aid(1, 1), subscription());
        let image = topic.snapshot();

        let mut restored = TopicAgent::new();
        restored.restore(&image);
        assert_eq!(restored.relay(), Some(relay));
        assert_eq!(restored.subscribers(), topic.subscribers());

        // A pre-relay image (no trailing tag) restores with no relay.
        let mut legacy = Encoder::new();
        legacy.u64(2);
        legacy.count(1);
        legacy.agent_id(aid(1, 1));
        let mut old = TopicAgent::new();
        old.restore(&legacy.finish());
        assert_eq!(old.relay(), None);
        assert_eq!(old.published(), 2);
        assert_eq!(old.subscribers(), &[aid(1, 1)]);
    }
}
