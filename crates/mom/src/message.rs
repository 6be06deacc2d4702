//! Application-level notifications and middleware messages.

use aaa_base::{AgentId, MessageId};
use aaa_net::Utf8Bytes;
use bytes::Bytes;

/// An application-level event, the unit of the agents' event/reaction
/// pattern (§3).
///
/// A notification has a `kind` (the event name agents dispatch on) and an
/// opaque `body`. The middleware never interprets the body.
///
/// # Examples
///
/// ```
/// use aaa_mom::Notification;
///
/// let note = Notification::new("quote", b"ACME:42.5".to_vec());
/// assert_eq!(note.kind(), "quote");
/// assert_eq!(&note.body()[..], b"ACME:42.5");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// A view of the frame it arrived in, or the adopted `String` it was
    /// made from: forwarding or re-encoding it never allocates.
    kind: Utf8Bytes,
    body: Bytes,
}

impl Notification {
    /// Creates a notification of the given kind with an owned body.
    pub fn new(kind: impl Into<String>, body: impl Into<Bytes>) -> Self {
        Notification::from_parts(Utf8Bytes::from(kind.into()), body.into())
    }

    /// A notification of a kind and body already held as shared bytes,
    /// such as the views of a decoded frame.
    pub(crate) fn from_parts(kind: Utf8Bytes, body: Bytes) -> Self {
        Notification { kind, body }
    }

    /// Creates a body-less notification (a pure signal).
    pub fn signal(kind: impl Into<String>) -> Self {
        Notification::new(kind, Bytes::new())
    }

    /// The event name.
    pub fn kind(&self) -> &str {
        self.kind.as_str()
    }

    /// The event name as shared bytes.
    pub(crate) fn kind_bytes(&self) -> &Utf8Bytes {
        &self.kind
    }

    /// The opaque body.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// The body parsed as UTF-8, if it is valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Per-message delivery quality of service.
///
/// The paper's introduction notes that "the CORBA Messaging reference
/// specification defines the ordering policy as part of the messaging
/// Quality of Service"; the AAA bus offers the same knob: causal ordering
/// (the default, and the subject of the paper) or no ordering at all —
/// unordered messages skip the matrix-clock machinery entirely and may
/// overtake causal traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeliveryPolicy {
    /// Deliver in causal order (matrix-clock checked).
    #[default]
    Causal,
    /// Deliver on arrival; no ordering guarantee, no stamp overhead.
    Unordered,
}

/// Per-send options: the delivery policy today, room for more knobs
/// (TTL, priority, …) tomorrow.
///
/// `SendOptions` is the single policy argument of the unified send path
/// ([`crate::Mom::send_with`], [`crate::channel::ChannelCore::submit_with`],
/// [`crate::ServerCore::client_send_with`]). It is `#[non_exhaustive]`, so
/// build it through the constructors/setters; a bare [`DeliveryPolicy`]
/// converts implicitly wherever `impl Into<SendOptions>` is accepted.
///
/// # Examples
///
/// ```
/// use aaa_mom::{DeliveryPolicy, SendOptions};
///
/// let defaults = SendOptions::new();
/// assert_eq!(defaults.policy, DeliveryPolicy::Causal);
///
/// let fast = SendOptions::unordered();
/// assert_eq!(fast.policy, DeliveryPolicy::Unordered);
///
/// // DeliveryPolicy converts into SendOptions.
/// let from_policy: SendOptions = DeliveryPolicy::Unordered.into();
/// assert_eq!(from_policy, fast);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub struct SendOptions {
    /// Ordering quality of service (default: [`DeliveryPolicy::Causal`]).
    pub policy: DeliveryPolicy,
}

impl SendOptions {
    /// Default options: causal ordering.
    pub fn new() -> Self {
        SendOptions::default()
    }

    /// Options selecting causal ordering (the default).
    pub fn causal() -> Self {
        SendOptions::default()
    }

    /// Options selecting the unordered quality of service.
    pub fn unordered() -> Self {
        SendOptions::default().with_policy(DeliveryPolicy::Unordered)
    }

    /// Returns the options with the given delivery policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DeliveryPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl From<DeliveryPolicy> for SendOptions {
    fn from(policy: DeliveryPolicy) -> Self {
        SendOptions::default().with_policy(policy)
    }
}

/// A notification in flight between two agents, as seen by engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentMessage {
    /// Globally unique id, assigned when the message enters the bus.
    pub id: MessageId,
    /// The sending agent.
    pub from: AgentId,
    /// The destination agent.
    pub to: AgentId,
    /// The notification carried.
    pub note: Notification,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_base::ServerId;

    #[test]
    fn notification_accessors() {
        let n = Notification::new("ping", b"x".to_vec());
        assert_eq!(n.kind(), "ping");
        assert_eq!(n.body_str(), Some("x"));
        let s = Notification::signal("go");
        assert!(s.body().is_empty());
        assert_eq!(s.body_str(), Some(""));
    }

    #[test]
    fn invalid_utf8_body_str_is_none() {
        let n = Notification::new("bin", vec![0xFF, 0xFE]);
        assert_eq!(n.body_str(), None);
    }

    #[test]
    fn send_options_compose() {
        assert_eq!(SendOptions::new(), SendOptions::causal());
        assert_eq!(
            SendOptions::causal().with_policy(DeliveryPolicy::Unordered),
            SendOptions::unordered()
        );
        let via_into: SendOptions = DeliveryPolicy::Causal.into();
        assert_eq!(via_into, SendOptions::default());
    }

    #[test]
    fn agent_message_is_plain_data() {
        let m = AgentMessage {
            id: MessageId::new(ServerId::new(0), 1),
            from: AgentId::new(ServerId::new(0), 0),
            to: AgentId::new(ServerId::new(1), 0),
            note: Notification::signal("hello"),
        };
        let m2 = m.clone();
        assert_eq!(m, m2);
    }
}
