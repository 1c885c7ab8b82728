//! Plan-driven session accept for the mux: surface incoming connections
//! as events instead of pre-registering them.
//!
//! The backends ([`UdpBackend`](crate::UdpBackend),
//! [`MuxBackend`](crate::MuxBackend)) know their plan list up front, so
//! their acceptor indexes plans by flow id. A real server doesn't — a chat
//! responder, a file sink — it has one *policy* (profile, reliability,
//! stream config) and wants a session materialised whenever a new peer
//! shows up. [`accept_sessions`] installs exactly that: every capability
//! offer arriving on an unknown even flow id becomes a receiver
//! [`Session`] built from a plan template, routed on the QTP flow-pair
//! convention (data on `2k`, feedback on `2k + 1`), and announced on an
//! [`AcceptQueue`] the application drains between drive calls.
//!
//! The triggering frame itself is delivered to the fresh session (the mux
//! accept contract), so the handshake proceeds with no extra round trip.

use qtp_core::session::{ConnectionPlan, Session};
use qtp_core::wire;
use qtp_simnet::packet::FlowId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::rc::Rc;

use crate::frame::Frame;
use crate::mux::{Accepted, MuxDriver};

/// One accepted connection, announced when its first frame arrived.
///
/// The mux assigns the [`ConnId`](crate::ConnId) *after* the acceptor
/// returns, so the event carries the routing key instead: look the
/// connection up with [`MuxDriver::route`]`(peer, data_flow)` and fetch
/// its session (and from it the [`RecvStream`](qtp_core::RecvStream) and
/// event queue) with [`MuxDriver::endpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptEvent {
    /// Socket address the connection arrived from.
    pub peer: SocketAddr,
    /// Data flow id the connection owns (feedback is `data_flow + 1`).
    pub data_flow: FlowId,
}

/// Queue of [`AcceptEvent`]s produced by [`accept_sessions`]. Cheap to
/// clone; all clones share the queue.
#[derive(Debug, Clone, Default)]
pub struct AcceptQueue {
    inner: Rc<RefCell<VecDeque<AcceptEvent>>>,
}

impl AcceptQueue {
    /// Pop the oldest unclaimed accept event.
    pub fn pop(&self) -> Option<AcceptEvent> {
        self.inner.borrow_mut().pop_front()
    }

    /// Number of unclaimed accept events.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether no accept events are pending.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }
}

/// The QTP flow-pair accept rule every session acceptor shares: a
/// capability offer on an even (data) flow `2k` becomes a receiver
/// [`Session`] for `plan`, routed on `2k` and its feedback flow `2k + 1`.
/// Anything else is declined.
pub(crate) fn accept_offer(frame: &Frame, plan: &ConnectionPlan) -> Option<Accepted<Session>> {
    if frame.flow % 2 != 0 || !wire::carries_capabilities(&frame.header) {
        return None;
    }
    Some(Accepted {
        endpoint: Session::receiver(frame.flow, frame.flow + 1, 0, plan),
        flows: vec![frame.flow, frame.flow + 1],
    })
}

/// Install a plan-template acceptor on a server mux: every capability
/// offer from an unknown `(peer, even flow)` becomes a receiver
/// [`Session`] built from `template`, and an [`AcceptEvent`] is pushed on
/// the returned queue.
///
/// Non-offer frames on unknown flows (stray data, reordered leftovers of
/// a reaped connection) do not create sessions — they count as
/// unroutable, and the peer's handshake retransmission will establish the
/// connection properly.
pub fn accept_sessions(server: &mut MuxDriver<Session>, template: ConnectionPlan) -> AcceptQueue {
    let queue = AcceptQueue::default();
    let q = queue.clone();
    server.set_acceptor(move |peer, frame| {
        let accepted = accept_offer(frame, &template)?;
        q.inner.borrow_mut().push_back(AcceptEvent {
            peer,
            data_flow: frame.flow,
        });
        Some(accepted)
    });
    queue
}
