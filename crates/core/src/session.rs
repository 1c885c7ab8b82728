//! The backend-neutral application API: fluent service profiles and
//! sans-io connection sessions.
//!
//! The paper's thesis is that applications *negotiate* a transport service
//! per connection from three orthogonal axes (reliability, receiver
//! processing, QoS awareness). This module is where that idea meets the
//! programmer:
//!
//! * [`Profile`] — a validated service profile, built fluently
//!   (`Profile::new().reliability(..).feedback(..).cc(..).build()?`) or
//!   from the named paper presets ([`Profile::qtp_af`],
//!   [`Profile::qtp_light`]); lossless to/from the [`CapabilitySet`] that
//!   travels in the handshake.
//! * [`ConnectionPlan`] — one connection's worth of application intent:
//!   the offered profile, the traffic model, the receiver's negotiation
//!   policy. Plans are backend-neutral descriptions; every backend runs
//!   the same plan unchanged.
//! * [`Session`] — a sans-io connection object: one side of a connection
//!   wrapped in the [`Endpoint`] seam (datagrams and timer fires in,
//!   [`Outbox`] commands out), plus typed events on a [`SessionEvents`]
//!   queue (`Connected`, `Delivered`, `TtlExpired`, `Rejected`,
//!   `Closed`, …). Every driver — the simulator's
//!   [`SimAgent`] and `qtp-io`'s `MuxDriver` —
//!   mounts it directly.
//! * [`Backend`] — the run-a-scenario seam: hand any backend a slice of
//!   plans and get per-connection [`ConnectionOutcome`]s back.
//!   [`SimBackend`] (here) drives plans through the deterministic
//!   simulator; `qtp_io::backend::{UdpBackend, MuxBackend}` drive the
//!   *same plans* over real UDP sockets, one socket pair per connection
//!   or every connection over one pair.
//!
//! QUIC implementations converged on exactly this shape — one sans-io
//! connection object behind one thin event loop — and it is what lets a
//! single program here run unchanged on the simulator and over real
//! sockets.

use qtp_metrics::trace::{TraceEventKind, TraceRegistry, Tracer};
use qtp_sack::ReliabilityMode;
use qtp_simnet::packet::{FlowId, NodeId};
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Simulator;
use qtp_simnet::topology::{Dumbbell, DumbbellConfig};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use crate::adapter::{SimAgent, SimHost};
use crate::caps::{CapabilitySet, CapsError, CcKind, FeedbackMode, ServerPolicy};
use crate::driver::{Command, Endpoint, Outbox};
use crate::probe::{Probe, ProbeData};
use crate::receiver::{QtpReceiver, QtpReceiverConfig};
use crate::sender::{AppModel, QtpSender, QtpSenderConfig};
use crate::stream::{RecvStream, SendStream, StreamConfig};
use crate::wire::{self, QtpPacket, WireError};

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// The reliability axis, in application terms (axis 1 of the paper).
///
/// This is the fluent-API face of [`ReliabilityMode`]; the two convert
/// losslessly in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// No retransmission at all (pure streaming).
    None,
    /// Full reliability: every byte is retransmitted until acknowledged.
    Full,
    /// Partial reliability: retransmit only data still younger than the
    /// TTL (stale ADUs are abandoned with a `FWD`).
    Ttl(Duration),
    /// Partial reliability: at most this many retransmissions per packet.
    Budget(u32),
}

impl From<Reliability> for ReliabilityMode {
    fn from(r: Reliability) -> ReliabilityMode {
        match r {
            Reliability::None => ReliabilityMode::None,
            Reliability::Full => ReliabilityMode::Full,
            Reliability::Ttl(d) => ReliabilityMode::PartialTtl(d),
            Reliability::Budget(n) => ReliabilityMode::PartialRetx(n),
        }
    }
}

impl From<ReliabilityMode> for Reliability {
    fn from(m: ReliabilityMode) -> Reliability {
        match m {
            ReliabilityMode::None => Reliability::None,
            ReliabilityMode::Full => Reliability::Full,
            ReliabilityMode::PartialTtl(d) => Reliability::Ttl(d),
            ReliabilityMode::PartialRetx(n) => Reliability::Budget(n),
        }
    }
}

/// Why a profile failed validation. Returned by [`ProfileBuilder::build`]
/// (and [`Profile::try_from`] on a [`CapabilitySet`]) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// `Reliability::Ttl(0)`: every ADU would be stale before its first
    /// transmission. Use [`Reliability::None`] to opt out of reliability.
    ZeroTtl,
    /// `Reliability::Budget(0)`: a zero retransmission budget is
    /// [`Reliability::None`] with extra bookkeeping — ask for what you
    /// mean.
    ZeroRetxBudget,
    /// `CcKind::Fixed` with a zero rate: the sender would never transmit.
    ZeroFixedRate,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::ZeroTtl => write!(f, "partial reliability with a zero TTL"),
            ProfileError::ZeroRetxBudget => {
                write!(f, "partial reliability with a zero retransmission budget")
            }
            ProfileError::ZeroFixedRate => write!(f, "fixed-rate congestion control at 0 bit/s"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A validated service profile over the paper's three axes.
///
/// Build one fluently — [`Profile::new`] returns a [`ProfileBuilder`] —
/// or use the named paper instances:
///
/// ```
/// use qtp_core::session::{Profile, Reliability};
/// use qtp_core::{CcKind, FeedbackMode};
/// use qtp_simnet::time::Rate;
/// use std::time::Duration;
///
/// // The QTPAF preset…
/// let af = Profile::qtp_af(Rate::from_mbps(2));
/// // …and an à-la-carte composition over the same axes.
/// let custom = Profile::new()
///     .reliability(Reliability::Ttl(Duration::from_millis(200)))
///     .feedback(FeedbackMode::SenderLoss)
///     .cc(CcKind::Tfrc)
///     .build()
///     .unwrap();
/// assert_ne!(af.caps(), custom.caps());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    caps: CapabilitySet,
}

impl Profile {
    /// Start a fluent profile description. Defaults to the standard-TFRC
    /// baseline (no reliability, receiver-side estimation, plain TFRC).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> ProfileBuilder {
        ProfileBuilder {
            reliability: Reliability::None,
            feedback: FeedbackMode::ReceiverLoss,
            cc: CcKind::Tfrc,
        }
    }

    /// The **QTPAF** instance (paper §4): gTFRC with guaranteed floor `g`,
    /// full reliability, receiver-side loss estimation.
    pub fn qtp_af(g: Rate) -> Profile {
        Profile {
            caps: CapabilitySet::qtp_af(g),
        }
    }

    /// The **QTPlight** instance (paper §3): sender-side loss estimation,
    /// no retransmission, plain TFRC.
    pub fn qtp_light() -> Profile {
        Profile {
            caps: CapabilitySet::qtp_light(),
        }
    }

    /// QTPlight with TTL-bounded partial reliability (the selective
    /// retransmission by-product paper §3 highlights). A zero TTL is
    /// rejected — see [`ProfileError::ZeroTtl`].
    pub fn qtp_light_partial(ttl: Duration) -> Result<Profile, ProfileError> {
        Profile::new()
            .reliability(Reliability::Ttl(ttl))
            .feedback(FeedbackMode::SenderLoss)
            .cc(CcKind::Tfrc)
            .build()
    }

    /// The standard TFRC baseline both named instances are compared
    /// against.
    pub fn tfrc() -> Profile {
        Profile {
            caps: CapabilitySet::tfrc_standard(),
        }
    }

    /// CUBIC (RFC 8312) with full reliability and receiver-side loss
    /// estimation — the window-based point of comparison for the
    /// controller races (C-group experiments).
    pub fn cubic() -> Profile {
        Profile {
            caps: CapabilitySet {
                reliability: ReliabilityMode::Full,
                feedback: FeedbackMode::ReceiverLoss,
                cc: CcKind::Cubic,
            },
        }
    }

    /// BBR-lite (deterministic model-based controller) with full
    /// reliability and receiver-side loss estimation.
    pub fn bbr_lite() -> Profile {
        Profile {
            caps: CapabilitySet {
                reliability: ReliabilityMode::Full,
                feedback: FeedbackMode::ReceiverLoss,
                cc: CcKind::BbrLite,
            },
        }
    }

    /// The wire-level capability set this profile offers in the handshake
    /// (lossless; [`Profile::try_from`] converts back).
    pub fn caps(&self) -> CapabilitySet {
        self.caps
    }

    /// The reliability axis.
    pub fn reliability(&self) -> Reliability {
        self.caps.reliability.into()
    }

    /// The receiver-processing axis.
    pub fn feedback(&self) -> FeedbackMode {
        self.caps.feedback
    }

    /// The QoS-awareness axis.
    pub fn cc(&self) -> CcKind {
        self.caps.cc
    }
}

impl From<Profile> for CapabilitySet {
    fn from(p: Profile) -> CapabilitySet {
        p.caps
    }
}

impl TryFrom<CapabilitySet> for Profile {
    type Error = ProfileError;

    /// Validate a wire-level capability set into a profile. Lossless for
    /// every set a [`ProfileBuilder`] accepts.
    fn try_from(caps: CapabilitySet) -> Result<Profile, ProfileError> {
        Profile::new()
            .reliability(caps.reliability.into())
            .feedback(caps.feedback)
            .cc(caps.cc)
            .build()
    }
}

/// Fluent builder returned by [`Profile::new`]; validation happens once,
/// in [`ProfileBuilder::build`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileBuilder {
    reliability: Reliability,
    feedback: FeedbackMode,
    cc: CcKind,
}

impl ProfileBuilder {
    /// Set the reliability axis.
    pub fn reliability(mut self, r: Reliability) -> Self {
        self.reliability = r;
        self
    }

    /// Set the receiver-processing axis.
    pub fn feedback(mut self, f: FeedbackMode) -> Self {
        self.feedback = f;
        self
    }

    /// Set the QoS-awareness axis.
    pub fn cc(mut self, cc: CcKind) -> Self {
        self.cc = cc;
        self
    }

    /// Validate the composition.
    pub fn build(self) -> Result<Profile, ProfileError> {
        match self.reliability {
            Reliability::Ttl(d) if d.is_zero() => return Err(ProfileError::ZeroTtl),
            Reliability::Budget(0) => return Err(ProfileError::ZeroRetxBudget),
            _ => {}
        }
        if let CcKind::Fixed { rate } = self.cc {
            if rate.bps() == 0 {
                return Err(ProfileError::ZeroFixedRate);
            }
        }
        Ok(Profile {
            caps: CapabilitySet {
                reliability: self.reliability.into(),
                feedback: self.feedback,
                cc: self.cc,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Connection plans
// ---------------------------------------------------------------------------

/// One connection's worth of application intent, backend-neutral: what
/// service to offer, what traffic to generate, and how the receiving side
/// negotiates. The same plan runs unchanged on every [`Backend`].
#[derive(Debug, Clone)]
pub struct ConnectionPlan {
    /// Display / flow-registration label (backends generate one if empty).
    pub label: String,
    /// Service profile the sender offers.
    pub profile: Profile,
    /// Traffic model on top of the sender.
    pub app: AppModel,
    /// Payload bytes per data packet.
    pub payload: u32,
    /// Receiver-side negotiation policy.
    pub policy: ServerPolicy,
    /// Selfish-receiver attack factor (1.0 = honest).
    pub selfish_factor: f64,
    /// **D1 ablation** (experiments only): disable RTT-window loss-event
    /// grouping in the sender-side estimator.
    pub ablate_ungrouped_losses: bool,
    /// Application data plane: when set, the connection carries stream
    /// messages (see [`SendStream`]/[`RecvStream`]) instead of `app`'s
    /// synthetic traffic.
    pub stream: Option<StreamConfig>,
}

impl ConnectionPlan {
    /// A greedy connection offering `profile`, with default payload size
    /// and a permissive receiver.
    pub fn new(profile: Profile) -> Self {
        ConnectionPlan {
            label: String::new(),
            profile,
            app: AppModel::Greedy,
            payload: 1000,
            policy: ServerPolicy::default(),
            selfish_factor: 1.0,
            ablate_ungrouped_losses: false,
            stream: None,
        }
    }

    /// Set the label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Set the traffic model.
    pub fn app(mut self, app: AppModel) -> Self {
        self.app = app;
        self
    }

    /// Shorthand for a finite transfer of `packets` packets.
    pub fn finite(self, packets: u64) -> Self {
        self.app(AppModel::Finite { packets })
    }

    /// Set the payload bytes per packet.
    pub fn payload(mut self, payload: u32) -> Self {
        self.payload = payload;
        self
    }

    /// Set the receiver's negotiation policy.
    pub fn policy(mut self, policy: ServerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the selfish-receiver factor (experiments).
    pub fn selfish_factor(mut self, k: f64) -> Self {
        self.selfish_factor = k;
        self
    }

    /// Enable the D1 ungrouped-losses ablation (experiments).
    pub fn ablate_ungrouped_losses(mut self, on: bool) -> Self {
        self.ablate_ungrouped_losses = on;
        self
    }

    /// Attach the application stream data plane: traffic comes from
    /// [`SendStream::send`] instead of the synthetic app model, and the
    /// receiving side surfaces messages through a [`RecvStream`].
    pub fn stream(mut self, cfg: StreamConfig) -> Self {
        self.stream = Some(cfg);
        self
    }

    /// Lower the plan into the sender endpoint's configuration.
    pub fn sender_config(&self) -> QtpSenderConfig {
        let mut cfg = QtpSenderConfig::new(self.profile.caps());
        cfg.s = self.payload;
        cfg.app = self.app.clone();
        cfg.ablate_ungrouped_losses = self.ablate_ungrouped_losses;
        cfg.stream = self.stream.clone();
        cfg
    }

    /// Lower the plan into the receiver endpoint's configuration.
    pub fn receiver_config(&self) -> QtpReceiverConfig {
        QtpReceiverConfig {
            policy: self.policy.clone(),
            selfish_factor: self.selfish_factor,
            stream: self.stream.clone(),
        }
    }

    /// The reliability mode a backend should judge this plan by: the
    /// **negotiated** mode once the handshake completed (the receiver's
    /// policy may have downgraded the offer), the offer before. Every
    /// backend's completion rule goes through this one helper so sim and
    /// socket backends can never disagree on what "done" means.
    pub fn effective_reliability(&self, negotiated: Option<CapabilitySet>) -> ReliabilityMode {
        negotiated
            .map(|c| c.reliability)
            .unwrap_or(self.profile.caps().reliability)
    }

    /// Packets this plan's app model will generate, if finite (backends
    /// use this to decide when a connection has finished its job).
    pub fn finite_packets(&self) -> Option<u64> {
        match self.app {
            AppModel::Finite { packets } => Some(packets),
            _ => None,
        }
    }

    /// The plan's label, or a generated `conn{index:04}` when unset.
    pub fn display_label(&self, index: usize) -> String {
        if self.label.is_empty() {
            format!("conn{index:04}")
        } else {
            self.label.clone()
        }
    }
}

// ---------------------------------------------------------------------------
// Session events
// ---------------------------------------------------------------------------

/// A typed event observed on a [`Session`] — the application-facing view
/// of negotiation outcomes and delivery, with no reaching into probes.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The handshake completed; this is the service the network granted.
    Connected {
        /// The negotiated capability set (the offer after policy
        /// intersection).
        negotiated: CapabilitySet,
    },
    /// Application payload became deliverable (receiver side).
    /// Consecutive deliveries coalesce into one event while it sits
    /// unpolled at the queue tail, so a long-running connection holds
    /// O(1) delivery events rather than one per ADU.
    Delivered {
        /// Bytes handed to the application since the last poll.
        bytes: u64,
    },
    /// Partial reliability abandoned stale data (sender side): `packets`
    /// ADUs aged past their TTL/budget and will never be (re)sent.
    /// Coalesces at the queue tail like `Delivered`.
    TtlExpired {
        /// Newly abandoned packets since the last poll.
        packets: u64,
    },
    /// A peer offered a capability set this implementation cannot decode;
    /// the datagram was dropped. Carries the offending wire code.
    /// Consecutive identical rejections (a peer retransmitting the same
    /// malformed SYN) coalesce into one event at the queue tail.
    Rejected {
        /// Which axis failed and with what wire code.
        error: CapsError,
    },
    /// Stream messages became available on the [`RecvStream`]
    /// (receiver side). Coalesces at the queue tail like `Delivered`.
    Readable {
        /// Complete messages surfaced since the last poll.
        messages: u64,
    },
    /// The bounded stream send buffer has space again after a
    /// [`StreamError`](crate::stream::StreamError)`::Full` rejection
    /// (sender side) — retry the send.
    Writable,
    /// The peer finished its stream: the close handshake's FIN was
    /// processed and every deliverable message has been surfaced
    /// (receiver side).
    Finished,
    /// The session closed. For a graceful [`Session::close`] this fires
    /// once the wire-level FIN / FIN-ACK handshake completes; for
    /// [`Session::abort`] it fires immediately.
    Closed,
}

/// Cloneable handle onto a session's event queue.
///
/// Sessions attached to the simulator are moved into it (like agents), so
/// observers keep one of these — the session-event analogue of [`Probe`].
#[derive(Debug, Default, Clone)]
pub struct SessionEvents {
    inner: Rc<RefCell<VecDeque<SessionEvent>>>,
}

impl SessionEvents {
    /// Queue an event. Counting events (`Delivered`, `TtlExpired`,
    /// `Readable`) fold into an event of the same kind already at the
    /// queue tail, and a `Rejected` identical to the tail (a peer
    /// retransmitting one malformed SYN) is dropped — an unbounded-growth
    /// guard for observers that only read events after the run, or never.
    fn push(&self, ev: SessionEvent) {
        use SessionEvent::*;
        let mut q = self.inner.borrow_mut();
        match (q.back_mut(), &ev) {
            (Some(Delivered { bytes: tail }), Delivered { bytes }) => *tail += bytes,
            (Some(TtlExpired { packets: tail }), TtlExpired { packets }) => *tail += packets,
            (Some(Readable { messages: tail }), Readable { messages }) => *tail += messages,
            (Some(tail), Rejected { .. }) if *tail == ev => {}
            _ => q.push_back(ev),
        }
    }

    /// Pop the oldest pending event.
    pub fn poll(&self) -> Option<SessionEvent> {
        self.inner.borrow_mut().pop_front()
    }

    /// Drain every pending event.
    pub fn drain(&self) -> Vec<SessionEvent> {
        self.inner.borrow_mut().drain(..).collect()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

enum Role {
    Sender(QtpSender),
    Receiver(QtpReceiver),
}

impl Role {
    fn endpoint(&mut self) -> &mut dyn Endpoint {
        match self {
            Role::Sender(s) => s,
            Role::Receiver(r) => r,
        }
    }
}

/// A sans-io QTP connection endpoint.
///
/// One `Session` wraps one side of a connection (sender or receiver) and
/// is driven through the [`Endpoint`] seam: the simulator
/// ([`SimAgent`], [`SimHost`]) and
/// `qtp_io::MuxDriver` mount it like any endpoint, and a hand-written
/// loop does the same — set `out.now`, call `on_start` /
/// `handle_datagram` / `on_timer`, then drain the [`Outbox`]. Commands
/// pass through to the driver unchanged and in order, which keeps
/// fixed-seed simulations byte-identical to mounting the bare endpoint;
/// the driver owns the timers. On top of the endpoint the session derives
/// typed [`SessionEvent`]s ([`Session::events`]) and stream edges.
pub struct Session {
    inner: Role,
    out: Outbox,
    started: bool,
    closed: bool,
    connected: bool,
    delivered_bytes: u64,
    abandoned_seen: u64,
    probe: Probe,
    events: SessionEvents,
    /// Sender-side stream state, polled for `Writable` edges.
    send_shared: Option<Rc<RefCell<crate::stream::SendShared>>>,
    /// Receiver-side stream state, polled for `Readable` counts.
    recv_shared: Option<Rc<RefCell<crate::stream::RecvShared>>>,
    /// `Finished` has been emitted.
    finished_reported: bool,
    /// The endpoint's observability handle (stream edges are emitted here
    /// too, so a trace shows app-visible events alongside wire events).
    tracer: Tracer,
}

impl Session {
    /// A sending session for one connection: `data_flow` is the flow id
    /// its data travels on, `peer` the destination endpoint id (a node id
    /// under the simulator; real-socket drivers map every id onto the
    /// connected peer).
    pub fn sender(data_flow: FlowId, peer: NodeId, plan: &ConnectionPlan) -> Session {
        let probe = Probe::new();
        let sender = QtpSender::new(data_flow, peer, plan.sender_config(), probe.clone());
        Session {
            send_shared: sender.stream_shared(),
            ..Session::wrap(sender.tracer(), Role::Sender(sender), probe)
        }
    }

    /// A receiving session: data arrives on `data_flow`, feedback leaves
    /// on `fb_flow` toward `peer`.
    pub fn receiver(
        data_flow: FlowId,
        fb_flow: FlowId,
        peer: NodeId,
        plan: &ConnectionPlan,
    ) -> Session {
        let probe = Probe::new();
        let receiver = QtpReceiver::new(
            data_flow,
            fb_flow,
            peer,
            plan.receiver_config(),
            probe.clone(),
        );
        Session {
            recv_shared: receiver.stream_shared(),
            ..Session::wrap(receiver.tracer(), Role::Receiver(receiver), probe)
        }
    }

    /// The sending half of the stream data plane (plans built with
    /// [`ConnectionPlan::stream`], sender side). Cheap to clone and kept
    /// valid after the session moves into a simulator or driver.
    pub fn send_stream(&self) -> Option<SendStream> {
        match &self.inner {
            Role::Sender(s) => s.send_stream(),
            Role::Receiver(_) => None,
        }
    }

    /// The receiving half of the stream data plane (plans built with
    /// [`ConnectionPlan::stream`], receiver side). Cheap to clone and kept
    /// valid after the session moves into a simulator or driver.
    pub fn recv_stream(&self) -> Option<RecvStream> {
        match &self.inner {
            Role::Receiver(r) => r.recv_stream(),
            Role::Sender(_) => None,
        }
    }

    fn wrap(tracer: Tracer, inner: Role, probe: Probe) -> Session {
        Session {
            inner,
            out: Outbox::new(),
            started: false,
            closed: false,
            connected: false,
            delivered_bytes: 0,
            abandoned_seen: 0,
            probe,
            events: SessionEvents::default(),
            send_shared: None,
            recv_shared: None,
            finished_reported: false,
            tracer,
        }
    }

    /// Close the session. A running sender drains, runs the wire-level
    /// FIN / FIN-ACK handshake, and emits [`SessionEvent::Closed`] once the
    /// peer acknowledged (or retries were exhausted); keep driving the
    /// session until then. A sender that never completed its handshake, and
    /// any receiver, closes locally like [`Session::abort`].
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        match &mut self.inner {
            Role::Sender(s) => {
                s.begin_close();
                if s.close_complete() {
                    self.finish_close();
                }
                // Otherwise `pump` observes close_complete() later and
                // finishes then.
            }
            Role::Receiver(_) => self.finish_close(),
        }
    }

    /// Close immediately and locally: no FIN goes out, further input and
    /// timers are ignored (except close-handshake packets, which still get
    /// acknowledged so the peer can finish), and [`SessionEvent::Closed`]
    /// is emitted at once.
    pub fn abort(&mut self) {
        if !self.closed {
            self.finish_close();
        }
    }

    fn finish_close(&mut self) {
        self.closed = true;
        self.events.push(SessionEvent::Closed);
    }

    fn detect_rejected(&mut self, now: SimTime, header: &[u8]) {
        if wire::carries_capabilities(header) {
            if let Err(WireError::BadCapability(error)) = QtpPacket::decode(header) {
                self.events.push(SessionEvent::Rejected { error });
                self.tracer.emit(now.as_nanos(), TraceEventKind::SoftError);
            }
        }
    }

    /// Run one callback of the wrapped endpoint at the driver's time, then
    /// [`pump`](Session::pump) its commands through.
    fn forward(&mut self, out: &mut Outbox, f: impl FnOnce(&mut dyn Endpoint, &mut Outbox)) {
        self.out.now = out.now;
        f(self.inner.endpoint(), &mut self.out);
        self.pump(out);
    }

    /// Pass the endpoint's commands through to the driver's outbox,
    /// unchanged and in order, deriving session events on the way.
    fn pump(&mut self, out: &mut Outbox) {
        while let Some(cmd) = self.out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => out.send_new(t.flow, t.dst, t.wire_size, t.header),
                Command::SetTimer { at, token } => out.set_timer_at(at, token),
                Command::Deliver { flow, bytes } => {
                    self.delivered_bytes += bytes;
                    self.events.push(SessionEvent::Delivered { bytes });
                    out.app_deliver(flow, bytes);
                }
            }
        }
        if !self.connected {
            if let Some(negotiated) = self.negotiated() {
                self.connected = true;
                self.events.push(SessionEvent::Connected { negotiated });
            }
        }
        let abandoned = self.probe.read(|d| d.tx_abandoned);
        if abandoned > self.abandoned_seen {
            self.events.push(SessionEvent::TtlExpired {
                packets: abandoned - self.abandoned_seen,
            });
            self.abandoned_seen = abandoned;
        }
        // Stream data-plane edges.
        if let Some(sh) = &self.send_shared {
            if crate::stream::take_writable_edge(sh) {
                self.tracer
                    .emit(self.out.now.as_nanos(), TraceEventKind::StreamWritable);
                self.events.push(SessionEvent::Writable);
            }
        }
        if let Some(rh) = &self.recv_shared {
            let n = crate::stream::take_readable(rh);
            if n > 0 {
                self.tracer
                    .emit(self.out.now.as_nanos(), TraceEventKind::StreamReadable);
                self.events.push(SessionEvent::Readable { messages: n });
            }
        }
        if !self.finished_reported {
            if let Role::Receiver(r) = &self.inner {
                if r.finished() {
                    self.finished_reported = true;
                    self.tracer
                        .emit(self.out.now.as_nanos(), TraceEventKind::StreamFin);
                    self.events.push(SessionEvent::Finished);
                }
            }
        }
        // Graceful close: the sender reports completion of the FIN
        // handshake; surface it as `Closed`.
        if !self.closed {
            if let Role::Sender(s) = &self.inner {
                if s.close_complete() {
                    self.finish_close();
                }
            }
        }
    }

    // ---- observation ---------------------------------------------------

    /// The negotiated capability set, once the handshake completed.
    pub fn negotiated(&self) -> Option<CapabilitySet> {
        match &self.inner {
            Role::Sender(s) => s.negotiated(),
            Role::Receiver(r) => r.negotiated(),
        }
    }

    /// Cloneable handle onto this session's event queue (survives the
    /// session being moved into a simulator or driver).
    pub fn events(&self) -> SessionEvents {
        self.events.clone()
    }

    /// The endpoint's measurement probe (processing costs, traces).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The endpoint's [`Tracer`]: per-connection counters always, plus
    /// event forwarding once a sink is attached (e.g. via
    /// [`TraceRegistry::register`]). Cheap to clone and kept valid after
    /// the session moves into a simulator or driver.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Application bytes delivered by this session (receiver side).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Soft errors absorbed by this session (malformed capability offers
    /// dropped on the floor). Reads the tracer's counters — the same
    /// figure a [`TraceRegistry`] snapshot reports.
    pub fn soft_errors(&self) -> u64 {
        self.tracer.counters().soft_errors
    }

    /// Whether [`Session::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Sender-side: has every packet handed to the network been
    /// acknowledged?
    pub fn all_acked(&self) -> bool {
        match &self.inner {
            Role::Sender(s) => s.all_acked(),
            Role::Receiver(_) => true,
        }
    }

    /// Sender-side: new (never-retransmitted) packets sent so far.
    pub fn sent_new(&self) -> u64 {
        match &self.inner {
            Role::Sender(s) => s.sent_new(),
            Role::Receiver(_) => 0,
        }
    }

    /// Receiver-side: packets delivered to the application so far.
    pub fn delivered_packets(&self) -> u64 {
        match &self.inner {
            Role::Receiver(r) => r.delivered_packets(),
            Role::Sender(_) => 0,
        }
    }

    /// Receiver-side: next expected in-order sequence.
    pub fn cum_ack(&self) -> u64 {
        match &self.inner {
            Role::Receiver(r) => r.cum_ack(),
            Role::Sender(_) => 0,
        }
    }
}

/// A `Session` is itself an [`Endpoint`], so every driver hosts it.
/// Commands pass through in emission order — a `SimAgent<Session>` replays
/// exactly like a `SimAgent<QtpSender>`. A closed session ignores timers
/// and every datagram except close-handshake packets: a closed receiver
/// must keep acknowledging retransmitted FINs so the peer can finish.
impl Endpoint for Session {
    fn on_start(&mut self, out: &mut Outbox) {
        if !self.started && !self.closed {
            self.started = true;
            self.forward(out, |ep, o| ep.on_start(o));
        }
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        if self.closed && !wire::is_close_handshake(header) {
            return;
        }
        self.detect_rejected(out.now, header);
        self.forward(out, |ep, o| ep.handle_datagram(o, wire_size, header));
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        if !self.closed {
            self.forward(out, |ep, o| ep.on_timer(o, token));
        }
    }
}

// ---------------------------------------------------------------------------
// Simulator binding
// ---------------------------------------------------------------------------

/// Observation handles for one simulated connection attached with
/// [`attach_pair`] (the sessions themselves move into the simulator).
#[derive(Debug, Clone)]
pub struct PairHandles {
    /// Flow id of the data direction (throughput/goodput accounting).
    pub data_flow: FlowId,
    /// Flow id of the feedback direction.
    pub fb_flow: FlowId,
    /// Sender-side probe.
    pub tx: Probe,
    /// Receiver-side probe.
    pub rx: Probe,
    /// Sender-side session events.
    pub tx_events: SessionEvents,
    /// Receiver-side session events.
    pub rx_events: SessionEvents,
    /// Sending half of the stream data plane (plans with a stream config).
    pub tx_stream: Option<SendStream>,
    /// Receiving half of the stream data plane.
    pub rx_stream: Option<RecvStream>,
    /// Sender-side tracer (counters + event emission).
    pub tx_tracer: Tracer,
    /// Receiver-side tracer.
    pub rx_tracer: Tracer,
}

impl PairHandles {
    fn of(data_flow: FlowId, fb_flow: FlowId, tx: &Session, rx: &Session) -> PairHandles {
        PairHandles {
            data_flow,
            fb_flow,
            tx: tx.probe().clone(),
            rx: rx.probe().clone(),
            tx_events: tx.events(),
            rx_events: rx.events(),
            tx_stream: tx.send_stream(),
            rx_stream: rx.recv_stream(),
            tx_tracer: tx.tracer(),
            rx_tracer: rx.tracer(),
        }
    }
}

/// Attach one planned connection to a simulated topology: a sending
/// session at `sender_node`, a receiving session at `receiver_node`, two
/// registered flows (`<name>` data, `<name>-fb` feedback).
///
/// Fixed-seed behaviour is pinned by the committed goldens and the claims
/// ledger, which all wire their connections through here.
pub fn attach_pair(
    sim: &mut Simulator,
    sender_node: NodeId,
    receiver_node: NodeId,
    name: &str,
    plan: &ConnectionPlan,
) -> PairHandles {
    let data_flow = sim.register_flow(name);
    let fb_flow = sim.register_flow(&format!("{name}-fb"));
    let tx = Session::sender(data_flow, receiver_node, plan);
    let rx = Session::receiver(data_flow, fb_flow, sender_node, plan);
    let handles = PairHandles::of(data_flow, fb_flow, &tx, &rx);
    sim.attach_agent(sender_node, Box::new(SimAgent::new(tx)));
    sim.attach_agent(receiver_node, Box::new(SimAgent::new(rx)));
    handles
}

/// Attach several planned connections whose endpoints may share nodes.
///
/// [`attach_pair`] installs one agent per node, so two connections that
/// terminate on the same host (a request stream one way and a response
/// stream the other) silently overwrite each other. This variant groups
/// all endpoints per node into one [`SimHost`], routing each endpoint's
/// *inbound* flow — the feedback flow for a sender, the data flow for a
/// receiver — and attaches the hosts in ascending node order so a fixed
/// seed still replays byte-identically.
pub fn attach_pairs(
    sim: &mut Simulator,
    pairs: &[(NodeId, NodeId, &str, ConnectionPlan)],
) -> Vec<PairHandles> {
    let mut hosts: std::collections::BTreeMap<NodeId, SimHost> = std::collections::BTreeMap::new();
    let mut out = Vec::with_capacity(pairs.len());
    for (sender_node, receiver_node, name, plan) in pairs {
        let data_flow = sim.register_flow(name);
        let fb_flow = sim.register_flow(&format!("{name}-fb"));
        let tx = Session::sender(data_flow, *receiver_node, plan);
        let rx = Session::receiver(data_flow, fb_flow, *sender_node, plan);
        out.push(PairHandles::of(data_flow, fb_flow, &tx, &rx));
        hosts.entry(*sender_node).or_default().add(tx, [fb_flow]);
        hosts
            .entry(*receiver_node)
            .or_default()
            .add(rx, [data_flow]);
    }
    for (node, host) in hosts {
        sim.attach_agent(node, Box::new(host));
    }
    out
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// What one planned connection did by the end of a [`Backend::run`].
#[derive(Debug, Clone)]
pub struct ConnectionOutcome {
    /// The plan's label (or the backend-generated one).
    pub label: String,
    /// The negotiated capability set, if the handshake completed.
    pub negotiated: Option<CapabilitySet>,
    /// Application bytes delivered at the receiver.
    pub delivered_bytes: u64,
    /// When the connection finished its job, seconds from scenario start
    /// (virtual time on the simulator, wall time on socket backends);
    /// `None` if the horizon passed first. Finite transfers complete when
    /// fully delivered (reliable profiles) or fully transmitted
    /// (unreliable/partial); open-ended apps never complete.
    pub completion_s: Option<f64>,
    /// Delivered bytes over the active period, bits/second.
    pub goodput_bps: f64,
    /// Sender-side session events, in order.
    pub tx_events: Vec<SessionEvent>,
    /// Receiver-side session events, in order.
    pub rx_events: Vec<SessionEvent>,
    /// Sender-side probe snapshot (rate/loss traces, retransmissions).
    pub tx: ProbeData,
    /// Receiver-side probe snapshot (per-packet cost, peak state).
    pub rx: ProbeData,
}

/// The run-a-scenario seam: every backend takes the same
/// [`ConnectionPlan`]s and reports per-connection [`ConnectionOutcome`]s,
/// in plan order. Implementations: [`SimBackend`] (simulator),
/// `qtp_io::backend::UdpBackend` (one socket pair per
/// connection) and `qtp_io::backend::MuxBackend` (all connections
/// multiplexed over one socket pair).
pub trait Backend {
    /// Short backend tag for reports ("sim", "udp", "mux").
    fn name(&self) -> &'static str;

    /// Run every plan to completion or the backend's horizon.
    fn run(&mut self, plans: &[ConnectionPlan]) -> std::io::Result<Vec<ConnectionOutcome>>;
}

/// Network shape a [`SimBackend`] builds.
#[derive(Debug, Clone)]
pub enum SimTopology {
    /// Every connection gets its own duplex path with these properties
    /// (loss applies in both directions, like the quickstart scenario).
    Isolated {
        /// Link rate.
        rate: Rate,
        /// One-way propagation delay.
        one_way: Duration,
        /// Bernoulli loss probability (0 disables loss).
        loss: f64,
    },
    /// All connections share a dumbbell bottleneck; `pairs` is overridden
    /// with the number of plans. (Boxed: the config dwarfs the other
    /// variant.)
    Dumbbell(Box<DumbbellConfig>),
}

/// The deterministic-simulator backend: same seed and plans ⇒
/// byte-identical outcomes.
#[derive(Debug, Clone)]
pub struct SimBackend {
    /// Network shape.
    pub topology: SimTopology,
    /// Simulation seed.
    pub seed: u64,
    /// Virtual-time bound.
    pub horizon: Duration,
    /// Completion-sampling granularity (completion times round up to
    /// this, keeping the stepped run deterministic).
    pub check_interval: Duration,
    /// When set, every connection's tracers are registered here as
    /// `<label>:tx` / `<label>:rx` — attaching whatever sink the registry
    /// carries and making per-connection counters collectable after the
    /// run. `None` (the default) leaves tracing disconnected.
    pub trace: Option<TraceRegistry>,
}

impl SimBackend {
    /// Isolated per-connection paths (the quickstart shape).
    pub fn isolated(rate: Rate, one_way: Duration, loss: f64) -> SimBackend {
        SimBackend {
            topology: SimTopology::Isolated {
                rate,
                one_way,
                loss,
            },
            seed: 42,
            horizon: Duration::from_secs(30),
            check_interval: Duration::from_millis(250),
            trace: None,
        }
    }

    /// A shared-bottleneck dumbbell (`cfg.pairs` is overridden per run).
    pub fn dumbbell(cfg: DumbbellConfig) -> SimBackend {
        SimBackend {
            topology: SimTopology::Dumbbell(Box::new(cfg)),
            seed: 42,
            horizon: Duration::from_secs(120),
            check_interval: Duration::from_millis(250),
            trace: None,
        }
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> SimBackend {
        self.seed = seed;
        self
    }

    /// Set the horizon.
    pub fn horizon(mut self, horizon: Duration) -> SimBackend {
        self.horizon = horizon;
        self
    }

    /// Register every connection's tracers with `registry` (see
    /// [`SimBackend::trace`]).
    pub fn trace(mut self, registry: TraceRegistry) -> SimBackend {
        self.trace = Some(registry);
        self
    }
}

/// Whether a finite plan is done, by the simulator backend's
/// receiver-side measure: full delivery when the
/// [effective](ConnectionPlan::effective_reliability) reliability is
/// `Full`, backlog fully transmitted otherwise (profiles that promise no
/// delivery). Keying on the offer alone would make a policy-downgraded
/// connection uncompletable under loss. The socket backends apply the
/// same Full/not-Full split to their sender-side measure (`tx_complete`
/// in `qtp_io::backend`).
pub(crate) fn plan_complete(
    plan: &ConnectionPlan,
    negotiated: Option<CapabilitySet>,
    delivered_bytes: u64,
    tx: &Probe,
) -> bool {
    let Some(packets) = plan.finite_packets() else {
        return false;
    };
    if plan.effective_reliability(negotiated) == ReliabilityMode::Full {
        delivered_bytes >= packets * plan.payload as u64
    } else {
        tx.read(|d| d.tx_data_pkts - d.tx_retransmissions) >= packets
    }
}

/// Engine-level counters from one simulator-backend run, for the scaling
/// benchmarks. `events_processed` and `packet_pool_high_water` are
/// deterministic (pure functions of plans + seed); `events_processed`
/// divided by wall-clock time is the events/s throughput metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRunMetrics {
    /// Events the simulator dispatched.
    pub events_processed: u64,
    /// Peak number of concurrently live packets in the arena.
    pub packet_pool_high_water: usize,
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&mut self, plans: &[ConnectionPlan]) -> std::io::Result<Vec<ConnectionOutcome>> {
        self.run_instrumented(plans).map(|(outcomes, _)| outcomes)
    }
}

impl SimBackend {
    /// [`Backend::run`], additionally reporting engine counters.
    pub fn run_instrumented(
        &mut self,
        plans: &[ConnectionPlan],
    ) -> std::io::Result<(Vec<ConnectionOutcome>, SimRunMetrics)> {
        // Build the topology: one (sender, receiver) node pair per plan.
        let (mut sim, nodes): (Simulator, Vec<(NodeId, NodeId)>) = match &self.topology {
            SimTopology::Isolated {
                rate,
                one_way,
                loss,
            } => {
                let mut b = NetworkBuilder::new();
                let mut nodes = Vec::with_capacity(plans.len());
                for _ in plans {
                    let s = b.host();
                    let r = b.host();
                    let mut link = LinkConfig::new(*rate, *one_way);
                    if *loss > 0.0 {
                        link = link.with_loss(LossModel::bernoulli(*loss));
                    }
                    b.duplex_link(s, r, link);
                    nodes.push((s, r));
                }
                (b.build(self.seed), nodes)
            }
            SimTopology::Dumbbell(cfg) => {
                let cfg = DumbbellConfig {
                    pairs: plans.len(),
                    ..(**cfg).clone()
                };
                let (sim, net) = Dumbbell::build(&cfg, self.seed);
                let nodes = net
                    .senders
                    .iter()
                    .copied()
                    .zip(net.receivers.iter().copied())
                    .collect();
                (sim, nodes)
            }
        };

        let labels: Vec<String> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| p.display_label(i))
            .collect();
        let handles: Vec<PairHandles> = plans
            .iter()
            .zip(&nodes)
            .zip(&labels)
            .map(|((plan, &(s, r)), label)| attach_pair(&mut sim, s, r, label, plan))
            .collect();
        if let Some(reg) = &self.trace {
            for (label, h) in labels.iter().zip(&handles) {
                reg.register(&format!("{label}:tx"), &h.tx_tracer);
                reg.register(&format!("{label}:rx"), &h.rx_tracer);
            }
        }

        // Stepped run: completion is sampled every check_interval, keeping
        // the scan cost negligible and the result deterministic.
        let mut completion: Vec<Option<SimTime>> = vec![None; plans.len()];
        let horizon = SimTime::ZERO + self.horizon;
        let mut t = SimTime::ZERO;
        while t < horizon {
            t = (t + self.check_interval).min(horizon);
            sim.run_until(t);
            let mut all_done = true;
            for (i, (plan, h)) in plans.iter().zip(&handles).enumerate() {
                if completion[i].is_some() {
                    continue;
                }
                let delivered = sim.stats().flow(h.data_flow).bytes_app_delivered;
                if plan_complete(plan, connected_caps(&h.tx_events), delivered, &h.tx) {
                    completion[i] = Some(t);
                } else {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
        }

        let outcomes = plans
            .iter()
            .zip(&handles)
            .enumerate()
            .map(|(i, (_, h))| {
                let delivered = sim.stats().flow(h.data_flow).bytes_app_delivered;
                let elapsed = completion[i].unwrap_or(horizon).as_secs_f64();
                ConnectionOutcome {
                    label: labels[i].clone(),
                    negotiated: connected_caps(&h.tx_events),
                    delivered_bytes: delivered,
                    completion_s: completion[i].map(|c| c.as_secs_f64()),
                    goodput_bps: if elapsed > 0.0 {
                        delivered as f64 * 8.0 / elapsed
                    } else {
                        0.0
                    },
                    tx_events: h.tx_events.drain(),
                    rx_events: h.rx_events.drain(),
                    tx: h.tx.snapshot(),
                    rx: h.rx.snapshot(),
                }
            })
            .collect();
        let metrics = SimRunMetrics {
            events_processed: sim.events_processed(),
            packet_pool_high_water: sim.packet_pool_high_water(),
        };
        Ok((outcomes, metrics))
    }
}

/// The negotiated set recorded in an event stream, if any (outcome
/// extraction for sessions that moved into a simulator or driver).
pub fn connected_caps(events: &SessionEvents) -> Option<CapabilitySet> {
    events.inner.borrow().iter().find_map(|e| match e {
        SessionEvent::Connected { negotiated } => Some(*negotiated),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn builder_validates_and_roundtrips() {
        let p = Profile::new()
            .reliability(Reliability::Ttl(Duration::from_millis(200)))
            .feedback(FeedbackMode::SenderLoss)
            .cc(CcKind::Tfrc)
            .build()
            .unwrap();
        assert_eq!(Profile::try_from(p.caps()), Ok(p));

        assert_eq!(
            Profile::new()
                .reliability(Reliability::Ttl(Duration::ZERO))
                .build(),
            Err(ProfileError::ZeroTtl)
        );
        assert_eq!(
            Profile::new().reliability(Reliability::Budget(0)).build(),
            Err(ProfileError::ZeroRetxBudget)
        );
        assert_eq!(
            Profile::new()
                .cc(CcKind::Fixed { rate: Rate::ZERO })
                .build(),
            Err(ProfileError::ZeroFixedRate)
        );
    }

    #[test]
    fn presets_match_capability_presets() {
        assert_eq!(
            Profile::qtp_af(Rate::from_mbps(2)).caps(),
            CapabilitySet::qtp_af(Rate::from_mbps(2))
        );
        assert_eq!(Profile::qtp_light().caps(), CapabilitySet::qtp_light());
        assert_eq!(Profile::tfrc().caps(), CapabilitySet::tfrc_standard());
        let ttl = Duration::from_millis(150);
        assert_eq!(
            Profile::qtp_light_partial(ttl).unwrap().caps(),
            CapabilitySet::qtp_light_partial(ttl)
        );
        assert_eq!(
            Profile::qtp_light_partial(Duration::ZERO),
            Err(ProfileError::ZeroTtl)
        );
    }

    /// Two sessions wired back to back through the [`Endpoint`] seam, the
    /// way every driver mounts them: a loss-free, zero-delay in-memory
    /// wire, a virtual clock, and one fire-and-forget timer heap (equal
    /// deadlines fire in arming order).
    struct Shuttle {
        tx: Session,
        rx: Session,
        now: SimTime,
        /// In-flight datagrams: (bound for the sender?, wire size, header).
        wire: VecDeque<(bool, u32, Vec<u8>)>,
        /// Armed timers: (deadline, arming order, the sender's?, token).
        timers: BinaryHeap<Reverse<(SimTime, u64, bool, u64)>>,
        armed: u64,
    }

    impl Shuttle {
        /// Build both sides of `plan` and start them.
        fn new(plan: &ConnectionPlan) -> Shuttle {
            let mut sh = Shuttle {
                tx: Session::sender(0, 1, plan),
                rx: Session::receiver(0, 1, 0, plan),
                now: SimTime::ZERO,
                wire: VecDeque::new(),
                timers: BinaryHeap::new(),
                armed: 0,
            };
            sh.call(true, |s, o| s.on_start(o));
            sh.call(false, |s, o| s.on_start(o));
            sh
        }

        /// Run one callback on one side and apply its commands; returns how
        /// many it emitted.
        fn call(&mut self, on_tx: bool, f: impl FnOnce(&mut Session, &mut Outbox)) -> usize {
            let mut out = Outbox::new();
            out.now = self.now;
            f(if on_tx { &mut self.tx } else { &mut self.rx }, &mut out);
            let mut emitted = 0;
            while let Some(cmd) = out.poll_cmd() {
                emitted += 1;
                match cmd {
                    Command::Transmit(t) => self.wire.push_back((!on_tx, t.wire_size, t.header)),
                    Command::SetTimer { at, token } => {
                        self.armed += 1;
                        self.timers.push(Reverse((at, self.armed, on_tx, token)));
                    }
                    Command::Deliver { .. } => {}
                }
            }
            emitted
        }

        /// Deliver datagrams until the wire is quiet, check `done`, then
        /// advance the clock to the next timer and fire it — until `done`
        /// holds (`true`) or no timer is left or a step budget runs out
        /// (`false`).
        fn run_until(&mut self, mut done: impl FnMut(&mut Session, &mut Session) -> bool) -> bool {
            for _ in 0..1_000_000 {
                while let Some((to_tx, size, header)) = self.wire.pop_front() {
                    self.call(to_tx, |s, o| s.handle_datagram(o, size, &header));
                }
                if done(&mut self.tx, &mut self.rx) {
                    return true;
                }
                let Some(Reverse((at, _, on_tx, token))) = self.timers.pop() else {
                    return false;
                };
                self.now = self.now.max(at);
                self.call(on_tx, |s, o| s.on_timer(o, token));
            }
            false
        }
    }

    fn drain(out: &mut Outbox) -> Vec<Command> {
        std::iter::from_fn(|| out.poll_cmd()).collect()
    }

    /// Drive a sender/receiver session pair purely through the endpoint
    /// seam with a virtual clock and an in-memory "wire" — no simulator, no
    /// sockets. This is the contract a hand-written event loop programs
    /// against.
    #[test]
    fn poll_surface_completes_a_reliable_transfer() {
        const PACKETS: u64 = 20;
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500))).finite(PACKETS);
        let mut sh = Shuttle::new(&plan);
        assert!(sh.run_until(|tx, rx| rx.delivered_packets() >= PACKETS && tx.all_acked()));
        let (tx, rx) = (&sh.tx, &sh.rx);
        assert_eq!(rx.delivered_packets(), PACKETS);
        assert!(tx.all_acked());
        assert_eq!(rx.delivered_bytes(), PACKETS * 1000);

        // Both sides observed the negotiation outcome as a typed event.
        let expected = ServerPolicy::default().negotiate(plan.profile.caps());
        assert_eq!(tx.negotiated(), Some(expected));
        assert!(matches!(
            tx.events().poll(),
            Some(SessionEvent::Connected { negotiated }) if negotiated == expected
        ));
        let rx_events = rx.events().drain();
        assert!(rx_events
            .iter()
            .any(|e| matches!(e, SessionEvent::Connected { .. })));
        let delivered: Vec<u64> = rx_events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Delivered { bytes } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.iter().sum::<u64>(), PACKETS * 1000);
        // Nothing polled mid-run, so every delivery coalesced into the one
        // event at the queue tail — the queue stays O(1), not O(ADUs).
        assert_eq!(delivered.len(), 1, "adjacent deliveries coalesce");
    }

    /// End-to-end stream data plane through the endpoint seam: a file goes
    /// in through `SendStream::send`, comes out byte-exact through
    /// `RecvStream::recv`, and the wire-level FIN / FIN-ACK close completes
    /// with both sides' typed events observed.
    #[test]
    fn stream_transfer_completes_with_wire_close() {
        use crate::stream::StreamError;
        let file: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(50)))
            .stream(StreamConfig::with_send_buf(16 * 1024));
        let mut sh = Shuttle::new(&plan);
        let send = sh.tx.send_stream().expect("sender side has a SendStream");
        let recv = sh.rx.recv_stream().expect("receiver side has a RecvStream");
        assert!(sh.tx.recv_stream().is_none() && sh.rx.send_stream().is_none());

        let mut offset = 0usize;
        let mut received = Vec::new();
        let mut saw_full = false;
        let done = sh.run_until(|tx, _| {
            while offset < file.len() {
                let end = (offset + 1900).min(file.len());
                match send.send(&file[offset..end]) {
                    Ok(()) => offset = end,
                    Err(StreamError::Full) => {
                        saw_full = true;
                        break;
                    }
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            if offset == file.len() && !send.is_finished() {
                send.finish();
            }
            while let Some(m) = recv.recv() {
                received.extend(m);
            }
            recv.is_finished() && tx.is_closed()
        });
        assert!(done, "transfer and close completed");
        assert_eq!(received.len(), file.len());
        assert_eq!(received, file, "byte-exact stream transfer");
        assert!(saw_full, "bounded send buffer exerted backpressure");
        assert!(recv.is_finished());
        assert!(sh.tx.is_closed(), "FIN / FIN-ACK handshake completed");
        // A closed sender is inert: every timer it still has armed fires
        // into nothing.
        let tx_timers: Vec<u64> = std::mem::take(&mut sh.timers)
            .into_iter()
            .filter_map(|Reverse((_, _, on_tx, token))| on_tx.then_some(token))
            .collect();
        for token in tx_timers {
            assert_eq!(sh.call(true, |s, o| s.on_timer(o, token)), 0);
        }

        let tx_events = sh.tx.events().drain();
        assert!(tx_events
            .iter()
            .any(|e| matches!(e, SessionEvent::Writable)));
        assert!(
            tx_events.iter().any(|e| matches!(e, SessionEvent::Closed)),
            "graceful close surfaced as Closed"
        );
        let rx_events = sh.rx.events().drain();
        let readable: u64 = rx_events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Readable { messages } => Some(*messages),
                _ => None,
            })
            .sum();
        assert_eq!(readable, recv.messages_received());
        assert!(rx_events
            .iter()
            .any(|e| matches!(e, SessionEvent::Finished)));
    }

    /// `Session::close` on a running stream sender performs the wire-level
    /// handshake instead of closing locally: `Closed` only fires once the
    /// receiver acknowledged the FIN.
    #[test]
    fn graceful_close_waits_for_finack() {
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(10)))
            .stream(StreamConfig::default());
        let mut sh = Shuttle::new(&plan);
        let send = sh.tx.send_stream().unwrap();
        send.send(b"payload").unwrap();

        let closed = sh.run_until(|tx, _| {
            if tx.negotiated().is_some() && !tx.is_closed() && !send.is_finished() {
                tx.close();
                assert!(!tx.is_closed(), "graceful close defers Closed to FIN-ACK");
            }
            tx.is_closed()
        });
        assert!(closed);
        assert!(sh
            .tx
            .events()
            .drain()
            .iter()
            .any(|e| matches!(e, SessionEvent::Closed)));
        assert!(sh
            .rx
            .events()
            .drain()
            .iter()
            .any(|e| matches!(e, SessionEvent::Finished)));
    }

    /// Offer a fresh receiver a SYN with the wire byte at `at` replaced by
    /// `code`; returns the receiver, its outbox and whether it sent anything.
    fn corrupted_offer(at: usize, code: u8) -> (Session, Outbox, bool) {
        let mut rx = Session::receiver(0, 1, 0, &ConnectionPlan::new(Profile::tfrc()));
        let mut out = Outbox::new();
        rx.on_start(&mut out);
        let mut syn = QtpPacket::Syn {
            ts_nanos: 7,
            offered: CapabilitySet::qtp_light(),
        }
        .encode();
        syn[at] = code;
        rx.handle_datagram(&mut out, 64, &syn);
        let sent = drain(&mut out)
            .iter()
            .any(|c| matches!(c, Command::Transmit(_)));
        (rx, out, sent)
    }

    #[test]
    fn malformed_capability_offer_surfaces_as_rejected() {
        // The reliability wire code is the first capability byte, after
        // the type + timestamp.
        let (mut rx, mut out, sent) = corrupted_offer(9, 0xEE);
        assert_eq!(
            rx.events().poll(),
            Some(SessionEvent::Rejected {
                error: CapsError::BadReliability(0xEE)
            })
        );
        // Nothing was negotiated and no SYNACK went out.
        assert_eq!(rx.negotiated(), None);
        assert!(!sent);

        // Garbage that is not a capability problem stays silent.
        rx.handle_datagram(&mut out, 64, &[0xFF, 1, 2, 3]);
        assert_eq!(rx.events().poll(), None);
    }

    /// A peer offering a congestion-control code from a future protocol
    /// version (or a fuzzer) is rejected with the typed capability error,
    /// not panicked on and not silently granted a different controller.
    #[test]
    fn unknown_cc_offer_surfaces_as_rejected() {
        // type(1) + ts(8) + rel code(1) + rel param(8) + fb(1) = offset of
        // the cc wire code.
        let (rx, _, sent) = corrupted_offer(19, 0x2A);
        assert_eq!(
            rx.events().poll(),
            Some(SessionEvent::Rejected {
                error: CapsError::BadCc(0x2A)
            })
        );
        assert_eq!(rx.negotiated(), None);
        assert!(!sent, "no SYNACK for a bad offer");
    }

    #[test]
    fn close_emits_closed_and_ignores_further_input() {
        let plan = ConnectionPlan::new(Profile::qtp_light());
        let mut tx = Session::sender(0, 1, &plan);
        let mut out = Outbox::new();
        tx.on_start(&mut out);
        let started = drain(&mut out);
        assert!(
            matches!(started.first(), Some(Command::Transmit(_))),
            "SYN emitted on start"
        );
        let syn_timer = started
            .iter()
            .find_map(|c| match c {
                Command::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("SYN retransmit timer armed on start");
        tx.close();
        assert!(matches!(tx.events().poll(), Some(SessionEvent::Closed)));
        assert!(tx.is_closed());
        let syn_ack = QtpPacket::SynAck {
            ts_echo_nanos: 0,
            chosen: CapabilitySet::qtp_light(),
        }
        .encode();
        out.now = SimTime::from_millis(1);
        tx.handle_datagram(&mut out, 64, &syn_ack);
        assert_eq!(tx.negotiated(), None, "input after close is ignored");
        tx.on_timer(&mut out, syn_timer);
        assert!(out.is_empty(), "no command after close");
    }

    #[test]
    fn sim_backend_runs_plans_to_completion() {
        let plans = [
            ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
                .label("af")
                .finite(15),
            ConnectionPlan::new(Profile::qtp_light())
                .label("light")
                .finite(15),
        ];
        let mut backend = SimBackend::isolated(Rate::from_mbps(10), Duration::from_millis(5), 0.0);
        let outcomes = backend.run(&plans).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].label, "af");
        for o in &outcomes {
            assert!(o.completion_s.is_some(), "{} completed", o.label);
            assert!(o.negotiated.is_some(), "{} negotiated", o.label);
            assert!(o.goodput_bps > 0.0);
        }
        assert_eq!(outcomes[0].delivered_bytes, 15 * 1000, "reliable delivery");
        // Determinism: the same backend and plans reproduce the outcomes.
        let again = backend.run(&plans).unwrap();
        assert_eq!(outcomes[0].completion_s, again[0].completion_s);
        assert_eq!(outcomes[1].goodput_bps, again[1].goodput_bps);
    }

    #[test]
    fn downgraded_connection_still_completes_under_loss() {
        // Offer Full reliability to a receiver that refuses reliability:
        // the negotiated mode is None, nothing is ever retransmitted, and
        // completion must therefore be judged by the *negotiated* mode
        // (backlog transmitted), not the offer (full delivery, which loss
        // makes unreachable).
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
            .label("downgraded")
            .finite(30)
            .policy(ServerPolicy {
                allow_reliability: false,
                ..ServerPolicy::default()
            });
        let mut backend =
            SimBackend::isolated(Rate::from_mbps(10), Duration::from_millis(10), 0.05)
                .horizon(Duration::from_secs(20));
        let o = &backend.run(std::slice::from_ref(&plan)).unwrap()[0];
        let negotiated = o.negotiated.expect("handshake completed");
        assert_eq!(negotiated.reliability, ReliabilityMode::None, "downgraded");
        assert!(
            o.completion_s.is_some(),
            "downgraded connection completes once its backlog is transmitted"
        );
        // 5% loss: with reliability refused, full delivery is (almost
        // surely) impossible — which is exactly why the offer must not be
        // the completion criterion.
        assert_eq!(o.tx.tx_retransmissions, 0);
    }

    #[test]
    fn ttl_expiry_surfaces_as_session_events() {
        // A TTL so tight on a rate so slow that some backlog must expire.
        let plan =
            ConnectionPlan::new(Profile::qtp_light_partial(Duration::from_millis(30)).unwrap())
                .app(AppModel::cbr(Rate::from_kbps(800)))
                .label("ttl");
        let mut backend =
            SimBackend::isolated(Rate::from_kbps(100), Duration::from_millis(40), 0.05)
                .horizon(Duration::from_secs(10));
        let outcomes = backend.run(std::slice::from_ref(&plan)).unwrap();
        let expired: u64 = outcomes[0]
            .tx_events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::TtlExpired { packets } => Some(*packets),
                _ => None,
            })
            .sum();
        assert!(expired > 0, "stale ADUs abandoned under TTL reliability");
        assert_eq!(expired, outcomes[0].tx.tx_abandoned);
    }

    #[test]
    fn attach_pairs_shares_nodes_between_opposite_connections() {
        // Two stream connections between the same two hosts, one in each
        // direction — each node runs a sender of one connection and the
        // receiver of the other behind a single SimHost agent. attach_pair
        // would silently overwrite one agent with the other.
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let z = b.host();
        let link = LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5));
        b.simplex_link(a, z, link.clone());
        b.simplex_link(z, a, link);
        let mut sim = b.build(11);

        let plan = |label: &str| {
            ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(2)))
                .label(label)
                .stream(StreamConfig::default())
        };
        let pairs = attach_pairs(
            &mut sim,
            &[(a, z, "east", plan("east")), (z, a, "west", plan("west"))],
        );
        let east = pattern(4096, 1);
        let west = pattern(4096, 2);
        for (h, data) in pairs.iter().zip([&east, &west]) {
            let tx = h.tx_stream.as_ref().expect("stream plan");
            tx.send(data).unwrap();
            tx.finish();
        }
        sim.run_until(SimTime::ZERO + Duration::from_secs(20));
        for (h, data) in pairs.iter().zip([&east, &west]) {
            let rx = h.rx_stream.as_ref().expect("stream plan");
            let mut got = Vec::new();
            while let Some(m) = rx.recv() {
                got.extend(m);
            }
            assert_eq!(&got, data, "byte-exact through the shared-node agents");
            assert!(rx.is_finished(), "FIN crossed the shared-node agents");
        }
    }

    fn pattern(len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i ^ salt).wrapping_mul(2654435761) >> 7) as u8)
            .collect()
    }
}
