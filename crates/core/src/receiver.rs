//! The QTP receiver endpoint — where the paper's two instances differ most.
//!
//! In **ReceiverLoss** mode (standard TFRC / QTPAF) the receiver runs the
//! full RFC 3448 machinery: per-packet loss detection, loss-event grouping,
//! loss-interval history, and the WALI computation on every feedback. In
//! **SenderLoss** mode (QTPlight) it keeps *only* a reassembly buffer and a
//! byte counter: feedback is a cumulative ack, up to four SACK blocks, the
//! echo timestamp pair and the raw receive rate. The per-packet cost gap
//! between these two paths — measured by the meters this module records
//! into its [`Tracer`]'s counters (`ops`, `data_rx`, `state_bytes_peak`)
//! — is the paper's §3 claim, reproduced as experiment E5.
//!
//! The receiver also implements the **selfish receiver** attack of Georg &
//! Gorinsky (paper §3's robustness argument): when `selfish_factor > 1`
//! and the mode is ReceiverLoss, the reported loss event rate is divided
//! by the factor and the receive rate inflated by it. In SenderLoss mode
//! there is no loss report to falsify — which is the defence.
//!
//! Like the sender, the receiver is sans-io: it implements the
//! [`Endpoint`](crate::driver::Endpoint) driver seam and emits its feedback
//! transmissions, timer re-arms and application deliveries as
//! [`Outbox`](crate::driver::Outbox) commands, so the same state machine
//! runs unchanged under the simulator (via
//! [`SimAgent`](crate::adapter::SimAgent)) or over real UDP (via
//! `qtp-io`).

use qtp_metrics::trace::{ConnState, PktKind, TraceEventKind, Tracer};
use qtp_metrics::StateSize;
use qtp_sack::{ReceiverBuffer, ReliabilityMode, MAX_SACK_BLOCKS};
use qtp_simnet::prelude::*;
use qtp_tfrc::TfrcReceiver;
use std::collections::BTreeMap;
use std::time::Duration;

use crate::caps::{CapabilitySet, FeedbackMode, ServerPolicy};
use crate::driver::{Endpoint, Outbox, TimerGens};
use crate::stream::{RecvStream, StreamConfig, StreamRx};
use crate::wire::{p_to_ppb, QtpPacket, IP_OVERHEAD};

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct QtpReceiverConfig {
    /// Negotiation policy.
    pub policy: ServerPolicy,
    /// Selfish-receiver attack factor (1.0 = honest). Under ReceiverLoss
    /// the reported `p` is divided by this and `x_recv` multiplied by it.
    pub selfish_factor: f64,
    /// Application data plane: when set, stream payloads are reassembled
    /// into messages surfaced through a [`RecvStream`].
    pub stream: Option<StreamConfig>,
}

impl Default for QtpReceiverConfig {
    fn default() -> Self {
        QtpReceiverConfig {
            policy: ServerPolicy::default(),
            selfish_factor: 1.0,
            stream: None,
        }
    }
}

/// Timer token kinds.
const TK_FB: u64 = 0;

/// State that exists once the SYN is negotiated, so no feedback path can
/// reach a loss report before the handshake.
struct Connected {
    chosen: CapabilitySet,
    /// Full RFC 3448 receiver; present exactly when the negotiated
    /// feedback mode is `ReceiverLoss`.
    tfrc: Option<TfrcReceiver>,
}

/// The QTP receiver endpoint.
pub struct QtpReceiver {
    /// Incoming data flow (goodput accounting).
    data_flow: FlowId,
    /// Flow id for outgoing feedback packets.
    fb_flow: FlowId,
    sender_node: NodeId,
    cfg: QtpReceiverConfig,
    /// `None` until the handshake.
    connected: Option<Connected>,
    /// Reassembly / SACK state (always present: it is cheap, and even
    /// ReceiverLoss+None uses it for duplicate suppression).
    buf: ReceiverBuffer,
    /// ADU submit timestamps of buffered out-of-order packets, for latency
    /// accounting once they deliver.
    pending_adu_ts: BTreeMap<u64, u64>,
    /// Payload bytes per packet (learned from the first data packet).
    payload_bytes: u32,
    /// Sender's RTT hint from the most recent data packet.
    rtt_hint: Duration,
    /// Highest sequence seen (for gap-triggered feedback).
    highest_seen: Option<u64>,
    /// Sender timestamp / local receive time of the newest data packet.
    last_pkt: Option<(SimTime, SimTime)>,
    /// Bytes received since the last feedback.
    bytes_since_fb: u64,
    /// When the current measurement round began.
    round_started: Option<SimTime>,
    /// Light-receiver bookkeeping cost (SenderLoss mode's entire load
    /// beyond the reassembly buffer's own meter).
    own_ops: u64,
    gens: TimerGens<1>,
    /// Stream data plane reassembler (message extraction + TTL drops).
    stream: Option<StreamRx>,
    /// A FIN was processed (close handshake seen from the peer).
    fin_seen: bool,
    /// Observability: typed event emission + per-connection counters.
    /// Shared with [`StreamRx`] so TTL-drop counts have one source of truth.
    tracer: Tracer,
}

impl QtpReceiver {
    pub fn new(
        data_flow: FlowId,
        fb_flow: FlowId,
        sender_node: NodeId,
        cfg: QtpReceiverConfig,
    ) -> Self {
        // Delivery mode is re-locked at negotiation time (`on_syn`).
        let tracer = Tracer::new(0);
        let stream = cfg
            .stream
            .as_ref()
            .map(|_| StreamRx::new(true, tracer.clone()));
        QtpReceiver {
            data_flow,
            fb_flow,
            sender_node,
            cfg,
            connected: None,
            buf: ReceiverBuffer::new(),
            pending_adu_ts: BTreeMap::new(),
            payload_bytes: 1000,
            rtt_hint: Duration::from_millis(100),
            highest_seen: None,
            last_pkt: None,
            bytes_since_fb: 0,
            round_started: None,
            own_ops: 0,
            gens: TimerGens::new(),
            stream,
            fin_seen: false,
            tracer,
        }
    }

    /// This endpoint's [`Tracer`] handle (clones share counters + sink).
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// App-facing handle for the stream data plane (if configured).
    pub fn recv_stream(&self) -> Option<RecvStream> {
        self.stream.as_ref().map(|s| s.handle())
    }

    /// Shared receiver-side stream state, for `Session` event polling.
    pub(crate) fn stream_shared(
        &self,
    ) -> Option<std::rc::Rc<std::cell::RefCell<crate::stream::RecvShared>>> {
        self.stream.as_ref().map(|s| s.shared())
    }

    /// True once the peer's close handshake reached this endpoint and every
    /// deliverable byte was surfaced.
    pub fn finished(&self) -> bool {
        match &self.stream {
            Some(s) => s.is_finished(),
            None => self.fin_seen,
        }
    }

    /// The negotiated profile (after the handshake).
    pub fn negotiated(&self) -> Option<CapabilitySet> {
        self.connected.as_ref().map(|c| c.chosen)
    }

    /// Packets delivered to the application so far (in-order runs plus
    /// forward-released ranges) — exposed for differential backend tests.
    pub fn delivered_packets(&self) -> u64 {
        self.buf.delivered_total()
    }

    /// Next expected in-order sequence.
    pub fn cum_ack(&self) -> u64 {
        self.buf.cum_ack()
    }

    fn arm_fb(&mut self, out: &mut Outbox, at: SimTime) {
        out.set_timer_at(at, self.gens.arm(TK_FB));
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::TimerSet {
                kind: TK_FB as u8,
                at_nanos: at.as_nanos(),
            },
        );
    }

    fn on_syn(&mut self, out: &mut Outbox, ts_nanos: u64, offered: CapabilitySet) {
        let chosen = match self.negotiated() {
            Some(chosen) => chosen,
            None => {
                let chosen = self.cfg.policy.negotiate(offered);
                let tfrc = (chosen.feedback == FeedbackMode::ReceiverLoss)
                    .then(|| TfrcReceiver::new(self.payload_bytes, self.rtt_hint));
                self.connected = Some(Connected { chosen, tfrc });
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::State(ConnState::Connected),
                );
                // Stream delivery mode follows the negotiated reliability: full
                // reliability reassembles an ordered byte stream, everything
                // else delivers one message per packet as they arrive.
                if let Some(srx) = self.stream.as_mut() {
                    srx.set_ordered(matches!(chosen.reliability, ReliabilityMode::Full));
                }
                chosen
            }
        };
        let pkt = QtpPacket::SynAck {
            ts_echo_nanos: ts_nanos,
            chosen,
        };
        self.send_control(out, pkt, PktKind::SynAck, 0);
    }

    /// Encodes and transmits a packet toward the sender, and traces it as
    /// `kind` with `seq`.
    fn send_control(&self, out: &mut Outbox, pkt: QtpPacket, kind: PktKind, seq: u64) {
        let header = pkt.encode();
        let size = header.len() as u32 + IP_OVERHEAD;
        out.send_new(self.fb_flow, self.sender_node, size, header);
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::PktSent {
                kind,
                seq,
                bytes: size,
                retx: false,
            },
        );
    }

    fn reliability(&self) -> ReliabilityMode {
        self.negotiated()
            .map(|c| c.reliability)
            .unwrap_or(ReliabilityMode::None)
    }

    fn on_data(
        &mut self,
        out: &mut Outbox,
        seq: u64,
        ts_nanos: u64,
        adu_ts_nanos: u64,
        rtt_hint_micros: u32,
        payload: u32,
    ) {
        let Some(chosen) = self.negotiated() else {
            return; // data before handshake: drop
        };
        if payload > 0 {
            self.payload_bytes = payload;
        }
        if rtt_hint_micros > 0 {
            self.rtt_hint = Duration::from_micros(rtt_hint_micros as u64);
        }
        let sender_ts = SimTime::from_nanos(ts_nanos);
        self.last_pkt = Some((sender_ts, out.now));
        self.bytes_since_fb += payload as u64;
        if self.round_started.is_none() {
            self.round_started = Some(out.now);
            // First data packet: start the feedback cadence.
            let at = out.now + self.feedback_interval();
            self.arm_fb(out, at);
        }
        self.own_ops += 3; // counter updates + hint check

        let new_gap = self.note_seen(seq);

        // Heavy path: RFC 3448 receiver machinery.
        let mut loss_event_fb = false;
        if let Some(Connected {
            tfrc: Some(tfrc), ..
        }) = &mut self.connected
        {
            let action = tfrc.on_data(out.now, seq, sender_ts, self.rtt_hint, payload);
            loss_event_fb = action.feedback_now;
        }

        // Reassembly / delivery.
        let deliver_in_order = self.reliability().retransmits();
        match self.buf.on_packet(seq) {
            qtp_sack::Arrival::Duplicate => {}
            qtp_sack::Arrival::New { delivered } => {
                if deliver_in_order {
                    if delivered > 0 {
                        // This packet plus any buffered run became deliverable.
                        out.app_deliver(self.data_flow, delivered * self.payload_bytes as u64);
                        // This packet, then the buffered ones that just flushed.
                        self.record_latency(out.now, adu_ts_nanos);
                        self.record_flushed_latency(out.now);
                    } else {
                        self.pending_adu_ts.insert(seq, adu_ts_nanos);
                    }
                } else {
                    // Unordered delivery: hand every new packet up at once.
                    out.app_deliver(self.data_flow, self.payload_bytes as u64);
                    self.record_latency(out.now, adu_ts_nanos);
                }
            }
        }

        // Immediate feedback on new loss evidence.
        let immediate = loss_event_fb || (chosen.feedback == FeedbackMode::SenderLoss && new_gap);
        if immediate {
            self.send_feedback(out);
        }
        self.record_costs();
    }

    /// Record `seq` as seen; whether it opens a new gap above the highest
    /// sequence seen so far (drives immediate feedback in QTPlight mode).
    fn note_seen(&mut self, seq: u64) -> bool {
        let new_gap = self.highest_seen.is_some_and(|h| seq.saturating_sub(h) > 1);
        self.highest_seen = Some(self.highest_seen.map_or(seq, |h| h.max(seq)));
        new_gap
    }

    /// Stream-mode data path: explicit payload bytes, receiver-side TTL
    /// enforcement, and message reassembly via [`StreamRx`].
    #[allow(clippy::too_many_arguments)]
    fn on_stream_data(
        &mut self,
        out: &mut Outbox,
        seq: u64,
        ts_nanos: u64,
        adu_ts_nanos: u64,
        rtt_hint_micros: u32,
        is_retx: bool,
        ttl_micros: u32,
        payload: Vec<u8>,
    ) {
        let Some(chosen) = self.negotiated() else {
            return; // data before handshake: drop
        };
        if rtt_hint_micros > 0 {
            self.rtt_hint = Duration::from_micros(rtt_hint_micros as u64);
        }
        let sender_ts = SimTime::from_nanos(ts_nanos);
        self.last_pkt = Some((sender_ts, out.now));
        self.bytes_since_fb += payload.len() as u64;
        if self.round_started.is_none() {
            self.round_started = Some(out.now);
            let at = out.now + self.feedback_interval();
            self.arm_fb(out, at);
        }
        self.own_ops += 3;

        let new_gap = self.note_seen(seq);

        let mut loss_event_fb = false;
        if let Some(Connected {
            tfrc: Some(tfrc), ..
        }) = &mut self.connected
        {
            let action = tfrc.on_data(out.now, seq, sender_ts, self.rtt_hint, payload.len() as u32);
            loss_event_fb = action.feedback_now;
        }

        // Receiver-side TTL enforcement: both timestamps are sender-clock,
        // so the age of this copy is backend-independent. Originals have
        // age 0 — only retransmissions can expire.
        let ttl_eff_micros = if ttl_micros > 0 {
            ttl_micros as u64
        } else {
            match chosen.reliability {
                ReliabilityMode::PartialTtl(ttl) => ttl.as_micros() as u64,
                _ => u64::MAX,
            }
        };
        let age_micros = ts_nanos.saturating_sub(adu_ts_nanos) / 1_000;
        let expired = is_retx && ttl_eff_micros != u64::MAX && age_micros > ttl_eff_micros;

        if expired {
            if matches!(self.buf.on_expired(seq), qtp_sack::Arrival::New { .. }) {
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::PktDropped {
                        seq,
                        age_us: age_micros,
                    },
                );
            }
        } else {
            match self.buf.on_packet(seq) {
                qtp_sack::Arrival::Duplicate => {}
                qtp_sack::Arrival::New { .. } => {
                    out.app_deliver(self.data_flow, payload.len() as u64);
                    self.record_latency(out.now, adu_ts_nanos);
                    if let Some(srx) = self.stream.as_mut() {
                        srx.on_payload(seq, payload);
                    }
                }
            }
        }
        self.buf.settle_expired();
        if let Some(srx) = self.stream.as_mut() {
            srx.drain(self.buf.cum_ack());
        }

        let immediate = loss_event_fb || (chosen.feedback == FeedbackMode::SenderLoss && new_gap);
        if immediate {
            self.send_feedback(out);
        }
        self.record_costs();
    }

    /// Close handshake: always acknowledge a FIN (the sender retries until
    /// acked), then surface the finish once all deliverable data is in.
    fn on_fin(&mut self, out: &mut Outbox, final_seq: u64) {
        let pkt = QtpPacket::FinAck { final_seq };
        self.send_control(out, pkt, PktKind::FinAck, final_seq);
        if !self.fin_seen {
            self.fin_seen = true;
            self.own_ops += 1;
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::State(ConnState::Closed));
        }
        let ordered = self.stream.as_ref().map(|s| s.ordered()).unwrap_or(false);
        if !ordered && self.buf.cum_ack() < final_seq {
            // Non-retransmitting delivery: nothing below final_seq is coming
            // again — move past the holes like a sender FWD would.
            self.on_forward(out, final_seq);
        }
        self.buf.settle_expired();
        if let Some(srx) = self.stream.as_mut() {
            srx.on_fin(final_seq, self.buf.cum_ack());
            srx.drain(self.buf.cum_ack());
        }
    }

    /// One processed data packet: record the running cost and peak state.
    fn record_costs(&mut self) {
        let (tfrc_ops, tfrc_state) = match &self.connected {
            Some(Connected { tfrc: Some(t), .. }) => (t.total_ops(), t.state_bytes()),
            _ => (0, 0),
        };
        let ops = tfrc_ops + self.buf.meter.total() + self.own_ops;
        let state = (tfrc_state + self.buf.state_bytes()) as u64;
        self.tracer.record(|c| {
            c.data_rx += 1;
            c.ops = ops;
            c.state_bytes_peak = c.state_bytes_peak.max(state);
        });
    }

    /// One delivery's ADU-submit-to-delivery latency.
    fn record_latency(&self, now: SimTime, adu_ts_nanos: u64) {
        let lat = now.as_nanos().saturating_sub(adu_ts_nanos);
        self.tracer.record(|c| {
            c.latency_sum_ns += lat;
            c.latency_samples += 1;
        });
    }

    /// Latencies of the buffered packets an advancing cumulative ack just
    /// released to the application.
    fn record_flushed_latency(&mut self, now: SimTime) {
        let rest = self.pending_adu_ts.split_off(&self.buf.cum_ack());
        let flushed = std::mem::replace(&mut self.pending_adu_ts, rest);
        for ts in flushed.into_values() {
            self.record_latency(now, ts);
        }
    }

    fn feedback_interval(&self) -> Duration {
        self.rtt_hint.max(Duration::from_millis(10))
    }

    /// Receive rate over the current round, bytes/second.
    fn x_recv(&self, now: SimTime) -> f64 {
        match self.round_started {
            Some(start) => {
                let dt = now.saturating_since(start).as_secs_f64();
                if dt <= 0.0 {
                    0.0
                } else {
                    self.bytes_since_fb as f64 / dt
                }
            }
            None => 0.0,
        }
    }

    fn send_feedback(&mut self, out: &mut Outbox) {
        let Some((last_ts, last_rx_time)) = self.last_pkt else {
            return; // nothing received yet
        };
        let x_recv_honest = self.x_recv(out.now);
        let t_delay = out.now.saturating_since(last_rx_time);
        let selfish = self.cfg.selfish_factor.max(1.0);

        let Some(Connected { chosen, tfrc }) = &mut self.connected else {
            return;
        };
        let chosen = *chosen;
        // ReceiverLoss reports the RFC 3448 loss event rate; SenderLoss has
        // no loss report to send (or falsify).
        let p_ppb = tfrc.as_mut().map(|tfrc| {
            // Building the report also rolls the x_recv round inside the
            // TFRC receiver; we use our own counter for the wire value so
            // both modes measure identically.
            let fb = tfrc.build_feedback(out.now);
            let p_honest = fb.map(|f| f.p).unwrap_or(0.0);
            p_to_ppb(p_honest / selfish)
        });
        let x_recv = x_recv_honest * selfish;
        self.own_ops += 2;

        // SACK blocks only when someone consumes them (reliability at the
        // sender, or sender-side loss estimation).
        let blocks =
            if self.reliability().retransmits() || chosen.feedback == FeedbackMode::SenderLoss {
                self.buf.sack_blocks(MAX_SACK_BLOCKS)
            } else {
                Vec::new()
            };

        let cum_ack = self.buf.cum_ack();
        let pkt = QtpPacket::Feedback {
            ts_echo_nanos: last_ts.as_nanos(),
            t_delay_micros: t_delay.as_micros() as u32,
            x_recv: x_recv as u64,
            p_ppb,
            cum_ack,
            blocks,
        };
        self.send_control(out, pkt, PktKind::Feedback, cum_ack);
        self.bytes_since_fb = 0;
        self.round_started = Some(out.now);
    }

    fn on_forward(&mut self, out: &mut Outbox, new_cum: u64) {
        let before_delivered = self.buf.delivered_total();
        self.buf.on_forward(new_cum);
        // Buffered packets released by the jump count as delivered.
        let released = self.buf.delivered_total() - before_delivered;
        // Stream mode accounts delivery per arrival; releasing buffered
        // runs here would double-count.
        if released > 0 && self.reliability().retransmits() && self.stream.is_none() {
            out.app_deliver(self.data_flow, released * self.payload_bytes as u64);
            self.record_flushed_latency(out.now);
        }
        self.own_ops += 2;
    }
}

impl Endpoint for QtpReceiver {
    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        let header_len = header.len() as u32;
        let Ok(decoded) = QtpPacket::decode(header) else {
            return;
        };
        let now_nanos = out.now.as_nanos();
        // Sequence sets store half-open ranges, so a data sequence with no
        // successor cannot be represented: drop it before it touches any
        // state. Honest senders never get there.
        if let QtpPacket::Data { seq: u64::MAX, .. } | QtpPacket::StreamData { seq: u64::MAX, .. } =
            decoded
        {
            self.tracer.emit(now_nanos, TraceEventKind::SoftError);
            return;
        }
        match decoded {
            QtpPacket::Syn { ts_nanos, offered } => {
                self.tracer.emit(
                    now_nanos,
                    TraceEventKind::PktRecvd {
                        kind: PktKind::Syn,
                        seq: 0,
                        bytes: wire_size,
                    },
                );
                self.on_syn(out, ts_nanos, offered)
            }
            QtpPacket::Data {
                seq,
                ts_nanos,
                adu_ts_nanos,
                rtt_hint_micros,
                ..
            } => {
                self.tracer.emit(
                    now_nanos,
                    TraceEventKind::PktRecvd {
                        kind: PktKind::Data,
                        seq,
                        bytes: wire_size,
                    },
                );
                let payload = wire_size.saturating_sub(header_len + IP_OVERHEAD);
                self.on_data(out, seq, ts_nanos, adu_ts_nanos, rtt_hint_micros, payload);
            }
            QtpPacket::Forward { new_cum } => {
                self.tracer.emit(
                    now_nanos,
                    TraceEventKind::PktRecvd {
                        kind: PktKind::Forward,
                        seq: new_cum,
                        bytes: wire_size,
                    },
                );
                self.on_forward(out, new_cum);
                self.buf.settle_expired();
                if let Some(srx) = self.stream.as_mut() {
                    srx.drain(self.buf.cum_ack());
                }
            }
            QtpPacket::StreamData {
                seq,
                ts_nanos,
                adu_ts_nanos,
                rtt_hint_micros,
                is_retx,
                ttl_micros,
                payload,
            } => {
                self.tracer.emit(
                    now_nanos,
                    TraceEventKind::PktRecvd {
                        kind: PktKind::Data,
                        seq,
                        bytes: wire_size,
                    },
                );
                self.on_stream_data(
                    out,
                    seq,
                    ts_nanos,
                    adu_ts_nanos,
                    rtt_hint_micros,
                    is_retx,
                    ttl_micros,
                    payload,
                )
            }
            QtpPacket::Fin { final_seq } => {
                self.tracer.emit(
                    now_nanos,
                    TraceEventKind::PktRecvd {
                        kind: PktKind::Fin,
                        seq: final_seq,
                        bytes: wire_size,
                    },
                );
                self.on_fin(out, final_seq)
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        if self.gens.live(token).is_none() {
            self.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::TimerCancelled {
                    kind: (token & 3) as u8,
                },
            );
            return;
        }
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::TimerFired { kind: TK_FB as u8 },
        );
        // Periodic feedback: send only if data arrived this round.
        if self.bytes_since_fb > 0 {
            self.send_feedback(out);
        }
        let at = out.now + self.feedback_interval();
        self.arm_fb(out, at);
    }
}
