//! The QTP sender endpoint: the composed transport (paper §1's "versatile
//! transport protocol" on the sending side).
//!
//! One state machine hosts every negotiated composition:
//!
//! * **congestion control** — the negotiated
//!   [`CongestionControl`](qtp_cc::CongestionControl) controller (TFRC,
//!   gTFRC, fixed rate, CUBIC, or BBR-lite — see
//!   [`controller_for`](crate::cc::controller_for)) paces transmissions;
//! * **reliability** — a [`Scoreboard`] + [`ReliabilityPolicy`] decide
//!   which declared losses to retransmit and which to abandon (emitting
//!   `FWD` to move the receiver past them);
//! * **feedback** — in `ReceiverLoss` mode the loss event rate comes from
//!   the feedback packet; in `SenderLoss` (QTPlight) mode it comes from
//!   the local [`SenderLossEstimator`] fed by SACK declarations.
//!
//! The endpoint is sans-io: it implements the transport-neutral
//! [`Endpoint`](crate::driver::Endpoint) seam, reacting to datagrams and
//! timers and emitting transmit/timer commands into an
//! [`Outbox`](crate::driver::Outbox). Drivers decide what those commands
//! mean — [`SimAgent`](crate::adapter::SimAgent) replays them into the
//! discrete-event simulator, `qtp-io`'s `MuxDriver` onto a real UDP socket.
//!
//! [`ReliabilityPolicy`]: qtp_sack::ReliabilityPolicy

use qtp_metrics::trace::{ConnState, PktKind, TraceEventKind, Tracer};
use qtp_sack::{ReliabilityMode, Scoreboard, SeqRange};
use qtp_simnet::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

use qtp_cc::{CcState, CongestionControl, FeedbackReport};

use crate::caps::{CapabilitySet, FeedbackMode};
use crate::cc::controller_for;
use crate::driver::{Endpoint, Outbox, TimerGens};
use crate::estimator::SenderLossEstimator;
use crate::stream::{SendStream, StreamConfig, StreamTx};
use crate::wire::{ppb_to_p, QtpPacket, IP_OVERHEAD, MAX_STREAM_PAYLOAD};

/// What the application on top of the sender does.
#[derive(Debug, Clone)]
pub enum AppModel {
    /// Infinite backlog (bulk transfer / greedy source).
    Greedy,
    /// Send exactly this many packets, then stop (but keep retransmitting
    /// until acknowledged under reliable modes).
    Finite { packets: u64 },
    /// Application-limited media source: ADUs of `adu_packets` packets
    /// generated at `rate`; stale ADUs may be dropped at the sender under
    /// TTL reliability before ever being transmitted.
    Cbr { rate: Rate, adu_packets: u32 },
}

impl AppModel {
    /// A media-like source: `rate` worth of 1-packet ADUs.
    pub fn cbr(rate: Rate) -> AppModel {
        AppModel::Cbr {
            rate,
            adu_packets: 1,
        }
    }
}

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct QtpSenderConfig {
    /// Profile to offer in the handshake.
    pub offered: CapabilitySet,
    /// Payload bytes per data packet.
    pub s: u32,
    /// Application model.
    pub app: AppModel,
    /// **D1 ablation** (experiments only): disable RTT-window loss-event
    /// grouping in the sender-side estimator, so every lost packet counts
    /// as its own loss event.
    pub ablate_ungrouped_losses: bool,
    /// Application data plane: when set, traffic comes from a
    /// [`SendStream`] instead of the synthetic [`AppModel`].
    pub stream: Option<StreamConfig>,
}

impl QtpSenderConfig {
    pub fn new(offered: CapabilitySet) -> Self {
        QtpSenderConfig {
            offered,
            s: 1000,
            app: AppModel::Greedy,
            ablate_ungrouped_losses: false,
            stream: None,
        }
    }
}

/// Timer token kinds (low 2 bits of the token; the rest is a generation —
/// see [`TimerGens`]).
const TK_SYN: u64 = 0;
const TK_PACE: u64 = 1;
const TK_NOFB: u64 = 2;
const TK_APP: u64 = 3;

/// Handshake state. The negotiated profile and the machinery it selects
/// exist only once running, so no code path can reach a controller
/// before the SYNACK.
enum State {
    AwaitSynAck,
    Running {
        chosen: CapabilitySet,
        cc: Box<dyn CongestionControl>,
        /// Sender-side loss estimation; present exactly when the
        /// negotiated feedback mode is `SenderLoss` (QTPlight).
        estimator: Option<SenderLossEstimator>,
    },
}

/// The QTP sender endpoint.
pub struct QtpSender {
    flow: FlowId,
    receiver_node: NodeId,
    cfg: QtpSenderConfig,
    state: State,
    /// Last controller phase code surfaced in the trace (BBR-lite), so
    /// transitions emit exactly one `CcPhaseChange`.
    last_cc_phase: Option<u8>,
    sb: Scoreboard,
    policy: qtp_sack::ReliabilityPolicy,
    /// Pending application packets: submission time of each not-yet-sent
    /// packet (only bounded for the Cbr model).
    backlog: std::collections::VecDeque<SimTime>,
    /// Packets handed to the network as *new* data so far.
    sent_new: u64,
    /// ADU submission time per sequence (for retransmission headers and
    /// latency measurement); pruned as the cumulative ack advances.
    adu_ts: BTreeMap<u64, SimTime>,
    /// Timer generations per token kind.
    gens: TimerGens<4>,
    /// Last time a FWD was emitted (rate-limited to once per RTT).
    last_fwd: SimTime,
    /// Latest receive-rate report (for estimator synthesis).
    last_x_recv: f64,
    /// Stream data plane (replaces `cfg.app` as the traffic source).
    stream: Option<StreamTx>,
    /// Sent stream chunks retained for retransmission; pruned as the
    /// cumulative ack advances and on abandonment.
    chunks: BTreeMap<u64, StreamChunk>,
    /// `Session::close` requested a graceful shutdown.
    close_requested: bool,
    /// When the last FIN copy went out (None = not yet sent).
    fin_sent_at: Option<SimTime>,
    fin_retries: u32,
    fin_acked: bool,
    /// Terminal: close handshake finished (or given up on); timers are no
    /// longer re-armed so driver timer state drains naturally.
    closed: bool,
    /// Observability: typed event emission + per-connection counters.
    tracer: Tracer,
}

/// A sent stream chunk retained for retransmission.
struct StreamChunk {
    bytes: Vec<u8>,
    adu_ts: SimTime,
    ttl_micros: u32,
}

/// FIN retransmission attempts before closing unilaterally.
const FIN_MAX_RETRIES: u32 = 8;

impl QtpSender {
    pub fn new(flow: FlowId, receiver_node: NodeId, cfg: QtpSenderConfig) -> Self {
        let policy = qtp_sack::ReliabilityPolicy::new(cfg.offered.reliability);
        let chunked = matches!(cfg.offered.reliability, ReliabilityMode::Full);
        let stream = cfg.stream.as_ref().map(|sc| StreamTx::new(sc, chunked));
        QtpSender {
            flow,
            receiver_node,
            cfg,
            state: State::AwaitSynAck,
            last_cc_phase: None,
            sb: Scoreboard::new(),
            policy,
            backlog: std::collections::VecDeque::new(),
            sent_new: 0,
            adu_ts: BTreeMap::new(),
            gens: TimerGens::new(),
            last_fwd: SimTime::ZERO,
            last_x_recv: 0.0,
            stream,
            chunks: BTreeMap::new(),
            close_requested: false,
            fin_sent_at: None,
            fin_retries: 0,
            fin_acked: false,
            closed: false,
            tracer: Tracer::new(0),
        }
    }

    /// This endpoint's [`Tracer`] handle (clones share counters + sink).
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// App-facing handle for the stream data plane (if configured).
    pub fn send_stream(&self) -> Option<SendStream> {
        self.stream.as_ref().map(|s| s.handle())
    }

    /// Shared sender-side stream state, for `Session` event polling.
    pub(crate) fn stream_shared(
        &self,
    ) -> Option<std::rc::Rc<std::cell::RefCell<crate::stream::SendShared>>> {
        self.stream.as_ref().map(|s| s.shared())
    }

    /// Starts a graceful shutdown: stop accepting new data, drain, then run
    /// the FIN / FIN-ACK handshake from the pace timer.
    pub fn begin_close(&mut self) {
        self.close_requested = true;
        if let Some(s) = &self.stream {
            s.handle().finish();
        }
        if matches!(self.state, State::AwaitSynAck) {
            // Nothing on the wire yet: close locally.
            self.closed = true;
        }
    }

    /// True once the wire-level close handshake completed (FIN acknowledged
    /// or retries exhausted).
    pub fn close_complete(&self) -> bool {
        self.closed
    }

    /// The negotiated profile (once the handshake completed).
    pub fn negotiated(&self) -> Option<CapabilitySet> {
        match &self.state {
            State::Running { chosen, .. } => Some(*chosen),
            State::AwaitSynAck => None,
        }
    }

    /// The negotiated controller (once running).
    fn cc(&self) -> Option<&dyn CongestionControl> {
        match &self.state {
            State::Running { cc, .. } => Some(cc.as_ref()),
            State::AwaitSynAck => None,
        }
    }

    /// The controller's smoothed RTT, if it has one yet.
    fn rtt(&self) -> Option<Duration> {
        self.cc().and_then(|cc| cc.rtt())
    }

    /// Whether the negotiated reliability class retransmits (false
    /// before the handshake).
    fn retransmits(&self) -> bool {
        self.negotiated()
            .map(|c| c.reliability.retransmits())
            .unwrap_or(false)
    }

    /// Whether every packet handed to the network has been acknowledged
    /// (loop-termination signal for real-I/O drivers).
    pub fn all_acked(&self) -> bool {
        self.sb.all_acked()
    }

    /// New (never-retransmitted) packets handed to the network so far.
    pub fn sent_new(&self) -> u64 {
        self.sent_new
    }

    // ---- timers -------------------------------------------------------

    fn arm(&mut self, out: &mut Outbox, kind: u64, at: SimTime) {
        out.set_timer_at(at, self.gens.arm(kind));
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::TimerSet {
                kind: kind as u8,
                at_nanos: at.as_nanos(),
            },
        );
    }

    /// Encodes and transmits a payload-free control packet, and traces it
    /// as `kind` with `seq`.
    fn send_control(&self, out: &mut Outbox, pkt: QtpPacket, kind: PktKind, seq: u64) {
        let header = pkt.encode();
        let size = header.len() as u32 + IP_OVERHEAD;
        out.send_new(self.flow, self.receiver_node, size, header);
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

    // ---- handshake ----------------------------------------------------

    fn send_syn(&mut self, out: &mut Outbox) {
        let pkt = QtpPacket::Syn {
            ts_nanos: out.now.as_nanos(),
            offered: self.cfg.offered,
        };
        self.send_control(out, pkt, PktKind::Syn, 0);
        self.arm(out, TK_SYN, out.now + Duration::from_secs(1));
    }

    fn on_synack(&mut self, out: &mut Outbox, ts_echo_nanos: u64, chosen: CapabilitySet) {
        if matches!(self.state, State::Running { .. }) {
            return; // duplicate SYNACK
        }
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::State(ConnState::Connected),
        );
        let rtt = out
            .now
            .saturating_since(SimTime::from_nanos(ts_echo_nanos))
            .max(Duration::from_micros(100));
        let mut cc = controller_for(chosen.cc, self.cfg.s);
        cc.seed_rtt(out.now, rtt);
        let nofb = cc.nofeedback_deadline();
        self.policy = qtp_sack::ReliabilityPolicy::new(chosen.reliability);
        let estimator = (chosen.feedback == FeedbackMode::SenderLoss).then(|| {
            let mut est = SenderLossEstimator::new(self.cfg.s);
            est.set_grouping(!self.cfg.ablate_ungrouped_losses);
            est
        });
        self.state = State::Running {
            chosen,
            cc,
            estimator,
        };
        // Negotiation may have changed the reliability class; re-lock the
        // stream framing mode before any stream data goes out.
        if let Some(s) = &self.stream {
            s.set_chunked(matches!(chosen.reliability, ReliabilityMode::Full));
        }
        // Kick off app generation (Cbr) and pacing.
        if let AppModel::Cbr { .. } = self.cfg.app {
            self.arm(out, TK_APP, out.now);
        }
        self.arm(out, TK_PACE, out.now);
        self.arm(out, TK_NOFB, nofb);
    }

    // ---- application --------------------------------------------------

    /// Is a new (never-sent) packet available right now?
    fn app_has_data(&self) -> bool {
        if let Some(s) = &self.stream {
            return s.has_data();
        }
        if self.close_requested {
            return false;
        }
        match self.cfg.app {
            AppModel::Greedy => true,
            AppModel::Finite { packets } => self.sent_new < packets,
            AppModel::Cbr { .. } => !self.backlog.is_empty(),
        }
    }

    /// Submission time of the next new packet.
    fn next_submit_ts(&mut self, now: SimTime) -> SimTime {
        match self.cfg.app {
            AppModel::Cbr { .. } => self.backlog.pop_front().unwrap_or(now),
            _ => now,
        }
    }

    fn on_app_tick(&mut self, out: &mut Outbox) {
        if self.closed {
            return;
        }
        let AppModel::Cbr { rate, adu_packets } = self.cfg.app else {
            return;
        };
        for _ in 0..adu_packets {
            self.backlog.push_back(out.now);
        }
        let interval = Duration::from_secs_f64(
            adu_packets as f64 * self.cfg.s as f64 * 8.0 / rate.bps() as f64,
        );
        self.arm(out, TK_APP, out.now + interval);
    }

    /// Sender-side staleness drop (TTL reliability, Cbr model): stale ADUs
    /// are discarded before ever being transmitted.
    fn drop_stale_backlog(&mut self, now: SimTime) {
        if let Some(ReliabilityMode::PartialTtl(ttl)) = self.negotiated().map(|c| c.reliability) {
            while let Some(&submit) = self.backlog.front() {
                if now.saturating_since(submit) >= ttl {
                    self.backlog.pop_front();
                    self.tracer
                        .emit(now.as_nanos(), TraceEventKind::PktExpired { seq: 0 });
                } else {
                    break;
                }
            }
        }
    }

    // ---- transmission -------------------------------------------------

    fn data_wire_size(&self, header_len: usize) -> u32 {
        self.cfg.s + header_len as u32 + IP_OVERHEAD
    }

    fn send_data(&mut self, out: &mut Outbox, seq: u64, adu_ts: SimTime, is_retx: bool) {
        let rtt_hint_micros = self.rtt().map(|r| r.as_micros() as u32).unwrap_or(0);
        let pkt = QtpPacket::Data {
            seq,
            ts_nanos: out.now.as_nanos(),
            adu_ts_nanos: adu_ts.as_nanos(),
            rtt_hint_micros,
            is_retx,
        };
        let header = pkt.encode();
        let size = self.data_wire_size(header.len());
        out.send_new(self.flow, self.receiver_node, size, header);
        if let State::Running { cc, .. } = &mut self.state {
            cc.on_send(out.now, size);
        }
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::PktSent {
                kind: PktKind::Data,
                seq,
                bytes: size,
                retx: is_retx,
            },
        );
    }

    /// Transmits `chunk`. Its bytes ride in the packet for the encode and
    /// are handed back afterwards, so no copy is made for retention.
    fn send_stream_data(
        &mut self,
        out: &mut Outbox,
        seq: u64,
        chunk: &mut StreamChunk,
        is_retx: bool,
    ) {
        let rtt_hint_micros = self.rtt().map(|r| r.as_micros() as u32).unwrap_or(0);
        let pkt = QtpPacket::StreamData {
            seq,
            ts_nanos: out.now.as_nanos(),
            adu_ts_nanos: chunk.adu_ts.as_nanos(),
            rtt_hint_micros,
            is_retx,
            ttl_micros: chunk.ttl_micros,
            payload: std::mem::take(&mut chunk.bytes),
        };
        let header = pkt.encode();
        if let QtpPacket::StreamData { payload, .. } = pkt {
            chunk.bytes = payload;
        }
        // The payload rides inside the header bytes; only IP overhead on top.
        let size = header.len() as u32 + IP_OVERHEAD;
        out.send_new(self.flow, self.receiver_node, size, header);
        if let State::Running { cc, .. } = &mut self.state {
            cc.on_send(out.now, size);
        }
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::PktSent {
                kind: PktKind::Data,
                seq,
                bytes: size,
                retx: is_retx,
            },
        );
    }

    /// Stream-mode transmission: retransmit retained chunks first, then
    /// packetise new bytes from the send buffer.
    fn send_one_stream(&mut self, out: &mut Outbox) {
        while let Some(seq) = self.sb.next_lost() {
            let retx_count = self.sb.retx_count(seq);
            let decision = self.policy.on_loss(seq, out.now, retx_count);
            if decision == qtp_sack::LossDecision::Retransmit {
                if let Some(mut chunk) = self.chunks.remove(&seq) {
                    self.sb.register_retransmit(seq, out.now);
                    self.send_stream_data(out, seq, &mut chunk, true);
                    self.chunks.insert(seq, chunk);
                    return;
                }
            }
            self.sb.abandon(seq);
            self.chunks.remove(&seq);
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::PktExpired { seq });
        }
        let max = (self.cfg.s as usize).min(MAX_STREAM_PAYLOAD);
        let Some((bytes, ttl_micros)) = self.stream.as_mut().and_then(|s| s.next_chunk(max)) else {
            return;
        };
        let seq = self.sb.register_send(out.now);
        self.sent_new += 1;
        let reliability = self.negotiated().map(|c| c.reliability);
        if matches!(reliability, Some(ReliabilityMode::PartialTtl(_))) {
            self.policy
                .register_adu(SeqRange::new(seq, seq + 1), out.now);
        }
        let mut chunk = StreamChunk {
            bytes,
            adu_ts: out.now,
            ttl_micros,
        };
        self.send_stream_data(out, seq, &mut chunk, false);
        if reliability.map(|r| r.retransmits()).unwrap_or(false) {
            self.chunks.insert(seq, chunk);
        }
    }

    /// Transmit one packet if anything is eligible: retransmissions first
    /// (policy permitting), then new data.
    fn send_one(&mut self, out: &mut Outbox) {
        if self.stream.is_some() {
            self.send_one_stream(out);
            return;
        }
        self.drop_stale_backlog(out.now);
        // Retransmissions have priority under reliable modes.
        while let Some(seq) = self.sb.next_lost() {
            let retx_count = self.sb.retx_count(seq);
            let decision = self.policy.on_loss(seq, out.now, retx_count);
            if decision == qtp_sack::LossDecision::Retransmit {
                let adu_ts = self.adu_ts.get(&seq).copied().unwrap_or(out.now);
                self.sb.register_retransmit(seq, out.now);
                self.send_data(out, seq, adu_ts, true);
                return;
            }
            // Abandoned: drop from the retransmission queue and keep going.
            self.sb.abandon(seq);
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::PktExpired { seq });
        }
        if self.app_has_data() {
            let submit = self.next_submit_ts(out.now);
            let seq = self.sb.register_send(out.now);
            self.sent_new += 1;
            let reliability = self.negotiated().map(|c| c.reliability);
            if matches!(reliability, Some(ReliabilityMode::PartialTtl(_))) {
                self.policy
                    .register_adu(SeqRange::new(seq, seq + 1), submit);
            }
            if reliability.map(|r| r.retransmits()).unwrap_or(false) {
                self.adu_ts.insert(seq, submit);
            }
            self.send_data(out, seq, submit, false);
        }
    }

    /// Emit a FWD if the policy abandoned data the receiver is waiting for.
    fn maybe_send_forward(&mut self, out: &mut Outbox) {
        let Some(fp) = self.policy.forward_point(self.sb.cum_ack()) else {
            return;
        };
        let rtt = self.rtt().unwrap_or(Duration::from_millis(100));
        if out.now.saturating_since(self.last_fwd) < rtt {
            return;
        }
        self.last_fwd = out.now;
        let pkt = QtpPacket::Forward { new_cum: fp };
        self.send_control(out, pkt, PktKind::Forward, fp);
    }

    fn on_pace(&mut self, out: &mut Outbox) {
        let Some(cwnd_limit) = self.cc().map(|cc| cc.cwnd_limit()) else {
            return; // not yet negotiated
        };
        if self.closed {
            return; // closed: let the timer lapse without re-arming
        }
        self.check_tail_loss(out.now);
        // Window-based controllers bound unacknowledged bytes in flight;
        // when the window is full the pace timer keeps ticking but no
        // packet leaves. Rate-based controllers return no limit, so their
        // scheduling is untouched.
        let window_open = match cwnd_limit {
            Some(limit) => self.sb.in_flight() * u64::from(self.cfg.s) < limit,
            None => true,
        };
        if window_open {
            self.send_one(out);
        }
        self.maybe_send_forward(out);
        self.maybe_send_fin(out);
        if self.closed {
            return;
        }
        let Some(interval) = self.cc().map(|cc| cc.send_interval()) else {
            return;
        };
        // Clamp pathological intervals so the event loop stays healthy.
        let interval = interval.clamp(Duration::from_micros(10), Duration::from_secs(2));
        self.arm(out, TK_PACE, out.now + interval);
    }

    // ---- wire-level close ---------------------------------------------

    /// Drained and ready to FIN: close was requested (via `Session::close`
    /// or `SendStream::finish`), every byte has been packetised, and — under
    /// retransmitting modes — every packet acknowledged or abandoned.
    fn fin_ready(&self) -> bool {
        let requested =
            self.close_requested || self.stream.as_ref().map(|s| s.fin_ready()).unwrap_or(false);
        if !requested {
            return false;
        }
        if self.app_has_data() || self.sb.next_lost().is_some() {
            return false;
        }
        !self.retransmits() || self.sb.all_acked()
    }

    /// (Re)send FIN from the pace cadence with an RTO-style backoff; after
    /// [`FIN_MAX_RETRIES`] unanswered copies, close unilaterally.
    fn maybe_send_fin(&mut self, out: &mut Outbox) {
        if self.fin_acked || self.closed || !self.fin_ready() {
            return;
        }
        let rtt = self.rtt().unwrap_or(Duration::from_millis(100));
        let rto = (rtt * 2).max(Duration::from_millis(50));
        let due = match self.fin_sent_at {
            None => true,
            Some(t) => out.now.saturating_since(t) >= rto,
        };
        if !due {
            return;
        }
        if self.fin_retries >= FIN_MAX_RETRIES {
            self.closed = true;
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::State(ConnState::Closed));
            return;
        }
        self.fin_retries += 1;
        self.fin_sent_at = Some(out.now);
        let final_seq = self.sb.next_seq();
        let pkt = QtpPacket::Fin { final_seq };
        self.send_control(out, pkt, PktKind::Fin, final_seq);
    }

    fn on_finack(&mut self, now_nanos: u64) {
        if self.fin_sent_at.is_some() {
            self.fin_acked = true;
            self.closed = true;
            self.tracer
                .emit(now_nanos, TraceEventKind::State(ConnState::Closed));
        }
    }

    /// Tail-loss fallback: if the oldest outstanding packet has seen no
    /// progress for several RTTs, presume everything unsacked lost so the
    /// reliability machinery can act (SACK cannot report tail losses).
    fn check_tail_loss(&mut self, now: SimTime) {
        if !self.retransmits() || self.sb.all_acked() {
            return;
        }
        let rtt = self.rtt().unwrap_or(Duration::from_millis(100));
        let timeout = (rtt * 4).max(Duration::from_millis(500));
        if let Some(oldest) = self.sb.oldest_outstanding_send_time() {
            if now.saturating_since(oldest) > timeout {
                let range = SeqRange::new(self.sb.cum_ack(), self.sb.next_seq());
                let _ = self.sb.force_mark_lost(range);
            }
        }
    }

    // ---- feedback -----------------------------------------------------

    fn on_feedback_pkt(&mut self, out: &mut Outbox, fb: FeedbackFields<'_>) {
        let FeedbackFields {
            ts_echo_nanos,
            t_delay_micros,
            x_recv,
            p_ppb,
            cum_ack,
            blocks,
        } = fb;
        if self.closed {
            return;
        }
        let State::Running {
            chosen,
            cc,
            estimator,
        } = &mut self.state
        else {
            return;
        };
        let prev_cum = self.sb.cum_ack();
        let digest = self.sb.on_feedback(cum_ack, blocks);
        if self.sb.cum_ack() > prev_cum {
            self.policy.prune(self.sb.cum_ack());
            self.adu_ts = self.adu_ts.split_off(&self.sb.cum_ack());
            self.chunks = self.chunks.split_off(&self.sb.cum_ack());
        }
        self.last_x_recv = x_recv as f64;

        // Reliability: route newly-declared losses through the policy.
        if !digest.newly_lost.is_empty() {
            self.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::LossEvent {
                    pkts: digest.newly_lost.len() as u32,
                },
            );
            if !chosen.reliability.retransmits() {
                // Nothing will be retransmitted: abandon immediately so the
                // receiver can be moved past the holes.
                for &(seq, _) in &digest.newly_lost {
                    let _ = self.policy.on_loss(seq, out.now, 0);
                    self.sb.abandon(seq);
                }
            }
        }

        // The composition seam: where does p come from? The receiver's
        // report (ReceiverLoss), or the local estimator (SenderLoss).
        let p = match estimator {
            None => p_ppb.map(ppb_to_p).unwrap_or(0.0),
            Some(est) => {
                let rtt = cc.rtt().unwrap_or(Duration::from_millis(100));
                est.on_losses(&digest.newly_lost, rtt, x_recv as f64);
                est.loss_event_rate(self.sb.highest_seen())
            }
        };

        let report = FeedbackReport {
            now: out.now,
            ts_echo: SimTime::from_nanos(ts_echo_nanos),
            t_delay: Duration::from_micros(t_delay_micros as u64),
            x_recv: x_recv as f64,
            p,
            newly_acked_bytes: (self.sb.cum_ack() - prev_cum) * self.cfg.s as u64,
            newly_lost_pkts: digest.newly_lost.len() as u32,
        };
        cc.on_feedback(&report);
        let rate = cc.allowed_rate();
        let nofb = cc.nofeedback_deadline();
        let srtt = cc.rtt();
        let ops = cc.ops()
            + estimator.as_ref().map(|e| e.total_ops()).unwrap_or(0)
            + self.sb.meter.total();
        let rtt_s = srtt.map(|r| r.as_secs_f64()).unwrap_or(0.0);
        self.arm(out, TK_NOFB, nofb);
        let now = out.now;
        self.tracer.emit(
            now.as_nanos(),
            TraceEventKind::RateUpdate {
                rate_bps: (rate * 8.0) as u64,
                p_ppm: ((p * 1e6) as u32).min(1_000_000),
                rtt_us: (rtt_s * 1e6) as u64,
            },
        );
        self.tracer.record(|c| {
            c.srtt_ns = srtt.map(|r| r.as_nanos() as u64).unwrap_or(0);
            c.p_sum_ppb += (p * 1e9) as u64;
            c.ops = ops;
        });
        self.emit_cc_state(now);
        // Feedback may unblock the window (e.g. new losses to retransmit).
        self.maybe_send_forward(out);
    }

    /// Surface the typed controller snapshot for the window/model
    /// controllers. The TFRC-family states emit nothing extra here, so
    /// traces of pre-existing runs stay frozen.
    fn emit_cc_state(&mut self, now: SimTime) {
        let Some(state) = self.cc().map(|cc| cc.state()) else {
            return;
        };
        match state {
            CcState::RateBased { .. } | CcState::FixedRate { .. } => {}
            CcState::Cubic {
                cwnd_bytes,
                w_max_bytes,
                tcp_friendly,
            } => self.tracer.emit(
                now.as_nanos(),
                TraceEventKind::CubicState {
                    cwnd_bytes,
                    w_max_bytes,
                    tcp_friendly,
                },
            ),
            CcState::BbrLite {
                phase,
                btlbw_bps,
                min_rtt_us,
            } => {
                let code = phase.code();
                if self.last_cc_phase.is_some() && self.last_cc_phase != Some(code) {
                    self.tracer.emit(
                        now.as_nanos(),
                        TraceEventKind::CcPhaseChange {
                            phase: code,
                            at_us: now.as_nanos() / 1_000,
                        },
                    );
                }
                self.last_cc_phase = Some(code);
                self.tracer.emit(
                    now.as_nanos(),
                    TraceEventKind::BbrState {
                        phase: code,
                        btlbw_bps,
                        min_rtt_us,
                    },
                );
            }
        }
    }

    fn on_nofb(&mut self, out: &mut Outbox) {
        if self.closed {
            return;
        }
        let State::Running { cc, .. } = &mut self.state else {
            return;
        };
        if out.now >= cc.nofeedback_deadline() {
            cc.on_nofeedback_timer(out.now);
        }
        let next = cc.nofeedback_deadline();
        self.arm(out, TK_NOFB, next);
    }
}

/// Borrowed fields of a decoded `QtpPacket::Feedback`, grouped so the
/// handler takes one argument per protocol message rather than eight.
struct FeedbackFields<'a> {
    ts_echo_nanos: u64,
    t_delay_micros: u32,
    x_recv: u64,
    p_ppb: Option<u32>,
    cum_ack: u64,
    blocks: &'a [SeqRange],
}

impl Endpoint for QtpSender {
    fn on_start(&mut self, out: &mut Outbox) {
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::State(ConnState::Started),
        );
        self.send_syn(out);
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        let Ok(decoded) = QtpPacket::decode(header) else {
            return;
        };
        match decoded {
            QtpPacket::SynAck {
                ts_echo_nanos,
                chosen,
            } => {
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::PktRecvd {
                        kind: PktKind::SynAck,
                        seq: 0,
                        bytes: wire_size,
                    },
                );
                self.on_synack(out, ts_echo_nanos, chosen)
            }
            QtpPacket::Feedback {
                ts_echo_nanos,
                t_delay_micros,
                x_recv,
                p_ppb,
                cum_ack,
                blocks,
            } => {
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::PktRecvd {
                        kind: PktKind::Feedback,
                        seq: cum_ack,
                        bytes: wire_size,
                    },
                );
                self.on_feedback_pkt(
                    out,
                    FeedbackFields {
                        ts_echo_nanos,
                        t_delay_micros,
                        x_recv,
                        p_ppb,
                        cum_ack,
                        blocks: &blocks,
                    },
                )
            }
            QtpPacket::FinAck { final_seq } => {
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::PktRecvd {
                        kind: PktKind::FinAck,
                        seq: final_seq,
                        bytes: wire_size,
                    },
                );
                self.on_finack(out.now.as_nanos())
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        match self.gens.live(token) {
            Some(kind) => {
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::TimerFired { kind: kind as u8 },
                );
                match kind {
                    TK_SYN if matches!(self.state, State::AwaitSynAck) => self.send_syn(out),
                    TK_SYN => {}
                    TK_PACE => self.on_pace(out),
                    TK_NOFB => self.on_nofb(out),
                    TK_APP => self.on_app_tick(out),
                    _ => {}
                }
            }
            None => self.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::TimerCancelled {
                    kind: (token & 3) as u8,
                },
            ),
        }
    }
}
