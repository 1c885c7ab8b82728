//! # Structured event tracing and per-connection counters
//!
//! The observability plane for the whole stack, and its only event
//! vocabulary. Two kinds of producer emit typed, `Copy` [`TraceEvent`]
//! records:
//!
//! * **endpoints** (sender, receiver, session, mux driver) emit through
//!   a cheap cloneable per-connection [`Tracer`]: connection state,
//!   packets sent/received, TTL drops and abandonments, rate updates,
//!   loss events, controller snapshots, timers, stream edges and soft
//!   errors;
//! * **the simulator's network** emits `QueueEnqueue` and `QueueDrop`
//!   (link, flow, queue length or drop reason) straight into the sink
//!   installed with `Simulator::set_trace`, under the reserved
//!   connection id [`NETWORK_CONN`], so one qlog shows queue build-up
//!   next to the rate updates it causes.
//!
//! Two consumers hang off every endpoint event:
//!
//! * a per-connection [`CounterSet`] — always on, updated on every
//!   `emit`, and the **single source of truth** for report numbers
//!   (packets/bytes tx+rx, retransmits, TTL drops, lost packets, timer
//!   fires). Endpoint-internal values no event carries (processing
//!   cost, peak state, RTT, latency sums) are written into the same
//!   bank with [`Tracer::record`]. Snapshotting is a struct copy.
//! * an optional [`TraceSink`] — the event stream itself. Sinks are
//!   attached per run (never in steady-state hot paths) and forwarding
//!   compiles out entirely when the `trace` cargo feature is disabled;
//!   the counters remain.
//!
//! Everything here is deterministic: event times are integer
//! nanoseconds of *simulated* (or driver) time, sinks never consult the
//! wall clock, and the qlog-style writer formats times as fixed-point
//! decimals computed from integers — so a fixed-seed run reproduces its
//! trace byte-for-byte.
//!
//! This module deliberately has **zero dependencies**: times are raw
//! `u64` nanoseconds and connections are plain `u32` ids, so every
//! crate in the workspace can emit without a dependency cycle.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Wire-level packet kind, shared by send/receive/drop events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktKind {
    /// Connection request carrying the capability offer.
    Syn,
    /// Capability answer.
    SynAck,
    /// Application data (datagram or stream chunk).
    Data,
    /// TFRC/QTP feedback report.
    Feedback,
    /// Sender→receiver state forward (QTPlight).
    Forward,
    /// Wire-level close request.
    Fin,
    /// Close acknowledgement.
    FinAck,
}

impl PktKind {
    /// Stable lowercase label used by the qlog writer and dumps.
    pub fn label(self) -> &'static str {
        match self {
            PktKind::Syn => "syn",
            PktKind::SynAck => "synack",
            PktKind::Data => "data",
            PktKind::Feedback => "feedback",
            PktKind::Forward => "forward",
            PktKind::Fin => "fin",
            PktKind::FinAck => "finack",
        }
    }
}

/// Connection lifecycle states reported by `ConnState` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Endpoint started; SYN in flight.
    Started,
    /// Capability negotiation completed.
    Connected,
    /// Wire-level close completed.
    Closed,
}

impl ConnState {
    /// Stable lowercase label used by the qlog writer and dumps.
    pub fn label(self) -> &'static str {
        match self {
            ConnState::Started => "started",
            ConnState::Connected => "connected",
            ConnState::Closed => "closed",
        }
    }
}

/// One typed trace event. `Copy`, fixed-size, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// Connection state change.
    State(ConnState),
    /// A packet handed to the wire.
    PktSent {
        /// Wire-level packet kind.
        kind: PktKind,
        /// Transport sequence number (0 for control packets).
        seq: u64,
        /// Bytes on the wire.
        bytes: u32,
        /// True when this is a retransmission.
        retx: bool,
    },
    /// A packet accepted from the wire.
    PktRecvd {
        /// Wire-level packet kind.
        kind: PktKind,
        /// Transport sequence number (0 for control packets).
        seq: u64,
        /// Bytes on the wire.
        bytes: u32,
    },
    /// Receiver-side TTL drop: a stale retransmission arrived past its
    /// message lifetime and was discarded instead of delivered.
    PktDropped {
        /// Sequence of the dropped packet.
        seq: u64,
        /// Age past the send timestamp, in microseconds.
        age_us: u64,
    },
    /// Sender-side abandonment: a backlogged or lost packet aged out of
    /// its TTL before (re)transmission.
    PktExpired {
        /// Sequence of the abandoned packet (or backlog drop count
        /// when individual sequences are not tracked).
        seq: u64,
    },
    /// Congestion-controller allowed-rate update (TFRC/gTFRC).
    RateUpdate {
        /// New allowed sending rate, bits per second.
        rate_bps: u64,
        /// Loss-event rate, parts per million.
        p_ppm: u32,
        /// Smoothed RTT estimate, microseconds.
        rtt_us: u64,
    },
    /// A new loss event (possibly grouping several lost packets).
    LossEvent {
        /// Packets newly declared lost in this feedback round.
        pkts: u32,
    },
    /// CUBIC window snapshot after a feedback round.
    CubicState {
        /// Congestion window, bytes.
        cwnd_bytes: u64,
        /// Window at the last multiplicative decrease, bytes.
        w_max_bytes: u64,
        /// Whether the TCP-friendly region is governing.
        tcp_friendly: bool,
    },
    /// BBR-lite model snapshot after a feedback round.
    BbrState {
        /// Phase code (0 = startup, 1 = drain, 2 = probe-bw).
        phase: u8,
        /// Windowed-max bottleneck bandwidth estimate, bits/second.
        btlbw_bps: u64,
        /// Windowed-min RTT estimate, microseconds.
        min_rtt_us: u64,
    },
    /// Controller phase transition (BBR-lite startup/drain/probe).
    CcPhaseChange {
        /// Phase code entered (0 = startup, 1 = drain, 2 = probe-bw).
        phase: u8,
        /// Transition time, microseconds — carried in the event so the
        /// counter bank (which only sees the kind) can record when
        /// startup was first exited.
        at_us: u64,
    },
    /// A timer was armed.
    TimerSet {
        /// Endpoint-local timer kind (see the endpoint's `TK_*`).
        kind: u8,
        /// Absolute deadline, nanoseconds.
        at_nanos: u64,
    },
    /// A live timer fired.
    TimerFired {
        /// Endpoint-local timer kind.
        kind: u8,
    },
    /// A stale timer generation fired and was discarded — the
    /// fire-and-forget equivalent of a cancellation.
    TimerCancelled {
        /// Endpoint-local timer kind.
        kind: u8,
    },
    /// Stream has bytes/messages ready for the application.
    StreamReadable,
    /// Stream send window reopened.
    StreamWritable,
    /// Stream finished (FIN delivered and acknowledged).
    StreamFin,
    /// Non-fatal driver-level error (e.g. a transient socket error
    /// attributed to one side of a pair).
    SoftError,
    /// Network (simulator): a packet entered a link queue. Emitted under
    /// [`NETWORK_CONN`].
    QueueEnqueue {
        /// Simulator link id.
        link: u32,
        /// Simulator flow id of the packet.
        flow: u32,
        /// Queue length in packets after the enqueue.
        queue_len: u32,
    },
    /// Network (simulator): a packet was dropped at a link. Emitted under
    /// [`NETWORK_CONN`].
    QueueDrop {
        /// Simulator link id.
        link: u32,
        /// Simulator flow id of the packet.
        flow: u32,
        /// The simulator's drop-reason code: 0 = queue full (tail drop),
        /// 1 = RED/RIO early drop, 2 = RED/RIO forced drop, 3 = link loss.
        reason: u8,
    },
}

/// Connection id of the simulator's network events. A [`TraceRegistry`]
/// numbers connections from 0, so it never hands this id out.
pub const NETWORK_CONN: u32 = u32::MAX;

impl TraceEventKind {
    /// Stable snake_case event name used by the qlog writer and dumps.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::State(_) => "conn_state",
            TraceEventKind::PktSent { .. } => "pkt_sent",
            TraceEventKind::PktRecvd { .. } => "pkt_recvd",
            TraceEventKind::PktDropped { .. } => "pkt_dropped",
            TraceEventKind::PktExpired { .. } => "pkt_expired",
            TraceEventKind::RateUpdate { .. } => "rate_update",
            TraceEventKind::LossEvent { .. } => "loss_event",
            TraceEventKind::CubicState { .. } => "cubic_state",
            TraceEventKind::BbrState { .. } => "bbr_state",
            TraceEventKind::CcPhaseChange { .. } => "cc_phase_change",
            TraceEventKind::TimerSet { .. } => "timer_set",
            TraceEventKind::TimerFired { .. } => "timer_fired",
            TraceEventKind::TimerCancelled { .. } => "timer_cancelled",
            TraceEventKind::StreamReadable => "stream_readable",
            TraceEventKind::StreamWritable => "stream_writable",
            TraceEventKind::StreamFin => "stream_fin",
            TraceEventKind::SoftError => "soft_error",
            TraceEventKind::QueueEnqueue { .. } => "queue_enqueue",
            TraceEventKind::QueueDrop { .. } => "queue_drop",
        }
    }
}

/// One emitted event: connection id, timestamp, payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Registry-assigned connection id.
    pub conn: u32,
    /// Event time in nanoseconds (simulated or driver time).
    pub t_nanos: u64,
    /// The typed payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Render the timestamp as fixed-point seconds (`s.nnnnnnnnn`),
    /// computed purely from integers so the string is deterministic.
    pub fn time_str(&self) -> String {
        format!(
            "{}.{:09}",
            self.t_nanos / 1_000_000_000,
            self.t_nanos % 1_000_000_000
        )
    }
}

/// Where the event stream goes. Implementations must not block and must
/// not allocate in steady state (one-time setup allocation is fine).
pub trait TraceSink {
    /// Consume one event.
    fn emit(&mut self, ev: &TraceEvent);
}

/// Per-connection counters, updated on every [`Tracer::emit`] whether
/// or not a sink is attached, plus the endpoint values written with
/// [`Tracer::record`]. Snapshot by copy.
///
/// [`CounterSet::merge`] folds connections together: every field is
/// summed unless its doc states another rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Packets handed to the wire.
    pub pkts_tx: u64,
    /// Bytes handed to the wire.
    pub bytes_tx: u64,
    /// Packets accepted from the wire.
    pub pkts_rx: u64,
    /// Bytes accepted from the wire.
    pub bytes_rx: u64,
    /// Data packets handed to the wire, retransmissions included (subset
    /// of `pkts_tx`).
    pub data_tx: u64,
    /// Feedback packets handed to the wire (subset of `pkts_tx`).
    pub feedback_tx: u64,
    /// Retransmitted data packets (subset of `data_tx`).
    pub retransmits: u64,
    /// Receiver-side TTL drops of stale retransmissions.
    pub ttl_drops: u64,
    /// Sender-side TTL abandonments (never (re)sent).
    pub abandoned: u64,
    /// Packets declared lost: the sum of `LossEvent.pkts`. This is not
    /// the TFRC loss-event count, which groups the losses of one RTT.
    pub loss_events: u64,
    /// Congestion-controller rate updates.
    pub rate_updates: u64,
    /// Timers armed.
    pub timers_set: u64,
    /// Live timer fires.
    pub timer_fires: u64,
    /// Stale-generation timer fires (≈ cancellations).
    pub timers_cancelled: u64,
    /// Non-fatal driver errors attributed to this connection.
    pub soft_errors: u64,
    /// Controller state snapshots (CUBIC/BBR feedback rounds).
    pub cc_state_updates: u64,
    /// Controller phase transitions (BBR-lite).
    pub cc_phase_changes: u64,
    /// Time BBR-lite first left startup, microseconds (0 = never did).
    /// Merge: the earliest nonzero value.
    pub bbr_startup_exit_us: u64,
    /// Recorded (receiver): data packets processed after the handshake.
    /// Data that arrives before negotiation is counted in `pkts_rx` but
    /// dropped unprocessed, so this is recorded rather than derived.
    pub data_rx: u64,
    /// Recorded: processing operations so far — the receiver's loss
    /// detection, history, reassembly and feedback building, or the
    /// sender's controller, estimator and scoreboard.
    pub ops: u64,
    /// Recorded (receiver): peak bytes of protocol state. Merge: max.
    pub state_bytes_peak: u64,
    /// Recorded (sender): the controller's smoothed RTT at the latest
    /// feedback, nanoseconds (0 = no estimate). Merge: max.
    pub srtt_ns: u64,
    /// Recorded (sender): the sum of `⌊p · 10⁹⌋` over the loss-event
    /// rates `p` the rate computation used, one per rate update.
    pub p_sum_ppb: u64,
    /// Recorded (receiver): the sum of ADU-submit-to-delivery latencies,
    /// nanoseconds.
    pub latency_sum_ns: u64,
    /// Recorded (receiver): deliveries contributing to `latency_sum_ns`.
    pub latency_samples: u64,
}

impl CounterSet {
    /// Apply the counter deltas implied by one event kind.
    #[inline]
    pub fn apply(&mut self, kind: &TraceEventKind) {
        match kind {
            TraceEventKind::PktSent {
                kind, bytes, retx, ..
            } => {
                self.pkts_tx += 1;
                self.bytes_tx += u64::from(*bytes);
                match kind {
                    PktKind::Data => self.data_tx += 1,
                    PktKind::Feedback => self.feedback_tx += 1,
                    _ => {}
                }
                if *retx {
                    self.retransmits += 1;
                }
            }
            TraceEventKind::PktRecvd { bytes, .. } => {
                self.pkts_rx += 1;
                self.bytes_rx += u64::from(*bytes);
            }
            TraceEventKind::PktDropped { .. } => self.ttl_drops += 1,
            TraceEventKind::PktExpired { .. } => self.abandoned += 1,
            TraceEventKind::LossEvent { pkts } => self.loss_events += u64::from(*pkts),
            TraceEventKind::CubicState { .. } | TraceEventKind::BbrState { .. } => {
                self.cc_state_updates += 1
            }
            TraceEventKind::CcPhaseChange { phase, at_us } => {
                self.cc_phase_changes += 1;
                // Phase 1 (drain) is entered exactly once, when startup ends.
                if *phase == 1 && self.bbr_startup_exit_us == 0 {
                    self.bbr_startup_exit_us = *at_us;
                }
            }
            TraceEventKind::RateUpdate { .. } => self.rate_updates += 1,
            TraceEventKind::TimerSet { .. } => self.timers_set += 1,
            TraceEventKind::TimerFired { .. } => self.timer_fires += 1,
            TraceEventKind::TimerCancelled { .. } => self.timers_cancelled += 1,
            TraceEventKind::SoftError => self.soft_errors += 1,
            TraceEventKind::State(_)
            | TraceEventKind::StreamReadable
            | TraceEventKind::StreamWritable
            | TraceEventKind::StreamFin
            | TraceEventKind::QueueEnqueue { .. }
            | TraceEventKind::QueueDrop { .. } => {}
        }
    }

    /// Fold another connection's counters into this one (mux/driver
    /// aggregation). Each field follows the rule in its doc: summed
    /// unless stated otherwise.
    pub fn merge(&mut self, other: &CounterSet) {
        // No `..`: a field added to the struct but not merged here is a
        // compile error.
        let CounterSet {
            pkts_tx,
            bytes_tx,
            pkts_rx,
            bytes_rx,
            data_tx,
            feedback_tx,
            retransmits,
            ttl_drops,
            abandoned,
            loss_events,
            rate_updates,
            timers_set,
            timer_fires,
            timers_cancelled,
            soft_errors,
            cc_state_updates,
            cc_phase_changes,
            bbr_startup_exit_us,
            data_rx,
            ops,
            state_bytes_peak,
            srtt_ns,
            p_sum_ppb,
            latency_sum_ns,
            latency_samples,
        } = *other;
        self.pkts_tx += pkts_tx;
        self.bytes_tx += bytes_tx;
        self.pkts_rx += pkts_rx;
        self.bytes_rx += bytes_rx;
        self.data_tx += data_tx;
        self.feedback_tx += feedback_tx;
        self.retransmits += retransmits;
        self.ttl_drops += ttl_drops;
        self.abandoned += abandoned;
        self.loss_events += loss_events;
        self.rate_updates += rate_updates;
        self.timers_set += timers_set;
        self.timer_fires += timer_fires;
        self.timers_cancelled += timers_cancelled;
        self.soft_errors += soft_errors;
        self.cc_state_updates += cc_state_updates;
        self.cc_phase_changes += cc_phase_changes;
        if bbr_startup_exit_us != 0
            && (self.bbr_startup_exit_us == 0 || bbr_startup_exit_us < self.bbr_startup_exit_us)
        {
            self.bbr_startup_exit_us = bbr_startup_exit_us;
        }
        self.data_rx += data_rx;
        self.ops += ops;
        self.state_bytes_peak = self.state_bytes_peak.max(state_bytes_peak);
        self.srtt_ns = self.srtt_ns.max(srtt_ns);
        self.p_sum_ppb += p_sum_ppb;
        self.latency_sum_ns += latency_sum_ns;
        self.latency_samples += latency_samples;
    }

    /// Processing operations per data packet received — the E5
    /// receiver-load figure (0 before any data).
    pub fn ops_per_pkt(&self) -> f64 {
        mean(self.ops as f64, self.data_rx)
    }

    /// Mean loss-event rate over the rate updates (0 before any).
    pub fn mean_p(&self) -> f64 {
        mean(self.p_sum_ppb as f64 / 1e9, self.rate_updates)
    }

    /// Mean ADU-to-delivery latency, seconds (0 before any delivery).
    pub fn mean_latency_s(&self) -> f64 {
        mean(self.latency_sum_ns as f64 / 1e9, self.latency_samples)
    }

    /// The recorded smoothed RTT.
    pub fn srtt(&self) -> Duration {
        Duration::from_nanos(self.srtt_ns)
    }
}

/// `sum / n`, or 0 when there are no samples.
fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

struct TracerState {
    conn: u32,
    counters: CounterSet,
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

/// Cheap cloneable per-connection emit handle. Clones share one
/// counter bank and sink slot, so a sink attached through any clone is
/// seen by all of them — endpoints can own a `Tracer` from construction
/// and a backend can attach the run's sink later.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<TracerState>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("Tracer")
            .field("conn", &st.conn)
            .field("counters", &st.counters)
            .field("sink", &st.sink.is_some())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(0)
    }
}

impl Tracer {
    /// A standalone tracer for connection id `conn`, no sink attached.
    pub fn new(conn: u32) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(TracerState {
                conn,
                counters: CounterSet::default(),
                sink: None,
            })),
        }
    }

    /// The registry-assigned connection id.
    pub fn conn(&self) -> u32 {
        self.inner.borrow().conn
    }

    /// Renumber this tracer (all clones see it). Endpoints create their
    /// tracer as id 0; a [`TraceRegistry`] assigns the run-unique id when
    /// the connection is registered.
    pub fn set_conn(&self, conn: u32) {
        self.inner.borrow_mut().conn = conn;
    }

    /// Emit one event: counters update unconditionally; the event is
    /// forwarded to the sink only when one is attached (and only when
    /// the `trace` feature is compiled in).
    #[inline]
    pub fn emit(&self, t_nanos: u64, kind: TraceEventKind) {
        let mut st = self.inner.borrow_mut();
        st.counters.apply(&kind);
        #[cfg(feature = "trace")]
        if let Some(sink) = st.sink.clone() {
            let ev = TraceEvent {
                conn: st.conn,
                t_nanos,
                kind,
            };
            drop(st);
            sink.borrow_mut().emit(&ev);
        }
        #[cfg(not(feature = "trace"))]
        let _ = t_nanos;
    }

    /// Write endpoint-internal values (processing cost, peak state, RTT,
    /// latency sums) into the counter bank. Emits no event and never
    /// reaches a sink, so it works with the `trace` feature off.
    #[inline]
    pub fn record(&self, f: impl FnOnce(&mut CounterSet)) {
        f(&mut self.inner.borrow_mut().counters);
    }

    /// Snapshot the counters (struct copy).
    pub fn counters(&self) -> CounterSet {
        self.inner.borrow().counters
    }

    /// Attach (or replace) the event sink. Takes effect for every
    /// clone of this tracer.
    pub fn attach_sink(&self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.inner.borrow_mut().sink = Some(sink);
    }
}

#[derive(Default)]
struct RegistryState {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    conns: Vec<(String, Tracer)>,
}

/// Run-scoped allocator of connection ids and distributor of the run's
/// sink. Cloning shares state, so a backend can hold one clone and the
/// harness another.
#[derive(Clone, Default)]
pub struct TraceRegistry {
    inner: Rc<RefCell<RegistryState>>,
}

impl fmt::Debug for TraceRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("TraceRegistry")
            .field("conns", &st.conns.len())
            .field("sink", &st.sink.is_some())
            .finish()
    }
}

impl TraceRegistry {
    /// A fresh registry with no sink.
    pub fn new() -> Self {
        TraceRegistry::default()
    }

    /// Install the sink handed to every subsequently created tracer.
    /// Also attaches it to tracers already handed out.
    pub fn set_sink(&self, sink: Rc<RefCell<dyn TraceSink>>) {
        let mut st = self.inner.borrow_mut();
        for (_, t) in &st.conns {
            t.attach_sink(sink.clone());
        }
        st.sink = Some(sink);
    }

    /// Allocate the next connection id and hand out its tracer.
    pub fn tracer(&self, label: &str) -> Tracer {
        let t = Tracer::new(0);
        self.register(label, &t);
        t
    }

    /// Register an endpoint-owned tracer: assign it the next connection
    /// id, attach the run's sink (if any), and record it under `label`.
    pub fn register(&self, label: &str, t: &Tracer) -> u32 {
        let mut st = self.inner.borrow_mut();
        let id = st.conns.len() as u32;
        t.set_conn(id);
        if let Some(sink) = &st.sink {
            t.attach_sink(sink.clone());
        }
        st.conns.push((label.to_string(), t.clone()));
        id
    }

    /// Snapshot every registered connection: `(id, label, counters)`,
    /// in registration order.
    pub fn connections(&self) -> Vec<(u32, String, CounterSet)> {
        self.inner
            .borrow()
            .conns
            .iter()
            .map(|(label, t)| (t.conn(), label.clone(), t.counters()))
            .collect()
    }
}

/// The do-nothing sink: proves the cost of tracing-with-no-consumer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn emit(&mut self, _ev: &TraceEvent) {}
}

/// Fixed-capacity per-connection ring of the last `cap` events.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<TraceEvent>,
    head: usize,
    len: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            head: 0,
            len: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        let cap = self.buf.capacity();
        if cap == 0 {
            return;
        }
        if self.buf.len() < cap {
            self.buf.push(ev);
            self.len = self.buf.len();
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
        }
    }

    fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        let cap = self.buf.len();
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % cap.max(1)]);
        }
        out
    }
}

/// Bounded in-memory flight recorder: keeps the **last N events per
/// connection** in emit order. The only allocations are the one-time
/// ring growth up to capacity per connection; steady-state emission
/// overwrites in place. Dump it when a ledger assertion or scenario
/// check fails to see what the flow was doing just before the end.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    rings: BTreeMap<u32, Ring>,
}

impl FlightRecorder {
    /// Recorder keeping the last `cap_per_conn` events of each
    /// connection.
    pub fn new(cap_per_conn: usize) -> Self {
        FlightRecorder {
            cap: cap_per_conn,
            rings: BTreeMap::new(),
        }
    }

    /// Events currently held for `conn`, oldest first.
    pub fn events(&self, conn: u32) -> Vec<TraceEvent> {
        self.rings.get(&conn).map(Ring::events).unwrap_or_default()
    }

    /// Connection ids with at least one recorded event, ascending.
    pub fn conns(&self) -> Vec<u32> {
        self.rings.keys().copied().collect()
    }

    /// Human-readable dump of every ring, for failure diagnostics.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (conn, ring) in &self.rings {
            let evs = ring.events();
            out.push_str(&format!("conn {} — last {} event(s):\n", conn, evs.len()));
            for ev in evs {
                out.push_str(&format!(
                    "  [{}] {} {:?}\n",
                    ev.time_str(),
                    ev.kind.name(),
                    ev.kind
                ));
            }
        }
        if out.is_empty() {
            out.push_str("flight recorder: no events recorded\n");
        }
        out
    }
}

impl TraceSink for FlightRecorder {
    fn emit(&mut self, ev: &TraceEvent) {
        let cap = self.cap;
        self.rings
            .entry(ev.conn)
            .or_insert_with(|| Ring::new(cap))
            .push(*ev);
    }
}

/// Deterministic qlog-style JSON-lines writer. One JSON object per
/// event, keys in fixed order, all numbers integer-derived — a
/// fixed-seed run reproduces the output byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct QlogWriter {
    out: String,
}

impl QlogWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        QlogWriter::default()
    }

    /// The JSON-lines output so far.
    pub fn output(&self) -> &str {
        &self.out
    }

    /// Consume the writer, returning the output.
    pub fn into_output(self) -> String {
        self.out
    }

    fn data_json(kind: &TraceEventKind) -> String {
        match kind {
            TraceEventKind::State(s) => format!("{{\"state\":\"{}\"}}", s.label()),
            TraceEventKind::PktSent {
                kind,
                seq,
                bytes,
                retx,
            } => format!(
                "{{\"kind\":\"{}\",\"seq\":{seq},\"bytes\":{bytes},\"retx\":{retx}}}",
                kind.label()
            ),
            TraceEventKind::PktRecvd { kind, seq, bytes } => format!(
                "{{\"kind\":\"{}\",\"seq\":{seq},\"bytes\":{bytes}}}",
                kind.label()
            ),
            TraceEventKind::PktDropped { seq, age_us } => {
                format!("{{\"seq\":{seq},\"age_us\":{age_us}}}")
            }
            TraceEventKind::PktExpired { seq } => format!("{{\"seq\":{seq}}}"),
            TraceEventKind::RateUpdate {
                rate_bps,
                p_ppm,
                rtt_us,
            } => format!("{{\"rate_bps\":{rate_bps},\"p_ppm\":{p_ppm},\"rtt_us\":{rtt_us}}}"),
            TraceEventKind::LossEvent { pkts } => format!("{{\"pkts\":{pkts}}}"),
            TraceEventKind::CubicState {
                cwnd_bytes,
                w_max_bytes,
                tcp_friendly,
            } => format!(
                "{{\"cwnd\":{cwnd_bytes},\"w_max\":{w_max_bytes},\"tcp_friendly\":{tcp_friendly}}}"
            ),
            TraceEventKind::BbrState {
                phase,
                btlbw_bps,
                min_rtt_us,
            } => format!(
                "{{\"phase\":{phase},\"btlbw_bps\":{btlbw_bps},\"min_rtt_us\":{min_rtt_us}}}"
            ),
            TraceEventKind::CcPhaseChange { phase, at_us } => {
                format!("{{\"phase\":{phase},\"at_us\":{at_us}}}")
            }
            TraceEventKind::TimerSet { kind, at_nanos } => {
                format!(
                    "{{\"kind\":{kind},\"at\":\"{}.{:09}\"}}",
                    at_nanos / 1_000_000_000,
                    at_nanos % 1_000_000_000
                )
            }
            TraceEventKind::TimerFired { kind } => format!("{{\"kind\":{kind}}}"),
            TraceEventKind::TimerCancelled { kind } => format!("{{\"kind\":{kind}}}"),
            TraceEventKind::StreamReadable
            | TraceEventKind::StreamWritable
            | TraceEventKind::StreamFin
            | TraceEventKind::SoftError => "{}".to_string(),
            TraceEventKind::QueueEnqueue {
                link,
                flow,
                queue_len,
            } => format!("{{\"link\":{link},\"flow\":{flow},\"queue_len\":{queue_len}}}"),
            TraceEventKind::QueueDrop { link, flow, reason } => {
                format!("{{\"link\":{link},\"flow\":{flow},\"reason\":{reason}}}")
            }
        }
    }
}

impl TraceSink for QlogWriter {
    fn emit(&mut self, ev: &TraceEvent) {
        self.out.push_str(&format!(
            "{{\"time\":\"{}\",\"conn\":{},\"name\":\"{}\",\"data\":{}}}\n",
            ev.time_str(),
            ev.conn,
            ev.kind.name(),
            Self::data_json(&ev.kind)
        ));
    }
}

/// Forward every event to two sinks (e.g. qlog writer + flight
/// recorder in `qtptrace`).
pub struct Tee {
    a: Rc<RefCell<dyn TraceSink>>,
    b: Rc<RefCell<dyn TraceSink>>,
}

impl Tee {
    /// Tee into `a` then `b`, in that order.
    pub fn new(a: Rc<RefCell<dyn TraceSink>>, b: Rc<RefCell<dyn TraceSink>>) -> Self {
        Tee { a, b }
    }
}

impl TraceSink for Tee {
    fn emit(&mut self, ev: &TraceEvent) {
        self.a.borrow_mut().emit(ev);
        self.b.borrow_mut().emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            conn: 0,
            t_nanos: t,
            kind,
        }
    }

    #[test]
    fn counters_follow_events() {
        let tr = Tracer::new(7);
        tr.emit(
            0,
            TraceEventKind::PktSent {
                kind: PktKind::Data,
                seq: 1,
                bytes: 1000,
                retx: false,
            },
        );
        tr.emit(
            1,
            TraceEventKind::PktSent {
                kind: PktKind::Data,
                seq: 1,
                bytes: 1000,
                retx: true,
            },
        );
        tr.emit(
            2,
            TraceEventKind::PktRecvd {
                kind: PktKind::Feedback,
                seq: 0,
                bytes: 40,
            },
        );
        tr.emit(
            2,
            TraceEventKind::PktSent {
                kind: PktKind::Feedback,
                seq: 0,
                bytes: 40,
                retx: false,
            },
        );
        tr.emit(3, TraceEventKind::PktDropped { seq: 5, age_us: 99 });
        tr.emit(4, TraceEventKind::LossEvent { pkts: 3 });
        tr.emit(5, TraceEventKind::SoftError);
        // Network kinds carry no per-connection counts.
        tr.emit(
            6,
            TraceEventKind::QueueDrop {
                link: 0,
                flow: 0,
                reason: 3,
            },
        );
        let c = tr.counters();
        assert_eq!(c.pkts_tx, 3);
        assert_eq!(c.bytes_tx, 2040);
        assert_eq!(c.data_tx, 2);
        assert_eq!(c.feedback_tx, 1);
        assert_eq!(c.retransmits, 1);
        assert_eq!(c.pkts_rx, 1);
        assert_eq!(c.bytes_rx, 40);
        assert_eq!(c.ttl_drops, 1);
        assert_eq!(c.loss_events, 3);
        assert_eq!(c.soft_errors, 1);
        assert_eq!(tr.conn(), 7);
    }

    #[test]
    fn record_writes_counters_without_reaching_the_sink() {
        let tr = Tracer::new(0);
        let rec = Rc::new(RefCell::new(FlightRecorder::new(4)));
        tr.attach_sink(rec.clone());
        tr.record(|c| {
            c.ops += 7;
            c.srtt_ns = 40_000_123;
        });
        let c = tr.counters();
        assert_eq!((c.ops, c.pkts_tx), (7, 0));
        assert_eq!(c.srtt().as_secs_f64(), 0.040000123);
        assert!(rec.borrow().conns().is_empty(), "record emits no event");
    }

    #[test]
    fn event_records_stay_small() {
        // Sinks copy whole events; growing them costs every consumer.
        assert_eq!(std::mem::size_of::<TraceEventKind>(), 24);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    }

    #[test]
    fn clones_share_counters_and_sink() {
        let tr = Tracer::new(0);
        let clone = tr.clone();
        clone.emit(
            0,
            TraceEventKind::TimerSet {
                kind: 1,
                at_nanos: 5,
            },
        );
        assert_eq!(tr.counters().timers_set, 1);
        // Sink attached through one clone is visible through the other.
        let rec = Rc::new(RefCell::new(FlightRecorder::new(4)));
        tr.attach_sink(rec.clone());
        clone.emit(1, TraceEventKind::TimerFired { kind: 1 });
        if cfg!(feature = "trace") {
            assert_eq!(rec.borrow().events(0).len(), 1);
        } else {
            assert!(rec.borrow().events(0).is_empty());
        }
        assert_eq!(tr.counters().timer_fires, 1);
    }

    #[test]
    fn registry_assigns_ids_and_distributes_sink() {
        let reg = TraceRegistry::new();
        let a = reg.tracer("tx");
        let rec = Rc::new(RefCell::new(FlightRecorder::new(4)));
        // set_sink after the fact reaches already-created tracers too.
        reg.set_sink(rec.clone());
        let b = reg.tracer("rx");
        assert_eq!(a.conn(), 0);
        assert_eq!(b.conn(), 1);
        a.emit(0, TraceEventKind::State(ConnState::Started));
        b.emit(1, TraceEventKind::State(ConnState::Started));
        let conns = reg.connections();
        assert_eq!(conns.len(), 2);
        assert_eq!(conns[0].1, "tx");
        if cfg!(feature = "trace") {
            assert_eq!(rec.borrow().conns(), vec![0, 1]);
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..10u64 {
            rec.emit(&ev(i, TraceEventKind::TimerFired { kind: 0 }));
        }
        let evs = rec.events(0);
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.t_nanos).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn recorder_dump_mentions_every_conn() {
        let mut rec = FlightRecorder::new(2);
        for conn in [3u32, 1] {
            rec.emit(&TraceEvent {
                conn,
                t_nanos: 1_500_000_000,
                kind: TraceEventKind::StreamFin,
            });
        }
        let dump = rec.dump();
        assert!(dump.contains("conn 1"));
        assert!(dump.contains("conn 3"));
        assert!(dump.contains("1.500000000"));
        assert!(dump.contains("stream_fin"));
    }

    #[test]
    fn qlog_lines_are_deterministic_json() {
        let mut w = QlogWriter::new();
        w.emit(&ev(
            12_345_678,
            TraceEventKind::RateUpdate {
                rate_bps: 4_000_000,
                p_ppm: 250,
                rtt_us: 40_000,
            },
        ));
        w.emit(&ev(0, TraceEventKind::State(ConnState::Connected)));
        w.emit(&TraceEvent {
            conn: NETWORK_CONN,
            t_nanos: 5,
            kind: TraceEventKind::QueueEnqueue {
                link: 2,
                flow: 7,
                queue_len: 12,
            },
        });
        w.emit(&TraceEvent {
            conn: NETWORK_CONN,
            t_nanos: 6,
            kind: TraceEventKind::QueueDrop {
                link: 2,
                flow: 7,
                reason: 1,
            },
        });
        let lines: Vec<&str> = w.output().lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"time\":\"0.012345678\",\"conn\":0,\"name\":\"rate_update\",\"data\":{\"rate_bps\":4000000,\"p_ppm\":250,\"rtt_us\":40000}}"
        );
        assert_eq!(
            lines[1],
            "{\"time\":\"0.000000000\",\"conn\":0,\"name\":\"conn_state\",\"data\":{\"state\":\"connected\"}}"
        );
        assert_eq!(
            lines[2],
            "{\"time\":\"0.000000005\",\"conn\":4294967295,\"name\":\"queue_enqueue\",\"data\":{\"link\":2,\"flow\":7,\"queue_len\":12}}"
        );
        assert_eq!(
            lines[3],
            "{\"time\":\"0.000000006\",\"conn\":4294967295,\"name\":\"queue_drop\",\"data\":{\"link\":2,\"flow\":7,\"reason\":1}}"
        );
    }

    #[test]
    fn tee_reaches_both_sinks() {
        let rec = Rc::new(RefCell::new(FlightRecorder::new(4)));
        let qlog = Rc::new(RefCell::new(QlogWriter::new()));
        let mut tee = Tee::new(rec.clone(), qlog.clone());
        tee.emit(&ev(0, TraceEventKind::StreamReadable));
        assert_eq!(rec.borrow().events(0).len(), 1);
        assert!(qlog.borrow().output().contains("stream_readable"));
    }

    #[test]
    fn counter_merge_adds_everything() {
        let mut a = CounterSet {
            pkts_tx: 1,
            soft_errors: 2,
            data_tx: 5,
            ops: 10,
            state_bytes_peak: 300,
            srtt_ns: 9,
            p_sum_ppb: 500_000_000,
            rate_updates: 1,
            latency_sum_ns: 1_000,
            latency_samples: 1,
            ..CounterSet::default()
        };
        assert_eq!(a.ops_per_pkt(), 0.0, "no data received yet");
        let b = CounterSet {
            pkts_tx: 3,
            ttl_drops: 4,
            data_tx: 1,
            feedback_tx: 2,
            data_rx: 6,
            ops: 5,
            state_bytes_peak: 200,
            srtt_ns: 20,
            p_sum_ppb: 250_000_000,
            rate_updates: 2,
            latency_sum_ns: 3_000,
            latency_samples: 3,
            ..CounterSet::default()
        };
        a.merge(&b);
        assert_eq!(a.pkts_tx, 4);
        assert_eq!(a.ttl_drops, 4);
        assert_eq!(a.soft_errors, 2);
        assert_eq!((a.data_tx, a.feedback_tx, a.data_rx), (6, 2, 6));
        assert_eq!(a.ops, 15);
        assert_eq!(a.state_bytes_peak, 300, "peak state takes the max");
        assert_eq!(a.srtt_ns, 20, "srtt takes the max");
        assert_eq!((a.p_sum_ppb, a.mean_p()), (750_000_000, 0.25));
        assert_eq!((a.latency_sum_ns, a.latency_samples), (4_000, 4));
        assert_eq!((a.ops_per_pkt(), a.mean_latency_s()), (2.5, 1e-6));
    }

    #[test]
    fn derived_means_guard_empty_counts() {
        let c = CounterSet {
            data_rx: 4,
            ops: 40,
            p_sum_ppb: 500_000_000,
            rate_updates: 2,
            latency_sum_ns: 2_000_000_000,
            latency_samples: 4,
            ..CounterSet::default()
        };
        assert_eq!(c.ops_per_pkt(), 10.0);
        assert_eq!(c.mean_p(), 0.25);
        assert_eq!(c.mean_latency_s(), 0.5);
        let empty = CounterSet::default();
        assert_eq!(empty.ops_per_pkt(), 0.0);
        assert_eq!(empty.mean_p(), 0.0);
        assert_eq!(empty.mean_latency_s(), 0.0);
    }

    #[test]
    fn cc_counters_track_snapshots_and_first_startup_exit() {
        let mut c = CounterSet::default();
        c.apply(&TraceEventKind::CubicState {
            cwnd_bytes: 10_000,
            w_max_bytes: 20_000,
            tcp_friendly: false,
        });
        c.apply(&TraceEventKind::BbrState {
            phase: 0,
            btlbw_bps: 1_000_000,
            min_rtt_us: 40_000,
        });
        assert_eq!(c.cc_state_updates, 2);
        c.apply(&TraceEventKind::CcPhaseChange {
            phase: 1,
            at_us: 900_000,
        });
        c.apply(&TraceEventKind::CcPhaseChange {
            phase: 2,
            at_us: 1_000_000,
        });
        assert_eq!(c.cc_phase_changes, 2);
        assert_eq!(c.bbr_startup_exit_us, 900_000, "first drain entry sticks");
        // Merge keeps the earliest nonzero exit.
        let mut other = CounterSet {
            bbr_startup_exit_us: 500_000,
            ..CounterSet::default()
        };
        other.merge(&c);
        assert_eq!(other.bbr_startup_exit_us, 500_000);
        let mut zero = CounterSet::default();
        zero.merge(&c);
        assert_eq!(zero.bbr_startup_exit_us, 900_000);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut rec = FlightRecorder::new(0);
        rec.emit(&ev(0, TraceEventKind::StreamFin));
        assert!(rec.events(0).is_empty());
    }
}
