//! Connection multiplexing: one UDP socket, many QTP flows.
//!
//! [`MuxDriver`] is the crate's one real-socket event loop: it owns **one**
//! `std::net::UdpSocket` and routes datagrams among N concurrent
//! [`Endpoint`] instances keyed by `(peer_addr, flow_id)`, QUIC-style. A
//! single connection is just the N = 1 case (that is how
//! [`UdpBackend`](crate::UdpBackend) runs each of its socket pairs):
//!
//! ```text
//! loop {                                  // MuxDriver::drive_once
//!     flush backlogged sends              // WouldBlock retries
//!     pop due timers off the heap, fire   // endpoint.on_timer per conn
//!     while socket ready (level-trig.):   // set_nonblocking(true)
//!         recv; decode frame
//!         route (peer, frame.flow) -> conn, else acceptor -> new conn
//!         endpoint.handle_datagram; drain outbox
//!     if nothing happened: sleep min(slice, next deadline)
//! }
//! ```
//!
//! * **Routing** — every connection registers the flow ids it owns with its
//!   peer address (a QTP connection owns two: data + feedback). The route
//!   table is the hot path; see the `mux_micro` criterion bench.
//! * **Timers** — one `std` [`BinaryHeap`] holds every armed wakeup of
//!   every connection as `(deadline, arming order, connection, token)`:
//!   timers fire in exact deadline-then-arming order, never early;
//!   [`MuxDriver::poll_timeout`] is a peek and teardown purges a
//!   connection's entries with `retain`. The population is small — a
//!   64-connection bulk transfer peaks at ~260 armed entries, about 4 per
//!   connection — so nothing bucketed pays for its code here. The heap
//!   keeps the simulator's fire-and-forget contract: it never cancels an
//!   entry on re-arm; endpoints discard stale generations via
//!   [`TimerGens`](qtp_core::TimerGens).
//! * **Lifecycle** — connections appear either explicitly
//!   ([`MuxDriver::add_connection`], the client role) or on the first
//!   decodable frame from an unknown `(peer, flow)` via the acceptor
//!   callback (the server role); they disappear explicitly
//!   ([`MuxDriver::close`]) or through idle reaping
//!   ([`MuxDriver::reap_stale`]).
//!
//! `MuxDriver` is generic over the endpoint type: a homogeneous mux
//! (`MuxDriver<QtpReceiver>` on a server) keeps typed access to its
//! endpoints, and `MuxDriver<Box<dyn Endpoint>>` mixes senders and
//! receivers on one socket. Strictly single-threaded, like everything else
//! in this crate; batching (recvmmsg/GSO) and async runtimes layer on top
//! of this seam later.

use qtp_core::driver::{Command, Endpoint, Outbox, Transmit};
use qtp_simnet::packet::FlowId;
use qtp_simnet::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use crate::clock::WallClock;
use crate::frame::{Frame, MAX_FRAME_LEN};

/// Identifier of one multiplexed connection, unique for the lifetime of a
/// [`MuxDriver`] (ids are never reused after [`MuxDriver::close`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u64);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// The mux driver
// ---------------------------------------------------------------------------

/// Most datagrams dispatched per [`MuxDriver::drive_once`] call before
/// yielding back to the timer path (level-triggered fairness bound).
const RECV_BATCH: usize = 256;

/// An armed wakeup: `(deadline, arming order, connection, token)`. The
/// arming order breaks deadline ties, matching the simulator's
/// insertion-order event tie-break.
type TimerEntry = (SimTime, u64, ConnId, u64);

/// Limits of a [`MuxDriver`].
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Most concurrent connections; the acceptor is not consulted beyond
    /// this (the datagram counts as unroutable).
    pub max_conns: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig { max_conns: 4096 }
    }
}

/// What an acceptor returns for a connection it admits: the endpoint plus
/// every flow id to route to it (which must include the triggering flow).
pub struct Accepted<E> {
    /// The freshly built endpoint (driven from the triggering datagram on).
    pub endpoint: E,
    /// Flow ids owned by this connection, from the triggering peer.
    pub flows: Vec<FlowId>,
}

type Acceptor<E> = Box<dyn FnMut(SocketAddr, &Frame) -> Option<Accepted<E>>>;

/// Per-connection activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConnStats {
    /// Frames sent on behalf of this connection.
    pub datagrams_sent: u64,
    /// Frames routed to this connection.
    pub datagrams_received: u64,
    /// Application bytes the endpoint delivered (`Command::Deliver`).
    pub delivered_bytes: u64,
    /// Last send or receive on this connection (mux clock axis); the
    /// reaper's staleness measure.
    pub last_activity: SimTime,
}

/// Whole-mux activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MuxStats {
    /// Frames sent on the socket.
    pub datagrams_sent: u64,
    /// Frames received and routed to a connection.
    pub datagrams_received: u64,
    /// Datagrams dropped because they don't decode as frames.
    pub datagrams_rejected: u64,
    /// Valid frames with no route and no (or a declining) acceptor.
    pub datagrams_unroutable: u64,
    /// Timer events delivered (stale generations included).
    pub timers_fired: u64,
    /// Connections created by the acceptor.
    pub conns_accepted: u64,
    /// Connections removed by [`MuxDriver::close`] (reaping included).
    pub conns_closed: u64,
    /// Connections removed by [`MuxDriver::reap_stale`].
    pub conns_reaped: u64,
    /// Sends deferred because the socket buffer was full (`WouldBlock`).
    pub sends_requeued: u64,
    /// Soft per-datagram socket errors absorbed (ICMP reflections etc.).
    pub soft_errors: u64,
    /// Deepest the `WouldBlock` send backlog ever got (frames).
    pub tx_backlog_high_water: u64,
    /// Most timer entries armed at once (stale generations included): the
    /// timer-state footprint of the whole mux. The name is kept from the
    /// timer wheel the heap replaced, because benchmarks read it by name.
    pub timer_wheel_high_water: u64,
}

impl MuxStats {
    /// The mux's activity as a [`CounterSet`], the cross-backend
    /// observability currency: datagrams map to packets, timer and
    /// soft-error counters carry over, everything per-connection (bytes,
    /// retransmits, drops) stays zero — those live with the endpoints'
    /// own tracers.
    ///
    /// [`CounterSet`]: qtp_metrics::trace::CounterSet
    pub fn counter_set(&self) -> qtp_metrics::trace::CounterSet {
        qtp_metrics::trace::CounterSet {
            pkts_tx: self.datagrams_sent,
            pkts_rx: self.datagrams_received,
            timer_fires: self.timers_fired,
            soft_errors: self.soft_errors,
            ..Default::default()
        }
    }
}

struct Conn<E> {
    /// The endpoint. `None` only transiently, while one of its callbacks
    /// runs (taken out so the command drain can borrow the mux freely
    /// without structurally mutating the connection map on the hot path).
    ep: Option<E>,
    peer: SocketAddr,
    flows: Vec<FlowId>,
    stats: ConnStats,
}

/// Drives N [`Endpoint`]s over one UDP socket.
pub struct MuxDriver<E: Endpoint> {
    socket: UdpSocket,
    clock: WallClock,
    cfg: MuxConfig,
    /// Every armed wakeup of every connection, earliest first.
    timers: BinaryHeap<Reverse<TimerEntry>>,
    /// Timers armed so far: the next entry's arming order.
    next_arm: u64,
    conns: BTreeMap<ConnId, Conn<E>>,
    routes: BTreeMap<(SocketAddr, FlowId), ConnId>,
    acceptor: Option<Acceptor<E>>,
    out: Outbox,
    next_conn: u64,
    /// Per-mux datagram counter, stamped into frames as `seq` (tracing).
    next_seq: u64,
    /// Encoded frames whose send hit `WouldBlock`; retried first thing
    /// every `drive_once`, in order. While non-empty, fresh sends queue
    /// behind it so the datagram stream never reorders.
    tx_backlog: VecDeque<(ConnId, SocketAddr, Vec<u8>)>,
    recv_buf: Vec<u8>,
    stats: MuxStats,
}

impl<E: Endpoint> MuxDriver<E> {
    /// Bind a mux on `bind_addr` with default tuning.
    pub fn bind(bind_addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with(bind_addr, MuxConfig::default())
    }

    /// Bind a mux on `bind_addr` with explicit tuning.
    pub fn bind_with(bind_addr: impl ToSocketAddrs, cfg: MuxConfig) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_nonblocking(true)?;
        Ok(MuxDriver {
            socket,
            clock: WallClock::new(),
            cfg,
            timers: BinaryHeap::new(),
            next_arm: 0,
            conns: BTreeMap::new(),
            routes: BTreeMap::new(),
            acceptor: None,
            out: Outbox::new(),
            next_conn: 0,
            next_seq: 0,
            tx_backlog: VecDeque::new(),
            recv_buf: vec![0; MAX_FRAME_LEN + 1],
            stats: MuxStats::default(),
        })
    }

    /// The socket's local address (useful after binding to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Install the accept-on-first-frame callback: consulted whenever a
    /// decodable frame arrives from an unknown `(peer, flow)`. Returning
    /// `None` drops the datagram (counted as unroutable). An acceptor that
    /// admits any peer lets any local process spend connection slots; the
    /// backends' and [`accept_sessions`](crate::accept_sessions)'s
    /// acceptors admit capability offers only.
    pub fn set_acceptor(
        &mut self,
        acceptor: impl FnMut(SocketAddr, &Frame) -> Option<Accepted<E>> + 'static,
    ) {
        self.acceptor = Some(Box::new(acceptor));
    }

    /// Register a connection to `peer` owning `flows` (the client role:
    /// the endpoint's `on_start` runs immediately, typically emitting a
    /// SYN). Fails if any `(peer, flow)` route is already taken, if
    /// `flows` is empty, or at the connection cap.
    pub fn add_connection(
        &mut self,
        peer: SocketAddr,
        flows: Vec<FlowId>,
        endpoint: E,
    ) -> io::Result<ConnId> {
        let id = self.register(peer, flows, endpoint)?;
        self.drive_endpoint(id, |ep, out| ep.on_start(out))?;
        Ok(id)
    }

    fn register(&mut self, peer: SocketAddr, flows: Vec<FlowId>, ep: E) -> io::Result<ConnId> {
        if flows.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a connection must own at least one flow id",
            ));
        }
        if self.conns.len() >= self.cfg.max_conns {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                format!("connection cap ({}) reached", self.cfg.max_conns),
            ));
        }
        for f in &flows {
            if self.routes.contains_key(&(peer, *f)) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("route ({peer}, flow {f}) already taken"),
                ));
            }
        }
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        for f in &flows {
            self.routes.insert((peer, *f), id);
        }
        self.conns.insert(
            id,
            Conn {
                ep: Some(ep),
                peer,
                flows,
                stats: ConnStats {
                    last_activity: self.clock.now(),
                    ..ConnStats::default()
                },
            },
        );
        Ok(id)
    }

    /// Tear a connection down: unroute its flows, purge its timers, return
    /// its endpoint for inspection. `None` if already gone.
    pub fn close(&mut self, id: ConnId) -> Option<E> {
        let conn = self.conns.remove(&id)?;
        for f in &conn.flows {
            self.routes.remove(&(conn.peer, *f));
        }
        self.timers.retain(|&Reverse((_, _, conn, _))| conn != id);
        self.stats.conns_closed += 1;
        conn.ep
    }

    /// Close every connection with no send/receive activity for at least
    /// `idle`, returning the reaped endpoints.
    pub fn reap_stale(&mut self, idle: Duration) -> Vec<(ConnId, E)> {
        let now = self.clock.now();
        let stale: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| now.saturating_since(c.stats.last_activity) >= idle)
            .map(|(id, _)| *id)
            .collect();
        stale
            .into_iter()
            .filter_map(|id| {
                let ep = self.close(id)?;
                self.stats.conns_reaped += 1;
                Some((id, ep))
            })
            .collect()
    }

    /// The endpoint of a live connection.
    pub fn endpoint(&self, id: ConnId) -> Option<&E> {
        self.conns.get(&id).and_then(|c| c.ep.as_ref())
    }

    /// Activity counters of a live connection.
    pub fn conn_stats(&self, id: ConnId) -> Option<ConnStats> {
        self.conns.get(&id).map(|c| c.stats)
    }

    /// Ids of every live connection, ascending.
    pub fn conn_ids(&self) -> Vec<ConnId> {
        self.conns.keys().copied().collect()
    }

    /// Number of live connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The connection a `(peer, flow)` datagram would route to.
    pub fn route(&self, peer: SocketAddr, flow: FlowId) -> Option<ConnId> {
        self.routes.get(&(peer, flow)).copied()
    }

    /// Whole-mux activity counters.
    pub fn stats(&self) -> MuxStats {
        self.stats
    }

    /// Earliest armed timer deadline across all connections.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        self.timers.peek().map(|&Reverse((at, ..))| at)
    }

    /// Number of armed timer entries across all connections (stale
    /// generations included until they fire). A connection that completed
    /// its close handshake stops re-arming, so this drains to zero once
    /// its last in-flight timer fires — the no-leak property the
    /// `mux_stream` tests pin down.
    pub fn timer_count(&self) -> usize {
        self.timers.len()
    }

    /// One iteration of the readiness loop: retry backlogged sends, fire
    /// due timers, then drain the socket level-triggered (up to the batch
    /// bound). Sleeps at most `slice` only when the socket was quiet and
    /// no timer fired — any received datagram counts as activity, routed
    /// or not, so a garbage flood cannot put the loop to sleep while real
    /// traffic queues behind it. Returns the number of datagrams
    /// dispatched to endpoints.
    pub fn drive_once(&mut self, slice: Duration) -> io::Result<usize> {
        self.flush_backlog()?;
        let fired = self.fire_due_timers(self.clock.now())?;

        let mut handled = 0usize;
        let mut received = 0usize;
        for _ in 0..RECV_BATCH {
            match self.socket.recv_from(&mut self.recv_buf) {
                Ok((n, from)) => {
                    received += 1;
                    match Frame::decode(&self.recv_buf[..n]) {
                        Ok(frame) => {
                            if self.ingest(from, frame)? {
                                handled += 1;
                            }
                        }
                        Err(_) => self.stats.datagrams_rejected += 1,
                    };
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if is_soft(&e) => self.stats.soft_errors += 1,
                Err(e) => return Err(e),
            }
        }

        if received == 0 && fired == 0 {
            // A pending send backlog still bounds the nap: retrying only
            // needs the peer to have drained a little, so come back soon
            // rather than busy-spinning or oversleeping.
            let mut wait = match self.poll_timeout() {
                Some(at) => at.saturating_since(self.clock.now()).min(slice),
                None => slice,
            };
            if !self.tx_backlog.is_empty() {
                wait = wait.min(Duration::from_micros(100));
            }
            if wait > Duration::ZERO {
                std::thread::sleep(wait);
            }
        }
        Ok(handled)
    }

    /// Route one already-received datagram, exactly as the recv loop does —
    /// the ingress seam for alternative receive paths (recvmmsg batching)
    /// and the `mux_micro` routing benchmark. Returns whether the datagram
    /// reached an endpoint.
    pub fn handle_datagram_from(&mut self, from: SocketAddr, buf: &[u8]) -> io::Result<bool> {
        match Frame::decode(buf) {
            Ok(frame) => self.ingest(from, frame),
            Err(_) => {
                self.stats.datagrams_rejected += 1;
                Ok(false)
            }
        }
    }

    fn ingest(&mut self, from: SocketAddr, frame: Frame) -> io::Result<bool> {
        let id = match self.routes.get(&(from, frame.flow)) {
            Some(&id) => id,
            None => match self.try_accept(from, &frame)? {
                Some(id) => id,
                None => {
                    self.stats.datagrams_unroutable += 1;
                    return Ok(false);
                }
            },
        };
        self.stats.datagrams_received += 1;
        let now = self.clock.now();
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.stats.datagrams_received += 1;
            conn.stats.last_activity = now;
        }
        self.drive_endpoint(id, |ep, out| {
            ep.handle_datagram(out, frame.wire_size, &frame.header)
        })?;
        Ok(true)
    }

    fn try_accept(&mut self, from: SocketAddr, frame: &Frame) -> io::Result<Option<ConnId>> {
        if self.conns.len() >= self.cfg.max_conns {
            return Ok(None);
        }
        let Some(acceptor) = self.acceptor.as_mut() else {
            return Ok(None);
        };
        let Some(Accepted { endpoint, flows }) = acceptor(from, frame) else {
            return Ok(None);
        };
        if !flows.contains(&frame.flow) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "acceptor admitted flow {} without routing it (flows {:?})",
                    frame.flow, flows
                ),
            ));
        }
        let id = self.register(from, flows, endpoint)?;
        self.stats.conns_accepted += 1;
        self.drive_endpoint(id, |ep, out| ep.on_start(out))?;
        Ok(Some(id))
    }

    /// Deliver every timer due at `now`, in `(deadline, arming order)`.
    /// The due set is taken off the heap before any callback runs, so a
    /// timer armed during the sweep waits for the next one even if it is
    /// already due. Stale generations are delivered too — filtering them
    /// is the endpoint's job ([`TimerGens`] fire-and-forget contract);
    /// [`MuxDriver::close`] already purged the timers of closed
    /// connections.
    ///
    /// [`TimerGens`]: qtp_core::TimerGens
    fn fire_due_timers(&mut self, now: SimTime) -> io::Result<usize> {
        let due: Vec<(ConnId, u64)> = std::iter::from_fn(|| {
            let Reverse((at, _, id, token)) = *self.timers.peek()?;
            (at <= now).then(|| {
                self.timers.pop();
                (id, token)
            })
        })
        .collect();
        for &(id, token) in &due {
            self.stats.timers_fired += 1;
            self.drive_endpoint(id, |ep, out| ep.on_timer(out, token))?;
        }
        Ok(due.len())
    }

    /// Run one endpoint callback and apply its commands. The endpoint is
    /// taken out of its slot for the duration so the outbox drain can
    /// borrow the rest of the mux freely — no structural map mutation on
    /// the hot path; nothing in the drain re-enters endpoints, so this is
    /// not observable from outside.
    fn drive_endpoint(
        &mut self,
        id: ConnId,
        f: impl FnOnce(&mut E, &mut Outbox),
    ) -> io::Result<()> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        let peer = conn.peer;
        let Some(mut ep) = conn.ep.take() else {
            return Ok(());
        };
        self.out.now = self.clock.now();
        f(&mut ep, &mut self.out);
        let res = self.flush_cmds(id, peer);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.ep = Some(ep);
        }
        res
    }

    fn flush_cmds(&mut self, id: ConnId, peer: SocketAddr) -> io::Result<()> {
        while let Some(cmd) = self.out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => self.send_frame(id, peer, t)?,
                Command::SetTimer { at, token } => {
                    self.next_arm += 1;
                    self.timers.push(Reverse((at, self.next_arm, id, token)));
                    self.stats.timer_wheel_high_water = self
                        .stats
                        .timer_wheel_high_water
                        .max(self.timers.len() as u64);
                }
                Command::Deliver { bytes, .. } => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.stats.delivered_bytes += bytes;
                    }
                }
            }
        }
        Ok(())
    }

    fn send_frame(&mut self, id: ConnId, peer: SocketAddr, t: Transmit) -> io::Result<()> {
        self.next_seq += 1;
        let frame = Frame {
            flow: t.flow,
            seq: self.next_seq,
            wire_size: t.wire_size,
            header: t.header,
        };
        let bytes = frame
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let now = self.clock.now();
        // While older frames sit in the backlog, every new frame must queue
        // behind them — sending around the backlog would reorder the
        // datagram stream the moment the socket buffer fills.
        let sent = if self.tx_backlog.is_empty() {
            match self.socket.send_to(&bytes, peer) {
                Ok(_) => true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.tx_backlog.push_back((id, peer, bytes));
                    self.stats.sends_requeued += 1;
                    self.note_backlog_depth();
                    false
                }
                Err(e) if is_soft(&e) => {
                    self.stats.soft_errors += 1;
                    false
                }
                Err(e) => return Err(e),
            }
        } else {
            self.tx_backlog.push_back((id, peer, bytes));
            self.stats.sends_requeued += 1;
            self.note_backlog_depth();
            false
        };
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.stats.last_activity = now;
            if sent {
                conn.stats.datagrams_sent += 1;
            }
        }
        if sent {
            self.stats.datagrams_sent += 1;
        }
        Ok(())
    }

    fn note_backlog_depth(&mut self) {
        self.stats.tx_backlog_high_water = self
            .stats
            .tx_backlog_high_water
            .max(self.tx_backlog.len() as u64);
    }

    fn flush_backlog(&mut self) -> io::Result<()> {
        while let Some((id, peer, bytes)) = self.tx_backlog.front() {
            match self.socket.send_to(bytes, *peer) {
                Ok(_) => {
                    self.stats.datagrams_sent += 1;
                    let id = *id;
                    self.tx_backlog.pop_front();
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.stats.datagrams_sent += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if is_soft(&e) => {
                    self.stats.soft_errors += 1;
                    self.tx_backlog.pop_front();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Soft per-datagram failures on UDP (ICMP port-unreachable reflected onto
/// the socket): counted in [`MuxStats::soft_errors`], never loop-fatal —
/// the armed protocol timers handle recovery.
fn is_soft(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionRefused
    )
}

/// Annotate a socket error with which mux of a pair raised it, keeping the
/// original [`io::ErrorKind`] so callers can still match on it.
pub(crate) fn annotate_side(side: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{side}: {e}"))
}

/// Drive the two muxes of a test/example rig in one thread, alternating
/// short [`MuxDriver::drive_once`] slices until `done` or `deadline`.
/// Socket errors are never swallowed: a hard failure on either side aborts
/// the loop at once, annotated `"a side"` / `"b side"` (argument order).
pub fn drive_mux_pair<A: Endpoint, B: Endpoint>(
    a: &mut MuxDriver<A>,
    b: &mut MuxDriver<B>,
    deadline: Duration,
    mut done: impl FnMut(&MuxDriver<A>, &MuxDriver<B>) -> bool,
) -> io::Result<bool> {
    const SLICE: Duration = Duration::from_micros(300);
    let start = std::time::Instant::now();
    loop {
        a.drive_once(SLICE)
            .map_err(|e| annotate_side("a side", e))?;
        b.drive_once(SLICE)
            .map_err(|e| annotate_side("b side", e))?;
        if done(a, b) {
            return Ok(true);
        }
        if start.elapsed() > deadline {
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Arms `(deadline, token)` pairs on start and logs every fired token
    /// into a record shared across connections. The first fire re-arms
    /// `rearm` at the callback's own `now`, when set.
    struct Timed {
        arm: Vec<(SimTime, u64)>,
        rearm: Option<u64>,
        fired: Rc<RefCell<Vec<u64>>>,
    }
    impl Endpoint for Timed {
        fn on_start(&mut self, out: &mut Outbox) {
            for &(at, token) in &self.arm {
                out.set_timer_at(at, token);
            }
        }
        fn on_timer(&mut self, out: &mut Outbox, token: u64) {
            self.fired.borrow_mut().push(token);
            if let Some(next) = self.rearm.take() {
                out.set_timer_at(out.now, next);
            }
        }
    }

    /// A mux with one [`Timed`] connection per list of `(deadline, token)`
    /// arms, added in order. Sweeps are driven with `fire_due_timers` at
    /// explicit times on the mux's own axis, so no test waits on the wall
    /// clock.
    fn timer_rig(
        arms: &[&[(SimTime, u64)]],
    ) -> (MuxDriver<Timed>, Vec<ConnId>, Rc<RefCell<Vec<u64>>>) {
        let mut mux: MuxDriver<Timed> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let fired = Rc::new(RefCell::new(Vec::new()));
        let ids = arms
            .iter()
            .zip(1..)
            .map(|(arm, flow)| {
                let ep = Timed {
                    arm: arm.to_vec(),
                    rearm: None,
                    fired: fired.clone(),
                };
                mux.add_connection(peer, vec![flow], ep).unwrap()
            })
            .collect();
        (mux, ids, fired)
    }

    /// Tokens fired by one sweep at `now`.
    fn sweep(mux: &mut MuxDriver<Timed>, fired: &RefCell<Vec<u64>>, now: SimTime) -> Vec<u64> {
        let n = mux.fire_due_timers(now).unwrap();
        let got = std::mem::take(&mut *fired.borrow_mut());
        assert_eq!(n, got.len());
        got
    }

    #[test]
    fn timers_fire_in_deadline_then_arming_order_across_connections() {
        // Token order differs from arming order on the tied deadline.
        let (mut mux, _, fired) =
            timer_rig(&[&[(t(30), 4), (t(10), 2)], &[(t(10), 1), (t(20), 3)]]);
        assert_eq!(mux.timer_count(), 4);
        assert_eq!(mux.poll_timeout(), Some(t(10)));
        assert_eq!(sweep(&mut mux, &fired, t(5)), Vec::<u64>::new());
        assert_eq!(sweep(&mut mux, &fired, t(10)), vec![2, 1]);
        assert_eq!(sweep(&mut mux, &fired, t(40)), vec![3, 4]);
        assert_eq!(mux.timer_count(), 0);
        assert_eq!(mux.poll_timeout(), None);
        assert_eq!(mux.stats().timers_fired, 4);
    }

    #[test]
    fn timers_never_fire_before_their_deadline() {
        let us = SimTime::from_micros;
        let (mut mux, _, fired) = timer_rig(&[&[(us(1500), 7)]]);
        assert_eq!(sweep(&mut mux, &fired, us(1200)), Vec::<u64>::new());
        assert_eq!(sweep(&mut mux, &fired, us(1499)), Vec::<u64>::new());
        assert_eq!(sweep(&mut mux, &fired, us(1500)), vec![7]);
    }

    #[test]
    fn far_deadlines_still_fire() {
        let (mut mux, _, fired) = timer_rig(&[&[(t(10_000), 42), (t(5), 1), (t(90_000), 43)]]);
        assert_eq!(sweep(&mut mux, &fired, t(100)), vec![1]);
        assert_eq!(sweep(&mut mux, &fired, t(9_999)), Vec::<u64>::new());
        assert_eq!(sweep(&mut mux, &fired, t(10_000)), vec![42]);
        // A big jump straight over a far deadline still fires it.
        assert_eq!(sweep(&mut mux, &fired, t(200_000)), vec![43]);
    }

    #[test]
    fn poll_timeout_stays_exact_through_fires_and_closes() {
        let (mut mux, ids, fired) =
            timer_rig(&[&[(t(10), 1), (t(10_000), 3)], &[(t(20), 2), (t(18), 4)]]);
        let (a, b) = (ids[0], ids[1]);
        assert_eq!(mux.poll_timeout(), Some(t(10)));
        assert_eq!(sweep(&mut mux, &fired, t(15)), vec![1]);
        assert_eq!(mux.poll_timeout(), Some(t(18)));
        // Closing b removes the earliest entry and the one behind it.
        mux.close(b).unwrap();
        assert_eq!(mux.poll_timeout(), Some(t(10_000)));
        mux.close(a).unwrap();
        assert_eq!(mux.poll_timeout(), None);
    }

    #[test]
    fn close_purges_only_its_own_timers() {
        let (mut mux, ids, fired) =
            timer_rig(&[&[(t(10), 1), (t(10_000), 3)], &[(t(10), 2), (t(20), 4)]]);
        mux.close(ids[0]).unwrap();
        assert_eq!(mux.timer_count(), 2);
        assert_eq!(sweep(&mut mux, &fired, t(20_000)), vec![2, 4]);
    }

    #[test]
    fn timer_armed_during_a_sweep_fires_on_the_next_drive_once() {
        let mut mux: MuxDriver<Timed> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let fired = Rc::new(RefCell::new(Vec::new()));
        let ep = Timed {
            arm: vec![(SimTime::ZERO, 1)],
            rearm: Some(2),
            fired: fired.clone(),
        };
        mux.add_connection(peer, vec![1], ep).unwrap();
        // Token 1's callback arms token 2 at its own `now`: already due
        // when the sweep could look again, yet it waits for the next call.
        mux.drive_once(Duration::ZERO).unwrap();
        assert_eq!(*fired.borrow(), vec![1]);
        assert_eq!(mux.timer_count(), 1);
        mux.drive_once(Duration::ZERO).unwrap();
        assert_eq!(*fired.borrow(), vec![1, 2]);
        assert_eq!(mux.timer_count(), 0);
    }

    /// Echoes every datagram back with the header reversed, on `reply_flow`.
    struct Echo {
        reply_flow: FlowId,
        got: Rc<RefCell<u64>>,
    }
    impl Endpoint for Echo {
        fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
            *self.got.borrow_mut() += 1;
            let mut back = header.to_vec();
            back.reverse();
            out.send_new(self.reply_flow, 0, wire_size, back);
        }
    }

    /// Sends one datagram on start, remembers replies.
    struct Pinger {
        flow: FlowId,
        payload: Vec<u8>,
        reply: Option<Vec<u8>>,
    }
    impl Pinger {
        /// A pinger with an empty payload (route and lifecycle tests).
        fn empty(flow: FlowId) -> Self {
            Pinger {
                flow,
                payload: Vec::new(),
                reply: None,
            }
        }
    }
    impl Endpoint for Pinger {
        fn on_start(&mut self, out: &mut Outbox) {
            out.send_new(self.flow, 0, 64, self.payload.clone());
        }
        fn handle_datagram(&mut self, _out: &mut Outbox, _wire_size: u32, header: &[u8]) {
            self.reply = Some(header.to_vec());
        }
    }

    #[test]
    fn mux_routes_many_flows_between_two_sockets() {
        const N: u32 = 8;
        let mut server: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let got = Rc::new(RefCell::new(0u64));
        let got2 = got.clone();
        server.set_acceptor(move |_, frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: frame.flow,
                    got: got2.clone(),
                },
                flows: vec![frame.flow],
            })
        });
        let server_addr = server.local_addr().unwrap();

        let mut client: MuxDriver<Pinger> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let mut ids = Vec::new();
        for f in 0..N {
            let id = client
                .add_connection(
                    server_addr,
                    vec![f],
                    Pinger {
                        flow: f,
                        payload: vec![f as u8, 1, 2],
                        reply: None,
                    },
                )
                .unwrap();
            ids.push(id);
        }
        let ok = drive_mux_pair(&mut client, &mut server, Duration::from_secs(5), |c, _| {
            ids.iter()
                .all(|id| c.endpoint(*id).unwrap().reply.is_some())
        })
        .unwrap();
        assert!(ok, "all {N} echoes should complete");
        assert_eq!(*got.borrow(), u64::from(N));
        assert_eq!(server.conn_count(), N as usize);
        assert_eq!(server.stats().conns_accepted, u64::from(N));
        for (f, id) in ids.iter().enumerate() {
            // Each pinger got *its own* payload back, so routing never
            // crossed flows.
            assert_eq!(
                client.endpoint(*id).unwrap().reply.as_deref(),
                Some(&[2, 1, f as u8][..])
            );
        }
    }

    #[test]
    fn drive_mux_pair_surfaces_socket_errors_with_side_attribution() {
        // An endpoint whose first transmit (from a timer, so inside the
        // loop rather than in add_connection) cannot be framed: the send
        // path fails with InvalidData, and drive_mux_pair must abort with
        // that error, annotated by side, instead of spinning to the
        // deadline.
        struct Unframable;
        impl Endpoint for Unframable {
            fn on_start(&mut self, out: &mut Outbox) {
                out.set_timer_at(out.now, 1);
            }
            fn on_timer(&mut self, out: &mut Outbox, _token: u64) {
                out.send_new(0, 0, 64, vec![0; MAX_FRAME_LEN]);
            }
        }
        let mut server: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let mut client: MuxDriver<Unframable> = MuxDriver::bind("127.0.0.1:0").unwrap();
        client
            .add_connection(server.local_addr().unwrap(), vec![0], Unframable)
            .unwrap();
        let err = drive_mux_pair(&mut client, &mut server, Duration::from_secs(5), |_, _| {
            false
        })
        .expect_err("unframable transmit must surface as an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("a side"),
            "error names the failing side: {err}"
        );
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        struct TimerBox(Vec<u64>);
        impl Endpoint for TimerBox {
            fn on_start(&mut self, out: &mut Outbox) {
                // Armed out of order on purpose.
                for (ms, token) in [(30, 3), (10, 1), (20, 2)] {
                    out.set_timer_at(out.now + Duration::from_millis(ms), token);
                }
            }
            fn on_timer(&mut self, _out: &mut Outbox, token: u64) {
                self.0.push(token);
            }
        }
        let mut mux: MuxDriver<TimerBox> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let id = mux
            .add_connection(peer, vec![1], TimerBox(Vec::new()))
            .unwrap();
        let t0 = std::time::Instant::now();
        while mux.endpoint(id).unwrap().0.len() < 3 && t0.elapsed() < Duration::from_secs(5) {
            mux.drive_once(Duration::from_millis(5)).unwrap();
        }
        assert_eq!(mux.endpoint(id).unwrap().0, vec![1, 2, 3]);
        assert_eq!(mux.stats().timers_fired, 3);
    }

    #[test]
    fn duplicate_routes_are_rejected() {
        let mut mux: MuxDriver<Pinger> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        mux.add_connection(peer, vec![1, 2], Pinger::empty(1))
            .unwrap();
        let err = mux
            .add_connection(peer, vec![2], Pinger::empty(2))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        // Same flow to a *different* peer is a different route.
        let other: SocketAddr = "127.0.0.1:10".parse().unwrap();
        mux.add_connection(other, vec![2], Pinger::empty(2))
            .unwrap();
        assert_eq!(mux.conn_count(), 2);
    }

    #[test]
    fn close_unroutes_and_cancels_timers() {
        struct Rearming;
        impl Endpoint for Rearming {
            fn on_start(&mut self, out: &mut Outbox) {
                out.set_timer_at(out.now + Duration::from_millis(5), 1);
            }
            fn on_timer(&mut self, out: &mut Outbox, token: u64) {
                out.set_timer_at(out.now + Duration::from_millis(5), token + 1);
            }
        }
        let mut mux: MuxDriver<Rearming> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let id = mux.add_connection(peer, vec![1], Rearming).unwrap();
        assert!(mux.poll_timeout().is_some());
        assert!(mux.close(id).is_some());
        assert_eq!(mux.poll_timeout(), None, "timers purged with the conn");
        assert_eq!(mux.route(peer, 1), None, "route removed");
        assert!(mux.close(id).is_none(), "double close is a no-op");
        // Late datagrams for the closed conn are unroutable, not fatal.
        let frame = Frame {
            flow: 1,
            seq: 1,
            wire_size: 64,
            header: vec![1],
        };
        let routed = mux
            .handle_datagram_from(peer, &frame.encode().unwrap())
            .unwrap();
        assert!(!routed);
        assert_eq!(mux.stats().datagrams_unroutable, 1);
    }

    #[test]
    fn reaper_removes_only_idle_connections() {
        let mut mux: MuxDriver<Pinger> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let a = mux.add_connection(peer, vec![1], Pinger::empty(1)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // Fresh activity on a second connection.
        let b = mux.add_connection(peer, vec![2], Pinger::empty(2)).unwrap();
        let reaped = mux.reap_stale(Duration::from_millis(25));
        assert_eq!(
            reaped.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a]
        );
        assert_eq!(mux.conn_count(), 1);
        assert!(mux.endpoint(b).is_some());
        assert_eq!(mux.stats().conns_reaped, 1);
    }

    #[test]
    fn acceptor_must_route_the_triggering_flow() {
        let mut mux: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        mux.set_acceptor(|_, _frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: 99,
                    got: Rc::new(RefCell::new(0)),
                },
                flows: vec![99], // bug: does not include the triggering flow
            })
        });
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let frame = Frame {
            flow: 7,
            seq: 1,
            wire_size: 64,
            header: vec![],
        };
        let err = mux
            .handle_datagram_from(peer, &frame.encode().unwrap())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn garbage_and_unroutable_datagrams_are_counted_not_fatal() {
        let mut mux: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert!(!mux.handle_datagram_from(peer, b"not a frame").unwrap());
        assert_eq!(mux.stats().datagrams_rejected, 1);
        let frame = Frame {
            flow: 3,
            seq: 1,
            wire_size: 64,
            header: vec![],
        };
        // No acceptor installed: valid frame, nowhere to go.
        assert!(!mux
            .handle_datagram_from(peer, &frame.encode().unwrap())
            .unwrap());
        assert_eq!(mux.stats().datagrams_unroutable, 1);
    }

    #[test]
    fn connection_cap_stops_accepting() {
        let cfg = MuxConfig { max_conns: 1 };
        let mut mux: MuxDriver<Echo> = MuxDriver::bind_with("127.0.0.1:0", cfg).unwrap();
        mux.set_acceptor(|_, frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: frame.flow,
                    got: Rc::new(RefCell::new(0)),
                },
                flows: vec![frame.flow],
            })
        });
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        for flow in [1u32, 2u32] {
            let frame = Frame {
                flow,
                seq: 1,
                wire_size: 64,
                header: vec![],
            };
            mux.handle_datagram_from(peer, &frame.encode().unwrap())
                .unwrap();
        }
        assert_eq!(mux.conn_count(), 1, "second accept blocked by the cap");
        assert_eq!(mux.stats().datagrams_unroutable, 1);
    }
}
