//! `mux-bulk-64`: 64 fully reliable stream transfers multiplexed over one
//! loopback UDP socket pair.
//!
//! The client `MuxDriver` carries 64 sending `Session`s; the server
//! `MuxDriver` accepts one receiving `Session` per connection on its
//! first capability offer (the plan-template rule of
//! `qtp_io::accept_sessions`, installed through `set_acceptor` so the
//! traced run can mount the sessions in a [`Tap`](crate::tap::Tap)). Each
//! connection sends a seeded, position-dependent payload through
//! `SendStream::send`; the receiver checks every byte out of
//! `RecvStream::recv` and the transfer ends with FIN / FIN-ACK.

use std::cell::RefCell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use qtp_core::session::{ConnectionPlan, Profile, Session};
use qtp_core::stream::{RecvStream, SendStream, StreamConfig, StreamError};
use qtp_core::wire;
use qtp_io::mux::{Accepted, ConnId, MuxConfig, MuxDriver, MuxStats};
use qtp_metrics::trace::{CounterSet, Tracer};
use qtp_simnet::time::Rate;

use crate::tap::{Mounted, SpanLog};

/// Per-call time slice handed to `MuxDriver::drive_once`.
const SLICE: Duration = Duration::from_micros(300);

/// The workload's shape.
pub struct MuxWorkload {
    /// Bytes per `SendStream::send` call.
    pub msg: usize,
    /// Payload bytes per data packet.
    pub payload: u32,
    /// Wall-clock bound of one transfer round.
    pub deadline: Duration,
    /// One payload per connection, generated from the seed.
    pub data: Vec<Vec<u8>>,
}

impl MuxWorkload {
    /// 64 connections of 256 KiB each, sent in 8 KiB messages.
    pub fn bulk_64(seed: u64) -> Self {
        MuxWorkload {
            msg: 8 * 1024,
            payload: 1200,
            deadline: Duration::from_secs(60),
            data: (0..64).map(|c| payload(seed, c, 256 * 1024)).collect(),
        }
    }

    /// Concurrent connections.
    pub fn conns(&self) -> usize {
        self.data.len()
    }

    fn plan(&self) -> ConnectionPlan {
        ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(16)))
            .stream(StreamConfig::with_send_buf(256 * 1024))
            .payload(self.payload)
    }

    /// Bind both muxes, install the acceptor and register every client
    /// connection (each sends its SYN from `add_connection`).
    pub fn setup<E: Mounted>(&self, log: &SpanLog) -> std::io::Result<MuxRig<E>> {
        let plan = self.plan();
        let cfg = MuxConfig {
            max_conns: 2 * self.conns(),
            ..MuxConfig::default()
        };
        let mut server: MuxDriver<E> = MuxDriver::bind_with("127.0.0.1:0", cfg.clone())?;
        let accepted: Rc<RefCell<Vec<(u32, RecvStream, Tracer)>>> = Rc::default();
        {
            let accepted = accepted.clone();
            let plan = plan.clone();
            let log = log.clone();
            server.set_acceptor(move |_peer: SocketAddr, frame| {
                if frame.flow % 2 != 0 || !wire::carries_capabilities(&frame.header) {
                    return None;
                }
                let session = Session::receiver(frame.flow, frame.flow + 1, 0, &plan);
                let recv = session.recv_stream()?;
                accepted
                    .borrow_mut()
                    .push((frame.flow, recv, session.tracer()));
                Some(Accepted {
                    endpoint: E::mount(session, &log),
                    flows: vec![frame.flow, frame.flow + 1],
                })
            });
        }
        let server_addr = server.local_addr()?;
        let mut client: MuxDriver<E> = MuxDriver::bind_with("127.0.0.1:0", cfg)?;
        let mut conns = Vec::with_capacity(self.conns());
        for i in 0..self.conns() {
            let data_flow = 2 * i as u32;
            let session = Session::sender(data_flow, 0, &plan);
            let send = session
                .send_stream()
                .ok_or_else(|| std::io::Error::other("stream plan gave no send stream"))?;
            let id = client.add_connection(
                server_addr,
                vec![data_flow, data_flow + 1],
                E::mount(session, log),
            )?;
            conns.push(Conn {
                id,
                send,
                sent: 0,
                recv: None,
                rx_tracer: None,
                received: 0,
            });
        }
        Ok(MuxRig {
            client,
            server,
            accepted,
            conns,
        })
    }
}

/// Byte `pos` of connection `conn`'s payload: a pure function of the
/// seed, the connection and the position, so any lost, duplicated or
/// misplaced chunk fails the comparison.
fn payload(seed: u64, conn: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|pos| (splitmix(seed ^ (conn << 40) ^ (pos >> 3)) >> ((pos & 7) * 8)) as u8)
        .collect()
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Conn {
    id: ConnId,
    send: SendStream,
    sent: usize,
    recv: Option<RecvStream>,
    rx_tracer: Option<Tracer>,
    received: usize,
}

/// Two bound muxes with every connection registered.
pub struct MuxRig<E: Mounted> {
    client: MuxDriver<E>,
    server: MuxDriver<E>,
    accepted: Rc<RefCell<Vec<(u32, RecvStream, Tracer)>>>,
    conns: Vec<Conn>,
}

/// Caller-side spans of the mux run (filled only when traced).
#[derive(Debug, Clone, Copy, Default)]
pub struct MuxSpans {
    /// `drive_once` calls, both muxes.
    pub drive_calls: u64,
    /// Calls that reached no endpoint (nothing received, no timer due).
    pub idle_calls: u64,
    /// Wall time of the calls that reached an endpoint.
    pub busy_drive: Duration,
    /// Endpoint time inside those calls.
    pub busy_endpoint: Duration,
    /// `SendStream::send` calls.
    pub send_calls: u64,
    /// Of which rejected with `Full`.
    pub send_full: u64,
    /// Wall time inside `SendStream::send`.
    pub send_time: Duration,
    /// Bytes accepted by `SendStream::send`.
    pub send_bytes: u64,
    /// Wall time inside `RecvStream::recv`.
    pub recv_time: Duration,
    /// Bytes returned by `RecvStream::recv`.
    pub recv_bytes: u64,
}

/// What one transfer round produced.
#[derive(Debug, Clone)]
pub struct MuxRun {
    /// Connections that completed (byte-exact, FIN / FIN-ACK done).
    pub completed: usize,
    /// Hard errors: corrupted or misplaced bytes.
    pub errors: Vec<String>,
    /// Application data delivered at the receivers, in payload-sized
    /// packets.
    pub delivered_pkts: u64,
    /// New data packets the senders sent.
    pub sent_new: u64,
    /// Sender-side counters, all connections.
    pub tx_counters: CounterSet,
    /// Receiver-side counters, all connections.
    pub rx_counters: CounterSet,
    /// Client mux counters.
    pub client: MuxStats,
    /// Server mux counters.
    pub server: MuxStats,
    /// Wall time of the round.
    pub wall: Duration,
    /// Process CPU time of the round.
    pub cpu: Duration,
    /// Caller-side spans.
    pub spans: MuxSpans,
}

impl<E: Mounted> MuxRig<E> {
    /// Transfer every payload; `traced` records caller spans.
    pub fn run(mut self, w: &MuxWorkload, log: &SpanLog, traced: bool) -> std::io::Result<MuxRun> {
        let mut spans = MuxSpans::default();
        let mut errors = Vec::new();
        let cpu0 = crate::sys::cpu_time();
        let start = Instant::now();
        let mut done = vec![false; self.conns.len()];
        loop {
            for (c, data) in self.conns.iter_mut().zip(w.data.iter()) {
                feed(c, data, w.msg, traced.then_some(&mut spans));
            }
            for side in 0..2 {
                let calls0 = log.borrow().calls;
                let ep0 = log.borrow().call_ns;
                let t0 = traced.then(Instant::now);
                if side == 0 {
                    self.client.drive_once(SLICE)?;
                } else {
                    self.server.drive_once(SLICE)?;
                }
                if let Some(t0) = t0 {
                    let dt = t0.elapsed();
                    let log = log.borrow();
                    spans.drive_calls += 1;
                    if log.calls == calls0 {
                        spans.idle_calls += 1;
                    } else {
                        spans.busy_drive += dt;
                        spans.busy_endpoint += Duration::from_nanos(log.call_ns - ep0);
                    }
                }
            }
            for (flow, recv, tracer) in self.accepted.borrow_mut().drain(..) {
                if let Some(c) = self.conns.get_mut(flow as usize / 2) {
                    c.recv = Some(recv);
                    c.rx_tracer = Some(tracer);
                }
            }
            let mut all = true;
            for (i, (c, data)) in self.conns.iter_mut().zip(w.data.iter()).enumerate() {
                if done[i] {
                    continue;
                }
                drain(c, data, traced.then_some(&mut spans), &mut errors);
                let closed = self
                    .client
                    .endpoint(c.id)
                    .is_some_and(|e| e.session().is_closed());
                let finished = c.recv.as_ref().is_some_and(|r| r.is_finished());
                done[i] = closed && finished && c.received == data.len();
                all &= done[i];
            }
            if all || !errors.is_empty() || start.elapsed() > w.deadline {
                break;
            }
        }
        let wall = start.elapsed();
        let cpu = crate::sys::cpu_time().saturating_sub(cpu0);

        let mut tx_counters = CounterSet::default();
        let mut rx_counters = CounterSet::default();
        let mut sent_new = 0;
        let mut delivered_bytes = 0;
        for c in &self.conns {
            if let Some(ep) = self.client.endpoint(c.id) {
                tx_counters.merge(&ep.session().tracer().counters());
                sent_new += ep.session().sent_new();
            }
            if let Some(t) = &c.rx_tracer {
                rx_counters.merge(&t.counters());
            }
            delivered_bytes += c.received as u64;
        }
        Ok(MuxRun {
            completed: done.iter().filter(|d| **d).count(),
            errors,
            delivered_pkts: delivered_bytes / u64::from(w.payload),
            sent_new,
            tx_counters,
            rx_counters,
            client: self.client.stats(),
            server: self.server.stats(),
            wall,
            cpu,
            spans,
        })
    }
}

/// Offer the connection's next messages until the send buffer is full,
/// then finish the stream once the whole payload was accepted.
fn feed(c: &mut Conn, data: &[u8], msg: usize, mut spans: Option<&mut MuxSpans>) {
    while c.sent < data.len() {
        let end = (c.sent + msg).min(data.len());
        let t0 = spans.is_some().then(Instant::now);
        let res = c.send.send(&data[c.sent..end]);
        if let (Some(s), Some(t0)) = (spans.as_deref_mut(), t0) {
            s.send_time += t0.elapsed();
            s.send_calls += 1;
            match res {
                Ok(()) => s.send_bytes += (end - c.sent) as u64,
                Err(_) => s.send_full += 1,
            }
        }
        match res {
            Ok(()) => c.sent = end,
            Err(StreamError::Full) => break,
            Err(e) => panic!("SendStream::send rejected a valid message: {e}"),
        }
    }
    if c.sent == data.len() && !c.send.is_finished() {
        c.send.finish();
    }
}

/// Take everything the receiver has and compare it with the payload at
/// the same position.
fn drain(c: &mut Conn, data: &[u8], mut spans: Option<&mut MuxSpans>, errors: &mut Vec<String>) {
    let Some(recv) = &c.recv else { return };
    loop {
        let t0 = spans.is_some().then(Instant::now);
        let msg = recv.recv();
        if let (Some(s), Some(t0)) = (spans.as_deref_mut(), t0) {
            s.recv_time += t0.elapsed();
            s.recv_bytes += msg.as_ref().map_or(0, |m| m.len() as u64);
        }
        let Some(msg) = msg else { return };
        let end = c.received + msg.len();
        if data.get(c.received..end) != Some(&msg[..]) {
            errors.push(format!(
                "connection {}: bytes {}..{end} differ from the sent payload",
                c.id, c.received
            ));
            return;
        }
        c.received = end;
    }
}
