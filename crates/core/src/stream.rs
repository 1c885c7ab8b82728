//! Application data plane: message-oriented stream handles over a [`Session`].
//!
//! A [`SendStream`]/[`RecvStream`] pair gives applications a byte/message
//! data plane on top of the negotiated transport:
//!
//! * `send` enqueues a message into a bounded buffer (backpressure via
//!   [`StreamError::Full`]); the sender endpoint drains it at the paced rate.
//! * Under fully-reliable profiles messages ride a u32-length-prefixed byte
//!   stream chunked into MTU-sized `StreamData` packets and are reassembled
//!   in order. Under partial/unreliable profiles each message maps to exactly
//!   one packet and is delivered as it arrives — late retransmissions whose
//!   age exceeds the message TTL are dropped at the receiver.
//! * `finish` starts the wire-level close handshake (FIN / FIN-ACK with a
//!   drain state); the receiver surfaces it as `SessionEvent::Finished`.
//!
//! Handles are cheap clones of shared state (`Rc<RefCell<..>>`) so an
//! application can keep them after moving the [`Session`] into a driver.
//!
//! **Copies.** Every copy a payload byte takes is one slice copy (memcpy),
//! never a per-byte loop. Sending over a socket: `send` copies the message
//! into the shared queue; chunked mode copies it into the staging buffer
//! (behind its length prefix) and copies each chunk out of it (message mode
//! moves the message instead); `QtpPacket::encode` copies the chunk into
//! the packet header, which the sender keeps for retransmission by taking
//! the chunk back after the encode; `qtp-io` copies the header into a frame
//! and the kernel copies the frame. Receiving: the kernel copies into the
//! mux's receive buffer, frame and packet decode copy the header and then
//! the payload out of it; chunked mode copies each acknowledged payload
//! into the parse buffer and each parsed message out of it (message mode
//! moves the payload); `recv` moves the message out. In the simulator the
//! header is moved through the network, so the kernel and frame copies
//! drop out. Both buffers compact in amortised O(1) per byte: the staging
//! buffer only once its consumed prefix is longer than the rest, the parse
//! buffer once per `drain`, after every complete message is cut out.
//!
//! [`Session`]: crate::session::Session

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use qtp_metrics::trace::Tracer;

use crate::wire::MAX_STREAM_PAYLOAD;

/// Default send-buffer capacity in bytes.
pub const DEFAULT_SEND_BUF: usize = 256 * 1024;

/// Pure, clonable configuration for the stream data plane. Attach it to a
/// [`ConnectionPlan`](crate::session::ConnectionPlan) with
/// [`stream()`](crate::session::ConnectionPlan::stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Bytes of queued, not-yet-transmitted application data accepted before
    /// `send` reports [`StreamError::Full`].
    pub send_buf: usize,
    /// Default per-message TTL in microseconds (0 = fall back to the
    /// negotiated partial-reliability TTL, if any). Only meaningful under
    /// non-chunked (partial/unreliable) delivery.
    pub default_ttl_micros: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            send_buf: DEFAULT_SEND_BUF,
            default_ttl_micros: 0,
        }
    }
}

impl StreamConfig {
    /// Config with an explicit send-buffer capacity.
    pub fn with_send_buf(send_buf: usize) -> Self {
        StreamConfig {
            send_buf,
            ..Self::default()
        }
    }

    /// Sets the default per-message TTL in microseconds.
    pub fn default_ttl_micros(mut self, ttl: u32) -> Self {
        self.default_ttl_micros = ttl;
        self
    }
}

/// Errors surfaced by [`SendStream::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The bounded send buffer is full; retry after a `Writable` event.
    Full,
    /// `finish` was already called; no further sends are accepted.
    Finished,
    /// Message exceeds [`MAX_STREAM_PAYLOAD`] under one-message-per-packet
    /// (partial/unreliable) delivery, where messages cannot be chunked.
    TooLarge,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Full => write!(f, "send buffer full"),
            StreamError::Finished => write!(f, "stream already finished"),
            StreamError::TooLarge => {
                write!(f, "message exceeds {MAX_STREAM_PAYLOAD} bytes")
            }
        }
    }
}

impl std::error::Error for StreamError {}

struct QueuedMsg {
    bytes: Vec<u8>,
    ttl_micros: u32,
}

/// Sender-side shared state between the app handle and the endpoint.
pub(crate) struct SendShared {
    queue: VecDeque<QueuedMsg>,
    queued_bytes: usize,
    cap: usize,
    /// Chunked = length-prefixed byte stream (fully-reliable profiles);
    /// otherwise one whole message per packet.
    chunked: bool,
    default_ttl_micros: u32,
    finished: bool,
    /// A `send` bounced off the full buffer; arm the writable edge once
    /// space frees up.
    notify_writable: bool,
    writable_edge: bool,
    msgs_submitted: u64,
}

impl SendShared {
    fn new(cfg: &StreamConfig, chunked: bool) -> Self {
        SendShared {
            queue: VecDeque::new(),
            queued_bytes: 0,
            cap: cfg.send_buf.max(1),
            chunked,
            default_ttl_micros: cfg.default_ttl_micros,
            finished: false,
            notify_writable: false,
            writable_edge: false,
            msgs_submitted: 0,
        }
    }
}

/// Application handle for submitting messages; clone freely.
#[derive(Clone)]
pub struct SendStream {
    shared: Rc<RefCell<SendShared>>,
}

impl std::fmt::Debug for SendStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("SendStream")
            .field("queued_bytes", &s.queued_bytes)
            .field("finished", &s.finished)
            .finish()
    }
}

impl SendStream {
    /// Enqueues one message with the config's default TTL.
    pub fn send(&self, bytes: &[u8]) -> Result<(), StreamError> {
        self.send_with_ttl(bytes, 0)
    }

    /// Enqueues one message with an explicit TTL in microseconds
    /// (0 = use the config default / negotiated TTL).
    ///
    /// An empty buffer always accepts one message, even past capacity, so a
    /// single oversized-but-chunkable message can never deadlock.
    pub fn send_with_ttl(&self, bytes: &[u8], ttl_micros: u32) -> Result<(), StreamError> {
        let mut s = self.shared.borrow_mut();
        if s.finished {
            return Err(StreamError::Finished);
        }
        if !s.chunked && bytes.len() > MAX_STREAM_PAYLOAD {
            return Err(StreamError::TooLarge);
        }
        if !s.queue.is_empty() && s.queued_bytes + bytes.len() > s.cap {
            s.notify_writable = true;
            return Err(StreamError::Full);
        }
        s.queued_bytes += bytes.len();
        s.msgs_submitted += 1;
        let ttl = if ttl_micros != 0 {
            ttl_micros
        } else {
            s.default_ttl_micros
        };
        s.queue.push_back(QueuedMsg {
            bytes: bytes.to_vec(),
            ttl_micros: ttl,
        });
        Ok(())
    }

    /// Signals end of stream: once the buffer drains (and, under reliable
    /// profiles, every packet is acknowledged) the endpoint sends FIN and
    /// completes the wire-level close handshake.
    pub fn finish(&self) {
        self.shared.borrow_mut().finished = true;
    }

    /// True once `finish` was called.
    pub fn is_finished(&self) -> bool {
        self.shared.borrow().finished
    }

    /// Bytes currently queued and not yet handed to the transport.
    pub fn queued_bytes(&self) -> usize {
        self.shared.borrow().queued_bytes
    }

    /// Total messages accepted by `send` so far.
    pub fn messages_submitted(&self) -> u64 {
        self.shared.borrow().msgs_submitted
    }
}

/// Receiver-side shared state between the app handle and the endpoint.
pub(crate) struct RecvShared {
    messages: VecDeque<Vec<u8>>,
    finished: bool,
    finished_edge: bool,
    readable_since_poll: u64,
    msgs_received: u64,
    bytes_received: u64,
    /// The owning endpoint's tracer: TTL drops live in its [`CounterSet`]
    /// (one source of truth shared with the receiver's emit site).
    ///
    /// [`CounterSet`]: qtp_metrics::trace::CounterSet
    tracer: Tracer,
}

impl RecvShared {
    fn new(tracer: Tracer) -> Self {
        RecvShared {
            messages: VecDeque::new(),
            finished: false,
            finished_edge: false,
            readable_since_poll: 0,
            msgs_received: 0,
            bytes_received: 0,
            tracer,
        }
    }

    fn push_msg(&mut self, bytes: Vec<u8>) {
        self.msgs_received += 1;
        self.bytes_received += bytes.len() as u64;
        self.readable_since_poll += 1;
        self.messages.push_back(bytes);
    }
}

/// Application handle for receiving messages; clone freely.
#[derive(Clone)]
pub struct RecvStream {
    shared: Rc<RefCell<RecvShared>>,
}

impl std::fmt::Debug for RecvStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("RecvStream")
            .field("available", &s.messages.len())
            .field("finished", &s.finished)
            .finish()
    }
}

impl RecvStream {
    /// Pops the next complete message, if any.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.shared.borrow_mut().messages.pop_front()
    }

    /// Number of complete messages currently buffered.
    pub fn available(&self) -> usize {
        self.shared.borrow().messages.len()
    }

    /// True once the peer's FIN was processed and all deliverable data is in.
    pub fn is_finished(&self) -> bool {
        self.shared.borrow().finished
    }

    /// Total messages delivered to this stream.
    pub fn messages_received(&self) -> u64 {
        self.shared.borrow().msgs_received
    }

    /// Total payload bytes delivered to this stream.
    pub fn bytes_received(&self) -> u64 {
        self.shared.borrow().bytes_received
    }

    /// Messages dropped at the receiver because their TTL had expired by the
    /// time a (re)transmission arrived. Reads the endpoint's per-connection
    /// counters — the receiver's `pkt_dropped` trace emits are the single
    /// source of truth.
    pub fn ttl_dropped(&self) -> u64 {
        self.shared.borrow().tracer.counters().ttl_drops
    }
}

// ---------------------------------------------------------------------------
// Endpoint-side plumbing (crate-private).
// ---------------------------------------------------------------------------

/// Sender-endpoint view: drains the shared queue into wire-sized chunks.
pub(crate) struct StreamTx {
    shared: Rc<RefCell<SendShared>>,
    /// Chunked mode: length-prefixed bytes; `staged[staged_off..]` is not
    /// yet packetised.
    staged: Vec<u8>,
    /// Consumed prefix of `staged`, at most half its length between calls.
    staged_off: usize,
}

impl StreamTx {
    pub(crate) fn new(cfg: &StreamConfig, chunked: bool) -> Self {
        StreamTx {
            shared: Rc::new(RefCell::new(SendShared::new(cfg, chunked))),
            staged: Vec::new(),
            staged_off: 0,
        }
    }

    /// App-facing handle sharing this endpoint's state.
    pub(crate) fn handle(&self) -> SendStream {
        SendStream {
            shared: Rc::clone(&self.shared),
        }
    }

    pub(crate) fn shared(&self) -> Rc<RefCell<SendShared>> {
        Rc::clone(&self.shared)
    }

    /// Re-locks the framing mode once negotiation settles (before any
    /// stream bytes are packetised).
    pub(crate) fn set_chunked(&self, chunked: bool) {
        self.shared.borrow_mut().chunked = chunked;
    }

    /// True if any bytes remain to packetise.
    pub(crate) fn has_data(&self) -> bool {
        self.staged_off < self.staged.len() || !self.shared.borrow().queue.is_empty()
    }

    /// True once the app called `finish` and every byte was packetised.
    pub(crate) fn fin_ready(&self) -> bool {
        self.shared.borrow().finished && !self.has_data()
    }

    /// Pops the next wire chunk of at most `max` bytes, plus its TTL tag.
    ///
    /// Chunked mode packs as many length-prefixed message bytes as fit (TTL
    /// is always 0: chunking implies full reliability). Message mode pops
    /// exactly one whole message.
    pub(crate) fn next_chunk(&mut self, max: usize) -> Option<(Vec<u8>, u32)> {
        let max = max.clamp(1, MAX_STREAM_PAYLOAD);
        let mut s = self.shared.borrow_mut();
        if s.chunked {
            while self.staged.len() - self.staged_off < max {
                let Some(msg) = s.queue.pop_front() else {
                    break;
                };
                s.queued_bytes -= msg.bytes.len();
                self.staged
                    .extend_from_slice(&(msg.bytes.len() as u32).to_be_bytes());
                self.staged.extend_from_slice(&msg.bytes);
            }
            Self::arm_writable(&mut s);
            let pending = &self.staged[self.staged_off..];
            if pending.is_empty() {
                return None;
            }
            let chunk = pending[..pending.len().min(max)].to_vec();
            self.staged_off += chunk.len();
            // Compact only once the consumed prefix outweighs the rest: the
            // move then costs less than the bytes consumed since the last
            // one, so staging stays O(bytes) however large a message is.
            if self.staged_off * 2 > self.staged.len() {
                self.staged.drain(..self.staged_off);
                self.staged_off = 0;
            }
            Some((chunk, 0))
        } else {
            let msg = s.queue.pop_front()?;
            s.queued_bytes -= msg.bytes.len();
            Self::arm_writable(&mut s);
            Some((msg.bytes, msg.ttl_micros))
        }
    }

    fn arm_writable(s: &mut SendShared) {
        if s.notify_writable && s.queued_bytes < s.cap {
            s.notify_writable = false;
            s.writable_edge = true;
        }
    }
}

/// Receiver-endpoint view: reassembles wire chunks back into messages.
pub(crate) struct StreamRx {
    shared: Rc<RefCell<RecvShared>>,
    /// Chunked mode only: payloads stashed until the cumulative ack passes.
    stash: BTreeMap<u64, Vec<u8>>,
    /// Chunked mode only: in-order byte stream awaiting message parsing.
    parse_buf: Vec<u8>,
    ordered: bool,
    fin_final_seq: Option<u64>,
}

impl StreamRx {
    pub(crate) fn new(ordered: bool, tracer: Tracer) -> Self {
        StreamRx {
            shared: Rc::new(RefCell::new(RecvShared::new(tracer))),
            stash: BTreeMap::new(),
            parse_buf: Vec::new(),
            ordered,
            fin_final_seq: None,
        }
    }

    /// App-facing handle sharing this endpoint's state.
    pub(crate) fn handle(&self) -> RecvStream {
        RecvStream {
            shared: Rc::clone(&self.shared),
        }
    }

    pub(crate) fn shared(&self) -> Rc<RefCell<RecvShared>> {
        Rc::clone(&self.shared)
    }

    pub(crate) fn ordered(&self) -> bool {
        self.ordered
    }

    /// Re-locks the delivery mode once negotiation settles (data arriving
    /// before the handshake is dropped, so no payload can predate this).
    pub(crate) fn set_ordered(&mut self, ordered: bool) {
        self.ordered = ordered;
    }

    /// Accepts a newly arrived payload. Ordered mode stashes it until
    /// [`drain`](Self::drain) observes the cumulative ack passing its seq;
    /// message mode delivers it immediately.
    pub(crate) fn on_payload(&mut self, seq: u64, payload: Vec<u8>) {
        if self.ordered {
            self.stash.insert(seq, payload);
        } else {
            self.shared.borrow_mut().push_msg(payload);
        }
    }

    /// Ordered mode: moves contiguously acknowledged payloads into the parse
    /// buffer and emits every complete length-prefixed message. Also
    /// re-checks FIN completion. Returns the number of messages delivered.
    pub(crate) fn drain(&mut self, cum_ack: u64) -> u64 {
        let mut delivered = 0;
        if self.ordered {
            // Walk the stashed payloads, not the sequence numbers: a FWD or
            // FIN can move `cum_ack` arbitrarily far past stash gaps.
            while let Some(entry) = self.stash.first_entry() {
                if *entry.key() >= cum_ack {
                    break;
                }
                self.parse_buf.extend_from_slice(&entry.remove());
            }
            delivered = self.parse_messages();
        }
        self.maybe_finish(cum_ack);
        delivered
    }

    fn parse_messages(&mut self) -> u64 {
        let mut n = 0;
        let mut at = 0;
        while let Some(&[a, b, c, d]) = self.parse_buf.get(at..at + 4) {
            let start = at + 4;
            let len = u32::from_be_bytes([a, b, c, d]) as usize;
            let Some(msg) = start
                .checked_add(len)
                .and_then(|end| self.parse_buf.get(start..end))
            else {
                break;
            };
            self.shared.borrow_mut().push_msg(msg.to_vec());
            at = start + len;
            n += 1;
        }
        self.parse_buf.drain(..at);
        n
    }

    /// Registers the peer's FIN. Ordered mode finishes only once the
    /// cumulative ack reaches `final_seq` (FIN can arrive out of order);
    /// message mode finishes immediately.
    pub(crate) fn on_fin(&mut self, final_seq: u64, cum_ack: u64) {
        self.fin_final_seq = Some(final_seq);
        self.maybe_finish(cum_ack);
    }

    fn maybe_finish(&mut self, cum_ack: u64) {
        let Some(final_seq) = self.fin_final_seq else {
            return;
        };
        let done = if self.ordered {
            cum_ack >= final_seq
        } else {
            true
        };
        if done {
            let mut s = self.shared.borrow_mut();
            if !s.finished {
                s.finished = true;
                s.finished_edge = true;
            }
        }
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.shared.borrow().finished
    }
}

// ---------------------------------------------------------------------------
// Session-side edge polling (crate-private).
// ---------------------------------------------------------------------------

/// Drains and clears the sender-side writable edge.
pub(crate) fn take_writable_edge(shared: &Rc<RefCell<SendShared>>) -> bool {
    let mut s = shared.borrow_mut();
    std::mem::take(&mut s.writable_edge)
}

/// Drains the receiver-side readable count since the last poll.
pub(crate) fn take_readable(shared: &Rc<RefCell<RecvShared>>) -> u64 {
    let mut s = shared.borrow_mut();
    std::mem::take(&mut s.readable_since_poll)
}

/// Drains and clears the receiver-side finished edge. The session layer
/// tracks `Finished` through `QtpReceiver::finished` instead; the edge
/// stays available for white-box tests of the shared state.
#[cfg(test)]
pub(crate) fn take_finished_edge(shared: &Rc<RefCell<RecvShared>>) -> bool {
    let mut s = shared.borrow_mut();
    std::mem::take(&mut s.finished_edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn backpressure_full_then_writable_edge() {
        let mut tx = StreamTx::new(&StreamConfig::with_send_buf(10), true);
        let h = tx.handle();
        h.send(b"123456").unwrap();
        h.send(b"7890").unwrap(); // exactly at cap
        assert_eq!(h.send(b"x"), Err(StreamError::Full));
        assert!(
            !take_writable_edge(&tx.shared()),
            "no edge until space frees"
        );
        let (chunk, ttl) = tx.next_chunk(100).unwrap();
        assert_eq!(ttl, 0);
        // 4-byte prefix + 6, then 4-byte prefix + 4.
        assert_eq!(chunk.len(), 18);
        assert!(take_writable_edge(&tx.shared()));
        assert!(!take_writable_edge(&tx.shared()), "edge is one-shot");
        h.send(b"x").unwrap();
    }

    #[test]
    fn empty_queue_accepts_oversized_message() {
        let tx = StreamTx::new(&StreamConfig::with_send_buf(4), true);
        let h = tx.handle();
        h.send(&[7u8; 64]).unwrap();
        assert_eq!(h.send(b"y"), Err(StreamError::Full));
    }

    #[test]
    fn finish_rejects_further_sends() {
        let tx = StreamTx::new(&StreamConfig::default(), true);
        let h = tx.handle();
        h.send(b"last").unwrap();
        h.finish();
        assert_eq!(h.send(b"more"), Err(StreamError::Finished));
        assert!(!tx.fin_ready(), "data still queued");
    }

    #[test]
    fn chunker_packs_and_splits_messages() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        let h = tx.handle();
        h.send(&[1u8; 6]).unwrap();
        h.send(&[2u8; 6]).unwrap();
        // Each message costs 10 bytes framed; max 12 splits mid-message.
        let (c1, _) = tx.next_chunk(12).unwrap();
        let (c2, _) = tx.next_chunk(12).unwrap();
        assert_eq!(c1.len(), 12);
        assert_eq!(c2.len(), 8);
        assert!(tx.next_chunk(12).is_none());

        let mut rx = StreamRx::new(true, Tracer::new(0));
        let rh = rx.handle();
        rx.on_payload(0, c1);
        rx.on_payload(1, c2);
        assert_eq!(rx.drain(2), 2);
        assert_eq!(rh.recv().unwrap(), vec![1u8; 6]);
        assert_eq!(rh.recv().unwrap(), vec![2u8; 6]);
        assert!(rh.recv().is_none());
    }

    #[test]
    fn ordered_drain_waits_for_cum_ack() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        let h = tx.handle();
        h.send(b"hello").unwrap();
        let (c, _) = tx.next_chunk(1400).unwrap();
        let mut rx = StreamRx::new(true, Tracer::new(0));
        rx.on_payload(0, c);
        assert_eq!(rx.drain(0), 0, "not yet acked");
        assert_eq!(rx.drain(1), 1);
        assert_eq!(rx.handle().recv().unwrap(), b"hello");
    }

    #[test]
    fn message_mode_one_per_packet_with_ttl() {
        let mut tx = StreamTx::new(&StreamConfig::default().default_ttl_micros(5_000), false);
        let h = tx.handle();
        h.send(b"frame-a").unwrap();
        h.send_with_ttl(b"frame-b", 9_000).unwrap();
        assert_eq!(tx.next_chunk(1400).unwrap(), (b"frame-a".to_vec(), 5_000));
        assert_eq!(tx.next_chunk(1400).unwrap(), (b"frame-b".to_vec(), 9_000));
        assert_eq!(
            h.send(&vec![0u8; MAX_STREAM_PAYLOAD + 1]),
            Err(StreamError::TooLarge)
        );
    }

    #[test]
    fn message_mode_delivers_out_of_order_immediately() {
        let tracer = Tracer::new(0);
        let mut rx = StreamRx::new(false, tracer.clone());
        let rh = rx.handle();
        rx.on_payload(3, b"late".to_vec());
        assert_eq!(rh.recv().unwrap(), b"late");
        // TTL drops are counted by the endpoint's tracer (pkt_dropped) and
        // surfaced through the shared handle.
        tracer.emit(
            0,
            qtp_metrics::trace::TraceEventKind::PktDropped { seq: 4, age_us: 1 },
        );
        assert_eq!(rh.ttl_dropped(), 1);
        rx.on_fin(5, 0);
        assert!(rh.is_finished(), "message mode finishes on FIN");
        assert!(take_finished_edge(&rx.shared()));
        assert!(!take_finished_edge(&rx.shared()));
    }

    #[test]
    fn ordered_fin_waits_for_final_seq() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        tx.handle().send(b"ab").unwrap();
        let (c, _) = tx.next_chunk(1400).unwrap();
        let mut rx = StreamRx::new(true, Tracer::new(0));
        rx.on_fin(1, 0); // FIN raced ahead of the data
        assert!(!rx.is_finished());
        rx.on_payload(0, c);
        rx.drain(1);
        assert!(rx.is_finished());
        assert_eq!(take_readable(&rx.shared()), 1);
    }

    #[test]
    fn split_length_prefix_across_chunks_parses() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        tx.handle().send(&[9u8; 10]).unwrap();
        // Chunk size 3 splits the 4-byte length prefix itself.
        let mut rx = StreamRx::new(true, Tracer::new(0));
        let mut seq = 0;
        while let Some((c, _)) = tx.next_chunk(3) {
            rx.on_payload(seq, c);
            seq += 1;
        }
        assert_eq!(rx.drain(seq), 1);
        assert_eq!(rx.handle().recv().unwrap(), vec![9u8; 10]);
    }

    /// One step of the chunker property.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `send` a message of this many bytes.
        Send(usize),
        /// `next_chunk` with this `max`.
        Chunk(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let send = (0u32..16, 0..=3 * MAX_STREAM_PAYLOAD, 0usize..=1 << 20)
            .prop_map(|(pick, small, big)| Op::Send(if pick == 0 { big } else { small }));
        prop_oneof![send, (0..=2 * MAX_STREAM_PAYLOAD).prop_map(Op::Chunk)]
    }

    /// The naive model of the sender: every accepted message framed into
    /// one byte string, with how far chunks have consumed it.
    #[derive(Default)]
    struct Oracle {
        framed: Vec<u8>,
        /// Accepted messages and their framed start offsets.
        sent: Vec<(usize, Vec<u8>)>,
        consumed: usize,
        /// A send bounced off the full buffer since the last writable edge.
        bounced: bool,
    }

    impl Oracle {
        /// Bytes of the messages no chunk has touched yet.
        fn untouched_bytes(&self) -> usize {
            self.sent
                .iter()
                .filter(|(start, _)| *start >= self.consumed)
                .map(|(_, m)| m.len())
                .sum()
        }

        fn send(&mut self, tx: &StreamTx, len: usize, cap: usize) -> Result<(), TestCaseError> {
            let msg: Vec<u8> = (0..len).map(|i| (i ^ self.sent.len()) as u8).collect();
            let queued = self
                .sent
                .last()
                .is_some_and(|(start, _)| *start >= self.consumed);
            let full = queued && self.untouched_bytes() + len > cap;
            let res = tx.handle().send(&msg);
            if full {
                prop_assert_eq!(res, Err(StreamError::Full));
                self.bounced = true;
            } else {
                prop_assert_eq!(res, Ok(()));
                let start = self.framed.len();
                self.framed.extend((msg.len() as u32).to_be_bytes());
                self.framed.extend(&msg);
                self.sent.push((start, msg));
            }
            Ok(())
        }

        fn chunk(
            &mut self,
            tx: &mut StreamTx,
            max: usize,
            cap: usize,
        ) -> Result<Option<Vec<u8>>, TestCaseError> {
            let chunk = tx.next_chunk(max).map(|(c, ttl)| {
                assert_eq!(ttl, 0);
                c
            });
            let take = max
                .clamp(1, MAX_STREAM_PAYLOAD)
                .min(self.framed.len() - self.consumed);
            let want = &self.framed[self.consumed..self.consumed + take];
            match &chunk {
                None => prop_assert!(want.is_empty(), "no chunk with {take} bytes pending"),
                Some(c) => prop_assert!(c == want, "chunk of {} bytes differs", c.len()),
            }
            self.consumed += take;
            let untouched = self.untouched_bytes();
            prop_assert_eq!(tx.handle().queued_bytes(), untouched);
            let edge = self.bounced && untouched < cap;
            self.bounced &= !edge;
            prop_assert_eq!(take_writable_edge(&tx.shared()), edge);
            Ok(chunk)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The chunker cuts exactly the framed message stream, releases
        /// messages from the shared queue (`queued_bytes`, `Full`, the
        /// writable edge) as soon as a chunk touches them, and the parser
        /// rebuilds exactly the sent messages from any arrival order.
        #[test]
        fn chunker_and_parser_match_a_byte_stream_oracle(
            ops in prop::collection::vec(op(), 1..60),
            cap in 1usize..=64 * 1024,
            drain_max in 0..=2 * MAX_STREAM_PAYLOAD,
            shuffle in any::<u64>(),
        ) {
            let mut tx = StreamTx::new(&StreamConfig::with_send_buf(cap), true);
            let mut oracle = Oracle::default();
            let mut chunks = Vec::new();
            for op in ops {
                match op {
                    Op::Send(len) => oracle.send(&tx, len, cap)?,
                    Op::Chunk(max) => chunks.extend(oracle.chunk(&mut tx, max, cap)?),
                }
            }
            while let Some(c) = oracle.chunk(&mut tx, drain_max, cap)? {
                chunks.push(c);
            }
            prop_assert!(!tx.has_data());

            // Arrival order: a seeded Fisher-Yates shuffle. The cumulative
            // ack is the first sequence not yet arrived, as the receiver's
            // reassembly reports it.
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            let mut state = shuffle;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut rx = StreamRx::new(true, Tracer::new(0));
            let mut arrived = vec![false; chunks.len()];
            let mut cum_ack = 0;
            for i in order {
                rx.on_payload(i as u64, std::mem::take(&mut chunks[i]));
                arrived[i] = true;
                while arrived.get(cum_ack) == Some(&true) {
                    cum_ack += 1;
                }
                rx.drain(cum_ack as u64);
            }
            let rh = rx.handle();
            let got: Vec<Vec<u8>> = std::iter::from_fn(|| rh.recv()).collect();
            prop_assert_eq!(got.len(), oracle.sent.len());
            for (k, (got, (_, want))) in got.iter().zip(&oracle.sent).enumerate() {
                prop_assert!(got == want, "message {k} differs");
            }
        }
    }
}
