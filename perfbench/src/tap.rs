//! The traced run's `Endpoint` wrapper and the spans it records.
//!
//! [`Tap`] sits between a driver (the simulator's `SimAgent`, a
//! `MuxDriver`) and the endpoint it drives. Every `on_start`,
//! `handle_datagram` and `on_timer` call is timed; the endpoint writes
//! into a scratch `Outbox`, whose commands are then counted and pushed on
//! to the driver's outbox in the same FIFO order. The driver therefore
//! sees exactly the command stream the bare endpoint would have produced,
//! which is what keeps a traced simulation event-for-event identical to
//! the untraced one.
//!
//! [`Shared`] lets the benchmark keep a handle on an endpoint after it
//! has moved into a driver, so completion can be judged with the
//! endpoint's own public accessors.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use qtp_core::driver::{Command, Endpoint, Outbox};
use qtp_core::session::Session;

/// Headers kept for the codec replay (a bounded reservoir sample).
pub const SAMPLE_CAP: usize = 4096;

/// One captured datagram: what the frame codec would carry.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Flow id of the datagram.
    pub flow: u32,
    /// Accounted on-wire size.
    pub wire_size: u32,
    /// Encoded transport header.
    pub header: Vec<u8>,
}

/// Everything the [`Tap`]s of one run record, shared by all of them.
#[derive(Debug, Default)]
pub struct Spans {
    /// Endpoint callbacks made.
    pub calls: u64,
    /// Wall nanoseconds spent inside endpoint callbacks.
    pub call_ns: u64,
    /// Commands the endpoints emitted.
    pub cmds: u64,
    /// Datagrams the endpoints emitted.
    pub transmits: u64,
    /// Bytes of encoded transport header in those datagrams.
    pub header_bytes: u64,
    /// Reservoir sample of emitted datagrams, at most [`SAMPLE_CAP`].
    pub sample: Vec<Captured>,
}

impl Spans {
    /// Keep datagram number `n` (0-based) with probability
    /// `SAMPLE_CAP / (n + 1)`, replacing a uniformly chosen entry. The
    /// choice is a pure function of `n`, so the sample repeats exactly.
    fn offer(&mut self, n: u64, flow: u32, wire_size: u32, header: &[u8]) {
        let slot = if self.sample.len() < SAMPLE_CAP {
            None
        } else {
            let j = (splitmix(n) % (n + 1)) as usize;
            if j >= SAMPLE_CAP {
                return;
            }
            Some(j)
        };
        let c = Captured {
            flow,
            wire_size,
            header: header.to_vec(),
        };
        match slot {
            None => self.sample.push(c),
            Some(j) => self.sample[j] = c,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shared handle onto one run's [`Spans`].
pub type SpanLog = Rc<RefCell<Spans>>;

/// Times every callback of the wrapped endpoint and counts its commands.
pub struct Tap<E> {
    inner: E,
    scratch: Outbox,
    log: SpanLog,
}

impl<E: Endpoint> Tap<E> {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: E, log: SpanLog) -> Self {
        Tap {
            inner,
            scratch: Outbox::new(),
            log,
        }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn span(&mut self, out: &mut Outbox, call: impl FnOnce(&mut E, &mut Outbox)) {
        self.scratch.now = out.now;
        let start = Instant::now();
        call(&mut self.inner, &mut self.scratch);
        let ns = start.elapsed().as_nanos() as u64;
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        log.call_ns += ns;
        while let Some(cmd) = self.scratch.poll_cmd() {
            log.cmds += 1;
            match cmd {
                Command::Transmit(t) => {
                    let n = log.transmits;
                    log.transmits += 1;
                    log.header_bytes += t.header.len() as u64;
                    log.offer(n, t.flow, t.wire_size, &t.header);
                    out.send_new(t.flow, t.dst, t.wire_size, t.header);
                }
                Command::SetTimer { at, token } => out.set_timer_at(at, token),
                Command::Deliver { flow, bytes } => out.app_deliver(flow, bytes),
            }
        }
    }
}

impl<E: Endpoint> Endpoint for Tap<E> {
    fn on_start(&mut self, out: &mut Outbox) {
        self.span(out, |ep, o| ep.on_start(o));
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        self.span(out, |ep, o| ep.handle_datagram(o, wire_size, header));
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        self.span(out, |ep, o| ep.on_timer(o, token));
    }
}

/// An endpoint the benchmark can still read after a driver took it.
pub struct Shared<E>(pub Rc<RefCell<E>>);

impl<E: Endpoint> Endpoint for Shared<E> {
    fn on_start(&mut self, out: &mut Outbox) {
        self.0.borrow_mut().on_start(out);
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        self.0.borrow_mut().handle_datagram(out, wire_size, header);
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        self.0.borrow_mut().on_timer(out, token);
    }
}

/// An endpoint that is, or wraps, a [`Session`].
pub trait Mounted: Endpoint + 'static {
    /// Wrap a freshly built session for driving.
    fn mount(session: Session, log: &SpanLog) -> Self;
    /// The session inside.
    fn session(&self) -> &Session;
}

impl Mounted for Session {
    fn mount(session: Session, _: &SpanLog) -> Self {
        session
    }

    fn session(&self) -> &Session {
        self
    }
}

impl Mounted for Tap<Session> {
    fn mount(session: Session, log: &SpanLog) -> Self {
        Tap::new(session, log.clone())
    }

    fn session(&self) -> &Session {
        self.inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_simnet::time::SimTime;

    /// Emits a fixed interleaving of every command kind.
    struct Chatty;

    impl Endpoint for Chatty {
        fn on_start(&mut self, out: &mut Outbox) {
            out.send_new(1, 2, 100, vec![1, 2, 3]);
            out.set_timer_at(out.now, 7);
        }

        fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
            out.app_deliver(1, u64::from(wire_size));
            out.send_new(3, 4, wire_size, header.to_vec());
            out.set_timer_at(out.now, 8);
        }

        fn on_timer(&mut self, out: &mut Outbox, token: u64) {
            out.set_timer_at(out.now, token + 1);
        }
    }

    fn drive(ep: &mut impl Endpoint) -> Vec<String> {
        let mut out = Outbox::new();
        out.now = SimTime::from_millis(5);
        ep.on_start(&mut out);
        ep.handle_datagram(&mut out, 40, &[9, 9]);
        ep.on_timer(&mut out, 11);
        std::iter::from_fn(|| out.poll_cmd())
            .map(|c| format!("{c:?}"))
            .collect()
    }

    #[test]
    fn tap_passes_commands_through_in_order_and_counts_them() {
        let log: SpanLog = Rc::default();
        let mut tapped = Tap::new(Chatty, log.clone());
        assert_eq!(drive(&mut tapped), drive(&mut Chatty));
        let spans = log.borrow();
        assert_eq!(spans.calls, 3);
        assert_eq!(spans.cmds, 6);
        assert_eq!(spans.transmits, 2);
        assert_eq!(spans.header_bytes, 5);
        assert_eq!(spans.sample.len(), 2);
    }

    #[test]
    fn reservoir_stays_bounded_and_repeats() {
        let fill = || {
            let mut s = Spans::default();
            for n in 0..(3 * SAMPLE_CAP as u64) {
                s.offer(n, n as u32, 0, &[]);
            }
            s.sample.iter().map(|c| c.flow).collect::<Vec<_>>()
        };
        let a = fill();
        assert_eq!(a.len(), SAMPLE_CAP);
        assert!(
            a.iter().any(|&f| f as usize >= SAMPLE_CAP),
            "late datagrams get in"
        );
        assert_eq!(a, fill());
    }
}
