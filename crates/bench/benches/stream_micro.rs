//! Micro-benchmarks of the stream data plane through the endpoint seam: a
//! sender and a receiver `Session` (QTPAF, stream plan, the `mux-bulk-64`
//! connection settings) exchange every datagram through `Endpoint`/`Outbox`
//! on a virtual clock, with no simulator and no sockets. One iteration is
//! one whole transfer: staging, chunking, encode, decode, reassembly and
//! parsing on both endpoints, plus the small event-queue loop that drives
//! them.
//!
//! `stream/one_mib_message` sends one message far larger than a packet, so
//! a staging buffer that costs more than linear time in the message size
//! shows up here first.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qtp_core::driver::{Command, Endpoint, Outbox};
use qtp_core::session::{ConnectionPlan, Profile, Session};
use qtp_core::stream::StreamConfig;
use qtp_simnet::time::{Rate, SimTime};
use std::collections::BTreeMap;
use std::time::Duration;

/// One-way delay between the two endpoints.
const DELAY: Duration = Duration::from_millis(1);

/// What wakes an endpoint; `Start` is the driver contract's first call.
enum Wake {
    Start,
    Timer(u64),
    Datagram { wire_size: u32, header: Vec<u8> },
}

/// Two sessions joined by a lossless virtual link: the event queue holds
/// timers and in-flight datagrams keyed by (time, arrival order).
struct Pair {
    sides: [Session; 2],
    queue: BTreeMap<(SimTime, u64), (usize, Wake)>,
    order: u64,
    out: Outbox,
}

impl Pair {
    /// Delivers one wake to `side` and queues the commands it emits.
    fn wake(&mut self, side: usize, wake: Wake) {
        let (ep, out) = (&mut self.sides[side], &mut self.out);
        match wake {
            Wake::Start => ep.on_start(out),
            Wake::Timer(token) => ep.on_timer(out, token),
            Wake::Datagram { wire_size, header } => ep.handle_datagram(out, wire_size, &header),
        }
        while let Some(cmd) = self.out.poll_cmd() {
            let (at, to, wake) = match cmd {
                Command::Transmit(t) => (
                    self.out.now + DELAY,
                    1 - side,
                    Wake::Datagram {
                        wire_size: t.wire_size,
                        header: t.header,
                    },
                ),
                Command::SetTimer { at, token } => (at, side, Wake::Timer(token)),
                Command::Deliver { .. } => continue,
            };
            self.queue.insert((at, self.order), (to, wake));
            self.order += 1;
        }
    }
}

/// Sends `msgs` from a sender to a receiver session and returns the bytes
/// the receiver's stream delivered.
fn transfer(msgs: &[Vec<u8>]) -> u64 {
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(16)))
        .stream(StreamConfig::with_send_buf(256 * 1024))
        .payload(1200);
    let mut pair = Pair {
        sides: [
            Session::sender(0, 1, &plan),
            Session::receiver(0, 1, 0, &plan),
        ],
        queue: BTreeMap::new(),
        order: 0,
        out: Outbox::new(),
    };
    let tx = pair.sides[0].send_stream().expect("stream plan");
    let rx = pair.sides[1].recv_stream().expect("stream plan");
    for m in msgs {
        tx.send(m)
            .expect("the send buffer takes the whole transfer");
    }
    tx.finish();
    pair.wake(1, Wake::Start);
    pair.wake(0, Wake::Start);
    while !rx.is_finished() {
        let ((now, _), (side, wake)) = pair
            .queue
            .pop_first()
            .expect("the transfer finishes before the event queue drains");
        pair.out.now = now;
        pair.wake(side, wake);
    }
    let delivered = rx.bytes_received();
    assert_eq!(delivered, msgs.iter().map(|m| m.len() as u64).sum::<u64>());
    delivered
}

fn bench_stream(c: &mut Criterion) {
    let msgs: Vec<Vec<u8>> = (0..32u8).map(|k| vec![k; 8 * 1024]).collect();
    c.bench_function("stream/transfer_256k", |b| {
        b.iter(|| transfer(black_box(&msgs)))
    });
    let one = vec![(0..=255u8).cycle().take(1 << 20).collect::<Vec<u8>>()];
    c.bench_function("stream/one_mib_message", |b| {
        b.iter(|| transfer(black_box(&one)))
    });
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
