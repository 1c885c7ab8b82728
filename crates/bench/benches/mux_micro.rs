//! Micro-benchmarks of the connection mux hot path: frame decode +
//! `(peer, flow)` route lookup + endpoint dispatch, on a hit and on a
//! miss. These price the per-datagram overhead every future batching
//! change (recvmmsg/GSO) amortizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qtp_core::driver::{Endpoint, Outbox};
use qtp_io::frame::Frame;
use qtp_io::mux::MuxDriver;
use std::net::SocketAddr;

/// An endpoint that swallows datagrams without emitting commands, so the
/// benchmark isolates decode + routing + dispatch.
struct Blackhole;
impl Endpoint for Blackhole {
    fn handle_datagram(&mut self, _out: &mut Outbox, _wire_size: u32, _header: &[u8]) {}
}

fn peer(i: u32) -> SocketAddr {
    format!("127.0.{}.{}:4433", (i >> 8) & 0xFF, i & 0xFF)
        .parse()
        .unwrap()
}

/// A mux with `conns` blackhole connections spread over 16 peers, plus one
/// pre-encoded datagram per connection.
fn routing_rig(conns: u32) -> (MuxDriver<Blackhole>, Vec<(SocketAddr, Vec<u8>)>) {
    let mut mux: MuxDriver<Blackhole> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let mut datagrams = Vec::with_capacity(conns as usize);
    for i in 0..conns {
        let from = peer(i % 16);
        let (data, fb) = (2 * i, 2 * i + 1);
        mux.add_connection(from, vec![data, fb], Blackhole).unwrap();
        let frame = Frame {
            flow: data,
            seq: u64::from(i),
            wire_size: 1049,
            header: vec![0xA5; 24],
        };
        datagrams.push((from, frame.encode().unwrap()));
    }
    (mux, datagrams)
}

fn bench_routing(c: &mut Criterion) {
    for conns in [64u32, 1024] {
        let (mut mux, datagrams) = routing_rig(conns);
        c.bench_function(&format!("mux/route_dispatch_{conns}_conns"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let (from, bytes) = &datagrams[i % datagrams.len()];
                i += 1;
                mux.handle_datagram_from(*from, black_box(bytes)).unwrap()
            })
        });
    }

    // The miss path: a decodable frame with no route and no acceptor.
    let (mut mux, _) = routing_rig(1024);
    let stray = Frame {
        flow: 1_000_000,
        seq: 1,
        wire_size: 1049,
        header: vec![0xA5; 24],
    }
    .encode()
    .unwrap();
    let from = peer(3);
    c.bench_function("mux/route_miss_1024_conns", |b| {
        b.iter(|| mux.handle_datagram_from(from, black_box(&stray)).unwrap())
    });
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
