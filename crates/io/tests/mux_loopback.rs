//! Multi-flow mux over real UDP sockets on 127.0.0.1: ONE client socket
//! and ONE server socket carry ≥ 64 concurrent QTP connections through
//! capability negotiation and fully-reliable transfer, with server-side
//! connections created on first frame and torn down/reaped afterwards.

use qtp_core::session::{ConnectionPlan, Profile};
use qtp_core::{CapabilitySet, Probe, QtpReceiver, QtpReceiverConfig, QtpSender, ServerPolicy};
use qtp_io::mux::{drive_mux_pair, Accepted, ConnId, MuxDriver};
use qtp_simnet::prelude::*;
use std::time::Duration;

const FLOWS: u32 = 64;
const PACKETS: u64 = 12;
const PAYLOAD: u64 = 1000;

/// Flow id convention used throughout the mux tests/examples: connection
/// `i` owns data flow `2i` and feedback flow `2i + 1`.
fn flow_pair(i: u32) -> (FlowId, FlowId) {
    (2 * i, 2 * i + 1)
}

#[test]
fn one_socket_carries_64_reliable_flows() {
    // Server: one socket, connections accepted on first frame (the SYN).
    let mut server: MuxDriver<QtpReceiver> = MuxDriver::bind("127.0.0.1:0").expect("bind server");
    server.set_acceptor(|_, frame| {
        // Data flows are even by convention; the paired feedback flow is
        // the next odd id.
        if frame.flow % 2 != 0 {
            return None;
        }
        Some(Accepted {
            endpoint: QtpReceiver::new(
                frame.flow,
                frame.flow + 1,
                0,
                QtpReceiverConfig::default(),
                Probe::new(),
            ),
            flows: vec![frame.flow, frame.flow + 1],
        })
    });
    let server_addr = server.local_addr().expect("server addr");

    // Client: one socket, 64 senders added explicitly.
    let mut client: MuxDriver<QtpSender> = MuxDriver::bind("127.0.0.1:0").expect("bind client");
    let mut conns: Vec<ConnId> = Vec::new();
    for i in 0..FLOWS {
        let (data, fb) = flow_pair(i);
        let cfg = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
            .finite(PACKETS)
            .sender_config();
        let sender = QtpSender::new(data, 0, cfg, Probe::new());
        conns.push(
            client
                .add_connection(server_addr, vec![data, fb], sender)
                .expect("register sender"),
        );
    }
    assert_eq!(client.conn_count(), FLOWS as usize);

    let ok = drive_mux_pair(
        &mut client,
        &mut server,
        Duration::from_secs(120),
        |c, _| {
            conns.iter().all(|id| {
                let tx = c.endpoint(*id).unwrap();
                // all_acked() is vacuously true before anything is sent.
                tx.sent_new() == PACKETS && tx.all_acked()
            })
        },
    )
    .expect("mux event loop error");
    assert!(ok, "64-flow transfer timed out");

    // Every connection negotiated the same profile the pure policy yields,
    // and every byte of every flow was delivered exactly once.
    let expected = ServerPolicy::default().negotiate(CapabilitySet::qtp_af(Rate::from_kbps(500)));
    assert_eq!(
        server.conn_count(),
        FLOWS as usize,
        "one server conn per flow"
    );
    for (i, id) in conns.iter().enumerate() {
        let tx = client.endpoint(*id).unwrap();
        assert_eq!(tx.negotiated(), Some(expected), "conn {i} negotiated");
        assert!(tx.all_acked(), "conn {i} fully acked");
        assert_eq!(tx.sent_new(), PACKETS, "conn {i} sent its backlog");

        let (data, _) = flow_pair(i as u32);
        let srv_id = server
            .route(client.local_addr().unwrap(), data)
            .expect("server route for data flow");
        let rx = server.endpoint(srv_id).unwrap();
        assert_eq!(rx.negotiated(), Some(expected));
        assert_eq!(rx.delivered_packets(), PACKETS, "conn {i} delivered");
        assert_eq!(
            server.conn_stats(srv_id).unwrap().delivered_bytes,
            PACKETS * PAYLOAD,
            "conn {i} delivered bytes"
        );
    }
    assert_eq!(server.stats().conns_accepted, u64::from(FLOWS));
    assert!(server.stats().datagrams_received >= u64::from(FLOWS) * PACKETS);

    // Lifecycle tail: tear half down explicitly, reap the rest once idle.
    let client_addr = client.local_addr().unwrap();
    for i in 0..FLOWS / 2 {
        let (data, _) = flow_pair(i);
        let id = server.route(client_addr, data).unwrap();
        assert!(server.close(id).is_some());
    }
    assert_eq!(server.conn_count(), (FLOWS / 2) as usize);
    std::thread::sleep(Duration::from_millis(20));
    let reaped = server.reap_stale(Duration::from_millis(10));
    assert_eq!(reaped.len(), (FLOWS / 2) as usize, "idle conns reaped");
    assert_eq!(server.conn_count(), 0);
}

/// A mux-accepted receiver serves a mux client with one flow,
/// negotiating exactly what the pure policy dictates even when a second,
/// unrelated peer's garbage datagrams hit the same socket mid-handshake.
#[test]
fn mux_isolates_flows_from_foreign_traffic() {
    let mut server: MuxDriver<QtpReceiver> = MuxDriver::bind("127.0.0.1:0").unwrap();
    server.set_acceptor(|_, frame| {
        (frame.flow % 2 == 0).then(|| Accepted {
            endpoint: QtpReceiver::new(
                frame.flow,
                frame.flow + 1,
                0,
                QtpReceiverConfig::default(),
                Probe::new(),
            ),
            flows: vec![frame.flow, frame.flow + 1],
        })
    });
    let server_addr = server.local_addr().unwrap();

    let mut client: MuxDriver<QtpSender> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let cfg = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
        .finite(PACKETS)
        .sender_config();
    let conn = client
        .add_connection(
            server_addr,
            vec![0, 1],
            QtpSender::new(0, 0, cfg, Probe::new()),
        )
        .unwrap();

    // Foreign noise into the server socket from a third party.
    let noise = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..10 {
        noise
            .send_to(b"definitely not a frame", server_addr)
            .unwrap();
    }

    let ok = drive_mux_pair(&mut client, &mut server, Duration::from_secs(30), |c, _| {
        let tx = c.endpoint(conn).unwrap();
        tx.sent_new() == PACKETS && tx.all_acked()
    })
    .unwrap();
    assert!(ok, "transfer with foreign noise timed out");
    assert_eq!(
        server.stats().datagrams_rejected,
        10,
        "noise counted, not routed"
    );
    assert_eq!(server.conn_count(), 1, "no connection accepted for garbage");
}
