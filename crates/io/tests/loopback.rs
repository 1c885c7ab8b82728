//! End-to-end tests over real UDP sockets on 127.0.0.1: capability
//! negotiation, reliable transfer, and the differential check that the
//! simulator backend and the socket backend agree on what the protocol
//! *does* (same negotiated capabilities, same delivered ADU sequence) for
//! a loss-free run.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile};
use qtp_core::{
    CapabilitySet, Probe, QtpReceiver, QtpReceiverConfig, QtpSender, QtpSenderConfig, ServerPolicy,
};
use qtp_io::{drive_mux_pair, Accepted, ConnId, MuxDriver};
use qtp_simnet::prelude::*;
use std::time::Duration;

const PACKETS: u64 = 40;
const PAYLOAD: u64 = 1000;

/// One QTP connection over two loopback sockets: a mux per side, one
/// connection each (data on flow 0, feedback on flow 1).
struct Loopback {
    tx: MuxDriver<QtpSender>,
    rx: MuxDriver<QtpReceiver>,
    tx_id: ConnId,
    rx_id: ConnId,
}

impl Loopback {
    fn sender(&self) -> &QtpSender {
        self.tx.endpoint(self.tx_id).expect("sender conn is live")
    }

    fn receiver(&self) -> &QtpReceiver {
        self.rx.endpoint(self.rx_id).expect("receiver conn is live")
    }

    /// Application bytes the receiver delivered (its `Deliver` commands).
    fn delivered_bytes(&self) -> u64 {
        self.rx
            .conn_stats(self.rx_id)
            .map_or(0, |s| s.delivered_bytes)
    }
}

/// Run one QTP connection over loopback until the transfer completes (or a
/// generous wall-clock deadline passes). The receiver is accepted on the
/// sender's first frame.
fn run_loopback(cfg: QtpSenderConfig, done_needs_acks: bool) -> Loopback {
    let mut rx: MuxDriver<QtpReceiver> = MuxDriver::bind("127.0.0.1:0").expect("bind receiver");
    rx.set_acceptor(|_, frame| {
        (frame.flow == 0).then(|| Accepted {
            endpoint: QtpReceiver::new(0, 1, 0, QtpReceiverConfig::default(), Probe::new()),
            flows: vec![0, 1],
        })
    });
    let mut tx: MuxDriver<QtpSender> = MuxDriver::bind("127.0.0.1:0").expect("bind sender");
    let peer = rx.local_addr().expect("local addr");
    let sender = QtpSender::new(0, 1, cfg, Probe::new());
    let tx_id = tx
        .add_connection(peer, vec![0, 1], sender)
        .expect("register sender");
    let client = tx.local_addr().expect("local addr");

    // Gate on delivered *bytes*: under unreliable profiles the receiver
    // hands every arriving packet up immediately whatever its order, so
    // this predicate doesn't silently require in-order arrival the way the
    // cum-ack-based `delivered_packets()` would.
    let done = drive_mux_pair(&mut tx, &mut rx, Duration::from_secs(30), |tx, rx| {
        let delivered = rx
            .route(client, 0)
            .and_then(|id| rx.conn_stats(id))
            .map_or(0, |s| s.delivered_bytes);
        delivered >= PACKETS * PAYLOAD
            && (!done_needs_acks || tx.endpoint(tx_id).is_some_and(|s| s.all_acked()))
    })
    .expect("event loop error");
    assert!(done, "loopback transfer timed out");
    let rx_id = rx.route(client, 0).expect("receiver accepted");
    Loopback {
        tx,
        rx,
        tx_id,
        rx_id,
    }
}

#[test]
fn reliable_transfer_over_loopback_completes() {
    let cfg = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
        .finite(PACKETS)
        .sender_config();
    let lo = run_loopback(cfg.clone(), true);

    // Handshake: both ends converged on the same negotiated profile, and it
    // is exactly what the default server policy yields for this offer.
    let expected = ServerPolicy::default().negotiate(cfg.offered);
    assert_eq!(lo.sender().negotiated(), Some(expected));
    assert_eq!(lo.receiver().negotiated(), Some(expected));

    // Reliable delivery: every ADU, in order, exactly once.
    assert_eq!(lo.receiver().delivered_packets(), PACKETS);
    assert_eq!(lo.receiver().cum_ack(), PACKETS);
    assert_eq!(lo.delivered_bytes(), PACKETS * PAYLOAD);
    assert!(lo.sender().all_acked(), "sender saw every ack");
    assert_eq!(lo.sender().sent_new(), PACKETS);

    // Real datagrams actually crossed the sockets.
    assert!(lo.tx.stats().datagrams_sent >= PACKETS);
    assert!(lo.rx.stats().datagrams_received >= PACKETS);
    assert!(lo.rx.stats().datagrams_sent > 0, "feedback flowed back");
}

/// The differential backbone: the same protocol configuration, run once
/// through the discrete-event simulator and once over real sockets, must
/// negotiate the same `CapabilitySet` and deliver the same ADU sequence.
#[test]
fn sim_and_socket_backends_agree_loss_free() {
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500))).finite(PACKETS);
    let cfg = plan.sender_config();

    // --- simulator backend, loss-free path -----------------------------
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.duplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5)),
    );
    let mut sim = b.build(7);
    let h = attach_pair(&mut sim, s, r, "diff", &plan);
    sim.run_until(SimTime::from_secs(60));
    let sim_delivered_bytes = sim.stats().flow(h.data_flow).bytes_app_delivered;
    let sim_delivered_pkts = sim_delivered_bytes / PAYLOAD;

    // --- socket backend, loopback ---------------------------------------
    let lo = run_loopback(cfg.clone(), true);

    // Negotiation agrees (and matches the pure negotiation function, which
    // is what the simulator's endpoints run too).
    let expected = ServerPolicy::default().negotiate(cfg.offered);
    assert_eq!(lo.sender().negotiated(), Some(expected));
    assert_eq!(lo.receiver().negotiated(), Some(expected));

    // Delivery agrees: same number of ADUs, same bytes, and — because this
    // profile delivers strictly in order from sequence 0 — the identical
    // ADU sequence 0..PACKETS on both backends.
    assert_eq!(sim_delivered_pkts, PACKETS, "sim delivered everything");
    assert_eq!(lo.receiver().delivered_packets(), sim_delivered_pkts);
    assert_eq!(lo.delivered_bytes(), sim_delivered_bytes);
    assert_eq!(lo.receiver().cum_ack(), PACKETS);
}

#[test]
fn qtp_light_negotiates_identically_on_both_backends() {
    // The QTPlight offer exercises the other half of the capability space
    // (SenderLoss feedback, no reliability). Negotiation is the part that
    // must agree exactly; unreliable delivery counts are not compared
    // (raw UDP makes no ordering/loss promises).
    let cfg = ConnectionPlan::new(Profile::qtp_light())
        .finite(PACKETS)
        .sender_config();
    let offered: CapabilitySet = cfg.offered;

    let lo = run_loopback(cfg, false);
    let expected = ServerPolicy::default().negotiate(offered);
    assert_eq!(lo.sender().negotiated(), Some(expected));
    assert_eq!(lo.receiver().negotiated(), Some(expected));
    assert!(lo.delivered_bytes() >= PACKETS * PAYLOAD);
}
