//! End-to-end tests of the composed QTP endpoints over simulated networks.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile, Session};
use qtp_core::*;
use qtp_metrics::trace::{CounterSet, PktKind, TraceEvent, TraceEventKind, TraceSink};
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Simulator;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Two hosts joined by a duplex link with the given forward-path properties.
fn two_hosts(
    rate: Rate,
    delay: Duration,
    loss: LossModel,
    queue: QueueConfig,
    seed: u64,
) -> (Simulator, NodeId, NodeId) {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.simplex_link(
        s,
        r,
        LinkConfig::new(rate, delay)
            .with_loss(loss)
            .with_queue(queue),
    );
    b.simplex_link(r, s, LinkConfig::new(rate, delay));
    (b.build(seed), s, r)
}

fn goodput_bps(sim: &Simulator, flow: FlowId, secs: u64) -> f64 {
    sim.stats()
        .flow(flow)
        .goodput_bps(Duration::from_secs(secs))
}

#[test]
fn handshake_negotiates_offered_profile() {
    let (mut sim, s, r) = two_hosts(
        Rate::from_mbps(10),
        Duration::from_millis(10),
        LossModel::None,
        QueueConfig::DropTailPkts(100),
        1,
    );
    let h = attach_pair(
        &mut sim,
        s,
        r,
        "conn",
        &ConnectionPlan::new(Profile::qtp_light()),
    );
    sim.run_until(SimTime::from_secs(2));
    // Data flowed, so the handshake happened.
    assert!(sim.stats().flow(h.data_flow).pkts_arrived > 10);
    assert!(h.rx.counters().feedback_tx > 0);
}

#[test]
fn loss_free_path_ramps_to_fill_bottleneck() {
    let (mut sim, s, r) = two_hosts(
        Rate::from_mbps(2),
        Duration::from_millis(20),
        LossModel::None,
        QueueConfig::DropTailPkts(100),
        2,
    );
    let h = attach_pair(
        &mut sim,
        s,
        r,
        "tfrc",
        &ConnectionPlan::new(Profile::tfrc()),
    );
    sim.run_until(SimTime::from_secs(30));
    let bps = goodput_bps(&sim, h.data_flow, 30);
    // TFRC should reach a large fraction of the 2 Mbit/s bottleneck
    // (headers cost ~5%, drops at the queue regulate the rest).
    assert!(bps > 1_200_000.0, "goodput too low: {bps}");
}

#[test]
fn tfrc_rate_tracks_equation_under_bernoulli_loss() {
    // At p=2%, RTT~42 ms, s=1000 B the equation predicts a specific rate;
    // the closed loop should land within a factor ~2 of it (measurement
    // noise, loss-event-vs-packet-loss difference).
    let (mut sim, s, r) = two_hosts(
        Rate::from_mbps(50), // not the constraint
        Duration::from_millis(20),
        LossModel::bernoulli(0.02),
        QueueConfig::DropTailPkts(1000),
        3,
    );
    let h = attach_pair(
        &mut sim,
        s,
        r,
        "tfrc",
        &ConnectionPlan::new(Profile::tfrc()),
    );
    sim.run_until(SimTime::from_secs(60));
    let measured = goodput_bps(&sim, h.data_flow, 60);
    let rtt = Duration::from_millis(42); // 2*20ms prop + ~queueing/tx
    let predicted = qtp_tfrc::throughput(1000, rtt, 0.02) * 8.0;
    let ratio = measured / predicted;
    assert!(
        (0.4..2.5).contains(&ratio),
        "measured {measured:.0} vs predicted {predicted:.0} (ratio {ratio:.2})"
    );
}

#[test]
fn qtplight_matches_standard_tfrc_rate() {
    // The E4 claim: moving the estimation to the sender does not change the
    // rate behaviour materially.
    fn run(profile: Profile, seed: u64) -> f64 {
        let (mut sim, s, r) = two_hosts(
            Rate::from_mbps(50),
            Duration::from_millis(30),
            LossModel::bernoulli(0.01),
            QueueConfig::DropTailPkts(1000),
            seed,
        );
        let h = attach_pair(&mut sim, s, r, "x", &ConnectionPlan::new(profile));
        sim.run_until(SimTime::from_secs(60));
        goodput_bps(&sim, h.data_flow, 60)
    }
    let standard = run(Profile::tfrc(), 4);
    let light = run(Profile::qtp_light(), 4);
    let ratio = light / standard;
    assert!(
        (0.6..1.67).contains(&ratio),
        "standard={standard:.0}, light={light:.0}, ratio={ratio:.2}"
    );
}

#[test]
fn qtp_af_full_reliability_delivers_everything() {
    let (mut sim, s, r) = two_hosts(
        Rate::from_mbps(5),
        Duration::from_millis(10),
        LossModel::bernoulli(0.03),
        QueueConfig::DropTailPkts(200),
        5,
    );
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(1))).finite(1000);
    let h = attach_pair(&mut sim, s, r, "af", &plan);
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(
        sim.stats().flow(h.data_flow).bytes_app_delivered,
        1000 * 1000,
        "every byte must arrive despite 3% loss"
    );
    assert!(h.tx.counters().retransmits > 0, "loss implies retx");
}

#[test]
fn partial_ttl_abandons_stale_data_and_keeps_flowing() {
    let (mut sim, s, r) = two_hosts(
        Rate::from_mbps(5),
        Duration::from_millis(30),
        LossModel::bernoulli(0.05),
        QueueConfig::DropTailPkts(200),
        6,
    );
    // TTL shorter than a retransmission round trip: most losses expire.
    let plan = ConnectionPlan::new(
        Profile::qtp_light_partial(Duration::from_millis(50)).expect("nonzero TTL"),
    );
    let h = attach_pair(&mut sim, s, r, "pttl", &plan);
    sim.run_until(SimTime::from_secs(30));
    assert!(
        h.tx.counters().abandoned > 0,
        "stale losses must be abandoned"
    );
    // Goodput continues (receiver is moved past holes by FWD).
    assert!(
        sim.stats().flow(h.data_flow).bytes_app_delivered > 1_000_000,
        "delivered={}",
        sim.stats().flow(h.data_flow).bytes_app_delivered
    );
}

#[test]
fn selfish_receiver_cheats_standard_tfrc_but_not_qtplight() {
    // E6: a receiver that divides its reported p by 10 inflates a standard
    // TFRC sender's rate; under QTPlight there is no p to falsify.
    fn run(profile: Profile, selfish: f64, seed: u64) -> f64 {
        let (mut sim, s, r) = two_hosts(
            Rate::from_mbps(50),
            Duration::from_millis(30),
            LossModel::bernoulli(0.02),
            QueueConfig::DropTailPkts(1000),
            seed,
        );
        let plan = ConnectionPlan::new(profile).selfish_factor(selfish);
        let h = attach_pair(&mut sim, s, r, "x", &plan);
        sim.run_until(SimTime::from_secs(60));
        // Selfishness inflates the *send* rate; measure at the network.
        sim.stats()
            .flow(h.data_flow)
            .throughput_bps(Duration::from_secs(60))
    }
    let honest_std = run(Profile::tfrc(), 1.0, 7);
    let cheat_std = run(Profile::tfrc(), 10.0, 7);
    let honest_light = run(Profile::qtp_light(), 1.0, 7);
    let cheat_light = run(Profile::qtp_light(), 10.0, 7);
    assert!(
        cheat_std > honest_std * 1.5,
        "standard TFRC must be cheatable: honest={honest_std:.0}, cheat={cheat_std:.0}"
    );
    let light_ratio = cheat_light / honest_light;
    assert!(
        light_ratio < 1.25,
        "QTPlight must be (nearly) immune: ratio={light_ratio:.2}"
    );
}

#[test]
fn qtplight_receiver_is_dramatically_cheaper() {
    // E5 in test form: ops/packet at the receiver.
    fn run(profile: Profile, seed: u64) -> (f64, u64) {
        let (mut sim, s, r) = two_hosts(
            Rate::from_mbps(10),
            Duration::from_millis(20),
            LossModel::bernoulli(0.02),
            QueueConfig::DropTailPkts(500),
            seed,
        );
        let h = attach_pair(&mut sim, s, r, "x", &ConnectionPlan::new(profile));
        sim.run_until(SimTime::from_secs(30));
        (
            h.rx.counters().ops_per_pkt(),
            h.rx.counters().state_bytes_peak,
        )
    }
    let (std_ops, std_state) = run(Profile::tfrc(), 8);
    let (light_ops, light_state) = run(Profile::qtp_light(), 8);
    assert!(
        std_ops > 2.0 * light_ops,
        "standard receiver ops/pkt {std_ops:.1} should dwarf QTPlight {light_ops:.1}"
    );
    assert!(
        std_state > light_state,
        "state bytes: std={std_state}, light={light_state}"
    );
}

#[test]
fn server_policy_downgrade_is_respected_end_to_end() {
    let (mut sim, s, r) = two_hosts(
        Rate::from_mbps(10),
        Duration::from_millis(10),
        LossModel::None,
        QueueConfig::DropTailPkts(100),
        9,
    );
    // Offer QTPlight; server refuses sender-side estimation.
    let plan = ConnectionPlan::new(Profile::qtp_light()).policy(ServerPolicy {
        allow_sender_loss: false,
        ..ServerPolicy::default()
    });
    let h = attach_pair(&mut sim, s, r, "downgrade", &plan);
    sim.run_until(SimTime::from_secs(5));
    // The connection still works (data flows, feedback arrives with p).
    assert!(sim.stats().flow(h.data_flow).pkts_arrived > 50);
    assert!(h.rx.counters().feedback_tx > 0);
    // And the receiver load is the heavy profile (ops/pkt well above the
    // light receiver's ~10).
    assert!(h.rx.counters().ops_per_pkt() > 10.0);
}

#[test]
fn gtfrc_holds_target_under_loss_where_tfrc_collapses() {
    // Micro-version of E2/E3 without the AF network: pure Bernoulli loss.
    // gTFRC with a 2 Mbit/s target must hold it; plain TFRC collapses to
    // the equation rate.
    fn run(profile: Profile, seed: u64) -> f64 {
        let (mut sim, s, r) = two_hosts(
            Rate::from_mbps(10),
            Duration::from_millis(50),
            LossModel::bernoulli(0.05),
            QueueConfig::DropTailPkts(500),
            seed,
        );
        let h = attach_pair(&mut sim, s, r, "x", &ConnectionPlan::new(profile));
        sim.run_until(SimTime::from_secs(40));
        sim.stats()
            .flow(h.data_flow)
            .throughput_bps(Duration::from_secs(40))
    }
    let tfrc = run(Profile::tfrc(), 10);
    let gtfrc = run(Profile::qtp_af(Rate::from_mbps(2)), 10);
    assert!(
        tfrc < 1_500_000.0,
        "plain TFRC should collapse under 5% loss at 100ms RTT: {tfrc:.0}"
    );
    assert!(
        gtfrc > 1_800_000.0,
        "gTFRC must hold ~the 2 Mbit/s target: {gtfrc:.0}"
    );
}

#[test]
fn negotiated_mode_reported_by_handles() {
    // Capability negotiation outcome is visible in wire traffic; spot-check
    // via the reliability distinction: with reliability None no FWD is
    // needed on a clean path and no retransmissions ever happen.
    let (mut sim, s, r) = two_hosts(
        Rate::from_mbps(10),
        Duration::from_millis(10),
        LossModel::None,
        QueueConfig::DropTailPkts(100),
        11,
    );
    let h = attach_pair(
        &mut sim,
        s,
        r,
        "clean",
        &ConnectionPlan::new(Profile::qtp_light()),
    );
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(h.tx.counters().retransmits, 0);
    assert_eq!(h.tx.counters().abandoned, 0);
    // Goodput equals network throughput minus header overhead (unreliable
    // mode delivers everything that arrives).
    let f = sim.stats().flow(h.data_flow);
    assert!(f.bytes_app_delivered > 0);
    assert!(f.bytes_app_delivered <= f.bytes_arrived);
}

#[test]
fn deterministic_across_runs() {
    fn run() -> (u64, u64, CounterSet) {
        let (mut sim, s, r) = two_hosts(
            Rate::from_mbps(5),
            Duration::from_millis(20),
            LossModel::bernoulli(0.02),
            QueueConfig::DropTailPkts(100),
            42,
        );
        let h = attach_pair(
            &mut sim,
            s,
            r,
            "det",
            &ConnectionPlan::new(Profile::qtp_light()),
        );
        sim.run_until(SimTime::from_secs(20));
        let f = sim.stats().flow(h.data_flow);
        (f.pkts_arrived, f.bytes_app_delivered, h.tx.counters())
    }
    assert_eq!(run(), run());
}

/// A session the test can still read after mounting it in the simulator.
struct Shared(Rc<RefCell<Session>>);

impl Endpoint for Shared {
    fn on_start(&mut self, out: &mut Outbox) {
        self.0.borrow_mut().on_start(out)
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        self.0.borrow_mut().handle_datagram(out, wire_size, header)
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        self.0.borrow_mut().on_timer(out, token)
    }
}

/// Counts the feedback packets it is shown.
#[derive(Default)]
struct FeedbackCount(u64);

impl TraceSink for FeedbackCount {
    fn emit(&mut self, ev: &TraceEvent) {
        if let TraceEventKind::PktSent {
            kind: PktKind::Feedback,
            ..
        } = ev.kind
        {
            self.0 += 1;
        }
    }
}

#[test]
fn counters_agree_with_independent_counts() {
    // Counters derived from events must match what the endpoints count
    // on their own: new data = data sent minus retransmissions, and every
    // feedback packet the counter saw is one a sink saw.
    for (profile, seed, reliable) in [
        (Profile::qtp_af(Rate::from_mbps(1)), 12, true),
        (Profile::qtp_light(), 13, false),
    ] {
        let (mut sim, s, r) = two_hosts(
            Rate::from_mbps(5),
            Duration::from_millis(20),
            LossModel::bernoulli(0.03),
            QueueConfig::DropTailPkts(100),
            seed,
        );
        let plan = ConnectionPlan::new(profile);
        let data = sim.register_flow("x");
        let fb = sim.register_flow("x-fb");
        let tx = Rc::new(RefCell::new(Session::sender(data, r, &plan)));
        let rx = Session::receiver(data, fb, s, &plan);
        let (tx_tracer, rx_tracer) = (tx.borrow().tracer(), rx.tracer());
        let sink = Rc::new(RefCell::new(FeedbackCount::default()));
        rx_tracer.attach_sink(sink.clone());
        sim.attach_agent(s, Box::new(SimAgent::new(Shared(tx.clone()))));
        sim.attach_agent(r, Box::new(SimAgent::new(rx)));
        sim.run_until(SimTime::from_secs(10));

        let c = tx_tracer.counters();
        assert_eq!(
            c.retransmits > 0,
            reliable,
            "only the reliable plan retransmits"
        );
        assert_eq!(c.data_tx - c.retransmits, tx.borrow().sent_new());
        let rx_c = rx_tracer.counters();
        assert!(rx_c.feedback_tx > 0);
        assert_eq!(rx_c.feedback_tx, sink.borrow().0);
    }
}

#[test]
fn data_before_the_handshake_is_received_but_not_processed() {
    let plan = ConnectionPlan::new(Profile::qtp_light());
    let mut rx = Session::receiver(0, 1, 0, &plan);
    let header = QtpPacket::Data {
        seq: 0,
        ts_nanos: 0,
        adu_ts_nanos: 0,
        rtt_hint_micros: 0,
        is_retx: false,
    }
    .encode();
    let mut out = Outbox::new();
    rx.handle_datagram(&mut out, header.len() as u32 + 1020, &header);
    let c = rx.tracer().counters();
    assert_eq!(c.pkts_rx, 1, "the datagram was accepted from the wire");
    assert_eq!((c.data_rx, c.ops), (0, 0), "but dropped unprocessed");
}

#[test]
fn forged_forward_does_not_stall_an_ordered_stream_receiver() {
    // A FWD is honoured under full reliability too, so a peer can move the
    // cumulative ack of an ordered stream arbitrarily far. The receiver
    // must get there in time proportional to what it has stashed, not to
    // the size of the jump.
    let plan =
        ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(1))).stream(StreamConfig::default());
    let mut rx = Session::receiver(0, 1, 0, &plan);
    let stream = rx.recv_stream().expect("stream plan");
    let mut out = Outbox::new();
    let mut deliver = |rx: &mut Session, pkt: QtpPacket| {
        let header = pkt.encode();
        rx.handle_datagram(&mut out, header.len() as u32 + wire::IP_OVERHEAD, &header);
    };
    deliver(
        &mut rx,
        QtpPacket::Syn {
            ts_nanos: 0,
            offered: plan.profile.caps(),
        },
    );
    assert!(rx.negotiated().is_some(), "handshake completed");
    deliver(&mut rx, QtpPacket::Forward { new_cum: 1 << 62 });
    deliver(&mut rx, QtpPacket::Fin { final_seq: 1 << 62 });
    assert!(stream.is_finished());
    assert_eq!(stream.messages_received(), 0);
}

#[test]
fn data_at_u64_max_sequence_is_dropped_not_a_panic() {
    // A peer-chosen sequence with no successor used to overflow the SACK
    // range insert. It must be dropped and counted as a soft error, and
    // must not poison the receiver for the honest packet after it.
    let data = |seq| QtpPacket::Data {
        seq,
        ts_nanos: 0,
        adu_ts_nanos: 0,
        rtt_hint_micros: 0,
        is_retx: false,
    };
    let stream_data = |seq| QtpPacket::StreamData {
        seq,
        ts_nanos: 0,
        adu_ts_nanos: 0,
        rtt_hint_micros: 0,
        is_retx: false,
        ttl_micros: 0,
        payload: vec![7; 100],
    };
    let af = Profile::qtp_af(Rate::from_mbps(1));
    let cases: [(ConnectionPlan, &dyn Fn(u64) -> QtpPacket); 3] = [
        (ConnectionPlan::new(af), &data),
        (ConnectionPlan::new(Profile::qtp_light()), &data),
        (
            ConnectionPlan::new(af).stream(StreamConfig::default()),
            &stream_data,
        ),
    ];
    for (plan, make) in cases {
        let mut rx = Session::receiver(0, 1, 0, &plan);
        let mut out = Outbox::new();
        for pkt in [
            QtpPacket::Syn {
                ts_nanos: 0,
                offered: plan.profile.caps(),
            },
            make(u64::MAX),
            make(5),
        ] {
            let header = pkt.encode();
            rx.handle_datagram(&mut out, header.len() as u32 + 1000, &header);
        }
        assert!(rx.negotiated().is_some(), "handshake completed");
        let c = rx.tracer().counters();
        assert_eq!(c.soft_errors, 1, "the u64::MAX packet is counted");
        assert_eq!(c.pkts_rx, 2, "SYN and seq 5 reach the receiver");
        assert_eq!(c.data_rx, 1, "seq 5 is processed");
    }
}
