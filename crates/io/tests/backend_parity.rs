//! The acceptance test for the backend seam: the *same*
//! [`ConnectionPlan`]s run unchanged on all three backends — the
//! deterministic simulator, one UDP socket pair per connection,
//! and the single-socket connection multiplexer — and every backend
//! negotiates the identical service and honours the same completion
//! semantics.

use qtp_core::session::{Backend, ConnectionPlan, Profile, SessionEvent, SimBackend};
use qtp_core::{CapabilitySet, ServerPolicy};
use qtp_io::backend::{MuxBackend, UdpBackend};
use qtp_simnet::time::Rate;
use std::time::Duration;

const PACKETS: u64 = 10;
const PAYLOAD: u64 = 1000;

/// One plan per capability corner: reliable gTFRC, light, TTL-partial,
/// plain TFRC.
fn plans() -> Vec<ConnectionPlan> {
    vec![
        ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(400)))
            .label("af")
            .finite(PACKETS),
        ConnectionPlan::new(Profile::qtp_light())
            .label("light")
            .finite(PACKETS),
        ConnectionPlan::new(Profile::qtp_light_partial(Duration::from_millis(400)).unwrap())
            .label("ttl")
            .finite(PACKETS),
        ConnectionPlan::new(Profile::tfrc())
            .label("tfrc")
            .finite(PACKETS),
    ]
}

#[test]
fn same_plans_run_on_all_three_backends() {
    let plans = plans();
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(SimBackend::isolated(
            Rate::from_mbps(10),
            Duration::from_millis(5),
            0.0,
        )),
        Box::new(UdpBackend::default()),
        Box::new(MuxBackend::default()),
    ];

    let expected: Vec<Option<CapabilitySet>> = plans
        .iter()
        .map(|p| Some(ServerPolicy::default().negotiate(p.profile.caps())))
        .collect();

    for backend in &mut backends {
        let outcomes = backend.run(&plans).expect("backend run");
        assert_eq!(outcomes.len(), plans.len(), "[{}]", backend.name());
        for (o, want) in outcomes.iter().zip(&expected) {
            // Identical negotiated service on every backend: negotiation
            // is a pure function of offer × policy, not of the I/O path.
            assert_eq!(
                &o.negotiated,
                want,
                "[{}] {}: negotiated service",
                backend.name(),
                o.label
            );
            assert!(
                o.completion_s.is_some(),
                "[{}] {}: completed",
                backend.name(),
                o.label
            );
            // Both ends observed the handshake as a typed event.
            assert!(
                o.tx_events
                    .iter()
                    .any(|e| matches!(e, SessionEvent::Connected { .. })),
                "[{}] {}: sender Connected event",
                backend.name(),
                o.label
            );
            assert!(
                o.rx_events
                    .iter()
                    .any(|e| matches!(e, SessionEvent::Connected { .. })),
                "[{}] {}: receiver Connected event",
                backend.name(),
                o.label
            );
        }
        // The fully-reliable plan delivered every byte, whatever carried it.
        assert_eq!(
            outcomes[0].delivered_bytes,
            PACKETS * PAYLOAD,
            "[{}] reliable delivery",
            backend.name()
        );
    }
}
