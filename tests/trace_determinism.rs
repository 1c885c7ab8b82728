//! The strongest reproducibility check: two runs with the same seed emit
//! **identical event traces** (not just identical aggregate counters),
//! including under stochastic loss and AQM. The trace is the one
//! observability plane: the simulator's queue events and the endpoints'
//! wire, rate and timer events interleaved in a single sink. This is what
//! makes every number in `EXPERIMENTS.md` exactly regenerable.

use qtp::metrics::trace::{TraceEvent, TraceEventKind, TraceRegistry, TraceSink, NETWORK_CONN};
use qtp::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Keeps every event, in emission order.
#[derive(Default)]
struct Collect(Vec<TraceEvent>);

impl TraceSink for Collect {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.push(*ev);
    }
}

fn traced_run(seed: u64) -> Vec<TraceEvent> {
    let sink = Rc::new(RefCell::new(Collect::default()));

    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_rate: Rate::from_mbps(3),
        bottleneck_delay: Duration::from_millis(8),
        bottleneck_queue: QueueConfig::Red(RedParams::default()),
        ..DumbbellConfig::default()
    };
    let (mut sim, net) = Dumbbell::build(&cfg, seed);
    sim.set_trace(sink.clone());

    // A QTPlight connection plus a Poisson background flow: exercises
    // endpoints, RED randomness and source randomness together.
    let h = attach_pair(
        &mut sim,
        net.senders[0],
        net.receivers[0],
        "qtp",
        &ConnectionPlan::new(Profile::qtp_light()),
    );
    let registry = TraceRegistry::new();
    registry.set_sink(sink.clone());
    registry.register("qtp:tx", &h.tx);
    registry.register("qtp:rx", &h.rx);
    let bg = sim.register_flow("bg");
    sim.attach_agent(
        net.senders[1],
        Box::new(PoissonSource::new(
            bg,
            net.receivers[1],
            800,
            Rate::from_mbps(1),
        )),
    );
    sim.attach_agent(net.receivers[1], Box::new(Sink));
    sim.run_until(SimTime::from_secs(5));

    // The simulator and the tracers still hold the sink; take the events.
    let events = std::mem::take(&mut sink.borrow_mut().0);
    events
}

#[test]
fn same_seed_identical_event_trace() {
    let a = traced_run(2024);
    let b = traced_run(2024);
    assert!(
        a.iter()
            .any(|e| matches!(e.kind, TraceEventKind::QueueEnqueue { .. })),
        "trace must capture network events"
    );
    assert!(
        a.iter()
            .any(|e| e.conn != NETWORK_CONN && matches!(e.kind, TraceEventKind::RateUpdate { .. })),
        "trace must capture endpoint events"
    );
    assert_eq!(a.len(), b.len(), "event counts differ");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "first divergence at event {i}");
    }
}

#[test]
fn different_seed_different_trace() {
    let a = traced_run(1);
    let b = traced_run(2);
    // Poisson arrivals and RED draws differ, so the traces must diverge.
    assert_ne!(a, b);
}

#[test]
fn trace_events_are_time_ordered() {
    let trace = traced_run(7);
    for w in trace.windows(2) {
        assert!(w[0].t_nanos <= w[1].t_nanos, "trace went backwards in time");
    }
}
