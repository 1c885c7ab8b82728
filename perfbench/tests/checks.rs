//! The benchmark's own checks:
//!
//! * non-perturbation — for each simulator workload at a fixed seed, the
//!   traced run (every session in a `Tap`) gives exactly the counters of
//!   the untraced run and of the plain `SimBackend` run: events,
//!   delivered bytes, completed flows, packet-pool high-water, and the
//!   summed per-connection `CounterSet`s;
//! * continuity — `sim-short-10k` at seed 42 reproduces the 10^4-flow
//!   point of the repository's `BENCH_simnet.json`, so this benchmark and
//!   the `simbench` trajectory measure the same program;
//! * the socket workloads' output checks pass on loopback, traced and
//!   untraced.

use perfbench::bench::simnet_baseline;
use perfbench::sim::{SimCounts, SimWorkload};
use perfbench::tap::{Spans, Tap};
use qtp_core::session::Session;
use std::cell::RefCell;
use std::rc::Rc;

fn untraced(w: &SimWorkload) -> SimCounts {
    let log = Rc::new(RefCell::new(Spans::default()));
    w.setup::<Session>(&log).run(w).counts
}

fn traced(w: &SimWorkload) -> (SimCounts, Spans) {
    let log = Rc::new(RefCell::new(Spans::default()));
    let counts = w.setup::<Tap<Session>>(&log).run(w).counts;
    let spans = log.replace(Spans::default());
    (counts, spans)
}

fn assert_not_perturbed(w: &SimWorkload) -> SimCounts {
    let backend = w.run_backend();
    let plain = untraced(w);
    let (tapped, spans) = traced(w);
    assert_eq!(plain, backend, "the harness reproduces SimBackend");
    assert_eq!(tapped, plain, "tracing does not perturb the run");
    assert!(
        spans.calls > 0 && spans.transmits > 0,
        "the Tap saw the run"
    );
    assert!(!spans.sample.is_empty(), "headers were captured");
    assert_eq!(plain.completed, w.flows, "every flow finished its job");
    plain
}

#[test]
fn sim_long_lossy_traced_run_is_not_perturbed() {
    let w = SimWorkload::long_lossy(7);
    let c = assert_not_perturbed(&w);
    assert!(c.counters.retransmits > 0, "the lossy path forces recovery");
    assert!(c.counters.loss_events > 0);
}

#[test]
fn sim_short_10k_is_not_perturbed_and_matches_bench_simnet() {
    let w = SimWorkload::short_10k(42);
    let c = assert_not_perturbed(&w);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_simnet.json");
    let text = std::fs::read_to_string(path).expect("BENCH_simnet.json is readable");
    let want = simnet_baseline(&text).expect("BENCH_simnet.json has a 10^4-flow point");
    assert_eq!(
        [
            c.events,
            c.completed as u64,
            c.delivered_bytes,
            c.pool_high_water as u64
        ],
        want,
        "[events, completed, delivered_bytes, pool_high_water] at 10^4 flows, seed 42"
    );
    assert_eq!(want, [3_860_220, 10_000, 172_934_000, 25_517]);
}

#[test]
fn simnet_baseline_reads_the_10k_point() {
    let text = r#"{"points": [
        {"flows": 1000, "events": 1, "completed": 2, "delivered_bytes": 3, "packet_pool_high_water": 4},
        {"flows": 10000, "events": 5, "completed": 6, "delivered_bytes": 7, "packet_pool_high_water": 8, "wall_s": 1.5}
    ]}"#;
    assert_eq!(simnet_baseline(text), Some([5, 6, 7, 8]));
    assert_eq!(simnet_baseline("{}"), None);
}

#[test]
fn socket_workloads_pass_their_output_checks_traced_and_untraced() {
    use perfbench::mux::MuxWorkload;
    use perfbench::udp::UdpWorkload;

    let w = MuxWorkload::bulk_64(3);
    for traced in [false, true] {
        let log = Rc::new(RefCell::new(Spans::default()));
        let run = if traced {
            w.setup::<Tap<Session>>(&log).unwrap().run(&w, &log, true)
        } else {
            w.setup::<Session>(&log).unwrap().run(&w, &log, false)
        }
        .expect("loopback mux round");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(run.completed, w.conns(), "every stream closed byte-exact");
        assert_eq!(
            log.borrow().calls > 0,
            traced,
            "only the traced round is spanned"
        );
    }

    let run = UdpWorkload::single().run().expect("loopback udp transfer");
    assert!(run.errors.is_empty(), "{:?}", run.errors);
    assert!(run.completed);
}
