//! One benchmark invocation per workload: rounds of set-up plus timed
//! phase for `--seconds`, then the metrics of the requested mode.
//!
//! An untraced invocation reports the end-to-end metrics. A traced one
//! first repeats untraced rounds for half its time (the baseline for
//! `trace.overhead_ratio` and the reference for the non-perturbation
//! check), then runs traced rounds, with every session mounted in a
//! [`Tap`], and reports the per-layer metrics.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use qtp_core::session::Session;

use crate::codec;
use crate::mux::{MuxRun, MuxWorkload};
use crate::report::{median, ratio, Report};
use crate::sim::{SimCounts, SimRun, SimWorkload};
use crate::sys;
use crate::tap::{SpanLog, Spans, Tap};
use crate::udp::UdpWorkload;

/// Set-ups measured per invocation: at least [`MIN_SETUPS`], and up to
/// [`MAX_SETUPS`] while the extra ones take less than [`SETUP_BUDGET`],
/// so a cheap set-up is sampled often enough for a steady median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Time given to each codec's replay.
const CODEC_BUDGET: Duration = Duration::from_millis(40);

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10^4 short mixed-profile flows on the simulator.
    SimShort10k,
    /// Long flows of all six profiles over a lossy, reordering path.
    SimLongLossy,
    /// 64 stream transfers over one loopback mux pair.
    MuxBulk64,
    /// One finite transfer through `UdpBackend`.
    UdpSingle,
}

impl Workload {
    /// Every workload the binary runs. `BENCHMARK.json` gates all but
    /// `sim-long-lossy`, whose compute-bound timing swings with host
    /// contention by more than any permitted bound (see README.md).
    pub const ALL: [Workload; 4] = [
        Workload::SimShort10k,
        Workload::SimLongLossy,
        Workload::MuxBulk64,
        Workload::UdpSingle,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimShort10k => "sim-short-10k",
            Workload::SimLongLossy => "sim-long-lossy",
            Workload::MuxBulk64 => "mux-bulk-64",
            Workload::UdpSingle => "udp-single",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether its traffic is simulated or crosses the loopback interface.
    pub fn traffic(self) -> &'static str {
        match self {
            Workload::SimShort10k | Workload::SimLongLossy => "simulated",
            Workload::MuxBulk64 | Workload::UdpSingle => "loopback",
        }
    }

    /// Run the workload for `seconds`, traced or not.
    pub fn run(self, seed: u64, seconds: f64, traced: bool) -> Report {
        let budget = Duration::from_secs_f64(seconds);
        let result = match self {
            Workload::SimShort10k => Ok(sim(
                SimWorkload::short_10k(seed),
                budget,
                traced,
                seed == 42,
            )),
            Workload::SimLongLossy => Ok(sim(SimWorkload::long_lossy(seed), budget, traced, false)),
            Workload::MuxBulk64 => mux(MuxWorkload::bulk_64(seed), budget, traced),
            Workload::UdpSingle => udp(UdpWorkload::single(), budget, traced),
        };
        result.unwrap_or_else(|e| {
            let mut r = Report::default();
            r.error(format!("socket error: {e}"));
            r
        })
    }
}

fn new_log() -> SpanLog {
    Rc::new(RefCell::new(Spans::default()))
}

/// Untraced rounds and what they measured.
#[derive(Default)]
struct Baseline {
    setups: Vec<f64>,
    ns_per_pkt: Vec<f64>,
    cpu_ns_per_pkt: Vec<f64>,
    busy: Vec<f64>,
    rss_kib_per_flow: Option<f64>,
}

impl Baseline {
    fn round(&mut self, setup: Duration, wall: Duration, cpu: Duration, pkts: u64) {
        self.setups.push(setup.as_secs_f64());
        let pkts = pkts.max(1) as f64;
        self.ns_per_pkt.push(wall.as_nanos() as f64 / pkts);
        self.cpu_ns_per_pkt.push(cpu.as_nanos() as f64 / pkts);
        self.busy.push(ratio(cpu.as_secs_f64(), wall.as_secs_f64()));
    }

    /// Time extra set-ups (each built and dropped) until the sample is
    /// large enough.
    fn more_setups(
        &mut self,
        mut setup: impl FnMut() -> std::io::Result<Duration>,
    ) -> std::io::Result<()> {
        let start = Instant::now();
        while self.setups.len() < MIN_SETUPS
            || (self.setups.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET)
        {
            self.setups.push(setup()?.as_secs_f64());
        }
        Ok(())
    }

    /// The process-level layer: CPU over wall, and CPU per packet.
    fn report_io(&self, r: &mut Report) {
        r.set("io.busy_ratio", median(&self.busy));
        r.set("io.cpu_ns_per_pkt", median(&self.cpu_ns_per_pkt));
    }

    fn report_end_to_end(&self, r: &mut Report, flows: usize) {
        r.set("setup_s", median(&self.setups));
        r.set("ns_per_pkt", median(&self.ns_per_pkt));
        r.set(
            "peak_rss_kib_per_flow",
            sys::peak_rss_kib() as f64 / flows as f64,
        );
        let lo = self
            .ns_per_pkt
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = self.ns_per_pkt.iter().copied().fold(0.0, f64::max);
        r.note(format!(
            "{} timed rounds (ns_per_pkt {lo:.1} to {hi:.1}), {} set-ups",
            self.ns_per_pkt.len(),
            self.setups.len()
        ));
    }
}

/// Repeat `round` until `budget` has passed, at least once; stop at the
/// first error.
fn rounds(budget: Duration, mut round: impl FnMut() -> std::io::Result<()>) -> std::io::Result<()> {
    let start = Instant::now();
    loop {
        round()?;
        if start.elapsed() >= budget {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------------

/// `check_continuity`: compare the counts with `BENCH_simnet.json`.
fn sim(w: SimWorkload, budget: Duration, traced: bool, check_continuity: bool) -> Report {
    let mut r = Report::default();
    let mut base = Baseline::default();
    let mut reference: Option<SimCounts> = None;
    let untraced_budget = if traced { budget / 2 } else { budget };
    let log = new_log();

    // Every round of one seed, traced or not, must repeat the first
    // untraced round's counts exactly: the non-perturbation check.
    let check = |r: &mut Report, reference: &mut Option<SimCounts>, run: &SimRun, what: &str| {
        r.attempted += w.flows as u64;
        r.failed += (w.flows - run.counts.completed) as u64;
        for e in &run.short_deliveries {
            r.error(format!("short delivery on a fully reliable flow: {e}"));
        }
        match reference {
            None => *reference = Some(run.counts),
            Some(c) if *c != run.counts => r.error(format!(
                "{what} round differs from the first untraced round: {:?} vs {c:?}",
                run.counts
            )),
            Some(_) => {}
        }
    };

    rounds(untraced_budget, || {
        let rss0 = sys::rss_kib();
        let t0 = Instant::now();
        let rig = w.setup::<Session>(&log);
        let setup = t0.elapsed();
        if base.rss_kib_per_flow.is_none() {
            base.rss_kib_per_flow =
                Some(sys::rss_kib().saturating_sub(rss0) as f64 / w.flows as f64);
        }
        let run = rig.run(&w);
        base.round(setup, run.wall, run.cpu, run.delivered_pkts);
        check(&mut r, &mut reference, &run, "untraced");
        Ok(())
    })
    .expect("the simulator does not fail");
    base.more_setups(|| {
        let t0 = Instant::now();
        let rig = w.setup::<Session>(&log);
        let setup = t0.elapsed();
        drop(rig);
        Ok(setup)
    })
    .expect("simulator set-up does not fail");
    let c = reference.expect("at least one round ran");
    r.note(format!(
        "{} flows: {} events, {} completed, {} delivered bytes, pool high-water {}",
        w.flows, c.events, c.completed, c.delivered_bytes, c.pool_high_water
    ));
    if check_continuity {
        continuity(&mut r, &c);
    }
    if !traced {
        base.report_end_to_end(&mut r, w.flows);
        return r;
    }

    let mut last: Option<(SimRun, SpanLog)> = None;
    let mut traced_ns = Vec::new();
    rounds(budget.saturating_sub(untraced_budget), || {
        let log = new_log();
        let rig = w.setup::<Tap<Session>>(&log);
        let run = rig.run(&w);
        traced_ns.push(run.wall.as_nanos() as f64 / run.delivered_pkts.max(1) as f64);
        check(&mut r, &mut reference, &run, "traced");
        last = Some((run, log));
        Ok(())
    })
    .expect("the simulator does not fail");
    let (run, log) = last.expect("at least one traced round ran");
    let spans = log.borrow();
    let pkts = run.delivered_pkts as f64;
    let events = run.counts.events as f64;
    r.set("simnet.events_per_pkt", ratio(events, pkts));
    r.set(
        "simnet.self_ns_per_event",
        ratio(
            run.run_until.as_nanos() as f64 - spans.call_ns as f64,
            events,
        ),
    );
    r.set("simnet.pool_high_water", run.counts.pool_high_water as f64);
    r.set(
        "setup.rss_kib_per_flow",
        base.rss_kib_per_flow.unwrap_or(0.0),
    );
    session_layers(
        &mut r,
        &spans,
        &run.tx_counters,
        &run.rx_counters,
        run.sent_new,
        pkts,
    );
    codec_layers(&mut r, &spans, pkts);
    base.report_io(&mut r);
    r.set(
        "trace.overhead_ratio",
        ratio(median(&traced_ns), median(&base.ns_per_pkt)),
    );
    r
}

/// The session, sack and cc layers, from the Tap spans and the sessions'
/// counters.
fn session_layers(
    r: &mut Report,
    spans: &Spans,
    tx: &qtp_metrics::trace::CounterSet,
    rx: &qtp_metrics::trace::CounterSet,
    sent_new: u64,
    pkts: f64,
) {
    let calls = spans.calls as f64;
    let mut all = *tx;
    all.merge(rx);
    r.set("session.calls_per_pkt", ratio(calls, pkts));
    r.set(
        "session.self_ns_per_call",
        ratio(spans.call_ns as f64, calls),
    );
    r.set("session.cmds_per_call", ratio(spans.cmds as f64, calls));
    r.set(
        "session.timers_set_per_pkt",
        ratio(all.timers_set as f64, pkts),
    );
    r.set(
        "session.stale_timer_ratio",
        ratio(
            all.timers_cancelled as f64,
            (all.timer_fires + all.timers_cancelled) as f64,
        ),
    );
    r.set(
        "sack.retx_ratio",
        ratio(tx.retransmits as f64, sent_new as f64),
    );
    r.set(
        "sack.loss_events_per_kpkt",
        ratio(1000.0 * all.loss_events as f64, pkts),
    );
    r.set(
        "cc.rate_updates_per_pkt",
        ratio((tx.rate_updates + tx.cc_state_updates) as f64, pkts),
    );
    r.set(
        "cc.feedback_per_pkt",
        ratio(rx.pkts_tx as f64, (sent_new + tx.retransmits) as f64),
    );
}

/// The wire and frame codecs, by replaying the captured datagrams.
fn codec_layers(r: &mut Report, spans: &Spans, pkts: f64) {
    r.set(
        "wire.header_bytes_per_pkt",
        ratio(spans.header_bytes as f64, pkts),
    );
    match codec::replay(&spans.sample, CODEC_BUDGET) {
        Ok(c) => {
            r.set("wire.decode_ns", c.wire_decode_ns);
            r.set("wire.encode_ns", c.wire_encode_ns);
            r.set("frame.encode_ns", c.frame_encode_ns);
            r.set("frame.decode_ns", c.frame_decode_ns);
        }
        Err(e) => r.error(format!("codec replay: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Socket workloads
// ---------------------------------------------------------------------------

fn mux(w: MuxWorkload, budget: Duration, traced: bool) -> std::io::Result<Report> {
    let mut r = Report::default();
    let mut base = Baseline::default();
    let untraced_budget = if traced { budget / 2 } else { budget };
    let log = new_log();

    let check = |r: &mut Report, run: &MuxRun| {
        r.attempted += w.conns() as u64;
        r.failed += (w.conns() - run.completed) as u64;
        for e in &run.errors {
            r.error(e.clone());
        }
    };

    rounds(untraced_budget, || {
        let rss0 = sys::rss_kib();
        let t0 = Instant::now();
        let rig = w.setup::<Session>(&log)?;
        let setup = t0.elapsed();
        if base.rss_kib_per_flow.is_none() {
            base.rss_kib_per_flow =
                Some(sys::rss_kib().saturating_sub(rss0) as f64 / w.conns() as f64);
        }
        let run = rig.run(&w, &log, false)?;
        base.round(setup, run.wall, run.cpu, run.delivered_pkts);
        check(&mut r, &run);
        Ok(())
    })?;
    base.more_setups(|| {
        let t0 = Instant::now();
        let rig = w.setup::<Session>(&log)?;
        let setup = t0.elapsed();
        drop(rig);
        Ok(setup)
    })?;
    if !traced {
        base.report_end_to_end(&mut r, w.conns());
        return Ok(r);
    }

    let mut last: Option<(MuxRun, SpanLog)> = None;
    let mut traced_ns = Vec::new();
    rounds(budget.saturating_sub(untraced_budget), || {
        let log = new_log();
        let run = w.setup::<Tap<Session>>(&log)?.run(&w, &log, true)?;
        traced_ns.push(run.wall.as_nanos() as f64 / run.delivered_pkts.max(1) as f64);
        check(&mut r, &run);
        last = Some((run, log));
        Ok(())
    })?;
    let (run, log) = last.expect("at least one traced round ran");
    let spans = log.borrow();
    let pkts = run.delivered_pkts as f64;
    r.set(
        "setup.rss_kib_per_flow",
        base.rss_kib_per_flow.unwrap_or(0.0),
    );
    session_layers(
        &mut r,
        &spans,
        &run.tx_counters,
        &run.rx_counters,
        run.sent_new,
        pkts,
    );
    codec_layers(&mut r, &spans, pkts);

    let s = &run.spans;
    let kib = |b: u64| b as f64 / 1024.0;
    r.set(
        "stream.send_ns_per_kib",
        ratio(s.send_time.as_nanos() as f64, kib(s.send_bytes)),
    );
    r.set(
        "stream.recv_ns_per_kib",
        ratio(s.recv_time.as_nanos() as f64, kib(s.recv_bytes)),
    );
    r.set(
        "stream.full_ratio",
        ratio(s.send_full as f64, s.send_calls as f64),
    );

    let (c, sv) = (&run.client, &run.server);
    let received = (c.datagrams_received + sv.datagrams_received) as f64;
    let dropped = (c.datagrams_rejected
        + c.datagrams_unroutable
        + sv.datagrams_rejected
        + sv.datagrams_unroutable) as f64;
    r.set(
        "mux.self_ns_per_dgram",
        ratio(
            s.busy_drive.saturating_sub(s.busy_endpoint).as_nanos() as f64,
            received,
        ),
    );
    r.set(
        "mux.idle_poll_ratio",
        ratio(s.idle_calls as f64, s.drive_calls as f64),
    );
    r.set(
        "mux.timers_fired_per_pkt",
        ratio((c.timers_fired + sv.timers_fired) as f64, pkts),
    );
    r.set(
        "mux.wheel_high_water",
        c.timer_wheel_high_water.max(sv.timer_wheel_high_water) as f64,
    );
    r.set(
        "mux.requeued_ratio",
        ratio(
            (c.sends_requeued + sv.sends_requeued) as f64,
            (c.datagrams_sent + sv.datagrams_sent) as f64,
        ),
    );
    r.set("mux.dropped_ratio", ratio(dropped, received + dropped));
    base.report_io(&mut r);
    r.set(
        "trace.overhead_ratio",
        ratio(median(&traced_ns), median(&base.ns_per_pkt)),
    );
    Ok(r)
}

fn udp(w: UdpWorkload, budget: Duration, traced: bool) -> std::io::Result<Report> {
    let mut r = Report::default();
    let mut base = Baseline::default();
    rounds(budget, || {
        let setup = w.setup()?;
        let run = w.run()?;
        base.round(setup, run.wall, run.cpu, run.delivered_pkts);
        r.attempted += 1;
        r.failed += u64::from(!run.completed);
        for e in run.errors {
            r.error(e);
        }
        Ok(())
    })?;
    base.more_setups(|| w.setup())?;
    if traced {
        // `UdpBackend` gives no seam for a Tap: its traced run is its
        // untraced run, and only the process-level layer is reported.
        base.report_io(&mut r);
        r.set("trace.overhead_ratio", 1.0);
    } else {
        base.report_end_to_end(&mut r, 1);
    }
    Ok(r)
}

// ---------------------------------------------------------------------------
// Continuity with the simulator scaling benchmark
// ---------------------------------------------------------------------------

/// The 10^4-flow point of `BENCH_simnet.json`: events, completed flows,
/// delivered bytes, packet-pool high-water.
pub fn simnet_baseline(text: &str) -> Option<[u64; 4]> {
    let start = text.find("\"flows\": 10000,")?;
    let point = &text[start..start + text[start..].find('}')?];
    let field = |key: &str| -> Option<u64> {
        let at = point.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = point[at..].trim_start();
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    Some([
        field("events")?,
        field("completed")?,
        field("delivered_bytes")?,
        field("packet_pool_high_water")?,
    ])
}

/// At seed 42, `sim-short-10k` must reproduce the 10^4 point of the
/// repository's `BENCH_simnet.json` (read from the working directory)
/// exactly.
fn continuity(r: &mut Report, c: &SimCounts) {
    let Ok(text) = std::fs::read_to_string("BENCH_simnet.json") else {
        r.note("continuity: BENCH_simnet.json not in the working directory, not checked");
        return;
    };
    let Some(want) = simnet_baseline(&text) else {
        r.error("continuity: BENCH_simnet.json has no 10000-flow point");
        return;
    };
    let got = [
        c.events,
        c.completed as u64,
        c.delivered_bytes,
        c.pool_high_water as u64,
    ];
    if got == want {
        r.note("continuity: matches the 10^4 point of BENCH_simnet.json");
    } else {
        r.error(format!(
            "continuity: BENCH_simnet.json has [events, completed, delivered_bytes, \
             pool_high_water] = {want:?} at 10^4 flows, this run gave {got:?}"
        ));
    }
}
