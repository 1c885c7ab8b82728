//! The simulator workloads: `sim-short-10k` and `sim-long-lossy`.
//!
//! Both build a dumbbell and attach one sender/receiver `Session` pair
//! per flow with the same public calls `SimBackend::run_instrumented`
//! makes (`Dumbbell::build`, `register_flow`, `SimAgent::new`,
//! `Simulator::attach_agent`), then run the same stepped loop: advance
//! `check_interval` of virtual time, stop once every flow has finished
//! its job. The only difference is that each session is reachable from
//! here after the simulator took it, so set-up and the timed phase can
//! be timed apart, and the traced run can mount every session in a
//! [`Tap`](crate::tap::Tap).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use qtp_core::adapter::SimAgent;
use qtp_core::session::{ConnectionPlan, Profile, Session, SimBackend, SimTopology};
use qtp_metrics::trace::{CounterSet, TraceRegistry};
use qtp_sack::ReliabilityMode;
use qtp_simnet::prelude::*;

use crate::tap::{Mounted, Shared, SpanLog};

/// The flow profiles the sim workloads cycle through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// gTFRC + full reliability.
    QtpAf,
    /// Sender-side loss estimation, no reliability.
    QtpLight,
    /// QTPlight with 500 ms TTL partial reliability.
    QtpLightTtl,
    /// Standard TFRC, unreliable.
    Tfrc,
    /// CUBIC, full reliability.
    Cubic,
    /// BBR-lite, full reliability.
    BbrLite,
}

impl Kind {
    fn profile(self, af_floor: Rate) -> Profile {
        match self {
            Kind::QtpAf => Profile::qtp_af(af_floor),
            Kind::QtpLight => Profile::qtp_light(),
            Kind::QtpLightTtl => {
                Profile::qtp_light_partial(Duration::from_millis(500)).expect("nonzero TTL")
            }
            Kind::Tfrc => Profile::tfrc(),
            Kind::Cubic => Profile::cubic(),
            Kind::BbrLite => Profile::bbr_lite(),
        }
    }
}

/// The four-profile mix of the `manyflow` family.
const MIXED: [Kind; 4] = [Kind::QtpAf, Kind::QtpLight, Kind::QtpLightTtl, Kind::Tfrc];
/// Every profile the protocol offers.
const ALL: [Kind; 6] = [
    Kind::QtpAf,
    Kind::QtpLight,
    Kind::QtpLightTtl,
    Kind::Tfrc,
    Kind::Cubic,
    Kind::BbrLite,
];

/// One simulated workload instance.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// Concurrent flows (one sender/receiver pair each).
    pub flows: usize,
    /// Simulator seed.
    pub seed: u64,
    /// Profiles, cycled over the flow index.
    pub kinds: Vec<Kind>,
    /// Finite backlog per flow, packets.
    pub packets_per_flow: u64,
    /// Payload bytes per packet.
    pub payload: u32,
    /// Shared bottleneck rate.
    pub bottleneck: Rate,
    /// Bottleneck one-way delay.
    pub bottleneck_delay: Duration,
    /// Forward bottleneck queue, packets.
    pub queue: usize,
    /// Reverse bottleneck queue, packets.
    pub reverse_queue: usize,
    /// Sender access delay spread, stepped over 16 values.
    pub rtt_spread: (Duration, Duration),
    /// Reordering and corruption on the forward bottleneck.
    pub path: PathModel,
    /// Virtual-time bound.
    pub horizon: Duration,
    /// Completion sampling step.
    pub check_interval: Duration,
}

impl SimWorkload {
    /// `sim-short-10k`: the `manyflow` family's default instance at 10^4
    /// flows — 30-packet mixed-profile transfers on the shared dumbbell,
    /// bottleneck 100 kbit/s per flow. At seed 42 this is exactly the
    /// 10^4 point of the repository's `BENCH_simnet.json`.
    pub fn short_10k(seed: u64) -> Self {
        let flows = 10_000;
        SimWorkload {
            flows,
            seed,
            kinds: MIXED.to_vec(),
            packets_per_flow: 30,
            payload: 1000,
            bottleneck: Rate::from_kbps((flows as u64 * 100).max(10_000)),
            bottleneck_delay: Duration::from_millis(10),
            queue: flows.max(50),
            reverse_queue: (2 * flows).max(1000),
            rtt_spread: (Duration::from_millis(2), Duration::from_millis(30)),
            path: PathModel::none(),
            horizon: Duration::from_secs(120),
            check_interval: Duration::from_millis(250),
        }
    }

    /// `sim-long-lossy`: 36 long transfers cycling all six profiles over
    /// a bottleneck that reorders 2% of packets (up to 4 ms late) and
    /// corrupts 0.5% (corruption acts as erasure), on top of drop-tail
    /// congestion loss.
    pub fn long_lossy(seed: u64) -> Self {
        SimWorkload {
            flows: 36,
            seed,
            kinds: ALL.to_vec(),
            packets_per_flow: 5_000,
            payload: 1000,
            bottleneck: Rate::from_mbps(40),
            bottleneck_delay: Duration::from_millis(10),
            queue: 200,
            reverse_queue: 1000,
            rtt_spread: (Duration::from_millis(2), Duration::from_millis(20)),
            path: PathModel::none()
                .with_reorder(0.02, Duration::from_millis(4))
                .with_corrupt(0.005),
            horizon: Duration::from_secs(300),
            check_interval: Duration::from_millis(250),
        }
    }

    fn kind(&self, i: usize) -> Kind {
        self.kinds[i % self.kinds.len()]
    }

    fn af_floor(&self) -> Rate {
        Rate::from_bps((self.bottleneck.bps() / self.flows.max(1) as u64).max(8_000))
    }

    fn access_delay(&self, i: usize) -> Duration {
        let (lo, hi) = self.rtt_spread;
        let step = (i as u32) % 16;
        lo + hi.saturating_sub(lo) * step / 15
    }

    /// The connection plan of flow `i`.
    pub fn plan(&self, i: usize) -> ConnectionPlan {
        ConnectionPlan::new(self.kind(i).profile(self.af_floor()))
            .finite(self.packets_per_flow)
            .label(format!("mf{i:04}"))
            .payload(self.payload)
    }

    /// Bytes a fully reliable flow must deliver.
    pub fn target_bytes(&self) -> u64 {
        self.packets_per_flow * u64::from(self.payload)
    }

    fn dumbbell(&self) -> DumbbellConfig {
        DumbbellConfig {
            pairs: self.flows,
            access_rate: Rate::from_mbps(100),
            access_delay: self.rtt_spread.0,
            access_delays: Some((0..self.flows).map(|i| self.access_delay(i)).collect()),
            bottleneck_rate: self.bottleneck,
            bottleneck_delay: self.bottleneck_delay,
            bottleneck_queue: QueueConfig::DropTailPkts(self.queue),
            reverse_queue: QueueConfig::DropTailPkts(self.reverse_queue),
            bottleneck_path: self.path.clone(),
        }
    }

    /// Build the network and attach every flow, mounting each session as
    /// `E` (bare for the untraced run, in a [`Tap`](crate::tap::Tap) for
    /// the traced one).
    pub fn setup<E: Mounted>(&self, log: &SpanLog) -> Rig<E> {
        let (mut sim, net) = Dumbbell::build(&self.dumbbell(), self.seed);
        let mut flows = Vec::with_capacity(self.flows);
        for i in 0..self.flows {
            let plan = self.plan(i);
            let (s, r) = (net.senders[i], net.receivers[i]);
            let data_flow = sim.register_flow(&plan.label);
            let fb_flow = sim.register_flow(&format!("{}-fb", plan.label));
            let tx = Rc::new(RefCell::new(E::mount(
                Session::sender(data_flow, r, &plan),
                log,
            )));
            let rx = Rc::new(RefCell::new(E::mount(
                Session::receiver(data_flow, fb_flow, s, &plan),
                log,
            )));
            sim.attach_agent(s, Box::new(SimAgent::new(Shared(tx.clone()))));
            sim.attach_agent(r, Box::new(SimAgent::new(Shared(rx.clone()))));
            flows.push(Flow {
                plan,
                data_flow,
                tx,
                rx,
                done_at: None,
            });
        }
        Rig { sim, flows }
    }

    /// Run the same plans through `SimBackend::run_instrumented` — the
    /// reference the benchmark's own harness must reproduce exactly.
    pub fn run_backend(&self) -> SimCounts {
        let registry = TraceRegistry::new();
        let mut backend = SimBackend {
            topology: SimTopology::Dumbbell(Box::new(self.dumbbell())),
            seed: self.seed,
            horizon: self.horizon,
            check_interval: self.check_interval,
            trace: Some(registry.clone()),
        };
        let plans: Vec<ConnectionPlan> = (0..self.flows).map(|i| self.plan(i)).collect();
        let (outcomes, metrics) = backend
            .run_instrumented(&plans)
            .expect("the simulator backend does not fail");
        let mut counters = CounterSet::default();
        for (_, _, c) in registry.connections() {
            counters.merge(&c);
        }
        SimCounts {
            events: metrics.events_processed,
            completed: outcomes.iter().filter(|o| o.completion_s.is_some()).count(),
            delivered_bytes: outcomes.iter().map(|o| o.delivered_bytes).sum(),
            pool_high_water: metrics.packet_pool_high_water,
            counters,
        }
    }
}

struct Flow<E> {
    plan: ConnectionPlan,
    data_flow: FlowId,
    tx: Rc<RefCell<E>>,
    rx: Rc<RefCell<E>>,
    done_at: Option<SimTime>,
}

/// A built simulation, ready for its timed phase.
pub struct Rig<E> {
    sim: Simulator,
    flows: Vec<Flow<E>>,
}

/// The deterministic outcome of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// Events the simulator dispatched.
    pub events: u64,
    /// Flows that finished their job within the horizon.
    pub completed: usize,
    /// Application bytes delivered, all flows.
    pub delivered_bytes: u64,
    /// Packet-arena high-water mark.
    pub pool_high_water: usize,
    /// Sum of every session's counters, both sides.
    pub counters: CounterSet,
}

/// What one timed phase produced.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Deterministic counters.
    pub counts: SimCounts,
    /// Application data delivered at the receivers, in payload-sized
    /// packets.
    pub delivered_pkts: u64,
    /// New (first-transmission) data packets the senders sent.
    pub sent_new: u64,
    /// Sender-side counters only.
    pub tx_counters: CounterSet,
    /// Receiver-side counters only.
    pub rx_counters: CounterSet,
    /// Wall time of the timed phase.
    pub wall: Duration,
    /// Process CPU time of the timed phase.
    pub cpu: Duration,
    /// Wall time inside `Simulator::run_until`.
    pub run_until: Duration,
    /// Fully reliable flows that delivered less than their backlog.
    pub short_deliveries: Vec<String>,
}

impl<E: Mounted> Rig<E> {
    /// The timed phase: step virtual time until every flow finished its
    /// job or the horizon passed.
    pub fn run(mut self, w: &SimWorkload) -> SimRun {
        let cpu0 = crate::sys::cpu_time();
        let start = Instant::now();
        let mut run_until = Duration::ZERO;
        let horizon = SimTime::ZERO + w.horizon;
        let mut t = SimTime::ZERO;
        while t < horizon {
            t = (t + w.check_interval).min(horizon);
            let slice = Instant::now();
            self.sim.run_until(t);
            run_until += slice.elapsed();
            let mut all_done = true;
            for f in self.flows.iter_mut().filter(|f| f.done_at.is_none()) {
                let delivered = self.sim.stats().flow(f.data_flow).bytes_app_delivered;
                if finished(&f.plan, f.tx.borrow().session(), delivered) {
                    f.done_at = Some(t);
                } else {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
        }
        let wall = start.elapsed();
        let cpu = crate::sys::cpu_time().saturating_sub(cpu0);

        let mut tx_counters = CounterSet::default();
        let mut rx_counters = CounterSet::default();
        let mut sent_new = 0;
        let mut delivered_bytes = 0;
        let mut short_deliveries = Vec::new();
        for f in &self.flows {
            let tx = f.tx.borrow();
            let rx = f.rx.borrow();
            tx_counters.merge(&tx.session().tracer().counters());
            rx_counters.merge(&rx.session().tracer().counters());
            sent_new += tx.session().sent_new();
            let delivered = self.sim.stats().flow(f.data_flow).bytes_app_delivered;
            delivered_bytes += delivered;
            if full_reliability(&f.plan, tx.session()) && delivered != w.target_bytes() {
                short_deliveries.push(format!(
                    "{}: delivered {delivered} of {} bytes",
                    f.plan.label,
                    w.target_bytes()
                ));
            }
        }
        let mut counters = tx_counters;
        counters.merge(&rx_counters);
        SimRun {
            counts: SimCounts {
                events: self.sim.events_processed(),
                completed: self.flows.iter().filter(|f| f.done_at.is_some()).count(),
                delivered_bytes,
                pool_high_water: self.sim.packet_pool_high_water(),
                counters,
            },
            delivered_pkts: delivered_bytes / u64::from(w.payload),
            sent_new,
            tx_counters,
            rx_counters,
            wall,
            cpu,
            run_until,
            short_deliveries,
        }
    }
}

fn full_reliability(plan: &ConnectionPlan, tx: &Session) -> bool {
    plan.effective_reliability(tx.negotiated()) == ReliabilityMode::Full
}

/// `SimBackend`'s completion rule: a fully reliable flow is done when its
/// whole backlog was delivered, any other when its backlog was sent.
fn finished(plan: &ConnectionPlan, tx: &Session, delivered_bytes: u64) -> bool {
    let Some(packets) = plan.finite_packets() else {
        return false;
    };
    if full_reliability(plan, tx) {
        delivered_bytes >= packets * u64::from(plan.payload)
    } else {
        tx.sent_new() >= packets
    }
}
