//! The many-flow workload family: N concurrent QTP connections with mixed
//! capability profiles over a shared bottleneck.
//!
//! The paper's experiments stop at 1–4 flows; this module is the scaling
//! counterpart the ROADMAP calls for — a parameterised dumbbell scenario
//! family (N up to 1000+) whose per-flow outcomes (throughput, completion
//! time) feed a Jain fairness index. The *same* workload description runs
//! on two backends:
//!
//! * [`run_sim`] — an N-pair dumbbell in the deterministic simulator
//!   (same seed ⇒ byte-identical report), with per-flow RTT spread and a
//!   shared bottleneck; and
//! * [`run_mux_loopback`] — the real-socket connection multiplexer
//!   (`qtp_io::mux`): one client socket with N senders, one server socket
//!   accepting N receivers on first frame, over 127.0.0.1.
//!
//! Profiles cycle over the flow index, so a "mixed" run interleaves QTPAF
//! (fully reliable, gTFRC), QTPlight (unreliable, sender-side loss
//! estimation), TTL-partial QTPlight, and standard TFRC connections — the
//! versatility claim at scale. Completion means "the flow finished its
//! job": full delivery for reliable profiles, backlog fully transmitted
//! for the others (which promise no delivery).

use qtp_core::session::{
    Backend, ConnectionOutcome, ConnectionPlan, Profile, SimBackend, SimRunMetrics, SimTopology,
};
use qtp_io::backend::{MuxBackend, MuxRunStats};
use qtp_simnet::prelude::*;
use std::time::Duration;

/// One of the negotiable capability profiles a flow can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileKind {
    /// gTFRC + full reliability (paper §4).
    QtpAf,
    /// Sender-side loss estimation, no reliability (paper §3).
    QtpLight,
    /// QTPlight with TTL-bounded partial reliability.
    QtpLightTtl,
    /// Standard TFRC baseline (receiver-side estimation, unreliable).
    Tfrc,
    /// CUBIC window growth (RFC 8312), full reliability.
    Cubic,
    /// Deterministic BBR-lite, full reliability.
    BbrLite,
}

impl ProfileKind {
    /// The default mixed-capability cycle.
    pub const MIXED: [ProfileKind; 4] = [
        ProfileKind::QtpAf,
        ProfileKind::QtpLight,
        ProfileKind::QtpLightTtl,
        ProfileKind::Tfrc,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ProfileKind::QtpAf => "qtpaf",
            ProfileKind::QtpLight => "qtplight",
            ProfileKind::QtpLightTtl => "qtplight-ttl",
            ProfileKind::Tfrc => "tfrc",
            ProfileKind::Cubic => "cubic",
            ProfileKind::BbrLite => "bbr-lite",
        }
    }

    /// The session-layer [`Profile`] for this kind. `af_floor` is the
    /// gTFRC guaranteed rate for QTPAF flows (their DiffServ reservation —
    /// typically the fair bottleneck share).
    pub fn profile(self, af_floor: Rate) -> Profile {
        match self {
            ProfileKind::QtpAf => Profile::qtp_af(af_floor),
            ProfileKind::QtpLight => Profile::qtp_light(),
            ProfileKind::QtpLightTtl => {
                Profile::qtp_light_partial(Duration::from_millis(500)).expect("nonzero TTL")
            }
            ProfileKind::Tfrc => Profile::tfrc(),
            ProfileKind::Cubic => Profile::cubic(),
            ProfileKind::BbrLite => Profile::bbr_lite(),
        }
    }

    /// A [`ConnectionPlan`] for one finite transfer under this profile.
    pub fn plan(self, af_floor: Rate, packets: u64) -> ConnectionPlan {
        ConnectionPlan::new(self.profile(af_floor)).finite(packets)
    }
}

/// Parameters of one many-flow scenario instance.
#[derive(Debug, Clone)]
pub struct ManyFlowConfig {
    /// Number of concurrent connections.
    pub flows: usize,
    /// Simulator seed ([`run_sim`] only).
    pub seed: u64,
    /// Capability profiles, cycled over the flow index.
    pub profiles: Vec<ProfileKind>,
    /// Finite backlog per flow.
    pub packets_per_flow: u64,
    /// Payload bytes per packet.
    pub payload: u32,
    /// Shared bottleneck rate (sim); also sizes the QTPAF floor (fair
    /// share = bottleneck / flows) on both backends.
    pub bottleneck: Rate,
    /// Access link rate per pair (sim).
    pub access: Rate,
    /// One-way bottleneck propagation delay (sim).
    pub bottleneck_delay: Duration,
    /// Per-flow one-way access delay spread `min..=max` (sim): flow `i`
    /// gets a deterministic point on the spread, giving heterogeneous
    /// RTTs.
    pub rtt_spread: (Duration, Duration),
    /// Scenario horizon: virtual time bound for [`run_sim`], wall-clock
    /// deadline for [`run_mux_loopback`].
    pub horizon: Duration,
    /// Completion sampling granularity for [`run_sim`] (completion times
    /// are rounded up to this, keeping the stepped run deterministic).
    pub check_interval: Duration,
    /// Path impairments on the forward bottleneck (sim); no-op by
    /// default, so existing scenarios and goldens are untouched.
    pub bottleneck_path: PathModel,
}

impl ManyFlowConfig {
    /// The scenario family's default instance at `flows` connections:
    /// mixed profiles, bottleneck scaled to 100 kbit/s per flow (min
    /// 10 Mbit/s) so N is the interesting axis, 4–32 ms RTT spread.
    pub fn new(flows: usize) -> Self {
        ManyFlowConfig {
            flows,
            seed: 42,
            profiles: ProfileKind::MIXED.to_vec(),
            packets_per_flow: 30,
            payload: 1000,
            bottleneck: Rate::from_kbps((flows as u64 * 100).max(10_000)),
            access: Rate::from_mbps(100),
            bottleneck_delay: Duration::from_millis(10),
            rtt_spread: (Duration::from_millis(2), Duration::from_millis(30)),
            horizon: Duration::from_secs(120),
            check_interval: Duration::from_millis(250),
            bottleneck_path: PathModel::none(),
        }
    }

    /// Same family, single profile everywhere.
    pub fn uniform(flows: usize, profile: ProfileKind) -> Self {
        ManyFlowConfig {
            profiles: vec![profile],
            ..Self::new(flows)
        }
    }

    fn profile(&self, i: usize) -> ProfileKind {
        self.profiles[i % self.profiles.len()]
    }

    fn af_floor(&self) -> Rate {
        Rate::from_bps((self.bottleneck.bps() / self.flows.max(1) as u64).max(8_000))
    }

    fn access_delay(&self, i: usize) -> Duration {
        let (lo, hi) = self.rtt_spread;
        let steps = 16u32;
        let step = (i as u32) % steps;
        lo + (hi.saturating_sub(lo)) * step / (steps - 1)
    }

    /// Total application bytes a fully-reliable flow must deliver.
    pub fn target_bytes(&self) -> u64 {
        self.packets_per_flow * self.payload as u64
    }

    /// The backend-neutral plan for flow `i`.
    fn plan(&self, i: usize) -> ConnectionPlan {
        self.profile(i)
            .plan(self.af_floor(), self.packets_per_flow)
            .label(format!("mf{i:04}"))
            .payload(self.payload)
    }
}

/// Outcome of one flow in a scenario run.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Flow name (`mf0000`, …).
    pub name: String,
    /// Profile label.
    pub profile: &'static str,
    /// Application bytes delivered at the receiver.
    pub delivered_bytes: u64,
    /// Time at which the flow completed its job, seconds from scenario
    /// start (virtual for the sim backend, wall for the mux backend);
    /// `None` if the horizon passed first.
    pub completion_s: Option<f64>,
    /// Goodput over the flow's active period (delivered bytes over
    /// completion time, or over the horizon when incomplete), bits/s.
    pub goodput_bps: f64,
}

/// Aggregates of one capability profile's flows within a scenario run.
#[derive(Debug, Clone)]
pub struct ProfileAgg {
    /// Profile label (see [`ProfileKind::label`]).
    pub profile: &'static str,
    /// Flows running this profile.
    pub flows: usize,
    /// How many of them completed within the horizon.
    pub completed: usize,
    /// Mean per-flow goodput, bits/s.
    pub mean_goodput_bps: f64,
    /// Jain fairness index over this profile's goodputs.
    pub jain: f64,
    /// Mean completion time over completed flows, seconds (`NaN` if none
    /// completed).
    pub mean_completion_s: f64,
}

/// Scenario-level report: per-flow outcomes plus the fairness headline.
#[derive(Debug, Clone)]
pub struct ManyFlowReport {
    /// Which backend produced this ("sim" or "mux").
    pub backend: &'static str,
    /// Per-flow outcomes, in flow order.
    pub outcomes: Vec<FlowOutcome>,
    /// Jain fairness index over per-flow goodput.
    pub jain: f64,
    /// Flows that completed within the horizon.
    pub completed: usize,
    /// Socket-level mux counters (mux backend only; `None` on the sim
    /// backend, whose render must stay byte-deterministic).
    pub mux_stats: Option<MuxRunStats>,
}

impl ManyFlowReport {
    fn from_outcomes(backend: &'static str, outcomes: Vec<FlowOutcome>) -> Self {
        let goodputs: Vec<f64> = outcomes.iter().map(|o| o.goodput_bps).collect();
        let completed = outcomes.iter().filter(|o| o.completion_s.is_some()).count();
        ManyFlowReport {
            backend,
            outcomes,
            jain: jain_index(&goodputs),
            completed,
            mux_stats: None,
        }
    }

    /// Mean goodput across flows, bits/s.
    pub fn mean_goodput_bps(&self) -> f64 {
        mean(
            &self
                .outcomes
                .iter()
                .map(|o| o.goodput_bps)
                .collect::<Vec<_>>(),
        )
    }

    /// 95th-percentile completion time across completed flows, seconds
    /// (`NaN` when nothing completed).
    pub fn p95_completion_s(&self) -> f64 {
        let completions: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.completion_s)
            .collect();
        qtp_metrics::agg::percentile(&completions, 0.95)
    }

    /// Per-profile aggregates in first-appearance order — one entry per
    /// capability profile present in the run.
    pub fn profile_summary(&self) -> Vec<ProfileAgg> {
        let mut profiles: Vec<&'static str> = Vec::new();
        for o in &self.outcomes {
            if !profiles.contains(&o.profile) {
                profiles.push(o.profile);
            }
        }
        profiles
            .into_iter()
            .map(|p| {
                let of: Vec<&FlowOutcome> =
                    self.outcomes.iter().filter(|o| o.profile == p).collect();
                let goodputs: Vec<f64> = of.iter().map(|o| o.goodput_bps).collect();
                let completions: Vec<f64> = of.iter().filter_map(|o| o.completion_s).collect();
                ProfileAgg {
                    profile: p,
                    flows: of.len(),
                    completed: completions.len(),
                    mean_goodput_bps: mean(&goodputs),
                    jain: jain_index(&goodputs),
                    mean_completion_s: if completions.is_empty() {
                        f64::NAN
                    } else {
                        mean(&completions)
                    },
                }
            })
            .collect()
    }

    /// Render the report: headline, per-profile aggregates, and the first
    /// `detail` per-flow rows. Deterministic for the sim backend (pure
    /// function of the outcomes).
    pub fn render(&self, detail: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "many-flow report [{}]: {} flows, {} completed, jain {:.4}, mean goodput {:.1} kbit/s",
            self.backend,
            self.outcomes.len(),
            self.completed,
            self.jain,
            self.mean_goodput_bps() / 1e3,
        );
        for a in self.profile_summary() {
            let _ = writeln!(
                s,
                "  {:<12} {:>4} flows  goodput mean {:>9.1} kbit/s (jain {:.4})  completion mean {:>7.3} s ({}/{} done)",
                a.profile,
                a.flows,
                a.mean_goodput_bps / 1e3,
                a.jain,
                a.mean_completion_s,
                a.completed,
                a.flows,
            );
        }
        for o in self.outcomes.iter().take(detail) {
            let _ = writeln!(
                s,
                "  {} {:<12} delivered {:>8} B  goodput {:>9.1} kbit/s  completion {}",
                o.name,
                o.profile,
                o.delivered_bytes,
                o.goodput_bps / 1e3,
                match o.completion_s {
                    Some(t) => format!("{t:.3} s"),
                    None => "-".into(),
                },
            );
        }
        if self.outcomes.len() > detail && detail > 0 {
            let _ = writeln!(s, "  … {} more flows", self.outcomes.len() - detail);
        }
        if let Some(mux) = &self.mux_stats {
            for (side, st) in [("client", &mux.client), ("server", &mux.server)] {
                let c = st.counter_set();
                let _ = writeln!(
                    s,
                    "  mux {side}: {} dgrams out / {} in, {} timer fires, {} soft errors, backlog high-water {}, timer high-water {}",
                    c.pkts_tx,
                    c.pkts_rx,
                    c.timer_fires,
                    c.soft_errors,
                    st.tx_backlog_high_water,
                    st.timer_wheel_high_water,
                );
                // Controller counters only exist when a window/model
                // controller (CUBIC, BBR-lite) ran; TFRC-family runs keep
                // the legacy report shape.
                if c.cc_state_updates > 0 || c.cc_phase_changes > 0 {
                    let _ = writeln!(
                        s,
                        "  mux {side} cc: {} state updates, {} phase changes, startup exit {} us",
                        c.cc_state_updates, c.cc_phase_changes, c.bbr_startup_exit_us,
                    );
                }
            }
        }
        s
    }
}

/// Lower a scenario config into per-flow [`ConnectionPlan`]s and lift the
/// backend's [`ConnectionOutcome`]s back into the report shape.
fn report_from(
    cfg: &ManyFlowConfig,
    backend: &'static str,
    outcomes: Vec<ConnectionOutcome>,
) -> ManyFlowReport {
    let outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| FlowOutcome {
            name: o.label,
            profile: cfg.profile(i).label(),
            delivered_bytes: o.delivered_bytes,
            completion_s: o.completion_s,
            goodput_bps: o.goodput_bps,
        })
        .collect();
    ManyFlowReport::from_outcomes(backend, outcomes)
}

/// Run the scenario on the deterministic simulator: an N-pair dumbbell
/// with heterogeneous access delays and a shared bottleneck, through the
/// session layer's [`SimBackend`]. Same config + seed ⇒ byte-identical
/// report.
pub fn run_sim(cfg: &ManyFlowConfig) -> ManyFlowReport {
    run_sim_instrumented(cfg).0
}

/// [`run_sim`] with a [`TraceRegistry`] attached: every endpoint's tracer
/// is registered (labels `mfNNNN:tx` / `mfNNNN:rx`) so its events reach
/// the registry's sink and its counters are snapshotable afterwards.
/// Tracing is observation-only — the report is byte-identical to the
/// untraced [`run_sim`] for the same config.
pub fn run_sim_traced(
    cfg: &ManyFlowConfig,
    registry: qtp_metrics::trace::TraceRegistry,
) -> ManyFlowReport {
    let (report, _) = run_sim_with_trace(cfg, Some(registry));
    report
}

fn run_sim_with_trace(
    cfg: &ManyFlowConfig,
    trace: Option<qtp_metrics::trace::TraceRegistry>,
) -> (ManyFlowReport, SimRunMetrics) {
    let delays: Vec<Duration> = (0..cfg.flows).map(|i| cfg.access_delay(i)).collect();
    let dcfg = DumbbellConfig {
        pairs: cfg.flows,
        access_rate: cfg.access,
        access_delay: cfg.rtt_spread.0,
        access_delays: Some(delays),
        bottleneck_rate: cfg.bottleneck,
        bottleneck_delay: cfg.bottleneck_delay,
        // Queue sized with the flow count so synchronized slow-starts
        // don't collapse the run; still small enough to exercise loss.
        bottleneck_queue: QueueConfig::DropTailPkts(cfg.flows.max(50)),
        reverse_queue: QueueConfig::DropTailPkts((2 * cfg.flows).max(1000)),
        bottleneck_path: cfg.bottleneck_path.clone(),
    };
    let mut backend = SimBackend {
        topology: SimTopology::Dumbbell(Box::new(dcfg)),
        seed: cfg.seed,
        horizon: cfg.horizon,
        check_interval: cfg.check_interval,
        trace,
    };
    let plans: Vec<ConnectionPlan> = (0..cfg.flows).map(|i| cfg.plan(i)).collect();
    let (outcomes, metrics) = backend
        .run_instrumented(&plans)
        .expect("sim backend cannot fail");
    (report_from(cfg, "sim", outcomes), metrics)
}

/// [`run_sim`], additionally reporting the simulator's engine counters
/// (event count, packet-pool high-water mark) for the scaling benchmarks.
pub fn run_sim_instrumented(cfg: &ManyFlowConfig) -> (ManyFlowReport, SimRunMetrics) {
    run_sim_with_trace(cfg, None)
}

/// Run the same workload over the real-socket connection multiplexer on
/// loopback, through the session layer's [`MuxBackend`]: one client
/// socket with N senders, one server socket with N accept-on-first-frame
/// receivers. There is no shaped bottleneck here — the point is that one
/// socket pair carries the whole scenario — so times are wall-clock and
/// the report is *not* byte-deterministic.
pub fn run_mux_loopback(cfg: &ManyFlowConfig) -> std::io::Result<ManyFlowReport> {
    let plans: Vec<ConnectionPlan> = (0..cfg.flows).map(|i| cfg.plan(i)).collect();
    let mut backend = MuxBackend::new(cfg.horizon);
    let outcomes = backend.run(&plans)?;
    let mut report = report_from(cfg, "mux", outcomes);
    report.mux_stats = backend.last_stats;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mixed_sim_scenario_completes_and_is_fair() {
        let mut cfg = ManyFlowConfig::new(12);
        cfg.packets_per_flow = 15;
        let report = run_sim(&cfg);
        assert_eq!(report.outcomes.len(), 12);
        assert_eq!(report.completed, 12, "all flows complete within horizon");
        assert!(report.jain > 0.5, "gross unfairness: jain {}", report.jain);
        // Reliable flows delivered everything.
        for o in report.outcomes.iter().filter(|o| o.profile == "qtpaf") {
            assert_eq!(o.delivered_bytes, cfg.target_bytes());
        }
        // Every profile in the mix appears.
        for p in ProfileKind::MIXED {
            assert!(report.outcomes.iter().any(|o| o.profile == p.label()));
        }
    }

    #[test]
    fn sim_scenario_is_deterministic() {
        let mut cfg = ManyFlowConfig::new(24);
        cfg.packets_per_flow = 10;
        let a = run_sim(&cfg).render(usize::MAX);
        let b = run_sim(&cfg).render(usize::MAX);
        assert_eq!(a, b, "same seed must render byte-identically");
        // A different seed still completes but is allowed to differ.
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        let c = run_sim(&cfg2);
        assert_eq!(c.completed, 24);
    }

    #[test]
    fn mux_backend_runs_the_same_workload() {
        // Small mixed run over real loopback sockets: every flow finishes
        // its job, reliable flows deliver everything.
        let mut cfg = ManyFlowConfig::new(8);
        cfg.packets_per_flow = 8;
        cfg.horizon = Duration::from_secs(60);
        let report = run_mux_loopback(&cfg).expect("mux run");
        assert_eq!(report.completed, 8, "all mux flows complete");
        for o in report.outcomes.iter().filter(|o| o.profile == "qtpaf") {
            assert_eq!(o.delivered_bytes, cfg.target_bytes());
        }
    }
}
