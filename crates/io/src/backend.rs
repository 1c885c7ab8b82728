//! Real-socket [`Backend`] bindings: the same [`ConnectionPlan`]s that run
//! on the deterministic simulator (`qtp_core::session::SimBackend`) run
//! here over actual UDP sockets on loopback — one socket pair per
//! connection ([`UdpBackend`]) or every connection multiplexed over a
//! single socket pair ([`MuxBackend`]).
//!
//! Both backends are the same run over [`MuxDriver`] pairs and differ only
//! in how many pairs they build: [`Session`]s mounted in the muxes (a
//! `Session` implements the `Endpoint` seam), one acceptor, one flow
//! numbering, one completion rule, one outcome extraction. Times in the
//! outcomes are wall-clock, so socket-backend reports are *not*
//! byte-deterministic — the deterministic claims all live on the sim
//! backend.

use qtp_core::session::{Backend, ConnectionOutcome, ConnectionPlan, Session};
use qtp_sack::ReliabilityMode;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::accept::accept_offer;
use crate::mux::{annotate_side, ConnId, MuxConfig, MuxDriver, MuxStats};

/// Mux time slice of the shared run loop.
const SLICE: Duration = Duration::from_micros(300);

/// Sweeps a pair is still driven after all its connections completed, so
/// trailing in-flight datagrams (an unreliable flow's last packets, final
/// feedback) drain before the pair stops being serviced. Past them a
/// completed pair is skipped: an idle mux naps up to [`SLICE`] per drive
/// call, which would throttle the pairs still running.
const DRAIN_SWEEPS: u32 = 3;

/// Client-side completion rule shared by the socket backends: a finite
/// transfer is done when its backlog has been transmitted — and, when
/// the [effective](ConnectionPlan::effective_reliability) reliability is
/// `Full`, acknowledged. Keying on the negotiated mode (not the offer)
/// matters: a policy-downgraded connection never retransmits, so one
/// dropped datagram would leave `all_acked()` false forever and spin the
/// loop to the deadline. Open-ended apps (greedy, CBR) run until the
/// backend's deadline.
fn tx_complete(plan: &ConnectionPlan, tx: &Session) -> bool {
    let Some(packets) = plan.finite_packets() else {
        return false;
    };
    let sent_all = tx.sent_new() >= packets;
    if plan.effective_reliability(tx.negotiated()) == ReliabilityMode::Full {
        sent_all && tx.all_acked()
    } else {
        sent_all
    }
}

/// Server-side acceptor shared by both backends: a capability offer from
/// the backend's own client socket on an even flow `2i` becomes the
/// receiver [`Session`] of plan `i`, routed on `2i` (data) and `2i + 1`
/// (feedback). Anything else — other local processes, stray non-offer
/// frames — counts as unroutable and can neither take a connection slot
/// nor shadow the real client's handshake.
fn admit_own_client(
    server: &mut MuxDriver<Session>,
    client: SocketAddr,
    plans: Rc<[ConnectionPlan]>,
) {
    server.set_acceptor(move |peer, frame| {
        let plan = plans
            .get((frame.flow / 2) as usize)
            .filter(|_| peer == client)?;
        accept_offer(frame, plan)
    });
}

/// One client/server mux pair on loopback and the connections it carries.
struct Pair {
    client: MuxDriver<Session>,
    server: MuxDriver<Session>,
    /// `(plan index, client-side connection)`.
    conns: Vec<(usize, ConnId)>,
    /// Sweeps driven since every connection of the pair completed.
    drained: u32,
}

/// The run both backends share: connection `i` owns data flow `2i` and
/// feedback flow `2i + 1` and lives on pair `i % pair_count`. All pairs are
/// driven round-robin from one thread until every pair completed and
/// drained, or the deadline passed.
fn run_on_pairs(
    plans: &[ConnectionPlan],
    pair_count: usize,
    cfg: &MuxConfig,
    deadline: Duration,
) -> io::Result<(Vec<ConnectionOutcome>, Vec<MuxRunStats>)> {
    let shared: Rc<[ConnectionPlan]> = plans.into();
    let mut pairs: Vec<Pair> = Vec::with_capacity(pair_count);
    for _ in 0..pair_count {
        let mut server = MuxDriver::bind_with("127.0.0.1:0", cfg.clone())?;
        let client = MuxDriver::bind_with("127.0.0.1:0", cfg.clone())?;
        admit_own_client(&mut server, client.local_addr()?, shared.clone());
        pairs.push(Pair {
            client,
            server,
            conns: Vec::new(),
            drained: 0,
        });
    }
    for (i, plan) in plans.iter().enumerate() {
        let pair = &mut pairs[i % pair_count];
        let data = 2 * i as u32;
        let server_addr = pair.server.local_addr()?;
        let id = pair.client.add_connection(
            server_addr,
            vec![data, data + 1],
            Session::sender(data, 0, plan),
        )?;
        pair.conns.push((i, id));
    }

    let start = Instant::now();
    let mut completion: Vec<Option<f64>> = vec![None; plans.len()];
    loop {
        let mut all_done = true;
        for pair in &mut pairs {
            let complete = pair.conns.iter().all(|(i, _)| completion[*i].is_some());
            if complete {
                if pair.drained >= DRAIN_SWEEPS {
                    continue;
                }
                pair.drained += 1;
            }
            pair.client
                .drive_once(SLICE)
                .map_err(|e| annotate_side("client side", e))?;
            pair.server
                .drive_once(SLICE)
                .map_err(|e| annotate_side("server side", e))?;
            for &(i, id) in &pair.conns {
                let tx = pair.client.endpoint(id).expect("client conn is live");
                if completion[i].is_none() && tx_complete(&plans[i], tx) {
                    completion[i] = Some(start.elapsed().as_secs_f64());
                }
            }
            // "Done" means completed AND drained — the last pair to
            // complete gets its drain sweeps too.
            if !complete || pair.drained < DRAIN_SWEEPS {
                all_done = false;
            }
        }
        if all_done || start.elapsed() > deadline {
            break;
        }
    }

    let horizon_s = deadline.as_secs_f64();
    let mut outcomes = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let pair = &pairs[i % pair_count];
        let tx = pair
            .client
            .endpoint(pair.conns[i / pair_count].1)
            .expect("client conn is live");
        let rx = pair
            .server
            .route(pair.client.local_addr()?, 2 * i as u32)
            .and_then(|id| pair.server.endpoint(id));
        let delivered = rx.map_or(0, |r| r.delivered_bytes());
        let elapsed = completion[i].unwrap_or(horizon_s);
        outcomes.push(ConnectionOutcome {
            label: plan.display_label(i),
            negotiated: tx.negotiated(),
            delivered_bytes: delivered,
            completion_s: completion[i],
            goodput_bps: if elapsed > 0.0 {
                delivered as f64 * 8.0 / elapsed
            } else {
                0.0
            },
            tx_events: tx.events().drain(),
            rx_events: rx.map(|r| r.events().drain()).unwrap_or_default(),
            tx: tx.tracer().counters(),
            rx: rx.map(|r| r.tracer().counters()).unwrap_or_default(),
        });
    }
    let stats = pairs
        .iter()
        .map(|p| MuxRunStats {
            client: p.client.stats(),
            server: p.server.stats(),
        })
        .collect();
    Ok((outcomes, stats))
}

// ---------------------------------------------------------------------------
// UdpBackend
// ---------------------------------------------------------------------------

/// One UDP socket pair per connection, on 127.0.0.1 — a [`MuxDriver`] pair
/// carrying a single connection each. All pairs are driven round-robin
/// from one thread.
#[derive(Debug, Clone)]
pub struct UdpBackend {
    /// Wall-clock bound for the whole run.
    pub deadline: Duration,
}

impl UdpBackend {
    /// A backend with the given wall-clock deadline.
    pub fn new(deadline: Duration) -> UdpBackend {
        UdpBackend { deadline }
    }
}

impl Default for UdpBackend {
    fn default() -> Self {
        UdpBackend::new(Duration::from_secs(30))
    }
}

impl Backend for UdpBackend {
    fn name(&self) -> &'static str {
        "udp"
    }

    fn run(&mut self, plans: &[ConnectionPlan]) -> io::Result<Vec<ConnectionOutcome>> {
        let (outcomes, _) = run_on_pairs(plans, plans.len(), &MuxConfig::default(), self.deadline)?;
        Ok(outcomes)
    }
}

// ---------------------------------------------------------------------------
// MuxBackend
// ---------------------------------------------------------------------------

/// Socket-level counters from one [`MuxBackend::run`], per side. The
/// [`MuxStats::counter_set`] view is the cross-backend currency; the raw
/// stats keep the mux-only fields (backlog / timer-wheel high-water).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxRunStats {
    /// The client-side mux (all senders).
    pub client: MuxStats,
    /// The server-side mux (all receivers).
    pub server: MuxStats,
}

/// Every connection multiplexed over ONE client socket and ONE server
/// socket — the [`MuxDriver`] binding of the backend seam. The server
/// accepts each connection on its first frame; connection `i` owns data
/// flow `2i` and feedback flow `2i + 1`.
#[derive(Debug, Clone)]
pub struct MuxBackend {
    /// Wall-clock bound for the whole run.
    pub deadline: Duration,
    /// Mux tuning (the connection cap is raised to fit the plans).
    pub mux: MuxConfig,
    /// Counters of the most recent [`Backend::run`], for reports.
    pub last_stats: Option<MuxRunStats>,
}

impl MuxBackend {
    /// A backend with the given wall-clock deadline and default tuning.
    pub fn new(deadline: Duration) -> MuxBackend {
        MuxBackend {
            deadline,
            mux: MuxConfig::default(),
            last_stats: None,
        }
    }
}

impl Default for MuxBackend {
    fn default() -> Self {
        MuxBackend::new(Duration::from_secs(60))
    }
}

impl Backend for MuxBackend {
    fn name(&self) -> &'static str {
        "mux"
    }

    fn run(&mut self, plans: &[ConnectionPlan]) -> io::Result<Vec<ConnectionOutcome>> {
        let cfg = MuxConfig {
            max_conns: (2 * plans.len()).max(self.mux.max_conns),
            ..self.mux.clone()
        };
        let (outcomes, stats) = run_on_pairs(plans, 1, &cfg, self.deadline)?;
        self.last_stats = stats.first().copied();
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use qtp_core::session::Profile;
    use qtp_core::{CapabilitySet, QtpPacket, ServerPolicy};
    use qtp_simnet::time::Rate;

    fn mixed_plans(packets: u64) -> Vec<ConnectionPlan> {
        vec![
            ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
                .label("af")
                .finite(packets),
            ConnectionPlan::new(Profile::qtp_light())
                .label("light")
                .finite(packets),
        ]
    }

    #[test]
    fn udp_backend_runs_mixed_plans() {
        let plans = mixed_plans(12);
        let outcomes = UdpBackend::default().run(&plans).expect("udp run");
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.completion_s.is_some(), "{} completed", o.label);
        }
        // The reliable connection delivered everything; negotiation
        // matches the pure policy function.
        assert_eq!(outcomes[0].delivered_bytes, 12 * 1000);
        assert_eq!(
            outcomes[0].negotiated,
            Some(ServerPolicy::default().negotiate(CapabilitySet::qtp_af(Rate::from_kbps(500))))
        );
    }

    #[test]
    fn mux_backend_runs_mixed_plans_over_one_socket_pair() {
        let plans = mixed_plans(10);
        let outcomes = MuxBackend::default().run(&plans).expect("mux run");
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.completion_s.is_some(), "{} completed", o.label);
        }
        assert_eq!(outcomes[0].delivered_bytes, 10 * 1000);
        assert!(outcomes[1].negotiated.is_some());
    }

    #[test]
    fn acceptor_admits_only_the_own_clients_offers() {
        // A connection cap of two: before the guard, two foreign frames
        // filled it and left the real client's SYN unroutable.
        let cfg = MuxConfig {
            max_conns: 2,
            ..MuxConfig::default()
        };
        let mut server: MuxDriver<Session> = MuxDriver::bind_with("127.0.0.1:0", cfg).unwrap();
        let client = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let client_addr = client.local_addr().unwrap();
        admit_own_client(&mut server, client_addr, mixed_plans(10).into());
        let frame = |flow, header: Vec<u8>| {
            Frame {
                flow,
                seq: 1,
                wire_size: 64,
                header,
            }
            .encode()
            .unwrap()
        };
        let syn = QtpPacket::Syn {
            ts_nanos: 0,
            offered: CapabilitySet::qtp_light(),
        }
        .encode();

        let foreign: SocketAddr = "127.0.0.1:9".parse().unwrap();
        for flow in [0, 2] {
            assert!(!server
                .handle_datagram_from(foreign, &frame(flow, syn.clone()))
                .unwrap());
        }
        assert_eq!(server.stats().datagrams_unroutable, 2);
        assert_eq!(server.conn_count(), 0, "foreign offers take no slot");

        // Nor does a non-offer frame from the client itself.
        assert!(!server
            .handle_datagram_from(client_addr, &frame(0, vec![0xFF]))
            .unwrap());
        assert_eq!(server.conn_count(), 0);

        // The client's own SYN is still accepted.
        assert!(server
            .handle_datagram_from(client_addr, &frame(0, syn))
            .unwrap());
        assert_eq!(server.conn_count(), 1);
        assert_eq!(server.stats().conns_accepted, 1);
    }
}
