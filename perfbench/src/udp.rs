//! `udp-single`: one finite QTPAF transfer through `UdpBackend` via
//! `Backend::run` — the default single-connection socket path.

use std::time::{Duration, Instant};

use qtp_core::caps::ServerPolicy;
use qtp_core::session::{Backend, ConnectionPlan, Profile, Session};
use qtp_io::backend::UdpBackend;
use qtp_simnet::time::Rate;

/// The workload's shape.
#[derive(Debug, Clone)]
pub struct UdpWorkload {
    /// Packets in the transfer.
    pub packets: u64,
    /// Payload bytes per packet.
    pub payload: u32,
    /// Wall-clock bound of one transfer.
    pub deadline: Duration,
}

/// What one transfer produced.
#[derive(Debug, Clone)]
pub struct UdpRun {
    /// Whether the connection finished within the deadline.
    pub completed: bool,
    /// Hard errors: short delivery, unexpected negotiation.
    pub errors: Vec<String>,
    /// Packets delivered (delivered bytes over the payload size).
    pub delivered_pkts: u64,
    /// Wall time of `Backend::run`.
    pub wall: Duration,
    /// Process CPU time of `Backend::run`.
    pub cpu: Duration,
}

impl UdpWorkload {
    /// A 50-packet QTPAF transfer with a 2 Mbit/s floor.
    pub fn single() -> Self {
        UdpWorkload {
            packets: 50,
            payload: 1000,
            deadline: Duration::from_secs(60),
        }
    }

    fn plan(&self) -> ConnectionPlan {
        ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(2)))
            .finite(self.packets)
            .payload(self.payload)
            .label("udp-single")
    }

    /// The set-up `UdpBackend::run` performs before its loop, timed on its
    /// own (the backend does not expose its phases): a sending and a
    /// receiving `Session` built from the plan and a loopback socket
    /// pair bound.
    pub fn setup(&self) -> std::io::Result<Duration> {
        let plan = self.plan();
        let start = Instant::now();
        let rx = Session::receiver(0, 1, 0, &plan);
        let server = std::net::UdpSocket::bind("127.0.0.1:0")?;
        let tx = Session::sender(0, 1, &plan);
        let client = std::net::UdpSocket::bind("127.0.0.1:0")?;
        client.connect(server.local_addr()?)?;
        let elapsed = start.elapsed();
        drop((rx, tx, server, client));
        Ok(elapsed)
    }

    /// One transfer.
    pub fn run(&self) -> std::io::Result<UdpRun> {
        let plan = self.plan();
        let cpu0 = crate::sys::cpu_time();
        let start = Instant::now();
        let outcomes = UdpBackend::new(self.deadline).run(std::slice::from_ref(&plan))?;
        let wall = start.elapsed();
        let cpu = crate::sys::cpu_time().saturating_sub(cpu0);
        let o = outcomes
            .into_iter()
            .next()
            .ok_or_else(|| std::io::Error::other("UdpBackend returned no outcome"))?;
        let mut errors = Vec::new();
        let want_bytes = self.packets * u64::from(self.payload);
        if o.delivered_bytes != want_bytes {
            errors.push(format!(
                "udp-single delivered {} of {want_bytes} bytes",
                o.delivered_bytes
            ));
        }
        let want_caps = ServerPolicy::default().negotiate(plan.profile.caps());
        if o.negotiated != Some(want_caps) {
            errors.push(format!(
                "udp-single negotiated {:?}, ServerPolicy::negotiate gives {want_caps:?}",
                o.negotiated
            ));
        }
        Ok(UdpRun {
            completed: o.completion_s.is_some(),
            errors,
            delivered_pkts: o.delivered_bytes / u64::from(self.payload),
            wall,
            cpu,
        })
    }
}
