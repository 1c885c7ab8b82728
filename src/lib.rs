//! # qtp — a versatile transport protocol
//!
//! Full reproduction of *"Towards a Versatile Transport Protocol"*
//! (Jourjon, Lochin, Sénac — CoNEXT 2006): a reconfigurable transport
//! built by composing **TFRC** congestion control (RFC 3448) with
//! **SACK** selective acknowledgments (RFC 2018), yielding — among other
//! compositions — the paper's two named instances:
//!
//! * **QTPAF** — gTFRC (guaranteed TFRC, `X = max(g, X_tfrc)`) plus full
//!   SACK reliability, for DiffServ Assured-Forwarding networks;
//! * **QTPlight** — TFRC whose loss-event-rate estimation runs at the
//!   *sender* from SACK feedback, freeing resource-limited receivers.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`simnet`] | deterministic discrete-event network simulator (links, RED/RIO, DiffServ markers, Gilbert–Elliott loss, dumbbells, statistics) |
//! | [`tfrc`] | RFC 3448 sender/receiver, throughput equation, loss-interval history, gTFRC |
//! | [`sack`] | range sets, reassembly + SACK block generation, scoreboard, reliability policies |
//! | [`tcp`] | TCP NewReno / SACK baseline agents |
//! | [`core`] | the composed QTP endpoints (sans-io, behind the `Endpoint` driver seam), wire formats, capability negotiation, and the **session layer** ([`core::session`]): fluent `Profile`s, `Session`s, the backend seam |
//! | [`io`] | real-socket backend: UDP datagram framing, wall clock, the multi-flow connection mux (the one socket event loop), and the `UdpBackend`/`MuxBackend` bindings |
//! | [`metrics`] | deterministic processing-cost accounting |
//!
//! ## Quickstart — send bytes, receive bytes
//!
//! Applications talk to QTP through the **stream data plane**: a plan
//! with a [`core::stream::StreamConfig`] yields a `SendStream` /
//! `RecvStream` pair — `send` with backpressure on one side, `recv` plus
//! a wire-level FIN/FIN-ACK close on the other. The same plan runs
//! unchanged on the deterministic simulator, or over real UDP sockets
//! through `MuxDriver` — alone on its socket pair or multiplexed with
//! hundreds of other flows:
//!
//! ```
//! use qtp::prelude::*;
//! use std::time::Duration;
//!
//! // A 10 Mbit/s duplex path, 40 ms RTT, 1% forward loss.
//! let mut b = NetworkBuilder::new();
//! let (a, z) = (b.host(), b.host());
//! let link = LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(20));
//! b.simplex_link(a, z, link.clone().with_loss(LossModel::bernoulli(0.01)));
//! b.simplex_link(z, a, link);
//! let mut sim = b.build(1);
//!
//! // One QTPAF connection (full reliability over a 2 Mbit/s gTFRC
//! // floor) carrying a real byte stream.
//! let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(2)))
//!     .stream(StreamConfig::default());
//! let h = attach_pair(&mut sim, a, z, "file", &plan);
//! let (tx, rx) = (h.tx_stream.unwrap(), h.rx_stream.unwrap());
//!
//! tx.send(b"hello, versatile transport").unwrap();
//! tx.finish();
//! sim.run_until(SimTime::ZERO + Duration::from_secs(5));
//!
//! let mut got = Vec::new();
//! while let Some(chunk) = rx.recv() {
//!     got.extend(chunk);
//! }
//! assert_eq!(got, b"hello, versatile transport"); // byte-exact despite loss
//! assert!(rx.is_finished(), "FIN / FIN-ACK completed");
//! ```
//!
//! Under partial reliability the stream switches to message mode:
//! `send_with_ttl` tags each message with a playout lifetime and the
//! *receiver* drops retransmissions that arrive stale
//! (`RecvStream::ttl_dropped` counts them) — see the A3 experiment.
//!
//! Custom compositions use the fluent builder —
//! `Profile::new().reliability(Reliability::Ttl(..)).feedback(..).cc(..).build()?`
//! — and hand-written event loops drive a [`core::session::Session`]
//! through the same [`core::Endpoint`] seam every backend uses
//! (`on_start` / `handle_datagram` / `on_timer` in, [`core::Outbox`]
//! commands out), reading typed events from [`core::SessionEvents`].
//!
//! Synthetic workloads (greedy, finite, CBR) for experiments that only
//! measure rates are described on the plan itself —
//! [`core::session::ConnectionPlan::finite`] /
//! [`core::session::ConnectionPlan::app`] — and executed on any
//! [`core::session::Backend`], which reports typed
//! [`core::session::ConnectionOutcome`]s.
//!
//! See `docs/ARCHITECTURE.md` for the architecture and the experiment
//! index, and run `cargo run -p qtp-bench --release --bin expt -- all` to
//! regenerate every evaluation result.

pub use qtp_core as core;
pub use qtp_io as io;
pub use qtp_metrics as metrics;
pub use qtp_sack as sack;
pub use qtp_simnet as simnet;
pub use qtp_tcp as tcp;
pub use qtp_tfrc as tfrc;

pub mod app;
pub mod scenarios;

/// Everything a simulation driver typically needs.
pub mod prelude {
    pub use qtp_core::stream::{RecvStream, SendStream, StreamConfig, StreamError};
    pub use qtp_core::{
        attach_pair, attach_pairs, Backend, CapabilitySet, CapsError, CcKind, ConnectionOutcome,
        ConnectionPlan, FeedbackMode, PairHandles, Probe, Profile, ProfileBuilder, ProfileError,
        QtpReceiver, QtpReceiverConfig, QtpSender, QtpSenderConfig, Reliability, ServerPolicy,
        Session, SessionEvent, SessionEvents, SimBackend, SimHost, SimTopology,
    };
    pub use qtp_io::{
        drive_mux_pair, Accepted, ConnId, MuxBackend, MuxConfig, MuxDriver, UdpBackend,
    };
    pub use qtp_sack::ReliabilityMode;
    pub use qtp_simnet::prelude::*;
    pub use qtp_tcp::{TcpConfig, TcpFlavor, TcpReceiver, TcpSender};
}
