//! # qtp-io — run QTP over real UDP sockets
//!
//! The deployment path the paper argues for: the versatile transport as a
//! userspace protocol over UDP, in the tradition of QUIC implementations
//! that keep the protocol state machine sans-io and push all I/O into a
//! thin event loop.
//!
//! The QTP endpoints in `qtp-core` implement the
//! [`Endpoint`](qtp_core::Endpoint) driver seam — datagrams and timers in,
//! buffered commands out. This crate supplies the real-I/O driver half:
//!
//! * [`frame`] — explicit on-the-wire framing of the metadata the
//!   simulator carried implicitly (flow id, datagram seq, accounted wire
//!   size) plus the encoded transport header;
//! * [`clock`] — a monotonic wall clock mapped onto the protocol's
//!   `SimTime` axis, so every timestamp-based computation (RTT, feedback
//!   rounds, TTL reliability) is backend-independent;
//! * [`mux`] — [`MuxDriver`], the one real-socket event loop: a
//!   non-blocking socket carrying any number of concurrent endpoints,
//!   routed by `(peer, flow id)`, with every connection's timers in one
//!   `std` binary heap, accept-on-first-frame, teardown and stale-flow
//!   reaping;
//! * [`accept`] — [`accept_sessions`], plan-template accept for servers;
//! * [`backend`] — the `Backend` bindings: [`UdpBackend`] (one mux pair per
//!   connection) and [`MuxBackend`] (every connection over one pair), one
//!   shared run loop.
//!
//! Zero runtime dependencies beyond `std`, by workspace policy.
//!
//! ## Example
//!
//! Complete a capability handshake and a reliable 20-packet transfer
//! between two sockets on loopback, both muxes driven from one thread:
//!
//! ```
//! use qtp_core::session::{ConnectionPlan, Profile, Session};
//! use qtp_io::{accept_sessions, drive_mux_pair, MuxDriver};
//! use qtp_simnet::time::Rate;
//! use std::time::Duration;
//!
//! let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500))).finite(20);
//!
//! // Server: the receiving session is built when the client's offer arrives.
//! let mut rx: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
//! accept_sessions(&mut rx, plan.clone());
//!
//! // Client: data on flow 0, feedback back on flow 1.
//! let mut tx: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
//! let conn = tx
//!     .add_connection(rx.local_addr().unwrap(), vec![0, 1], Session::sender(0, 0, &plan))
//!     .unwrap();
//!
//! let done = drive_mux_pair(&mut tx, &mut rx, Duration::from_secs(20), |tx, _| {
//!     tx.endpoint(conn).is_some_and(|s| s.sent_new() == 20 && s.all_acked())
//! })
//! .unwrap();
//! assert!(done, "transfer did not complete");
//! let client = tx.local_addr().unwrap();
//! let server_side = rx.route(client, 0).and_then(|id| rx.endpoint(id)).unwrap();
//! assert_eq!(server_side.delivered_bytes(), 20 * 1000);
//! ```

pub mod accept;
pub mod backend;
pub mod clock;
pub mod frame;
pub mod mux;

pub use accept::{accept_sessions, AcceptEvent, AcceptQueue};
pub use backend::{MuxBackend, UdpBackend};
pub use clock::WallClock;
pub use frame::{Frame, FrameError};
pub use mux::{drive_mux_pair, Accepted, ConnId, ConnStats, MuxConfig, MuxDriver, MuxStats};
