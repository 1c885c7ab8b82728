//! QTP wire formats.
//!
//! Explicit byte-level encoding (big-endian) of every packet the versatile
//! transport exchanges. The feedback packet is a small TLV-style union that
//! carries exactly the sections the negotiated profile needs:
//!
//! * `ReceiverLoss` feedback carries the RFC 3448 report `(ts_echo,
//!   t_delay, x_recv, p)` plus — when reliability is on — the cumulative
//!   ack and SACK blocks (that is QTPAF's feedback).
//! * `SenderLoss` (QTPlight) feedback omits `p` entirely: `ts_echo,
//!   t_delay, x_recv, cum_ack, blocks` — everything in it is either a raw
//!   counter or produced by the trivial reassembly structure.
//!
//! Loss event rates are carried as parts-per-billion in a `u32`; receive
//! rates as `u64` bytes/second; timestamps as `u64` nanoseconds.

use crate::bufext::{Buf, BufMut};
use qtp_sack::{ReliabilityMode, SeqRange};

use crate::caps::{self, CapabilitySet, CapsError, CcKind, FeedbackMode};

/// Assumed IP-level overhead added to every QTP packet's wire size.
pub const IP_OVERHEAD: u32 = 20;

/// Maximum SACK blocks carried in one feedback packet.
pub const MAX_FB_BLOCKS: usize = 4;

/// Bytes `encode` reserves on top of a stream payload. Every header fits
/// but a feedback packet with two or more SACK blocks; a larger reserve
/// would cost memory on every data header held in flight.
const HEADER_RESERVE: usize = 64;

/// Decoded QTP packet.
#[derive(Debug, Clone, PartialEq)]
pub enum QtpPacket {
    /// Connection request with the offered profile and a client timestamp.
    Syn {
        ts_nanos: u64,
        offered: CapabilitySet,
    },
    /// Connection accept: echoes the SYN timestamp, carries the chosen
    /// profile.
    SynAck {
        ts_echo_nanos: u64,
        chosen: CapabilitySet,
    },
    /// Data segment.
    Data {
        seq: u64,
        /// Send timestamp of this copy.
        ts_nanos: u64,
        /// Submission timestamp of the ADU this segment belongs to (for
        /// latency measurement and TTL-based partial reliability).
        adu_ts_nanos: u64,
        /// Sender's current RTT estimate, microseconds (0 = unknown); the
        /// receiver needs it for loss-event grouping and feedback cadence.
        rtt_hint_micros: u32,
        /// Retransmission flag.
        is_retx: bool,
    },
    /// Feedback report (both modes share the frame; `p_ppb` is `None` for
    /// QTPlight feedback).
    Feedback {
        ts_echo_nanos: u64,
        t_delay_micros: u32,
        /// Receive rate, bytes/second.
        x_recv: u64,
        /// Loss event rate in parts per billion (receiver-computed modes).
        p_ppb: Option<u32>,
        /// Cumulative ack (next expected sequence).
        cum_ack: u64,
        /// SACK blocks, most recently changed first.
        blocks: Vec<SeqRange>,
    },
    /// Move the receiver past abandoned data (partial reliability).
    Forward { new_cum: u64 },
    /// Data segment carrying real application payload bytes (the stream
    /// data plane). Same sequencing/timestamp fields as [`QtpPacket::Data`]
    /// plus an explicit payload and an optional per-message TTL tag —
    /// unlike `Data`, whose simulated payload exists only as a wire-size
    /// account, the payload here is materialized on the wire.
    StreamData {
        seq: u64,
        /// Send timestamp of this copy.
        ts_nanos: u64,
        /// Submission timestamp of the message this segment belongs to.
        adu_ts_nanos: u64,
        /// Sender's current RTT estimate, microseconds (0 = unknown).
        rtt_hint_micros: u32,
        /// Retransmission flag.
        is_retx: bool,
        /// Per-message TTL tag in microseconds; 0 means "use the
        /// negotiated profile TTL" (receivers fall back to it).
        ttl_micros: u32,
        /// Application payload bytes.
        payload: Vec<u8>,
    },
    /// Wire-level close request: the sender is done after `final_seq`
    /// sequences (exclusive). Retransmitted until a [`QtpPacket::FinAck`]
    /// arrives.
    Fin { final_seq: u64 },
    /// Acknowledges a [`QtpPacket::Fin`]; echoes its `final_seq`.
    FinAck { final_seq: u64 },
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    BadType(u8),
    /// A capability field failed to decode; carries the axis and the
    /// offending wire code (see [`CapsError`]).
    BadCapability(CapsError),
    BadBlockCount(u8),
    BadBlock,
}

const T_SYN: u8 = 1;
const T_SYNACK: u8 = 2;
const T_DATA: u8 = 3;
const T_FEEDBACK: u8 = 4;
const T_FORWARD: u8 = 5;
const T_STREAM_DATA: u8 = 6;
const T_FIN: u8 = 7;
const T_FINACK: u8 = 8;

/// Largest payload a single [`QtpPacket::StreamData`] may carry (the
/// length travels as a `u16`, and frames are bounded at the I/O layer).
pub const MAX_STREAM_PAYLOAD: usize = 1400;

fn put_caps(out: &mut Vec<u8>, caps: &CapabilitySet) {
    out.put_u8(caps.reliability.wire_code());
    let rel_param: u64 = match caps.reliability {
        ReliabilityMode::PartialTtl(d) => d.as_micros() as u64,
        ReliabilityMode::PartialRetx(n) => n as u64,
        _ => 0,
    };
    out.put_u64(rel_param);
    out.put_u8(caps.feedback.wire_code());
    out.put_u8(caps.cc.wire_code());
    let cc_param: u64 = match caps.cc {
        CcKind::Gtfrc { target } => target.bps(),
        CcKind::Fixed { rate } => rate.bps(),
        CcKind::Tfrc | CcKind::Cubic | CcKind::BbrLite => 0,
    };
    out.put_u64(cc_param);
}

fn get_caps(buf: &mut &[u8]) -> Result<CapabilitySet, WireError> {
    if buf.remaining() < 19 {
        return Err(WireError::Truncated);
    }
    let rel_code = buf.get_u8();
    let rel_param = buf.get_u64();
    let reliability =
        caps::reliability_from_wire(rel_code, rel_param).map_err(WireError::BadCapability)?;
    let feedback = FeedbackMode::from_wire(buf.get_u8()).map_err(WireError::BadCapability)?;
    let cc_code = buf.get_u8();
    let cc_param = buf.get_u64();
    let cc = caps::cc_from_wire(cc_code, cc_param).map_err(WireError::BadCapability)?;
    Ok(CapabilitySet {
        reliability,
        feedback,
        cc,
    })
}

/// Whether a header's packet type carries a capability set (SYN/SYNACK) —
/// the only packets whose decode can fail with
/// [`WireError::BadCapability`]. Lets drivers skip a speculative decode of
/// the (much more frequent) data and feedback traffic.
pub fn carries_capabilities(header: &[u8]) -> bool {
    matches!(header.first(), Some(&T_SYN) | Some(&T_SYNACK))
}

/// Whether a header's packet type is part of the close handshake
/// (FIN/FIN-ACK). Sessions that have locally closed still service these,
/// so a lost FIN-ACK never strands the peer in its drain state.
pub fn is_close_handshake(header: &[u8]) -> bool {
    matches!(header.first(), Some(&T_FIN) | Some(&T_FINACK))
}

impl QtpPacket {
    /// Encode to header bytes (excluding simulated payload and IP overhead).
    /// A packet's wire size is the encoded length plus [`IP_OVERHEAD`] (plus
    /// the simulated payload of a [`QtpPacket::Data`]).
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = match self {
            QtpPacket::StreamData { payload, .. } => payload.len(),
            _ => 0,
        };
        let mut out = Vec::with_capacity(HEADER_RESERVE + payload_len);
        match self {
            QtpPacket::Syn { ts_nanos, offered } => {
                out.put_u8(T_SYN);
                out.put_u64(*ts_nanos);
                put_caps(&mut out, offered);
            }
            QtpPacket::SynAck {
                ts_echo_nanos,
                chosen,
            } => {
                out.put_u8(T_SYNACK);
                out.put_u64(*ts_echo_nanos);
                put_caps(&mut out, chosen);
            }
            QtpPacket::Data {
                seq,
                ts_nanos,
                adu_ts_nanos,
                rtt_hint_micros,
                is_retx,
            } => {
                out.put_u8(T_DATA);
                out.put_u64(*seq);
                out.put_u64(*ts_nanos);
                out.put_u64(*adu_ts_nanos);
                out.put_u32(*rtt_hint_micros);
                out.put_u8(u8::from(*is_retx));
            }
            QtpPacket::Feedback {
                ts_echo_nanos,
                t_delay_micros,
                x_recv,
                p_ppb,
                cum_ack,
                blocks,
            } => {
                out.put_u8(T_FEEDBACK);
                out.put_u8(u8::from(p_ppb.is_some()));
                out.put_u64(*ts_echo_nanos);
                out.put_u32(*t_delay_micros);
                out.put_u64(*x_recv);
                out.put_u32(p_ppb.unwrap_or(0));
                out.put_u64(*cum_ack);
                debug_assert!(blocks.len() <= MAX_FB_BLOCKS);
                out.put_u8(blocks.len() as u8);
                for b in blocks {
                    out.put_u64(b.start);
                    out.put_u64(b.end);
                }
            }
            QtpPacket::Forward { new_cum } => {
                out.put_u8(T_FORWARD);
                out.put_u64(*new_cum);
            }
            QtpPacket::StreamData {
                seq,
                ts_nanos,
                adu_ts_nanos,
                rtt_hint_micros,
                is_retx,
                ttl_micros,
                payload,
            } => {
                out.put_u8(T_STREAM_DATA);
                out.put_u64(*seq);
                out.put_u64(*ts_nanos);
                out.put_u64(*adu_ts_nanos);
                out.put_u32(*rtt_hint_micros);
                out.put_u8(u8::from(*is_retx));
                out.put_u32(*ttl_micros);
                debug_assert!(payload.len() <= MAX_STREAM_PAYLOAD);
                out.put_u16(payload.len() as u16);
                out.extend_from_slice(payload);
            }
            QtpPacket::Fin { final_seq } => {
                out.put_u8(T_FIN);
                out.put_u64(*final_seq);
            }
            QtpPacket::FinAck { final_seq } => {
                out.put_u8(T_FINACK);
                out.put_u64(*final_seq);
            }
        }
        out
    }

    /// Decode from header bytes.
    pub fn decode(mut buf: &[u8]) -> Result<Self, WireError> {
        if buf.is_empty() {
            return Err(WireError::Truncated);
        }
        let t = buf.get_u8();
        match t {
            T_SYN => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let ts_nanos = buf.get_u64();
                let offered = get_caps(&mut buf)?;
                Ok(QtpPacket::Syn { ts_nanos, offered })
            }
            T_SYNACK => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let ts_echo_nanos = buf.get_u64();
                let chosen = get_caps(&mut buf)?;
                Ok(QtpPacket::SynAck {
                    ts_echo_nanos,
                    chosen,
                })
            }
            T_DATA => {
                if buf.remaining() < 29 {
                    return Err(WireError::Truncated);
                }
                Ok(QtpPacket::Data {
                    seq: buf.get_u64(),
                    ts_nanos: buf.get_u64(),
                    adu_ts_nanos: buf.get_u64(),
                    rtt_hint_micros: buf.get_u32(),
                    is_retx: buf.get_u8() != 0,
                })
            }
            T_FEEDBACK => {
                if buf.remaining() < 34 {
                    return Err(WireError::Truncated);
                }
                let has_p = buf.get_u8() != 0;
                let ts_echo_nanos = buf.get_u64();
                let t_delay_micros = buf.get_u32();
                let x_recv = buf.get_u64();
                let p_raw = buf.get_u32();
                let cum_ack = buf.get_u64();
                let n = buf.get_u8();
                if n as usize > MAX_FB_BLOCKS || buf.remaining() < 16 * n as usize {
                    return Err(WireError::BadBlockCount(n));
                }
                let mut blocks = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let start = buf.get_u64();
                    let end = buf.get_u64();
                    if end <= start {
                        return Err(WireError::BadBlock);
                    }
                    blocks.push(SeqRange::new(start, end));
                }
                Ok(QtpPacket::Feedback {
                    ts_echo_nanos,
                    t_delay_micros,
                    x_recv,
                    p_ppb: has_p.then_some(p_raw),
                    cum_ack,
                    blocks,
                })
            }
            T_FORWARD => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Ok(QtpPacket::Forward {
                    new_cum: buf.get_u64(),
                })
            }
            T_STREAM_DATA => {
                if buf.remaining() < 35 {
                    return Err(WireError::Truncated);
                }
                let seq = buf.get_u64();
                let ts_nanos = buf.get_u64();
                let adu_ts_nanos = buf.get_u64();
                let rtt_hint_micros = buf.get_u32();
                let is_retx = buf.get_u8() != 0;
                let ttl_micros = buf.get_u32();
                let len = buf.get_u16() as usize;
                if len > MAX_STREAM_PAYLOAD || buf.remaining() < len {
                    return Err(WireError::Truncated);
                }
                Ok(QtpPacket::StreamData {
                    seq,
                    ts_nanos,
                    adu_ts_nanos,
                    rtt_hint_micros,
                    is_retx,
                    ttl_micros,
                    payload: buf[..len].to_vec(),
                })
            }
            T_FIN => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Ok(QtpPacket::Fin {
                    final_seq: buf.get_u64(),
                })
            }
            T_FINACK => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Ok(QtpPacket::FinAck {
                    final_seq: buf.get_u64(),
                })
            }
            other => Err(WireError::BadType(other)),
        }
    }
}

/// Encode a loss event rate as parts-per-billion.
pub fn p_to_ppb(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1e9).round() as u32
}

/// Decode a parts-per-billion loss event rate.
pub fn ppb_to_p(ppb: u32) -> f64 {
    ppb as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_simnet::time::Rate;
    use std::time::Duration;

    fn roundtrip(pkt: QtpPacket) {
        let bytes = pkt.encode();
        assert_eq!(QtpPacket::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn syn_roundtrips_all_profiles() {
        let mut cubic = CapabilitySet::tfrc_standard();
        cubic.cc = CcKind::Cubic;
        let mut bbr = CapabilitySet::tfrc_standard();
        bbr.cc = CcKind::BbrLite;
        for caps in [
            CapabilitySet::qtp_af(Rate::from_mbps(3)),
            CapabilitySet::qtp_light(),
            CapabilitySet::qtp_light_partial(Duration::from_millis(150)),
            CapabilitySet::tfrc_standard(),
            cubic,
            bbr,
        ] {
            roundtrip(QtpPacket::Syn {
                ts_nanos: 123_456_789,
                offered: caps,
            });
            roundtrip(QtpPacket::SynAck {
                ts_echo_nanos: 42,
                chosen: caps,
            });
        }
    }

    /// An attacker (or a newer peer) can put any byte in the SYN's cc-code
    /// slot; every unassigned code must come back as a typed
    /// `BadCapability`, never a panic or a silently wrong controller.
    #[test]
    fn unknown_cc_code_in_syn_decodes_to_bad_capability() {
        let mut bytes = QtpPacket::Syn {
            ts_nanos: 1,
            offered: CapabilitySet::tfrc_standard(),
        }
        .encode();
        // Layout: type(1) + ts(8) + rel code(1) + rel param(8) + fb(1),
        // then the cc code byte.
        let cc_off = 1 + 8 + 1 + 8 + 1;
        assert_eq!(bytes[cc_off], CcKind::Tfrc.wire_code());
        for bad in [5u8, 17, 255] {
            bytes[cc_off] = bad;
            assert_eq!(
                QtpPacket::decode(&bytes),
                Err(WireError::BadCapability(caps::CapsError::BadCc(bad)))
            );
        }
        // Restoring a valid code decodes again (the mutation above was the
        // only corruption).
        bytes[cc_off] = CcKind::Cubic.wire_code();
        match QtpPacket::decode(&bytes).unwrap() {
            QtpPacket::Syn { offered, .. } => assert_eq!(offered.cc, CcKind::Cubic),
            other => panic!("unexpected packet {other:?}"),
        }
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(QtpPacket::Data {
            seq: 9_999,
            ts_nanos: 77,
            adu_ts_nanos: 55,
            rtt_hint_micros: 100_000,
            is_retx: true,
        });
    }

    #[test]
    fn feedback_roundtrip_with_and_without_p() {
        roundtrip(QtpPacket::Feedback {
            ts_echo_nanos: 1,
            t_delay_micros: 2,
            x_recv: 125_000,
            p_ppb: Some(p_to_ppb(0.0123)),
            cum_ack: 10,
            blocks: vec![SeqRange::new(12, 14), SeqRange::new(20, 21)],
        });
        roundtrip(QtpPacket::Feedback {
            ts_echo_nanos: 1,
            t_delay_micros: 2,
            x_recv: 0,
            p_ppb: None,
            cum_ack: 0,
            blocks: vec![],
        });
    }

    #[test]
    fn forward_roundtrip() {
        roundtrip(QtpPacket::Forward { new_cum: 1 << 40 });
    }

    #[test]
    fn stream_data_roundtrip() {
        roundtrip(QtpPacket::StreamData {
            seq: 1234,
            ts_nanos: 5_000_000,
            adu_ts_nanos: 4_000_000,
            rtt_hint_micros: 20_000,
            is_retx: true,
            ttl_micros: 150_000,
            payload: vec![0xAB; 700],
        });
        roundtrip(QtpPacket::StreamData {
            seq: 0,
            ts_nanos: 0,
            adu_ts_nanos: 0,
            rtt_hint_micros: 0,
            is_retx: false,
            ttl_micros: 0,
            payload: Vec::new(),
        });
    }

    #[test]
    fn stream_data_truncated_payload_rejected() {
        let bytes = QtpPacket::StreamData {
            seq: 7,
            ts_nanos: 1,
            adu_ts_nanos: 1,
            rtt_hint_micros: 0,
            is_retx: false,
            ttl_micros: 0,
            payload: vec![1, 2, 3, 4],
        }
        .encode();
        // Cut into the payload: the declared length no longer fits.
        assert_eq!(
            QtpPacket::decode(&bytes[..bytes.len() - 2]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn fin_and_finack_roundtrip() {
        roundtrip(QtpPacket::Fin { final_seq: 1 << 33 });
        roundtrip(QtpPacket::FinAck { final_seq: 99 });
        assert!(is_close_handshake(
            &QtpPacket::Fin { final_seq: 1 }.encode()
        ));
        assert!(is_close_handshake(
            &QtpPacket::FinAck { final_seq: 1 }.encode()
        ));
        assert!(!is_close_handshake(
            &QtpPacket::Forward { new_cum: 1 }.encode()
        ));
    }

    #[test]
    fn ppb_precision() {
        for &p in &[0.0, 1e-6, 0.01, 0.5, 1.0] {
            assert!((ppb_to_p(p_to_ppb(p)) - p).abs() < 1e-9);
        }
        assert_eq!(p_to_ppb(2.0), 1_000_000_000, "clamped");
    }

    #[test]
    fn truncation_rejected() {
        let bytes = QtpPacket::Data {
            seq: 1,
            ts_nanos: 2,
            adu_ts_nanos: 3,
            rtt_hint_micros: 4,
            is_retx: false,
        }
        .encode();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(
                QtpPacket::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_type_rejected() {
        assert_eq!(QtpPacket::decode(&[99]), Err(WireError::BadType(99)));
    }

    #[test]
    fn inverted_feedback_block_rejected() {
        let good = QtpPacket::Feedback {
            ts_echo_nanos: 1,
            t_delay_micros: 2,
            x_recv: 3,
            p_ppb: None,
            cum_ack: 4,
            blocks: vec![SeqRange::new(5, 8)],
        };
        let mut bytes = good.encode();
        let n = bytes.len();
        // Swap start and end.
        let (s, e) = (5u64.to_be_bytes(), 8u64.to_be_bytes());
        bytes[n - 16..n - 8].copy_from_slice(&e);
        bytes[n - 8..].copy_from_slice(&s);
        assert_eq!(QtpPacket::decode(&bytes), Err(WireError::BadBlock));
    }

    #[test]
    fn feedback_is_small_on_the_wire() {
        // The QTPlight feedback packet must be tiny — that is the point.
        let fb = QtpPacket::Feedback {
            ts_echo_nanos: u64::MAX,
            t_delay_micros: u32::MAX,
            x_recv: u64::MAX,
            p_ppb: None,
            cum_ack: u64::MAX,
            blocks: vec![],
        };
        let size = fb.encode().len() as u32 + IP_OVERHEAD;
        assert!(size <= 75, "feedback size {size}");
    }

    #[test]
    fn encode_reserves_the_stream_payload() {
        let data = QtpPacket::StreamData {
            seq: 1,
            ts_nanos: 2,
            adu_ts_nanos: 3,
            rtt_hint_micros: 4,
            is_retx: false,
            ttl_micros: 0,
            payload: vec![7; MAX_STREAM_PAYLOAD],
        };
        // A reallocation would have grown the capacity past the reservation.
        let bytes = data.encode();
        assert!(bytes.len() <= HEADER_RESERVE + MAX_STREAM_PAYLOAD);
        assert_eq!(bytes.capacity(), HEADER_RESERVE + MAX_STREAM_PAYLOAD);
    }
}
