//! Wire and frame codec cost, measured by replaying the datagrams a
//! traced run captured through `QtpPacket::decode`/`encode` and
//! `Frame::encode`/`decode`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use qtp_core::wire::QtpPacket;
use qtp_io::frame::Frame;

use crate::tap::Captured;

/// Mean nanoseconds per codec call over the replayed sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    /// `QtpPacket::decode`.
    pub wire_decode_ns: f64,
    /// `QtpPacket::encode`.
    pub wire_encode_ns: f64,
    /// `Frame::encode`.
    pub frame_encode_ns: f64,
    /// `Frame::decode`.
    pub frame_decode_ns: f64,
}

/// Replay `sample` through both codecs until each has run for at least
/// `budget`, and return the per-call means. Every captured header must
/// decode, re-encode byte-identically and survive a frame round trip:
/// the replay doubles as a check on the codecs.
pub fn replay(sample: &[Captured], budget: Duration) -> Result<CodecCost, String> {
    if sample.is_empty() {
        return Ok(CodecCost::default());
    }
    let packets: Vec<QtpPacket> = sample
        .iter()
        .map(|c| QtpPacket::decode(&c.header).map_err(|e| format!("captured header: {e:?}")))
        .collect::<Result<_, _>>()?;
    for (c, p) in sample.iter().zip(&packets) {
        if p.encode() != c.header {
            return Err("wire re-encode differs from the captured header".into());
        }
    }
    let frames: Vec<Frame> = sample
        .iter()
        .enumerate()
        .map(|(i, c)| Frame {
            flow: c.flow,
            seq: i as u64,
            wire_size: c.wire_size,
            header: c.header.clone(),
        })
        .collect();
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| f.encode().map_err(|e| format!("frame encode: {e}")))
        .collect::<Result<_, _>>()?;
    for (f, bytes) in frames.iter().zip(&encoded) {
        let back = Frame::decode(bytes).map_err(|e| format!("frame decode: {e}"))?;
        if back.header != f.header || back.flow != f.flow || back.wire_size != f.wire_size {
            return Err("frame round trip changed the datagram".into());
        }
    }

    Ok(CodecCost {
        wire_decode_ns: per_call(
            budget,
            &sample.iter().map(|c| &c.header[..]).collect::<Vec<_>>(),
            |h| {
                black_box(QtpPacket::decode(black_box(h)).is_ok());
            },
        ),
        wire_encode_ns: per_call(budget, &packets, |p| {
            black_box(black_box(p).encode());
        }),
        frame_encode_ns: per_call(budget, &frames, |f| {
            black_box(black_box(f).encode().is_ok());
        }),
        frame_decode_ns: per_call(budget, &encoded, |b| {
            black_box(Frame::decode(black_box(b)).is_ok());
        }),
    })
}

/// Call `f` on every item, in passes, until `budget` has elapsed; mean
/// nanoseconds per call.
fn per_call<T>(budget: Duration, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}
