//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ns_per_pkt", "ns"),
    ("peak_rss_kib_per_flow", "KiB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("simnet.events_per_pkt", "count"),
    ("simnet.self_ns_per_event", "ns"),
    ("simnet.pool_high_water", "count"),
    ("setup.rss_kib_per_flow", "KiB"),
    ("session.calls_per_pkt", "count"),
    ("session.self_ns_per_call", "ns"),
    ("session.cmds_per_call", "count"),
    ("session.timers_set_per_pkt", "count"),
    ("session.stale_timer_ratio", "ratio"),
    ("sack.retx_ratio", "ratio"),
    ("sack.loss_events_per_kpkt", "count"),
    ("cc.rate_updates_per_pkt", "count"),
    ("cc.feedback_per_pkt", "count"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.header_bytes_per_pkt", "B"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("stream.send_ns_per_kib", "ns"),
    ("stream.recv_ns_per_kib", "ns"),
    ("stream.full_ratio", "ratio"),
    ("mux.self_ns_per_dgram", "ns"),
    ("mux.idle_poll_ratio", "ratio"),
    ("mux.timers_fired_per_pkt", "count"),
    ("mux.wheel_high_water", "count"),
    ("mux.requeued_ratio", "ratio"),
    ("mux.dropped_ratio", "ratio"),
    ("io.busy_ratio", "ratio"),
    ("io.cpu_ns_per_pkt", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Connections attempted, all rounds.
    pub attempted: u64,
    /// Connections that did not finish their job by the deadline or
    /// horizon.
    pub failed: u64,
    /// Hard errors: wrong output, broken determinism. Any makes the run
    /// incorrect.
    pub errors: Vec<String>,
    /// Measured values by name; names must come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Record an error.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Record a note.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The metrics this kind of run prints, in declaration order; a
    /// layer the workload does not exercise reads 0.
    fn selected(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, unit, v)
            })
            .collect()
    }

    /// Human-readable lines: every metric by name with its unit.
    pub fn render_table(&self, traced: bool) -> String {
        let mut s = String::new();
        for (name, unit, v) in self.selected(traced) {
            let _ = writeln!(s, "  {name:<28} {v:>16.4} {unit}");
        }
        s
    }

    /// The machine-readable result line.
    pub fn render_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .selected(traced)
            .into_iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision (JSON has no NaN or infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
