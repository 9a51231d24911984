//! What a run prints: readable lines first, then one JSON object as the
//! last line of standard output.

/// The end-to-end metrics every workload reports, in order, with their
/// units (see `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("cpu_us_per_item", "us"),
    ("rate_per_s", "1/s"),
];

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Requests or samples whose outcome was judged.
    pub attempted: u64,
    /// Of those: shed, expired, error replies, protocol errors and
    /// verification mismatches.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Readable lines: seed-determined values, ladders, breakdowns.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports the end-to-end metrics, valued in [`END_TO_END`] order.
    pub fn end_to_end(&mut self, values: [f64; 4]) {
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            self.metric(name, value, unit);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks the run incorrect with a reason.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.note(format!("CHECK FAILED: {}", why.into()));
    }

    /// Prints the readable report and the final JSON line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        let share = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            0.0
        };
        println!(
            "failed_share {share:.6} ratio ({} of {} attempted)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            println!("{:<34} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A finite value in full precision; JSON has no NaN or infinity, so
/// those print as `null`, which no consumer of the line accepts as a
/// measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// FNV-1a over a stream of `u64`s: a compact digest of seed-determined
/// outputs.
pub fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_refuse_non_finite() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn digests_depend_on_order_and_content() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([3, 2, 1]));
        assert_ne!(digest([1, 2]), digest([1, 2, 0]));
    }
}
