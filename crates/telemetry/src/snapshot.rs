//! The canonical merged view of every metric shard.
//!
//! [`Snapshot`] is plain data: three sorted maps (counters, gauges,
//! histograms) keyed by metric name. It is what the bench snapshots
//! embed as their `telemetry` block, what `telemetry_report` renders
//! as Prometheus text, and — because counters and histograms are
//! monotonic — what [`Snapshot::delta_since`] subtracts to isolate one
//! run from everything else the process has done.

use std::collections::BTreeMap;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};

/// A merged, immutable view of all shards at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, summed across shards.
    pub counters: BTreeMap<String, u64>,
    /// Gauges: last value set per shard, merged by maximum (the
    /// useful aggregate for depth-style gauges such as queue depth).
    pub gauges: BTreeMap<String, u64>,
    /// Streaming histograms, bucket-wise summed across shards.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// `true` when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Everything recorded between `earlier` and this snapshot.
    /// Counters and histograms subtract (saturating); gauges keep this
    /// snapshot's value, since a gauge is a point-in-time reading, not
    /// an accumulation. Metrics absent from `earlier` pass through
    /// whole.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &now)| {
                let then = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), now.saturating_sub(then))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, now)| {
                let delta = match earlier.histograms.get(name) {
                    Some(then) => now.delta_since(then),
                    None => now.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Serializes the snapshot as a JSON object, each line prefixed
    /// with `indent`, in the same hand-rolled style as the bench
    /// snapshots. Histograms embed their exact count/sum, three
    /// headline quantile estimates, and a sparse `[bucket, count]`
    /// list so empty buckets cost nothing on disk.
    pub fn to_json(&self, indent: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{indent}{{");
        let inner = format!("{indent}  ");
        let close = |first: bool| {
            if first {
                String::new()
            } else {
                format!("\n{inner}")
            }
        };

        let _ = write!(out, "{inner}\"counters\": {{");
        let mut first = true;
        for (name, value) in &self.counters {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n{inner}  \"{}\": {value}", escape(name));
            first = false;
        }
        let _ = writeln!(out, "{}}},", close(first));

        let _ = write!(out, "{inner}\"gauges\": {{");
        let mut first = true;
        for (name, value) in &self.gauges {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n{inner}  \"{}\": {value}", escape(name));
            first = false;
        }
        let _ = writeln!(out, "{}}},", close(first));

        let _ = write!(out, "{inner}\"histograms\": {{");
        let mut first = true;
        for (name, hist) in &self.histograms {
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{inner}  \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                escape(name),
                hist.count,
                hist.sum,
                hist.quantile(0.50),
                hist.quantile(0.95),
                hist.quantile(0.99),
            );
            let mut first_bucket = true;
            for (i, &c) in hist.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let sep = if first_bucket { "" } else { ", " };
                let _ = write!(out, "{sep}[{i}, {c}]");
                first_bucket = false;
            }
            let _ = write!(out, "]}}");
            first = false;
        }
        let _ = writeln!(out, "{}}}", close(first));

        let _ = write!(out, "{indent}}}");
        out
    }

    /// Renders the snapshot as Prometheus text exposition (the
    /// `telemetry_report` bin's output). Metric names are sanitized to
    /// the Prometheus alphabet and prefixed `perfport_`; histograms
    /// expand into cumulative `_bucket{le="…"}` series plus exact
    /// `_sum`/`_count`.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in hist.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "{name}_sum {}", hist.sum);
            let _ = writeln!(out, "{name}_count {}", hist.count);
        }
        out
    }
}

/// Maps a metric name onto the Prometheus alphabet
/// (`[a-zA-Z0-9_:]`): every other byte becomes `_`, and the result is
/// prefixed with `perfport_` so exported series are namespaced.
pub fn prometheus_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("perfport_{sanitized}")
}

/// Minimal JSON string escaping for metric names and event payloads
/// (quote, backslash, and control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("pool/regions".into(), 3);
        snap.gauges.insert("queue/depth".into(), 7);
        let mut h = HistogramSnapshot::empty();
        h.buckets[10] = 2;
        h.buckets[12] = 1;
        h.count = 3;
        h.sum = 9000;
        snap.histograms.insert("serve/latency_ns".into(), h);
        snap
    }

    #[test]
    fn json_round_trips_braces_and_fields() {
        let json = sample().to_json("  ");
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"pool/regions\": 3"));
        assert!(json.contains("\"queue/depth\": 7"));
        assert!(json.contains("\"serve/latency_ns\""));
        assert!(json.contains("\"buckets\": [[10, 2], [12, 1]]"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in:\n{json}"
        );
    }

    #[test]
    fn empty_snapshot_serializes_to_empty_maps() {
        let json = Snapshot::default().to_json("");
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn prometheus_exposition_has_types_and_cumulative_buckets() {
        let text = sample().prometheus();
        assert!(text.contains("# TYPE perfport_pool_regions counter"));
        assert!(text.contains("perfport_pool_regions 3"));
        assert!(text.contains("# TYPE perfport_queue_depth gauge"));
        assert!(text.contains("# TYPE perfport_serve_latency_ns histogram"));
        // Bucket 10 holds 2, bucket 12 cumulative 3, then +Inf.
        assert!(text.contains("perfport_serve_latency_ns_bucket{le=\"2047\"} 2"));
        assert!(text.contains("perfport_serve_latency_ns_bucket{le=\"8191\"} 3"));
        assert!(text.contains("perfport_serve_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("perfport_serve_latency_ns_sum 9000"));
        assert!(text.contains("perfport_serve_latency_ns_count 3"));
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges() {
        let earlier = sample();
        let mut later = sample();
        *later.counters.get_mut("pool/regions").unwrap() = 10;
        later.counters.insert("queue/submitted".into(), 4);
        *later.gauges.get_mut("queue/depth").unwrap() = 2;
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.counters["pool/regions"], 7);
        assert_eq!(delta.counters["queue/submitted"], 4);
        assert_eq!(delta.gauges["queue/depth"], 2);
        assert!(delta.histograms["serve/latency_ns"].is_empty());
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain/name"), "plain/name");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
