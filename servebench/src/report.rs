//! Metric names, units and the result line.

use std::collections::BTreeMap;

use crate::verify::Tally;

/// End-to-end metrics, reported with tracing off on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("server_rss_mb", "MiB"),
];

/// End-to-end metrics the result line carries with the per-layer ones:
/// `failed_share` reads 0, so it cannot carry a relative bound, and the
/// probe and write latencies apply to one workload each, while every
/// bounded metric must apply to all. The report on stderr always shows
/// them.
pub const WORKLOAD_END_TO_END: &[&str] = &[
    "failed_share",
    "probe_p50_ms",
    "probe_tail_ms",
    "gen.late_p99_ms",
    "write_p50_ms",
];

/// Per-layer metrics, reported by the traced run on every workload; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_share", "ratio"),
    ("probe_p50_ms", "ms"),
    ("probe_tail_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("server.wire_ms.p50", "ms"),
    ("server.wire_ms.p99", "ms"),
    ("server.probe_wait_ms.p50", "ms"),
    ("server.probe_wait_ms.p99", "ms"),
    ("server.err_replies", "count"),
    ("reply.fingerprint_ms", "ms"),
    ("reply.selection_ms", "ms"),
    ("reply.rest_ms", "ms"),
    ("protocol.parse_us", "us"),
    ("registry.fp_hit_ratio", "ratio"),
    ("registry.sel_hit_ratio", "ratio"),
    ("registry.fingerprint_hit_us", "us"),
    ("registry.fingerprint_miss_ms", "ms"),
    ("cache.evictions", "count"),
    ("cache.bytes_resident", "bytes"),
    ("cache.shards_reused", "count"),
    ("store.persisted", "count"),
    ("store.bytes_written", "bytes"),
    ("store.write_amp", "ratio"),
    ("store.snapshot_ms", "ms"),
    ("store.write_failures", "count"),
    ("persist.encode_ms", "ms"),
    ("persist.decode_ms", "ms"),
    ("shard.concat_ms", "ms"),
    ("canonical.ms", "ms"),
    ("skyline.sfs_ms", "ms"),
    ("skyline.m", "count"),
    ("minhash.fold_ms", "ms"),
    ("minhash.dominance_tests", "count"),
    ("minhash.rows_scanned", "count"),
    ("minhash.tests_per_us", "1/us"),
    ("minhash.merge_ms", "ms"),
    ("select.mh_ms.p50", "ms"),
    ("select.mh_ms.p99", "ms"),
    ("select.lsh_ms.p50", "ms"),
    ("select.lsh_ms.p99", "ms"),
    ("cluster.legs_per_query", "count"),
    ("cluster.fanout_retries", "count"),
    ("cluster.fanout_failures", "count"),
    ("cluster.frame_us", "us"),
    ("cluster.coord_overhead_ms", "ms"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<String, f64>,
    /// Human-readable context (bases, sample counts), printed to stderr.
    pub notes: Vec<String>,
    pub tally: Tally,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// The result line: every metric of `list`, missing ones as 0.
    pub fn json(&self, list: &[(&str, &str)], correct: bool) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(*name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed_total(),
            metrics.join(", ")
        )
    }
}
