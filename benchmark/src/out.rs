//! Metric registry, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from an untraced run.
/// A "request" is what the workload's user waits for: a whole `repro_all`
/// pass (paper-repro), a whole 80-point sweep (sweep-mix), or one fresh
/// served job at the `low` arrival rate (serve-open).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics, reported by every workload from a traced run. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-level figures from the untraced half of a traced run.
    ("repro_s", "s"),
    ("sweep_points_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("serve_p50_ms.low", "ms"),
    ("serve_p90_ms.low", "ms"),
    ("serve_p50_ms.high", "ms"),
    ("serve_p90_ms.high", "ms"),
    ("serve_max_rate_jps", "1/s"),
    ("mem.peak_rss_mb", "MB"),
    // Span accounting.
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_ratio", "ratio"),
    ("work.digest", "count"),
    // lpm-trace
    ("trace.generate_ms", "ms"),
    // lpm-sim
    ("sim.build_ms", "ms"),
    ("sim.warmup_ms", "ms"),
    ("sim.ns_per_cycle.bwaves", "ns"),
    ("sim.ns_per_cycle.mcf", "ns"),
    ("sim.ns_per_cycle.gcc", "ns"),
    ("sim.ns_per_cycle.bzip2", "ns"),
    ("sim.skip_ratio.bwaves", "ratio"),
    ("sim.skip_ratio.mcf", "ratio"),
    ("sim.skip_ratio.gcc", "ratio"),
    ("sim.skip_ratio.bzip2", "ratio"),
    ("cmp.build_ms", "ms"),
    ("cmp.warmup_s", "s"),
    ("cmp.measure_s", "s"),
    ("cmp.ns_per_cycle", "ns"),
    ("cmp.skip_ratio", "ratio"),
    // lpm-cpu / lpm-cache / lpm-dram exact counts
    ("cpu.retired", "count"),
    ("sim.cycles", "count"),
    ("attr.rob_full_ratio", "ratio"),
    ("attr.l1_mshr_full_ratio", "ratio"),
    ("attr.shared_mshr_full_ratio", "ratio"),
    ("attr.dram_ratio", "ratio"),
    ("l1.miss_ratio", "ratio"),
    ("l1.mshr_rejects", "count"),
    ("l1.port_rejects", "count"),
    ("l2.accesses", "count"),
    ("l2.miss_ratio", "ratio"),
    ("l2.mshr_rejects", "count"),
    ("l2.port_rejects", "count"),
    ("dram.accepted", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.rejected", "count"),
    ("dram.busy_ratio", "ratio"),
    // lpm-core
    ("core.controller_ms", "ms"),
    ("core.decisions", "count"),
    ("core.knob_changes", "count"),
    ("repro.table1_s", "s"),
    ("repro.fig67_s", "s"),
    ("repro.fig8_s", "s"),
    ("repro.validation_s", "s"),
    ("repro.intervals_s", "s"),
    ("repro.parallel_efficiency", "ratio"),
    // lpm-telemetry
    ("telemetry.events", "count"),
    ("telemetry.dropped_ratio", "ratio"),
    ("export.jsonl_ms", "ms"),
    ("export.csv_ms", "ms"),
    ("export.bytes", "count"),
    // lpm-harness
    ("harness.point_ms.p50", "ms"),
    ("harness.point_ms.p90", "ms"),
    ("harness.parallel_efficiency", "ratio"),
    ("journal.append_ms", "ms"),
    ("journal.bytes", "count"),
    // lpm-serve / lpm-vfs
    ("serve.submit_us", "us"),
    ("serve.status_us.p99", "us"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.report_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.utilization", "ratio"),
    ("serve.littles_law_gap", "ratio"),
    ("serve.rejects", "count"),
    ("serve.gen_late_ms.p99", "ms"),
];

/// What one benchmark run found: the correctness tally plus named
/// metric values (end-to-end or per-layer, by run mode).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (points, items, jobs, checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Metric values by registry name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count `n` attempted operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Count one correctness check; a failing one is noted with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok));
        if !ok {
            self.notes.push(format!("MISMATCH: {}", what()));
        }
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Render the final result line over `registry`. Metrics a workload
/// did not produce read 0 (the layer was not exercised).
pub fn result_line(o: &Outcome, registry: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            let v = o.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold 64-bit `h` to 32 bits, so it survives a round trip through an
/// f64 metric value exactly.
pub fn fold32(h: u64) -> f64 {
    ((h >> 32) ^ (h & 0xffff_ffff)) as f64
}

/// The process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// splitmix64: derive independent, reproducible input seeds from the
/// benchmark's `--seed` argument.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker threads for compute: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_lists_every_registry_metric() {
        let mut o = Outcome::default();
        o.tally(3, 0);
        o.set("setup_s", 0.25);
        let line = result_line(&o, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }
}
