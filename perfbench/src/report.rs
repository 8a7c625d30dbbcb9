//! The metric catalogue and the result line.
//!
//! Every workload reports every metric: the end-to-end set in a measured
//! run, the per-layer set in a traced run. A per-layer metric a workload
//! does not exercise reads 0 (the `server.*` layers on the batch
//! workloads, for instance).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Timings are a median plus the
/// highest percentile the sample supports with ≥ 10 samples beyond it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("analyze_ms", "ms"),
    ("reachable_methods", "count"),
    ("binary_size_kb", "KiB"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("ok_share", "ratio"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("grow_flush_p50_ms", "ms"),
    ("grow_flush_p90_ms", "ms"),
    ("shrink_flush_p50_ms", "ms"),
    ("shrink_flush_p90_ms", "ms"),
];

/// Per-layer metrics, `<module>.<metric>`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.encode.decode_ms", "ms"),
    ("ir.encode.decode_mb_per_s", "MB/s"),
    ("ir.encode.bytes", "bytes"),
    ("core.session.build_ms", "ms"),
    ("core.session.solve_ms", "ms"),
    ("core.engine.steps", "count"),
    ("core.engine.state_joins", "count"),
    ("core.engine.full_join_steps", "count"),
    ("core.engine.flows", "count"),
    ("core.engine.use_edges", "count"),
    ("core.engine.pred_edges", "count"),
    ("core.engine.obs_edges", "count"),
    ("core.engine.joins_per_step", "ratio"),
    ("core.scheduler.flips", "count"),
    ("core.scheduler.flip_at_step", "step"),
    ("core.scheduler.order_repairs", "count"),
    ("core.scheduler.order_comps_moved", "count"),
    ("core.scheduler.scc_merges", "count"),
    ("core.scheduler.order_relabels", "count"),
    ("core.scheduler.rebucketed_flows", "count"),
    ("core.scheduler.steps_in_cycles", "count"),
    ("core.report.metrics_ms", "ms"),
    ("core.session.memory_bytes", "bytes"),
    ("core.session.resume_ms", "ms"),
    ("core.session.resume_steps", "count"),
    ("core.session.invalidate_ms", "ms"),
    ("core.session.rederive_ms", "ms"),
    ("core.invalidation.invalidated_methods", "count"),
    ("core.invalidation.invalidated_flows", "count"),
    ("core.invalidation.rederive_steps", "count"),
    ("core.invalidation.rederive_vs_fresh_steps", "ratio"),
    ("core.invalidation.rederive_vs_fresh_ms", "ratio"),
    ("server.protocol.parse_us", "us"),
    ("server.net.handle_us.roots", "us"),
    ("server.net.handle_us.retract", "us"),
    ("server.net.handle_us.edit", "us"),
    ("server.net.handle_us.query", "us"),
    ("server.net.outside_handler_us", "us"),
    ("server.registry.flush_ms", "ms"),
    ("server.registry.batches", "count"),
    ("server.registry.batched_roots", "count"),
    ("server.registry.coalescing_ratio", "ratio"),
    ("server.registry.epochs_published", "count"),
    ("server.registry.partial_epochs", "count"),
    ("server.registry.sheds", "count"),
    ("server.publish.load_ns", "ns"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.query_samples", "count"),
    ("loadgen.grow_samples", "count"),
    ("loadgen.shrink_samples", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.self_time_coverage", "ratio"),
    ("trace.spans", "count"),
    ("host.calibration_slice_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Operations attempted (analyses, queries, mutations, requests).
    pub attempted: u64,
    /// Of those, failed, refused, timed out or answered `[partial]`.
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Sets metric `name` (which must be catalogued).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, None);
    }

    /// Sets a metric computed from `samples` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "uncatalogued metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, samples));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Fills `ok_share` from the attempted and failed counts.
    pub fn finish_counts(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        self.set("ok_share", ok);
    }

    /// The human-readable table (every metric measured, with units and
    /// sample counts), for standard error.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(&(v, n)) = self.values.get(name) {
                let n = n.map_or(String::new(), |n| format!("  (n={n})"));
                out.push_str(&format!("{name:<44} {v:>16.4} {unit}{n}\n"));
            }
        }
        for p in &self.problems {
            out.push_str(&format!("CHECK FAILED: {p}\n"));
        }
        out
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    /// An unset per-layer metric is a layer the workload does not exercise
    /// and reads 0; an unset end-to-end metric is only allowed in a run
    /// that failed a check (and stopped early), where it reads 0 too.
    pub fn json(&self, traced: bool) -> String {
        let (set, required) = if traced {
            (PER_LAYER, false)
        } else {
            (END_TO_END, self.problems.is_empty())
        };
        let metrics: Vec<String> = set
            .iter()
            .map(|&(name, unit)| {
                let v = match self.values.get(name) {
                    Some(&(v, _)) => v,
                    None if required => panic!("end-to-end metric {name} was not measured"),
                    None => 0.0,
                };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
