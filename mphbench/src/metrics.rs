//! The metric catalogue — every name, unit and direction the benchmark
//! reports — and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// Reported by every untraced run. `vtime` is the fabric's virtual clock
/// (model time units), never mixed with wall time.
pub const END_TO_END: &[MetricDef] = &[
    lower("op_wall_p50_ms", "ms"),
    lower("op_wall_tail_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("vtime_makespan", "vtime"),
    lower("job_latency_p50_vtime", "vtime"),
    lower("job_latency_tail_vtime", "vtime"),
    higher("max_rate_jobs_per_vtime", "1/vtime"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
];

/// Names of the spans the traced run records around its calls into the
/// layers, children of one `op` span per operation.
pub const SPAN_NAMES: &[&str] = &[
    "op",
    "lower",
    "price",
    "admission",
    "solve_untraced",
    "solve",
    "kernel_replay",
    "verify",
    "export",
];

/// Reported by every traced run; measured from outside, by timing the
/// benchmark's own calls into each crate's public functions.
pub const PER_LAYER: &[MetricDef] = &[
    // kernel (mph-linalg lanes + mph_eigen::SweepKernel)
    lower("kernel.sweep_ms", "ms"),
    lower("kernel.rotations", "count"),
    lower("kernel.flops", "flop"),
    higher("kernel.gflops_per_s", "Gflop/s"),
    higher("kernel.cpu_share", "ratio"),
    // solver (mph-eigen drivers)
    lower("eigen.sweeps", "count"),
    lower("eigen.logical_ms", "ms"),
    higher("eigen.speedup_vs_logical", "ratio"),
    lower("eigen.residual_max", "ratio"),
    lower("eigen.orth_max", "ratio"),
    // orderings and lowering (mph-core)
    lower("core.lower_ms", "ms"),
    lower("core.plan_messages_per_sweep", "count"),
    // pricing (mph-ccpipe)
    lower("ccpipe.price_ms", "ms"),
    lower("ccpipe.predicted_vtime", "vtime"),
    lower("fabric.vtime_over_predicted", "ratio"),
    // transport (mph_runtime::spmd and the traffic meter)
    lower("runtime.messages", "count"),
    lower("runtime.elems", "count"),
    lower("runtime.control_messages", "count"),
    lower("runtime.spawn_ms", "ms"),
    lower("runtime.channel_ts_us", "us"),
    lower("runtime.channel_tw_ns", "ns"),
    lower("runtime.overhead_us_per_msg", "us"),
    // fabric and packets (mph_runtime fabric/packet, read off a RingSink)
    lower("fabric.port_wait_vtime", "vtime"),
    lower("fabric.wire_vtime", "vtime"),
    lower("fabric.link_busy_max_frac", "ratio"),
    lower("packet.packets", "count"),
    // adaptation (mph_eigen adaptive path)
    lower("adapt.recalibrations", "count"),
    lower("adapt.reroutes", "count"),
    lower("adapt.rerouted_elems", "count"),
    // admission (mph-batch, mph-serve)
    lower("serve.admission_ms", "ms"),
    lower("serve.queue_wait_p50_vtime", "vtime"),
    lower("serve.queue_wait_tail_vtime", "vtime"),
    lower("serve.peak_queue_depth", "count"),
    lower("serve.shed", "count"),
    // observation (mph-trace)
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.events", "count"),
    lower("trace.export_ms", "ms"),
    // self time of each span the traced run records
    lower("span.op.self_ms", "ms"),
    lower("span.lower.self_ms", "ms"),
    lower("span.price.self_ms", "ms"),
    lower("span.admission.self_ms", "ms"),
    lower("span.solve_untraced.self_ms", "ms"),
    lower("span.solve.self_ms", "ms"),
    lower("span.kernel_replay.self_ms", "ms"),
    lower("span.verify.self_ms", "ms"),
    lower("span.export.self_ms", "ms"),
];

/// Looks a metric up in either catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its value and unit. A missing or non-finite value is
/// left out, which the caller counts as a failure.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[MetricDef],
    values: &Values,
) -> String {
    let mut metrics = String::new();
    for d in catalogue {
        let Some(v) = values.get(d.name).filter(|v| v.is_finite()) else { continue };
        let sep = if metrics.is_empty() { "" } else { ", " };
        write!(metrics, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit)
            .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}

/// Catalogue entries missing from `values` or not finite.
pub fn missing(catalogue: &[MetricDef], values: &Values) -> Vec<&'static str> {
    catalogue
        .iter()
        .filter(|d| !values.get(d.name).is_some_and(|v| v.is_finite()))
        .map(|d| d.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|e| e.name != d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for s in SPAN_NAMES {
            assert!(def(&format!("span.{s}.self_ms")).is_some(), "span {s} has a self-time metric");
        }
    }

    #[test]
    fn result_line_carries_value_and_unit() {
        let mut v = Values::new();
        v.insert("setup_s", 0.5);
        let line = result_line(true, 3, 0, END_TO_END, &v);
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(missing(END_TO_END, &v).contains(&"op_wall_p50_ms"));
    }
}
