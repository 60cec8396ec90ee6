//! Turning simulation samples into the benchmark's metrics and its
//! one-line JSON result.

use crate::spans::{durations, self_time_by_layer};
use crate::SimSample;
use rubick_sim::JobRecord;
use std::fmt::Write;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The `q`-quantile (0..=1) of `values`, nearest rank (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean over simulations of `f`: the simulations are different
/// traces, so their mean is the run's work per simulation.
fn per_sim(sims: &[SimSample], f: impl Fn(&SimSample) -> f64) -> f64 {
    sims.iter().map(f).sum::<f64>() / sims.len().max(1) as f64
}

/// The median over simulations of `f`.
fn median_per_sim(sims: &[SimSample], f: impl Fn(&SimSample) -> f64) -> f64 {
    median(&sims.iter().map(f).collect::<Vec<f64>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ms_of(values: &[Duration]) -> Vec<f64> {
    values.iter().copied().map(ms).collect()
}

/// The process's peak resident set (`VmHWM`), MiB; 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run: `setups` are every set-up
/// sample taken, `sims` the whole simulations. Wall time, makespan and
/// SLA attainment are means over the run's simulations, the p99 JCT is
/// their median; op latencies and the average JCT are pooled over the
/// run.
pub fn end_to_end(setups: &[Duration], sims: &[SimSample]) -> Vec<Metric> {
    let ops: Vec<Duration> = sims.iter().flat_map(|s| s.ops.iter().copied()).collect();
    let ops = ms_of(&ops);
    let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let jcts: Vec<f64> = sims
        .iter()
        .flat_map(|s| s.report.jobs.iter().map(JobRecord::jct))
        .collect();
    vec![
        metric("setup_s", "s", median(&setup)),
        metric("sim_wall_s", "s", per_sim(sims, |s| s.wall.as_secs_f64())),
        metric("op_p50_ms", "ms", quantile(&ops, 0.50)),
        metric("op_p99_ms", "ms", quantile(&ops, 0.99)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric(
            "avg_jct_s",
            "s",
            jcts.iter().sum::<f64>() / jcts.len().max(1) as f64,
        ),
        // The median, not the mean: a short serve session's p99 is a
        // handful of jobs, and one session's tail would sway a mean.
        metric(
            "p99_jct_s",
            "s",
            median_per_sim(sims, |s| s.report.p99_jct()),
        ),
        metric("makespan_s", "s", per_sim(sims, |s| s.report.makespan)),
        metric(
            "sla_attainment",
            "frac",
            per_sim(sims, |s| s.report.sla_attainment()),
        ),
    ]
}

/// The per-layer metrics of one simulation run twice: `plain` untraced
/// and `traced` through the wrappers. `setups` are every set-up sample.
pub fn per_layer(
    setups: &[crate::SetupTiming],
    plain: &SimSample,
    traced: &SimSample,
) -> Vec<Metric> {
    let profile: Vec<f64> = setups.iter().map(|s| ms(s.profile)).collect();
    let trace_gen: Vec<f64> = setups.iter().map(|s| ms(s.trace)).collect();
    let mut out = vec![
        metric("setup.profile_ms", "ms", median(&profile)),
        metric("setup.trace_ms", "ms", median(&trace_gen)),
    ];
    let t = traced
        .trace
        .as_ref()
        .expect("a traced simulation records spans");
    let spans = t.recorder.spans();
    let us = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|n| n as f64 / 1e3).collect() };
    let sum_ms = |prefix: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            / 1e6
    };
    let roots: Vec<f64> = us(spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns())
        .collect());
    let layers = self_time_by_layer(spans);
    let self_ms = |layer: &str| -> f64 {
        layers
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .sum()
    };
    // The root layer is the engine for batch runs and the serve op for
    // the serve session; either way it is the engine's self time.
    let engine_self = self_ms("engine") + self_ms("serve");
    let attributed: f64 = layers.iter().map(|(_, ns)| *ns as f64 / 1e6).sum();
    let schedule = us(durations(spans, "policy.schedule"));
    let p = &t.recorder.policy;
    let r = &t.recorder.refit;
    out.extend([
        metric("engine.steps", "count", roots.len() as f64),
        metric("engine.step_p50_us", "us", quantile(&roots, 0.50)),
        metric("engine.step_p99_us", "us", quantile(&roots, 0.99)),
        metric("engine.self_ms", "ms", engine_self),
        metric("policy.rounds", "count", p.rounds as f64),
        metric("policy.schedule_ms", "ms", sum_ms("policy.schedule")),
        metric("policy.schedule_p50_us", "us", quantile(&schedule, 0.50)),
        metric("policy.schedule_p99_us", "us", quantile(&schedule, 0.99)),
        metric(
            "policy.jobs_per_round",
            "count",
            ratio(p.jobs as f64, p.rounds as f64),
        ),
        metric("policy.notify_ms", "ms", sum_ms("policy.notify")),
        metric("policy.searched", "count", p.searched as f64),
        metric("policy.dirty", "count", p.dirty as f64),
        metric("policy.clean", "count", p.clean as f64),
        metric("policy.reused", "count", p.reused as f64),
        metric("policy.classified", "count", p.classified as f64),
        metric(
            "policy.reuse_ratio",
            "frac",
            ratio(p.reused as f64, (p.dirty + p.clean) as f64),
        ),
        metric("policy.distinct_keys", "count", p.distinct_keys as f64),
        metric(
            "policy.searches_per_key",
            "count",
            ratio(p.searched as f64, p.distinct_keys as f64),
        ),
        metric(
            "obs.events",
            "count",
            durations(spans, "obs.event").len() as f64,
        ),
        metric("obs.sink_ms", "ms", sum_ms("obs.")),
        metric("refit.observations", "count", r.observations as f64),
        metric("refit.observe_ms", "ms", sum_ms("refit.observe")),
        metric("refit.material", "count", r.material as f64),
        metric("registry.version", "count", t.registry_version as f64),
    ]);
    let serve = traced.serve.as_ref();
    out.extend([
        metric(
            "serve.ops",
            "count",
            serve.map_or(0.0, |_| traced.attempted as f64),
        ),
        metric(
            "serve.advance_p99_ms",
            "ms",
            serve.map_or(0.0, |s| quantile(&ms_of(&s.advance), 0.99)),
        ),
        metric(
            "serve.submit_p99_us",
            "us",
            serve.map_or(0.0, |s| quantile(&ms_of(&s.submit), 0.99) * 1e3),
        ),
        metric(
            "serve.log_bytes",
            "bytes",
            serve.map_or(0.0, |s| s.log_bytes as f64),
        ),
        metric(
            "serve.compactions",
            "count",
            serve.map_or(0.0, |s| s.compactions as f64),
        ),
        metric(
            "serve.replayed_ops",
            "count",
            serve.map_or(0.0, |s| s.replayed_ops as f64),
        ),
        metric(
            "serve.recover_ms",
            "ms",
            serve.map_or(0.0, |s| ms(s.recovery)),
        ),
        metric(
            "trace.overhead_frac",
            "frac",
            ratio(traced.wall.as_secs_f64(), plain.wall.as_secs_f64()) - 1.0,
        ),
        metric(
            "trace.unattributed_frac",
            "frac",
            1.0 - ratio(attributed, ms(t.loop_wall)),
        ),
    ]);
    out
}

/// Renders the result line: `{"correct":…,"attempted":…,"failed":…,
/// "metrics":{name:{"value":…,"unit":…},…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() {
            m.value + 0.0
        } else {
            0.0
        };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
