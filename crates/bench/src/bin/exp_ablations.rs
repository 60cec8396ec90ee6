//! **Ablations** — sensitivity of the reproduction's key design choices.
//! Not a paper table; these back the design decisions `DESIGN.md` records
//! and the knobs the paper only mentions in passing.
//!
//! 1. *Reconfiguration-penalty threshold* (paper: 0.97): JCT vs. churn.
//! 2. *Overlap modeling*: the p-norm `f_overlap^k` vs. forcing no overlap
//!    (`k = 1`) or perfect overlap (`k = 32`) — prediction error impact.
//! 3. *Synergy backfill depth*: quantifies the §2.2 head-of-line pathology
//!    that reconfigurability removes.
//! 4. *Cluster environment*: best-plan choices shift between the A800
//!    testbed (400/100/20 GB/s) and a commodity cloud (64/3/12 GB/s).
//!
//! ```sh
//! cargo run --release -p rubick-bench --bin exp_ablations
//! ```

use rubick_bench::std_oracle;
use rubick_core::{ModelRegistry, RubickConfig, RubickScheduler, SynergyScheduler};
use rubick_model::{enumerate_plans, ModelSpec, PerfParams, Placement};
use rubick_sim::{Cluster, Engine, EngineConfig, JobSpec, Scheduler, SimReport};
use rubick_testbed::{profile_and_fit, TestbedOracle};
use rubick_trace::{generate_base, TraceConfig};
use std::sync::Arc;

/// Profiles and fits the full 7-model zoo (phase ① for every model type).
fn build_registry(oracle: &TestbedOracle) -> Arc<ModelRegistry> {
    Arc::new(
        ModelRegistry::from_oracle(oracle, &ModelSpec::zoo())
            .expect("zoo profiling should succeed"),
    )
}

/// Seconds → hours.
fn hours(secs: f64) -> f64 {
    secs / 3600.0
}

/// Runs the base trace through one configuration of a scheduler on the
/// paper's 64-GPU testbed. The knobs these ablations vary (reconfiguration
/// threshold, backfill window) are not scenario dimensions, so the
/// scheduler is built here rather than by name.
fn run_base_trace(
    oracle: &TestbedOracle,
    scheduler: Box<dyn Scheduler>,
    jobs: Vec<JobSpec>,
) -> SimReport {
    let mut engine = Engine::new(
        oracle,
        scheduler,
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    );
    engine.run(jobs)
}

fn threshold_sweep(oracle: &TestbedOracle) {
    let registry = build_registry(oracle);
    let trace = generate_base(&TraceConfig::default(), oracle);
    println!("== 1. Reconfiguration-penalty threshold (paper default 0.97) ==");
    println!(
        "{:>9} | {:>10} | {:>10} | {:>9} | {:>12}",
        "threshold", "avg JCT(h)", "p99 JCT(h)", "reconfigs", "churn GPU-h%"
    );
    println!("{}", "-".repeat(62));
    for threshold in [0.90, 0.95, 0.97, 0.99] {
        let sched = RubickScheduler::with_config(
            Arc::clone(&registry),
            RubickConfig {
                reconfig_threshold: threshold,
                ..RubickConfig::default()
            },
        );
        let report = run_base_trace(oracle, Box::new(sched), trace.clone());
        println!(
            "{threshold:>9} | {:>10.2} | {:>10.2} | {:>9} | {:>11.2}%",
            hours(report.avg_jct()),
            hours(report.p99_jct()),
            report.jobs.iter().map(|j| j.reconfig_count).sum::<u32>(),
            report.reconfig_share() * 100.0,
        );
    }
    println!();
}

fn overlap_ablation(oracle: &TestbedOracle) {
    println!("== 2. Overlap modeling: fitted k vs. forced extremes (GPT-2) ==");
    let spec = ModelSpec::gpt2_xl();
    let batch = spec.default_batch;
    let (model, _) = profile_and_fit(oracle, &spec, batch).expect("profiling");
    let variants: Vec<(&str, PerfParams)> = vec![
        ("fitted", model.params),
        (
            "no overlap (k=1)",
            PerfParams {
                k_sync: 1.0,
                k_off: 1.0,
                k_swap: 1.0,
                ..model.params
            },
        ),
        (
            "perfect overlap (k=32)",
            PerfParams {
                k_sync: 32.0,
                k_off: 32.0,
                k_swap: 32.0,
                ..model.params
            },
        ),
    ];
    println!(
        "{:<24} | {:>10} | {:>10}",
        "overlap model", "avg err", "max err"
    );
    println!("{}", "-".repeat(50));
    // Evaluate on *cross-node* DP-family placements, where the gradient
    // synchronization term is large enough that its overlap with the
    // backward pass decides the prediction (on one NVLink node DP sync is
    // nearly free and the exponent barely matters).
    for (name, params) in variants {
        let mut errors = Vec::new();
        for (g, per_node) in [(8u32, 2u32), (8, 4), (16, 4), (16, 8), (32, 8)] {
            let placement = Placement::spread(g, per_node, g * 12, g as f64 * 200.0);
            for plan in enumerate_plans(&spec, g, batch, oracle.shape(), oracle.env()) {
                if plan.parallel.is_model_parallel() {
                    continue; // isolate the DP-sync overlap term
                }
                let Some(actual) = oracle.throughput(&spec, &plan, batch, &placement) else {
                    continue;
                };
                let pred = params.throughput(&spec, &plan, batch, &placement, oracle.env());
                errors.push((pred - actual).abs() / actual);
            }
        }
        let avg = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let max = errors.iter().fold(0.0f64, |a, &b| a.max(b));
        println!("{name:<24} | {:>9.2}% | {:>9.2}%", avg * 100.0, max * 100.0);
    }
    println!();
}

fn backfill_sweep(oracle: &TestbedOracle) {
    let registry = build_registry(oracle);
    let trace = generate_base(&TraceConfig::default(), oracle);
    println!("== 3. Synergy backfill depth (head-of-line blocking, section 2.2) ==");
    println!(
        "{:>7} | {:>10} | {:>12}",
        "window", "avg JCT(h)", "makespan(h)"
    );
    println!("{}", "-".repeat(36));
    for window in [1usize, 4, 16, 64, 1024] {
        let sched = SynergyScheduler::new(Arc::clone(&registry)).with_backfill_window(window);
        let report = run_base_trace(oracle, Box::new(sched), trace.clone());
        println!(
            "{window:>7} | {:>10.2} | {:>12.2}",
            hours(report.avg_jct()),
            hours(report.makespan)
        );
    }
    println!();
}

fn environment_shift(oracle_a800: &TestbedOracle) {
    println!("== 4. Best plans: A800 testbed vs. commodity cloud (3 GB/s inter-node) ==");
    let commodity = TestbedOracle::with_env(
        oracle_a800.seed(),
        rubick_model::ClusterEnv::commodity(),
        *oracle_a800.shape(),
    );
    println!(
        "{:<12} | {:>5} | {:<26} | {:<26}",
        "model", "GPUs", "A800 best plan", "commodity best plan"
    );
    println!("{}", "-".repeat(80));
    for spec in [ModelSpec::gpt2_xl(), ModelSpec::llama2_7b()] {
        let batch = spec.default_batch;
        for gpus in [8u32, 16, 32] {
            let placement = Placement::spread(gpus, 8, gpus * 12, gpus as f64 * 200.0);
            let a = oracle_a800
                .best_plan(&spec, batch, &placement)
                .map(|(p, _)| p.label())
                .unwrap_or_else(|| "-".into());
            let c = commodity
                .best_plan(&spec, batch, &placement)
                .map(|(p, _)| p.label())
                .unwrap_or_else(|| "-".into());
            println!("{:<12} | {gpus:>5} | {a:<26} | {c:<26}", spec.name);
        }
    }
    println!(
        "\nOn slow inter-node links, cross-node DP synchronization becomes the\n\
         bottleneck, shifting best plans toward GA (fewer syncs per sample)\n\
         and deeper in-node model parallelism — the environment constants\n\
         (B_intra/B_inter/B_pcie, Table 1) do real work in the model."
    );
}

fn main() {
    let oracle = std_oracle();
    println!("Rubick reproduction — design-choice ablations\n");
    threshold_sweep(&oracle);
    overlap_ablation(&oracle);
    backfill_sweep(&oracle);
    environment_shift(&oracle);
}
