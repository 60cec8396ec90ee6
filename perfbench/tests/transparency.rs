//! The benchmark's wrappers must be invisible to the engine, and its
//! simulations must be the ones `rubick run` performs.

use rubick_chaos::{ChaosConfig, FaultPlan};
use rubick_core::{ModelRegistry, RubickScheduler};
use rubick_model::{ModelSpec, NodeShape};
use rubick_obs::{EventSink, SimEvent};
use rubick_perfbench::serve_load::{script, submit_op};
use rubick_perfbench::spans::Recorder;
use rubick_perfbench::wrap::{TracedRefit, TracedScheduler, TracedSink};
use rubick_perfbench::{build_inputs, run_sim, Mode, Workload};
use rubick_refit::{RefitConfig, RegistryRefitter};
use rubick_sim::serve::ServeOp;
use rubick_sim::{Cluster, Engine, EngineConfig, Scheduler, SimReport};
use rubick_testbed::TestbedOracle;
use rubick_trace::{generate_base, TraceConfig};
use std::io;
use std::sync::Arc;

/// Records the serialized stream plus every non-event call it receives.
#[derive(Default)]
struct Probe {
    lines: Vec<String>,
    latencies: usize,
    flushes: usize,
}

impl EventSink for Probe {
    fn on_event(&mut self, event: &SimEvent) {
        self.lines.push(event.to_jsonl());
    }

    fn on_round_latency(&mut self, _nanos: u64) {
        self.latencies += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// One small chaotic, refitting, round-planned Rubick run; `wrapped`
/// routes the scheduler, the sink and the refit hook through the
/// benchmark's wrappers.
fn small_run(wrapped: bool) -> (Probe, SimReport) {
    let seed = 11;
    let oracle = TestbedOracle::new(seed);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    let config = TraceConfig {
        seed,
        base_jobs: 60,
        cluster_gpus: 32,
        ..TraceConfig::default()
    };
    let jobs = generate_base(&config, &oracle);
    let engine_config = EngineConfig {
        parallelism: Some(2),
        emit_round_planned: true,
        ..EngineConfig::default()
    };
    let chaos = ChaosConfig {
        seed,
        node_failure_rate_per_hour: 0.05,
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::compile(&chaos, 4, engine_config.max_time).unwrap();
    let rec = Recorder::shared();
    let policy: Box<dyn Scheduler> = Box::new(RubickScheduler::new(Arc::clone(&registry)));
    let refitter = RegistryRefitter::new(Arc::clone(&registry), RefitConfig::default());
    let (policy, hook): (Box<dyn Scheduler>, Box<dyn rubick_sim::RefitHook>) = if wrapped {
        (
            Box::new(TracedScheduler::new(policy, Arc::clone(&rec))),
            Box::new(TracedRefit::new(refitter, Arc::clone(&rec))),
        )
    } else {
        (policy, Box::new(refitter))
    };
    let cluster = Cluster::new(4, NodeShape::a800());
    let mut engine =
        Engine::new(&oracle, policy, cluster, Vec::new(), engine_config).with_chaos(plan);
    engine.set_refit_hook(hook);
    let mut probe = Probe::default();
    let report = if wrapped {
        let mut sink = TracedSink::new(&mut probe, Arc::clone(&rec));
        let report = engine.run_with_sink(jobs, &mut sink);
        sink.flush().unwrap();
        report
    } else {
        let report = engine.run_with_sink(jobs, &mut probe);
        probe.flush().unwrap();
        report
    };
    (probe, report)
}

#[test]
fn wrapped_run_emits_a_byte_identical_event_stream() {
    let (plain, plain_report) = small_run(false);
    let (wrapped, wrapped_report) = small_run(true);
    assert_eq!(plain.lines, wrapped.lines);
    assert_eq!(plain_report, wrapped_report);
    assert_eq!(plain.latencies, wrapped.latencies);
    assert_eq!((plain.flushes, wrapped.flushes), (1, 1));
    // The run exercised every forwarded seam: planned rounds need
    // `last_round_stats`, node faults `notify`, refits the hook.
    let has = |ty: &str| plain.lines.iter().any(|l| l.contains(ty));
    assert!(has("\"type\":\"round_planned\""));
    assert!(has("\"type\":\"node_failed\""));
    assert!(plain.latencies > 0);
}

#[test]
fn every_serve_op_of_the_trace_resolves() {
    for seed in [0, 100, 501] {
        let inputs = build_inputs(Workload::ServeRefit, seed).unwrap();
        for job in &inputs.jobs {
            let op = submit_op(job, &inputs.oracle);
            let spec = op.resolve().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(spec.global_batch, job.global_batch);
            assert_eq!(spec.target_batches, job.target_batches);
        }
        let ops = script(&inputs, seed);
        let cancels = ops
            .iter()
            .filter(|op| matches!(op, ServeOp::Cancel { .. }))
            .count();
        assert!(cancels > 0, "seed {seed}: no cancel in the script");
    }
}

/// Renders the report the way `rubick run --csv` does.
fn csv(report: &SimReport) -> String {
    let mut s = format!(
        "metric,value\nscheduler,{}\njobs,{}\nunfinished,{}\navg_jct_s,{:.1}\np99_jct_s,{:.1}\n",
        report.scheduler,
        report.jobs.len(),
        report.unfinished.len(),
        report.avg_jct(),
        report.p99_jct()
    );
    s += &format!(
        "makespan_s,{:.1}\ngpu_hours,{:.1}\nreconfig_share,{:.4}\nsla_attainment,{:.4}\n",
        report.makespan,
        report.gpu_hours(),
        report.reconfig_share(),
        report.sla_attainment()
    );
    s
}

#[test]
fn rubick_table4_matches_rubick_run() {
    let seed = Workload::sim_seed(0, 0);
    let scratch = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let mode = Mode::Run {
        traced: false,
        recover: false,
    };
    let sample = run_sim(Workload::RubickTable4, seed, mode, &scratch).unwrap();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let jobs = Workload::RubickTable4.jobs().to_string();
    let out = std::process::Command::new(env!("CARGO"))
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rubick-cli",
        ])
        .args(["--manifest-path", root, "--"])
        .args(["run", "--scheduler", "rubick", "--jobs", &jobs, "--csv"])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("running the rubick CLI");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap(), csv(&sample.report));
}
