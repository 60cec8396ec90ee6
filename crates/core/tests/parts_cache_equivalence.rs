//! Equivalence suite for the Rubick policy's per-job context cache.
//!
//! A `RubickScheduler` keeps each job's plan-search mode, sensitivity
//! curve, SLA baseline and minimum demand across rounds. The cache must be
//! invisible: a long-lived scheduler has to decide exactly like one that
//! is rebuilt (empty cache) before every round, for any job mix, and a
//! whole simulation — including scripted node failures and the
//! Rubick-R/N ablations, whose DP-scale/fixed-plan curves bypass the
//! registry's curve cache — must produce a byte-identical [`SimReport`]
//! and event stream.
//!
//! The two schedulers run over *mirrored* registries (equal-seed oracles),
//! so online refits cannot leak between them.

use proptest::prelude::*;
use rubick_chaos::{ChaosConfig, FaultPlan};
use rubick_core::{rubick_n, rubick_r, ModelRegistry, RubickConfig, RubickScheduler};
use rubick_model::prelude::*;
use rubick_obs::VecSink;
use rubick_sim::cluster::Cluster;
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::job::{JobClass, JobSpec, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
use rubick_sim::tenant::{Tenant, TenantId};
use rubick_sim::SimReport;
use rubick_testbed::TestbedOracle;
use std::sync::{Arc, OnceLock};

const ORACLE_SEED: u64 = 77;

/// A Rubick policy with no memory between rounds: every round plans
/// through a freshly built scheduler, so no cached part survives.
struct Rebuilt {
    registry: Arc<ModelRegistry>,
    config: RubickConfig,
}

impl Rebuilt {
    fn like(registry: Arc<ModelRegistry>, template: &RubickScheduler) -> Self {
        Rebuilt {
            registry,
            config: template.config().clone(),
        }
    }
}

impl Scheduler for Rebuilt {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn set_parallelism(&mut self, parallelism: Option<usize>) {
        self.config.parallelism = parallelism;
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        tenants: &[Tenant],
    ) -> Vec<Assignment> {
        RubickScheduler::with_config(Arc::clone(&self.registry), self.config.clone())
            .schedule(now, jobs, cluster, tenants)
    }
}

/// A pair of independently built but identical registries (see
/// `parallel_equivalence.rs` for why sharing one would mask divergence).
fn registries() -> (Arc<ModelRegistry>, Arc<ModelRegistry>) {
    static REGS: OnceLock<(Arc<ModelRegistry>, Arc<ModelRegistry>)> = OnceLock::new();
    let (a, b) = REGS.get_or_init(|| (fresh_registry(ORACLE_SEED), fresh_registry(ORACLE_SEED)));
    (Arc::clone(a), Arc::clone(b))
}

fn fresh_registry(seed: u64) -> Arc<ModelRegistry> {
    let oracle = TestbedOracle::new(seed);
    Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap())
}

fn job_snapshot(
    id: u64,
    model: ModelSpec,
    gpus: u32,
    class: JobClass,
    queued_since: f64,
) -> Option<JobSnapshot> {
    let plan = enumerate_plans(
        &model,
        gpus,
        model.default_batch,
        &NodeShape::a800(),
        &ClusterEnv::a800(),
    )
    .into_iter()
    .next()?;
    Some(JobSnapshot {
        spec: Arc::new(JobSpec {
            id,
            global_batch: model.default_batch,
            submit_time: queued_since,
            target_batches: 1000,
            requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
            initial_plan: plan,
            class,
            tenant: if class == JobClass::Guaranteed {
                TenantId::new("tenant-a")
            } else {
                TenantId::new("tenant-b")
            },
            model,
        }),
        status: JobStatus::Queued,
        remaining_batches: 1000.0,
        queued_since,
        runtime: 0.0,
        reconfig_count: 0,
        baseline_throughput: None,
    })
}

/// Arbitrary queued job mixes (same shape as the parallelism suite).
fn any_jobs() -> impl Strategy<Value = Vec<JobSnapshot>> {
    prop::collection::vec((0usize..7, 0u32..3, prop::bool::ANY, 0.0f64..1000.0), 1..36).prop_map(
        |raw| {
            let zoo = ModelSpec::zoo();
            raw.into_iter()
                .enumerate()
                .filter_map(|(i, (m, gp, guaranteed, since))| {
                    let model = zoo[m].clone();
                    let gpus = (1u32 << gp).max(if model.params >= 2.0e10 {
                        16
                    } else if model.params >= 5.0e9 {
                        8
                    } else {
                        1
                    });
                    job_snapshot(
                        i as u64,
                        model,
                        gpus,
                        if guaranteed {
                            JobClass::Guaranteed
                        } else {
                            JobClass::BestEffort
                        },
                        since,
                    )
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Two consecutive rounds over the same snapshot, any job mix: the
    /// second round of the long-lived scheduler is served from the cache
    /// and must match a scheduler that rebuilds every part.
    #[test]
    fn repeated_rounds_match_a_rebuilt_scheduler(jobs in any_jobs()) {
        let (reg_cached, reg_rebuilt) = registries();
        let cluster = Cluster::a800_testbed();
        let tenants = Tenant::paper_mt_pair();
        let mut cached = RubickScheduler::new(reg_cached);
        let mut rebuilt = Rebuilt::like(reg_rebuilt, &cached);
        for round in 0..2 {
            let a = cached.schedule(2000.0, &jobs, &cluster, &tenants);
            let b = rebuilt.schedule(2000.0, &jobs, &cluster, &tenants);
            prop_assert_eq!(
                &a, &b,
                "assignments diverge in round {} over {} jobs",
                round, jobs.len()
            );
        }
    }
}

fn chaos_trace() -> Vec<JobSpec> {
    let oracle = TestbedOracle::new(2025);
    rubick_trace::generate_base(
        &rubick_trace::TraceConfig {
            base_jobs: 10,
            duration_hours: 1.0,
            ..rubick_trace::TraceConfig::default()
        },
        &oracle,
    )
}

/// Runs the chaos trace under `scenario` through `scheduler` and returns
/// the report plus the JSONL event stream.
fn simulate(scheduler: Box<dyn Scheduler>, scenario: &str) -> (SimReport, Vec<String>) {
    let oracle = TestbedOracle::new(2025);
    let cfg = ChaosConfig::parse(scenario).unwrap();
    let plan = FaultPlan::compile(&cfg, 8, EngineConfig::default().max_time).unwrap();
    let mut engine = Engine::new(
        &oracle,
        scheduler,
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    )
    .with_chaos(plan);
    let mut sink = VecSink::default();
    let report = engine.run_with_sink(chaos_trace(), &mut sink);
    let stream = sink.events.iter().map(|e| e.to_jsonl()).collect();
    (report, stream)
}

/// Simulates `scenario` with a long-lived scheduler built by `make` and
/// with its rebuilt-every-round twin, and asserts identical bytes.
fn assert_cache_invisible(make: fn(Arc<ModelRegistry>) -> RubickScheduler, scenario: &str) {
    let cached = make(fresh_registry(2025));
    let rebuilt = Rebuilt::like(fresh_registry(2025), &cached);
    let name = cached.config().name.clone();
    let (report_a, stream_a) = simulate(Box::new(cached), scenario);
    let (report_b, stream_b) = simulate(Box::new(rebuilt), scenario);
    assert!(!report_a.jobs.is_empty(), "{name}: nothing finished");
    assert_eq!(report_a, report_b, "{name}: SimReport diverges");
    assert_eq!(stream_a, stream_b, "{name}: event stream diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scripted NodeDown/NodeUp chaos: a node failure changes the total
    /// schedulable GPUs, which must clear the cache exactly as a rebuild
    /// would.
    #[test]
    fn chaos_simulation_matches_a_rebuilt_scheduler(
        fail_at in 1_000u64..4_000,
        recover_at in 6_000u64..11_000,
        node in 1usize..4,
    ) {
        let scenario = format!(
            "restart-penalty-secs 90\nfail {node} {fail_at}\nrecover {node} {recover_at}\n"
        );
        assert_cache_invisible(RubickScheduler::new, &scenario);
    }
}

/// Rubick-R (DP rescaling) and Rubick-N (fixed plans) build their curves
/// outside the registry's curve cache, so they lean on the parts cache
/// hardest.
#[test]
fn ablation_simulations_match_a_rebuilt_scheduler() {
    let scenario = "restart-penalty-secs 90\nfail 2 2000\nrecover 2 8000\n";
    assert_cache_invisible(rubick_r, scenario);
    assert_cache_invisible(rubick_n, scenario);
}
