//! Criterion benches for scheduling-round latency: the Rubick policy must
//! be cheap enough to run on every job submission/completion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rubick_core::{
    rubick_e, rubick_n, rubick_r, AntManScheduler, ModelRegistry, RubickScheduler, SiaScheduler,
    SynergyScheduler,
};
use rubick_model::{ExecutionPlan, ModelSpec, NodeShape, Resources};
use rubick_sim::cluster::Cluster;
use rubick_sim::job::{JobClass, JobSpec, JobStatus};
use rubick_sim::scheduler::{JobSnapshot, Scheduler};
use rubick_sim::tenant::TenantId;
use rubick_testbed::TestbedOracle;
use std::hint::black_box;
use std::sync::Arc;

fn snapshots(n: usize) -> Vec<JobSnapshot> {
    let models = [
        ModelSpec::roberta_large(),
        ModelSpec::bert_large(),
        ModelSpec::gpt2_xl(),
        ModelSpec::t5_1b(),
    ];
    (0..n)
        .map(|i| {
            let model = models[i % models.len()].clone();
            let gpus = [1u32, 2, 4, 8][i % 4];
            JobSnapshot {
                spec: Arc::new(JobSpec {
                    id: i as u64,
                    global_batch: model.default_batch,
                    submit_time: 0.0,
                    target_batches: 1000,
                    requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
                    initial_plan: ExecutionPlan::dp(gpus),
                    class: JobClass::Guaranteed,
                    tenant: TenantId::default(),
                    model,
                }),
                status: JobStatus::Queued,
                remaining_batches: 1000.0,
                queued_since: 0.0,
                runtime: 0.0,
                reconfig_count: 0,
                baseline_throughput: Some(100.0),
            }
        })
        .collect()
}

fn bench_round(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = Arc::new(
        ModelRegistry::from_oracle(
            &oracle,
            &[
                ModelSpec::roberta_large(),
                ModelSpec::bert_large(),
                ModelSpec::gpt2_xl(),
                ModelSpec::t5_1b(),
            ],
        )
        .unwrap(),
    );
    // Warm the curve cache once (as the scheduler does in production).
    registry.warm_curves(64, |s| s.default_batch);

    let mut group = c.benchmark_group("policy/rubick_round");
    group.sample_size(10);
    for jobs in [8usize, 32, 64] {
        let snaps = snapshots(jobs);
        let cluster = Cluster::new(8, NodeShape::a800());
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, _| {
            let mut sched = RubickScheduler::new(Arc::clone(&registry));
            b.iter(|| black_box(sched.schedule(0.0, &snaps, &cluster, &[])))
        });
    }
    group.finish();
}

/// Sequential vs parallel round latency at increasing job counts. The
/// parallel rows use `parallelism = auto` (all cores); on a single-core
/// runner they measure the thread-pool overhead instead of a speedup, so
/// interpret the ratio together with the host's core count.
fn bench_parallel_round(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = Arc::new(
        ModelRegistry::from_oracle(
            &oracle,
            &[
                ModelSpec::roberta_large(),
                ModelSpec::bert_large(),
                ModelSpec::gpt2_xl(),
                ModelSpec::t5_1b(),
            ],
        )
        .unwrap(),
    );
    registry.warm_curves(64, |s| s.default_batch);

    let mut group = c.benchmark_group("policy/parallel_round");
    group.sample_size(10);
    for jobs in [64usize, 256, 1024] {
        let snaps = snapshots(jobs);
        let cluster = Cluster::new(8, NodeShape::a800());
        for (mode, parallelism) in [("seq", None), ("par", Some(0))] {
            group.bench_with_input(BenchmarkId::new(mode, jobs), &jobs, |b, _| {
                let mut sched = RubickScheduler::new(Arc::clone(&registry));
                sched.set_parallelism(parallelism);
                b.iter(|| black_box(sched.schedule(0.0, &snaps, &cluster, &[])))
            });
        }
    }
    group.finish();
}

fn bench_all_policies(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = Arc::new(
        ModelRegistry::from_oracle(
            &oracle,
            &[
                ModelSpec::roberta_large(),
                ModelSpec::bert_large(),
                ModelSpec::gpt2_xl(),
                ModelSpec::t5_1b(),
            ],
        )
        .unwrap(),
    );
    registry.warm_curves(64, |s| s.default_batch);
    let snaps = snapshots(32);
    let cluster = Cluster::new(8, NodeShape::a800());

    let mut group = c.benchmark_group("policy/round_32_jobs");
    group.sample_size(10);
    let mut policies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RubickScheduler::new(Arc::clone(&registry))),
        Box::new(rubick_e(Arc::clone(&registry))),
        Box::new(rubick_r(Arc::clone(&registry))),
        Box::new(rubick_n(Arc::clone(&registry))),
        Box::new(SiaScheduler::new(Arc::clone(&registry))),
        Box::new(SynergyScheduler::new(Arc::clone(&registry))),
        Box::new(AntManScheduler::new()),
    ];
    for policy in policies.iter_mut() {
        let name = policy.name().to_string();
        group.bench_function(&name, |b| {
            b.iter(|| black_box(policy.schedule(0.0, &snaps, &cluster, &[])))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round,
    bench_parallel_round,
    bench_all_policies
);
criterion_main!(benches);
