//! Equivalence proofs for the allocation-free plan-search rewrite.
//!
//! Every optimized path — the lazy [`PlanEnumerator`], the
//! [`PlanSetCache`]-backed unchecked `best_plan`, the O(1)
//! `envelope_idx` curve lookups and the compiled Eq. (1) terms
//! ([`IterTerms`]) — must produce output *bit-identical* to the retained
//! naive reference in [`rubick_model::reference`]. These property tests
//! sweep the full seven-model zoo and 1..=16 GPUs so any divergence in
//! plan ordering, feasibility filtering, float scoring or envelope
//! bookkeeping fails loudly. The fits that evaluate Eq. (1) through the
//! compiled terms are pinned to the bits they produced with the naive
//! evaluation.

use proptest::prelude::*;
use rubick_model::fit::{fit_perf_params, refit_params, DataPoint, FitOptions};
use rubick_model::prelude::*;
use rubick_model::reference;

fn any_model() -> impl Strategy<Value = ModelSpec> {
    prop::sample::select(ModelSpec::zoo())
}

fn model_for(spec: ModelSpec) -> ThroughputModel {
    ThroughputModel::new(
        spec,
        PerfParams::default(),
        ClusterEnv::a800(),
        NodeShape::a800(),
    )
}

/// Any structurally valid plan: every parallel degree, memory mode, GA
/// and micro-batch count, with or without GC — feasibility is irrelevant
/// to the unchecked Eq. (1).
fn any_plan() -> impl Strategy<Value = ExecutionPlan> {
    (
        1u32..9,
        prop::sample::select(vec![1u32, 2, 4, 8]),
        prop::sample::select(vec![1u32, 2, 4]),
        prop::sample::select(vec![
            MemoryMode::Plain,
            MemoryMode::Zero2,
            MemoryMode::Zero3,
            MemoryMode::ZeroOffload,
        ]),
        prop::sample::select(vec![1u32, 2, 4, 8]),
        1u32..9,
        prop::bool::ANY,
    )
        .prop_map(
            |(d, t, p, memory, ga_steps, micro_batches, gc)| ExecutionPlan {
                parallel: Parallelism::new(d, t, p),
                memory,
                ga_steps,
                micro_batches,
                gc,
            },
        )
}

/// Single- and multi-node placements, including 0 CPUs (clamped to 1).
fn any_placement() -> impl Strategy<Value = Placement> {
    (
        prop::collection::vec(1u32..9, 1..4),
        0u32..200,
        1.0f64..3200.0,
    )
        .prop_map(|(gpus_per_node, cpus, host_mem_gb)| Placement {
            gpus_per_node,
            cpus,
            host_mem_gb,
        })
}

/// Parameters anywhere in the fit's search box.
fn any_params() -> impl Strategy<Value = PerfParams> {
    (
        0.5f64..5.0,
        1.0f64..32.0,
        1e-4f64..1.0,
        1e-3f64..100.0,
        1.0f64..32.0,
        1.0f64..32.0,
        0.0f64..1.0,
        1e13f64..3e14,
    )
        .prop_map(
            |(k_bwd, k_sync, k_opt, k_opt_off, k_off, k_swap, k_const, gpu_flops)| PerfParams {
                k_bwd,
                k_sync,
                k_opt,
                k_opt_off,
                k_off,
                k_swap,
                k_const,
                gpu_flops,
            },
        )
}

proptest! {
    /// Compiled Eq. (1) terms evaluate to the naive formula's exact bits,
    /// both directly and through `PerfParams::iter_time`.
    #[test]
    fn compiled_iter_time_matches_naive(
        spec in any_model(),
        plan in any_plan(),
        placement in any_placement(),
        params in any_params(),
        batch in prop::sample::select(vec![8u32, 16, 64, 256]),
    ) {
        let env = ClusterEnv::a800();
        let naive = reference::iter_time_naive(&params, &spec, &plan, batch, &placement, &env);
        let terms = IterTerms::new(&spec, &plan, batch, &placement, &env, params.gpu_flops);
        prop_assert_eq!(terms.iter_time(&params).to_bits(), naive.to_bits());
        prop_assert_eq!(
            params.iter_time(&spec, &plan, batch, &placement, &env).to_bits(),
            naive.to_bits()
        );
    }

    /// The lazy enumerator yields exactly the naive eager sequence: same
    /// plans, same order, nothing extra, nothing missing.
    #[test]
    fn enumerator_matches_naive(
        spec in any_model(),
        gpus in 0u32..17,
        batch in prop::sample::select(vec![8u32, 16, 64, 256]),
    ) {
        let shape = NodeShape::a800();
        let env = ClusterEnv::a800();
        let lazy: Vec<ExecutionPlan> =
            PlanEnumerator::new(&spec, gpus, batch, &shape, &env).collect();
        let naive = reference::enumerate_plans_naive(&spec, gpus, batch, &shape, &env);
        prop_assert_eq!(lazy, naive);
    }

    /// The cached + unchecked `best_plan` picks the same plan with the same
    /// throughput bits as the naive re-enumerate-and-recheck loop, on the
    /// packed placement the plan sets were built against.
    #[test]
    fn best_plan_matches_naive_on_packed(
        spec in any_model(),
        gpus in 1u32..17,
        batch in prop::sample::select(vec![8u32, 16, 64]),
    ) {
        let model = model_for(spec);
        let placement = Placement::packed(gpus, &model.shape);
        let cache = PlanSetCache::new();
        let fast = model.best_plan_in(&cache, batch, &placement);
        let naive = reference::best_plan_naive(&model, batch, &placement);
        prop_assert_eq!(
            fast.map(|(p, t)| (p, t.to_bits())),
            naive.map(|(p, t)| (p, t.to_bits()))
        );
        // A warm second call must be identical too (cache hit path).
        let warm = model.best_plan_in(&cache, batch, &placement);
        prop_assert_eq!(
            warm.map(|(p, t)| (p, t.to_bits())),
            fast.map(|(p, t)| (p, t.to_bits()))
        );
    }

    /// On a placement with *less* host memory than the packed one the fast
    /// path must re-apply the per-plan host-memory check and still agree
    /// with the naive checked loop exactly.
    #[test]
    fn best_plan_matches_naive_on_reduced_host(
        spec in any_model(),
        gpus in 1u32..17,
        frac in prop::sample::select(vec![0.0f64, 0.05, 0.25, 0.5, 0.9]),
    ) {
        let model = model_for(spec);
        let batch = 16u32;
        let mut placement = Placement::packed(gpus, &model.shape);
        placement.host_mem_gb *= frac;
        let fast = model.best_plan(batch, &placement);
        let naive = reference::best_plan_naive(&model, batch, &placement);
        prop_assert_eq!(
            fast.map(|(p, t)| (p, t.to_bits())),
            naive.map(|(p, t)| (p, t.to_bits()))
        );
    }

    /// GPU curves match the naive construction as full structs — including
    /// the precomputed `envelope_idx`, which the reference derives by the
    /// original per-query walk-back.
    #[test]
    fn gpu_curve_matches_naive(
        spec in any_model(),
        max_gpus in 1u32..17,
        batch in prop::sample::select(vec![16u32, 64]),
    ) {
        let model = model_for(spec);
        let fast = SensitivityCurve::for_gpus(&model, batch, max_gpus);
        let naive = reference::for_gpus_naive(&model, batch, max_gpus);
        prop_assert_eq!(&fast, &naive);
        // And the O(1) lookup agrees with walking the naive points.
        for amount in 0..=max_gpus {
            prop_assert_eq!(
                fast.best_plan_at(amount).map(|(p, t)| (p, t.to_bits())),
                naive.best_plan_at(amount).map(|(p, t)| (p, t.to_bits()))
            );
        }
    }

    /// CPU curves match the naive construction as full structs, proving the
    /// hoisted-placement loop changes nothing.
    #[test]
    fn cpu_curve_matches_naive(
        spec in any_model(),
        gpus in 1u32..9,
        max_cpus in 1u32..33,
    ) {
        let model = model_for(spec);
        let fast = SensitivityCurve::for_cpus(&model, 16, gpus, max_cpus);
        let naive = reference::for_cpus_naive(&model, 16, gpus, max_cpus);
        prop_assert_eq!(fast, naive);
    }
}

/// A fixed synthetic dataset: eight GPT-2 points (single- and multi-node,
/// GA, GC, ZeRO and ZeRO-Offload) with deterministic ±6 % noise.
fn pinned_dataset() -> (ModelSpec, ClusterEnv, Vec<DataPoint>) {
    let spec = ModelSpec::gpt2_xl();
    let env = ClusterEnv::a800();
    let shape = NodeShape::a800();
    let truth = PerfParams {
        k_bwd: 2.3,
        k_sync: 3.0,
        k_opt: 0.05,
        k_opt_off: 2.0,
        k_off: 1.8,
        k_swap: 2.5,
        k_const: 0.02,
        gpu_flops: 1.1e14,
    };
    let two_nodes = Placement {
        gpus_per_node: vec![8, 4],
        cpus: 96,
        host_mem_gb: 1200.0,
    };
    let configs = [
        (ExecutionPlan::dp(1), Placement::packed(1, &shape), 1.00),
        (
            ExecutionPlan::dp(4).with_ga(2),
            Placement::packed(4, &shape),
            1.04,
        ),
        (
            ExecutionPlan::zero_dp(8),
            Placement::packed(8, &shape),
            0.97,
        ),
        (
            ExecutionPlan::zero_dp(16),
            Placement::spread(16, 8, 192, 3200.0),
            1.02,
        ),
        (
            ExecutionPlan::zero_offload(1),
            Placement::single_node(1, 6, 400.0),
            0.95,
        ),
        (
            ExecutionPlan::zero_offload(2),
            Placement::packed(2, &shape),
            1.06,
        ),
        (
            ExecutionPlan::zero_offload(4).with_gc(),
            Placement::packed(4, &shape),
            0.99,
        ),
        (ExecutionPlan::dp(12), two_nodes, 1.03),
    ];
    let points = configs
        .into_iter()
        .map(|(plan, placement, noise)| {
            let t = reference::iter_time_naive(&truth, &spec, &plan, 64, &placement, &env) * noise;
            DataPoint::new(plan, placement, 64, t)
        })
        .collect();
    (spec, env, points)
}

fn bits(params: &PerfParams) -> [u64; 7] {
    params.to_vec().map(f64::to_bits)
}

/// `fit_perf_params` on the pinned dataset returns the exact parameters,
/// RMSLE and evaluation count it returned when every objective evaluation
/// rebuilt Eq. (1) from scratch.
#[test]
fn fit_perf_params_bits_are_pinned() {
    let (spec, env, points) = pinned_dataset();
    let opts = FitOptions {
        restarts: 3,
        max_iters: 200,
        gpu_flops: 1.1e14,
        ..FitOptions::default()
    };
    let fit = fit_perf_params(&spec, &env, &points, &opts).unwrap();
    assert_eq!(
        bits(&fit.params),
        [
            0x4002cae30940cfed,
            0x4004407cfb89e398,
            0x3fb1082e4365959f,
            0x3fca2f7a0194de3b,
            0x3ff1079f87cf3cbf,
            0x400b71d87ba2f197,
            0x3f85be2fd43ec36e,
        ]
    );
    assert_eq!(fit.rmsle.to_bits(), 0x3f91ff074dbac319);
    assert_eq!(fit.evaluations, 1007);
}

/// `refit_params` from a perturbed start on the pinned dataset returns
/// the exact parameters and RMSLE of the naive evaluation.
#[test]
fn refit_params_bits_are_pinned() {
    let (spec, env, points) = pinned_dataset();
    let start = PerfParams {
        k_bwd: 3.1,
        k_sync: 1.6,
        k_opt: 0.2,
        gpu_flops: 1.1e14,
        ..PerfParams::default()
    };
    let (params, err) = refit_params(&spec, &env, &start, &points, 8);
    assert_eq!(
        bits(&params),
        [
            0x4002ac4ee9a2b740,
            0x3ff3b764a3ead15d,
            0x3fb32a9cc30cedc2,
            0x3f50624dd2f1a9fc,
            0x403882e628e43b70,
            0x3ff0000000000000,
            0x0000000000000000,
        ]
    );
    assert_eq!(err.to_bits(), 0x3f93bd77d00e3920);
}
