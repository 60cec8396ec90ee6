//! Shared fitted performance models per model type.
//!
//! Rubick fits one performance model per *model type* and reuses it across
//! all jobs of that type and across reconfigurations (§3). The registry is
//! the policy-side store of those models, together with the sensitivity
//! curve cache of §5.2.

use parking_lot::{Mutex, RwLock};
use rubick_model::fit::{DataPoint, FitOptions, OnlineFitter};
use rubick_model::prelude::*;
use rubick_testbed::{profile_and_fit, TestbedOracle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Fitted models per model type, plus shared sensitivity-curve cache.
///
/// ```
/// use rubick_core::ModelRegistry;
/// use rubick_model::ModelSpec;
/// use rubick_testbed::TestbedOracle;
///
/// # fn main() -> Result<(), rubick_model::ModelError> {
/// let oracle = TestbedOracle::new(0);
/// let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()])?;
/// assert!(registry.model("roberta-355m").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ThroughputModel>>>,
    curves: CurveCache,
    /// Continuous model fitting (§4.3): one online fitter per model type,
    /// fed with observations from live training runs.
    fitters: Mutex<HashMap<String, OnlineFitter>>,
    refits: AtomicUsize,
    /// Monotone counter bumped on every model insert/replace; schedulers
    /// key cached per-job state by it to detect that *any* fitted model
    /// (and hence any sensitivity curve or loss slope) may have changed.
    version: AtomicU64,
    env: ClusterEnv,
    shape: NodeShape,
    /// Total simulated profiling wall-clock spent building this registry,
    /// seconds (§7.3 reports ~210 s per model).
    pub profiling_seconds: f64,
}

impl ModelRegistry {
    /// An empty registry for a given environment.
    pub fn new(env: ClusterEnv, shape: NodeShape) -> Self {
        ModelRegistry {
            models: RwLock::new(HashMap::new()),
            curves: CurveCache::new(),
            fitters: Mutex::new(HashMap::new()),
            refits: AtomicUsize::new(0),
            version: AtomicU64::new(0),
            env,
            shape,
            profiling_seconds: 0.0,
        }
    }

    /// Profiles and fits every listed model type against the testbed —
    /// phase ① of the scheduling workflow (Fig. 4).
    ///
    /// # Errors
    ///
    /// Propagates profiling/fitting failures (e.g. a model with no feasible
    /// plan anywhere).
    pub fn from_oracle(oracle: &TestbedOracle, specs: &[ModelSpec]) -> Result<Self, ModelError> {
        let mut registry = ModelRegistry::new(*oracle.env(), *oracle.shape());
        for spec in specs {
            let (model, report) = profile_and_fit(oracle, spec, spec.default_batch)?;
            registry.profiling_seconds += report.wall_seconds;
            // Seed the online fitter with the profiled samples so later
            // observations extend (rather than replace) them.
            let opts = FitOptions {
                gpu_flops: report.gpu_flops,
                min_points: report.points.len().min(7),
                // Online refits run inside scheduling rounds: fewer
                // restarts keep them cheap (the initial profile-time fit
                // already found the right basin).
                restarts: 4,
                ..FitOptions::default()
            };
            if let Ok(fitter) = OnlineFitter::new(spec.clone(), *oracle.env(), report.points, opts)
            {
                registry.fitters.lock().insert(spec.name.clone(), fitter);
            }
            registry
                .models
                .write()
                .insert(spec.name.clone(), Arc::new(model));
        }
        Ok(registry)
    }

    /// Feeds a live throughput observation into the model type's online
    /// fitter (§4.3 "continuous model fitting"). If the current model's
    /// prediction error exceeds the refit threshold, the model is refit,
    /// swapped in, and its cached sensitivity curves invalidated. Returns
    /// `true` when a refit happened.
    ///
    /// Accurate observations are skipped cheaply (no point is recorded), so
    /// calling this every scheduling round for every running job is fine.
    pub fn observe(
        &self,
        model_name: &str,
        plan: &rubick_model::ExecutionPlan,
        placement: &Placement,
        global_batch: u32,
        observed_iter_time: f64,
    ) -> bool {
        if !(observed_iter_time.is_finite() && observed_iter_time > 0.0) {
            return false;
        }
        let mut fitters = self.fitters.lock();
        let Some(fitter) = fitters.get_mut(model_name) else {
            return false;
        };
        let point = DataPoint::new(*plan, placement.clone(), global_batch, observed_iter_time);
        let rel_err = fitter.prediction_error(&point);
        if rel_err <= fitter.refit_threshold {
            return false;
        }
        if fitter.observe_scored(point, rel_err) {
            let params = *fitter.params();
            drop(fitters);
            let Some(old) = self.model(model_name) else {
                return false;
            };
            self.insert(ThroughputModel::new(
                old.spec.clone(),
                params,
                self.env,
                self.shape,
            ));
            self.refits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Number of online refits performed so far.
    pub fn refit_count(&self) -> usize {
        self.refits.load(Ordering::Relaxed)
    }

    /// On-demand profiling (phase ① of Fig. 4): profiles and fits a model
    /// type the first time a job of that type appears, returning the
    /// simulated profiling wall-clock (~210 s). Returns `None` when the
    /// type is already known (no cost) or profiling fails (no feasible
    /// plan anywhere).
    pub fn profile_on_demand(&self, oracle: &TestbedOracle, spec: &ModelSpec) -> Option<f64> {
        if self.models.read().contains_key(&spec.name) {
            return None;
        }
        let (model, report) = profile_and_fit(oracle, spec, spec.default_batch).ok()?;
        let opts = FitOptions {
            gpu_flops: report.gpu_flops,
            min_points: report.points.len().min(7),
            restarts: 4,
            ..FitOptions::default()
        };
        if let Ok(fitter) = OnlineFitter::new(spec.clone(), self.env, report.points, opts) {
            self.fitters.lock().insert(spec.name.clone(), fitter);
        }
        self.insert(model);
        Some(report.wall_seconds)
    }

    /// Inserts or replaces a fitted model.
    pub fn insert(&self, model: ThroughputModel) {
        let name = model.spec.name.clone();
        self.curves.invalidate_model(&name);
        self.models.write().insert(name, Arc::new(model));
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The registry's model-content version: bumped on every
    /// [`ModelRegistry::insert`] (initial profiling, on-demand profiling
    /// and online refits alike). Two reads returning the same value
    /// guarantee every fitted model — and every curve derived from one —
    /// is unchanged between them.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A deep, independent copy of the fitted state: models and online
    /// fitters are cloned, the curve cache starts empty (it refills
    /// deterministically on demand) and the refit counter resets.
    ///
    /// This is how `compare` shares one profiling pass across scheduler
    /// threads: profile the zoo once, then hand each thread its own
    /// registry so online refits stay isolated per scheduler.
    pub fn clone_fitted(&self) -> Self {
        ModelRegistry {
            models: RwLock::new(self.models.read().clone()),
            curves: CurveCache::new(),
            fitters: Mutex::new(self.fitters.lock().clone()),
            refits: AtomicUsize::new(0),
            version: AtomicU64::new(self.version.load(Ordering::Acquire)),
            env: self.env,
            shape: self.shape,
            profiling_seconds: self.profiling_seconds,
        }
    }

    /// Looks up the fitted model for a model type.
    pub fn model(&self, name: &str) -> Option<Arc<ThroughputModel>> {
        self.models.read().get(name).cloned()
    }

    /// Registered model-type names (sorted for determinism).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.models.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// The cluster environment models were fitted in.
    pub fn env(&self) -> &ClusterEnv {
        &self.env
    }

    /// The node shape of the cluster.
    pub fn shape(&self) -> &NodeShape {
        &self.shape
    }

    /// Cached GPU sensitivity curve for a model type (full plan search).
    ///
    /// Returns `None` when the model type was never registered.
    pub fn gpu_curve(
        &self,
        name: &str,
        global_batch: u32,
        max_gpus: u32,
    ) -> Option<Arc<SensitivityCurve>> {
        let model = self.model(name)?;
        Some(self.curves.gpu_curve(&model, global_batch, max_gpus))
    }

    /// Cached CPU sensitivity curve for a model type at a fixed GPU count.
    pub fn cpu_curve(
        &self,
        name: &str,
        global_batch: u32,
        gpus: u32,
        max_cpus: u32,
    ) -> Option<Arc<SensitivityCurve>> {
        let model = self.model(name)?;
        Some(self.curves.cpu_curve(&model, global_batch, gpus, max_cpus))
    }

    /// Pre-computes all GPU curves in parallel (the "prior to scheduling"
    /// optimization of §5.2).
    pub fn warm_curves(&self, max_gpus: u32, batch_of: impl Fn(&ModelSpec) -> u32 + Sync) {
        let models: Vec<ThroughputModel> =
            self.models.read().values().map(|m| (**m).clone()).collect();
        self.curves
            .precompute_gpu_curves(&models, |m| batch_of(&m.spec), max_gpus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_serves_curves() {
        let oracle = TestbedOracle::new(5);
        let registry =
            ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base(), ModelSpec::bert_large()])
                .unwrap();
        assert_eq!(registry.names(), vec!["bert-336m", "vit-86m"]);
        assert!(registry.profiling_seconds >= 2.0 * 210.0);
        let curve = registry.gpu_curve("vit-86m", 128, 8).unwrap();
        assert!(curve.value(8) > curve.value(1));
        assert!(registry.gpu_curve("unknown", 16, 8).is_none());
    }

    #[test]
    fn insert_replaces_and_invalidates() {
        let oracle = TestbedOracle::new(5);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base()]).unwrap();
        let _ = registry.gpu_curve("vit-86m", 128, 8).unwrap();
        let replacement = ThroughputModel::new(
            ModelSpec::vit_base(),
            PerfParams::default(),
            *oracle.env(),
            *oracle.shape(),
        );
        registry.insert(replacement);
        // Fresh curve is served from the new model (no stale cache entry).
        let again = registry.gpu_curve("vit-86m", 128, 8).unwrap();
        assert!(again.value(8) > 0.0);
    }

    #[test]
    fn version_bumps_on_insert_and_clone_is_independent() {
        let oracle = TestbedOracle::new(5);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base()]).unwrap();
        let v0 = registry.version();
        let snapshot = registry.clone_fitted();
        assert_eq!(snapshot.version(), v0);
        assert_eq!(snapshot.names(), registry.names());
        assert_eq!(snapshot.profiling_seconds, registry.profiling_seconds);
        registry.insert(ThroughputModel::new(
            ModelSpec::vit_base(),
            PerfParams::default(),
            *oracle.env(),
            *oracle.shape(),
        ));
        assert_eq!(registry.version(), v0 + 1);
        // The clone is unaffected by the original's mutation, and serves
        // curves from its own (empty, refilled-on-demand) cache.
        assert_eq!(snapshot.version(), v0);
        assert!(snapshot.gpu_curve("vit-86m", 128, 8).unwrap().value(8) > 0.0);
        assert_eq!(snapshot.refit_count(), 0);
    }
}

#[cfg(test)]
mod online_tests {
    use super::*;

    #[test]
    fn observe_refits_on_drifted_measurements() {
        let oracle = TestbedOracle::new(17);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()]).unwrap();
        let model = registry.model("roberta-355m").unwrap();
        let plan = rubick_model::ExecutionPlan::dp(2);
        let placement = Placement::packed(2, registry.shape());
        let predicted = model.throughput(&plan, 64, &placement).unwrap();
        // Feed an observation 2x slower than predicted: must refit.
        let slow_iter = 2.0 * 64.0 / predicted;
        assert!(registry.observe("roberta-355m", &plan, &placement, 64, slow_iter));
        assert_eq!(registry.refit_count(), 1);
        // The same configuration observed again carries no new information.
        assert!(!registry.observe("roberta-355m", &plan, &placement, 64, slow_iter));
        assert_eq!(registry.refit_count(), 1);
    }

    #[test]
    fn observe_skips_accurate_measurements_and_unknown_models() {
        let oracle = TestbedOracle::new(17);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()]).unwrap();
        let model = registry.model("roberta-355m").unwrap();
        let plan = rubick_model::ExecutionPlan::dp(4);
        let placement = Placement::packed(4, registry.shape());
        let predicted = model.throughput(&plan, 64, &placement).unwrap();
        assert!(!registry.observe("roberta-355m", &plan, &placement, 64, 64.0 / predicted));
        assert!(!registry.observe("unknown-model", &plan, &placement, 64, 1.0));
        assert!(!registry.observe("roberta-355m", &plan, &placement, 64, f64::NAN));
        assert_eq!(registry.refit_count(), 0);
    }
}
