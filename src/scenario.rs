//! From a scheduler name and a [`ScenarioSpec`] to the policy, refit hook
//! and workload the harness runs.
//!
//! [`ZooBackend`] is the workspace's one [`ScenarioBackend`]: the CLI's
//! `run`, `compare`, `sweep` and `serve` and the sweep test tier all build
//! their engines through it, and [`SCHEDULER_NAMES`] is the one list of
//! the names it accepts.
//!
//! ```no_run
//! use rubick::scenario::ZooBackend;
//! use rubick::sim::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec {
//!     scheduler: "sia".to_string(),
//!     jobs: 20,
//!     ..ScenarioSpec::default()
//! };
//! let backend = ZooBackend::prepare([spec.seed]).expect("the zoo profiles");
//! let outcome = run_scenario(&spec, &backend).expect("the scenario runs");
//! assert_eq!(outcome.report.scheduler, "sia");
//! ```

use rubick_core::{
    rubick_e, rubick_n, rubick_r, AntManScheduler, EqualShareScheduler, ModelRegistry,
    RubickScheduler, SiaScheduler, SynergyScheduler,
};
use rubick_model::{ModelError, ModelSpec};
use rubick_refit::{RefitConfig, RegistryRefitter};
use rubick_sim::{
    JobSpec, RefitHook, ScenarioBackend, ScenarioSpec, Scheduler, SchedulerWithRefit, Tenant,
    TraceKind,
};
use rubick_testbed::TestbedOracle;
use rubick_trace::{
    best_plan_trace, generate_base, multi_tenant_trace, with_large_model_fraction, TraceConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every scheduler name [`scheduler_by_name`] accepts, in the canonical
/// listing order.
pub const SCHEDULER_NAMES: [&str; 8] = [
    "rubick", "rubick-e", "rubick-r", "rubick-n", "sia", "synergy", "antman", "equal",
];

/// Checks `name` against [`SCHEDULER_NAMES`], so callers can reject a typo
/// before the (slow) zoo profiling.
///
/// # Errors
///
/// `unknown scheduler '<name>' (rubick|rubick-e|...)`.
pub fn check_scheduler(name: &str) -> Result<(), String> {
    if SCHEDULER_NAMES.contains(&name) {
        Ok(())
    } else {
        Err(unknown_scheduler(name))
    }
}

fn unknown_scheduler(name: &str) -> String {
    format!("unknown scheduler '{name}' ({})", SCHEDULER_NAMES.join("|"))
}

/// Instantiates a scheduler by name over `registry`.
///
/// # Errors
///
/// The [`check_scheduler`] message for a name outside [`SCHEDULER_NAMES`].
pub fn scheduler_by_name(
    name: &str,
    registry: &Arc<ModelRegistry>,
) -> Result<Box<dyn Scheduler>, String> {
    let registry = Arc::clone(registry);
    Ok(match name {
        "rubick" => Box::new(RubickScheduler::new(registry)),
        "rubick-e" => Box::new(rubick_e(registry)),
        "rubick-r" => Box::new(rubick_r(registry)),
        "rubick-n" => Box::new(rubick_n(registry)),
        "sia" => Box::new(SiaScheduler::new(registry)),
        "synergy" => Box::new(SynergyScheduler::new(registry)),
        "antman" => Box::new(AntManScheduler::new()),
        "equal" => Box::new(EqualShareScheduler::new(registry)),
        other => return Err(unknown_scheduler(other)),
    })
}

/// Profiles the full model zoo against `oracle`.
///
/// # Errors
///
/// Forwards profiling failures from [`ModelRegistry::from_oracle`].
pub fn build_registry(oracle: &TestbedOracle) -> Result<Arc<ModelRegistry>, ModelError> {
    Ok(Arc::new(ModelRegistry::from_oracle(
        oracle,
        &ModelSpec::zoo(),
    )?))
}

/// A [`ScenarioBackend`] over the real policies (`rubick-core`) and
/// traces (`rubick-trace`).
///
/// The model zoo is profiled **once per distinct oracle seed** in
/// [`ZooBackend::prepare`]; each scheduler construction then deep-copies
/// its registry via [`ModelRegistry::clone_fitted`], so online refit
/// state cannot leak between cells or policies while the (slow)
/// profiling pass is never repeated.
pub struct ZooBackend {
    registries: BTreeMap<u64, Arc<ModelRegistry>>,
}

impl ZooBackend {
    /// Profiles the model zoo for every distinct seed in `seeds`.
    ///
    /// # Errors
    ///
    /// Forwards profiling failures from [`ModelRegistry::from_oracle`].
    pub fn prepare<I: IntoIterator<Item = u64>>(seeds: I) -> Result<ZooBackend, ModelError> {
        let mut registries = BTreeMap::new();
        for seed in seeds {
            if let std::collections::btree_map::Entry::Vacant(slot) = registries.entry(seed) {
                slot.insert(build_registry(&TestbedOracle::new(seed))?);
            }
        }
        Ok(ZooBackend { registries })
    }
}

impl ScenarioBackend for ZooBackend {
    fn scheduler(&self, spec: &ScenarioSpec) -> Result<SchedulerWithRefit, String> {
        let profiled = self
            .registries
            .get(&spec.seed)
            .ok_or_else(|| format!("no profiled registry for seed {}", spec.seed))?;
        // One deep copy shared by the scheduler and the refitter: a
        // material refit bumps the copy's version, which the scheduler's
        // epoch path sees next round — without ever touching the pristine
        // profiled registry other cells clone from.
        let registry = Arc::new(profiled.clone_fitted());
        let scheduler = scheduler_by_name(&spec.scheduler, &registry)?;
        let hook = spec.refit.map(|threshold| {
            Box::new(RegistryRefitter::new(
                registry,
                RefitConfig::with_threshold(threshold),
            )) as Box<dyn RefitHook>
        });
        Ok((scheduler, hook))
    }

    fn workload(
        &self,
        spec: &ScenarioSpec,
        oracle: &TestbedOracle,
    ) -> Result<(Vec<JobSpec>, Vec<Tenant>), String> {
        let config = TraceConfig {
            seed: spec.seed,
            base_jobs: spec.jobs,
            load_factor: spec.load,
            duration_hours: spec.duration_hours,
            cluster_gpus: spec.cluster().total_capacity().gpus,
            ..TraceConfig::default()
        };
        let (mut jobs, tenants) = match spec.trace {
            TraceKind::Base => (generate_base(&config, oracle), vec![]),
            TraceKind::Bp => (best_plan_trace(&config, oracle), vec![]),
            TraceKind::Mt => multi_tenant_trace(&config, oracle),
        };
        if let Some(frac) = spec.large_frac {
            jobs = with_large_model_fraction(&config, oracle, frac);
        }
        Ok((jobs, tenants))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scheduler_message_lists_every_name() {
        let err = check_scheduler("dragon").unwrap_err();
        assert!(err.starts_with("unknown scheduler 'dragon' ("), "{err}");
        for name in SCHEDULER_NAMES {
            assert!(check_scheduler(name).is_ok());
            assert!(err.contains(name), "{err} should list {name}");
        }
    }
}
