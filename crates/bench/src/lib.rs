//! Shared helpers for the experiment regenerators (`src/bin/exp_*.rs`) and
//! the Criterion benches.
//!
//! One binary per model-level paper figure/table plus the ablations; the
//! cluster experiments (Table 4, Figs. 10–11) are `rubick sweep` specs
//! under `examples/sweeps/`. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

use rubick_testbed::TestbedOracle;

/// The standard oracle seed used by every experiment (deterministic runs).
pub const EXPERIMENT_SEED: u64 = 2025;

/// The standard testbed for all experiments: 8×8 A800, seed 2025.
pub fn std_oracle() -> TestbedOracle {
    TestbedOracle::new(EXPERIMENT_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_oracle_is_deterministic() {
        assert_eq!(std_oracle().seed(), EXPERIMENT_SEED);
    }
}
