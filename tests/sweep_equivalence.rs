//! Property suite for the sweep executor: worker-thread count and cell
//! execution order are pure performance knobs. For any worker count and
//! any permutation of the cell list — chaos-enabled cells included —
//! every cell's rendered row must be byte-identical to the sequential
//! reference, and outcomes must come back in submission order. Cells with
//! online refitting on obey the same contract.

mod sweep_support;

use proptest::prelude::*;
use rubick::scenario::ZooBackend;
use rubick_sim::harness::grid::SweepSpec;
use rubick_sim::harness::sweep::{csv_row, render_csv, run_cells};
use rubick_sim::{ScenarioOutcome, ScenarioSpec};
use std::sync::OnceLock;
use sweep_support::{backend_for, smoke_spec};

/// The smoke grid's cells, the shared backend, and the sequential
/// reference outcomes — computed once; every property case compares
/// against this.
fn reference() -> &'static (Vec<ScenarioSpec>, ZooBackend, Vec<ScenarioOutcome>) {
    static REF: OnceLock<(Vec<ScenarioSpec>, ZooBackend, Vec<ScenarioOutcome>)> = OnceLock::new();
    REF.get_or_init(|| {
        let cells = smoke_spec().expand().expect("smoke grid expands");
        assert!(
            cells.iter().any(|c| c.chaos.is_some()),
            "the property must cover chaos-enabled cells"
        );
        let backend = backend_for(&cells);
        let outcomes = run_cells(&cells, &backend, None).expect("sequential reference");
        (cells, backend, outcomes)
    })
}

/// Deterministic Fisher-Yates driven by an xorshift stream, so a proptest
/// seed maps to one fixed permutation.
fn permutation(n: usize, mut state: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Rows rendered with a fixed cell index, so rows are comparable across
/// permutations (the real renderer writes grid positions, which this
/// property holds fixed on purpose).
fn normalized_row(outcome: &ScenarioOutcome) -> String {
    csv_row(0, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any worker count, any execution order: same bytes per cell, and
    /// outcomes returned in the order the cells were submitted.
    #[test]
    fn sweep_rows_are_invariant_to_workers_and_order(
        workers in 1usize..5,
        perm_seed in 1u64..u64::MAX,
    ) {
        let (cells, backend, reference) = reference();
        let order = permutation(cells.len(), perm_seed);
        let shuffled: Vec<ScenarioSpec> =
            order.iter().map(|&i| cells[i].clone()).collect();
        let outcomes = run_cells(&shuffled, backend, Some(workers))
            .expect("shuffled sweep runs");
        prop_assert_eq!(outcomes.len(), cells.len());
        for (pos, &orig) in order.iter().enumerate() {
            prop_assert_eq!(
                normalized_row(&outcomes[pos]),
                normalized_row(&reference[orig]),
                "cell {} (grid index {}) diverged at {} workers",
                pos,
                orig,
                workers
            );
        }
    }
}

/// A refit-dimension grid runs through the same backend as frozen cells,
/// and its rendered CSV does not depend on the worker count: each cell's
/// refitter observes on the engine's single apply path, after the
/// parallel search.
#[test]
fn refit_cells_render_identically_at_one_and_three_workers() {
    let spec = SweepSpec::parse(
        "[sweep]\n\
         name = \"refit\"\n\
         jobs = 20\n\
         duration_hours = 2.0\n\
         seed = 7\n\
         [grid]\n\
         refit = [0.15]\n\
         scheduler = [\"rubick\", \"sia\"]\n",
    )
    .expect("refit grid parses");
    let cells = spec.expand().expect("refit grid expands");
    assert_eq!(cells.len(), 2);
    assert!(cells.iter().all(|c| c.refit == Some(0.15)));
    let backend = backend_for(&cells);
    let sequential = run_cells(&cells, &backend, Some(1)).expect("refit cells run");
    let threaded = run_cells(&cells, &backend, Some(3)).expect("refit cells run threaded");
    assert!(
        sequential.iter().any(|o| o.report.model_refits > 0),
        "the grid must publish at least one refit"
    );
    assert_eq!(render_csv(&sequential), render_csv(&threaded));
}
