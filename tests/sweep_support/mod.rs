//! Shared support for the sweep-level test tier (`sweep_golden`,
//! `sweep_equivalence`): the committed smoke spec and the golden-file
//! helper. Both suites build their engines through the same backend the
//! CLI uses, `rubick::scenario::ZooBackend`.

#![allow(dead_code)]

use rubick::scenario::ZooBackend;
use rubick_sim::harness::grid::SweepSpec;
use rubick_sim::ScenarioSpec;
use std::path::PathBuf;

/// A backend with the zoo profiled for every seed a cell list uses.
pub fn backend_for(cells: &[ScenarioSpec]) -> ZooBackend {
    ZooBackend::prepare(cells.iter().map(|c| c.seed)).expect("zoo profiling succeeds")
}

/// The committed smoke sweep spec (`examples/sweeps/smoke.toml`), parsed.
/// The golden suite runs exactly what `make sweep-smoke` runs, so an edit
/// to the example file shows up as a golden diff, not a silent drift.
pub fn smoke_spec() -> SweepSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/sweeps/smoke.toml");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    SweepSpec::parse(&text).expect("committed smoke spec parses")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Golden-file comparison with `UPDATE_GOLDEN=1` regeneration, identical
/// in behavior to the `golden_traces` helper.
pub fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated golden file {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "sweep output drifted from {} — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}
