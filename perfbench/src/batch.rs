//! Batch workloads: one whole `rubick run`-style simulation, stepped
//! through [`Engine::step`] so every step can be timed.

use crate::spans::{lock, Recorder, SharedRecorder};
use crate::wrap::{TracedScheduler, TracedSink};
use crate::{build_inputs, ensure, Mode, SimSample, TraceSample, Workload, NODES};
use rubick_core::{AntManScheduler, ModelRegistry, RubickScheduler};
use rubick_model::NodeShape;
use rubick_obs::EventSink;
use rubick_sim::{Cluster, Engine, EngineConfig, ReportSink, Scheduler, SimReport, StepOutcome};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The policy a workload drives, built fresh (cold plan caches).
pub fn scheduler(workload: Workload, registry: &Arc<ModelRegistry>) -> Box<dyn Scheduler> {
    match workload.scheduler() {
        "antman" => Box::new(AntManScheduler::new()),
        _ => Box::new(RubickScheduler::new(Arc::clone(registry))),
    }
}

/// The paper's cluster.
pub fn cluster() -> Cluster {
    Cluster::new(NODES, NodeShape::a800())
}

/// Checks that the event stream forwarded to the caller folds into the
/// report the engine folded itself, and that every job is accounted for.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_report(
    label: &str,
    folded: SimReport,
    report: &SimReport,
    submitted: usize,
    cancelled: usize,
) -> Result<(), String> {
    ensure(&folded == report, || {
        format!("{label}: the forwarded event stream does not fold into the engine's report")
    })?;
    let accounted = report.jobs.len() + report.unfinished.len() + cancelled;
    ensure(accounted == submitted, || {
        format!(
            "{label}: {} finished + {} unfinished + {cancelled} cancelled != {submitted} submitted",
            report.jobs.len(),
            report.unfinished.len()
        )
    })
}

/// Runs one batch simulation of `workload` with `seed`.
///
/// # Errors
///
/// Setup failures and failed correctness checks.
pub fn run(workload: Workload, seed: u64, mode: Mode) -> Result<SimSample, String> {
    let t0 = Instant::now();
    let mut inputs = build_inputs(workload, seed)?;
    let rec = matches!(mode, Mode::Run { traced: true, .. }).then(Recorder::shared);
    let policy = scheduler(workload, &inputs.registry);
    let policy: Box<dyn Scheduler> = match &rec {
        Some(rec) => Box::new(TracedScheduler::new(policy, Arc::clone(rec))),
        None => policy,
    };
    let config = EngineConfig {
        parallelism: None,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(&inputs.oracle, policy, cluster(), Vec::new(), config);
    let submitted = inputs.jobs.len();
    for spec in std::mem::take(&mut inputs.jobs) {
        engine.submit(spec);
    }
    let mut fold = ReportSink::new();
    let mut setup = inputs.setup;
    setup.total = t0.elapsed();
    if mode == Mode::SetupOnly {
        return Ok(SimSample {
            setup,
            ..SimSample::default()
        });
    }

    let (wall, steps) = match &rec {
        Some(rec) => {
            let mut sink = TracedSink::new(&mut fold, Arc::clone(rec));
            step_loop(&mut engine, &mut sink, Some(rec))
        }
        None => step_loop(&mut engine, &mut fold, None),
    };
    let report = engine.finish_report();
    let label = format!("{} seed {seed}", workload.name());
    check_report(
        &label,
        fold.take_report(engine.scheduler_name()),
        &report,
        submitted,
        0,
    )?;
    let trace = rec.map(|rec| {
        let recorder = std::mem::take(&mut *lock(&rec));
        TraceSample {
            loop_wall: root_wall(&recorder),
            recorder,
            registry_version: inputs.registry.version(),
        }
    });
    Ok(SimSample {
        setup,
        wall,
        ops: steps,
        attempted: submitted as u64,
        failed: report.unfinished.len() as u64,
        report,
        serve: None,
        trace,
    })
}

/// Steps `engine` until it stops advancing; returns the loop's wall time
/// and every step's latency. With a recorder, each step is a root span.
fn step_loop(
    engine: &mut Engine<'_>,
    sink: &mut dyn EventSink,
    rec: Option<&SharedRecorder>,
) -> (Duration, Vec<Duration>) {
    let mut steps = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let root = rec.map(|r| lock(r).open("engine.step", t0));
        let outcome = engine.step(None, sink);
        let t1 = Instant::now();
        if let (Some(r), Some(root)) = (rec, root) {
            lock(r).close(root, t1);
        }
        steps.push(t1 - t0);
        if !matches!(outcome, StepOutcome::Advanced { .. }) {
            break;
        }
    }
    (start.elapsed(), steps)
}

/// Host time from the first root span's start to the last root's end.
pub fn root_wall(rec: &Recorder) -> Duration {
    let roots = rec.spans().iter().filter(|s| s.parent.is_none());
    let (mut first, mut last) = (u64::MAX, 0);
    for s in roots {
        first = first.min(s.start_ns);
        last = last.max(s.end_ns);
    }
    Duration::from_nanos(last.saturating_sub(first))
}
