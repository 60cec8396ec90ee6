//! End-to-end simulator benchmark with a per-layer time split.
//!
//! Each workload runs whole simulations through the repository's public
//! API exactly as `rubick run` / `rubick serve` build them: a fresh
//! oracle, zoo profiling, trace generation and a fresh scheduler per
//! simulation, so plan caches start cold. The untraced run reports the
//! end-to-end metrics; the traced run wraps the scheduler, the event sink
//! and the refit hook in forwarding wrappers ([`wrap`]) that record spans
//! ([`spans`]) and reports the per-layer split. See `README.md`.

pub mod batch;
pub mod metrics;
pub mod serve_load;
pub mod spans;
pub mod wrap;

use rubick_core::ModelRegistry;
use rubick_model::ModelSpec;
use rubick_sim::{JobSpec, SimReport, Tenant};
use rubick_testbed::TestbedOracle;
use rubick_trace::{generate_base, multi_tenant_trace, TraceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cluster every workload runs on: the paper's 8 nodes of 8×A800.
pub const NODES: usize = 8;

/// The paper's down-sampled trace size; workload sizes are multiples.
pub const PAPER_JOBS: usize = 406;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rubick on the base trace, sequential rounds: plan search dominates.
    RubickTable4,
    /// AntMan on a large base trace: engine self time dominates.
    AntmanBacklog,
    /// A journalled, refitting serve session replaying the multi-tenant
    /// trace, followed by a crash-recovery replay.
    ServeRefit,
}

impl Workload {
    /// Every workload, in listing order.
    pub const ALL: [Workload; 3] = [
        Workload::RubickTable4,
        Workload::AntmanBacklog,
        Workload::ServeRefit,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RubickTable4 => "rubick-table4",
            Workload::AntmanBacklog => "antman-backlog",
            Workload::ServeRefit => "serve-refit",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scheduler the workload drives.
    pub fn scheduler(self) -> &'static str {
        match self {
            Workload::RubickTable4 | Workload::ServeRefit => "rubick",
            Workload::AntmanBacklog => "antman",
        }
    }

    /// Jobs per simulated trace.
    pub fn jobs(self) -> usize {
        match self {
            Workload::RubickTable4 => 6 * PAPER_JOBS,
            Workload::AntmanBacklog => 12 * PAPER_JOBS,
            Workload::ServeRefit => PAPER_JOBS,
        }
    }

    /// Hours each trace spans. A serve session replays 3 hours at the
    /// density of the 1624-job, 12-hour multi-tenant trace: with online
    /// refit a session's host time swings with its refit activity (one
    /// 12-hour session took anywhere from 4 to 11 s), so a run averages
    /// many short sessions rather than a few long ones.
    pub fn hours(self) -> f64 {
        match self {
            Workload::ServeRefit => 3.0,
            _ => 12.0,
        }
    }

    /// The share of `--seconds` one simulation accounts for: a run of
    /// `seconds` simulates `seconds / share` traces (at least one), so the
    /// work in a run depends only on the arguments, never on the speed of
    /// the machine. On a 2-core machine a simulation takes about 7 s
    /// (`rubick-table4`), 2.9 s (`antman-backlog`) and 1.8 s
    /// (`serve-refit`, whose first session is also recovered); workloads
    /// whose traces differ more from one another get more of them.
    pub fn seconds_per_sim(self) -> f64 {
        match self {
            Workload::RubickTable4 => 6.0,
            Workload::AntmanBacklog => 3.75,
            Workload::ServeRefit => 2.1,
        }
    }

    /// Simulations per run of `seconds`.
    pub fn sims(self, seconds: u64) -> usize {
        ((seconds as f64 / self.seconds_per_sim()).round() as usize).max(1)
    }

    /// Oracle and trace seed of simulation `i` of a run with `seed` (the
    /// `rubick run --seed` semantics: one seed for both).
    pub fn sim_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(100).wrapping_add(i as u64)
    }

    /// The trace configuration for one simulation.
    pub fn trace_config(self, seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            cluster_gpus: (NODES * 8) as u32,
            base_jobs: self.jobs(),
            duration_hours: self.hours(),
            ..TraceConfig::default()
        }
    }
}

/// Host time spent before the first step, split by part.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// Everything before the first step.
    pub total: Duration,
    /// `ModelRegistry::from_oracle`: profiling and fitting the zoo.
    pub profile: Duration,
    /// Trace generation.
    pub trace: Duration,
}

/// The inputs of one simulation: oracle, fitted registry and trace.
pub struct Inputs {
    /// Ground-truth oracle.
    pub oracle: TestbedOracle,
    /// Zoo registry fitted from the oracle.
    pub registry: Arc<ModelRegistry>,
    /// The workload trace.
    pub jobs: Vec<JobSpec>,
    /// Tenant quota table (multi-tenant trace only).
    pub tenants: Vec<Tenant>,
    /// Setup time so far (callers add their own construction time).
    pub setup: SetupTiming,
}

/// Builds the oracle, profiles the zoo and generates the trace for one
/// simulation of `workload` with `seed`.
///
/// # Errors
///
/// Zoo profiling failures.
pub fn build_inputs(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let t0 = Instant::now();
    let oracle = TestbedOracle::new(seed);
    let t1 = Instant::now();
    let registry = Arc::new(
        ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo())
            .map_err(|e| format!("profiling the model zoo: {e}"))?,
    );
    let t2 = Instant::now();
    let config = workload.trace_config(seed);
    let (jobs, tenants) = match workload {
        Workload::ServeRefit => multi_tenant_trace(&config, &oracle),
        _ => (generate_base(&config, &oracle), Vec::new()),
    };
    let t3 = Instant::now();
    Ok(Inputs {
        oracle,
        registry,
        jobs,
        tenants,
        setup: SetupTiming {
            total: t3 - t0,
            profile: t2 - t1,
            trace: t3 - t2,
        },
    })
}

/// How much of a simulation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Only the set-up (an extra `setup_s` sample).
    SetupOnly,
    /// The whole simulation.
    Run {
        /// Route the layers through the span-recording wrappers.
        traced: bool,
        /// Serve only: restart and recover the session from its journal.
        recover: bool,
    },
}

/// Per-layer data of one traced simulation.
#[derive(Debug)]
pub struct TraceSample {
    /// The simulation's spans and counters.
    pub recorder: spans::Recorder,
    /// Host time from the first root span's start to the last one's end.
    pub loop_wall: Duration,
    /// Registry version at the end of the simulation.
    pub registry_version: u64,
}

/// Serve-only measurements of one session.
#[derive(Debug, Default)]
pub struct ServeSample {
    /// Latency of every `advance` op.
    pub advance: Vec<Duration>,
    /// Latency of every `submit` op.
    pub submit: Vec<Duration>,
    /// Journal size at shutdown, bytes.
    pub log_bytes: u64,
    /// `snapshot` (compaction) ops applied.
    pub compactions: u64,
    /// Ops the recovery replayed.
    pub replayed_ops: u64,
    /// From `recover` to the first `status` reply.
    pub recovery: Duration,
}

/// What one simulation measured.
#[derive(Debug, Default)]
pub struct SimSample {
    /// Setup before the first step.
    pub setup: SetupTiming,
    /// First step to last step (batch) or first op to the shutdown reply
    /// (serve).
    pub wall: Duration,
    /// Latency of every engine step (batch) or serve op (serve).
    pub ops: Vec<Duration>,
    /// The engine's report.
    pub report: SimReport,
    /// Jobs submitted (batch) or ops sent (serve).
    pub attempted: u64,
    /// Unfinished jobs (batch) or error replies (serve).
    pub failed: u64,
    /// Serve-only measurements.
    pub serve: Option<ServeSample>,
    /// Present on traced simulations.
    pub trace: Option<TraceSample>,
}

/// Checks `cond`, describing the failed check otherwise.
///
/// # Errors
///
/// `what` when `cond` is false.
pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Runs one simulation of `workload` with `seed` in `mode`; `scratch`
/// holds the serve journal while the session runs.
///
/// # Errors
///
/// Setup failures and failed correctness checks.
pub fn run_sim(
    workload: Workload,
    seed: u64,
    mode: Mode,
    scratch: &std::path::Path,
) -> Result<SimSample, String> {
    match workload {
        Workload::ServeRefit => serve_load::run(workload, seed, mode, scratch),
        _ => batch::run(workload, seed, mode),
    }
}
