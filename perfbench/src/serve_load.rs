//! The serve workload: one closed-loop client drives a journalled,
//! refitting [`ServeSession`] through the multi-tenant trace, then a
//! restart recovers the session from its journal.
//!
//! The client sends one op, waits for the reply, and only then builds
//! the next: the trace's jobs are submitted window by window with an
//! `advance` to each window's end, a `status` every few windows, a few
//! best-effort `cancel`s and `snapshot` compactions; after the last
//! submission it advances until the session is idle, asks for a final
//! `status` and shuts down.

use crate::batch::{check_report, cluster, root_wall, scheduler};
use crate::spans::{lock, Recorder, SharedRecorder};
use crate::wrap::{TracedRefit, TracedScheduler, TracedSink};
use crate::{build_inputs, ensure, Inputs, Mode, ServeSample, SimSample, TraceSample, Workload};
use rubick_core::ModelRegistry;
use rubick_model::PlanKind;
use rubick_obs::EventSink;
use rubick_refit::{RefitConfig, RegistryRefitter};
use rubick_sim::metrics::Decision;
use rubick_sim::serve::{recover, ServeMeta, ServeOp, ServeReply, ServeSession, SubmitOp};
use rubick_sim::{
    Engine, EngineConfig, JobClass, JobSpec, ReportSink, Scheduler, SessionState, SimReport,
};
use rubick_testbed::TestbedOracle;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated seconds per submission window (one `advance` each).
pub const WINDOW_SECS: f64 = 120.0;
/// A `status` op after every this many windows.
pub const STATUS_EVERY: usize = 5;
/// A `snapshot` (journal compaction) op after every this many windows.
pub const SNAPSHOT_EVERY: usize = 30;
/// Roughly one best-effort job in this many is cancelled.
pub const CANCEL_ONE_IN: u64 = 64;
/// A cancelled job is withdrawn this long after its submission.
pub const CANCEL_AFTER_SECS: f64 = 1800.0;
/// Simulated seconds per `advance` while draining the queue.
pub const DRAIN_SECS: f64 = 3600.0;
/// Worker threads per scheduling round.
pub const PARALLELISM: usize = 2;

fn plan_kind_name(kind: PlanKind) -> &'static str {
    match kind {
        PlanKind::DataParallel => "dp",
        PlanKind::ZeroDp => "zero-dp",
        PlanKind::ZeroOffload => "zero-offload",
        _ => "zero3",
    }
}

/// Maps a trace job to a `submit` op that [`SubmitOp::resolve`] accepts.
///
/// The protocol only knows the four pure-data-parallel plan kinds, at the
/// requested GPU count. The job's own kind is tried first (model-parallel
/// plans start at ZeRO-3, the memory-saving pure-DP kind), preferring a
/// kind the oracle can run at the requested resources so the SLA
/// baseline exists. When the global batch cannot split over the
/// requested GPUs at all, the request halves until it can.
pub fn submit_op(job: &JobSpec, oracle: &TestbedOracle) -> SubmitOp {
    let own = plan_kind_name(job.initial_plan.kind());
    let kinds = [own, "zero3", "zero-dp", "dp", "zero-offload"];
    let op = |gpus: u32, plan: &str| SubmitOp {
        job: job.id,
        model: job.model.name.clone(),
        gpus,
        batch: Some(job.global_batch),
        target_batches: job.target_batches,
        class: job.class,
        tenant: job.tenant.0.clone(),
        plan: plan.to_string(),
        at: Some(job.submit_time),
    };
    let mut gpus = job.requested.gpus.max(1);
    loop {
        let valid: Vec<SubmitOp> = kinds
            .iter()
            .map(|k| op(gpus, k))
            .filter(|o| o.resolve().is_ok())
            .collect();
        let runs = |o: &SubmitOp| {
            let spec = o.resolve().expect("filtered to resolvable ops");
            let shape = *oracle.shape();
            let placement = rubick_model::Placement::spread(
                spec.requested.gpus,
                shape.gpus,
                spec.requested.cpus,
                spec.requested.mem_gb,
            );
            oracle
                .throughput(
                    &spec.model,
                    &spec.initial_plan,
                    spec.global_batch,
                    &placement,
                )
                .is_some()
        };
        if let Some(pick) = valid.iter().find(|o| runs(o)).or(valid.first()) {
            return pick.clone();
        }
        if gpus == 1 {
            // Every batch splits over one GPU; unreachable for zoo models.
            return op(1, "dp");
        }
        gpus /= 2;
    }
}

fn cancelled(job: &JobSpec, seed: u64) -> bool {
    job.class == JobClass::BestEffort
        && (job.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed).is_multiple_of(CANCEL_ONE_IN)
}

/// The op script of the submission phase (the drain phase depends on the
/// replies and is generated live).
pub fn script(inputs: &Inputs, seed: u64) -> Vec<ServeOp> {
    let mut ops = Vec::new();
    let mut cancels: Vec<(f64, u64)> = Vec::new();
    let last = inputs
        .jobs
        .iter()
        .map(|j| j.submit_time)
        .fold(0.0, f64::max);
    let windows = (last / WINDOW_SECS).floor() as usize + 1;
    let mut next = 0;
    for w in 0..windows {
        let end = (w + 1) as f64 * WINDOW_SECS;
        while let Some(job) = inputs.jobs.get(next).filter(|j| j.submit_time < end) {
            ops.push(ServeOp::Submit(submit_op(job, &inputs.oracle)));
            if cancelled(job, seed) {
                cancels.push((job.submit_time + CANCEL_AFTER_SECS, job.id));
            }
            next += 1;
        }
        let window_start = w as f64 * WINDOW_SECS;
        for &(_, job) in cancels
            .iter()
            .filter(|(at, _)| *at < window_start + WINDOW_SECS && *at >= window_start)
        {
            ops.push(ServeOp::Cancel { job, at: None });
        }
        ops.push(ServeOp::Advance { until: end });
        if (w + 1) % STATUS_EVERY == 0 {
            ops.push(ServeOp::Status);
        }
        if (w + 1) % SNAPSHOT_EVERY == 0 {
            ops.push(ServeOp::Snapshot);
        }
    }
    ops
}

fn op_span(op: &ServeOp) -> &'static str {
    match op {
        ServeOp::Submit(_) => "serve.submit",
        ServeOp::Cancel { .. } => "serve.cancel",
        ServeOp::Advance { .. } => "serve.advance",
        ServeOp::Status => "serve.status",
        ServeOp::Snapshot => "serve.snapshot",
        ServeOp::Shutdown => "serve.shutdown",
    }
}

/// A fresh engine for the session or its recovery: the same policy,
/// refit hook and tenants either way (recovery requires identical
/// construction).
fn engine<'a>(
    oracle: &'a TestbedOracle,
    registry: &Arc<ModelRegistry>,
    tenants: &[rubick_sim::Tenant],
    rec: Option<&SharedRecorder>,
) -> Engine<'a> {
    let policy = scheduler(Workload::ServeRefit, registry);
    let refitter = RegistryRefitter::new(Arc::clone(registry), RefitConfig::default());
    let (policy, hook): (Box<dyn Scheduler>, Box<dyn rubick_sim::RefitHook>) = match rec {
        Some(rec) => (
            Box::new(TracedScheduler::new(policy, Arc::clone(rec))),
            Box::new(TracedRefit::new(refitter, Arc::clone(rec))),
        ),
        None => (policy, Box::new(refitter)),
    };
    let config = EngineConfig {
        parallelism: Some(PARALLELISM),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(oracle, policy, cluster(), tenants.to_vec(), config);
    engine.set_refit_hook(hook);
    engine
}

/// What the client loop observed.
struct Session {
    ops: Vec<Duration>,
    advance: Vec<Duration>,
    submit: Vec<Duration>,
    errors: u64,
    journalled: u64,
    compactions: u64,
    last_status: Option<SessionState>,
}

/// Applies one op as the client would: timed, with errors counted.
fn send(
    session: &mut ServeSession<'_>,
    op: &ServeOp,
    sink: &mut dyn EventSink,
    rec: Option<&SharedRecorder>,
    out: &mut Session,
) -> Option<ServeReply> {
    let t0 = Instant::now();
    let root = rec.map(|r| lock(r).open(op_span(op), t0));
    let reply = session.apply(op, sink);
    let t1 = Instant::now();
    if let (Some(r), Some(root)) = (rec, root) {
        lock(r).close(root, t1);
    }
    out.ops.push(t1 - t0);
    match op {
        ServeOp::Advance { .. } => out.advance.push(t1 - t0),
        ServeOp::Submit(_) => out.submit.push(t1 - t0),
        _ => {}
    }
    match reply {
        Ok(reply) => {
            if op.is_journalled() {
                out.journalled += 1;
            }
            match &reply {
                ServeReply::State(state) => out.last_status = Some(*state),
                ServeReply::Compacted { .. } => out.compactions += 1,
                ServeReply::Ok { .. } => {}
            }
            Some(reply)
        }
        Err(_) => {
            out.errors += 1;
            None
        }
    }
}

/// Runs one serve session of the workload with `seed`; with
/// `Mode::Run { recover: true, .. }` a restart then recovers it from its
/// journal.
///
/// # Errors
///
/// Setup and journal failures, and failed correctness checks.
pub fn run(workload: Workload, seed: u64, mode: Mode, scratch: &Path) -> Result<SimSample, String> {
    let (traced, recover) = match mode {
        Mode::SetupOnly => (false, false),
        Mode::Run { traced, recover } => (traced, recover),
    };
    let label = format!("{} seed {seed}", workload.name());
    let t0 = Instant::now();
    let inputs = build_inputs(workload, seed)?;
    let ops = script(&inputs, seed);
    let rec = traced.then(Recorder::shared);
    let path = scratch.join(format!("serve-{}-{seed}.wal", std::process::id()));
    let meta = ServeMeta {
        scheduler: workload.scheduler().to_string(),
        seed,
        nodes: crate::NODES,
    };
    let mut session = ServeSession::with_log(
        engine(
            &inputs.oracle,
            &inputs.registry,
            &inputs.tenants,
            rec.as_ref(),
        ),
        &meta,
        &path,
    )
    .map_err(|e| format!("{label}: creating the journal {}: {e}", path.display()))?;
    let mut setup = inputs.setup;
    setup.total = t0.elapsed();
    if mode == Mode::SetupOnly {
        drop(session);
        let _ = std::fs::remove_file(&path);
        return Ok(SimSample {
            setup,
            ..SimSample::default()
        });
    }

    let mut fold = ReportSink::new();
    let mut out = Session {
        ops: Vec::new(),
        advance: Vec::new(),
        submit: Vec::new(),
        errors: 0,
        journalled: 0,
        compactions: 0,
        last_status: None,
    };
    let start = Instant::now();
    {
        let mut traced_sink;
        let sink: &mut dyn EventSink = match &rec {
            Some(rec) => {
                traced_sink = TracedSink::new(&mut fold, Arc::clone(rec));
                &mut traced_sink
            }
            None => &mut fold,
        };
        for op in &ops {
            send(&mut session, op, sink, rec.as_ref(), &mut out);
        }
        // Drain: advance until nothing is running, queued or due.
        let mut clock = session.clock();
        loop {
            clock += DRAIN_SECS;
            let reply = send(
                &mut session,
                &ServeOp::Advance { until: clock },
                sink,
                rec.as_ref(),
                &mut out,
            );
            let idle = match reply {
                Some(ServeReply::State(s)) => {
                    s.running == 0 && s.queued == 0 && s.next_event.is_none()
                }
                _ => true,
            };
            if clock > EngineConfig::default().max_time {
                break; // past the horizon: leftovers count as unfinished
            }
            if idle {
                break;
            }
        }
        send(&mut session, &ServeOp::Status, sink, rec.as_ref(), &mut out);
        send(
            &mut session,
            &ServeOp::Shutdown,
            sink,
            rec.as_ref(),
            &mut out,
        );
    }
    let wall = start.elapsed();
    let live_status = out
        .last_status
        .ok_or_else(|| format!("{label}: no status reply"))?;
    let log_bytes = session.log_bytes().unwrap_or(0);
    let report = session.finish();
    let submitted = ops
        .iter()
        .filter(|op| matches!(op, ServeOp::Submit(_)))
        .count();
    let cancelled = report
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::Cancel { .. }))
        .count();
    let folded = fold.take_report(workload.scheduler());
    check_report(&label, folded, &report, submitted, cancelled)?;
    let trace = rec.map(|rec| {
        let recorder = std::mem::take(&mut *lock(&rec));
        TraceSample {
            loop_wall: root_wall(&recorder),
            recorder,
            registry_version: inputs.registry.version(),
        }
    });

    let (replayed_ops, recovery) = if recover {
        let live = Live {
            status: live_status,
            journalled: out.journalled,
            report: &report,
        };
        recover_and_check(&label, &path, seed, &inputs.tenants, &live)?
    } else {
        (0, Duration::ZERO)
    };
    let _ = std::fs::remove_file(&path);

    Ok(SimSample {
        setup,
        wall,
        attempted: out.ops.len() as u64,
        failed: out.errors,
        ops: out.ops,
        report,
        serve: Some(ServeSample {
            advance: out.advance,
            submit: out.submit,
            log_bytes,
            compactions: out.compactions,
            replayed_ops,
            recovery,
        }),
        trace,
    })
}

/// What the live session ended with, for comparison with its recovery.
struct Live<'r> {
    status: SessionState,
    journalled: u64,
    report: &'r SimReport,
}

/// Restarts the session: a fresh oracle, registry and engine recover it
/// from the journal at `path` alone. Checks the recovered session against
/// the live one; returns the ops replayed and the time from `recover` to
/// the first `status` reply.
fn recover_and_check(
    label: &str,
    path: &Path,
    seed: u64,
    tenants: &[rubick_sim::Tenant],
    live: &Live<'_>,
) -> Result<(u64, Duration), String> {
    let oracle = TestbedOracle::new(seed);
    let registry = Arc::new(
        ModelRegistry::from_oracle(&oracle, &rubick_model::ModelSpec::zoo())
            .map_err(|e| format!("{label}: profiling for recovery: {e}"))?,
    );
    let fresh = engine(&oracle, &registry, tenants, None);
    let mut refold = ReportSink::new();
    let r0 = Instant::now();
    let mut recovery = recover(path, fresh, &mut refold).map_err(|e| format!("{label}: {e}"))?;
    let status = recovery
        .session
        .apply(&ServeOp::Status, &mut refold)
        .map_err(|e| format!("{label}: status after recovery: {e}"))?;
    let elapsed = r0.elapsed();
    ensure(status == ServeReply::State(live.status), || {
        format!(
            "{label}: recovered status {status:?} != live status {:?}",
            live.status
        )
    })?;
    let replayed = recovery.stats.ops_replayed as u64;
    ensure(replayed == live.journalled, || {
        format!(
            "{label}: recovery replayed {replayed} ops, the session journalled {}",
            live.journalled
        )
    })?;
    let recovered = recovery.session.finish();
    ensure(&recovered == live.report, || {
        format!("{label}: the recovered session's report differs from the live one")
    })?;
    ensure(
        &refold.take_report(&live.report.scheduler) == live.report,
        || format!("{label}: the replayed event stream does not fold into the live report"),
    )?;
    Ok((replayed, elapsed))
}
