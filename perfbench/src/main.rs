//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the end-to-end
//! metrics with `--trace 0`, the per-layer split with `--trace 1`. Exits
//! 1 when a correctness check fails and 2 on bad arguments.

use rubick_perfbench::metrics::{end_to_end, per_layer, quantile, result_json};
use rubick_perfbench::{run_sim, Mode, SimSample, Workload};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up samples taken per run at least (extra set-ups when a run has
/// fewer simulations), so `setup_s` is a median.
const MIN_SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Serve journals and span files, inside the checkout.
const SCRATCH: &str = ".bench_build/perfbench-runs";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let name = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload '{name}' ({})", names.join("|")))?;
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("invalid {flag} '{v}'"))
        })
    };
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed", 0)?,
        seconds: num("--seconds", 30)?.max(1),
        trace,
    })
}

/// The untraced run: `sims` whole simulations plus extra set-ups.
fn untraced(args: &Args) -> Result<String, String> {
    let scratch = Path::new(SCRATCH);
    let w = args.workload;
    let sims = w.sims(args.seconds);
    let mut setups = Vec::new();
    for i in sims..MIN_SETUPS {
        let s = run_sim(
            w,
            Workload::sim_seed(args.seed, i % sims),
            Mode::SetupOnly,
            scratch,
        )?;
        setups.push(s.setup.total);
    }
    let mut samples: Vec<SimSample> = Vec::new();
    for i in 0..sims {
        let seed = Workload::sim_seed(args.seed, i);
        let mode = Mode::Run {
            traced: false,
            recover: i == 0,
        };
        let s = run_sim(w, seed, mode, scratch)?;
        let ops: Vec<f64> = s.ops.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        eprintln!(
            "{} sim {}/{sims} seed {seed}: setup {:.3} s, loop {:.3} s, {} jobs, avg JCT {:.1} s, \
             p99 JCT {:.1} s, {} ops p50 {:.4} ms p99 {:.4} ms",
            w.name(),
            i + 1,
            s.setup.total.as_secs_f64(),
            s.wall.as_secs_f64(),
            s.report.jobs.len(),
            s.report.avg_jct(),
            s.report.p99_jct(),
            ops.len(),
            quantile(&ops, 0.5),
            quantile(&ops, 0.99),
        );
        setups.push(s.setup.total);
        samples.push(s);
    }
    let attempted = samples.iter().map(|s| s.attempted).sum();
    let failed = samples.iter().map(|s| s.failed).sum();
    let metrics = end_to_end(&setups, &samples);
    Ok(result_json(true, attempted, failed, &metrics))
}

/// The traced run: the run's first simulation, untraced then traced.
fn traced(args: &Args) -> Result<String, String> {
    let scratch = Path::new(SCRATCH);
    let w = args.workload;
    let seed = Workload::sim_seed(args.seed, 0);
    let mut setups = Vec::new();
    for _ in 2..MIN_SETUPS {
        setups.push(run_sim(w, seed, Mode::SetupOnly, scratch)?.setup);
    }
    // Only the traced session is recovered: it times `serve.recover_ms`.
    let run = |traced| Mode::Run {
        traced,
        recover: traced,
    };
    let plain = run_sim(w, seed, run(false), scratch)?;
    let traced = run_sim(w, seed, run(true), scratch)?;
    setups.extend([plain.setup, traced.setup]);
    if plain.report != traced.report {
        return Err(format!(
            "{} seed {seed}: the traced run's simulated results differ from the untraced run's",
            w.name()
        ));
    }
    eprintln!(
        "{} seed {seed}: loop {:.3} s untraced, {:.3} s traced",
        w.name(),
        plain.wall.as_secs_f64(),
        traced.wall.as_secs_f64()
    );
    if let Some(t) = &traced.trace {
        let path = scratch.join(format!("spans-{}-{}.csv", w.name(), args.seed));
        write_spans(&path, t).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "{} spans written to {}",
            t.recorder.spans().len(),
            path.display()
        );
    }
    let metrics = per_layer(&setups, &plain, &traced);
    Ok(result_json(true, traced.attempted, traced.failed, &metrics))
}

fn write_spans(path: &Path, t: &rubick_perfbench::TraceSample) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    t.recorder.write_csv(&mut out)?;
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(SCRATCH) {
        eprintln!("error: creating {SCRATCH}: {e}");
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    eprintln!(
        "{} finished in {:.1} s",
        args.workload.name(),
        started.elapsed().as_secs_f64()
    );
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("correctness check failed: {e}");
            println!("{}", result_json(false, 1, 1, &[]));
            ExitCode::from(1)
        }
    }
}
