//! `perfbench --workload <traffic|graph|oblivious> --seed N --seconds S --trace <0|1>`
//!
//! With `--trace 0` it times campaign reps and prints the end-to-end
//! metrics; with `--trace 1` it prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when the output check fails. `--setup-only` is the child mode
//! the benchmark spawns to time set-ups in fresh processes.

use faultstudy_exec::ParallelSpec;
use perfbench::alloc::{self, CountingAlloc};
use perfbench::calib::{self, REFERENCE_KERNEL_S};
use perfbench::stats::{percentile_of, tail_percentile, Summary};
use perfbench::{metric, output_check, traced, Campaign, Outcome, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fewest timed reps per run, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// Set-ups timed in fresh child processes.
const CHILD_SETUPS: usize = 17;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, 2000, 10.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace, setup_only })
}

/// The first line of a command's standard output, if it ran.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.lines().next().unwrap_or("").trim().to_owned())
}

/// The host record printed with every result.
fn host_record(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host nproc={} available_parallelism={} rustc=\"{}\" commit={} workload={} seed={} \
         requests_per_rep={} threads=1",
        command_line("nproc", &[]).unwrap_or_else(|| "unknown".to_owned()),
        parallelism,
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".to_owned()),
        args.workload.name(),
        args.seed,
        args.workload.requests(),
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: plan generation plus one warm-up rep, timed from `start`.
fn set_up(args: &Args, start: Instant) -> f64 {
    let w = args.workload;
    std::hint::black_box(w.plans(args.seed));
    std::hint::black_box(w.run(args.seed, w.requests(), ParallelSpec::threads(1)));
    start.elapsed().as_secs_f64()
}

/// Times one set-up in a fresh process started with `--setup-only`, so
/// it pays the cold costs (first-touch page faults, allocator growth, lazy
/// statics) that a warm process no longer shows.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up child did not start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let value = text.lines().last().and_then(|l| l.strip_prefix("setup_s "));
    match value.and_then(|v| v.parse::<f64>().ok()) {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!("set-up child failed: {text}")),
    }
}

/// Times campaign reps for `--seconds` and returns the end-to-end
/// metrics. Allocations are counted in one untimed rep first. The child
/// set-ups run between reps, spread evenly over the run, so they sample
/// the same host states as the reps. One pass of the calibration kernel
/// runs before the first operation and after each one; an operation's
/// time is read in kernel passes, against the mean of the two passes
/// around it (see `calib`).
fn run_untraced(args: &Args, reference: &Campaign) -> Outcome {
    let w = args.workload;
    let offered = reference.totals().offered as f64;
    let (report, count) =
        alloc::counted(|| w.run(args.seed, w.requests(), ParallelSpec::threads(1)));
    let mut failed = usize::from(report != *reference);
    let (mut setup_s, mut setup_k, mut rep_s, mut rep_k) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut kernel_s = vec![calib::timed()];
    let mut children = 0;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let reps_done = rep_s.len() >= MIN_REPS && elapsed >= args.seconds;
        let child_due = elapsed >= children as f64 * args.seconds / CHILD_SETUPS as f64;
        let (seconds, is_rep) = if children < CHILD_SETUPS && (child_due || reps_done) {
            children += 1;
            match child_setup(args) {
                Ok(s) => (s, false),
                Err(e) => {
                    eprintln!("{e}");
                    failed += 1;
                    continue;
                }
            }
        } else if reps_done {
            break;
        } else {
            let (seconds, ok) = w.timed_rep(args.seed, reference);
            failed += usize::from(!ok);
            (seconds, true)
        };
        let before = *kernel_s.last().expect("a pass runs before the loop");
        let after = calib::timed();
        kernel_s.push(after);
        let passes = seconds / ((before + after) / 2.0);
        if is_rep {
            rep_s.push(seconds);
            rep_k.push(passes);
        } else {
            setup_s.push(seconds);
            setup_k.push(passes);
        }
    }
    // The counted rep, the timed reps and the child set-ups.
    let attempted = 1 + rep_s.len() + CHILD_SETUPS;
    let (reps, setups) = (Summary::of(&rep_s), Summary::of(&setup_s));
    let (rep_passes, setup_passes) = (Summary::of(&rep_k), Summary::of(&setup_k));
    let kernel = Summary::of(&kernel_s);
    let tail = tail_percentile(rep_s.len())
        .map_or("-".to_owned(), |p| format!("p{p}={:.6}", percentile_of(&rep_s, p)));
    println!(
        "rep host time: median={:.6} q1={:.6} q3={:.6} tail {tail} s over {} reps; {offered} \
         requests per rep; {:.0} req/s over all reps",
        reps.median,
        reps.q1,
        reps.q3,
        reps.n,
        offered * reps.n as f64 / rep_s.iter().sum::<f64>()
    );
    println!(
        "calibration kernel: median={:.6} q1={:.6} q3={:.6} s over {} passes; reference \
         {REFERENCE_KERNEL_S} s",
        kernel.median, kernel.q1, kernel.q3, kernel.n
    );
    let tail_passes = tail_percentile(rep_k.len())
        .map_or("-".to_owned(), |p| format!("p{p}={:.4}", percentile_of(&rep_k, p)));
    println!(
        "rep in kernel passes: median={:.4} q1={:.4} q3={:.4} tail {tail_passes}",
        rep_passes.median, rep_passes.q1, rep_passes.q3
    );
    println!(
        "set-up host time: median={:.6} q1={:.6} q3={:.6} s over {} fresh processes; in \
         kernel passes: median={:.4} q1={:.4} q3={:.4}",
        setups.median,
        setups.q1,
        setups.q3,
        setups.n,
        setup_passes.median,
        setup_passes.q1,
        setup_passes.q3
    );
    println!(
        "failed_ops_pct: {:.3} % ({failed} of {attempted} checked operations)",
        100.0 * failed as f64 / attempted as f64
    );
    let metrics = vec![
        metric("sim_req_per_s", "req/s", offered / (rep_passes.median * REFERENCE_KERNEL_S)),
        metric("setup_s", "s", setup_passes.median * REFERENCE_KERNEL_S),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("allocs_per_req", "allocs/req", count.allocs as f64 / offered),
        metric("alloc_bytes_per_req", "B/req", count.bytes as f64 / offered),
    ];
    Outcome { attempted, failed, metrics }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <traffic|graph|oblivious> [--seed N] [--seconds S] \
                 [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Set-up children inherit the pin, so every timed operation and every
    // kernel pass runs on one core.
    let cpu = calib::pin();
    let cold_setup = set_up(&args, process_start);
    if args.setup_only {
        println!("setup_s {cold_setup}");
        return ExitCode::SUCCESS;
    }
    println!("{}", host_record(&args));
    println!("pinned to cpu {}", cpu.map_or("none".to_owned(), |c| c.to_string()));
    let reference = match output_check(args.workload, args.seed) {
        Ok(reference) => reference,
        Err(e) => {
            eprintln!("output check failed: {e}");
            println!("{}", Outcome { attempted: 1, failed: 1, metrics: Vec::new() }.result_line());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "output check: report JSON, registry and table identical at 1 and 2 threads and chunk \
         sizes 1 and 7; plain run equals instrumented run; no anomalies"
    );
    println!("ledger: {}", reference.ledger());
    let outcome = if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or(PathBuf::from(".bench_build"), PathBuf::from);
        traced::run(args.workload, args.seed, args.seconds, &reference, &dir)
    } else {
        run_untraced(&args, &reference)
    };
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_line());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
