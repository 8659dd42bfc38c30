//! Writes `BENCH_<plane>.json` for one open-loop campaign plane: simulated
//! requests/sec at 1..N worker threads, the plane's headline comparison,
//! and a trajectory that grows run over run, so successive PRs can track
//! each campaign's throughput and its tracked comparison together.
//!
//! ```text
//! cargo run --release -p faultstudy-bench --bin bench_campaign -- \
//!     <traffic|micro|oblivious|graph> [OUT_PATH] [REQUESTS]
//! ```
//!
//! `OUT_PATH` defaults to `BENCH_<plane>.json`; `REQUESTS` defaults to
//! 1,000,000 for traffic and 600,000 for the other planes.
//!
//! Before any timing the binary asserts byte identity and aborts on
//! violation, so a recorded number can never come from a wrong result:
//! the report and its instrumented metrics registry must serialize
//! identically at 1, 2, and 4 worker threads and across chunk sizes, the
//! rendered campaign table must match byte for byte, and the timed
//! campaign must report no anomalies.
//!
//! | plane | headline |
//! |-------|----------|
//! | traffic | the request ledger: availability, drops, SLO violations, p99/p999 |
//! | micro | transient TTR p50, restart over microreboot |
//! | oblivious | EI rescue ratio of discard, oracle violations of manufacture |
//! | graph | sticky-wedge TTR p50, process over channel; peak amplification |

use faultstudy_exec::ParallelSpec;
use faultstudy_harness::driver::{self, OpenLoopPlane};
use faultstudy_harness::{GraphReport, MicroReport, ObliviousReport, OpenLoopSpec, TrafficReport};
use faultstudy_traffic::ArrivalKind;
use serde_json::{json, Value};
use std::borrow::Cow;
use std::time::Instant;

const SEED: u64 = 2000;
const REPS: u32 = 3;

fn thread_counts(host: usize) -> Vec<usize> {
    let mut counts = vec![1, 2, 4, host];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Best-of-`REPS` wall-clock seconds for `f`.
fn time_best<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn spec(requests: u64) -> OpenLoopSpec {
    OpenLoopSpec { seed: SEED, requests, arrival: ArrivalKind::Poisson }
}

/// Asserts that the campaign is a pure function of its spec at every
/// thread count about to be timed, and across chunk sizes.
fn assert_byte_identity<P: OpenLoopPlane>(counts: &[usize], requests: u64) {
    let (reference, reference_registry) =
        driver::run::<P>(spec(requests), ParallelSpec::threads(1), true);
    let reference_json = serde_json::to_string(&reference).expect("report serializes");
    let mut specs: Vec<ParallelSpec> = counts.iter().map(|&t| ParallelSpec::threads(t)).collect();
    specs.push(ParallelSpec::threads(2).with_chunk(7));
    specs.push(ParallelSpec::threads(4).with_chunk(1));
    for parallel in specs {
        let (report, registry) = driver::run::<P>(spec(requests), parallel, true);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert_eq!(json, reference_json, "report diverged at {parallel:?}");
        assert_eq!(registry, reference_registry, "registry diverged at {parallel:?}");
        assert_eq!(report.to_string(), reference.to_string(), "rendered bytes diverged");
    }
    eprintln!(
        "byte-identity: report + registry identical at {counts:?} threads and across \
         chunk sizes ({requests} requests)"
    );
}

/// The trajectory array carried over from a previous run of this binary.
fn prior_trajectory(out_path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(out_path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    if let Some(Value::Seq(entries)) = doc.get("trajectory") {
        return entries.clone();
    }
    Vec::new()
}

/// Benchmarks plane `P` and writes its BENCH file.
fn bench<P: OpenLoopPlane>(name: &str, out_path: &str, requests: u64, identity_requests: u64) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counts = thread_counts(host);

    assert_byte_identity::<P>(&counts, identity_requests);

    let mut rows = Vec::new();
    let mut one_thread_rate = 0.0f64;
    for &threads in &counts {
        let parallel = ParallelSpec::threads(threads);
        let secs = time_best(|| {
            std::hint::black_box(driver::run::<P>(spec(requests), parallel, false));
        });
        let requests_per_sec = requests as f64 / secs;
        eprintln!("{name} {threads:>2} threads: {requests_per_sec:>12.0} simulated requests/sec");
        if threads == 1 {
            one_thread_rate = requests_per_sec;
        }
        rows.push(json!({
            "threads": threads,
            "seconds": secs,
            "requests_per_sec": requests_per_sec,
        }));
    }

    // One real run for the headline recorded next to the rates.
    let (report, _) = driver::run::<P>(spec(requests), ParallelSpec::threads(1), false);
    let anomalies = report.anomalies();
    assert!(anomalies.is_empty(), "bench campaign anomalies: {anomalies:?}");
    let headline = report.headline();
    let summary = serde_json::to_string(&headline.summary).expect("headline serializes");
    eprintln!("{}: {summary}", headline.section);

    let mut entry = vec![
        (Cow::from("requests"), json!(requests)),
        (Cow::from("requests_per_sec"), json!(one_thread_rate)),
    ];
    for &key in headline.tracked {
        let value = headline.summary.get(key).expect("tracked keys are in the summary");
        entry.push((Cow::from(key), value.clone()));
    }
    let mut trajectory = prior_trajectory(out_path);
    trajectory.push(Value::Map(entry));

    let doc = Value::Map(vec![
        (Cow::from("host_available_parallelism"), json!(host)),
        (Cow::from("seed"), json!(SEED)),
        (Cow::from("requests"), json!(requests)),
        (Cow::from("arrival"), json!("poisson")),
        (Cow::from("units"), json!(P::plans(&spec(requests)).len() * P::AXES[0] * P::AXES[1])),
        (
            Cow::from("identity"),
            json!("report + registry byte-identical at 1/2/4 threads and across chunk sizes"),
        ),
        (Cow::from(headline.section), headline.summary),
        (Cow::from("per_threads"), Value::Seq(rows)),
        (Cow::from("trajectory"), Value::Seq(trajectory)),
    ]);
    let rendered = serde_json::to_string_pretty(&doc).expect("bench doc serializes");
    std::fs::write(out_path, rendered + "\n").expect("write the BENCH file");
    eprintln!("wrote {out_path}");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let plane = args.next().unwrap_or_default();
    let out_path = args.next().unwrap_or_else(|| format!("BENCH_{plane}.json"));
    let requests = args.next().map(|v| v.parse::<u64>().expect("REQUESTS is a positive integer"));
    // (default campaign size, identity-check size) per plane.
    match plane.as_str() {
        "traffic" => {
            bench::<TrafficReport>("traffic", &out_path, requests.unwrap_or(1_000_000), 9_450);
        }
        "micro" => bench::<MicroReport>("micro", &out_path, requests.unwrap_or(600_000), 6_000),
        "oblivious" => {
            bench::<ObliviousReport>("oblivious", &out_path, requests.unwrap_or(600_000), 6_000);
        }
        "graph" => bench::<GraphReport>("graph", &out_path, requests.unwrap_or(600_000), 7_200),
        _ => {
            eprintln!(
                "usage: bench_campaign <traffic|micro|oblivious|graph> [OUT_PATH] [REQUESTS]"
            );
            std::process::exit(2);
        }
    }
}
