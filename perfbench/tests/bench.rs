//! The benchmark's own tests: decorator neutrality, self-time arithmetic,
//! the percentile rule, and smoke runs of the binary.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use faultstudy_exec::ParallelSpec;
use perfbench::calib;
use perfbench::redrive::redrive;
use perfbench::stats::{percentile, tail_percentile, Summary};
use perfbench::trace::{Coverage, Layer, Tracer};
use perfbench::traced::call_counts;
use perfbench::Workload;
use std::process::Command;

/// A small rep: four requests per unit.
fn small(w: Workload) -> u64 {
    w.units() as u64 * 4
}

#[test]
fn wrappers_are_neutral_on_a_small_unit_of_each_workload() {
    for w in Workload::ALL {
        let requests = small(w);
        let reference = w.run(3, requests, ParallelSpec::threads(1));
        for decorate in [false, true] {
            let tracer = Tracer::new();
            redrive(w, 3, requests, &reference, &tracer, decorate)
                .unwrap_or_else(|e| panic!("{} decorate={decorate}: {e}", w.name()));
            let totals = tracer.layer_totals();
            assert_eq!(totals[&Layer::Unit].calls, w.units() as u64, "{}", w.name());
            if decorate && w != Workload::Graph {
                assert!(totals[&Layer::Handle].calls >= requests, "{}", w.name());
                call_counts(&tracer.fold(), &reference, 1)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                // Counted as two reps, every unit is short of hook calls.
                assert!(call_counts(&tracer.fold(), &reference, 2).is_err(), "{}", w.name());
            }
        }
    }
}

#[test]
fn a_drifted_set_up_fails_the_cell_comparison() {
    let w = Workload::Traffic;
    let reference = w.run(3, small(w), ParallelSpec::threads(1));
    // Re-driving under another seed is a set-up that no longer matches
    // the campaign's: the very first unit must be refused.
    let err = redrive(w, 4, small(w), &reference, &Tracer::new(), true).unwrap_err();
    assert!(err.starts_with("unit 0:"), "{err}");
    let other = Workload::Graph.run(3, small(Workload::Graph), ParallelSpec::threads(1));
    assert!(redrive(w, 3, small(w), &other, &Tracer::new(), false).is_err());
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    // A parent span [0, 100) whose children, in start order, overlap:
    // their union is [10, 50) and [60, 100), 80 ns, so self time is 20 ns.
    let mut cover = Coverage::default();
    for (s, e) in [(10, 30), (20, 50), (60, 70), (65, 100)] {
        cover.add(s, e);
    }
    assert_eq!(100 - cover.covered(), 20);
    // A child nested in an earlier one covers nothing more.
    let mut cover = Coverage::default();
    for (s, e) in [(10, 90), (20, 30)] {
        cover.add(s, e);
    }
    assert_eq!(100 - cover.covered(), 20);
    // Abutting children cover their sum; none leave the whole span.
    let mut cover = Coverage::default();
    cover.add(0, 10);
    cover.add(10, 20);
    assert_eq!(100 - cover.covered(), 80);
    assert_eq!(100 - Coverage::default().covered(), 100);
}

#[test]
fn folded_self_times_account_for_nested_spans() {
    let tracer = Tracer::new();
    tracer.set_unit(0);
    tracer.span(Layer::Unit, || {
        tracer.span(Layer::Setup, || std::hint::black_box(vec![0u8; 64]));
        tracer.span(Layer::Engine, || {
            for _ in 0..100 {
                tracer.span(Layer::Strategy, || {
                    tracer.span(Layer::Handle, || std::hint::black_box(1 + 1));
                });
                tracer.span(Layer::Hook, || ());
            }
        });
    });
    let t = tracer.layer_totals();
    let self_sum: u64 = t.values().map(|f| f.self_ns).sum();
    assert_eq!(t[&Layer::Unit].busy_ns, self_sum);
    let engine_parts: u64 = [Layer::Engine, Layer::Strategy, Layer::Handle, Layer::Hook]
        .iter()
        .map(|l| t[l].self_ns)
        .sum();
    assert_eq!(t[&Layer::Engine].busy_ns, engine_parts);
    assert_eq!(
        t[&Layer::Strategy].busy_ns,
        t[&Layer::Strategy].self_ns + t[&Layer::Handle].busy_ns
    );
    assert_eq!((t[&Layer::Handle].calls, t[&Layer::Hook].calls), (100, 100));
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3, "only structural spans are kept");
    assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
}

#[test]
fn the_calibration_kernel_does_the_same_work_every_pass() {
    // The yardstick must not depend on anything but its own constants.
    let first = calib::kernel();
    assert_ne!(first, 0);
    assert_eq!(calib::kernel(), first);
    assert!(calib::timed() > 0.0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
}

#[test]
fn quartiles_match_the_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    assert_eq!(s.n, 10);
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 90.0), 90.9);
    assert_eq!(percentile(&sorted, 99.5), 100.0);
    assert_eq!(percentile(&sorted, 0.5), 1.0);
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let rest = &text[start..];
    let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_owned())
        .collect()
}

/// Runs the binary and returns its standard output, asserting success.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn result_line(stdout: &str) -> &str {
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    last
}

#[test]
fn smoke_run_prints_every_metric_in_benchmark_json() {
    let workloads = benchmark_names("workloads");
    assert_eq!(workloads, ["traffic", "graph", "oblivious"]);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = benchmark_names(section);
        assert!(!names.is_empty());
        let args = ["--workload", "oblivious", "--seconds", "0.1", "--trace", trace];
        let stdout = run(&args);
        let result = result_line(&stdout);
        for name in &names {
            assert!(result.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing");
        }
        assert_eq!(result.matches("\"value\"").count(), names.len(), "extra metrics: {result}");
        assert!(stdout.contains("host nproc="), "the host record is printed");
        assert!(stdout.contains("ledger: offered="), "the simulated ledger is printed");
    }
}

#[test]
fn a_second_seed_passes_the_same_output_check() {
    for w in Workload::ALL {
        let args = ["--workload", w.name(), "--seed", "7", "--seconds", "0.1", "--trace", "0"];
        let stdout = run(&args);
        result_line(&stdout);
        assert!(stdout.contains("output check: "), "{stdout}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in
        [&["--workload", "nope"][..], &["--seconds", "1"], &["--workload", "graph", "--trace", "2"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
