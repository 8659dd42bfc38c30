//! Cross-commit goldens for every campaign plane.
//!
//! The determinism suites compare a run only with itself, so they cannot
//! notice a change that moves bytes the same way at every thread count.
//! These pins can: each plane's report JSON, rendered `Display`,
//! instrumented registry JSON and, for the open-loop planes, the matching
//! `RecoveryMatrix::render_with_*` family hash to a constant recorded
//! before the campaign driver was shared between the planes. ROADMAP
//! item 1 (a log-linear histogram in place of the base-2 buckets) changes
//! the serialized histograms and will regenerate these hashes by design.

mod common;

use common::fnv1a64;
use faultstudy::exec::ParallelSpec;
use faultstudy::harness::{
    GraphReport, GraphSpec, InjectReport, InjectSpec, MicroReport, MicroSpec, ObliviousReport,
    ObliviousSpec, RecoveryMatrix, TrafficReport, TrafficSpec,
};
use faultstudy::obs::MetricsRegistry;
use faultstudy::traffic::ArrivalKind;
use std::fmt::Display;

const SEED: u64 = 2000;

/// The bytes one plane is pinned by, in a fixed order.
fn plane_bytes(
    report_json: serde_json::Result<String>,
    report: &dyn Display,
    registry: &MetricsRegistry,
    matrix_table: &str,
) -> Vec<u8> {
    let mut bytes = report_json.expect("report serializes").into_bytes();
    bytes.extend_from_slice(report.to_string().as_bytes());
    bytes.extend_from_slice(
        serde_json::to_string(registry).expect("registry serializes").as_bytes(),
    );
    bytes.extend_from_slice(matrix_table.as_bytes());
    bytes
}

fn inject(_: &RecoveryMatrix) -> Vec<u8> {
    let (report, registry) =
        InjectReport::run_instrumented(InjectSpec { seed: SEED }, ParallelSpec::AUTO);
    plane_bytes(serde_json::to_string(&report), &report, &registry, "")
}

fn traffic(matrix: &RecoveryMatrix) -> Vec<u8> {
    let spec = TrafficSpec { seed: SEED, requests: 3_780, arrival: ArrivalKind::Poisson };
    let (report, registry) = TrafficReport::run_instrumented(spec, ParallelSpec::AUTO);
    plane_bytes(
        serde_json::to_string(&report),
        &report,
        &registry,
        &matrix.render_with_slo(&report),
    )
}

fn micro(matrix: &RecoveryMatrix) -> Vec<u8> {
    let spec = MicroSpec { seed: SEED, requests: 3_600, arrival: ArrivalKind::Poisson };
    let (report, registry) = MicroReport::run_instrumented(spec, ParallelSpec::AUTO);
    plane_bytes(
        serde_json::to_string(&report),
        &report,
        &registry,
        &matrix.render_with_micro(&report),
    )
}

fn oblivious(matrix: &RecoveryMatrix) -> Vec<u8> {
    let spec = ObliviousSpec { seed: SEED, requests: 6_000, arrival: ArrivalKind::Poisson };
    let (report, registry) = ObliviousReport::run_instrumented(spec, ParallelSpec::AUTO);
    plane_bytes(
        serde_json::to_string(&report),
        &report,
        &registry,
        &matrix.render_with_oracle(&report),
    )
}

fn graph(matrix: &RecoveryMatrix) -> Vec<u8> {
    let spec = GraphSpec { seed: SEED, requests: 7_200, arrival: ArrivalKind::Poisson };
    let (report, registry) = GraphReport::run_instrumented(spec, ParallelSpec::AUTO);
    plane_bytes(
        serde_json::to_string(&report),
        &report,
        &registry,
        &matrix.render_with_graph(&report),
    )
}

/// A plane's pinned bytes, computed against the shared recovery matrix.
type PlaneBytes = fn(&RecoveryMatrix) -> Vec<u8>;

/// `(plane, bytes, recorded hash)` for every campaign plane.
const GOLDENS: [(&str, PlaneBytes, u64); 5] = [
    ("inject", inject, 0xc69d_1266_63ef_01e2),
    ("traffic", traffic, 0x051c_c6a1_b234_9f93),
    ("micro", micro, 0x8e0c_0ed9_9718_16ea),
    ("oblivious", oblivious, 0x3f3a_5ead_17a3_2460),
    ("graph", graph, 0xfd30_f3de_83a0_be73),
];

#[test]
fn every_plane_matches_its_recorded_golden() {
    let matrix = RecoveryMatrix::run(SEED);
    let mut changed = Vec::new();
    for (plane, bytes, recorded) in GOLDENS {
        let hash = fnv1a64(&bytes(&matrix));
        if hash != recorded {
            changed.push(format!("{plane}: {hash:#018x}, recorded {recorded:#018x}"));
        }
    }
    assert!(changed.is_empty(), "campaign bytes changed: {changed:?}");
}
