//! The one campaign driver every plane runs on.
//!
//! Every campaign plane — [`inject`](crate::inject),
//! [`traffic`](crate::traffic), [`micro`](crate::micro),
//! [`oblivious`](crate::oblivious) and [`graph`](crate::graph) — asks the
//! paper's question over a different recovery axis: for each fault
//! class, does the technique survive? Each crosses a plan suite with two
//! recovery axes; every `(plan, axis, axis)` triple is one *unit*. A
//! plane implements [`CampaignPlane`] — its plans, axes, one unit
//! function and its ledger hook; an open-loop plane adds its bench
//! headline through [`OpenLoopPlane`] — and [`run`] owns the rest, once
//! for all of them.
//!
//! Determinism: unit `index` is a pure function of
//! `split_seed(master, index)`, drawn from one batched [`SplitSeedStream`]
//! per chunk, and units fold in index order through [`run_chunk_fold`].
//! Reports and registries are therefore byte-identical at any thread
//! count and chunk size. A contract that spans units is checked on the
//! folded cells, after the fold, so it is thread-invariant too.

use faultstudy_exec::{run_chunk_fold, ParallelSpec};
use faultstudy_obs::MetricsRegistry;
use faultstudy_sim::rng::SplitSeedStream;
use faultstudy_traffic::{ArrivalKind, UnitStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of an open-loop campaign (traffic, micro, oblivious,
/// graph): the planes differ in what a unit is, not in how they are sized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopSpec {
    /// Master seed; the campaign is a pure function of it.
    pub seed: u64,
    /// Total requests offered across the whole campaign, spread evenly
    /// over the units (earlier units absorb the remainder).
    pub requests: u64,
    /// Arrival-process family for every unit.
    pub arrival: ArrivalKind,
}

impl Default for OpenLoopSpec {
    fn default() -> Self {
        OpenLoopSpec { seed: 1, requests: 20_000, arrival: ArrivalKind::Poisson }
    }
}

/// What the driver reads from a campaign's configuration.
pub trait RunSpec: Copy + Sync {
    /// The master seed; the campaign is a pure function of it.
    fn seed(&self) -> u64;
    /// Requests offered across the whole campaign; zero when every unit
    /// runs a fixed workload.
    fn requests(&self) -> u64;
}

impl RunSpec for OpenLoopSpec {
    fn seed(&self) -> u64 {
        self.seed
    }

    fn requests(&self) -> u64 {
        self.requests
    }
}

/// One unit of a campaign, as the driver hands it to
/// [`CampaignPlane::run_unit`].
#[derive(Debug, Clone, Copy)]
pub struct Unit<'a, Plan> {
    /// The unit's plan.
    pub plan: &'a Plan,
    /// Positions on the plane's two axes, outer first.
    pub axes: [usize; 2],
    /// Requests the unit offers (zero for a fixed-workload plane).
    pub requests: u64,
    /// `split_seed(master, index)`.
    pub seed: u64,
    /// Whether the caller asked for the merged metrics registry.
    pub instrumented: bool,
}

/// What a plane's bench records beside its throughput.
#[derive(Debug, Clone)]
pub struct Headline {
    /// The key the summary is written under in the plane's BENCH file.
    pub section: &'static str,
    /// The summary: a JSON object of the plane's tracked comparison.
    pub summary: serde_json::Value,
    /// Keys of `summary` that are also appended to the run-over-run
    /// trajectory.
    pub tracked: &'static [&'static str],
}

/// The per-plane part of a campaign; [`run`] does the rest. The report
/// itself implements the trait: it serializes, and renders as the
/// plane's table.
pub trait CampaignPlane: Serialize + fmt::Display + Sized {
    /// The campaign's configuration.
    type Spec: RunSpec;
    /// One plan of the plane's suite.
    type Plan: Sync;
    /// One unit's outcome.
    type Cell: Send;

    /// Sizes of the two axes crossed with every plan, outer first: unit
    /// `index` runs plan `index / (a * b)` at axis positions
    /// `(index % (a * b)) / b` and `index % b`.
    const AXES: [usize; 2];

    /// The plan suite, a pure function of `spec`.
    fn plans(spec: &Self::Spec) -> Vec<Self::Plan>;

    /// Runs one unit, returning its cell and, when instrumented, the
    /// non-empty registry its environment recorded.
    fn run_unit(
        spec: &Self::Spec,
        unit: Unit<'_, Self::Plan>,
    ) -> (Self::Cell, Option<MetricsRegistry>);

    /// Ledgers a finished unit into the campaign registry (instrumented
    /// runs only).
    fn ledger(registry: &mut MetricsRegistry, cell: &Self::Cell);

    /// The report over every cell, in unit-index order.
    fn assemble(spec: Self::Spec, cells: Vec<Self::Cell>) -> Self;

    /// Violations of the plane's class contract; empty on a healthy run.
    fn anomalies(&self) -> Vec<String>;
}

/// An open-loop plane (traffic, micro, oblivious, graph): sized by an
/// [`OpenLoopSpec`] and benchmarked by `bench_campaign`.
pub trait OpenLoopPlane: CampaignPlane<Spec = OpenLoopSpec> {
    /// The comparison the plane's bench tracks run over run.
    fn headline(&self) -> Headline;
}

/// Runs every unit of `P`'s campaign on `parallel` worker threads and
/// folds them in index order, returning the report and — when
/// `instrumented` — the merged registry (empty otherwise).
pub fn run<P: CampaignPlane>(
    spec: P::Spec,
    parallel: ParallelSpec,
    instrumented: bool,
) -> (P, MetricsRegistry) {
    struct Acc<C> {
        cells: Vec<C>,
        registry: MetricsRegistry,
    }
    let plans = P::plans(&spec);
    let [outer, inner] = P::AXES;
    let per_plan = outer * inner;
    let units = plans.len() * per_plan;
    let base_requests = spec.requests() / units as u64;
    let remainder = spec.requests() % units as u64;
    let acc = run_chunk_fold(
        units,
        parallel,
        || Acc { cells: Vec::new(), registry: MetricsRegistry::new() },
        |range, acc: &mut Acc<P::Cell>| {
            // One batched seed stream per chunk: it yields the same
            // `split_seed(master, index)` values without per-unit
            // rederivation.
            let mut seeds = SplitSeedStream::new(spec.seed(), range.start as u64);
            for index in range {
                let unit = Unit {
                    plan: &plans[index / per_plan],
                    axes: [(index % per_plan) / inner, index % inner],
                    requests: base_requests + u64::from((index as u64) < remainder),
                    seed: seeds.next_seed(),
                    instrumented,
                };
                let (cell, metrics) = P::run_unit(&spec, unit);
                if let Some(reg) = &metrics {
                    acc.registry.merge_from(reg);
                }
                if instrumented {
                    P::ledger(&mut acc.registry, &cell);
                }
                acc.cells.push(cell);
            }
        },
        |acc, later| {
            acc.cells.extend(later.cells);
            acc.registry.merge_from(&later.registry);
        },
    );
    (P::assemble(spec, acc.cells), acc.registry)
}

/// A report's inherent entry points — `run`, `run_with` and
/// `run_instrumented` — as thin calls into [`run`], so callers need not
/// import [`CampaignPlane`]. Doc comments before the report name describe
/// what its instrumented registry carries.
macro_rules! entry_points {
    ($(#[$registry:meta])* $report:ident($spec:ident)) => {
        impl $report {
            /// Runs the campaign with the host's available parallelism.
            pub fn run(spec: $spec) -> $report {
                Self::run_with(spec, ParallelSpec::default())
            }

            /// Runs the campaign on `parallel` worker threads.
            pub fn run_with(spec: $spec, parallel: ParallelSpec) -> $report {
                $crate::driver::run(spec, parallel, false).0
            }

            /// Runs the campaign with per-unit metrics enabled, returning
            /// the merged registry alongside the (unchanged) report.
            ///
            $(#[$registry])*
            pub fn run_instrumented(
                spec: $spec,
                parallel: ParallelSpec,
            ) -> ($report, MetricsRegistry) {
                $crate::driver::run(spec, parallel, true)
            }
        }
    };
}
pub(crate) use entry_points;

/// The seven request-ledger metric names under a plane's prefix, in the
/// order [`ledger_stats`] records them.
macro_rules! ledger_names {
    ($prefix:literal) => {
        [
            concat!($prefix, ".offered"),
            concat!($prefix, ".ok"),
            concat!($prefix, ".denied"),
            concat!($prefix, ".dropped"),
            concat!($prefix, ".slo.violations"),
            concat!($prefix, ".sim_nanos"),
            concat!($prefix, ".latency"),
        ]
    };
}
pub(crate) use ledger_names;

/// Records one unit's request ledger under `label`: the six counters and
/// the latency histogram named by [`ledger_names!`].
pub(crate) fn ledger_stats(
    registry: &mut MetricsRegistry,
    names: [&'static str; 7],
    label: &str,
    s: &UnitStats,
) {
    let [offered, ok, denied, dropped, slo, sim_nanos, latency] = names;
    registry.incr(offered, label, s.offered);
    registry.incr(ok, label, s.ok);
    registry.incr(denied, label, s.denied);
    registry.incr(dropped, label, s.dropped);
    registry.incr(slo, label, s.slo_violations);
    registry.incr(sim_nanos, label, s.sim_nanos);
    registry.merge_histogram(latency, label, s.latency.clone());
}

/// The `plan`/`mode` cell a class contract is checked on, or `None` —
/// recording why in `anomalies` — when it is missing or was offered no
/// requests, so an underpowered run cannot pass vacuously. Nothing is
/// allocated unless an anomaly is recorded.
pub(crate) fn contract_cell<'a, C>(
    anomalies: &mut Vec<String>,
    (plan, mode): (&str, &str),
    cell: Option<&'a C>,
    offered: fn(&C) -> u64,
) -> Option<&'a C> {
    match cell {
        None => anomalies.push(format!("{plan}/{mode}: contract cell missing")),
        Some(cell) if offered(cell) == 0 => {
            anomalies.push(format!("{plan}/{mode}: offered no requests, contract unchecked"));
        }
        Some(cell) => return Some(cell),
    }
    None
}

/// Folds request ledgers into one.
pub(crate) fn fold_stats<'a>(ledgers: impl Iterator<Item = &'a UnitStats>) -> UnitStats {
    let mut total = UnitStats::default();
    for stats in ledgers {
        total.absorb(stats);
    }
    total
}

/// Nanoseconds rendered as fractional milliseconds for the tables.
pub(crate) fn ms(nanos: Option<u64>) -> f64 {
    nanos.unwrap_or(0) as f64 / 1e6
}

/// The title line of an open-loop campaign table.
pub(crate) fn write_title(
    f: &mut fmt::Formatter<'_>,
    campaign: &str,
    spec: &OpenLoopSpec,
    units: usize,
) -> fmt::Result {
    writeln!(
        f,
        "{campaign} campaign: {} requests offered over {units} units ({} arrivals, seed {})",
        spec.requests,
        spec.arrival.name(),
        spec.seed
    )
}

/// The campaign-total line of an open-loop table, with or without the
/// SLO-violation count.
pub(crate) fn write_total(f: &mut fmt::Formatter<'_>, t: &UnitStats, slo: bool) -> fmt::Result {
    write!(
        f,
        "  total: {} offered, {} answered ({:.2}%), {} dropped",
        t.offered,
        t.answered(),
        100.0 * t.availability(),
        t.dropped
    )?;
    if slo {
        write!(f, ", {} SLO violations", t.slo_violations)?;
    }
    writeln!(f)
}

/// The closing line of every campaign table: the anomalies, or `clean`
/// when there are none.
pub(crate) fn write_verdict(
    f: &mut fmt::Formatter<'_>,
    anomalies: &[String],
    clean: &str,
) -> fmt::Result {
    if anomalies.is_empty() {
        writeln!(f, "  no anomalies: {clean}")
    } else {
        writeln!(f, "  ANOMALIES: {anomalies:?}")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::fmt::Debug;

    /// Asserts that `P`'s campaign is a pure function of `spec`: the plain
    /// report, or the instrumented report and registry, are identical at
    /// 2, 4 and 8 threads and at chunk size 7 to the one-thread run.
    pub(crate) fn assert_thread_invariant<P>(spec: P::Spec, instrumented: bool)
    where
        P: CampaignPlane + PartialEq + Debug,
    {
        let (reference, ref_registry) = run::<P>(spec, ParallelSpec::threads(1), instrumented);
        let specs = [
            ParallelSpec::threads(2),
            ParallelSpec::threads(4),
            ParallelSpec::threads(8),
            ParallelSpec::threads(2).with_chunk(7),
        ];
        for parallel in specs {
            let (report, registry) = run::<P>(spec, parallel, instrumented);
            assert_eq!(report, reference, "report diverged at {parallel:?}");
            assert_eq!(registry, ref_registry, "registry diverged at {parallel:?}");
        }
    }
}
