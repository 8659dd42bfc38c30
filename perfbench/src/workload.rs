//! The three campaign workloads and the output check that gates timing.

use faultstudy_core::taxonomy::FaultClass;
use faultstudy_exec::ParallelSpec;
use faultstudy_graph::PlaneKind;
use faultstudy_harness::graph::GRAPH_BUDGETS;
use faultstudy_harness::{
    GraphReport, GraphSpec, ObliviousReport, ObliviousSpec, TrafficReport, TrafficSpec,
};
use faultstudy_obs::MetricsRegistry;
use faultstudy_traffic::{ArrivalKind, UnitStats};
use std::fmt::Write as _;
use std::time::Instant;

/// One named workload: a whole campaign plane run as a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `TrafficReport`: 9 injection plans × 7 strategies × 3 apps.
    Traffic,
    /// `GraphReport`: 12 IPC fault kinds × 2 planes × 3 retry budgets.
    Graph,
    /// `ObliviousReport`: 10 plans × 5 heal modes × 3 apps.
    Oblivious,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Traffic, Workload::Graph, Workload::Oblivious];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Traffic => "traffic",
            Workload::Graph => "graph",
            Workload::Oblivious => "oblivious",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units per campaign.
    pub fn units(self) -> usize {
        match self {
            Workload::Traffic => 189,
            Workload::Graph => 72,
            Workload::Oblivious => 150,
        }
    }

    /// Requests one rep offers. Sized so a rep takes roughly 50–100 ms of
    /// host time at one thread, long enough to amortize the clock reads
    /// and short enough for a median over a hundred reps.
    pub fn requests(self) -> u64 {
        let per_unit = match self {
            Workload::Traffic => 400,
            Workload::Graph => 600,
            Workload::Oblivious => 400,
        };
        self.units() as u64 * per_unit
    }

    /// Generates the workload's plans, as each rep does internally;
    /// returns how many there are.
    pub fn plans(self, seed: u64) -> usize {
        match self {
            Workload::Traffic => faultstudy_inject::standard_plans(seed).len(),
            Workload::Graph => faultstudy_graph::graph_plans(seed).len(),
            Workload::Oblivious => faultstudy_harness::micro_plans(seed).len(),
        }
    }

    /// Runs one campaign rep.
    pub fn run(self, seed: u64, requests: u64, parallel: ParallelSpec) -> Campaign {
        let arrival = ArrivalKind::Poisson;
        match self {
            Workload::Traffic => Campaign::Traffic(TrafficReport::run_with(
                TrafficSpec { seed, requests, arrival },
                parallel,
            )),
            Workload::Graph => Campaign::Graph(GraphReport::run_with(
                GraphSpec { seed, requests, arrival },
                parallel,
            )),
            Workload::Oblivious => Campaign::Oblivious(ObliviousReport::run_with(
                ObliviousSpec { seed, requests, arrival },
                parallel,
            )),
        }
    }

    /// One timed rep of [`Workload::requests`] at one worker thread: its
    /// host seconds, and whether its report equals `reference` with no
    /// anomalies, checked after the clock stops.
    pub fn timed_rep(self, seed: u64, reference: &Campaign) -> (f64, bool) {
        let start = Instant::now();
        let report = self.run(seed, self.requests(), ParallelSpec::threads(1));
        let elapsed = start.elapsed().as_secs_f64();
        (elapsed, report == *reference && report.anomalies().is_empty())
    }

    /// Runs one campaign rep with the metrics registry.
    pub fn run_instrumented(
        self,
        seed: u64,
        requests: u64,
        parallel: ParallelSpec,
    ) -> (Campaign, MetricsRegistry) {
        let arrival = ArrivalKind::Poisson;
        match self {
            Workload::Traffic => {
                let (r, reg) = TrafficReport::run_instrumented(
                    TrafficSpec { seed, requests, arrival },
                    parallel,
                );
                (Campaign::Traffic(r), reg)
            }
            Workload::Graph => {
                let (r, reg) =
                    GraphReport::run_instrumented(GraphSpec { seed, requests, arrival }, parallel);
                (Campaign::Graph(r), reg)
            }
            Workload::Oblivious => {
                let (r, reg) = ObliviousReport::run_instrumented(
                    ObliviousSpec { seed, requests, arrival },
                    parallel,
                );
                (Campaign::Oblivious(r), reg)
            }
        }
    }
}

/// The report of one campaign rep.
#[derive(Debug, Clone, PartialEq)]
pub enum Campaign {
    /// A traffic campaign.
    Traffic(TrafficReport),
    /// A graph campaign.
    Graph(GraphReport),
    /// An oblivious-recovery campaign.
    Oblivious(ObliviousReport),
}

impl Campaign {
    /// The report serialized to JSON.
    pub fn json(&self) -> String {
        let json = match self {
            Campaign::Traffic(r) => serde_json::to_string(r),
            Campaign::Graph(r) => serde_json::to_string(r),
            Campaign::Oblivious(r) => serde_json::to_string(r),
        };
        json.expect("campaign reports serialize")
    }

    /// The rendered campaign table.
    pub fn table(&self) -> String {
        match self {
            Campaign::Traffic(r) => r.to_string(),
            Campaign::Graph(r) => r.to_string(),
            Campaign::Oblivious(r) => r.to_string(),
        }
    }

    /// The campaign's own contract violations.
    pub fn anomalies(&self) -> Vec<String> {
        match self {
            Campaign::Traffic(r) => r.anomalies(),
            Campaign::Graph(r) => r.anomalies(),
            Campaign::Oblivious(r) => r.anomalies.clone(),
        }
    }

    /// The folded request ledger of the whole campaign.
    pub fn totals(&self) -> UnitStats {
        match self {
            Campaign::Traffic(r) => r.totals(),
            Campaign::Graph(r) => r.totals(),
            Campaign::Oblivious(r) => r.totals(),
        }
    }

    /// The simulated ledger, printed by name as a checked output. Every
    /// value is simulated time or a count, never host time.
    pub fn ledger(&self) -> String {
        let t = self.totals();
        let mut line = format!(
            "offered={} availability={:.6} dropped={} slo_violations={} failures={} recoveries={}",
            t.offered,
            t.availability(),
            t.dropped,
            t.slo_violations,
            t.failures,
            t.recoveries
        );
        match self {
            Campaign::Traffic(_) => {}
            Campaign::Graph(r) => {
                let full = *GRAPH_BUDGETS.last().expect("budget sweep is nonempty");
                for plane in PlaneKind::ALL {
                    let p50 = r.class_ttr(FaultClass::EnvDependentNonTransient, plane, full).p50();
                    let _ = write!(
                        line,
                        " sticky_wedge_ttr_p50_ns.{}={}",
                        plane.name(),
                        p50.map_or("-".to_owned(), |v| v.to_string())
                    );
                }
            }
            Campaign::Oblivious(r) => {
                let oracle: u64 = r.cells.iter().map(|c| c.oracle_violations).sum();
                let _ = write!(line, " oracle_violations={oracle}");
            }
        }
        line
    }
}

/// The parallel settings the output check compares: 1 and 2 worker
/// threads, and two explicit chunk sizes at 2 threads (at 1 thread the
/// fold runs sequentially and never chunks).
pub const CHECK_SPECS: [ParallelSpec; 4] = [
    ParallelSpec::threads(1),
    ParallelSpec::threads(2),
    ParallelSpec::threads(2).with_chunk(1),
    ParallelSpec::threads(2).with_chunk(7),
];

/// The output check that runs before any timing: the report JSON, the
/// metrics registry and the rendered table must be byte-identical at
/// every [`CHECK_SPECS`] setting, the plain run must reproduce the
/// instrumented report, and the campaign must report no anomalies.
/// Returns the reference report every timed rep must equal.
///
/// # Errors
///
/// A description of the first divergence or the anomalies found.
pub fn output_check(workload: Workload, seed: u64) -> Result<Campaign, String> {
    let requests = workload.requests();
    let (reference, registry) = workload.run_instrumented(seed, requests, CHECK_SPECS[0]);
    let json = reference.json();
    let reg_json = serde_json::to_string(&registry).expect("registries serialize");
    let table = reference.table();
    for parallel in &CHECK_SPECS[1..] {
        let (report, reg) = workload.run_instrumented(seed, requests, *parallel);
        if report.json() != json {
            return Err(format!("report JSON diverged at {parallel:?}"));
        }
        if serde_json::to_string(&reg).expect("registries serialize") != reg_json {
            return Err(format!("metrics registry diverged at {parallel:?}"));
        }
        if report.table() != table {
            return Err(format!("rendered table diverged at {parallel:?}"));
        }
    }
    if workload.run(seed, requests, CHECK_SPECS[0]) != reference {
        return Err("the plain run diverged from the instrumented run".to_owned());
    }
    let anomalies = reference.anomalies();
    if !anomalies.is_empty() {
        return Err(format!("campaign anomalies: {anomalies:?}"));
    }
    Ok(reference)
}
