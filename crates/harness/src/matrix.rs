//! The corpus × strategy survival matrix — the end-to-end check of the
//! paper's thesis.
//!
//! The paper predicts (Tables 1–3 + §6): environment-independent faults
//! survive nothing; environment-dependent-nontransient faults survive no
//! purely generic strategy; environment-dependent-transient faults survive
//! generic retry-based recovery. Running every corpus fault under every
//! strategy turns that prediction into measurement.

use crate::experiment::{
    run_fault_experiment, run_fault_experiment_instrumented, FaultOutcome, StrategyKind,
};
use faultstudy_core::taxonomy::FaultClass;
use faultstudy_corpus::full_corpus;
use faultstudy_exec::{run_chunk_fold, ParallelSpec};
use faultstudy_obs::MetricsRegistry;
use faultstudy_sim::time::Duration;
use faultstudy_traffic::UnitStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Survival counts for one (class, strategy) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Experiments in the cell.
    pub total: u32,
    /// Experiments whose workload was eventually served.
    pub survived: u32,
}

impl Cell {
    /// Survival rate in [0, 1]; zero for an empty cell.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            f64::from(self.survived) / f64::from(self.total)
        }
    }
}

/// One (class, strategy) entry of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Fault class of the cell.
    pub class: FaultClass,
    /// Strategy of the cell.
    pub strategy: StrategyKind,
    /// Survival counts.
    pub cell: Cell,
}

/// The full survival matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryMatrix {
    seed: u64,
    cells: Vec<MatrixCell>,
    outcomes: Vec<FaultOutcome>,
}

impl RecoveryMatrix {
    /// Runs the whole corpus under every strategy with the given seed.
    pub fn run(seed: u64) -> RecoveryMatrix {
        Self::run_strategies(seed, &StrategyKind::ALL)
    }

    /// Runs the whole corpus under the given strategies only.
    pub fn run_strategies(seed: u64, strategies: &[StrategyKind]) -> RecoveryMatrix {
        Self::run_strategies_sampled(seed, strategies, false, ParallelSpec::SEQUENTIAL).0
    }

    /// Runs the whole corpus under every strategy across worker threads.
    ///
    /// The matrix is byte-identical to [`RecoveryMatrix::run`]: each
    /// experiment is keyed only by its `(fault, strategy)` index and the
    /// shared seed, and chunk partials merge in index order.
    pub fn run_parallel(seed: u64, parallel: ParallelSpec) -> RecoveryMatrix {
        Self::run_strategies_sampled(seed, &StrategyKind::ALL, false, parallel).0
    }

    /// Runs the whole corpus under every strategy with per-experiment
    /// metrics enabled, returning the merged registry alongside the
    /// (unchanged) matrix.
    ///
    /// The registry holds a time-to-recovery histogram per strategy
    /// (`recovery.ttr{<strategy>}`) and per `(class, strategy)` cell
    /// (`recovery.ttr.class{<class>/<strategy>}`); render them next to the
    /// survival columns with [`RecoveryMatrix::render_with_ttr`].
    pub fn run_instrumented(seed: u64) -> (RecoveryMatrix, MetricsRegistry) {
        Self::run_strategies_sampled(seed, &StrategyKind::ALL, true, ParallelSpec::SEQUENTIAL)
    }

    fn run_strategies_sampled(
        seed: u64,
        strategies: &[StrategyKind],
        instrumented: bool,
        parallel: ParallelSpec,
    ) -> (RecoveryMatrix, MetricsRegistry) {
        struct Acc {
            map: BTreeMap<(FaultClass, StrategyKind), Cell>,
            outcomes: Vec<FaultOutcome>,
            registry: MetricsRegistry,
        }
        let corpus = full_corpus();
        let acc = run_chunk_fold(
            corpus.len() * strategies.len(),
            parallel,
            || Acc { map: BTreeMap::new(), outcomes: Vec::new(), registry: MetricsRegistry::new() },
            |range, acc: &mut Acc| {
                for index in range {
                    let fault = &corpus[index / strategies.len()];
                    let strategy = strategies[index % strategies.len()];
                    let out = if instrumented {
                        let (out, reg) = run_fault_experiment_instrumented(fault, strategy, seed);
                        if !reg.is_empty() {
                            acc.registry.merge_from(&reg);
                        }
                        acc.registry.incr("experiment.total", strategy.name(), 1);
                        if out.survived {
                            acc.registry.incr("experiment.survived", strategy.name(), 1);
                        }
                        if out.recoveries > 0 {
                            acc.registry.incr(
                                "recovery.actions",
                                strategy.name(),
                                u64::from(out.recoveries),
                            );
                        }
                        out
                    } else {
                        run_fault_experiment(fault, strategy, seed)
                    };
                    let cell = acc.map.entry((out.class, strategy)).or_default();
                    cell.total += 1;
                    cell.survived += u32::from(out.survived);
                    acc.outcomes.push(out);
                }
            },
            |acc, later| {
                for (key, cell) in later.map {
                    let merged = acc.map.entry(key).or_default();
                    merged.total += cell.total;
                    merged.survived += cell.survived;
                }
                acc.outcomes.extend(later.outcomes);
                acc.registry.merge_from(&later.registry);
            },
        );
        let cells = acc
            .map
            .into_iter()
            .map(|((class, strategy), cell)| MatrixCell { class, strategy, cell })
            .collect();
        (RecoveryMatrix { seed, cells, outcomes: acc.outcomes }, acc.registry)
    }

    /// The seed the matrix was computed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One cell of the matrix.
    pub fn cell(&self, class: FaultClass, strategy: StrategyKind) -> Cell {
        self.cells
            .iter()
            .find(|c| c.class == class && c.strategy == strategy)
            .map(|c| c.cell)
            .unwrap_or_default()
    }

    /// Overall survival rate of one strategy across all 139 faults — the
    /// number to compare against the paper's 5–14% transient fraction.
    pub fn overall(&self, strategy: StrategyKind) -> Cell {
        let mut out = Cell::default();
        for class in FaultClass::ALL {
            let c = self.cell(class, strategy);
            out.total += c.total;
            out.survived += c.survived;
        }
        out
    }

    /// Every individual outcome.
    pub fn outcomes(&self) -> &[FaultOutcome] {
        &self.outcomes
    }

    /// Slugs of faults with the given class and strategy that survived
    /// (`survived = true`) or failed (`survived = false`).
    pub fn slugs_where(
        &self,
        class: FaultClass,
        strategy: StrategyKind,
        survived: bool,
    ) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.class == class && o.strategy == strategy && o.survived == survived)
            .map(|o| o.slug.as_str())
            .collect()
    }

    /// Renders the matrix with a time-to-recovery column per strategy,
    /// taken from the `recovery.ttr{<strategy>}` histograms of a registry
    /// produced by [`RecoveryMatrix::run_instrumented`]. Strategies that
    /// never recovered anything show `-`.
    pub fn render_with_ttr(&self, registry: &MetricsRegistry) -> String {
        let mut out = self.to_string();
        let _ = writeln!(out, "time to recovery (simulated, over recovered requests):");
        let _ = writeln!(
            out,
            "{:<22} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "strategy", "n", "p50", "p90", "p99", "p999", "max"
        );
        for strategy in StrategyKind::ALL {
            let row = match registry.histogram("recovery.ttr", strategy.name()) {
                Some(h) if h.count() > 0 => {
                    let at = |nanos: Option<u64>| duration(nanos).expect("nonempty");
                    [
                        h.count().to_string(),
                        at(h.p50()),
                        at(h.p90()),
                        at(h.p99()),
                        at(h.p999()),
                        at(h.max()),
                    ]
                }
                _ => ["0", "-", "-", "-", "-", "-"].map(str::to_owned),
            };
            let [n, p50, p90, p99, p999, max] = row;
            let _ = writeln!(
                out,
                "{:<22} {n:>6} {p50:>10} {p90:>10} {p99:>10} {p999:>10} {max:>10}",
                strategy.name()
            );
        }
        out
    }

    /// Renders the matrix with the microreboot comparison appended: per
    /// fault class, availability and median time-to-recovery under
    /// whole-process restart versus crash-only microreboot from the same
    /// open-loop traffic. The survival matrix measures what *generic*
    /// recovery can do; this family measures what the one deliberately
    /// application-aware axis — knowing which state a crash may discard —
    /// buys on top.
    pub fn render_with_micro(&self, micro: &crate::micro::MicroReport) -> String {
        use crate::micro::RecoveryMode;
        let mut out = self.to_string();
        let _ = writeln!(
            out,
            "microreboot vs whole-process restart (open-loop traffic, {} requests):",
            micro.spec.requests
        );
        let modes = &RecoveryMode::ALL;
        class_columns(&mut out, "availability", modes, RecoveryMode::name, |mode, class| {
            availability(&micro.class_stats(class, mode))
        });
        class_columns(&mut out, "ttr p50", modes, RecoveryMode::name, |mode, class| {
            duration(micro.class_ttr(class, mode).p50())
        });
        out
    }

    /// Renders the matrix with the distributed comparison appended: per
    /// fault class at the campaign's full retry budget, availability and
    /// median time-to-recovery under process-level supervision versus
    /// per-channel recovery on the service graph, plus the cascade line
    /// (faulted chains, channel resets, node restarts, peak downstream
    /// amplification). The survival matrix measures recovery of one
    /// process; these families measure what the same taxonomy costs once
    /// the fault rides the wire between processes.
    pub fn render_with_graph(&self, graph: &crate::graph::GraphReport) -> String {
        use crate::graph::GRAPH_BUDGETS;
        use faultstudy_graph::PlaneKind;
        let full = *GRAPH_BUDGETS.last().expect("sweep is nonempty");
        let mut out = self.to_string();
        let _ = writeln!(
            out,
            "per-channel recovery vs process supervision (service graph, {} requests, budget {}):",
            graph.spec.requests, full
        );
        let planes = &PlaneKind::ALL;
        class_columns(&mut out, "availability", planes, PlaneKind::name, |plane, class| {
            availability(&graph.class_stats(class, plane, full))
        });
        class_columns(&mut out, "ttr p50", planes, PlaneKind::name, |plane, class| {
            duration(graph.class_ttr(class, plane, full).p50())
        });
        let totals = graph.graph_totals();
        let _ = writeln!(
            out,
            "cascade: {} faulted chains, {} channel resets, {} node restarts, max amplification \
             {:.2}",
            totals.cascade_depth.count(),
            totals.channel_recoveries,
            totals.node_restarts,
            graph.max_amplification(full),
        );
        out
    }

    /// Renders the matrix with the oblivious-recovery column families
    /// per fault class, taken from an oblivious campaign: availability
    /// per heal mode, then the price of staying available — substitute
    /// answers handed out (visible discards + silent manufactured
    /// defaults) and correctness-oracle violations. The survival matrix
    /// says whether a strategy keeps an application alive; these
    /// families say which answers were wrong while it did.
    pub fn render_with_oracle(&self, oblivious: &crate::oblivious::ObliviousReport) -> String {
        use crate::oblivious::HealMode;
        let mut out = self.to_string();
        let _ = writeln!(
            out,
            "oblivious recovery vs restart (open-loop traffic, {} requests):",
            oblivious.spec.requests
        );
        // The cost families show `-` exactly where availability does.
        let costs = |mode, class| {
            let offered = oblivious.class_stats(class, mode).offered > 0;
            offered.then(|| oblivious.class_costs(class, mode))
        };
        let modes = &HealMode::ALL;
        class_columns(&mut out, "availability", modes, HealMode::name, |mode, class| {
            availability(&oblivious.class_stats(class, mode))
        });
        class_columns(&mut out, "substitutes", modes, HealMode::name, |mode, class| {
            costs(mode, class)
                .map(|(discarded, manufactured, _)| format!("{discarded}+{manufactured}"))
        });
        class_columns(&mut out, "oracle violations", modes, HealMode::name, |mode, class| {
            costs(mode, class).map(|(_, _, violations)| violations.to_string())
        });
        out
    }

    /// Renders the matrix with an SLO-miss column family per fault class,
    /// taken from a traffic campaign over the same strategies: the
    /// fraction of offered requests that were dropped or answered over
    /// the latency SLO. The survival matrix says whether a strategy keeps
    /// an application alive; this family says what the users experienced
    /// while it did.
    pub fn render_with_slo(&self, traffic: &crate::traffic::TrafficReport) -> String {
        let mut out = self.to_string();
        let _ =
            writeln!(out, "SLO misses under open-loop traffic (dropped + over-SLO, of offered):");
        let strategies = &StrategyKind::ALL;
        class_columns(&mut out, "strategy", strategies, StrategyKind::name, |strategy, class| {
            let stats = traffic.class_stats(class, strategy);
            (stats.offered > 0).then(|| format!("{:.2}%", 100.0 * stats.slo_miss_rate()))
        });
        out
    }
}

/// Appends one class-column block to `out`: a title row of
/// [`FaultClass::ALL`], then one row per key with each class's cell from
/// `cell`, or `-` where it has none.
fn class_columns<K: Copy>(
    out: &mut String,
    title: &str,
    keys: &[K],
    name: fn(K) -> &'static str,
    cell: impl Fn(K, FaultClass) -> Option<String>,
) {
    let _ = write!(out, "{title:<22}");
    for class in FaultClass::ALL {
        let _ = write!(out, " {:>14}", class.short());
    }
    let _ = writeln!(out);
    for &key in keys {
        let _ = write!(out, "{:<22}", name(key));
        for class in FaultClass::ALL {
            let _ = write!(out, " {:>14}", cell(key, class).as_deref().unwrap_or("-"));
        }
        let _ = writeln!(out);
    }
}

/// An availability cell, empty for a cell that was offered nothing.
fn availability(stats: &UnitStats) -> Option<String> {
    (stats.offered > 0).then(|| format!("{:.2}%", 100.0 * stats.availability()))
}

/// A simulated-duration cell, empty when nothing was measured.
fn duration(nanos: Option<u64>) -> Option<String> {
    nanos.map(|nanos| Duration::from_nanos(nanos).to_string())
}

impl fmt::Display for RecoveryMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Recovery matrix (seed {}): survived/total per fault class and strategy",
            self.seed
        )?;
        write!(f, "{:<22}", "strategy")?;
        for class in FaultClass::ALL {
            write!(f, " {:>14}", class.short())?;
        }
        writeln!(f, " {:>14}", "overall")?;
        for strategy in StrategyKind::ALL {
            write!(f, "{:<22}", strategy.name())?;
            for class in FaultClass::ALL {
                let c = self.cell(class, strategy);
                write!(f, " {:>14}", format!("{}/{}", c.survived, c.total))?;
            }
            let o = self.overall(strategy);
            writeln!(
                f,
                " {:>14}",
                format!("{}/{} ({:.0}%)", o.survived, o.total, o.rate() * 100.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One full-matrix computation shared by the assertions below.
    fn matrix() -> RecoveryMatrix {
        RecoveryMatrix::run(2000)
    }

    #[test]
    fn matrix_reproduces_the_papers_thesis() {
        let m = matrix();

        // Environment-independent faults survive nothing (Tables 1-3, §6.1).
        for strategy in StrategyKind::ALL {
            let c = m.cell(FaultClass::EnvironmentIndependent, strategy);
            assert_eq!(c.total, 113);
            assert_eq!(c.survived, 0, "{strategy} must not survive EI faults");
        }

        // Nontransient faults survive no purely generic strategy (§3).
        for strategy in StrategyKind::ALL.into_iter().filter(|s| s.is_generic()) {
            let c = m.cell(FaultClass::EnvDependentNonTransient, strategy);
            assert_eq!(c.total, 14);
            assert_eq!(c.survived, 0, "{strategy} must not survive EDN faults");
        }

        // Application knowledge recovers the self-inflicted EDN conditions.
        let app_specific = m.cell(FaultClass::EnvDependentNonTransient, StrategyKind::AppSpecific);
        assert_eq!(app_specific.survived, 4, "leak, 2x own-fd leaks, hostname rebind");

        // Transient faults survive retry-based generic recovery (§6.3).
        let restart = m.cell(FaultClass::EnvDependentTransient, StrategyKind::Restart);
        assert_eq!(restart.total, 12);
        assert!(restart.survived >= 10, "restart survived only {}", restart.survived);
        let progressive = m.cell(FaultClass::EnvDependentTransient, StrategyKind::Progressive);
        assert!(progressive.survived >= 11, "progressive survived {}", progressive.survived);

        // Without any recovery nothing survives.
        assert_eq!(m.overall(StrategyKind::None).survived, 0);

        // The headline: overall generic survival lands in the paper's
        // 5-14% transient band.
        let overall = m.overall(StrategyKind::Restart);
        let pct = overall.rate() * 100.0;
        assert!((5.0..=14.0).contains(&pct), "restart overall {pct:.1}% outside 5-14%");
    }

    #[test]
    fn fast_failover_underperforms_slow_restart_on_healing_conditions() {
        let m = matrix();
        let pair = m.cell(FaultClass::EnvDependentTransient, StrategyKind::ProcessPair);
        let restart = m.cell(FaultClass::EnvDependentTransient, StrategyKind::Restart);
        assert!(
            pair.survived < restart.survived,
            "pair {} !< restart {}",
            pair.survived,
            restart.survived
        );
    }

    #[test]
    fn display_renders_all_strategies() {
        let m = RecoveryMatrix::run_strategies(1, &[StrategyKind::None]);
        let text = m.to_string();
        assert!(text.contains("none"));
        assert!(text.contains("transient"));
        assert!(text.contains("0/113"));
    }

    #[test]
    fn instrumented_matrix_matches_plain_and_renders_ttr() {
        let plain = RecoveryMatrix::run(2000);
        let (m, registry) = RecoveryMatrix::run_instrumented(2000);
        assert_eq!(m, plain, "metrics must not perturb the matrix");
        // Retry strategies recovered transient faults, so their TTR columns
        // are populated; the baseline never recovers anything.
        assert!(registry.histogram("recovery.ttr", "restart").unwrap().count() > 0);
        assert!(registry.histogram("recovery.ttr", "none").is_none());
        let text = m.render_with_ttr(&registry);
        assert!(text.contains("time to recovery"));
        assert!(text.contains("restart"), "{text}");
        let none_row = text.lines().filter(|l| l.starts_with("none")).nth(1).unwrap_or_else(|| {
            text.lines().find(|l| l.starts_with("none") && l.contains('-')).expect("none TTR row")
        });
        assert!(none_row.contains('-'), "baseline shows empty TTR: {none_row}");
    }

    #[test]
    fn matrix_is_identical_at_every_thread_count() {
        let sequential = matrix();
        for threads in [2, 4, 8] {
            let parallel = RecoveryMatrix::run_parallel(2000, ParallelSpec::threads(threads));
            assert_eq!(parallel, sequential, "matrix diverged at {threads} threads");
        }
    }

    #[test]
    fn slugs_where_partitions_outcomes() {
        let m = RecoveryMatrix::run_strategies(3, &[StrategyKind::Restart]);
        let survived =
            m.slugs_where(FaultClass::EnvDependentTransient, StrategyKind::Restart, true);
        let failed = m.slugs_where(FaultClass::EnvDependentTransient, StrategyKind::Restart, false);
        assert_eq!(survived.len() + failed.len(), 12);
        assert!(survived.contains(&"apache-edt-02"));
    }
}
