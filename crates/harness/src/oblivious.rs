//! The oblivious-recovery campaign: failure-oblivious continuation and
//! self-healing measured against generic restart, priced by a
//! per-application correctness oracle.
//!
//! The microreboot campaign (see [`micro`](crate::micro)) showed what
//! application knowledge of *state* buys. This campaign asks the next
//! question in the paper's §8 lineage: what does giving up on
//! *correctness* buy? Each `(plan, mode, application)` unit offers the
//! same open-loop stream under five recovery modes:
//!
//! - `restart` — [`RestartRetry`], the generic baseline;
//! - `oblivious` — [`Oblivious`]: discard the failing request and keep
//!   serving (visible refusal, nothing dropped);
//! - `manufactured` — [`ManufacturedValue`]: synthesize a deterministic
//!   default answer (silent substitution);
//! - `statescrub` — [`StateScrub`]: drop volatile component state in
//!   place instead of restoring a checkpoint;
//! - `healer` — [`ProfileHealer`]: pick retry/scrub/discard per attempt
//!   from a failure profile observed in a deterministic microreboot
//!   probe of the same unit.
//!
//! After every recovery the supervisor evaluates the application's own
//! correctness oracle
//! ([`Application::check_oracle`](faultstudy_apps::Application::check_oracle)),
//! so each cell reports not just availability but the *silent-wrong-answer
//! cost* of staying available: substitutes manufactured and oracle
//! violations accrued. The campaign's physics, asserted as anomalies:
//! the environment-independent majority that retry never rescues *is*
//! survivable by going oblivious — at a wrong-answer cost the oracle
//! makes visible — while the state-leak slice is healed silently and
//! correctly by scrubbing alone.
//!
//! Units run on the shared [`driver`](crate::driver); the healer's probe
//! is a pure function of its unit, seeded from `split_seed(unit_seed, 5)`
//! on its own environment.

use crate::driver::{
    self, fold_stats, ledger_names, ledger_stats, CampaignPlane, Headline, OpenLoopPlane,
    OpenLoopSpec, Unit,
};
use crate::micro::{micro_plans, RESTART_RETRIES};
use crate::traffic::serve;
use faultstudy_core::taxonomy::{AppKind, FaultClass};
use faultstudy_exec::ParallelSpec;
use faultstudy_inject::InjectionPlan;
use faultstudy_obs::{Histogram, MetricsRegistry};
use faultstudy_recovery::{
    FailureProfile, ManufacturedValue, MicroReboot, Oblivious, ProfileHealer, RecoveryStrategy,
    RestartRetry, StateScrub,
};
use faultstudy_sim::rng::split_seed;
use faultstudy_traffic::{ArrivalKind, UnitStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Retry budget of the scrubbing modes. As in the microreboot campaign,
/// budgets are time-equivalent rather than attempt-equivalent: an
/// in-place scrub charges tens of milliseconds where a process restart
/// charges ~1 s, so eight scrub attempts cost less downtime than one
/// restart attempt.
const SCRUB_RETRIES: u32 = 8;

/// Requests the healer's microreboot probe offers on its own environment
/// before the measured run. Fixed so the probe cost — and the profile it
/// distills — is independent of the unit's measured load.
const PROBE_REQUESTS: u64 = 96;

/// Configuration of an oblivious-recovery campaign.
pub type ObliviousSpec = OpenLoopSpec;

/// The recovery mode of one campaign unit — the comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealMode {
    /// Whole-process restart from the last checkpoint ([`RestartRetry`]).
    Restart,
    /// Discard the failing request and keep serving ([`Oblivious`]).
    Oblivious,
    /// Serve a deterministic default instead ([`ManufacturedValue`]).
    Manufactured,
    /// Drop volatile component state in place ([`StateScrub`]).
    Scrub,
    /// Profile-guided retry/scrub/discard ([`ProfileHealer`]).
    Healer,
}

impl HealMode {
    /// Every mode, in enumeration order.
    pub const ALL: [HealMode; 5] = [
        HealMode::Restart,
        HealMode::Oblivious,
        HealMode::Manufactured,
        HealMode::Scrub,
        HealMode::Healer,
    ];

    /// The mode's strategy name as it appears in metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            HealMode::Restart => "restart",
            HealMode::Oblivious => "oblivious",
            HealMode::Manufactured => "manufactured",
            HealMode::Scrub => "statescrub",
            HealMode::Healer => "healer",
        }
    }

    /// Builds the mode's strategy for one unit. Only the healer looks at
    /// the plan: its profile comes from a deterministic microreboot probe
    /// of the same `(plan, app)` on a separate environment.
    fn build(
        self,
        plan: &InjectionPlan,
        app_kind: AppKind,
        arrival: ArrivalKind,
        unit_seed: u64,
    ) -> Box<dyn RecoveryStrategy> {
        match self {
            HealMode::Restart => Box::new(RestartRetry::new(RESTART_RETRIES)),
            HealMode::Oblivious => Box::new(Oblivious::new(RESTART_RETRIES).discard_after(0)),
            HealMode::Manufactured => Box::new(ManufacturedValue::new(0).with_defaults()),
            HealMode::Scrub => Box::new(StateScrub::new(SCRUB_RETRIES).with_scrub()),
            HealMode::Healer => {
                let profile = probe_profile(plan, app_kind, arrival, unit_seed);
                Box::new(ProfileHealer::new(SCRUB_RETRIES, profile))
            }
        }
    }
}

impl fmt::Display for HealMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The healer's observation pass: a short microreboot run of the same
/// `(plan, app)` on its own instrumented environment, distilled into a
/// [`FailureProfile`]. Seeded from `split_seed(unit_seed, 5)` so it is a
/// pure function of the unit and never perturbs the measured run.
fn probe_profile(
    plan: &InjectionPlan,
    app_kind: AppKind,
    arrival: ArrivalKind,
    unit_seed: u64,
) -> FailureProfile {
    let probe_seed = split_seed(unit_seed, 5);
    let mut probe = MicroReboot::new(SCRUB_RETRIES, split_seed(probe_seed, 4));
    let mut served = serve(plan, app_kind, &mut probe, PROBE_REQUESTS, arrival, probe_seed, true);
    let registry = served.env.metrics.take().expect("probe metrics were enabled");
    FailureProfile::from_registry(&registry)
}

/// One `(plan, mode, application)` unit of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObliviousCell {
    /// Application under load.
    pub app: AppKind,
    /// Injection plan name.
    pub plan: String,
    /// The paper class of the injected condition.
    pub class: FaultClass,
    /// Recovery mode under test.
    pub mode: HealMode,
    /// Injection events that came due and were applied.
    pub injected: usize,
    /// The unit's request ledger.
    pub stats: UnitStats,
    /// Time-to-recovery over the unit's recovered requests (simulated).
    pub ttr: Histogram,
    /// Requests answered with a visible discard substitute.
    pub discarded: u64,
    /// Requests answered with a silent manufactured default.
    pub manufactured: u64,
    /// Correctness-oracle violations: per-request checks recorded by the
    /// supervisor plus one end-of-unit audit of the final state.
    pub oracle_violations: u64,
}

/// Aggregate of one oblivious-recovery campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObliviousReport {
    /// The spec that produced this report.
    pub spec: ObliviousSpec,
    /// Every unit, in `(plan, mode, app)` enumeration order.
    pub cells: Vec<ObliviousCell>,
    /// Violations of the oblivious-recovery contract; must be empty for
    /// a campaign large enough to exercise every contract cell.
    pub anomalies: Vec<String>,
}

/// The campaign's class contract, checked on the folded cell set. Every
/// check pins one edge of the physics on the application whose defect
/// rides in the traffic mix (MiniWeb): the EI slice is rescued *only* by
/// the oblivious family and at visible cost, the state-leak slice is
/// healed silently by scrubbing, and a contract cell that was offered no
/// requests is itself an anomaly — an underpowered campaign must not
/// pass vacuously.
fn contract_anomalies(cells: &[ObliviousCell]) -> Vec<String> {
    let mut anomalies = Vec::new();
    let mut check =
        |plan: &str, mode: HealMode, what: &str, holds: &dyn Fn(&ObliviousCell) -> bool| {
            let cell =
                cells.iter().find(|c| c.plan == plan && c.mode == mode && c.app == AppKind::Apache);
            if driver::contract_cell(&mut anomalies, (plan, mode.name()), cell, |c| c.stats.offered)
                .is_some_and(|cell| !holds(cell))
            {
                anomalies.push(format!("{plan}/{}: {what}", mode.name()));
            }
        };
    // The EI control: a deterministic code defect in the mix.
    check(
        "ei-control",
        HealMode::Restart,
        "generic restart must keep dropping the EI trigger",
        &|c| c.stats.dropped > 0,
    );
    check(
        "ei-control",
        HealMode::Scrub,
        "scrubbing volatile state must not heal a code defect",
        &|c| c.stats.dropped > 0,
    );
    check("ei-control", HealMode::Oblivious, "discarding must answer every request", &|c| {
        c.stats.dropped == 0 && c.discarded > 0
    });
    check(
        "ei-control",
        HealMode::Manufactured,
        "manufacturing must answer every request at visible wrong-answer cost",
        &|c| c.stats.dropped == 0 && c.manufactured > 0,
    );
    check(
        "ei-control",
        HealMode::Healer,
        "a lost-heavy profile must route the healer to discard",
        &|c| c.stats.dropped == 0,
    );
    // The state leak: poisoned volatile state inside the checkpoint.
    check(
        "state-leak",
        HealMode::Restart,
        "the restored checkpoint must preserve the leak",
        &|c| c.stats.dropped > 0,
    );
    check(
        "state-leak",
        HealMode::Scrub,
        "the in-place scrub must heal the leak with no drops and no oracle violations",
        &|c| c.stats.dropped == 0 && c.oracle_violations == 0,
    );
    check(
        "state-leak",
        HealMode::Manufactured,
        "serving past the crash threshold must trip the correctness oracle",
        &|c| c.oracle_violations > 0,
    );
    check(
        "state-leak",
        HealMode::Healer,
        "a reboot-heavy profile must route the healer to scrub",
        &|c| c.stats.dropped == 0,
    );
    anomalies
}

impl CampaignPlane for ObliviousReport {
    type Spec = ObliviousSpec;
    type Plan = InjectionPlan;
    type Cell = ObliviousCell;

    /// Heal mode × application.
    const AXES: [usize; 2] = [HealMode::ALL.len(), AppKind::ALL.len()];

    fn plans(spec: &ObliviousSpec) -> Vec<InjectionPlan> {
        micro_plans(spec.seed)
    }

    /// Metrics are always enabled — the cell's TTR, substitute, and
    /// oracle counters come from the registry — so the plain and
    /// instrumented campaigns run the very same simulation.
    fn run_unit(
        spec: &ObliviousSpec,
        unit: Unit<'_, InjectionPlan>,
    ) -> (ObliviousCell, Option<MetricsRegistry>) {
        let mode = HealMode::ALL[unit.axes[0]];
        let app = AppKind::ALL[unit.axes[1]];
        let mut strategy = mode.build(unit.plan, app, spec.arrival, unit.seed);
        let mut served =
            serve(unit.plan, app, strategy.as_mut(), unit.requests, spec.arrival, unit.seed, true);
        let registry = served.env.metrics.take().expect("metrics were enabled");
        let name = mode.name();
        let ttr = registry.histogram("recovery.ttr", name).cloned().unwrap_or_default();
        // The end-of-unit audit catches corruption that no later success
        // re-checked — e.g. a unit whose final requests were all dropped.
        let final_audit = served.app.check_oracle(&served.env).len() as u64;
        let cell = ObliviousCell {
            app,
            plan: unit.plan.name.clone(),
            class: unit.plan.class,
            mode,
            injected: served.injected,
            discarded: registry.counter("oblivious.discarded", name),
            manufactured: registry.counter("oblivious.manufactured", name),
            oracle_violations: registry.counter("oracle.violations", name) + final_audit,
            stats: served.stats,
            ttr,
        };
        (cell, (unit.instrumented && !registry.is_empty()).then_some(registry))
    }

    /// Per-cell request ledgers, wrong-answer costs and TTR histograms
    /// under the `<class>/<mode>` label.
    fn ledger(registry: &mut MetricsRegistry, cell: &ObliviousCell) {
        let label = format!("{}/{}", cell.class.short(), cell.mode.name());
        ledger_stats(registry, ledger_names!("oblivious"), &label, &cell.stats);
        registry.incr("oblivious.substitute.discarded", &label, cell.discarded);
        registry.incr("oblivious.substitute.manufactured", &label, cell.manufactured);
        registry.incr("oblivious.oracle.violations", &label, cell.oracle_violations);
        registry.merge_histogram("oblivious.ttr.class", &label, cell.ttr.clone());
    }

    /// The contract spans modes, so it is checked on the complete fold —
    /// a pure function of the cells, hence thread-invariant.
    fn assemble(spec: ObliviousSpec, cells: Vec<ObliviousCell>) -> Self {
        let anomalies = contract_anomalies(&cells);
        ObliviousReport { spec, cells, anomalies }
    }

    fn anomalies(&self) -> Vec<String> {
        self.anomalies.clone()
    }
}

impl OpenLoopPlane for ObliviousReport {
    /// The fraction of the restart baseline's EI drops that the discard
    /// mode rescues, and the oracle violations the manufactured mode pays
    /// for the same rescue.
    fn headline(&self) -> Headline {
        let ei = FaultClass::EnvironmentIndependent;
        let restart = self.class_stats(ei, HealMode::Restart);
        let oblivious = self.class_stats(ei, HealMode::Oblivious);
        let rescued = restart.dropped.saturating_sub(oblivious.dropped);
        let rescue_ratio =
            if restart.dropped > 0 { rescued as f64 / restart.dropped as f64 } else { 0.0 };
        let (_, manufactured, oracle) = self.class_costs(ei, HealMode::Manufactured);
        let t = self.totals();
        Headline {
            section: "comparison",
            summary: serde_json::json!({
                "ei_restart_dropped": restart.dropped,
                "ei_oblivious_dropped": oblivious.dropped,
                "ei_rescue_ratio": rescue_ratio,
                "ei_manufactured_substitutes": manufactured,
                "ei_oracle_violations_manufactured": oracle,
                "offered": t.offered,
                "availability_pct": 100.0 * t.availability(),
                "dropped": t.dropped,
            }),
            tracked: &["ei_rescue_ratio", "ei_oracle_violations_manufactured"],
        }
    }
}

driver::entry_points! {
    /// The registry carries the per-cell ledgers (`oblivious.offered`,
    /// `oblivious.ok`, `oblivious.denied`, `oblivious.dropped`,
    /// `oblivious.slo.violations`, `oblivious.sim_nanos`,
    /// `oblivious.substitute.discarded`, `oblivious.substitute.manufactured`,
    /// `oblivious.oracle.violations`, `oblivious.latency`,
    /// `oblivious.ttr.class`) and everything the units' environments
    /// recorded.
    ObliviousReport(ObliviousSpec)
}

impl ObliviousReport {
    /// The unit for `(plan, mode, app)`, if the plan exists.
    pub fn cell(&self, plan: &str, mode: HealMode, app: AppKind) -> Option<&ObliviousCell> {
        self.cells.iter().find(|c| c.plan == plan && c.mode == mode && c.app == app)
    }

    fn class_cells(
        &self,
        class: FaultClass,
        mode: HealMode,
    ) -> impl Iterator<Item = &ObliviousCell> {
        self.cells.iter().filter(move |c| c.class == class && c.mode == mode)
    }

    /// The folded ledger of every unit of `class` under `mode`, across
    /// all plans and applications.
    pub fn class_stats(&self, class: FaultClass, mode: HealMode) -> UnitStats {
        fold_stats(self.class_cells(class, mode).map(|c| &c.stats))
    }

    /// The merged time-to-recovery histogram of every unit of `class`
    /// under `mode`.
    pub fn class_ttr(&self, class: FaultClass, mode: HealMode) -> Histogram {
        let mut total = Histogram::new();
        for cell in self.class_cells(class, mode) {
            total.merge_from(&cell.ttr);
        }
        total
    }

    /// `(discarded, manufactured, oracle violations)` summed over every
    /// unit of `class` under `mode` — the wrong-answer column family.
    pub fn class_costs(&self, class: FaultClass, mode: HealMode) -> (u64, u64, u64) {
        self.class_cells(class, mode).fold((0, 0, 0), |(d, m, o), c| {
            (d + c.discarded, m + c.manufactured, o + c.oracle_violations)
        })
    }

    /// The folded ledger of the whole campaign.
    pub fn totals(&self) -> UnitStats {
        fold_stats(self.cells.iter().map(|c| &c.stats))
    }
}

impl fmt::Display for ObliviousReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        driver::write_title(f, "Oblivious-recovery", &self.spec, self.cells.len())?;
        writeln!(
            f,
            "  {:<12} {:<13} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9}",
            "class", "mode", "offered", "avail%", "dropped", "discard", "manuf", "oracle"
        )?;
        for class in FaultClass::ALL {
            for mode in HealMode::ALL {
                let s = self.class_stats(class, mode);
                if s.offered == 0 {
                    continue;
                }
                let (discarded, manufactured, oracle) = self.class_costs(class, mode);
                writeln!(
                    f,
                    "  {:<12} {:<13} {:>9} {:>7.2} {:>9} {:>9} {:>9} {:>9}",
                    class.short(),
                    mode.name(),
                    s.offered,
                    100.0 * s.availability(),
                    s.dropped,
                    discarded,
                    manufactured,
                    oracle,
                )?;
            }
        }
        driver::write_total(f, &self.totals(), false)?;
        let clean = "rescue and wrong-answer costs matched the class contract";
        driver::write_verdict(f, &self.anomalies, clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> ObliviousSpec {
        // 6000 / 150 units = 40 requests per unit, exactly.
        ObliviousSpec { seed, requests: 6_000, arrival: ArrivalKind::Poisson }
    }

    #[test]
    fn campaign_enumerates_every_plan_mode_app() {
        let report = ObliviousReport::run(small_spec(1));
        assert_eq!(report.cells.len(), 10 * 5 * 3);
        assert_eq!(report.totals().offered, 6_000);
        assert!(report.cells.iter().all(|c| c.stats.offered == 40));
        for mode in HealMode::ALL {
            for app in AppKind::ALL {
                assert!(report.cell("state-leak", mode, app).is_some(), "{mode} {app:?}");
            }
        }
    }

    #[test]
    fn campaign_upholds_the_oblivious_contract() {
        let report = ObliviousReport::run(small_spec(1));
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
    }

    #[test]
    fn reports_are_reproducible_and_thread_invariant() {
        driver::tests::assert_thread_invariant::<ObliviousReport>(small_spec(7), false);
    }

    #[test]
    fn the_ei_slice_is_rescued_only_by_going_oblivious() {
        let report = ObliviousReport::run(small_spec(1));
        let restart = report.cell("ei-control", HealMode::Restart, AppKind::Apache).unwrap();
        let scrub = report.cell("ei-control", HealMode::Scrub, AppKind::Apache).unwrap();
        let oblivious = report.cell("ei-control", HealMode::Oblivious, AppKind::Apache).unwrap();
        let manufactured =
            report.cell("ei-control", HealMode::Manufactured, AppKind::Apache).unwrap();
        // Neither retry nor state surgery touches a deterministic defect.
        assert!(restart.stats.dropped > 0);
        assert!(scrub.stats.dropped > 0);
        // Giving up on the request — or on its correctness — does.
        assert_eq!(oblivious.stats.dropped, 0);
        assert!(oblivious.discarded > 0);
        assert_eq!(manufactured.stats.dropped, 0);
        assert!(manufactured.manufactured > 0, "silent substitutes must be counted");
    }

    #[test]
    fn the_state_leak_is_healed_silently_only_by_scrubbing() {
        let report = ObliviousReport::run(small_spec(1));
        let restart = report.cell("state-leak", HealMode::Restart, AppKind::Apache).unwrap();
        let scrub = report.cell("state-leak", HealMode::Scrub, AppKind::Apache).unwrap();
        let manufactured =
            report.cell("state-leak", HealMode::Manufactured, AppKind::Apache).unwrap();
        assert!(restart.stats.dropped > 0, "the checkpoint preserves the leak");
        assert_eq!(scrub.stats.dropped, 0, "the in-place scrub heals it");
        assert_eq!(scrub.oracle_violations, 0, "and correctly so");
        assert!(
            manufactured.oracle_violations > 0,
            "plowing ahead serves past the crash threshold"
        );
    }

    #[test]
    fn instrumented_campaign_reproduces_the_plain_report() {
        let spec = small_spec(5);
        let plain = ObliviousReport::run(spec);
        let (report, registry) = ObliviousReport::run_instrumented(spec, ParallelSpec::default());
        assert_eq!(report, plain, "instrumentation must not perturb the campaign");
        let mut offered = 0;
        let mut oracle = 0;
        for class in FaultClass::ALL {
            for mode in HealMode::ALL {
                let label = format!("{}/{}", class.short(), mode.name());
                offered += registry.counter("oblivious.offered", &label);
                oracle += registry.counter("oblivious.oracle.violations", &label);
            }
        }
        assert_eq!(offered, report.totals().offered);
        let cell_oracle: u64 = report.cells.iter().map(|c| c.oracle_violations).sum();
        assert_eq!(oracle, cell_oracle);
        assert!(oracle > 0, "the campaign must exercise the correctness oracle");
    }

    #[test]
    fn instrumented_registry_is_identical_across_thread_counts() {
        driver::tests::assert_thread_invariant::<ObliviousReport>(small_spec(2), true);
    }

    #[test]
    fn underpowered_campaigns_report_anomalies_instead_of_passing() {
        // One request per unit cannot exercise the contract cells.
        let spec = ObliviousSpec { seed: 1, requests: 150, arrival: ArrivalKind::Poisson };
        let report = ObliviousReport::run(spec);
        assert!(!report.anomalies.is_empty(), "a vacuous campaign must not look healthy");
    }

    #[test]
    fn display_renders_the_cost_table() {
        let report = ObliviousReport::run(small_spec(4));
        let text = report.to_string();
        assert!(text.contains("oracle"));
        assert!(text.contains("manufactured"));
        assert!(text.contains("statescrub"));
        assert!(text.contains("total:"));
        assert!(text.contains("no anomalies"));
    }
}
