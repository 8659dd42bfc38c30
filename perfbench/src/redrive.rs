//! Campaign units re-driven through the program's public constructors.
//!
//! Each workload's units are rebuilt exactly as the harness builds them,
//! in the same enumeration and seed order, and every re-driven unit's
//! cell must equal the cell of the campaign's own reference report. The
//! helpers below copy the harness's crate-private set-up (standard
//! environment budgets, supervisor config, request mix, heal-mode
//! strategies and the healer's probe); if either copy drifts, or a timing
//! decorator changes behaviour, the cells differ and the run fails.

use crate::trace::{Layer, TimedApp, TimedHook, TimedStrategy, Tracer};
use crate::workload::{Campaign, Workload};
use faultstudy_apps::{spawn_app, Application, Request};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::Environment;
use faultstudy_graph::{graph_plans, run_graph, PlaneKind, ServiceGraph};
use faultstudy_harness::experiment::StrategyKind;
use faultstudy_harness::graph::GRAPH_BUDGETS;
use faultstudy_harness::{
    micro_plans, GraphCell, GraphReport, HealMode, ObliviousCell, ObliviousReport, TrafficCell,
    TrafficReport,
};
use faultstudy_inject::{standard_plans, InjectionPlan, Injector};
use faultstudy_recovery::{
    BackoffPolicy, EnvHook, FailureProfile, ManufacturedValue, MicroReboot, Oblivious,
    ProfileHealer, RecoveryStrategy, RestartRetry, StateScrub, SupervisorConfig,
};
use faultstudy_sim::rng::{split_seed, SplitSeedStream};
use faultstudy_sim::time::Duration;
use faultstudy_traffic::{run_open_loop, ArrivalKind, TrafficParams, UnitStats};
use std::fmt::Debug;

const ARRIVAL: ArrivalKind = ArrivalKind::Poisson;

/// The harness's standard environment budgets.
pub fn standard_env(seed: u64, metrics: bool) -> Environment {
    Environment::builder()
        .seed(seed)
        .fd_limit(16)
        .proc_slots(8)
        .fs_capacity(256 * 1024)
        .max_file_size(64 * 1024)
        .metrics(metrics)
        .build()
}

/// The supervisor configuration of every open-loop unit.
pub fn traffic_config(backoff_seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        watchdog: Some(Duration::from_secs(4)),
        backoff: BackoffPolicy::new(
            Duration::from_millis(50),
            Duration::from_secs(2),
            backoff_seed,
        ),
        breaker_threshold: 0,
        scrub_every: 0,
        request_takes: Duration::from_micros(500),
    }
}

/// The request mix of an open-loop unit.
pub fn traffic_mix(app: &dyn Application, kind: AppKind, plan: &InjectionPlan) -> Vec<Request> {
    match kind {
        AppKind::Apache => {
            let trigger = app
                .trigger_request(&plan.companion_defect)
                .expect("every plan's companion defect has a trigger");
            vec![
                Request::new("GET /index.html"),
                Request::new("GET /index.html"),
                Request::new("GET /file"),
                Request::new("GET /file"),
                Request::new("AUTH admin"),
                Request::new("RESOLVE remote.example"),
                Request::new("SSL"),
                Request::new("BIND"),
                Request::new("KEEPALIVE 4"),
                trigger.clone(),
                trigger,
            ]
        }
        AppKind::Gnome => vec![
            Request::new("CLICK clock"),
            Request::new("CLICK desktop-background"),
            Request::new("OPEN desktop/readme.txt"),
            Request::new("OPEN-DISPLAY"),
            Request::new("PLAY-SOUND"),
            Request::new("LAUNCH"),
            Request::new("FORMULA (1+2)"),
        ],
        AppKind::Mysql => vec![
            Request::new("PING"),
            Request::new("PING"),
            Request::new("CONNECT"),
            Request::new("UNLOCK TABLES"),
            Request::new("FLUSH TABLES"),
        ],
    }
}

/// Requests unit `index` of `units` offers: an even share, with the
/// remainder on the earliest units.
fn share(requests: u64, units: usize, index: usize) -> u64 {
    requests / units as u64 + u64::from((index as u64) < requests % units as u64)
}

/// Everything an open-loop unit needs besides its strategy.
struct OpenLoopUnit {
    env: Environment,
    app: Box<dyn Application>,
    mix: Vec<Request>,
    injector: Injector,
    config: SupervisorConfig,
    params: TrafficParams,
    unit_seed: u64,
}

impl OpenLoopUnit {
    fn new(
        plan: &InjectionPlan,
        app_kind: AppKind,
        requests: u64,
        unit_seed: u64,
        metrics: bool,
    ) -> OpenLoopUnit {
        let mut env = standard_env(unit_seed, metrics);
        let mut app = spawn_app(app_kind, &mut env);
        if app_kind == AppKind::Apache {
            app.arm_defect(&plan.companion_defect)
                .expect("every plan's companion defect arms in MiniWeb");
        }
        let mix = traffic_mix(app.as_ref(), app_kind, plan);
        let injector = Injector::new(plan, &mut env);
        OpenLoopUnit {
            env,
            app,
            mix,
            injector,
            config: traffic_config(split_seed(unit_seed, 1)),
            params: TrafficParams::standard(ARRIVAL, requests),
            unit_seed,
        }
    }

    /// Runs the open-loop engine, with every trait object it drives
    /// wrapped in a timing decorator recording into `decorators`, if given.
    fn drive(
        &mut self,
        strategy: &mut dyn RecoveryStrategy,
        decorators: Option<&Tracer>,
    ) -> UnitStats {
        let (arrival_seed, session_master) =
            (split_seed(self.unit_seed, 2), split_seed(self.unit_seed, 3));
        let Some(tracer) = decorators else {
            return run_open_loop(
                self.app.as_mut(),
                &mut self.env,
                strategy,
                &self.config,
                Some(&mut self.injector),
                &self.mix,
                &self.params,
                arrival_seed,
                session_master,
            );
        };
        let mut app = TimedApp::new(self.app.as_mut(), tracer);
        let mut strategy = TimedStrategy::new(strategy, tracer);
        let mut hook = TimedHook::new(&mut self.injector as &mut dyn EnvHook, tracer);
        run_open_loop(
            &mut app,
            &mut self.env,
            &mut strategy,
            &self.config,
            Some(&mut hook),
            &self.mix,
            &self.params,
            arrival_seed,
            session_master,
        )
    }
}

fn same<T: PartialEq + Debug>(index: usize, got: &T, want: Option<&T>) -> Result<(), String> {
    match want {
        Some(want) if want == got => Ok(()),
        Some(want) => {
            Err(format!("unit {index}: re-driven cell {got:?} != campaign cell {want:?}"))
        }
        None => Err(format!("unit {index}: the campaign has no such cell")),
    }
}

/// Re-drives every unit of `reference`'s campaign inside one rep span,
/// comparing each cell with the reference.
///
/// # Errors
///
/// The first unit whose cell differs, or a reference of another workload.
pub fn redrive(
    workload: Workload,
    seed: u64,
    requests: u64,
    reference: &Campaign,
    tracer: &Tracer,
    decorate: bool,
) -> Result<(), String> {
    tracer.span(Layer::Rep, || match (workload, reference) {
        (Workload::Traffic, Campaign::Traffic(r)) => traffic(seed, requests, r, tracer, decorate),
        (Workload::Graph, Campaign::Graph(r)) => graph(seed, requests, r, tracer),
        (Workload::Oblivious, Campaign::Oblivious(r)) => {
            oblivious(seed, requests, r, tracer, decorate)
        }
        _ => Err(format!("the reference report is not a {} campaign", workload.name())),
    })
}

fn traffic(
    seed: u64,
    requests: u64,
    reference: &TrafficReport,
    tracer: &Tracer,
    decorate: bool,
) -> Result<(), String> {
    let plans = standard_plans(seed);
    let per_app = AppKind::ALL.len();
    let per_plan = StrategyKind::ALL.len() * per_app;
    let units = plans.len() * per_plan;
    let mut seeds = SplitSeedStream::new(seed, 0);
    for index in 0..units {
        let plan = &plans[index / per_plan];
        let kind = StrategyKind::ALL[(index % per_plan) / per_app];
        let app_kind = AppKind::ALL[index % per_app];
        let unit_seed = seeds.next_seed();
        tracer.set_unit(index as u32);
        let cell = tracer.span(Layer::Unit, || {
            let (mut unit, mut strategy) = tracer.span(Layer::Setup, || {
                let unit = OpenLoopUnit::new(
                    plan,
                    app_kind,
                    share(requests, units, index),
                    unit_seed,
                    false,
                );
                (unit, kind.build())
            });
            let stats = tracer
                .span(Layer::Engine, || unit.drive(strategy.as_mut(), decorate.then_some(tracer)));
            tracer.span(Layer::Finish, || TrafficCell {
                app: app_kind,
                plan: plan.name.clone(),
                class: plan.class,
                strategy: kind,
                injected: unit.injector.applied(),
                stats,
            })
        });
        same(index, &cell, reference.cells.get(index))?;
    }
    Ok(())
}

/// Retry budgets of the oblivious campaign's heal modes.
const RESTART_RETRIES: u32 = 3;
const SCRUB_RETRIES: u32 = 8;
const PROBE_REQUESTS: u64 = 96;

/// The healer's observation pass: a microreboot run of the same
/// `(plan, app)` on its own instrumented environment.
fn probe_profile(plan: &InjectionPlan, app_kind: AppKind, unit_seed: u64) -> FailureProfile {
    let probe_seed = split_seed(unit_seed, 5);
    let mut unit = OpenLoopUnit::new(plan, app_kind, PROBE_REQUESTS, probe_seed, true);
    let mut probe = MicroReboot::new(SCRUB_RETRIES, split_seed(probe_seed, 4));
    unit.drive(&mut probe, None);
    let registry = unit.env.metrics.take().expect("probe metrics were enabled");
    FailureProfile::from_registry(&registry)
}

fn heal_strategy(
    mode: HealMode,
    plan: &InjectionPlan,
    app_kind: AppKind,
    unit_seed: u64,
    tracer: &Tracer,
) -> Box<dyn RecoveryStrategy> {
    match mode {
        HealMode::Restart => Box::new(RestartRetry::new(RESTART_RETRIES)),
        HealMode::Oblivious => Box::new(Oblivious::new(RESTART_RETRIES).discard_after(0)),
        HealMode::Manufactured => Box::new(ManufacturedValue::new(0).with_defaults()),
        HealMode::Scrub => Box::new(StateScrub::new(SCRUB_RETRIES).with_scrub()),
        HealMode::Healer => {
            let profile = tracer.span(Layer::Probe, || probe_profile(plan, app_kind, unit_seed));
            Box::new(ProfileHealer::new(SCRUB_RETRIES, profile))
        }
    }
}

fn oblivious(
    seed: u64,
    requests: u64,
    reference: &ObliviousReport,
    tracer: &Tracer,
    decorate: bool,
) -> Result<(), String> {
    let plans = micro_plans(seed);
    let per_app = AppKind::ALL.len();
    let per_plan = HealMode::ALL.len() * per_app;
    let units = plans.len() * per_plan;
    let mut seeds = SplitSeedStream::new(seed, 0);
    for index in 0..units {
        let plan = &plans[index / per_plan];
        let mode = HealMode::ALL[(index % per_plan) / per_app];
        let app_kind = AppKind::ALL[index % per_app];
        let unit_seed = seeds.next_seed();
        tracer.set_unit(index as u32);
        let cell = tracer.span(Layer::Unit, || {
            let (mut unit, mut strategy) = tracer.span(Layer::Setup, || {
                let unit = OpenLoopUnit::new(
                    plan,
                    app_kind,
                    share(requests, units, index),
                    unit_seed,
                    true,
                );
                (unit, heal_strategy(mode, plan, app_kind, unit_seed, tracer))
            });
            let stats = tracer
                .span(Layer::Engine, || unit.drive(strategy.as_mut(), decorate.then_some(tracer)));
            tracer.span(Layer::Finish, || {
                let registry = unit.env.metrics.take().expect("metrics were enabled");
                let name = mode.name();
                let final_audit = unit.app.check_oracle(&unit.env).len() as u64;
                ObliviousCell {
                    app: app_kind,
                    plan: plan.name.clone(),
                    class: plan.class,
                    mode,
                    injected: unit.injector.applied(),
                    discarded: registry.counter("oblivious.discarded", name),
                    manufactured: registry.counter("oblivious.manufactured", name),
                    oracle_violations: registry.counter("oracle.violations", name) + final_audit,
                    stats,
                    ttr: registry.histogram("recovery.ttr", name).cloned().unwrap_or_default(),
                }
            })
        });
        same(index, &cell, reference.cells.get(index))?;
    }
    Ok(())
}

/// Graph units: `ServiceGraph` owns the nodes and their channels and
/// `run_graph` drives them internally, so the deepest reachable split is
/// set-up versus the `run_graph` call; channel, chain and restart-tree
/// costs are priced by the microbenches and the unit ledgers instead.
fn graph(seed: u64, requests: u64, reference: &GraphReport, tracer: &Tracer) -> Result<(), String> {
    let plans = graph_plans(seed);
    let per_plane = GRAPH_BUDGETS.len();
    let per_plan = PlaneKind::ALL.len() * per_plane;
    let units = plans.len() * per_plan;
    let mut seeds = SplitSeedStream::new(seed, 0);
    for index in 0..units {
        let plan = &plans[index / per_plan];
        let plane = PlaneKind::ALL[(index % per_plan) / per_plane];
        let budget = GRAPH_BUDGETS[index % per_plane];
        let unit_seed = seeds.next_seed();
        tracer.set_unit(index as u32);
        let cell = tracer.span(Layer::Unit, || {
            let (mut env, mut graph, params) = tracer.span(Layer::Setup, || {
                let mut env = standard_env(unit_seed, false);
                let graph = ServiceGraph::new(&mut env);
                (env, graph, TrafficParams::standard(ARRIVAL, share(requests, units, index)))
            });
            let stats = tracer.span(Layer::Engine, || {
                run_graph(
                    &mut env,
                    &mut graph,
                    plan,
                    plane,
                    budget,
                    &params,
                    split_seed(unit_seed, 1),
                    split_seed(unit_seed, 2),
                    split_seed(unit_seed, 3),
                )
            });
            tracer.span(Layer::Finish, || {
                let e = &stats.edges;
                GraphCell {
                    plan: plan.name.clone(),
                    class: plan.class,
                    kind: plan.kind,
                    plane,
                    budget,
                    fired: e.client_web.faults + e.web_db.faults + e.ide_web.faults,
                    stats,
                }
            })
        });
        same(index, &cell, reference.cells.get(index))?;
    }
    Ok(())
}
