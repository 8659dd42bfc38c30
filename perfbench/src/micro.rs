//! `ns_per_op` microbenches: tight loops of public calls, one per layer
//! the traced campaign cannot split further from outside.
//!
//! Each bench runs a fixed number of operations five times and reports
//! the median nanoseconds per operation; allocation counts come from one
//! further, untimed pass under the counting allocator.

use crate::alloc;
use crate::redrive::{standard_env, traffic_config, traffic_mix};
use crate::stats::median;
use crate::{metric, Metric};
use faultstudy_apps::{spawn_app, Application, Request};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_exec::{run_chunk_fold, ParallelSpec};
use faultstudy_graph::{Channel, ChannelFaultKind, Leg, Persistence, GRAPH_COMPONENTS};
use faultstudy_inject::standard_plans;
use faultstudy_obs::{Histogram, MetricsRegistry};
use faultstudy_recovery::{NoRecovery, RequestSupervisor, RestartTree, ServeOutcome};
use faultstudy_sim::time::{Duration, SimTime};
use faultstudy_sim::wheel::TimingWheel;
use std::hint::black_box;
use std::time::Instant;

const RUNS: usize = 5;

/// Shrinks every loop of a short run by the same share.
#[derive(Debug, Clone, Copy)]
struct Scale(f64);

impl Scale {
    /// `ops` scaled, at least one.
    fn ops(self, ops: u64) -> u64 {
        ((ops as f64 * self.0) as u64).max(1)
    }
}

/// Median nanoseconds per operation of `op` over [`RUNS`] runs of `ops`
/// operations each; `op` receives the operation index.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        for i in 0..ops {
            op(black_box(i));
        }
        samples.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// Allocations per operation over one untimed pass of `ops` operations.
fn allocs_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let ((), count) = alloc::counted(|| {
        for i in 0..ops {
            op(black_box(i));
        }
    });
    count.allocs as f64 / ops as f64
}

/// A deterministic pseudo-random stream for bench inputs.
fn mix64(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A wheel holding `pending` events whose steady-state operation pops the
/// earliest event and schedules one `delta(i)` after it.
fn wheel_bench(s: Scale, pending: u64, delta: impl Fn(u64) -> u64) -> (f64, f64) {
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    for i in 0..pending {
        wheel.schedule(SimTime::from_nanos(delta(i)), i);
    }
    let mut op = |i: u64| {
        let (at, item) = wheel.pop().expect("the wheel stays populated");
        wheel.schedule(at.saturating_add(Duration::from_nanos(delta(i))), black_box(item));
    };
    let ns = ns_per_op(s.ops(200_000), &mut op);
    (ns, allocs_per_op(s.ops(100_000), &mut op))
}

/// `TimingWheel::schedule` + `pop` pairs inside the 2^36 ns horizon and
/// past it, and allocations per in-horizon pair.
fn sim_wheel(s: Scale) -> Vec<Metric> {
    // Think times and arrival gaps: 1 µs to ~0.13 s ahead.
    let (inside, allocs) = wheel_bench(s, 1024, |i| 1_000 + mix64(i) % (1 << 27));
    // Backlogged units schedule beyond the horizon.
    let (overflow, _) = wheel_bench(s, 1024, |i| (1 << 37) + mix64(i) % (1 << 36));
    vec![
        metric("sim.wheel.schedule_pop_ns", "ns", inside),
        metric("sim.wheel.overflow_ns", "ns", overflow),
        metric("sim.wheel.allocs_per_op", "allocs/op", allocs),
    ]
}

/// One engine transfer on a channel: send, consult the fault state,
/// receive.
fn transfer(ch: &mut Channel) -> bool {
    let _ = ch.send("GET /index.html");
    let fault = ch.fault_for(Leg::Request);
    black_box(ch.recv());
    fault.is_some()
}

/// `Channel` transfers healthy and faulted, resets, and allocations per
/// send.
fn graph_channel(s: Scale) -> Vec<Metric> {
    let sticky = ChannelFaultKind::ALL
        .into_iter()
        .find(|k| k.persistence() == Persistence::Sticky && k.site().leg == Leg::Request)
        .expect("the IPC corpus has a sticky request-leg fault");
    let mut healthy = Channel::new("bench");
    let send_recv = ns_per_op(s.ops(500_000), |_| assert!(!transfer(&mut healthy)));
    let allocs = allocs_per_op(s.ops(100_000), |_| assert!(!transfer(&mut healthy)));
    let mut wedged = Channel::new("bench");
    wedged.arm(sticky);
    let faulted = ns_per_op(s.ops(500_000), |_| assert!(transfer(&mut wedged)));
    let reset = ns_per_op(s.ops(500_000), |_| {
        wedged.arm(sticky);
        black_box(wedged.reset());
    });
    vec![
        metric("graph.channel.send_recv_ns", "ns", send_recv),
        metric("graph.channel.faulted_send_ns", "ns", faulted),
        metric("graph.channel.reset_ns", "ns", reset),
        metric("graph.channel.allocs_per_send", "allocs/op", allocs),
    ]
}

/// `RequestSupervisor::serve` on a healthy MiniWeb with no recovery, and
/// `RestartTree::plan` + `charge` + `settle` on the graph's tree.
fn recovery(s: Scale) -> Vec<Metric> {
    let mut env = standard_env(1, false);
    let mut app = spawn_app(AppKind::Apache, &mut env);
    let mut strategy = NoRecovery;
    let config = traffic_config(1);
    let mut sup = RequestSupervisor::begin(app.as_mut(), &mut env, &mut strategy, &config);
    let req = Request::new("GET /index.html");
    let mut serve = |_| {
        let outcome = sup.serve(app.as_mut(), &mut env, &req, &mut strategy, &config, &mut None);
        assert!(matches!(outcome, ServeOutcome::Served { .. }), "healthy serve failed");
    };
    let serve_ns = ns_per_op(s.ops(200_000), &mut serve);
    let serve_allocs = allocs_per_op(s.ops(50_000), &mut serve);
    let mut tree = RestartTree::new(
        &GRAPH_COMPONENTS,
        2,
        Duration::from_millis(50),
        Duration::from_secs(2),
        7,
    );
    let plan_charge = ns_per_op(s.ops(500_000), |i| {
        let component = 1 + (i % 3) as usize;
        let scope = tree.plan(component);
        black_box(tree.charge(scope));
        if i % 4 == 3 {
            tree.settle(component);
        }
    });
    vec![
        metric("recovery.supervisor.serve_ns", "ns", serve_ns),
        metric("recovery.supervisor.allocs_per_serve", "allocs/op", serve_allocs),
        metric("recovery.tree.plan_charge_ns", "ns", plan_charge),
    ]
}

/// `Application::handle` on each healthy app over its traffic mix, and
/// `Application::check_oracle` averaged over the three apps.
fn apps(s: Scale) -> Vec<Metric> {
    let plan = &standard_plans(1)[0];
    let mut out = Vec::new();
    let mut oracle = Vec::new();
    for (kind, name) in [
        (AppKind::Apache, "apps.miniweb.handle_ns"),
        (AppKind::Mysql, "apps.minidb.handle_ns"),
        (AppKind::Gnome, "apps.minide.handle_ns"),
    ] {
        let mut env = standard_env(1, false);
        let mut app: Box<dyn Application> = spawn_app(kind, &mut env);
        let mix = traffic_mix(app.as_ref(), kind, plan);
        let handle = ns_per_op(s.ops(100_000), |i| {
            black_box(app.handle(&mix[(i % mix.len() as u64) as usize], &mut env).is_ok());
            env.advance(Duration::from_micros(500));
        });
        out.push(metric(name, "ns", handle));
        oracle.push(ns_per_op(s.ops(100_000), |_| {
            black_box(app.check_oracle(&env));
        }));
    }
    out.push(metric("apps.oracle.ns_per_call", "ns", oracle.iter().sum::<f64>() / 3.0));
    out
}

/// `Environment::advance`, `scrub` and a standard-budget build.
fn env(s: Scale) -> Vec<Metric> {
    let mut env = standard_env(1, false);
    let advance = ns_per_op(s.ops(1_000_000), |_| env.advance(Duration::from_micros(500)));
    let scrub = ns_per_op(s.ops(200_000), |_| {
        black_box(env.scrub());
    });
    let build = ns_per_op(s.ops(20_000), |i| {
        black_box(standard_env(i, false));
    });
    vec![
        metric("env.advance_ns", "ns", advance),
        metric("env.scrub_ns", "ns", scrub),
        metric("env.build_us", "us", build / 1e3),
    ]
}

/// A registry shaped like one unit's: counters and histograms under a
/// handful of labels.
fn unit_registry(salt: u64) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for (i, label) in ["restart", "statescrub", "healer", "oblivious"].into_iter().enumerate() {
        reg.incr("supervisor.watchdog", label, salt + i as u64);
        reg.incr("oracle.violations", label, 1);
        reg.incr("recovery.retries", label, 3);
        for v in 0..16 {
            reg.record("recovery.ttr", label, mix64(salt * 64 + v) % (1 << 32));
        }
    }
    reg
}

/// `Histogram::record`/`merge_from` and `MetricsRegistry::incr`/
/// `merge_from`, and allocations per `incr` on existing keys.
fn obs(s: Scale) -> Vec<Metric> {
    let mut hist = Histogram::new();
    let record = ns_per_op(s.ops(1_000_000), |i| hist.record(mix64(i) % (1 << 40)));
    let mut acc = Histogram::new();
    let merge = ns_per_op(s.ops(500_000), |_| acc.merge_from(&hist));
    black_box(&acc);
    let labels = ["ei/none", "edt/restart", "edn/healer", "edt/statescrub"];
    let mut reg = MetricsRegistry::new();
    let mut incr = |i: u64| reg.incr("traffic.offered", labels[(i % 4) as usize], 1);
    let incr_ns = ns_per_op(s.ops(1_000_000), &mut incr);
    let incr_allocs = allocs_per_op(s.ops(100_000), &mut incr);
    let part = unit_registry(3);
    let mut total = unit_registry(1);
    let reg_merge = ns_per_op(s.ops(50_000), |_| total.merge_from(&part));
    black_box(&total);
    vec![
        metric("obs.histogram.record_ns", "ns", record),
        metric("obs.histogram.merge_ns", "ns", merge),
        metric("obs.registry.incr_ns", "ns", incr_ns),
        metric("obs.registry.merge_ns", "ns", reg_merge),
        metric("obs.registry.allocs_per_incr", "allocs/op", incr_allocs),
    ]
}

/// `run_chunk_fold` at two workers and one index per chunk with trivial
/// per-index work: the cost of handing out, folding and merging a chunk.
/// At one worker the fold runs inline and merges nothing.
fn exec(s: Scale) -> Vec<Metric> {
    const CHUNKS: u64 = 512;
    let per_fold = ns_per_op(s.ops(20), |_| {
        let acc = run_chunk_fold(
            CHUNKS as usize,
            ParallelSpec::threads(2).with_chunk(1),
            Vec::new,
            |range, acc: &mut Vec<usize>| acc.extend(range),
            |acc, later| acc.extend(later),
        );
        assert_eq!(acc.len(), CHUNKS as usize);
    });
    vec![metric("exec.fold.merge_ns_per_chunk", "ns", per_fold / CHUNKS as f64)]
}

/// Every microbench. `scale` (at most 1) shrinks every loop, so a short
/// smoke run stays short; the operation counts of a full run take about
/// three seconds in all.
pub fn all(scale: f64) -> Vec<Metric> {
    let s = Scale(scale.clamp(0.0, 1.0));
    [sim_wheel(s), graph_channel(s), recovery(s), apps(s), env(s), obs(s), exec(s)].concat()
}
