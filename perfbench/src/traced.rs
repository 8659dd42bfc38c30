//! The traced run: the per-layer metrics of one workload.
//!
//! Three phases, each about a third of the run: campaign reps alternating
//! with plain re-drives (structural spans only), decorated re-drives with
//! allocation counting on, and the microbenches.

use crate::alloc;
use crate::micro;
use crate::redrive::redrive;
use crate::stats::{median, percentile_of};
use crate::trace::{Layer, LayerFold, SpanRecord, Tracer};
use crate::workload::{Campaign, Workload};
use crate::{metric, Outcome};
use faultstudy_traffic::UnitStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Per-call layers: everything the decorators time inside an engine span.
const PER_CALL: [Layer; 5] =
    [Layer::Handle, Layer::Oracle, Layer::AppState, Layer::Strategy, Layer::Hook];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Durations of `layer`'s spans, scaled by `per_ns`.
fn durations(spans: &[SpanRecord], layer: Layer, per_ns: f64) -> Vec<f64> {
    spans.iter().filter(|s| s.layer == layer).map(|s| s.duration() as f64 / per_ns).collect()
}

/// The `p`-th percentile of `values` (any order), 0 when empty.
fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile_of(values, p)
    }
}

/// The self-time split of the spans: unit spans against the summed self
/// time of everything under them, and engine spans against engine self
/// time plus the per-call spans' self time. The two sides agree by
/// construction; the line shows where the unit time went.
fn accounting(totals: &BTreeMap<Layer, LayerFold>) -> String {
    let get = |l: Layer| totals.get(&l).copied().unwrap_or_default();
    let under_unit: u64 =
        Layer::ALL.iter().filter(|&&l| l != Layer::Rep).map(|&l| get(l).self_ns).sum();
    let per_call: u64 = PER_CALL.iter().map(|&l| get(l).self_ns).sum();
    format!(
        "accounting: unit spans {} ns = self times under them {under_unit} ns; engine spans {} \
         ns = engine self {} ns + per-call self {per_call} ns",
        get(Layer::Unit).busy_ns,
        get(Layer::Engine).busy_ns,
        get(Layer::Engine).self_ns,
    )
}

/// Each unit's attempts, from its campaign cell: every attempt calls the
/// injector hook once and the application once, and is either a failure
/// or a success. A success is an answered request that no strategy
/// substituted. `None` for graph units, which run no decorators.
fn unit_attempts(reference: &Campaign) -> Option<Vec<u64>> {
    let attempts = |s: &UnitStats, substituted: u64| s.failures + s.ok + s.denied - substituted;
    match reference {
        Campaign::Traffic(r) => Some(r.cells.iter().map(|c| attempts(&c.stats, 0)).collect()),
        Campaign::Oblivious(r) => {
            Some(r.cells.iter().map(|c| attempts(&c.stats, c.discarded + c.manufactured)).collect())
        }
        Campaign::Graph(_) => None,
    }
}

/// Checks the decorated call counts against the campaign's ledger, an
/// independent source: over `reps` traced re-drives, each unit's hook
/// calls must equal `reps` times its attempts, and its application calls
/// must be at least that (strategies may call the application too). A
/// call path that bypasses a decorator fails this check.
///
/// # Errors
///
/// The first unit whose counts disagree with its cell.
pub fn call_counts(
    fold: &BTreeMap<(u32, Layer), LayerFold>,
    reference: &Campaign,
    reps: u64,
) -> Result<String, String> {
    let Some(attempts) = unit_attempts(reference) else {
        return Ok("call counts: graph units run undecorated".to_owned());
    };
    let calls = |unit: usize, layer: Layer| fold.get(&(unit as u32, layer)).map_or(0, |f| f.calls);
    for (unit, &a) in attempts.iter().enumerate() {
        let (hook, handle) = (calls(unit, Layer::Hook), calls(unit, Layer::Handle));
        if hook != reps * a || handle < reps * a {
            return Err(format!(
                "unit {unit}: {hook} hook and {handle} app.handle calls over {reps} reps, but the \
                 campaign cell records {a} attempts"
            ));
        }
    }
    Ok(format!(
        "call counts: every unit's hook calls equal its attempts ({} per rep) and its \
         app.handle calls are at least as many",
        attempts.iter().sum::<u64>()
    ))
}

/// Writes the last traced rep's structural spans and the per-(unit,
/// layer) folds of all traced reps to `<dir>/perfbench-trace/<workload>.json`.
fn write_trace(
    dir: &Path,
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
) -> std::io::Result<String> {
    let dir = dir.join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.json", workload.name()));
    let spans = tracer.spans();
    let first = spans.iter().rposition(|s| s.layer == Layer::Rep).unwrap_or(0);
    let mut out =
        format!("{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [", workload.name());
    for (i, s) in spans[first..].iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let parent = s.parent.map_or("null".to_owned(), |p| (p - first).to_string());
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{}\", \"unit\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
            s.layer.name(),
            s.unit,
            s.start,
            s.end
        );
    }
    out.push_str("], \"folds\": [");
    for (i, ((unit, layer), f)) in tracer.fold().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"unit\": {unit}, \"layer\": \"{}\", \"calls\": {}, \"busy_ns\": {}, \
             \"self_ns\": {}, \"self_allocs\": {}}}",
            layer.name(),
            f.calls,
            f.busy_ns,
            f.self_ns,
            f.self_allocs
        );
    }
    out.push_str("]}\n");
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn print_split(totals: &BTreeMap<Layer, LayerFold>, reps: u64, offered: u64) {
    let unit_busy = totals.get(&Layer::Unit).map_or(0, |f| f.busy_ns) as f64;
    println!("layer split over {reps} traced reps of {offered} requests:");
    println!(
        "  {:<11} {:>10} {:>12} {:>12} {:>7} {:>12}",
        "layer", "calls", "busy ms", "self ms", "self%", "allocs/call"
    );
    for (layer, f) in totals {
        println!(
            "  {:<11} {:>10} {:>12.3} {:>12.3} {:>7.2} {:>12.3}",
            layer.name(),
            f.calls,
            f.busy_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6,
            100.0 * ratio(f.self_ns as f64, unit_busy),
            ratio(f.self_allocs as f64, f.calls as f64)
        );
    }
    let (total, inside) = Tracer::span_cost();
    println!(
        "  one empty per-call span costs {total:.1} ns, {:.1} ns of it in its parent's self time",
        total - inside
    );
}

/// Runs the traced phases for about `seconds` and returns the per-layer
/// metrics. A re-driven unit whose cell differs from `reference`, a
/// campaign rep that diverges, or decorated call counts that disagree
/// with the campaign's ledger count as failed.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    reference: &Campaign,
    trace_dir: &Path,
) -> Outcome {
    let offered = reference.totals().offered;
    let requests = workload.requests();
    let (mut attempted, mut failed) = (0, 0);
    let mut check = |r: Result<(), String>| {
        attempted += 1;
        if let Err(e) = r {
            eprintln!("check failed: {e}");
            failed += 1;
        }
    };
    let budget = seconds / 3.0;

    // Untraced: campaign reps paired with plain re-drives.
    let plain = Tracer::new();
    let (mut campaign_s, mut outside) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while campaign_s.len() < 3 || start.elapsed().as_secs_f64() < budget {
        let (elapsed, ok) = workload.timed_rep(seed, reference);
        check(if ok { Ok(()) } else { Err("campaign rep diverged".to_owned()) });
        let units_before = plain.layer_totals().get(&Layer::Unit).map_or(0, |f| f.busy_ns);
        check(redrive(workload, seed, requests, reference, &plain, false));
        let units = plain.layer_totals()[&Layer::Unit].busy_ns - units_before;
        campaign_s.push(elapsed);
        outside.push(ratio(elapsed - units as f64 / 1e9, elapsed));
    }
    let plain_totals = plain.layer_totals();
    let plain_spans = plain.spans();

    // Traced: decorators and allocation counting on.
    let traced = Tracer::new();
    alloc::set_counting(true);
    let start = Instant::now();
    let mut reps = 0u64;
    while reps < 2 || start.elapsed().as_secs_f64() < budget {
        check(redrive(workload, seed, requests, reference, &traced, true));
        reps += 1;
    }
    alloc::set_counting(false);
    let totals = traced.layer_totals();
    println!("{}", accounting(&totals));
    if workload != Workload::Graph {
        let counts = call_counts(&traced.fold(), reference, reps);
        if let Ok(line) = &counts {
            println!("{line}");
        }
        check(counts.map(drop));
    }
    print_split(&totals, reps, offered);
    if workload == Workload::Graph {
        println!(
            "  graph: ServiceGraph owns the nodes and channels and run_graph drives them, so the \
             split stops at the run_graph span; channel, chain and tree costs come from the \
             microbenches and GraphUnitStats"
        );
    }
    match write_trace(trace_dir, workload, seed, &traced) {
        Ok(path) => println!("trace written to {path}"),
        Err(e) => eprintln!("trace not written: {e}"),
    }

    let get = |l: Layer| totals.get(&l).copied().unwrap_or_default();
    let per_call = |f: LayerFold| ratio(f.self_ns as f64, f.calls as f64);
    let traced_offered = (offered * reps) as f64;
    let ledger = reference.totals();
    let per_kreq = |n: u64| ratio(1000.0 * n as f64, offered as f64);
    let engine_ms = durations(&plain_spans, Layer::Engine, 1e6);
    let engine_ns_per_req = ratio(
        plain_totals.get(&Layer::Engine).map_or(0, |f| f.busy_ns) as f64,
        (offered * campaign_s.len() as u64) as f64,
    );
    let (open_loop, graph) = match reference {
        Campaign::Graph(_) => (0.0, 1.0),
        _ => (1.0, 0.0),
    };
    let (sends, delivered, retried, amplification, restarts) = match reference {
        Campaign::Graph(r) => {
            let g = r.graph_totals();
            let e = [g.edges.client_web, g.edges.web_db, g.edges.ide_web];
            (
                e.iter().map(|x| x.sends).sum::<u64>() as f64,
                e.iter().map(|x| x.delivered).sum::<u64>() as f64,
                e.iter().map(|x| x.retried).sum::<u64>() as f64,
                g.amplification(),
                g.node_restarts,
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0, 0),
    };
    let injected: Vec<f64> = match reference {
        Campaign::Traffic(r) => r.cells.iter().map(|c| c.injected as f64).collect(),
        Campaign::Oblivious(r) => r.cells.iter().map(|c| c.injected as f64).collect(),
        Campaign::Graph(_) => Vec::new(),
    };
    let campaign = median(&campaign_s);
    let traced_rep = median(&durations(&traced.spans(), Layer::Rep, 1e9));

    let mut metrics = micro::all(seconds / 10.0);
    metrics.extend([
        metric("traffic.engine.unit_ms.p50", "ms", open_loop * pct(&engine_ms, 50.0)),
        metric("traffic.engine.unit_ms.p90", "ms", open_loop * pct(&engine_ms, 90.0)),
        metric(
            "traffic.engine.self_ns_per_req",
            "ns",
            open_loop * ratio(get(Layer::Engine).self_ns as f64, traced_offered),
        ),
        metric("graph.engine.unit_ms.p50", "ms", graph * pct(&engine_ms, 50.0)),
        metric("graph.engine.unit_ms.p90", "ms", graph * pct(&engine_ms, 90.0)),
        metric("graph.engine.ns_per_req", "ns", graph * engine_ns_per_req),
        metric("graph.channel.sends_per_req", "1/req", ratio(sends, offered as f64)),
        metric("graph.channel.delivered_ratio", "ratio", ratio(delivered, sends)),
        metric("graph.channel.retries_per_req", "1/req", ratio(retried, offered as f64)),
        metric("graph.db_amplification", "ratio", amplification),
        metric("graph.node_restarts_per_kreq", "1/kreq", per_kreq(restarts)),
        metric("recovery.strategy.ns_per_call", "ns", per_call(get(Layer::Strategy))),
        metric(
            "recovery.strategy.calls_per_kreq",
            "1/kreq",
            ratio(1000.0 * get(Layer::Strategy).calls as f64, traced_offered),
        ),
        metric("recovery.failures_per_kreq", "1/kreq", per_kreq(ledger.failures)),
        metric(
            "recovery.rescue_ratio",
            "ratio",
            ratio(ledger.recoveries as f64, ledger.failures as f64),
        ),
        metric("apps.handle.ns_per_call", "ns", per_call(get(Layer::Handle))),
        metric(
            "apps.handle.calls_per_req",
            "1/req",
            ratio(get(Layer::Handle).calls as f64, traced_offered),
        ),
        metric(
            "apps.handle.allocs_per_call",
            "allocs/call",
            ratio(get(Layer::Handle).self_allocs as f64, get(Layer::Handle).calls as f64),
        ),
        metric("inject.hook.ns_per_call", "ns", per_call(get(Layer::Hook))),
        metric(
            "inject.applied_per_unit",
            "1/unit",
            ratio(injected.iter().sum(), injected.len() as f64),
        ),
        metric(
            "harness.unit_setup_us.p50",
            "us",
            pct(&durations(&plain_spans, Layer::Setup, 1e3), 50.0),
        ),
        metric("harness.outside_units_pct", "%", 100.0 * median(&outside)),
        metric("trace_overhead_pct", "%", 100.0 * ratio(traced_rep - campaign, campaign)),
    ]);
    Outcome { attempted, failed, metrics }
}
