//! Allocation pins for the graph wire path, counted by a global
//! allocator that this test binary alone installs.
//!
//! Three things are pinned. A warmed channel's `send` + `fault_for` +
//! `recv` allocates nothing: payloads are `&'static str`, so the queue
//! moves a pointer. A healthy miniweb answers the operator console's
//! `PROBE console` without allocating: its reply body is static. And a
//! whole campaign unit allocates at most five times per offered request,
//! with nothing allowed for its probes, of which a backlogged unit runs
//! about five per request: the probe reuses one `Request` per unit, puts
//! a static body on the wire, gets a static reply and never touches the
//! event heap. The two units are the campaign's seed-2000 cells most
//! exposed to each cost: a backlogged defect unit that probes thousands
//! of times, and a one-shot unit whose retries re-drive every hop of the
//! chain.
//!
//! The file holds a single test so no other test's allocations land in
//! the shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use faultstudy_apps::{Application, MiniWeb, Request};
use faultstudy_env::Environment;
use faultstudy_graph::{
    graph_plans, run_graph, Channel, ChannelFaultKind, GraphUnitStats, Leg, PlaneKind, ServiceGraph,
};
use faultstudy_sim::rng::split_seed;
use faultstudy_traffic::{ArrivalKind, TrafficParams};

/// Allocation calls (alloc, alloc_zeroed, realloc) since start-up.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a call counter.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocation calls it made.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (result, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The campaign's seed-2000 unit for `(kind, plane, budget)` with 600
/// requests, seeded and configured exactly as the harness seeds it;
/// returns the unit's ledger and the allocations `run_graph` made.
fn campaign_unit(kind: ChannelFaultKind, plane: PlaneKind, budget: u32) -> (GraphUnitStats, u64) {
    const SEED: u64 = 2000;
    const BUDGETS: [u32; 3] = [0, 1, 3];
    let kind_index = ChannelFaultKind::ALL.iter().position(|&k| k == kind).unwrap();
    let plane_index = PlaneKind::ALL.iter().position(|&p| p == plane).unwrap();
    let budget_index = BUDGETS.iter().position(|&b| b == budget).unwrap();
    let index = (kind_index * PlaneKind::ALL.len() + plane_index) * BUDGETS.len() + budget_index;
    let unit_seed = split_seed(SEED, index as u64);
    let mut env = Environment::builder()
        .seed(unit_seed)
        .fd_limit(16)
        .proc_slots(8)
        .fs_capacity(256 * 1024)
        .max_file_size(64 * 1024)
        .build();
    let mut graph = ServiceGraph::new(&mut env);
    let plans = graph_plans(SEED);
    let plan = &plans[kind_index];
    let params = TrafficParams::standard(ArrivalKind::Poisson, 600);
    allocs_in(|| {
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
    })
}

#[test]
fn graph_wire_path_stays_within_its_allocation_budget() {
    let mut ch = Channel::new("alloc");
    ch.send("warm").unwrap();
    ch.recv().unwrap();
    let ((), steady) = allocs_in(|| {
        for _ in 0..1_000 {
            ch.send("GET /index.html").unwrap();
            assert!(ch.fault_for(Leg::Request).is_none());
            ch.recv().unwrap();
        }
    });
    assert_eq!(steady, 0, "a warmed channel's transfers must not allocate");

    let mut env = Environment::builder().seed(1).build();
    let mut web = MiniWeb::new(&mut env);
    let probe = Request::new("PROBE console");
    let (answers, probe_allocs) = allocs_in(|| {
        (0..1_000).filter(|_| web.handle(&probe, &mut env).is_ok_and(|r| r.is_ok())).count()
    });
    assert_eq!(answers, 1_000, "a healthy web tier passes every probe");
    assert_eq!(probe_allocs, 0, "a probe's reply must not allocate");

    let units = [
        (ChannelFaultKind::R1UnmappedReceiverSlot, PlaneKind::Process, 1),
        (ChannelFaultKind::S1SenderPageFault, PlaneKind::Channel, 3),
    ];
    for (kind, plane, budget) in units {
        let (stats, allocs) = campaign_unit(kind, plane, budget);
        assert_eq!(stats.base.offered, 600);
        let bound = 5 * stats.base.offered;
        assert!(
            allocs <= bound,
            "{kind}/{}/b{budget}: {allocs} allocations over a bound of {bound} \
             ({} probes, {} offered)",
            plane.name(),
            stats.probes,
            stats.base.offered,
        );
    }
}
