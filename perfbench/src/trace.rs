//! Host-time spans recorded from outside the program.
//!
//! The benchmark re-drives campaign units through public constructors and
//! wraps the `Application`, `RecoveryStrategy` and `EnvHook` trait objects
//! that the open-loop engine drives in timing decorators. Structural spans
//! (rep, unit, set-up, probe, engine, finish) are kept with their parent;
//! per-call spans are folded on exit into per-(unit, layer) counts, busy
//! time, self time and allocations, so memory stays bounded however many
//! requests a unit serves.
//!
//! A span's self time is its duration minus the union of its children's
//! intervals ([`Coverage`]). Part of each span's own cost lands in its
//! parent's self time; [`Tracer::span_cost`] measures it so a reader can
//! tell instrument from program, and traced numbers are compared only
//! with traced numbers.

use crate::alloc;
use faultstudy_apps::{AppFailure, AppState, Application, InjectError, Request, Response};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::{Environment, OwnerId};
use faultstudy_micro::CrashOnly;
use faultstudy_recovery::{EnvHook, RecoveryStrategy};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One re-driven campaign: the root span.
    Rep,
    /// One campaign unit.
    Unit,
    /// A unit's construction: environment, application, plan, strategy.
    Setup,
    /// The oblivious healer's microreboot probe, inside set-up.
    Probe,
    /// The unit's engine call (`run_open_loop` or `run_graph`).
    Engine,
    /// Assembling the unit's cell from the engine's ledger.
    Finish,
    /// `Application::handle`.
    Handle,
    /// `Application::check_oracle`.
    Oracle,
    /// Application checkpoints and restarts: `snapshot`, `restore`,
    /// `cold_start`.
    AppState,
    /// Any `RecoveryStrategy` hook.
    Strategy,
    /// `EnvHook::pre_attempt` (the fault injector).
    Hook,
}

impl Layer {
    /// Every layer, parents before children.
    pub const ALL: [Layer; 11] = [
        Layer::Rep,
        Layer::Unit,
        Layer::Setup,
        Layer::Probe,
        Layer::Engine,
        Layer::Finish,
        Layer::Handle,
        Layer::Oracle,
        Layer::AppState,
        Layer::Strategy,
        Layer::Hook,
    ];

    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "rep",
            Layer::Unit => "unit",
            Layer::Setup => "setup",
            Layer::Probe => "probe",
            Layer::Engine => "engine",
            Layer::Finish => "finish",
            Layer::Handle => "app.handle",
            Layer::Oracle => "app.oracle",
            Layer::AppState => "app.state",
            Layer::Strategy => "strategy",
            Layer::Hook => "hook",
        }
    }

    /// Whether spans of this layer are kept individually (structural) or
    /// only folded (per-call).
    pub fn is_structural(self) -> bool {
        matches!(
            self,
            Layer::Rep | Layer::Unit | Layer::Setup | Layer::Probe | Layer::Engine | Layer::Finish
        )
    }
}

/// The union length of child intervals seen in start order, clipped to
/// their parent.
///
/// Children of a synchronous call never overlap, so the union is their
/// sum; the accumulator still merges overlaps so that self time stays
/// the parent's duration minus the part of it that children cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    covered: u64,
    last_end: u64,
}

impl Coverage {
    /// Adds the child interval `[start, end)`; children must arrive in
    /// nondecreasing start order.
    pub fn add(&mut self, start: u64, end: u64) {
        let from = start.max(self.last_end);
        if end > from {
            self.covered += end - from;
        }
        self.last_end = self.last_end.max(end);
    }

    /// Covered length so far.
    pub fn covered(&self) -> u64 {
        self.covered
    }
}

/// One structural span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What it measures.
    pub layer: Layer,
    /// Campaign unit index (the rep span uses `u32::MAX`).
    pub unit: u32,
    /// Start, in nanoseconds since the span clock's origin.
    pub start: u64,
    /// End, in nanoseconds since the span clock's origin.
    pub end: u64,
    /// Index of the parent span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Folded spans of one (unit, layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerFold {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, ns.
    pub busy_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Allocations made by the spans themselves, excluding children.
    pub self_allocs: u64,
}

impl LayerFold {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &LayerFold) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.self_ns += other.self_ns;
        self.self_allocs += other.self_allocs;
    }
}

struct Frame {
    layer: Layer,
    start: u64,
    allocs: u64,
    cover: Coverage,
    child_allocs: u64,
    span: Option<usize>,
}

#[derive(Default)]
struct State {
    /// The latest clock reading.
    last: u64,
    stack: Vec<Frame>,
    spans: Vec<SpanRecord>,
    /// Folds of the current unit, indexed by layer; moved into `fold`
    /// when the unit changes so the per-call path does no map lookup.
    current: [LayerFold; Layer::ALL.len()],
    fold: BTreeMap<(u32, Layer), LayerFold>,
    unit: u32,
}

impl State {
    fn flush(&mut self) {
        for (layer, f) in Layer::ALL.into_iter().zip(std::mem::take(&mut self.current)) {
            if f.calls > 0 {
                self.fold.entry((self.unit, layer)).or_default().absorb(&f);
            }
        }
    }
}

/// Raw host ticks: the x86-64 time-stamp counter, which reads at about a
/// third of the cost of `Instant::now` on virtualized hosts; elsewhere,
/// nanoseconds since a process-wide origin.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter; it has no memory
    // safety preconditions and every x86-64 processor implements it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Converts [`ticks`] to nanoseconds since the clock's creation.
struct Clock {
    origin: u64,
    ns_per_tick: f64,
}

/// The process's span clock, calibrated against `Instant` over a few
/// milliseconds on first use.
fn clock() -> &'static Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(|| {
        let (start, origin) = (Instant::now(), ticks());
        while start.elapsed().as_millis() < 5 {}
        let (elapsed, end) = (start.elapsed().as_nanos() as f64, ticks());
        Clock { origin, ns_per_tick: elapsed / end.saturating_sub(origin).max(1) as f64 }
    })
}

impl Clock {
    fn now(&self) -> u64 {
        (ticks().saturating_sub(self.origin) as f64 * self.ns_per_tick) as u64
    }
}

/// Span recorder shared by the decorators of one re-driven campaign.
pub struct Tracer {
    clock: &'static Clock,
    state: RefCell<State>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer { clock: clock(), state: RefCell::new(State::default()) }
    }

    /// The cost of one empty per-call span, in nanoseconds: `(total,
    /// inside)`, where `total` is what it adds to its parent's duration
    /// and `inside` the part its own interval covers. `total - inside`
    /// lands in the parent's self time.
    pub fn span_cost() -> (f64, f64) {
        const SPANS: u64 = 100_000;
        let tracer = Tracer::new();
        tracer.span(Layer::Rep, || {
            for _ in 0..SPANS {
                tracer.span(Layer::Hook, || ());
            }
        });
        let totals = tracer.layer_totals();
        let per = |l: Layer| totals.get(&l).map_or(0.0, |f| f.busy_ns as f64 / SPANS as f64);
        (per(Layer::Rep), per(Layer::Hook))
    }

    /// Sets the unit index that later spans belong to.
    pub fn set_unit(&self, unit: u32) {
        let mut state = self.state.borrow_mut();
        state.flush();
        state.unit = unit;
    }

    /// Opens a span of `layer`.
    pub fn enter(&self, layer: Layer) {
        let allocs = alloc::allocs();
        let mut state = self.state.borrow_mut();
        // Clamped to the latest reading, so spans never run backwards even
        // if the thread moves to a core whose counter lags.
        let start = self.clock.now().max(state.last);
        state.last = start;
        let span = layer.is_structural().then(|| {
            let parent = state.stack.iter().rev().find_map(|f| f.span);
            let unit = if layer == Layer::Rep { u32::MAX } else { state.unit };
            state.spans.push(SpanRecord { layer, unit, start, end: start, parent });
            state.spans.len() - 1
        });
        state.stack.push(Frame {
            layer,
            start,
            allocs,
            cover: Coverage::default(),
            child_allocs: 0,
            span,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&self) {
        let mut state = self.state.borrow_mut();
        let end = self.clock.now().max(state.last);
        state.last = end;
        let frame = state.stack.pop().expect("exit matches an enter");
        let allocs = alloc::allocs() - frame.allocs;
        if let Some(parent) = state.stack.last_mut() {
            parent.cover.add(frame.start, end);
            parent.child_allocs += allocs;
        }
        if let Some(i) = frame.span {
            state.spans[i].end = end;
        }
        let fold = &mut state.current[frame.layer as usize];
        fold.calls += 1;
        fold.busy_ns += end - frame.start;
        fold.self_ns += (end - frame.start) - frame.cover.covered();
        fold.self_allocs += allocs - frame.child_allocs;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let result = f();
        self.exit();
        result
    }

    /// Structural spans recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.borrow().spans.clone()
    }

    /// Per-(unit, layer) folds recorded so far.
    pub fn fold(&self) -> BTreeMap<(u32, Layer), LayerFold> {
        let mut state = self.state.borrow_mut();
        state.flush();
        state.fold.clone()
    }

    /// Per-layer folds summed over units.
    pub fn layer_totals(&self) -> BTreeMap<Layer, LayerFold> {
        let mut totals: BTreeMap<Layer, LayerFold> = BTreeMap::new();
        for ((_, layer), fold) in self.fold() {
            totals.entry(layer).or_default().absorb(&fold);
        }
        totals
    }
}

/// Times the calls the engine and the strategy make into an application.
pub struct TimedApp<'a> {
    inner: &'a mut dyn Application,
    tracer: &'a Tracer,
}

impl<'a> TimedApp<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn Application, tracer: &'a Tracer) -> Self {
        TimedApp { inner, tracer }
    }
}

impl Application for TimedApp<'_> {
    fn kind(&self) -> AppKind {
        self.inner.kind()
    }

    fn owner(&self) -> OwnerId {
        self.inner.owner()
    }

    fn handle(&mut self, req: &Request, env: &mut Environment) -> Result<Response, AppFailure> {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Handle, || inner.handle(req, env))
    }

    fn snapshot(&self) -> AppState {
        self.tracer.span(Layer::AppState, || self.inner.snapshot())
    }

    fn restore(&mut self, state: &AppState) {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::AppState, || inner.restore(state))
    }

    fn inject(&mut self, slug: &str, env: &mut Environment) -> Result<(), InjectError> {
        self.inner.inject(slug, env)
    }

    fn arm_defect(&mut self, slug: &str) -> Result<(), InjectError> {
        self.inner.arm_defect(slug)
    }

    fn trigger_request(&self, slug: &str) -> Option<Request> {
        self.inner.trigger_request(slug)
    }

    fn benign_request(&self) -> Request {
        self.inner.benign_request()
    }

    fn rejuvenate_request(&self) -> Option<Request> {
        self.inner.rejuvenate_request()
    }

    fn cold_start(&mut self, env: &mut Environment) {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::AppState, || inner.cold_start(env))
    }

    fn as_crash_only(&mut self) -> Option<&mut dyn CrashOnly> {
        self.inner.as_crash_only()
    }

    fn check_oracle(&self, env: &Environment) -> Vec<String> {
        self.tracer.span(Layer::Oracle, || self.inner.check_oracle(env))
    }
}

/// Times every hook the supervisor calls on a recovery strategy.
pub struct TimedStrategy<'a> {
    inner: &'a mut dyn RecoveryStrategy,
    tracer: &'a Tracer,
}

impl<'a> TimedStrategy<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn RecoveryStrategy, tracer: &'a Tracer) -> Self {
        TimedStrategy { inner, tracer }
    }
}

impl fmt::Debug for TimedStrategy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedStrategy").field(&self.inner).finish()
    }
}

impl RecoveryStrategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_generic(&self) -> bool {
        self.inner.is_generic()
    }

    fn on_start(&mut self, app: &mut dyn Application, env: &mut Environment) {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Strategy, || inner.on_start(app, env))
    }

    fn on_success(&mut self, req: &Request, app: &mut dyn Application, env: &mut Environment) {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Strategy, || inner.on_success(req, app, env))
    }

    fn on_failure(
        &mut self,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Strategy, || inner.on_failure(app, env, attempt))
    }

    fn on_failure_for(
        &mut self,
        req: &Request,
        app: &mut dyn Application,
        env: &mut Environment,
        attempt: u32,
    ) -> bool {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Strategy, || inner.on_failure_for(req, app, env, attempt))
    }

    fn manufacture(
        &mut self,
        req: &Request,
        app: &mut dyn Application,
        env: &mut Environment,
    ) -> Option<Response> {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Strategy, || inner.manufacture(req, app, env))
    }
}

/// Times the injector's pre-attempt hook.
pub struct TimedHook<'a> {
    inner: &'a mut dyn EnvHook,
    tracer: &'a Tracer,
}

impl<'a> TimedHook<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn EnvHook, tracer: &'a Tracer) -> Self {
        TimedHook { inner, tracer }
    }
}

impl EnvHook for TimedHook<'_> {
    fn pre_attempt(&mut self, env: &mut Environment) {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Hook, || inner.pre_attempt(env))
    }
}
