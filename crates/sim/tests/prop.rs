//! Property tests for the simulation substrate.

use faultstudy_sim::rng::{DetRng, SplitMix64, Xoshiro256StarStar};
use faultstudy_sim::sched::{Interleaver, StepOutcome, StepScheduler, Task};
use faultstudy_sim::time::{Clock, Duration, SimTime};
use faultstudy_sim::trace::Trace;
use faultstudy_sim::wheel::TimingWheel;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Offsets across the scheduler's range: same-tick ties (0), nanosecond
/// gaps, sub-second think times, and backlogged times minutes ahead.
fn wheel_offset(selector: u8, raw: u64) -> u64 {
    match selector % 4 {
        0 => 0,
        1 => raw % 4_096,
        2 => raw % (1 << 30),
        _ => raw % (1 << 38),
    }
}

/// One firing of the periodic-timer differential: the instant and the
/// ordinary event's id, or `None` for the periodic event.
type Firing = (u64, Option<u32>);

/// Schedules the ordinary events one script step asks for at `now`:
/// `count` events, each on the periodic grid (a forced tie with the
/// periodic event, if it is still armed then) or at an ordinary offset.
fn spawn(
    (selector, raw, count): (u8, u64, u8),
    now: u64,
    period: u64,
    next_id: &mut u32,
    mut schedule: impl FnMut(SimTime, u32),
) {
    for j in 0..u64::from(count) {
        let raw = raw.wrapping_add(j);
        let at = if selector % 2 == 0 {
            now.div_ceil(period) * period + period * (raw % 3)
        } else {
            now + wheel_offset(selector / 2, raw)
        };
        schedule(SimTime::from_nanos(at), *next_id);
        *next_id += 1;
    }
}

/// The reference: the periodic event is an ordinary heap entry. Every
/// firing consumes one script step; the periodic event re-arms while
/// steps remain.
fn periodic_on_heap(ops: &[(u8, u64, u8)], period: u64) -> Vec<Firing> {
    let mut wheel: TimingWheel<Option<u32>> = TimingWheel::new();
    let mut script = ops.iter();
    let mut next_id = 1;
    let mut fired = Vec::new();
    wheel.schedule(SimTime::ZERO, Some(0));
    wheel.schedule(SimTime::from_nanos(period), None);
    while let Some((at, ev)) = wheel.pop() {
        let now = at.as_nanos();
        fired.push((now, ev));
        if let Some(&op) = script.next() {
            spawn(op, now, period, &mut next_id, |t, id| wheel.schedule(t, Some(id)));
        }
        if ev.is_none() && script.len() > 0 {
            wheel.schedule(SimTime::from_nanos(now + period), None);
        }
    }
    fired
}

/// The merge: the periodic event's one pending firing is a reserved
/// `(time, seq)` key outside the heap, and fires whenever it is below
/// the heap's top key.
fn periodic_merged(ops: &[(u8, u64, u8)], period: u64) -> Vec<Firing> {
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    let mut script = ops.iter();
    let mut next_id = 1;
    let mut fired = Vec::new();
    wheel.schedule(SimTime::ZERO, 0);
    let mut periodic = Some((period, wheel.reserve_seq()));
    loop {
        let (now, ev) = match periodic {
            Some(key) if wheel.peek_key().is_none_or(|top| key < top) => {
                periodic = None;
                (key.0, None)
            }
            _ => match wheel.pop() {
                Some((at, id)) => (at.as_nanos(), Some(id)),
                None => break,
            },
        };
        fired.push((now, ev));
        if let Some(&op) = script.next() {
            spawn(op, now, period, &mut next_id, |t, id| wheel.schedule(t, id));
        }
        if ev.is_none() && script.len() > 0 {
            periodic = Some((now + period, wheel.reserve_seq()));
        }
    }
    fired
}

proptest! {
    /// SimTime/Duration arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_add_then_subtract_round_trips(t in 0u64..1 << 40, d in 0u64..1 << 40) {
        let t0 = SimTime::from_nanos(t);
        let dur = Duration::from_nanos(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert_eq!(t0.saturating_add(dur).saturating_since(t0), dur);
    }

    /// Clock::advance accumulates exactly.
    #[test]
    fn clock_accumulates(steps in prop::collection::vec(0u64..1 << 20, 1..50)) {
        let mut clock = Clock::new();
        let mut total = 0u64;
        for s in steps {
            clock.advance(Duration::from_nanos(s));
            total += s;
            prop_assert_eq!(clock.now(), SimTime::from_nanos(total));
        }
    }

    /// Two generators with the same seed emit identical streams; a
    /// different seed diverges within a few draws (with overwhelming
    /// probability — checked deterministically for the sampled seeds).
    #[test]
    fn xoshiro_streams_are_seed_determined(seed in any::<u64>()) {
        let mut a = Xoshiro256StarStar::seed_from(seed);
        let mut b = Xoshiro256StarStar::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256StarStar::seed_from(seed.wrapping_add(1));
        let divergent = (0..16).any(|_| a.next_u64() != c.next_u64());
        prop_assert!(divergent);
    }

    /// `range` stays within bounds for arbitrary non-empty ranges.
    #[test]
    fn rng_range_is_bounded(seed in any::<u64>(), lo in 0u64..1000, width in 1u64..1000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..16 {
            let v = rng.range(lo, lo + width);
            prop_assert!((lo..lo + width).contains(&v));
        }
    }

    /// `chance(p)` over many draws lands near p (loose bound).
    #[test]
    fn rng_chance_tracks_probability(seed in any::<u64>(), p in 0.1f64..0.9) {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let n = 2000;
        let hits = (0..n).filter(|_| rng.chance(p)).count() as f64;
        prop_assert!((hits / n as f64 - p).abs() < 0.08, "p={p} rate={}", hits / n as f64);
    }

    /// Shuffle is a permutation.
    #[test]
    fn shuffle_permutes(seed in any::<u64>(), mut items in prop::collection::vec(0u32..100, 0..40)) {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let mut shuffled = items.clone();
        rng.shuffle(&mut shuffled);
        shuffled.sort_unstable();
        items.sort_unstable();
        prop_assert_eq!(shuffled, items);
    }

    /// Draining the scheduler yields exactly the scheduled events,
    /// time-ordered.
    #[test]
    fn queue_drains_everything_in_order(times in prop::collection::vec(0u64..1000, 0..80)) {
        let mut q = TimingWheel::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut drained = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((at, idx)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            drained.push(idx);
        }
        drained.sort_unstable();
        prop_assert_eq!(drained, (0..times.len()).collect::<Vec<_>>());
    }

    /// A scheduler over counter tasks conserves the total work regardless
    /// of the interleaving seed.
    #[test]
    fn scheduler_conserves_work(seed in any::<u64>(), counts in prop::collection::vec(1u32..8, 1..6)) {
        struct Counter(u32);
        impl Task<u64> for Counter {
            fn step(&mut self, shared: &mut u64) -> StepOutcome {
                if self.0 == 0 {
                    return StepOutcome::Done;
                }
                self.0 -= 1;
                *shared += 1;
                StepOutcome::Ready
            }
        }
        let mut sched = StepScheduler::new(0u64, Interleaver::Seeded(seed));
        let expected: u32 = counts.iter().sum();
        for c in counts {
            sched.spawn(Counter(c));
        }
        let (total, report) = sched.run(10_000);
        prop_assert!(report.succeeded());
        prop_assert_eq!(total, u64::from(expected));
    }

    /// Differential check: for arbitrary schedules — same-tick ties,
    /// near and far offsets, pops interleaved with schedules — the
    /// scheduler pops exactly what a `BTreeMap<(time, seq), _>` reference
    /// pops, in the same order.
    #[test]
    fn wheel_matches_btreemap_reference(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u8..4), 1..120),
    ) {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut reference: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        // The schedule index doubles as the tie-break sequence number.
        for (id, (selector, raw, pops)) in ops.into_iter().enumerate() {
            let at = wheel.now().saturating_add(Duration::from_nanos(wheel_offset(selector, raw)));
            wheel.schedule(at, id as u32);
            reference.insert((at.as_nanos(), id as u64), id as u32);
            for _ in 0..pops {
                match (wheel.pop(), reference.pop_first()) {
                    (Some((t, v)), Some(((rt, _), rv))) => {
                        prop_assert_eq!(t.as_nanos(), rt, "pop time diverged");
                        prop_assert_eq!(v, rv, "pop order diverged");
                    }
                    (None, None) => break,
                    (w, r) => prop_assert!(false, "wheel {w:?} vs reference {r:?}"),
                }
            }
        }
        // Drain the rest: both must empty together, in the same order.
        loop {
            match (wheel.pop(), reference.pop_first()) {
                (Some((t, v)), Some(((rt, _), rv))) => {
                    prop_assert_eq!(t.as_nanos(), rt, "drain time diverged");
                    prop_assert_eq!(v, rv, "drain order diverged");
                }
                (None, None) => break,
                (w, r) => prop_assert!(false, "wheel {w:?} vs reference {r:?}"),
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Differential check for a periodic timer kept beside the heap: one
    /// event re-armed at `at + period`, merged by its reserved
    /// `(time, seq)` key against [`TimingWheel::peek_key`], fires in
    /// exactly the order it fires when scheduled on the heap like any
    /// other event. Ordinary events land on the periodic grid often, so
    /// same-instant ties between the two kinds are common.
    #[test]
    fn periodic_timer_beside_the_heap_matches_the_heap(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u8..3), 1..120),
        period in 1u64..64,
    ) {
        let on_heap = periodic_on_heap(&ops, period);
        let merged = periodic_merged(&ops, period);
        prop_assert_eq!(merged, on_heap);
    }

    /// Schedule-everything-then-drain yields a time-sorted, FIFO-stable
    /// permutation of the input.
    #[test]
    fn wheel_drains_sorted_and_stable(
        offsets in prop::collection::vec((any::<u8>(), any::<u64>()), 0..100),
    ) {
        let mut wheel: TimingWheel<usize> = TimingWheel::new();
        let mut expected: Vec<(u64, usize)> = offsets
            .iter()
            .enumerate()
            .map(|(i, &(selector, raw))| (wheel_offset(selector, raw), i))
            .collect();
        for &(at, i) in &expected {
            wheel.schedule(SimTime::from_nanos(at), i);
        }
        // Stable sort preserves schedule order for equal timestamps,
        // which is exactly the wheel's tie-break contract.
        expected.sort_by_key(|&(at, _)| at);
        let mut drained = Vec::new();
        while let Some((at, i)) = wheel.pop() {
            drained.push((at.as_nanos(), i));
        }
        prop_assert_eq!(drained, expected);
    }

    /// The trace ring never exceeds its capacity and keeps the newest
    /// entries.
    #[test]
    fn trace_ring_keeps_newest(cap in 1usize..20, n in 0usize..60) {
        let mut trace = Trace::with_capacity(cap);
        for i in 0..n {
            trace.record(SimTime::from_nanos(i as u64), "s", format!("m{i}"));
        }
        prop_assert!(trace.len() <= cap);
        if n > 0 {
            prop_assert!(trace.contains(&format!("m{}", n - 1)), "newest retained");
        }
        if n > cap {
            prop_assert!(!trace.contains("m0 "), "oldest evicted");
            prop_assert_eq!(trace.len(), cap);
        }
    }
}
