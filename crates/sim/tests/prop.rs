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
