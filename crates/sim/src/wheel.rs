//! The event scheduler under the open-loop engines: a binary min-heap
//! on `(time, seq)`.
//!
//! A [`TimingWheel`] orders events by simulated time. Each event carries
//! the sequence number it was scheduled with, and the heap orders on the
//! pair, so `schedule` and `pop` are O(log n) over a queue that never
//! holds more than one pending event per live session plus the arrival
//! event — tens to about a thousand entries, where a heap's depth is
//! small. The heap's buffer is its only allocation: it grows by doubling
//! to the unit's peak queue length and is then reused, so a steady-state
//! `pop` + `schedule` pair allocates nothing at any time horizon.
//!
//! Determinism contract: events scheduled for the same instant pop in
//! scheduling order (FIFO), so a scheduler-driven simulation is a pure
//! function of its inputs. The property tests pin the pop order against
//! a `BTreeMap<(time, seq), _>` reference for arbitrary schedules,
//! including same-tick ties and far-future times.
//!
//! A periodic timer that fires far more often than anything else need
//! not go through the heap at all. The graph engine's operator-console
//! probe is one: it keeps its single pending firing as a `(time, seq)`
//! key beside the heap, draws the `seq` from [`TimingWheel::reserve_seq`]
//! where it would have scheduled, and fires whenever its key is below
//! [`TimingWheel::peek_key`]. The merged order is the order the heap
//! would have produced; a property test pins that too.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event; ordered so the max-heap's top is the earliest
/// `(at, seq)`.
#[derive(Debug)]
struct Pending<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for Pending<T> {}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap and the earliest event
        // must come out first. Sequence numbers are unique, so the order
        // is total and same-tick events pop FIFO.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic future-event list over simulated nanoseconds.
///
/// Events pop in time order; events with the same timestamp pop in the
/// order they were scheduled.
///
/// # Example
///
/// ```
/// use faultstudy_sim::time::SimTime;
/// use faultstudy_sim::wheel::TimingWheel;
///
/// let mut wheel = TimingWheel::new();
/// wheel.schedule(SimTime::from_nanos(50), "b");
/// wheel.schedule(SimTime::from_nanos(10), "a");
/// wheel.schedule(SimTime::from_nanos(50), "c"); // same tick: FIFO
/// assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10), "a")));
/// assert_eq!(wheel.pop(), Some((SimTime::from_nanos(50), "b")));
/// assert_eq!(wheel.pop(), Some((SimTime::from_nanos(50), "c")));
/// assert_eq!(wheel.pop(), None);
/// ```
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// The scheduler's current time: the timestamp of the last popped
    /// event.
    now: u64,
    /// Next scheduling sequence number; breaks same-tick ties FIFO.
    seq: u64,
    heap: BinaryHeap<Pending<T>>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty scheduler at time zero. Allocates nothing until the
    /// first `schedule`.
    pub fn new() -> TimingWheel<T> {
        TimingWheel { now: 0, seq: 0, heap: BinaryHeap::new() }
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The scheduler's current time: the timestamp of the most recently
    /// popped event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Schedules `item` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`TimingWheel::now`] — a
    /// simulation never schedules into its own past.
    pub fn schedule(&mut self, at: SimTime, item: T) {
        let at = at.as_nanos();
        assert!(at >= self.now, "event at {at} scheduled before wheel time {}", self.now);
        let seq = self.reserve_seq();
        self.heap.push(Pending { at, seq, item });
    }

    /// Removes and returns the earliest event, advancing the scheduler's
    /// time to its timestamp. Same-timestamp events return in the order
    /// they were scheduled.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let Pending { at, item, .. } = self.heap.pop()?;
        self.now = at;
        Some((SimTime::from_nanos(at), item))
    }

    /// The `(time in nanoseconds, sequence number)` key of the event
    /// [`TimingWheel::pop`] would return next, without removing it.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|p| (p.at, p.seq))
    }

    /// Takes the next sequence number without scheduling anything, for a
    /// timer the caller keeps outside the heap. A key `(at, seq)` built
    /// from it orders against [`TimingWheel::peek_key`] exactly as the
    /// same event scheduled here at `at` would have popped.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(wheel: &mut TimingWheel<T>) -> Vec<(u64, T)> {
        std::iter::from_fn(|| wheel.pop().map(|(t, x)| (t.as_nanos(), x))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut wheel = TimingWheel::new();
        for &t in &[500u64, 3, 70_000, 3, 0, 1 << 20, 64, 65] {
            wheel.schedule(SimTime::from_nanos(t), t);
        }
        let order: Vec<u64> = drain(&mut wheel).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![0, 3, 3, 64, 65, 500, 70_000, 1 << 20]);
    }

    #[test]
    fn same_tick_ties_are_fifo() {
        let mut wheel = TimingWheel::new();
        for label in 0..10u32 {
            wheel.schedule(SimTime::from_nanos(1234), label);
        }
        let labels: Vec<u32> = drain(&mut wheel).into_iter().map(|(_, l)| l).collect();
        assert_eq!(labels, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut wheel = TimingWheel::new();
        let far = 1u64 << 40;
        wheel.schedule(SimTime::from_nanos(far + 7), "late");
        wheel.schedule(SimTime::from_nanos(far), "later-first");
        wheel.schedule(SimTime::from_nanos(9), "soon");
        assert_eq!(wheel.len(), 3);
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(9), "soon")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(far), "later-first")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(far + 7), "late")));
        assert!(wheel.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_track_time() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_nanos(10), "a");
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(wheel.now(), SimTime::from_nanos(10));
        // Scheduling at the current instant is allowed and pops next.
        wheel.schedule(SimTime::from_nanos(10), "b");
        wheel.schedule(SimTime::from_nanos(11), "c");
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10), "b")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(11), "c")));
    }

    #[test]
    fn reserved_keys_order_against_the_heap_top() {
        let mut wheel = TimingWheel::new();
        assert_eq!(wheel.peek_key(), None);
        wheel.schedule(SimTime::from_nanos(20), "a");
        let timer = (20, wheel.reserve_seq());
        wheel.schedule(SimTime::from_nanos(20), "b");
        // Same instant: the timer's reservation sits between "a" and "b".
        assert_eq!(wheel.peek_key(), Some((20, 0)));
        assert!(timer > wheel.peek_key().unwrap());
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(20), "a")));
        assert!(timer < wheel.peek_key().unwrap());
        assert_eq!(wheel.len(), 1, "peeking and reserving schedule nothing");
    }

    #[test]
    #[should_panic(expected = "scheduled before wheel time")]
    fn scheduling_into_the_past_panics() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_nanos(100), ());
        wheel.pop();
        wheel.schedule(SimTime::from_nanos(99), ());
    }
}
