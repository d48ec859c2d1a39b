//! A minimal discrete-event engine.
//!
//! Time is `SimTime` (microseconds since simulation start). Events are
//! caller-defined; the engine guarantees deterministic ordering — by time,
//! then by insertion sequence — which keeps whole simulations reproducible
//! from a seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Simulation timestamp in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable timestamp (~584 000 years of microseconds).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a `Duration` (microsecond truncation, saturating).
    ///
    /// `Duration` holds up to `u64::MAX` *seconds*; a plain `as u64` cast
    /// of `as_micros()` would silently wrap durations past ~584 000 years
    /// into small timestamps, scheduling "forever" events into the past.
    /// Saturating to [`SimTime::MAX`] keeps far-future sentinels ordered
    /// after everything real.
    pub fn from_duration(d: Duration) -> SimTime {
        SimTime(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
    }

    /// Convert to a `Duration`.
    pub fn to_duration(self) -> Duration {
        Duration::from_micros(self.0)
    }

    /// This time plus an offset (saturating at [`SimTime::MAX`]).
    pub fn after(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(SimTime::from_duration(d).0))
    }
}

/// The event queue driving a simulation.
#[derive(Debug)]
pub struct Engine<E> {
    queue: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    now: SimTime,
    seq: u64,
}

/// Wrapper making the payload inert for ordering purposes.
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Engine<E> {
    /// Empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Schedule an event at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(Reverse((at, self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Schedule an event `delay` after now.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule(self.now.after(delay), event);
    }

    /// Pop the next event, advancing the clock.
    #[allow(clippy::should_implement_trait)] // not an Iterator: popping mutates the clock
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop().map(|Reverse((t, _, EventBox(e)))| {
            self.now = t;
            (t, e)
        })
    }

    /// Pop the next event if `due` accepts its time, advancing the clock;
    /// `None` leaves the queue as it was.
    pub fn next_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let Reverse((t, ..)) = self.queue.peek()?;
        due(*t).then(|| self.next()).flatten()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut e = Engine::new();
        e.schedule(SimTime(30), "c");
        e.schedule(SimTime(10), "a");
        e.schedule(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| e.next().map(|(_, ev)| ev)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(e.next().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new();
        e.schedule(SimTime(5), 1);
        e.schedule(SimTime(5), 2);
        e.schedule(SimTime(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| e.next().map(|(_, ev)| ev)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = Engine::new();
        e.schedule(SimTime(100), "first");
        e.next();
        e.schedule_in(Duration::from_micros(50), "second");
        let (t, _) = e.next().unwrap();
        assert_eq!(t, SimTime(150));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime(100), ());
        e.next();
        e.schedule(SimTime(50), ());
    }

    #[test]
    fn peek_does_not_advance() {
        // A peek `next_if` refuses pops nothing and leaves the clock: an
        // event before 42 can still be scheduled.
        let mut e = Engine::new();
        e.schedule(SimTime(42), "late");
        assert_eq!(e.next_if(|t| t < SimTime(42)), None);
        e.schedule(SimTime(41), "early");
        assert_eq!(e.next_if(|t| t < SimTime(42)), Some((SimTime(41), "early")));
        assert_eq!(e.next_if(|t| t < SimTime(42)), None);
        assert_eq!(e.next_if(|_| true), Some((SimTime(42), "late")));
        assert_eq!(e.next_if(|_| true), None);
    }

    #[test]
    fn simtime_duration_roundtrip() {
        let t = SimTime::from_duration(Duration::from_millis(3));
        assert_eq!(t, SimTime(3000));
        assert_eq!(t.to_duration(), Duration::from_millis(3));
        assert_eq!(t.after(Duration::from_micros(7)), SimTime(3007));
    }

    #[test]
    fn from_duration_saturates_past_u64_micros() {
        // u64::MAX seconds = 1e6 · u64::MAX microseconds: far beyond what
        // u64 µs can hold. Must clamp to MAX, not wrap to a small value.
        let huge = Duration::from_secs(u64::MAX);
        assert_eq!(SimTime::from_duration(huge), SimTime::MAX);
        // Exactly representable boundary still converts exactly.
        let edge = Duration::from_micros(u64::MAX);
        assert_eq!(SimTime::from_duration(edge), SimTime::MAX);
    }

    #[test]
    fn after_saturates_instead_of_wrapping() {
        let near_end = SimTime(u64::MAX - 10);
        assert_eq!(
            near_end.after(Duration::from_micros(5)),
            SimTime(u64::MAX - 5)
        );
        // Offsets past the end clamp — they must never wrap into the past.
        assert_eq!(near_end.after(Duration::from_micros(100)), SimTime::MAX);
        assert_eq!(near_end.after(Duration::from_secs(u64::MAX)), SimTime::MAX);
        assert!(near_end.after(Duration::from_secs(u64::MAX)) >= near_end);
    }

    #[test]
    fn saturated_schedule_in_stays_in_the_future() {
        // The panic path this guards: a wrapping `after` would produce a
        // timestamp before `now`, and `schedule` would panic on an event
        // the caller meant as "effectively never".
        let mut e = Engine::new();
        e.schedule(SimTime(u64::MAX - 1), "almost-end");
        e.next();
        e.schedule_in(Duration::from_secs(u64::MAX), "never");
        assert_eq!(e.next(), Some((SimTime::MAX, "never")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn schedule_before_now_panics_with_message() {
        let mut e = Engine::new();
        e.schedule(SimTime(10), ());
        e.next();
        // One microsecond into the past is still the past.
        e.schedule(SimTime(9), ());
    }
}
