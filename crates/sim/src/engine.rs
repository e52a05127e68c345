//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a virtual clock and a priority queue of events. An
//! event is a boxed `FnOnce(&mut Sim)`; components hold their state in
//! `Rc<RefCell<...>>` cells, capture clones in the closures they
//! schedule, and re-schedule themselves from inside the handler. The
//! engine is single-threaded and deterministic: events at the same
//! instant fire in scheduling order (FIFO ties), and all randomness
//! flows from one seeded RNG.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::{SimDuration, SimTime};

type EventFn = Box<dyn FnOnce(&mut Sim)>;

struct Queued {
    at: SimTime,
    seq: u64,
    f: EventFn,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Host time spent inside event handlers, collected while
/// [`Sim::enable_shard_timing`] is on (bench use; the simulation itself
/// never reads clocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTiming {
    busy_ns: u64,
}

impl ShardTiming {
    /// Total handler busy time in nanoseconds.
    pub fn work_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// The discrete-event simulator: virtual clock, event queue, seeded RNG.
///
/// # Examples
///
/// ```
/// use es_sim::{Sim, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(42);
/// let fired = Rc::new(Cell::new(false));
/// let f = fired.clone();
/// sim.schedule_in(SimDuration::from_millis(10), move |_sim| f.set(true));
/// sim.run();
/// assert!(fired.get());
/// assert_eq!(sim.now(), SimTime::from_millis(10));
/// ```
pub struct Sim {
    now: SimTime,
    queue: BinaryHeap<Queued>,
    /// Scheduling counter: total order for same-instant events.
    next_seq: u64,
    rng: StdRng,
    seed: u64,
    processed: u64,
    /// Handler busy time, collected only when enabled (bench use).
    timing: Option<ShardTiming>,
}

impl Sim {
    /// Creates a simulator at time zero with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            seed,
            processed: 0,
            timing: None,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seed this simulator was created with. Components that keep
    /// their own derived RNG streams (e.g. per-node network
    /// impairments) mix this with a stable component index so their
    /// draws are independent of global event interleaving.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seeded RNG; all simulated randomness must come from here.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Cross-queue head scans performed. The engine has one queue, so
    /// this is always 0; it stays for bench reports that track it.
    pub fn merge_scans(&self) -> u64 {
        0
    }

    /// Starts collecting handler busy time into a [`ShardTiming`].
    /// Bench-only: handler execution is timed with the host clock, so
    /// the collected numbers are not deterministic (the event order
    /// still is).
    pub fn enable_shard_timing(&mut self) {
        self.timing = Some(ShardTiming::default());
    }

    /// Takes the busy-time accounting collected since
    /// [`Sim::enable_shard_timing`] and keeps collecting.
    pub fn take_shard_timing(&mut self) -> ShardTiming {
        self.timing
            .replace(ShardTiming::default())
            .unwrap_or_default()
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now" (the event fires
    /// before the clock advances further), which keeps handlers that
    /// compute deadlines from stale state safe.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Queued {
            at: at.max(self.now),
            seq,
            f: Box::new(f),
        });
    }

    /// Schedules `f` to run after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now.saturating_add(delay), f)
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.processed += 1;
        if self.timing.is_some() {
            #[allow(clippy::disallowed_methods)]
            // es-allow(wall-clock): bench-only handler busy-time accounting, off unless enable_shard_timing() was called; the measured durations never influence event order
            let start = Instant::now();
            (ev.f)(self);
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(t) = &mut self.timing {
                t.busy_ns += ns;
            }
        } else {
            (ev.f)(self);
        }
        true
    }

    /// Runs events until the queue is empty. Returns the number of
    /// events processed by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.processed;
        while self.step() {}
        self.processed - before
    }

    /// Runs events with timestamps `<= t`, then advances the clock to
    /// exactly `t` (even if the queue empties earlier). Returns the
    /// number of events processed by this call.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        let before = self.processed;
        while self.queue.peek().is_some_and(|h| h.at <= t) {
            self.step();
        }
        if t > self.now && t != SimTime::MAX {
            self.now = t;
        }
        self.processed - before
    }

    /// Runs for a span of virtual time from "now".
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let t = self.now.saturating_add(d);
        self.run_until(t)
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.events_pending())
            .field("processed", &self.processed)
            .finish()
    }
}

/// A shared mutable cell for simulation components.
///
/// Components live in `Rc<RefCell<...>>` so that event closures can
/// capture cheap clones. This alias plus [`shared`] keeps signatures
/// readable across the workspace.
pub type Shared<T> = Rc<RefCell<T>>;

/// Wraps a value in a [`Shared`] cell.
pub fn shared<T>(value: T) -> Shared<T> {
    Rc::new(RefCell::new(value))
}

/// A cancellable repeating timer.
///
/// Fires `f(&mut Sim)` every `period`, starting one period from the
/// moment [`RepeatingTimer::start`] is called (or at a given phase).
/// Dropping the handle does not stop the timer; call
/// [`RepeatingTimer::stop`].
pub struct RepeatingTimer {
    inner: Shared<TimerInner>,
}

struct TimerInner {
    period: SimDuration,
    active: bool,
    fires: u64,
}

impl RepeatingTimer {
    /// Creates and starts a timer that first fires after `period`.
    pub fn start(sim: &mut Sim, period: SimDuration, f: impl FnMut(&mut Sim) + 'static) -> Self {
        Self::start_with_phase(sim, period, period, f)
    }

    /// Creates and starts a timer whose first firing is after `phase`
    /// and which then repeats every `period`.
    pub fn start_with_phase(
        sim: &mut Sim,
        period: SimDuration,
        phase: SimDuration,
        f: impl FnMut(&mut Sim) + 'static,
    ) -> Self {
        assert!(!period.is_zero(), "a zero-period timer would livelock");
        let inner = shared(TimerInner {
            period,
            active: true,
            fires: 0,
        });
        let f = shared(f);
        schedule_tick(sim, phase, inner.clone(), f);
        RepeatingTimer { inner }
    }

    /// Stops the timer; the pending tick becomes a no-op.
    pub fn stop(&self) {
        self.inner.borrow_mut().active = false;
    }

    /// True if the timer is still running.
    pub fn is_active(&self) -> bool {
        self.inner.borrow().active
    }

    /// Number of times the timer has fired.
    pub fn fire_count(&self) -> u64 {
        self.inner.borrow().fires
    }
}

fn schedule_tick(
    sim: &mut Sim,
    delay: SimDuration,
    inner: Shared<TimerInner>,
    f: Shared<impl FnMut(&mut Sim) + 'static>,
) {
    sim.schedule_in(delay, move |sim| {
        let period = {
            let mut t = inner.borrow_mut();
            if !t.active {
                return;
            }
            t.fires += 1;
            t.period
        };
        (f.borrow_mut())(sim);
        // The callback may have stopped the timer; re-check before
        // re-arming.
        if inner.borrow().active {
            schedule_tick(sim, period, inner, f);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(1);
        let order = shared(Vec::new());
        for (label, ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let order = order.clone();
            sim.schedule_in(SimDuration::from_millis(ms), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn same_instant_ties_fire_fifo() {
        let mut sim = Sim::new(1);
        let order = shared(Vec::new());
        for label in 0..5 {
            let order = order.clone();
            sim.schedule_at(SimTime::from_millis(5), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim = Sim::new(1);
        let fired_at = Rc::new(Cell::new(SimTime::ZERO));
        let fa = fired_at.clone();
        // From a handler at t=10ms, schedule "at 1ms": must clamp to now.
        sim.schedule_in(SimDuration::from_millis(10), move |sim| {
            let fa = fa.clone();
            sim.schedule_at(SimTime::from_millis(1), move |sim| {
                fa.set(sim.now());
            });
        });
        sim.run();
        assert_eq!(fired_at.get(), SimTime::from_millis(10));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Sim::new(1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // And does not run later events.
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        sim.schedule_in(SimDuration::from_secs(10), move |_| f.set(true));
        sim.run_until(SimTime::from_secs(7));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_secs(7));
        sim.run_for(SimDuration::from_secs(10));
        assert!(fired.get());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Sim::new(1);
        let count = Rc::new(Cell::new(0u32));
        fn chain(sim: &mut Sim, count: Rc<Cell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            sim.schedule_in(SimDuration::from_millis(1), move |sim| {
                count.set(count.get() + 1);
                chain(sim, count.clone(), left - 1);
            });
        }
        chain(&mut sim, count.clone(), 100);
        sim.run();
        assert_eq!(count.get(), 100);
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn repeating_timer_fires_on_period_and_stops() {
        let mut sim = Sim::new(1);
        let ticks = shared(Vec::new());
        let t = ticks.clone();
        let timer = RepeatingTimer::start(&mut sim, SimDuration::from_millis(100), move |sim| {
            t.borrow_mut().push(sim.now().as_millis());
        });
        sim.run_until(SimTime::from_millis(450));
        assert_eq!(*ticks.borrow(), vec![100, 200, 300, 400]);
        assert_eq!(timer.fire_count(), 4);
        timer.stop();
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(timer.fire_count(), 4, "no ticks after stop");
    }

    #[test]
    fn timer_phase_offsets_first_fire() {
        let mut sim = Sim::new(1);
        let ticks = shared(Vec::new());
        let t = ticks.clone();
        let _timer = RepeatingTimer::start_with_phase(
            &mut sim,
            SimDuration::from_millis(100),
            SimDuration::from_millis(30),
            move |sim| t.borrow_mut().push(sim.now().as_millis()),
        );
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(*ticks.borrow(), vec![30, 130, 230]);
    }

    #[test]
    fn determinism_same_seed_same_rng_stream() {
        use rand::Rng;
        let mut a = Sim::new(7);
        let mut b = Sim::new(7);
        let xs: Vec<u32> = (0..16).map(|_| a.rng().gen()).collect();
        let ys: Vec<u32> = (0..16).map(|_| b.rng().gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn shard_timing_collects_handler_busy_time() {
        let mut sim = Sim::new(1);
        sim.enable_shard_timing();
        for _ in 0..3 {
            sim.schedule_at(SimTime::from_millis(1), |_| {
                std::hint::black_box((0..100).sum::<u64>());
            });
        }
        sim.run();
        assert!(sim.take_shard_timing().work_ns() > 0);
        // take() resets the accumulator.
        assert_eq!(sim.take_shard_timing(), ShardTiming::default());
        assert_eq!(sim.merge_scans(), 0);
    }
}
