//! `chameleon-runtime`: the seam between real time and simulated time.
//!
//! The fleet and serving layers time-stamp work, reap idle connections,
//! and back off under backpressure. In production those behaviors read
//! the wall clock and sleep on it; under deterministic simulation
//! (`chameleon-simtest`, FoundationDB-style) they must instead read a
//! **virtual clock** that only moves when the harness advances it, so a
//! single u64 seed fully determines every timeout firing and every
//! scheduling decision — and any failure replays bit-identically from
//! its seed.
//!
//! * [`Clock`] — the trait both worlds implement: monotonic nanoseconds
//!   plus a `sleep` that either blocks the thread ([`WallClock`]) or
//!   advances virtual time ([`VirtualClock`]).
//! * [`SimRng`] — a splitmix64 sequence; the only randomness source the
//!   simulation harness is allowed to use.
//! * [`Runtime`] — how a concurrent component should execute: real
//!   threads ([`Runtime::Threads`]) or a single-threaded, seeded
//!   cooperative scheduler ([`Runtime::Sim`]).
//!
//! Everything here is `std`-only and dependency-free, like the rest of
//! the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source components borrow instead of calling
/// [`Instant::now`] / [`std::thread::sleep`] directly.
///
/// Implementations must be monotonic (`now_nanos` never decreases) and
/// thread-safe; beyond that the two worlds differ deliberately:
/// [`WallClock::sleep`] blocks the calling thread, while
/// [`VirtualClock::sleep`] advances virtual time instantly.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's origin.
    fn now_nanos(&self) -> u64;

    /// Waits out `duration` in this clock's notion of time.
    fn sleep(&self, duration: Duration);
}

/// Runs `f` between two paired monotonic readings of `clock`, returning
/// its result and the elapsed nanoseconds — the primitive span recorders
/// and metric blocks build on, so both worlds (wall and virtual) time a
/// region the same way.
pub fn timed<R>(clock: &dyn Clock, f: impl FnOnce() -> R) -> (R, u64) {
    let started = clock.now_nanos();
    let result = f();
    (result, clock.now_nanos().saturating_sub(started))
}

/// Production clock: [`Instant`]-based monotonic time and real
/// [`std::thread::sleep`].
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is the moment of construction.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Convenience: a shareable `Arc<dyn Clock>` wall clock.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(Self::new())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// Simulation clock: an atomic nanosecond counter that only moves when
/// someone advances it.
///
/// `sleep(d)` advances the clock by `d` and returns immediately — under
/// simulation, waiting *is* advancing time. An optional `auto_tick`
/// makes every [`Clock::now_nanos`] read advance the clock by a fixed
/// amount, so code that measures durations (`t1 - t0`) observes
/// deterministic nonzero values instead of zero.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
    auto_tick: u64,
}

impl VirtualClock {
    /// A virtual clock starting at nanosecond 0 that only moves via
    /// [`VirtualClock::advance`] and [`Clock::sleep`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A virtual clock where every `now_nanos` read also advances time
    /// by `tick_nanos` — deterministic stand-in for "work takes time".
    pub fn with_auto_tick(tick_nanos: u64) -> Self {
        Self {
            nanos: AtomicU64::new(0),
            auto_tick: tick_nanos,
        }
    }

    /// Convenience: a shareable auto-ticking virtual clock.
    pub fn shared(tick_nanos: u64) -> Arc<VirtualClock> {
        Arc::new(Self::with_auto_tick(tick_nanos))
    }

    /// Moves virtual time forward by `duration`.
    pub fn advance(&self, duration: Duration) {
        self.advance_nanos(duration.as_nanos() as u64);
    }

    /// Moves virtual time forward by `nanos` nanoseconds.
    pub fn advance_nanos(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        if self.auto_tick > 0 {
            self.nanos.fetch_add(self.auto_tick, Ordering::SeqCst) + self.auto_tick
        } else {
            self.nanos.load(Ordering::SeqCst)
        }
    }

    fn sleep(&self, duration: Duration) {
        self.advance(duration);
    }
}

/// The splitmix64 mixing function — the workspace-wide standard hash for
/// deriving independent seeds (session→shard assignment, per-session
/// fault plans, scheduler draws).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic random sequence (splitmix64 stream). This is the
/// *only* entropy the simulation harness draws from, which is what makes
/// a failing run reproducible from its seed alone.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// A sequence fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform draw in `0..bound` (`bound == 0` returns 0). The modulo
    /// bias is irrelevant at simulation bounds (tens of choices against
    /// a 64-bit draw) and keeping it branch-free keeps replay exact.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Bernoulli draw with probability `numer / denom`.
    pub fn chance(&mut self, numer: u64, denom: u64) -> bool {
        self.below(denom) < numer
    }
}

/// A seeded scheduler for single-threaded cooperative simulation: every
/// "which runnable task goes next" decision is one [`SimRng`] draw, and
/// all simulated time lives on one shared [`VirtualClock`].
#[derive(Debug)]
pub struct SimScheduler {
    rng: SimRng,
    clock: Arc<VirtualClock>,
}

/// Virtual nanoseconds each `now_nanos` read advances under simulation,
/// so measured durations are deterministic and nonzero (1µs per read).
pub const SIM_AUTO_TICK_NANOS: u64 = 1_000;

impl SimScheduler {
    /// A scheduler whose every decision is determined by `seed`, with a
    /// fresh auto-ticking [`VirtualClock`].
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SimRng::new(splitmix64(seed ^ 0x5C4E_D01E)),
            clock: VirtualClock::shared(SIM_AUTO_TICK_NANOS),
        }
    }

    /// The virtual clock all simulated components share.
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// Picks which of `runnable` choices executes next.
    pub fn pick(&mut self, runnable: usize) -> usize {
        self.rng.below(runnable as u64) as usize
    }
}

/// How a concurrent component should execute.
pub enum Runtime {
    /// Production: real `std::thread` workers and bounded `mpsc` queues,
    /// timed by a [`WallClock`].
    Threads,
    /// Deterministic simulation: no threads are spawned; the component
    /// queues work internally and a [`SimScheduler`] decides, draw by
    /// draw, which shard/queue makes progress, on a shared
    /// [`VirtualClock`].
    Sim(SimScheduler),
}

impl Runtime {
    /// Shorthand for a seeded simulation runtime.
    pub fn sim(seed: u64) -> Self {
        Self::Sim(SimScheduler::new(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now_nanos(), 5_000_000);
        clock.sleep(Duration::from_nanos(7));
        assert_eq!(clock.now_nanos(), 5_000_007);
    }

    #[test]
    fn auto_tick_makes_measured_durations_nonzero_and_deterministic() {
        let clock = VirtualClock::with_auto_tick(1_000);
        let t0 = clock.now_nanos();
        let t1 = clock.now_nanos();
        assert_eq!(t1 - t0, 1_000);
        let clock2 = VirtualClock::with_auto_tick(1_000);
        assert_eq!(clock2.now_nanos(), t0);
    }

    #[test]
    fn sim_rng_replays_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn rng_below_respects_bound() {
        let mut rng = SimRng::new(7);
        for bound in [1u64, 2, 3, 17] {
            for _ in 0..50 {
                assert!(rng.below(bound) < bound);
            }
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn scheduler_decisions_replay_from_seed() {
        let mut a = SimScheduler::new(0xFEED);
        let mut b = SimScheduler::new(0xFEED);
        let picks_a: Vec<usize> = (0..64).map(|_| a.pick(5)).collect();
        let picks_b: Vec<usize> = (0..64).map(|_| b.pick(5)).collect();
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().any(|&p| p != picks_a[0]), "degenerate rng");
    }

    #[test]
    fn timed_measures_exactly_one_tick_on_a_virtual_clock() {
        let clock = VirtualClock::shared(250);
        let (value, elapsed) = timed(clock.as_ref(), || 42);
        assert_eq!(value, 42);
        // Two paired reads of a 250 ns auto-tick clock: exactly one
        // tick elapses between them.
        assert_eq!(elapsed, 250);
    }
}
