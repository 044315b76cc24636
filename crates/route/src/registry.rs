//! The backend registry: lifecycle states, rendezvous hashing, and the
//! session→backend pin table.

use std::collections::HashMap;

use chameleon_fleet::SessionId;
use chameleon_runtime::splitmix64;

/// Lifecycle state of one backend as seen by the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendState {
    /// Answering probes; eligible for new sessions.
    Healthy,
    /// Missed enough consecutive probes to be suspect, but not yet
    /// declared dead. Still serves its pinned sessions; not preferred
    /// for new ones (it stays rendezvous-eligible so determinism of
    /// placement does not depend on transient probe noise).
    Degraded,
    /// Administratively leaving: its sessions are being handed off and
    /// no new sessions are placed on it.
    Draining,
    /// Declared gone; every pinned session has been (or is being)
    /// re-homed from its shadow checkpoint.
    Dead,
}

impl BackendState {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::Draining => "draining",
            Self::Dead => "dead",
        }
    }

    /// Whether new sessions may be placed on (or handed off to) a
    /// backend in this state.
    #[must_use]
    pub fn eligible(self) -> bool {
        matches!(self, Self::Healthy | Self::Degraded)
    }
}

/// One registered backend.
#[derive(Clone, Debug)]
pub struct Backend {
    /// Address the router connects to (`host:port`).
    pub addr: String,
    /// Current lifecycle state.
    pub state: BackendState,
    /// Probe failures since the last success.
    pub consecutive_failures: u32,
}

/// Router-side view of the backend set: states, the rendezvous hash that
/// assigns unpinned sessions, and the pin table recording where each
/// session actually lives (pins override the hash after a handoff).
#[derive(Clone, Debug)]
pub struct Registry {
    backends: Vec<Backend>,
    salt: u64,
    pins: HashMap<SessionId, usize>,
}

impl Registry {
    /// A registry over `addrs`, all initially [`BackendState::Healthy`].
    /// `salt` perturbs the rendezvous hash so distinct routers (or test
    /// seeds) shuffle placement.
    pub fn new(addrs: Vec<String>, salt: u64) -> Self {
        Self {
            backends: addrs
                .into_iter()
                .map(|addr| Backend {
                    addr,
                    state: BackendState::Healthy,
                    consecutive_failures: 0,
                })
                .collect(),
            salt,
            pins: HashMap::new(),
        }
    }

    /// Number of registered backends (regardless of state).
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// All backends, in registration order.
    pub fn backends(&self) -> &[Backend] {
        &self.backends
    }

    /// One backend by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn backend(&self, index: usize) -> &Backend {
        &self.backends[index]
    }

    /// The index registered under `addr`, if any. Recovery uses this to
    /// map address-keyed CHAMRTE1 pins onto the current backend list.
    pub fn index_of(&self, addr: &str) -> Option<usize> {
        self.backends.iter().position(|b| b.addr == addr)
    }

    /// The whole pin table (read-only; used to snapshot durable state).
    pub fn pins(&self) -> &HashMap<SessionId, usize> {
        &self.pins
    }

    /// Sets a backend's state, resetting its failure streak when it
    /// returns to [`BackendState::Healthy`].
    pub fn set_state(&mut self, index: usize, state: BackendState) {
        self.backends[index].state = state;
        if state == BackendState::Healthy {
            self.backends[index].consecutive_failures = 0;
        }
    }

    /// Records one probe outcome; returns the updated failure streak.
    pub fn record_probe(&mut self, index: usize, ok: bool) -> u32 {
        if ok {
            self.backends[index].consecutive_failures = 0;
        } else {
            self.backends[index].consecutive_failures =
                self.backends[index].consecutive_failures.saturating_add(1);
        }
        self.backends[index].consecutive_failures
    }

    /// Rendezvous (highest-random-weight) choice among eligible backends,
    /// optionally excluding one: each backend scores
    /// `splitmix64(splitmix64(session ^ salt) ^ (index + 1))` and the
    /// highest score wins, so any two routers with the same salt agree,
    /// and removing one backend only moves the sessions that lived on it.
    pub fn rendezvous(&self, session: SessionId, exclude: Option<usize>) -> Option<usize> {
        let key = splitmix64(session ^ self.salt);
        self.backends
            .iter()
            .enumerate()
            .filter(|(i, b)| b.state.eligible() && Some(*i) != exclude)
            .max_by_key(|(i, _)| splitmix64(key ^ (*i as u64 + 1)))
            .map(|(i, _)| i)
    }

    /// The session's pin, if any (no rendezvous fallback).
    pub fn pinned(&self, session: SessionId) -> Option<usize> {
        self.pins.get(&session).copied()
    }

    /// Pins a session to a backend (recorded on create and after every
    /// handoff; pins are the source of truth for placement).
    pub fn pin(&mut self, session: SessionId, index: usize) {
        self.pins.insert(session, index);
    }

    /// Every session pinned to `index`, in ascending id order (stable
    /// iteration order makes drain/failover schedules deterministic).
    pub fn sessions_on(&self, index: usize) -> Vec<SessionId> {
        let mut sessions: Vec<SessionId> = self
            .pins
            .iter()
            .filter(|(_, &b)| b == index)
            .map(|(&s, _)| s)
            .collect();
        sessions.sort_unstable();
        sessions
    }

    /// Number of backends currently in `state`.
    pub fn count_in(&self, state: BackendState) -> u64 {
        self.backends.iter().filter(|b| b.state == state).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: usize, salt: u64) -> Registry {
        Registry::new(
            (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect(),
            salt,
        )
    }

    #[test]
    fn rendezvous_is_deterministic_and_spreads_sessions() {
        let r = registry(4, 7);
        let mut counts = [0usize; 4];
        for s in 0..400u64 {
            let a = r.rendezvous(s, None).expect("eligible backends");
            let b = r.rendezvous(s, None).expect("eligible backends");
            assert_eq!(a, b);
            counts[a] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "some backend got nothing: {counts:?}"
        );
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_sessions() {
        let mut r = registry(4, 3);
        let before: Vec<usize> = (0..200).map(|s| r.rendezvous(s, None).unwrap()).collect();
        r.set_state(2, BackendState::Dead);
        for (s, &old) in before.iter().enumerate() {
            let new = r.rendezvous(s as u64, None).unwrap();
            if old != 2 {
                assert_eq!(new, old, "session {s} moved without cause");
            } else {
                assert_ne!(new, 2);
            }
        }
    }

    #[test]
    fn pins_override_rendezvous_and_enumerate_per_backend() {
        let mut r = registry(3, 1);
        let s = 42;
        assert_eq!(r.pinned(s), None);
        let hashed = r.rendezvous(s, None).unwrap();
        let other = (hashed + 1) % 3;
        r.pin(s, other);
        assert_eq!(r.pinned(s), Some(other));
        assert_eq!(r.rendezvous(s, None), Some(hashed));
        assert_eq!(r.sessions_on(other), vec![s]);
        assert!(r.sessions_on(hashed).is_empty());
    }

    #[test]
    fn draining_and_dead_backends_are_not_placement_targets() {
        let mut r = registry(2, 9);
        r.set_state(0, BackendState::Draining);
        for s in 0..50 {
            assert_eq!(r.rendezvous(s, None), Some(1));
        }
        r.set_state(1, BackendState::Dead);
        assert_eq!(r.rendezvous(5, None), None);
    }

    #[test]
    fn probe_streaks_accumulate_and_reset() {
        let mut r = registry(1, 0);
        assert_eq!(r.record_probe(0, false), 1);
        assert_eq!(r.record_probe(0, false), 2);
        assert_eq!(r.record_probe(0, true), 0);
        r.set_state(0, BackendState::Degraded);
        r.backends[0].consecutive_failures = 5;
        r.set_state(0, BackendState::Healthy);
        assert_eq!(r.backend(0).consecutive_failures, 0);
    }
}
