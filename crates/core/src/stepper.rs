//! The paper's stream protocol as a resumable stepper.

use chameleon_faults::FaultInjector;
use chameleon_stream::{DomainIlScenario, StreamConfig, StreamCursor};

use crate::Strategy;

/// Where a stream pass stands: the four numbers a checkpoint keeps to
/// resume it ([`StreamStepper::resume`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamPosition {
    /// Position of the domain streaming now, or next, in the pass's
    /// domain order.
    pub next_domain: usize,
    /// Whether that domain's stream is open.
    pub mid_domain: bool,
    /// Batches delivered from the current domain.
    pub batches_into_domain: u64,
    /// Whether the pass has ended and the strategy was finalized.
    pub finalized: bool,
}

/// One single pass over a scenario's domain streams, advanced on demand:
/// the only code that knows the evaluation protocol.
///
/// * The domain order is the identity unless [`Self::ordered`] sets one.
/// * The domain at position `p` streams with seed
///   `stream_seed + p·0x9E37`.
/// * Each domain is opened with `begin_domain`, each of its batches is
///   observed, and it is closed with `end_domain` once its stream is
///   exhausted; `finalize` follows the last domain's close.
/// * With a fault injector, each arriving batch passes through its stream
///   faults before it is observed, and then the resident stores receive
///   the bit upsets of the ticks that batch represents.
///
/// The strategy, the scenario and the injector are lent per call, so a
/// `Trainer` run and a fleet session drive the same code.
#[derive(Debug)]
pub struct StreamStepper {
    config: StreamConfig,
    stream_seed: u64,
    order: Vec<usize>,
    /// The open domain's stream.
    cursor: Option<StreamCursor>,
    next_domain: usize,
    batches_into_domain: u64,
    finalized: bool,
}

impl StreamStepper {
    /// A pass over every domain of `scenario`, in order.
    pub fn new(scenario: &DomainIlScenario, config: StreamConfig, stream_seed: u64) -> Self {
        Self {
            config,
            stream_seed,
            order: (0..scenario.spec().num_domains).collect(),
            cursor: None,
            next_domain: 0,
            batches_into_domain: 0,
            finalized: false,
        }
    }

    /// A pass over the domains in an explicit `order` — the stream-order
    /// robustness protocol.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_domains`.
    pub fn ordered(
        scenario: &DomainIlScenario,
        config: StreamConfig,
        order: Vec<usize>,
        stream_seed: u64,
    ) -> Self {
        let num_domains = scenario.spec().num_domains;
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert!(
            sorted.into_iter().eq(0..num_domains),
            "order must be a permutation of 0..{num_domains}"
        );
        Self {
            order,
            ..Self::new(scenario, config, stream_seed)
        }
    }

    /// The in-order pass over `scenario` at position `at`: an open domain
    /// is reseeded and fast-forwarded by replaying the batches already
    /// delivered from it, so the next batch is the one the interrupted
    /// pass would have drawn. A position a pass reported reads back
    /// unchanged from [`Self::position`]. [`StreamPosition::default`] is a
    /// fresh pass.
    ///
    /// # Panics
    ///
    /// Panics if `at` holds an open domain outside the scenario.
    pub fn resume(
        scenario: &DomainIlScenario,
        config: StreamConfig,
        stream_seed: u64,
        at: StreamPosition,
    ) -> Self {
        let mut pass = Self {
            next_domain: at.next_domain,
            batches_into_domain: at.batches_into_domain,
            finalized: at.finalized,
            ..Self::new(scenario, config, stream_seed)
        };
        if at.mid_domain && !at.finalized {
            let mut cursor = pass.open_cursor(scenario);
            for _ in 0..at.batches_into_domain {
                let _ = cursor.next_batch(scenario.generator());
            }
            pass.cursor = Some(cursor);
        }
        pass
    }

    /// Where the pass stands.
    pub fn position(&self) -> StreamPosition {
        StreamPosition {
            next_domain: self.next_domain,
            mid_domain: self.cursor.is_some(),
            batches_into_domain: self.batches_into_domain,
            finalized: self.finalized,
        }
    }

    /// Delivers the pass's next batch to `strategy`, closing an exhausted
    /// domain and opening the next on the way. Returns `false` once the
    /// pass has ended and the strategy is finalized; further calls are
    /// no-ops.
    pub fn step_batch<S: Strategy + ?Sized>(
        &mut self,
        scenario: &DomainIlScenario,
        strategy: &mut S,
        mut faults: Option<&mut FaultInjector>,
    ) -> bool {
        while !self.finalized {
            if self.deliver(scenario, strategy, faults.as_deref_mut()) {
                return true;
            }
            self.close(strategy);
        }
        false
    }

    /// Streams the rest of the current domain and closes it, finalizing
    /// the strategy after the last domain. Returns `false`, doing
    /// nothing, once the pass has ended.
    pub fn step_domain<S: Strategy + ?Sized>(
        &mut self,
        scenario: &DomainIlScenario,
        strategy: &mut S,
    ) -> bool {
        if self.finalized {
            return false;
        }
        while self.deliver(scenario, strategy, None) {}
        self.close(strategy);
        true
    }

    /// The stream of the domain at the pass's current position.
    fn open_cursor(&self, scenario: &DomainIlScenario) -> StreamCursor {
        scenario.stream_cursor(
            self.order[self.next_domain],
            &self.config,
            self.stream_seed
                .wrapping_add(self.next_domain as u64 * 0x9E37),
        )
    }

    /// Observes the open domain's next batch, opening the domain first
    /// when none is open. `false` when there is no batch: the open
    /// domain's stream is exhausted, or the pass is past its last domain.
    fn deliver<S: Strategy + ?Sized>(
        &mut self,
        scenario: &DomainIlScenario,
        strategy: &mut S,
        faults: Option<&mut FaultInjector>,
    ) -> bool {
        if self.cursor.is_none() {
            if self.next_domain >= self.order.len() {
                return false;
            }
            strategy.begin_domain(self.next_domain);
            self.batches_into_domain = 0;
            self.cursor = Some(self.open_cursor(scenario));
        }
        let cursor = self.cursor.as_mut().expect("opened above");
        let Some(batch) = cursor.next_batch(scenario.generator()) else {
            return false;
        };
        self.batches_into_domain += 1;
        match faults {
            None => strategy.observe(&batch),
            Some(injector) => {
                // Stream time passes whether or not the batch is
                // delivered: a dropped batch's samples still age whatever
                // is resident in the stores.
                let ticks = batch.len() as u64;
                for delivered in injector.mangle_batch(batch) {
                    strategy.observe(&delivered);
                }
                strategy.visit_stores(&mut |placement, sample| {
                    injector.flip_bits(&mut sample.features, ticks, placement);
                });
            }
        }
        true
    }

    /// Closes the open domain, then finalizes the strategy once the pass
    /// is past its last domain.
    fn close<S: Strategy + ?Sized>(&mut self, strategy: &mut S) {
        if self.cursor.take().is_some() {
            strategy.end_domain(self.next_domain);
            self.next_domain += 1;
        }
        if self.next_domain >= self.order.len() {
            strategy.finalize();
            self.finalized = true;
        }
    }
}
