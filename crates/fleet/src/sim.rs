//! Deterministic single-threaded execution of the shard workers.
//!
//! Production mode runs each [`ShardWorker`] on its own thread behind a
//! bounded `mpsc` queue; the OS scheduler decides which shard makes
//! progress when. [`SimExecutor`] replaces both: the workers live in one
//! `Vec`, each behind an in-memory `VecDeque` with the same bounded
//! depth and the same reject-when-full backpressure, and a seeded
//! [`SimScheduler`] decides — one draw per step — which non-empty queue
//! processes its next request. Per-shard FIFO order is preserved (the
//! fleet's per-session ordering guarantee); *cross*-shard interleaving
//! becomes a pure function of the scheduler seed, so any interleaving
//! bug replays bit-identically from a u64.

use std::collections::VecDeque;

use chameleon_runtime::SimScheduler;

use crate::engine::{Backpressure, FleetError};
use crate::metrics::ShardMetrics;
use crate::shard::{Request, ShardWorker};

/// All shard workers of one fleet, executed cooperatively under a
/// seeded scheduler on a shared virtual clock.
pub(crate) struct SimExecutor {
    scheduler: SimScheduler,
    workers: Vec<ShardWorker>,
    queues: Vec<VecDeque<Request>>,
    queue_depth: usize,
}

impl SimExecutor {
    /// Runs `workers`, one per shard in shard order, under `scheduler`
    /// behind queues of `queue_depth`.
    pub(crate) fn new(
        scheduler: SimScheduler,
        workers: Vec<ShardWorker>,
        queue_depth: usize,
    ) -> Self {
        Self {
            scheduler,
            queues: workers.iter().map(|_| VecDeque::new()).collect(),
            workers,
            queue_depth,
        }
    }

    /// Enqueues a request on `shard`'s queue with exactly the bounded
    /// semantics of the threaded path's `try_send`.
    pub(crate) fn try_submit(&mut self, shard: usize, request: Request) -> Result<(), FleetError> {
        let queue = &mut self.queues[shard];
        if queue.len() >= self.queue_depth {
            return Err(FleetError::Rejected(Backpressure {
                shard,
                queue_depth: self.queue_depth,
            }));
        }
        queue.push_back(request);
        Ok(())
    }

    /// Executes one request: the scheduler picks which non-empty shard
    /// queue progresses. Returns `false` when every queue is empty.
    pub(crate) fn step(&mut self) -> bool {
        let runnable: Vec<usize> = (0..self.queues.len())
            .filter(|&s| !self.queues[s].is_empty())
            .collect();
        if runnable.is_empty() {
            return false;
        }
        let shard = runnable[self.scheduler.pick(runnable.len())];
        let request = self.queues[shard].pop_front().expect("runnable shard");
        self.workers[shard].process(request);
        true
    }

    /// Runs until every queue is empty; returns requests processed.
    pub(crate) fn run_until_idle(&mut self) -> usize {
        let mut steps = 0;
        while self.step() {
            steps += 1;
        }
        steps
    }

    /// Snapshots every worker directly — no reply channels needed when
    /// the workers live on the calling thread.
    pub(crate) fn metrics(&self) -> Vec<ShardMetrics> {
        self.workers
            .iter()
            .enumerate()
            .map(|(index, worker)| {
                let mut snapshot = worker.snapshot();
                snapshot.shard = index;
                snapshot.queue_depth = self.queues[index].len();
                snapshot
            })
            .collect()
    }
}
