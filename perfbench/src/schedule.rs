//! The seeded load: session ids, session specs, and every connection's op
//! stream, as a pure function of `(workload, seed)`.
//!
//! Nothing here touches the serving stack or a clock, so the same inputs
//! reach the program on every run of a seed, and the tests below pin that.

use chameleon_core::{ChameleonConfig, Precision};
use chameleon_fleet::{SessionId, SessionSpec};
use chameleon_stream::{DatasetSpec, PreferenceProfile, StreamConfig};

/// Client threads, one connection each: the host's two vCPUs.
pub const CONNECTIONS: usize = 2;

/// Long-term store capacity of every session.
pub const LT_CAPACITY: usize = 100;

/// Batches every session is stepped before anything is timed: past the
/// 40-batch learning window and past the 100 batches that fill the
/// long-term store (one long-term insert per batch of ten).
pub const WARMUP_BATCHES: u32 = 110;

/// The synthetic dataset a workload streams: CORe50-tiny's geometry (10
/// classes, 96-dim raw input, batches of ten) with `domains` domains of
/// `domain_batches` batches and one test row per class and domain. A
/// restore replays the stream from the start of the session's domain,
/// so the domain length bounds that fast-forward; the test set, which
/// every evaluation runs in full, grows with the number of domains.
pub fn dataset(domains: usize, domain_batches: u32) -> DatasetSpec {
    DatasetSpec {
        name: "perfbench",
        num_domains: domains,
        train_per_class_per_domain: domain_batches as usize,
        test_per_class_per_domain: 1,
        ..DatasetSpec::core50_tiny()
    }
}

/// Warm-up batches of the session at popularity rank `rank`: the fixed
/// [`WARMUP_BATCHES`] plus an offset spread evenly by rank over one
/// domain of `domain_batches`. A restore's cost grows with the position
/// in the domain; spreading positions over the whole domain keeps the
/// mean restore cost flat while sessions advance and wrap into the next
/// domain, and the same rank gets the same offset under every seed.
pub fn warmup_batches(rank: usize, domain_batches: u32) -> u32 {
    let golden = 0.618_033_988_749_894_9_f64;
    let phase = ((rank as f64 + 0.5) * golden).fract();
    WARMUP_BATCHES + (phase * f64::from(domain_batches)) as u32
}

/// How a connection picks the session of its next op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Popularity {
    /// Every session of the stripe equally likely.
    Uniform,
    /// Rank `r` (0-based) of the stripe drawn with weight `1/(r+1)^s`.
    Zipf(f64),
}

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `Step { batches: 1 }` — a write.
    Step,
    /// `Predict` — a full evaluation, a read.
    Predict,
    /// `Checkpoint` — the session's CHAMFLT blob, a read.
    Checkpoint,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 3] = [Op::Step, Op::Predict, Op::Checkpoint];

    /// Lowercase name used in metric names and the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Op::Step => "step",
            Op::Predict => "predict",
            Op::Checkpoint => "checkpoint",
        }
    }

    /// Draws an op from the fixed mix: 80% step, 10% predict, 10%
    /// checkpoint.
    fn draw(rng: &mut Rng) -> Op {
        let u = rng.unit();
        if u < 0.8 {
            Op::Step
        } else if u < 0.9 {
            Op::Predict
        } else {
            Op::Checkpoint
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so the benchmark's
/// inputs never change because a library RNG did.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives an independent seed for one purpose (`tag`) of a run.
pub fn derive(seed: u64, tag: &str) -> u64 {
    tag.bytes().fold(mix64(seed ^ 0xBE7C_4A11), |h, b| {
        mix64(h ^ u64::from(b)).wrapping_add(0x9E37)
    })
}

/// One connection's share of the load: a disjoint stripe of sessions and
/// the endless stream of `(session, op)` draws over it.
#[derive(Clone, Debug)]
pub struct ConnPlan {
    /// Sessions this connection owns, hottest first under Zipf.
    pub sessions: Vec<SessionId>,
    cumulative: Vec<f64>,
    rng: Rng,
}

impl ConnPlan {
    fn new(sessions: Vec<SessionId>, popularity: Popularity, seed: u64) -> Self {
        let weights: Vec<f64> = (0..sessions.len())
            .map(|rank| match popularity {
                Popularity::Uniform => 1.0,
                Popularity::Zipf(s) => 1.0 / ((rank + 1) as f64).powf(s),
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self {
            sessions,
            cumulative,
            rng: Rng::new(seed),
        }
    }

    /// The next operation this connection sends.
    pub fn next_op(&mut self) -> (SessionId, Op) {
        let u = self.rng.unit();
        let index = self
            .cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.sessions.len() - 1);
        (self.sessions[index], Op::draw(&mut self.rng))
    }
}

/// Everything the load generator sends, fixed by `(workload, seed)`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Every session with its spec, in creation order.
    pub sessions: Vec<(SessionId, SessionSpec)>,
    /// One op stream per connection.
    pub conns: Vec<ConnPlan>,
}

/// Seed of the scenario `workload` streams under `seed`.
pub fn scenario_seed(workload: &str, seed: u64) -> u64 {
    derive(derive(seed, workload), "scenario")
}

/// Builds the plan of `workload` (which names the seed's purpose, so two
/// workloads never share inputs) for `sessions` sessions.
///
/// Ids are drawn so that, under `home_shard` (the fleet's placement
/// hash) over `shards` shards, connection `c`'s whole stripe lives on
/// shard `c % shards`. Each shard thread then serves one closed loop, so
/// a request never queues behind the other connection's restore: left to
/// hash luck, about half of them did, which put checkpoint p50 on the
/// edge between a fast and a slow mode, and the Zipf head of both stripes
/// landed on one shard under some seeds and not others.
pub fn plan(
    workload: &str,
    seed: u64,
    sessions: usize,
    precision: Precision,
    popularity: Popularity,
    shards: usize,
    home_shard: &dyn Fn(SessionId) -> usize,
) -> Plan {
    let base = derive(seed, workload);
    let mut rng = Rng::new(derive(base, "sessions"));
    let num_classes = DatasetSpec::core50_tiny().num_classes;
    let mut ids: Vec<SessionId> = Vec::with_capacity(sessions);
    while ids.len() < sessions {
        let conn = ids.len() % CONNECTIONS;
        // Ids stay below 2^53 so they print exactly in JSON.
        let id = rng.next_u64() >> 11;
        if !ids.contains(&id) && home_shard(id) == conn % shards {
            ids.push(id);
        }
    }
    let specs = ids
        .iter()
        .map(|&id| {
            let first = rng.below(num_classes as u64) as usize;
            let spec = SessionSpec {
                learner: ChameleonConfig {
                    long_term_capacity: LT_CAPACITY,
                    precision,
                    ..ChameleonConfig::default()
                },
                stream: StreamConfig {
                    preference: PreferenceProfile::Skewed {
                        preferred: vec![first, (first + 1) % num_classes],
                        boost: 4.0,
                    },
                    ..StreamConfig::default()
                },
                learner_seed: rng.next_u64(),
                stream_seed: rng.next_u64(),
            };
            (id, spec)
        })
        .collect();
    let conns = (0..CONNECTIONS)
        .map(|c| {
            // Session i belongs to connection i % CONNECTIONS; within the
            // stripe, creation order is popularity rank.
            let stripe = ids.iter().copied().skip(c).step_by(CONNECTIONS).collect();
            ConnPlan::new(stripe, popularity, derive(base, &format!("ops{c}")))
        })
        .collect();
    Plan {
        sessions: specs,
        conns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(plan: &mut Plan, conn: usize, n: usize) -> Vec<(SessionId, Op)> {
        (0..n).map(|_| plan.conns[conn].next_op()).collect()
    }

    fn by_parity(id: SessionId) -> usize {
        (id % 2) as usize
    }

    fn resident(seed: u64) -> Plan {
        plan(
            "resident",
            seed,
            16,
            Precision::F32,
            Popularity::Uniform,
            2,
            &by_parity,
        )
    }

    fn churn(seed: u64) -> Plan {
        plan(
            "churn",
            seed,
            64,
            Precision::Int8,
            Popularity::Zipf(0.9),
            2,
            &by_parity,
        )
    }

    #[test]
    fn same_seed_gives_identical_inputs_per_connection() {
        let (mut a, mut b) = (resident(7), resident(7));
        assert_eq!(a.sessions, b.sessions);
        for conn in 0..CONNECTIONS {
            assert_eq!(a.conns[conn].sessions, b.conns[conn].sessions);
            assert_eq!(draws(&mut a, conn, 2000), draws(&mut b, conn, 2000));
        }
    }

    #[test]
    fn different_seed_or_workload_gives_different_inputs() {
        let (mut a, mut b) = (resident(7), resident(8));
        assert_ne!(a.sessions, b.sessions);
        assert_ne!(scenario_seed("resident", 7), scenario_seed("resident", 8));
        assert_ne!(scenario_seed("resident", 7), scenario_seed("churn", 7));
        assert_ne!(draws(&mut a, 0, 200), draws(&mut b, 0, 200));
        let c = plan(
            "routed",
            7,
            16,
            Precision::F32,
            Popularity::Uniform,
            2,
            &by_parity,
        );
        assert_ne!(resident(7).sessions, c.sessions);
    }

    #[test]
    fn stripes_are_disjoint_and_cover_every_session() {
        let p = churn(3);
        let mut all: Vec<SessionId> = p.conns.iter().flat_map(|c| c.sessions.clone()).collect();
        assert_eq!(all.len(), 64);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64);
        let mut conn = p.conns[1].clone();
        for _ in 0..500 {
            assert!(p.conns[1].sessions.contains(&conn.next_op().0));
        }
    }

    #[test]
    fn warmup_offsets_spread_over_one_domain() {
        for domain in [1000, 200] {
            let offsets: Vec<u32> = (0..32)
                .map(|r| warmup_batches(r, domain) - WARMUP_BATCHES)
                .collect();
            assert!(offsets.iter().all(|&o| o < domain));
            let mean = offsets.iter().sum::<u32>() as f64 / offsets.len() as f64;
            assert!(
                (mean / f64::from(domain) - 0.5).abs() < 0.025,
                "mean offset {mean} of {domain}"
            );
            for quarter in 0..4 {
                let lo = quarter * domain / 4;
                let n = offsets
                    .iter()
                    .filter(|&&o| (lo..lo + domain / 4).contains(&o))
                    .count();
                assert!((7..=9).contains(&n), "quarter {quarter} holds {n} of 32");
            }
        }
    }

    #[test]
    fn each_stripe_lives_on_its_own_shard() {
        let p = churn(9);
        for (conn, cp) in p.conns.iter().enumerate() {
            assert!(cp.sessions.iter().all(|id| by_parity(*id) == conn));
        }
        let three = plan("x", 9, 12, Precision::F32, Popularity::Uniform, 3, &|id| {
            (id % 3) as usize
        });
        for (conn, cp) in three.conns.iter().enumerate() {
            assert!(cp.sessions.iter().all(|id| id % 3 == conn as u64));
        }
    }

    #[test]
    fn op_mix_is_80_10_10() {
        let mut p = resident(11);
        let n = 100_000;
        let ops = draws(&mut p, 0, n);
        let share = |op| ops.iter().filter(|(_, o)| *o == op).count() as f64 / n as f64;
        assert!((share(Op::Step) - 0.8).abs() < 0.01, "{}", share(Op::Step));
        assert!((share(Op::Predict) - 0.1).abs() < 0.01);
        assert!((share(Op::Checkpoint) - 0.1).abs() < 0.01);
    }

    #[test]
    fn zipf_hot_share_matches_the_law() {
        let mut p = churn(5);
        let stripe = p.conns[0].sessions.clone();
        let harmonic: f64 = (1..=stripe.len()).map(|r| 1.0 / (r as f64).powf(0.9)).sum();
        let n = 100_000;
        let ops = draws(&mut p, 0, n);
        let hot = ops.iter().filter(|(s, _)| *s == stripe[0]).count() as f64 / n as f64;
        assert!((hot - 1.0 / harmonic).abs() < 0.01, "hot share {hot}");
        let uniform = draws(&mut resident(5), 0, n);
        let first = resident(5).conns[0].sessions[0];
        let share = uniform.iter().filter(|(s, _)| *s == first).count() as f64 / n as f64;
        assert!((share - 1.0 / 8.0).abs() < 0.01, "uniform share {share}");
    }
}
