//! Simulation-harness contract at the workspace level: a range of
//! scheduler seeds holds the shard-count-invariance and
//! replay-determinism invariants, every other explorer reproduces its
//! pinned seeds, the committed golden corpus matches a fresh derivation,
//! and the drift gate demonstrably fails when pinned bytes change
//! without a version bump.

use std::path::PathBuf;

use chameleon_core::Precision;
use chameleon_simtest::{
    check_balance_seed, check_crash_seed, check_route_seed, check_seed, check_seed_at,
    derive_corpus, diff, golden, parse, soak, BalanceSeedOutcome, CrashOutcome, Explorer,
    RouteSeedOutcome, SeedOutcome, SoakConfig,
};

/// Seeds the in-test sweep covers. The CI soak job drives 200+ seeds
/// through the release binary (`chameleon simtest --seeds 200`); here a
/// smaller default keeps `cargo test` snappy. Raise it via
/// `CHAM_SIMTEST_SEEDS` for a deeper local run.
fn seeds_to_sweep() -> u64 {
    std::env::var("CHAM_SIMTEST_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
}

fn committed_golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn a_seed_range_holds_the_simulation_invariants() {
    let scenario = golden::golden_scenario();
    let config = SoakConfig {
        explorer: Explorer::Lifecycle,
        start_seed: 0,
        seeds: seeds_to_sweep(),
        budget: None,
    };
    let report = soak::run(&scenario, &config, |_, _| {});
    assert_eq!(report.checked, config.seeds);
    assert!(
        report.all_passed(),
        "seeds violated invariants: {:#?}",
        report.failures
    );
    // The sweep must exercise both the clean and the fault-injected
    // halves of the seed space.
    assert!(report.faulted > 0, "no faulted seeds in the sweep");
    assert!(
        report.faulted < report.checked,
        "no clean seeds in the sweep"
    );
}

#[test]
fn a_seed_reproduces_its_outcome_bit_for_bit() {
    let scenario = golden::golden_scenario();
    let first = check_seed(&scenario, 5).expect("invariants hold");
    let second = check_seed(&scenario, 5).expect("invariants hold");
    assert_eq!(first, second, "same seed, different outcome");
}

/// Seeds 0–3 of every explorer except lifecycle (whose seeds 0–3 the
/// golden metric digests already pin): every outcome field, so a
/// refactor of the explorer plumbing cannot shift what any seed observes.
#[test]
fn non_lifecycle_explorer_seeds_reproduce_their_pinned_outcomes() {
    let scenario = golden::golden_scenario();

    // (seed, ops, shards, faulted, events, event digest, checkpoint crc, span digest)
    for (seed, ops, shards, faulted, events, event_digest, checkpoint_crc, span_digest) in [
        (0, 26, 3, false, 156, 0x2af06782, 0xa65e7378, 0xeebf3a27),
        (1, 28, 2, true, 162, 0xf8590042, 0x69599055, 0x43431b25),
        (2, 23, 4, false, 123, 0xde9f574a, 0x60ec473a, 0x91b59712),
        (3, 23, 3, true, 135, 0x0e3380e2, 0x0c4d87f2, 0x902c8c26),
    ] {
        let pinned = SeedOutcome {
            seed,
            ops,
            shards,
            faulted,
            events,
            event_digest,
            checkpoint_crc,
            span_digest,
        };
        assert_eq!(
            check_seed_at(&scenario, seed, Precision::Int8),
            Ok(pinned),
            "quantized"
        );
    }

    let scratch = std::env::temp_dir().join(format!("chameleon-pinned-{}", std::process::id()));
    // (seed, ops, boundaries, sessions recovered, records lost, file faulted)
    for (seed, ops, boundaries, sessions_recovered, records_lost, file_faulted) in [
        (0, 26, 3, 5, 0, false),
        (1, 28, 1, 1, 0, true),
        (2, 23, 1, 1, 0, false),
        (3, 23, 3, 2, 1, true),
    ] {
        let pinned = CrashOutcome {
            seed,
            ops,
            boundaries,
            sessions_recovered,
            records_lost,
            file_faulted,
        };
        assert_eq!(
            check_crash_seed(&scenario, seed, &scratch),
            Ok(pinned),
            "crash"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // (seed, ops, nodes, handoffs, kills, recovered, router restarts,
    //  faulted, log digest, checkpoint crc)
    for (seed, ops, nodes, handoffs, kills, recovered, router_restarts, faulted, log, ck) in [
        (0, 26, 3, 1, 2, 3, 0, false, 0xb6320bf2, 0x8202937e),
        (1, 28, 3, 0, 2, 0, 3, true, 0x62dbdd67, 0x2126f165),
        (2, 23, 3, 1, 1, 0, 0, false, 0x40a48a36, 0x30dd7cff),
        (3, 23, 3, 1, 1, 1, 0, true, 0x0fe44596, 0xedbde706),
    ] {
        let pinned = RouteSeedOutcome {
            seed,
            ops,
            nodes,
            handoffs,
            kills,
            recovered,
            router_restarts,
            faulted,
            log_digest: log,
            checkpoint_crc: ck,
        };
        assert_eq!(check_route_seed(&scenario, seed), Ok(pinned), "route");
    }

    // (seed, ops, shards, migrations, skipped, faulted, log digest, checkpoint crc)
    for (seed, ops, shards, migrations, skipped, faulted, log_digest, checkpoint_crc) in [
        (0, 26, 2, 1, 3, false, 0xb6320bf2, 0x8202937e),
        (1, 28, 2, 2, 1, true, 0xca52bb2b, 0xd86ca89b),
        (2, 23, 3, 0, 2, false, 0x40a48a36, 0x30dd7cff),
        (3, 23, 2, 0, 3, true, 0xa60ebcef, 0xae878d1d),
    ] {
        let pinned = BalanceSeedOutcome {
            seed,
            ops,
            shards,
            migrations,
            skipped,
            faulted,
            log_digest,
            checkpoint_crc,
        };
        assert_eq!(check_balance_seed(&scenario, seed), Ok(pinned), "balance");
    }
}

#[test]
fn committed_golden_corpus_matches_a_fresh_derivation() {
    let dir = committed_golden_dir();
    for derived in derive_corpus() {
        let path = dir.join(derived.file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} unreadable ({e}) — regenerate with \
                 `cargo run -p chameleon-cli -- simtest --regen-golden` and commit it",
                path.display()
            )
        });
        let committed = parse(derived.file, &text).expect("committed corpus parses");
        let findings = diff(&committed, &derived);
        assert!(findings.is_empty(), "golden drift: {findings:#?}");
    }
}

/// The acceptance property of the drift gate itself: flipping one byte
/// of a pinned CHAMWIRE frame or CHAMFLT1 checkpoint without bumping
/// the format version must produce a failure finding.
#[test]
fn drift_gate_fails_on_unbumped_wire_and_checkpoint_byte_changes() {
    let dir = committed_golden_dir();
    for file in ["wire_frames.golden", "checkpoints.golden"] {
        let derived = derive_corpus()
            .into_iter()
            .find(|f| f.file == file)
            .expect("family derived");
        let text = std::fs::read_to_string(dir.join(file)).expect("committed corpus");
        // Tamper: flip the last hex nibble of the first pinned value.
        let tampered = {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let line = lines
                .iter_mut()
                .find(|l| l.contains(" = "))
                .expect("an entry line");
            let last = line.pop().expect("non-empty value");
            line.push(if last == '0' { '1' } else { '0' });
            lines.join("\n")
        };
        let committed = parse(derived.file, &tampered).expect("tampered corpus still parses");
        let findings = diff(&committed, &derived);
        assert!(
            findings
                .iter()
                .any(|f| f.contains("WITHOUT a version bump")),
            "{file}: unbumped byte change not flagged: {findings:#?}"
        );
    }
}

/// A deliberate format change (bumped version line) is reported as
/// "regenerate", not as silent drift.
#[test]
fn drift_gate_asks_for_regeneration_on_a_version_bump() {
    let derived = derive_corpus().into_iter().next().expect("wire family");
    let mut committed = derived.clone();
    committed.version = format!("{}-old", derived.version);
    let findings = diff(&committed, &derived);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].contains("regenerate"), "{findings:#?}");
}
