//! Subcommand implementations.

use chameleon_balance::{BalanceConfig, TrafficShape};
use chameleon_core::{
    Chameleon, ChameleonConfig, Der, DerConfig, Er, EvalReport, EwcConfig, EwcPlusPlus, Finetune,
    Gss, GssConfig, Joint, JointConfig, LatentReplay, Lwf, LwfConfig, ModelConfig, PerInputTrace,
    Precision, Slda, SldaConfig, Strategy, StreamStepper, Trainer,
};
use chameleon_faults::{FaultInjector, FaultPlan};
use chameleon_fleet::{
    FleetConfig, FleetEngine, SessionCommand, SessionEventKind, SessionSpec as FleetSessionSpec,
};
use chameleon_hw::{Device, JetsonNano, NominalModel, SystolicAccelerator, Workload, Zcu102};
use chameleon_obs::{LatencyHistogram, Observation, Stage};
use chameleon_replay::append_log;
use chameleon_route::{Router, RouterConfig};
use chameleon_serve::{Connection, ServeConfig, ServeCounters, Server};
use chameleon_stream::{DatasetSpec, DomainIlScenario, PreferenceProfile, StreamConfig};

use crate::args::Options;

const HELP: &str = "\
chameleon — dual memory replay for online continual learning (DATE 2023 reproduction)

USAGE:
  chameleon <command> [options]

COMMANDS:
  info                          list datasets, methods, and devices
  train                         train a strategy on a synthetic benchmark
    --dataset <name>            core50 | openloris | core50-tiny |
                                openloris-tiny | openloris-factored
    --method <name>             see `chameleon info`       [default: chameleon]
    --buffer <n>                replay buffer size         [default: 100]
    --runs <n>                  repetitions (mean ± std)   [default: 1]
    --seed <n>                  base seed                  [default: 1]
    --skewed                    user-preference-skewed stream
    --save <path>               save a checkpoint (chameleon, runs = 1 only)
    --precision <p>             latent storage codec: f32 | f16 | int8
                                (chameleon only)           [default: f32]
  evaluate                      evaluate a saved checkpoint
    --dataset <name>  --load <path>  [--buffer <n>]
  sweep                         one method across several buffer sizes
    --dataset <name>  --method <name>  --buffers <n,n,...>  [--runs <n>]
  price                         per-image cost on the three device models
    --method <name>  [--buffer <n>]
  resources                     ZCU102 utilization of an accelerator config
    [--st-kb <n>] [--array <RxC>]
  faults                        train under seeded fault injection and report
                                resilience counters
    --rate <r>                  DRAM bit-flips per bit per sample [default: 1e-5]
    [--dataset <name>] [--method <name>] [--buffer <n>] [--seed <n>]
    [--fault-seed <n>] [--no-quarantine] [--precision <p>]
    (quarantine/precision: chameleon only)
  fleet                         run many per-user sessions on a sharded engine
    --sessions <n>              concurrent user sessions   [default: 8]
    --shards <n>                worker shards (threads)    [default: 2]
    --budget-mb <n>             per-shard resident session-memory budget
    --store-dir <path>          durable session store: spill evictions to
                                disk and recover sealed sessions on start
    --balance <policy>          load-aware rebalancing via online session
                                migration: periodic[:<every>] | steal[:<depth>]
    [--dataset <name>] [--buffer <n>] [--seed <n>] [--queue <n>]
    [--step-batches <n>] [--rate <r>] [--fault-seed <n>] [--json]
    [--precision <p>]           quantize stored latents (f32 | f16 | int8)
  serve                         serve a fleet engine over TCP (CHAMWIRE)
    --addr <host:port>          bind address               [default: 127.0.0.1:0]
    --duration <secs>           run this long, then drain and exit;
                                omitted: run until stdin reaches EOF
    [--dataset <name>] [--shards <n>] [--workers <n>] [--queue <n>]
    [--budget-mb <n>] [--seed <n>] [--rate <r>] [--fault-seed <n>]
    [--store-dir <path>] [--balance <policy>] [--json]
  route                         front CHAMWIRE backends with a routing proxy:
                                rendezvous session placement, health probes,
                                live handoff on drain, shadow failover on death
    --backends <a:p,a:p,...>    backend server addresses (required)
    --addr <host:port>          bind address               [default: 127.0.0.1:0]
    --duration <secs>           run this long, then exit;
                                omitted: run until stdin reaches EOF
    [--state-dir <path>]        persist pins + shadow checkpoints to a
                                CHAMRTE1 log; a restarted router recovers
                                placement and failover state from it
    [--workers <n>] [--probe-interval-ms <n>] [--json]
  loadgen                       drive a CHAMWIRE server with client traffic
    --addr <a:p[,a:p,...]>      target server(s); connections round-robin
                                over the list; omitted: a server is started
                                in-process (loopback self-serve)
    --connections <n>           concurrent client connections  [default: 2]
    --sessions <n>              sessions to create and run     [default: 4]
    --shape <spec>              seeded skewed-traffic shape for step order:
                                uniform | zipf:<s> | burst | diurnal | flood
    [--balance <policy>]        rebalance the self-served fleet (see fleet)
    [--slice <n>] [--dataset <name>] [--shards <n>] [--workers <n>]
    [--queue <n>] [--buffer <n>] [--seed <n>] [--precision <p>] [--json]
  stats                         observability snapshot of a running server
    --addr <host:port>          target CHAMWIRE server (required)
    --watch                     poll repeatedly instead of once
    --interval <ms>             delay between watch polls      [default: 1000]
    --count <n>                 stop after n polls (watch mode; 0 = forever)
    [--json]                    one JSON document per poll
    [--expo]                    Prometheus text exposition per poll
  simtest                       deterministic simulation soak + golden corpus
    --explorer <name>           what each seed checks      [default: lifecycle]
                                lifecycle: shard-count invariance + replay
                                quantized: lifecycle with int8 latents
                                crash: kill at every eviction boundary, recover
                                route: handoff/kill schedules on a sim cluster
                                balance: online migration schedules
    --seeds <n>                 seeds to sweep                 [default: 25]
    --start-seed <n>            first seed of the sweep        [default: 0]
    --budget-secs <s>           wall-clock budget for the sweep
    --replay <seed>             re-check one seed and print its outcome
    --check-golden              re-derive the golden corpus and fail on drift
    --regen-golden              rewrite the golden corpus files
    [--golden-dir <path>]       corpus location   [default: tests/golden]
  help                          show this message
";

/// Dispatches `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
            Ok(())
        }
        Some("info") => info(),
        Some("train") => train(&Options::parse(&argv[1..])?),
        Some("evaluate") => evaluate(&Options::parse(&argv[1..])?),
        Some("sweep") => sweep(&Options::parse(&argv[1..])?),
        Some("price") => price(&Options::parse(&argv[1..])?),
        Some("resources") => resources(&Options::parse(&argv[1..])?),
        Some("faults") => faults(&Options::parse(&argv[1..])?),
        Some("fleet") => fleet(&Options::parse(&argv[1..])?),
        Some("serve") => serve(&Options::parse(&argv[1..])?),
        Some("route") => route(&Options::parse(&argv[1..])?),
        Some("loadgen") => loadgen(&Options::parse(&argv[1..])?),
        Some("stats") => stats(&Options::parse(&argv[1..])?),
        Some("simtest") => simtest(&Options::parse(&argv[1..])?),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn dataset(name: &str) -> Result<DatasetSpec, String> {
    match name {
        "core50" => Ok(DatasetSpec::core50()),
        "openloris" => Ok(DatasetSpec::openloris()),
        "core50-tiny" => Ok(DatasetSpec::core50_tiny()),
        "openloris-tiny" => Ok(DatasetSpec::openloris_tiny()),
        "openloris-factored" => Ok(DatasetSpec::openloris_factored()),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

const METHODS: [&str; 10] = [
    "chameleon",
    "latent-replay",
    "er",
    "der",
    "gss",
    "slda",
    "lwf",
    "ewc",
    "finetune",
    "joint",
];

/// Builds a Chameleon config for a CLI-provided buffer size and
/// latent-codec precision (the `--precision` knob of `train`, `faults`,
/// `fleet`, and `loadgen`), turning a validation failure into a
/// reportable error instead of a panic.
fn chameleon_config_at(buffer: usize, precision: Precision) -> Result<ChameleonConfig, String> {
    let config = ChameleonConfig {
        long_term_capacity: buffer,
        precision,
        ..ChameleonConfig::default()
    };
    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(config)
}

/// Parses the optional `--precision {f32,f16,int8}` flag.
fn precision_option(options: &Options) -> Result<Precision, String> {
    Precision::parse(options.get_or("precision", "f32")).map_err(|e| format!("--precision: {e}"))
}

fn build_method(
    name: &str,
    model: &ModelConfig,
    buffer: usize,
    precision: Precision,
    seed: u64,
) -> Result<Box<dyn Strategy>, String> {
    if precision != Precision::F32 && name != "chameleon" {
        return Err(format!(
            "--precision applies only to --method chameleon, not `{name}`"
        ));
    }
    Ok(match name {
        "chameleon" => Box::new(Chameleon::new(
            model,
            chameleon_config_at(buffer, precision)?,
            seed,
        )),
        "latent-replay" => Box::new(LatentReplay::new(model, buffer, seed)),
        "er" => Box::new(Er::new(model, buffer, seed)),
        "der" => Box::new(Der::new(model, DerConfig::new(buffer), seed)),
        "gss" => Box::new(Gss::new(model, GssConfig::new(buffer), seed)),
        "slda" => Box::new(Slda::new(model, SldaConfig::default(), seed)),
        "lwf" => Box::new(Lwf::new(model, LwfConfig::default(), seed)),
        "ewc" => Box::new(EwcPlusPlus::new(model, EwcConfig::default(), seed)),
        "finetune" => Box::new(Finetune::new(model, seed)),
        "joint" => Box::new(Joint::new(model, JointConfig::default(), seed)),
        other => {
            return Err(format!(
                "unknown method `{other}`; valid: {}",
                METHODS.join(", ")
            ))
        }
    })
}

fn stream_config(skewed: bool) -> StreamConfig {
    if skewed {
        StreamConfig {
            preference: PreferenceProfile::Skewed {
                preferred: vec![0, 1, 2, 3, 4],
                boost: 8.0,
            },
            ..StreamConfig::default()
        }
    } else {
        StreamConfig::default()
    }
}

fn info() -> Result<(), String> {
    println!("datasets:");
    for spec in [
        DatasetSpec::core50(),
        DatasetSpec::openloris(),
        DatasetSpec::core50_tiny(),
        DatasetSpec::openloris_tiny(),
        DatasetSpec::openloris_factored(),
    ] {
        println!(
            "  {:<16} {} classes × {} domains, {} train / {} test samples",
            spec.name,
            spec.num_classes,
            spec.num_domains,
            spec.train_len(),
            spec.test_len()
        );
    }
    println!("\nmethods: {}", METHODS.join(", "));
    println!("\ndevices:");
    for device in [
        JetsonNano::new().name().to_string(),
        Zcu102::new().name().to_string(),
        SystolicAccelerator::new().name().to_string(),
    ] {
        println!("  {device}");
    }
    Ok(())
}

fn train(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "dataset",
        "method",
        "buffer",
        "runs",
        "seed",
        "skewed",
        "save",
        "precision",
    ])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let method = options.get_or("method", "chameleon").to_string();
    let buffer: usize = options.get_parsed_or("buffer", 100)?;
    let runs: usize = options.get_parsed_or("runs", 1)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    let precision = precision_option(options)?;
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(stream_config(options.has_flag("skewed")));

    if runs > 1 {
        if options.get("save").is_some() {
            return Err("--save requires --runs 1".to_string());
        }
        let seeds: Vec<u64> = (seed..seed + runs as u64).collect();
        let agg = trainer.run_many(
            &scenario,
            |s| build_method(&method, &model, buffer, precision, s).expect("validated above"),
            &seeds,
        );
        println!(
            "{} on {}: Acc_all {} over {} runs, memory {:.1} MB",
            agg.name, spec.name, agg.acc_all, runs, agg.memory_overhead_mb
        );
        return Ok(());
    }

    if let Some(path) = options.get("save") {
        if method != "chameleon" {
            return Err("--save currently supports only --method chameleon".to_string());
        }
        let mut learner = Chameleon::new(&model, chameleon_config_at(buffer, precision)?, seed);
        let report = trainer.run(&scenario, &mut learner, seed);
        print_report(&spec, "Chameleon", &report);
        // A crash mid-save leaves the old checkpoint or none, never a
        // half-written blob at `path`.
        let mut blob = Vec::new();
        learner
            .save_checkpoint(&mut blob)
            .map_err(|e| format!("cannot write checkpoint: {e}"))?;
        append_log::replace(std::path::Path::new(path), &blob)
            .map_err(|e| format!("cannot save checkpoint to {path}: {e}"))?;
        println!("checkpoint saved to {path}");
        return Ok(());
    }

    let mut strategy = build_method(&method, &model, buffer, precision, seed)?;
    let report = trainer.run(&scenario, strategy.as_mut(), seed);
    print_report(&spec, strategy.name(), &report);
    Ok(())
}

fn faults(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "dataset",
        "method",
        "buffer",
        "seed",
        "fault-seed",
        "rate",
        "no-quarantine",
        "precision",
    ])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let method = options.get_or("method", "chameleon").to_string();
    let buffer: usize = options.get_parsed_or("buffer", 100)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    let fault_seed: u64 = options.get_parsed_or("fault-seed", 7)?;
    let rate: f64 = options.get_parsed_or("rate", 1e-5)?;
    if !(rate >= 0.0 && rate.is_finite()) {
        return Err("--rate must be a finite non-negative number".to_string());
    }
    let quarantine = !options.has_flag("no-quarantine");
    if !quarantine && method != "chameleon" {
        return Err("--no-quarantine applies only to --method chameleon".to_string());
    }
    let precision = precision_option(options)?;

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(StreamConfig::default());
    let plan = FaultPlan::bit_flips(fault_seed, rate);
    let mut injector = FaultInjector::new(plan);

    if method == "chameleon" {
        let config = ChameleonConfig {
            quarantine,
            ..chameleon_config_at(buffer, precision)?
        };
        let mut learner = Chameleon::new(&model, config, seed);
        let report = trainer.run_with_faults(&scenario, &mut learner, seed, &mut injector);
        print_report(&spec, "Chameleon", &report);
        let r = learner.resilience();
        println!(
            "  resilience: {} short-term / {} long-term evictions, {} rebuilds, {} skipped updates",
            r.short_term_evictions, r.long_term_evictions, r.prototype_rebuilds, r.skipped_updates
        );
        println!("  long-term integrity: {:.3}", r.long_term_integrity);
    } else {
        let mut strategy = build_method(&method, &model, buffer, precision, seed)?;
        let report = trainer.run_with_faults(&scenario, strategy.as_mut(), seed, &mut injector);
        print_report(&spec, strategy.name(), &report);
    }
    let stats = injector.stats();
    println!(
        "  faults injected (dram rate {rate:.1e}, seed {fault_seed}): {} bit flips across {} store residents",
        stats.bits_flipped, stats.vectors_hit
    );
    Ok(())
}

/// Runs a fleet of per-user sessions (each with its own preference skew)
/// to completion on a sharded engine, then reports per-user accuracy,
/// engine counters, and the hardware cost of the merged fleet trace.
fn fleet(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "dataset",
        "sessions",
        "shards",
        "buffer",
        "seed",
        "queue",
        "budget-mb",
        "step-batches",
        "rate",
        "fault-seed",
        "store-dir",
        "balance",
        "json",
        "precision",
    ])?;
    let sessions: u64 = options.get_parsed_or("sessions", 8)?;
    let buffer: usize = options.get_parsed_or("buffer", 30)?;
    let step_batches: usize = options.get_parsed_or("step-batches", 4)?;
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    if step_batches == 0 {
        return Err("--step-batches must be at least 1".to_string());
    }
    let (spec, config, ServeConfig { balance, .. }) = serve_configs(options)?;
    let (shards, seed) = (config.num_shards, config.assignment_seed);
    let learner = chameleon_config_at(buffer, precision_option(options)?)?;

    let scenario = std::sync::Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));
    let (mut engine, recovery) = match options.get("store-dir") {
        Some(dir) => {
            let store = chameleon_store::SharedStore::open(chameleon_store::StoreConfig::new(dir))
                .map_err(|e| format!("open session store `{dir}`: {e}"))?;
            let (engine, report) = FleetEngine::recover(
                std::sync::Arc::clone(&scenario),
                config,
                chameleon_runtime::Runtime::Threads,
                store,
            )
            .map_err(|e| format!("recover session store `{dir}`: {e}"))?;
            (engine, Some(report))
        }
        None => (
            FleetEngine::new(std::sync::Arc::clone(&scenario), config),
            None,
        ),
    };
    if let Some(report) = &recovery {
        eprintln!(
            "store: recovered {} session(s), {} decode reject(s)",
            report.sessions_recovered, report.decode_rejects
        );
    }

    for user in 0..sessions {
        if engine.known(user) {
            continue; // recovered from the store; resumes on first step
        }
        engine
            .create_blocking(user, per_user_spec(user, spec.num_classes, &learner, seed))
            .map_err(|e| format!("create session {user}: {e}"))?;
    }

    let start = std::time::Instant::now();
    let mut balancer = balance.as_ref().map(BalanceConfig::build);
    let mut live: Vec<u64> = (0..sessions).collect();
    while !live.is_empty() {
        for &user in &live {
            engine
                .command_blocking(
                    user,
                    SessionCommand::Step {
                        batches: step_batches,
                    },
                )
                .map_err(|e| format!("step session {user}: {e}"))?;
            if let Some(balancer) = balancer.as_mut() {
                balancer.on_op(&mut engine);
            }
        }
        for event in engine.drain_pending() {
            match event.kind {
                SessionEventKind::Stepped { done: true, .. } => {
                    live.retain(|&u| u != event.session);
                }
                SessionEventKind::Failed(reason) => {
                    return Err(format!("session {} failed: {reason}", event.session));
                }
                _ => {}
            }
        }
    }
    let wall = start.elapsed();

    for user in 0..sessions {
        engine
            .command_blocking(user, SessionCommand::Evaluate)
            .map_err(|e| format!("evaluate session {user}: {e}"))?;
    }
    let mut reports: Vec<(u64, EvalReport)> = engine
        .drain_pending()
        .into_iter()
        .filter_map(|event| match event.kind {
            SessionEventKind::Evaluated(report) => Some((event.session, *report)),
            _ => None,
        })
        .collect();
    reports.sort_by_key(|(user, _)| *user);

    let mean = reports
        .iter()
        .map(|(_, r)| f64::from(r.acc_all))
        .sum::<f64>()
        / reports.len().max(1) as f64;
    let metrics = engine.metrics();

    if options.has_flag("json") {
        println!(
            "{}",
            fleet_json(
                spec.name,
                sessions,
                wall.as_secs_f64(),
                mean,
                &reports,
                &engine,
                &metrics,
                recovery.as_ref(),
                balancer.as_ref().map(|b| b.counters()),
                &learner,
                spec.num_classes,
            )
        );
        return Ok(());
    }

    println!(
        "fleet of {sessions} sessions on {} across {shards} shard(s):",
        spec.name
    );
    for (user, report) in &reports {
        println!(
            "  user {user:>3} (shard {}): Acc_all {:6.2} %",
            engine.shard_of(*user),
            report.acc_all
        );
    }
    println!("  mean Acc_all: {mean:.2} %");

    println!(
        "engine: {} batches in {:.2} s ({:.0} batches/s wall), {} evictions, {} restores",
        metrics.batches(),
        wall.as_secs_f64(),
        metrics.batches() as f64 / wall.as_secs_f64().max(1e-9),
        metrics.evictions(),
        metrics.restores()
    );
    if let Some(balancer) = &balancer {
        let c = balancer.counters();
        println!(
            "balance ({}): {} migration(s) over {} tick(s), {} skipped, {} failure(s)",
            balancer.policy_name(),
            c.migrations_total,
            c.rebalance_ticks,
            c.migrations_skipped,
            c.migration_failures
        );
    }
    for shard in &metrics.per_shard {
        println!(
            "  shard {}: {} resident / {} cold sessions, {} batches, {:.0} steps/s compute, {:.1} MB resident",
            shard.shard,
            shard.sessions_resident,
            shard.sessions_cold,
            shard.batches,
            shard.steps_per_sec(),
            shard.resident_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    let merged = metrics.merged_trace();
    if let Some(per) = merged.per_input() {
        let workload = Workload::from_trace(&per, &NominalModel::mobilenet_v1());
        println!("fleet-wide hardware cost ({} inputs):", merged.inputs);
        for device in [
            &JetsonNano::new() as &dyn Device,
            &Zcu102::new(),
            &SystolicAccelerator::new(),
        ] {
            let cost = device.cost(&workload);
            println!(
                "  {:<26} {:10.1} ms   {:8.3} J",
                device.name(),
                cost.latency_ms * merged.inputs as f64,
                cost.energy_j * merged.inputs as f64
            );
        }
    }
    Ok(())
}

/// Per-user session spec shared by `fleet`, `serve`, and `loadgen`: a
/// rotating 3-class preference slice so each user is a genuinely
/// different workload.
fn per_user_spec(
    user: u64,
    num_classes: usize,
    learner: &ChameleonConfig,
    seed: u64,
) -> FleetSessionSpec {
    let base = (user as usize * 3) % num_classes;
    FleetSessionSpec {
        learner: learner.clone(),
        stream: StreamConfig {
            preference: PreferenceProfile::Skewed {
                preferred: vec![base, (base + 1) % num_classes, (base + 2) % num_classes],
                boost: 8.0,
            },
            ..StreamConfig::default()
        },
        learner_seed: seed.wrapping_add(user),
        stream_seed: seed.wrapping_add(user.wrapping_mul(0x51_7C)),
    }
}

#[allow(clippy::too_many_arguments)]
fn fleet_json(
    dataset: &str,
    sessions: u64,
    wall_s: f64,
    mean_acc: f64,
    reports: &[(u64, EvalReport)],
    engine: &FleetEngine,
    metrics: &chameleon_fleet::FleetMetrics,
    recovery: Option<&chameleon_fleet::RecoveryReport>,
    balance: Option<chameleon_balance::BalanceCounters>,
    learner: &ChameleonConfig,
    num_classes: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"dataset\": \"{dataset}\",");
    let _ = writeln!(out, "  \"sessions\": {sessions},");
    let _ = writeln!(out, "  \"shards\": {},", metrics.per_shard.len());
    let _ = writeln!(out, "  \"wall_s\": {wall_s:.4},");
    let _ = writeln!(out, "  \"mean_acc_all\": {mean_acc:.4},");
    let _ = writeln!(out, "  \"batches\": {},", metrics.batches());
    let _ = writeln!(out, "  \"evictions\": {},", metrics.evictions());
    let _ = writeln!(out, "  \"restores\": {},", metrics.restores());
    // Latent-codec accounting: per-session nominal footprint at the
    // configured precision versus unquantized pricing, plus the
    // serialized size of one nominal latent (the >=3x shrink claim is
    // packed-int8 bytes versus f32-serialized bytes).
    let precision = learner.precision;
    let shapes = chameleon_stream::shapes::NominalShapes::for_classes(num_classes);
    let price_mb = |n: usize| match precision {
        Precision::F32 | Precision::F16 => shapes.latent_mb(n),
        Precision::Int8 => shapes.latent_packed_mb(n, 1, 8),
    };
    let capacities = learner.short_term_capacity + learner.long_term_capacity;
    let session_mb = price_mb(learner.short_term_capacity) + price_mb(learner.long_term_capacity);
    let nominal_mb = shapes.latent_mb(capacities);
    let elems = shapes.latent_elems();
    let latent_bytes = precision.packed_len(elems);
    let latent_bytes_f32 = Precision::F32.packed_len(elems);
    let _ = writeln!(out, "  \"precision\": \"{precision}\",");
    let _ = writeln!(
        out,
        "  \"session_bytes\": {},",
        (session_mb * 1024.0 * 1024.0).ceil() as u64
    );
    let _ = writeln!(
        out,
        "  \"session_bytes_nominal\": {},",
        (nominal_mb * 1024.0 * 1024.0).ceil() as u64
    );
    let _ = writeln!(
        out,
        "  \"codec_bytes_saved\": {},",
        metrics.codec_bytes_saved()
    );
    let _ = writeln!(out, "  \"latent_bytes_per_sample\": {latent_bytes},");
    let _ = writeln!(
        out,
        "  \"latent_bytes_per_sample_f32\": {latent_bytes_f32},"
    );
    let _ = writeln!(
        out,
        "  \"latent_shrink\": {:.2},",
        latent_bytes_f32 as f64 / latent_bytes as f64
    );
    if let Some(c) = balance {
        for (name, value) in c.named() {
            let _ = writeln!(out, "  \"{name}\": {value},");
        }
    }
    if let Some(report) = recovery {
        let _ = writeln!(
            out,
            "  \"sessions_recovered\": {},",
            report.sessions_recovered
        );
        let _ = writeln!(
            out,
            "  \"store_decode_rejects\": {},",
            report.decode_rejects
        );
    }
    if let Some(store) = engine.store_counters() {
        let fields: Vec<String> = store
            .named()
            .into_iter()
            .map(|(name, value)| format!("\"{}\": {value}", name.trim_start_matches("store.")))
            .collect();
        let _ = writeln!(out, "  \"store\": {{{}}},", fields.join(", "));
    }
    let _ = writeln!(out, "  \"users\": [");
    for (i, (user, report)) in reports.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"user\": {user}, \"shard\": {}, \"acc_all\": {:.4}}}{}",
            engine.shard_of(*user),
            report.acc_all,
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"per_shard\": [");
    for (i, shard) in metrics.per_shard.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"shard\": {}, \"resident\": {}, \"cold\": {}, \"batches\": {}, \
             \"evictions\": {}, \"restores\": {}}}{}",
            shard.shard,
            shard.sessions_resident,
            shard.sessions_cold,
            shard.batches,
            shard.evictions,
            shard.restores,
            if i + 1 < metrics.per_shard.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// A front's `serve.*` counters ([`ServeCounters::named`]) without their
/// prefix, then its `request` span's p50 and p99: the per-server block
/// `serve` and `loadgen` report, so CI can grep one shape.
fn serve_report(named: Vec<(String, u64)>, latency: &LatencyHistogram) -> Vec<(String, u64)> {
    let mut report: Vec<(String, u64)> = named
        .into_iter()
        .map(|(name, value)| (name.trim_start_matches("serve.").to_string(), value))
        .collect();
    report.push(("latency_p50_us".to_string(), latency.quantile_upper_us(0.5)));
    report.push((
        "latency_p99_us".to_string(),
        latency.quantile_upper_us(0.99),
    ));
    report
}

/// Renders counter pairs one per line at `indent`: as the members of a
/// JSON object (no braces), or as `name: value` text.
fn render_counters(pairs: &[(String, u64)], json: bool, indent: &str) -> String {
    let lines: Vec<String> = pairs
        .iter()
        .map(|(name, value)| {
            if json {
                format!("{indent}\"{name}\": {value}")
            } else {
                format!("{indent}{name}: {value}")
            }
        })
        .collect();
    lines.join(if json { ",\n" } else { "\n" })
}

/// Parses `--duration <secs>`; `None` when omitted.
fn duration_option(options: &Options) -> Result<Option<std::time::Duration>, String> {
    let Some(v) = options.get("duration") else {
        return Ok(None);
    };
    let secs: f64 = v.parse().map_err(|_| format!("invalid --duration `{v}`"))?;
    if !(secs >= 0.0 && secs.is_finite()) {
        return Err("--duration must be a finite non-negative number".to_string());
    }
    Ok(Some(std::time::Duration::from_secs_f64(secs)))
}

/// Blocks for `duration`, or until stdin reaches EOF when it is `None`.
fn run_for(duration: Option<std::time::Duration>) {
    match duration {
        Some(d) => std::thread::sleep(d),
        None => {
            eprintln!("running until stdin reaches EOF (Ctrl-D to stop)");
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        }
    }
}

/// Builds the fleet + serve configs the `fleet`, `serve` and `loadgen`
/// (self-serve) commands share.
fn serve_configs(options: &Options) -> Result<(DatasetSpec, FleetConfig, ServeConfig), String> {
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let shards: usize = options.get_parsed_or("shards", 2)?;
    let workers: usize = options.get_parsed_or("workers", 4)?;
    let queue: usize = options.get_parsed_or("queue", 32)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    let rate: f64 = options.get_parsed_or("rate", 0.0)?;
    let fault_seed: u64 = options.get_parsed_or("fault-seed", 7)?;
    if !(rate >= 0.0 && rate.is_finite()) {
        return Err("--rate must be a finite non-negative number".to_string());
    }
    let budget_bytes = match options.get("budget-mb") {
        None => u64::MAX,
        Some(v) => {
            let mb: f64 = v
                .parse()
                .map_err(|_| format!("invalid --budget-mb `{v}`"))?;
            if !(mb > 0.0 && mb.is_finite()) {
                return Err("--budget-mb must be a positive number".to_string());
            }
            (mb * 1024.0 * 1024.0) as u64
        }
    };
    let fleet_config = FleetConfig {
        num_shards: shards,
        queue_depth: queue,
        budget_bytes,
        assignment_seed: seed,
        faults: (rate > 0.0).then(|| FaultPlan::bit_flips(fault_seed, rate)),
    };
    fleet_config
        .validate()
        .map_err(|e| format!("invalid fleet config: {e}"))?;
    let balance = options
        .get("balance")
        .map(|spec| BalanceConfig::parse(spec).map_err(|e| format!("invalid --balance: {e}")))
        .transpose()?;
    let serve_config = ServeConfig {
        addr: options.get_or("addr", "127.0.0.1:0").to_string(),
        workers,
        store_dir: options.get("store-dir").map(std::path::PathBuf::from),
        balance,
    };
    serve_config
        .validate()
        .map_err(|e| format!("invalid serve config: {e}"))?;
    Ok((spec, fleet_config, serve_config))
}

/// Serves a fleet engine over TCP until `--duration` elapses (or stdin
/// reaches EOF), then drains and reports the serving-layer counters.
fn serve(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "addr",
        "duration",
        "dataset",
        "shards",
        "workers",
        "queue",
        "budget-mb",
        "seed",
        "rate",
        "fault-seed",
        "store-dir",
        "balance",
        "json",
    ])?;
    let (spec, fleet_config, serve_config) = serve_configs(options)?;
    let duration = duration_option(options)?;

    let scenario = std::sync::Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));
    let mut server = Server::start(scenario, fleet_config, serve_config)
        .map_err(|e| format!("cannot start server: {e}"))?;
    eprintln!(
        "serving {} on {} ({} shard(s)); CHAMWIRE protocol",
        spec.name,
        server.local_addr(),
        options.get_or("shards", "2"),
    );
    run_for(duration);
    server.shutdown();
    let latency = server.observer().stage_stats(Stage::Request).histogram;
    let report = serve_report(server.metrics().named(), &latency);
    if options.has_flag("json") {
        println!("{{\n{}\n}}", render_counters(&report, true, "  "));
    } else {
        println!("serve:\n{}", render_counters(&report, false, "  "));
    }
    Ok(())
}

/// Fronts N CHAMWIRE backends with a routing proxy until `--duration`
/// elapses (or stdin reaches EOF), then reports the routing counters
/// and final backend states.
fn route(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "addr",
        "backends",
        "workers",
        "duration",
        "probe-interval-ms",
        "state-dir",
        "json",
    ])?;
    let backends: Vec<String> = options
        .get("backends")
        .ok_or("route requires --backends <host:port,host:port,...>")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        return Err("--backends must list at least one address".to_string());
    }
    let duration = duration_option(options)?;
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        addr: options.get_or("addr", "127.0.0.1:0").to_string(),
        backends,
        workers: options.get_parsed_or("workers", defaults.workers)?,
        probe_interval: std::time::Duration::from_millis(options.get_parsed_or(
            "probe-interval-ms",
            defaults.probe_interval.as_millis() as u64,
        )?),
        state_dir: options.get("state-dir").map(std::path::PathBuf::from),
        ..defaults
    };

    let mut router = Router::start(config).map_err(|e| format!("cannot start router: {e}"))?;
    eprintln!(
        "routing on {} over {} backend(s); CHAMWIRE protocol",
        router.local_addr(),
        router.backend_states().len()
    );
    run_for(duration);
    let states = router.backend_states();
    let counters = router.metrics().named();
    router.shutdown();

    if options.has_flag("json") {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"backends\": [");
        for (i, (addr, state)) in states.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"addr\": \"{addr}\", \"state\": \"{state:?}\"}}{}",
                if i + 1 < states.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "{}", render_counters(&counters, true, "  "));
        let _ = write!(out, "}}");
        println!("{out}");
    } else {
        println!("route:\n{}", render_counters(&counters, false, "  "));
        for (addr, state) in &states {
            println!("  backend {addr}: {state:?}");
        }
    }
    Ok(())
}

/// Drives a CHAMWIRE server with concurrent client connections, each
/// running its share of sessions to completion (create → step* →
/// predict → checkpoint), then reports throughput and server counters.
fn loadgen(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "addr",
        "connections",
        "sessions",
        "slice",
        "dataset",
        "shards",
        "workers",
        "queue",
        "budget-mb",
        "buffer",
        "seed",
        "rate",
        "fault-seed",
        "shape",
        "balance",
        "json",
        "precision",
    ])?;
    let connections: usize = options.get_parsed_or("connections", 2)?;
    let sessions: u64 = options.get_parsed_or("sessions", 4)?;
    let slice: u32 = options.get_parsed_or("slice", 8)?;
    let buffer: usize = options.get_parsed_or("buffer", 20)?;
    if connections == 0 {
        return Err("--connections must be at least 1".to_string());
    }
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    if slice == 0 {
        // A zero-batch step can never finish a stream, so the step loop
        // below would spin on `Stepped { delivered: 0, done: false }`.
        return Err("--slice must be at least 1".to_string());
    }
    // Validate the shape grammar before any thread spawns; each
    // connection thread then builds its own seeded generator over its
    // share of the sessions.
    let shape_name = options
        .get("shape")
        .map(|spec| {
            TrafficShape::parse(spec, 1, 0)
                .map(|s| s.name())
                .map_err(|e| format!("invalid --shape: {e}"))
        })
        .transpose()?;
    let shape_spec = options.get("shape").map(String::from);
    let (spec, fleet_config, serve_config) = serve_configs(options)?;
    let seed = fleet_config.assignment_seed;
    let learner = chameleon_config_at(buffer, precision_option(options)?)?;

    // No --addr: self-serve a loopback server so one process exercises
    // the full wire path (the CI smoke mode). A comma-separated --addr
    // list fans connections out round-robin over several targets (the
    // servers behind a router, or independent shards of a fleet).
    let server = match options.get("addr") {
        Some(_) => None,
        None => {
            let scenario = std::sync::Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));
            Some(
                Server::start(scenario, fleet_config, serve_config)
                    .map_err(|e| format!("cannot start server: {e}"))?,
            )
        }
    };
    let targets: Vec<String> = match &server {
        Some(server) => vec![server.local_addr().to_string()],
        None => options
            .get("addr")
            .expect("checked above")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    };
    if targets.is_empty() {
        return Err("--addr must list at least one target".to_string());
    }

    let start = std::time::Instant::now();
    let num_classes = spec.num_classes;
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            // Connections round-robin over the target list; sessions
            // stripe over connections, so each session stays on the one
            // target its connection talks to.
            let addr = targets[c % targets.len()].clone();
            let learner = learner.clone();
            let shape_spec = shape_spec.clone();
            // Sessions are striped across connections: c, c+N, c+2N, …
            let users: Vec<u64> = (0..sessions)
                .filter(|u| (*u as usize) % connections == c)
                .collect();
            std::thread::spawn(move || -> Result<(u64, u64, u64), String> {
                fn err<E: std::fmt::Display>(
                    stage: &'static str,
                    user: u64,
                ) -> impl FnOnce(E) -> String {
                    move |e| format!("{stage} session {user}: {e}")
                }
                let mut conn =
                    Connection::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let mut requests = 0u64;
                for &user in &users {
                    conn.create_session(user, per_user_spec(user, num_classes, &learner, seed))
                        .map_err(err("create", user))?;
                    requests += 1;
                }
                let (mut draws, mut hot_draws) = (0u64, 0u64);
                match &shape_spec {
                    // Shaped traffic: the generator picks which of this
                    // connection's sessions each step request hits, so
                    // hot-session skew reaches the server's shards in
                    // the same proportions the shape prescribes. A drawn
                    // session that already finished falls forward to the
                    // next unfinished one, keeping termination guaranteed.
                    Some(spec) if !users.is_empty() => {
                        let mut shape = TrafficShape::parse(spec, users.len(), seed ^ c as u64)
                            .expect("grammar validated before spawning");
                        let mut done = vec![false; users.len()];
                        let mut remaining = users.len();
                        while remaining > 0 {
                            let drawn = shape.next_session();
                            let idx = (0..users.len())
                                .map(|k| (drawn + k) % users.len())
                                .find(|&i| !done[i])
                                .expect("remaining > 0 means an unfinished session exists");
                            let user = users[idx];
                            let (_, finished) =
                                conn.step(user, slice).map_err(err("step", user))?;
                            requests += 1;
                            if finished {
                                done[idx] = true;
                                remaining -= 1;
                            }
                        }
                        draws = shape.draws();
                        hot_draws = shape.hot_draws();
                    }
                    _ => {
                        for &user in &users {
                            loop {
                                let (_, done) =
                                    conn.step(user, slice).map_err(err("step", user))?;
                                requests += 1;
                                if done {
                                    break;
                                }
                            }
                        }
                    }
                }
                for &user in &users {
                    conn.predict(user).map_err(err("predict", user))?;
                    let blob = conn.checkpoint(user).map_err(err("checkpoint", user))?;
                    // Quantized sessions seal under the v2 fleet magic.
                    let magic = blob.get(..8);
                    if magic != Some(&chameleon_fleet::FLEET_MAGIC[..])
                        && magic != Some(&chameleon_fleet::FLEET_MAGIC_V2[..])
                    {
                        return Err(format!(
                            "session {user}: checkpoint blob lacks a CHAMFLT magic"
                        ));
                    }
                    requests += 2;
                }
                Ok((requests, draws, hot_draws))
            })
        })
        .collect();
    let mut requests = 0u64;
    let (mut draws, mut hot_draws) = (0u64, 0u64);
    let mut target_requests = vec![0u64; targets.len()];
    for (c, handle) in handles.into_iter().enumerate() {
        let (n, d, h) = handle
            .join()
            .map_err(|_| "a loadgen connection panicked".to_string())??;
        requests += n;
        draws += d;
        hot_draws += h;
        target_requests[c % targets.len()] += n;
    }
    let wall = start.elapsed().as_secs_f64();

    // One Observe round-trip per target: its batches, serve counters and
    // request latency, plus the per-shard step distribution and the
    // balance.* counters, so skew (and its correction) shows up in this
    // command's own report.
    let mut target_stats = Vec::with_capacity(targets.len());
    let (mut batches, mut evictions) = (0u64, 0u64);
    let mut shard_batches: Vec<u64> = Vec::new();
    let (mut migrations, mut rebalance_ticks) = (0u64, 0u64);
    for addr in &targets {
        let observation = Connection::connect(addr)
            .map_err(|e| format!("connect {addr} for stats: {e}"))?
            .observe()
            .map_err(|e| format!("observe {addr}: {e}"))?;
        for (name, value) in &observation.counters {
            if name.starts_with("fleet.shard") && name.ends_with(".batches") {
                shard_batches.push(*value);
            } else if name == "balance.migrations_total" {
                migrations += value;
            } else if name == "balance.rebalance_ticks" {
                rebalance_ticks += value;
            }
        }
        let target_batches = observation.counter("fleet.batches").unwrap_or(0);
        batches += target_batches;
        evictions += observation.counter("fleet.evictions").unwrap_or(0);
        // Through a router both are sums over its backends.
        let serve: Vec<(String, u64)> = ServeCounters::default()
            .named()
            .into_iter()
            .map(|(name, _)| {
                let value = observation.counter(&name).unwrap_or(0);
                (name, value)
            })
            .collect();
        let latency = observation
            .stage(Stage::Request)
            .map(|s| s.histogram.clone())
            .unwrap_or_default();
        target_stats.push((target_batches, serve_report(serve, &latency)));
    }
    if let Some(mut server) = server {
        server.shutdown();
    }
    // Max/min ratio of per-shard delivered batches across every target's
    // shards: 1.0 is perfectly level, large values mean one hot shard did
    // the work. The CI hot-shard smoke greps this.
    let shard_step_ratio = {
        let max = shard_batches.iter().copied().max().unwrap_or(0);
        let min = shard_batches.iter().copied().min().unwrap_or(0);
        max as f64 / min.max(1) as f64
    };

    if options.has_flag("json") {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"connections\": {connections},");
        let _ = writeln!(out, "  \"sessions\": {sessions},");
        let _ = writeln!(out, "  \"requests\": {requests},");
        let _ = writeln!(out, "  \"wall_s\": {wall:.4},");
        let _ = writeln!(
            out,
            "  \"requests_per_sec\": {:.2},",
            requests as f64 / wall.max(1e-9)
        );
        let _ = writeln!(out, "  \"batches\": {batches},");
        let _ = writeln!(out, "  \"evictions\": {evictions},");
        if let Some(name) = &shape_name {
            let _ = writeln!(out, "  \"shape\": \"{name}\",");
            let _ = writeln!(out, "  \"shape.draws\": {draws},");
            let _ = writeln!(out, "  \"shape.hot_draws\": {hot_draws},");
        }
        let _ = writeln!(out, "  \"balance.migrations_total\": {migrations},");
        let _ = writeln!(out, "  \"balance.rebalance_ticks\": {rebalance_ticks},");
        let _ = writeln!(out, "  \"shard_step_ratio\": {shard_step_ratio:.2},");
        let _ = writeln!(out, "  \"targets\": [");
        for (i, ((addr, (target_batches, serve)), reqs)) in targets
            .iter()
            .zip(&target_stats)
            .zip(&target_requests)
            .enumerate()
        {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"addr\": \"{addr}\",");
            let _ = writeln!(out, "      \"requests\": {reqs},");
            let _ = writeln!(out, "      \"batches\": {target_batches},");
            let _ = writeln!(
                out,
                "      \"serve\": {{\n{}\n      }}",
                render_counters(serve, true, "        ")
            );
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < targets.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        println!("{out}");
    } else {
        println!(
            "loadgen: {requests} requests over {connections} connection(s) to {} target(s) \
             in {wall:.2} s ({:.0} req/s), {batches} batches trained",
            targets.len(),
            requests as f64 / wall.max(1e-9),
        );
        if let Some(name) = &shape_name {
            println!("  shape {name}: {draws} draws, {hot_draws} on the hot subset");
        }
        println!(
            "  shard step ratio {shard_step_ratio:.2} (max/min batches across shards), \
             {migrations} migration(s) over {rebalance_ticks} balance tick(s)"
        );
        for ((addr, (target_batches, serve)), reqs) in
            targets.iter().zip(&target_stats).zip(&target_requests)
        {
            println!("  target {addr}: {reqs} requests, {target_batches} batches");
            println!("{}", render_counters(serve, false, "    "));
        }
    }
    Ok(())
}

/// JSON document for one `Observation` — one object per span stage on
/// its own line so CI can grep `"stage": "step", "count": <nonzero>`.
fn observation_json(o: &Observation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"spans\": [");
    for (i, (stage, stats)) in o.spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"stage\": \"{stage}\", \"count\": {}, \"total_nanos\": {}, \
             \"max_nanos\": {}, \"mean_nanos\": {}, \"p50_us\": {}, \"p99_us\": {}}}{}",
            stats.count,
            stats.total_nanos,
            stats.max_nanos,
            stats.mean_nanos(),
            stats.histogram.quantile_upper_us(0.5),
            stats.histogram.quantile_upper_us(0.99),
            if i + 1 < o.spans.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"events\": {{\"logged\": {}, \"dropped\": {}, \"retained\": {}}},",
        o.events.next_seq,
        o.events.dropped,
        o.events.recent.len()
    );
    let _ = writeln!(out, "  \"counters\": {{");
    for (i, (name, value)) in o.counters.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{name}\": {value}{}",
            if i + 1 < o.counters.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = write!(out, "}}");
    out
}

fn print_observation(o: &Observation) {
    println!("spans:");
    for (stage, stats) in &o.spans {
        println!(
            "  {stage:<10} count {:>8}  total {:>12} ns  max {:>10} ns  p99 ≤ {} µs",
            stats.count,
            stats.total_nanos,
            stats.max_nanos,
            stats.histogram.quantile_upper_us(0.99)
        );
    }
    println!(
        "events: {} logged, {} dropped, {} retained",
        o.events.next_seq,
        o.events.dropped,
        o.events.recent.len()
    );
    for record in o.events.recent.iter().rev().take(5) {
        println!(
            "  [{}] t={} ns  {}",
            record.seq, record.nanos, record.message
        );
    }
    println!("counters:");
    for (name, value) in &o.counters {
        println!("  {name:<28} {value}");
    }
}

/// `chameleon stats` — snapshot (or `--watch`: poll) a running server's
/// unified observability view over one `Observe` round-trip per poll.
fn stats(options: &Options) -> Result<(), String> {
    options.expect_only(&["addr", "watch", "interval", "count", "json", "expo"])?;
    let addr = options
        .get("addr")
        .ok_or("stats requires --addr <host:port>")?;
    let json = options.has_flag("json");
    let expo = options.has_flag("expo");
    if json && expo {
        return Err("--json and --expo are mutually exclusive".to_string());
    }
    let watch = options.has_flag("watch");
    let interval_ms: u64 = options.get_parsed_or("interval", 1_000)?;
    let count: u64 = options.get_parsed_or("count", 0)?;
    let polls = if watch {
        if count == 0 {
            u64::MAX
        } else {
            count
        }
    } else {
        1
    };

    let mut conn = Connection::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for poll in 0..polls {
        let observation = conn.observe().map_err(|e| format!("observe: {e}"))?;
        if json {
            println!("{}", observation_json(&observation));
        } else if expo {
            print!("{}", chameleon_obs::expose(&observation));
        } else {
            if watch {
                println!("--- poll {} ---", poll + 1);
            }
            print_observation(&observation);
        }
        if poll + 1 < polls {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
        }
    }
    Ok(())
}

/// `chameleon simtest` — seeded simulation soak over the fleet engine
/// plus the golden-corpus conformance gate.
fn simtest(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "explorer",
        "seeds",
        "start-seed",
        "replay",
        "budget-secs",
        "check-golden",
        "regen-golden",
        "golden-dir",
    ])?;
    let explorer: chameleon_simtest::Explorer = options.get_or("explorer", "lifecycle").parse()?;
    let golden_dir = std::path::PathBuf::from(options.get_or("golden-dir", "tests/golden"));

    if options.has_flag("regen-golden") {
        std::fs::create_dir_all(&golden_dir)
            .map_err(|e| format!("cannot create {}: {e}", golden_dir.display()))?;
        for file in chameleon_simtest::derive_corpus() {
            let path = golden_dir.join(file.file);
            std::fs::write(&path, chameleon_simtest::render(&file))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "simtest: wrote {} ({} entries, version {})",
                path.display(),
                file.entries.len(),
                file.version
            );
        }
        return Ok(());
    }

    if options.has_flag("check-golden") {
        let mut findings = Vec::new();
        for derived in chameleon_simtest::derive_corpus() {
            let path = golden_dir.join(derived.file);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!(
                    "cannot read {}: {e} — run `chameleon simtest --regen-golden` \
                     and commit the corpus",
                    path.display()
                )
            })?;
            let committed = chameleon_simtest::parse(derived.file, &text)?;
            findings.extend(chameleon_simtest::diff(&committed, &derived));
        }
        if findings.is_empty() {
            println!(
                "simtest: golden corpus conformant ({} files)",
                chameleon_simtest::GOLDEN_FILE_NAMES.len()
            );
            return Ok(());
        }
        for finding in &findings {
            eprintln!("simtest: {finding}");
        }
        return Err(format!(
            "golden corpus drift: {} finding(s)",
            findings.len()
        ));
    }

    let scenario = chameleon_simtest::golden_scenario();
    if let Some(raw) = options.get("replay") {
        let seed: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --replay"))?;
        let outcome = explorer.check(&scenario, seed)?;
        println!("simtest: {explorer} seed {seed} OK — {outcome}");
        return Ok(());
    }

    let seeds: u64 = options.get_parsed_or("seeds", 25)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    let start_seed: u64 = options.get_parsed_or("start-seed", 0)?;
    let budget = match options.get("budget-secs") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --budget-secs"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err("--budget-secs must be a non-negative number".to_string());
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    let config = chameleon_simtest::SoakConfig {
        explorer,
        start_seed,
        seeds,
        budget,
    };
    let report = chameleon_simtest::soak::run(&scenario, &config, |seed, outcome| {
        if let Err(violation) = outcome {
            eprintln!(
                "simtest: {explorer} seed {seed} FAILED: {violation}\n  \
                 reproduce with `chameleon simtest --explorer {explorer} --replay {seed}`"
            );
        }
    });
    let tallies: String = report
        .tallies
        .iter()
        .map(|(name, count)| format!(", {count} {name}"))
        .collect();
    println!(
        "simtest: {}/{} {explorer} seeds passed ({} faulted{tallies}){}",
        report.passed,
        report.checked,
        report.faulted,
        if report.budget_exhausted {
            " — budget exhausted"
        } else {
            ""
        }
    );
    if report.all_passed() {
        Ok(())
    } else {
        Err(format!(
            "{} {explorer} seed(s) violated simulation invariants",
            report.failures.len()
        ))
    }
}

fn print_report(spec: &DatasetSpec, name: &str, report: &EvalReport) {
    println!(
        "{name} on {}: Acc_all {:.2} %, memory {:.1} MB",
        spec.name, report.acc_all, report.memory_overhead_mb
    );
    let per_domain: Vec<String> = report
        .per_domain
        .iter()
        .map(|a| format!("{a:.0}"))
        .collect();
    println!("  per-domain accuracy: [{}]", per_domain.join(", "));
}

fn evaluate(options: &Options) -> Result<(), String> {
    options.expect_only(&["dataset", "load", "buffer"])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let path = options
        .get("load")
        .ok_or("evaluate requires --load <path>")?;
    let buffer: usize = options.get_parsed_or("buffer", 100)?;

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let blob = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    // A v3 checkpoint's samples live on a quantization grid; match the
    // loading config to the precision the blob records so `evaluate`
    // round-trips any checkpoint `train` writes, no flag needed.
    let precision = chameleon_core::checkpoint::stored_precision(&blob)
        .map_err(|e| format!("cannot load checkpoint: {e}"))?;
    let learner = Chameleon::load_checkpoint(
        &model,
        chameleon_config_at(buffer, precision)?,
        1,
        blob.as_slice(),
    )
    .map_err(|e| format!("cannot load checkpoint: {e}"))?;
    let report = EvalReport::evaluate(&scenario, &learner);
    print_report(&spec, "Chameleon (checkpoint)", &report);
    println!(
        "  stores: {} short-term / {} long-term samples",
        learner.short_term_len(),
        learner.long_term_len()
    );
    Ok(())
}

fn sweep(options: &Options) -> Result<(), String> {
    options.expect_only(&["dataset", "method", "buffers", "runs"])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let method = options.get_or("method", "latent-replay").to_string();
    let runs: usize = options.get_parsed_or("runs", 3)?;
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    let buffers: Vec<usize> = options
        .get_or("buffers", "100,200,500,1500")
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| format!("invalid buffer size `{v}`"))
        })
        .collect::<Result<_, _>>()?;
    if buffers.is_empty() {
        return Err("--buffers must list at least one size".to_string());
    }

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(StreamConfig::default());
    let seeds: Vec<u64> = (1..=runs as u64).collect();

    println!(
        "{method} on {} across buffer sizes ({runs} runs each):",
        spec.name
    );
    for buffer in buffers {
        let agg = trainer.run_many(
            &scenario,
            |s| build_method(&method, &model, buffer, Precision::F32, s).expect("validated above"),
            &seeds,
        );
        println!(
            "  buffer {buffer:>5}: Acc_all {}   memory {:>7.1} MB",
            agg.acc_all, agg.memory_overhead_mb
        );
    }
    Ok(())
}

/// The per-input trace of `method` over one pass of the core50-tiny
/// stream under the evaluation protocol (the `StreamStepper` that
/// `Trainer` drives, stream seed 5) at batch size one, the paper's
/// hardware configuration. Returns the strategy's name with it.
fn price_trace(method: &str, buffer: usize) -> Result<(String, PerInputTrace), String> {
    let spec = DatasetSpec::core50_tiny();
    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let mut strategy = build_method(method, &model, buffer, Precision::F32, 1)?;
    let stream = StreamConfig {
        batch_size: 1,
        ..StreamConfig::default()
    };
    let mut pass = StreamStepper::new(&scenario, stream, 5);
    while pass.step_batch(&scenario, strategy.as_mut(), None) {}
    let per = strategy
        .trace()
        .per_input()
        .ok_or("strategy recorded no trace (joint trains offline)")?;
    Ok((strategy.name().to_string(), per))
}

fn price(options: &Options) -> Result<(), String> {
    options.expect_only(&["method", "buffer"])?;
    let method = options.get_or("method", "chameleon").to_string();
    let buffer: usize = options.get_parsed_or("buffer", 100)?;

    let (name, per) = price_trace(&method, buffer)?;
    let workload = Workload::from_trace(&per, &NominalModel::mobilenet_v1());

    println!("{name} per-image cost (batch size 1):");
    println!(
        "  workload: {:.2} GMAC, {:.0} KB off-chip replay, {:.0} KB on-chip",
        workload.total_macs() / 1e9,
        workload.offchip_replay_bytes / 1e3,
        workload.onchip_bytes / 1e3
    );
    for device in [
        &JetsonNano::new() as &dyn Device,
        &Zcu102::new(),
        &SystolicAccelerator::new(),
    ] {
        let cost = device.cost(&workload);
        println!(
            "  {:<26} {:8.1} ms   {:6.3} J",
            device.name(),
            cost.latency_ms,
            cost.energy_j
        );
    }
    Ok(())
}

fn resources(options: &Options) -> Result<(), String> {
    options.expect_only(&["st-kb", "array"])?;
    let st_kb: usize = options.get_parsed_or("st-kb", 320)?;
    let array = options.get_or("array", "32x32");
    let (rows, cols) = array
        .split_once('x')
        .and_then(|(r, c)| Some((r.parse().ok()?, c.parse().ok()?)))
        .ok_or_else(|| format!("invalid --array `{array}`, expected RxC like 32x32"))?;

    let config = chameleon_hw::FpgaConfig {
        mac_rows: rows,
        mac_cols: cols,
        short_term_buffer_kb: st_kb,
        ..chameleon_hw::FpgaConfig::default()
    };
    let usage = chameleon_hw::ResourceModel::new(config).utilization();
    println!("ZCU102 utilization for a {rows}x{cols} array with {st_kb} KB short-term store:");
    println!(
        "  DSP  {:>7} / {}   ({:.2} %)",
        usage.dsp,
        chameleon_hw::ResourceUsage::DSP_AVAILABLE,
        usage.dsp_pct()
    );
    println!(
        "  BRAM {:>7} / {}   ({:.2} %)",
        usage.bram,
        chameleon_hw::ResourceUsage::BRAM_AVAILABLE,
        usage.bram_pct()
    );
    println!(
        "  LUT  {:>7} / {}   ({:.2} %)",
        usage.lut,
        chameleon_hw::ResourceUsage::LUT_AVAILABLE,
        usage.lut_pct()
    );
    println!("  fits: {}", if usage.fits() { "yes" } else { "NO" });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn help_and_info_succeed() {
        assert!(dispatch(&toks(&["help"])).is_ok());
        assert!(dispatch(&toks(&[])).is_ok());
        assert!(dispatch(&toks(&["info"])).is_ok());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&toks(&["frobnicate"])).is_err());
    }

    #[test]
    fn train_runs_on_tiny_dataset() {
        let argv = toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--method",
            "finetune",
            "--seed",
            "2",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn train_rejects_unknown_method_and_dataset() {
        assert!(dispatch(&toks(&["train", "--method", "bogus"])).is_err());
        assert!(dispatch(&toks(&["train", "--dataset", "mnist"])).is_err());
        assert!(dispatch(&toks(&["train", "--runs", "0"])).is_err());
    }

    #[test]
    fn save_load_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join("chameleon-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("ckpt.bin");
        let path_str = path.to_str().expect("utf8 path");
        let save = toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--method",
            "chameleon",
            "--buffer",
            "30",
            "--save",
            path_str,
        ]);
        dispatch(&save).expect("train+save");
        let eval = toks(&[
            "evaluate",
            "--dataset",
            "core50-tiny",
            "--load",
            path_str,
            "--buffer",
            "30",
        ]);
        dispatch(&eval).expect("evaluate");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_runs_and_validates() {
        let argv = toks(&[
            "sweep",
            "--dataset",
            "core50-tiny",
            "--method",
            "latent-replay",
            "--buffers",
            "20,40",
            "--runs",
            "1",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["sweep", "--buffers", "abc"])).is_err());
        assert!(dispatch(&toks(&["sweep", "--buffers", ""])).is_err());
    }

    #[test]
    fn price_runs_for_slda() {
        assert!(dispatch(&toks(&["price", "--method", "slda"])).is_ok());
    }

    #[test]
    fn price_runs_the_stream_protocol() {
        // LwF builds its distillation teacher in `begin_domain`, so only a
        // pass that opens each domain prices the teacher's head passes.
        let (_, per) = price_trace("lwf", 100).expect("lwf records a trace");
        assert!(per.head_fwd_passes > 1.0, "{}", per.head_fwd_passes);
    }

    #[test]
    fn price_rejects_joint() {
        // Joint trains offline and records no online trace.
        assert!(dispatch(&toks(&["price", "--method", "joint"])).is_err());
    }

    #[test]
    fn resources_parses_array() {
        assert!(dispatch(&toks(&["resources", "--array", "16x16"])).is_ok());
        assert!(dispatch(&toks(&["resources", "--array", "16by16"])).is_err());
    }

    #[test]
    fn invalid_buffer_is_reported_not_panicked() {
        // A zero long-term capacity fails config validation; the CLI must
        // surface the message instead of aborting the process.
        let err = dispatch(&toks(&["train", "--method", "chameleon", "--buffer", "0"]))
            .expect_err("zero buffer accepted");
        assert!(err.contains("long-term capacity"), "{err}");
    }

    #[test]
    fn faults_command_runs_and_validates() {
        let argv = toks(&[
            "faults",
            "--dataset",
            "core50-tiny",
            "--buffer",
            "30",
            "--rate",
            "1e-4",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["faults", "--rate", "-1"])).is_err());
        assert!(dispatch(&toks(&["faults", "--rate", "nope"])).is_err());
        assert!(
            dispatch(&toks(&["faults", "--method", "er", "--no-quarantine"])).is_err(),
            "--no-quarantine must be chameleon-only"
        );
    }

    #[test]
    fn faults_command_supports_baselines() {
        let argv = toks(&[
            "faults",
            "--dataset",
            "core50-tiny",
            "--method",
            "latent-replay",
            "--buffer",
            "30",
            "--rate",
            "1e-5",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fleet_command_runs_and_validates() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "3",
            "--shards",
            "2",
            "--buffer",
            "20",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["fleet", "--sessions", "0"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--shards", "0"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--step-batches", "0"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--budget-mb", "-3"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--rate", "nope"])).is_err());
    }

    #[test]
    fn fleet_command_survives_eviction_churn_and_faults() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "4",
            "--shards",
            "1",
            "--buffer",
            "20",
            "--budget-mb",
            "0.01",
            "--rate",
            "1e-5",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fleet_json_flag_is_accepted() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "2",
            "--shards",
            "1",
            "--buffer",
            "20",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fleet_balance_flag_runs_and_validates() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "4",
            "--shards",
            "2",
            "--buffer",
            "20",
            "--balance",
            "steal:2",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["fleet", "--balance", "roulette"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--balance", "periodic:0"])).is_err());
    }

    #[test]
    fn serve_command_validates_options() {
        assert!(dispatch(&toks(&["serve", "--workers", "0"])).is_err());
        assert!(dispatch(&toks(&["serve", "--shards", "0"])).is_err());
        assert!(dispatch(&toks(&["serve", "--queue", "0"])).is_err());
        assert!(dispatch(&toks(&["serve", "--duration", "nope"])).is_err());
        assert!(dispatch(&toks(&["serve", "--addr", "not-an-address"])).is_err());
    }

    #[test]
    fn route_command_validates_options() {
        // A zero probe interval would sweep every backend back to back.
        assert!(dispatch(&toks(&[
            "route",
            "--backends",
            "127.0.0.1:1",
            "--probe-interval-ms",
            "0",
            "--duration",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn serve_runs_for_a_bounded_duration() {
        let argv = toks(&[
            "serve",
            "--dataset",
            "core50-tiny",
            "--duration",
            "0.05",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn loadgen_self_serve_round_trips() {
        // No --addr: loadgen hosts its own loopback server, so this covers
        // server start, the full client conversation, and clean shutdown.
        let argv = toks(&[
            "loadgen",
            "--dataset",
            "core50-tiny",
            "--connections",
            "2",
            "--sessions",
            "2",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["loadgen", "--connections", "0"])).is_err());
        assert!(dispatch(&toks(&["loadgen", "--sessions", "0"])).is_err());
        assert!(dispatch(&toks(&["loadgen", "--slice", "0"])).is_err());
    }

    #[test]
    fn loadgen_shaped_traffic_with_balance_round_trips() {
        // Skewed traffic against a self-served multi-shard fleet with the
        // rebalancer on: covers the --shape draw loop, the balance knob's
        // passage into the server engine thread, and the shard_step_ratio
        // observe round-trip.
        let argv = toks(&[
            "loadgen",
            "--dataset",
            "core50-tiny",
            "--connections",
            "1",
            "--sessions",
            "3",
            "--shards",
            "2",
            "--shape",
            "zipf:1.1",
            "--balance",
            "steal:2",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["loadgen", "--shape", "pareto"])).is_err());
        assert!(dispatch(&toks(&["loadgen", "--balance", "bogus"])).is_err());
    }

    #[test]
    fn stats_command_polls_a_live_server() {
        // Boot an in-process server, generate some traffic, then drive
        // the `stats` dispatch path in every output format.
        let scenario = std::sync::Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ));
        let mut server = Server::start(scenario, FleetConfig::default(), ServeConfig::default())
            .expect("start server");
        let addr = server.local_addr().to_string();
        let mut conn = Connection::connect(&addr).expect("connect");
        let learner = chameleon_config_at(20, Precision::F32).expect("config");
        conn.create_session(
            1,
            per_user_spec(1, DatasetSpec::core50_tiny().num_classes, &learner, 1),
        )
        .expect("create");
        conn.run_to_completion(1, 8).expect("run");
        drop(conn);

        for format in [&["--json"][..], &["--expo"][..], &[][..]] {
            let mut argv = toks(&["stats", "--addr", &addr]);
            argv.extend(format.iter().map(ToString::to_string));
            dispatch(&argv).expect("stats poll");
        }
        // Watch mode with a bounded poll count terminates.
        dispatch(&toks(&[
            "stats",
            "--addr",
            &addr,
            "--watch",
            "--count",
            "2",
            "--interval",
            "1",
            "--json",
        ]))
        .expect("bounded watch");

        // The JSON document itself: step spans populated, shape greppable.
        let mut conn = Connection::connect(&addr).expect("reconnect");
        let observation = conn.observe().expect("observe");
        let json = observation_json(&observation);
        assert!(json.contains("\"stage\": \"step\""), "{json}");
        assert!(json.contains("\"fleet.batches\""), "{json}");
        let step_line = json
            .lines()
            .find(|l| l.contains("\"stage\": \"step\""))
            .expect("step span line");
        assert!(
            !step_line.contains("\"count\": 0"),
            "no step spans: {step_line}"
        );
        server.shutdown();

        // Option validation.
        assert!(dispatch(&toks(&["stats"])).is_err());
        assert!(dispatch(&toks(&["stats", "--addr", &addr, "--json", "--expo"])).is_err());
        assert!(dispatch(&toks(&["stats", "--addr", "not-an-address"])).is_err());
    }

    #[test]
    fn atomic_save_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("chameleon-cli-atomic-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("ckpt.bin");
        let path_str = path.to_str().expect("utf8 path");
        let save = toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--method",
            "chameleon",
            "--buffer",
            "30",
            "--save",
            path_str,
        ]);
        dispatch(&save).expect("train+save");
        assert!(path.exists(), "checkpoint missing");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file left behind");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simtest_rejects_bad_options() {
        assert!(dispatch(&toks(&["simtest", "--seeds", "0"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--seeds", "nope"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--budget-secs", "-1"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--replay", "many"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--bogus", "1"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--crash-seeds", "1"])).is_err());
        for explorer in ["crash", "balance"] {
            for bad in [["--seeds", "0"], ["--seeds", "x"], ["--replay", "x"]] {
                let argv = toks(&["simtest", "--explorer", explorer, bad[0], bad[1]]);
                assert!(dispatch(&argv).is_err(), "{argv:?}");
            }
        }
    }

    #[test]
    fn simtest_rejects_an_unknown_explorer_listing_every_name() {
        let err =
            dispatch(&toks(&["simtest", "--explorer", "chaos"])).expect_err("unknown explorer");
        assert!(
            err.contains("lifecycle, quantized, crash, route, balance"),
            "{err}"
        );
    }

    #[test]
    fn simtest_runs_a_crash_schedule_seed() {
        assert!(dispatch(&toks(&[
            "simtest",
            "--explorer",
            "crash",
            "--seeds",
            "1",
            "--start-seed",
            "4",
        ]))
        .is_ok());
    }

    #[test]
    fn simtest_soaks_and_replays_a_seed() {
        assert!(dispatch(&toks(&["simtest", "--seeds", "2"])).is_ok());
        assert!(dispatch(&toks(&["simtest", "--replay", "1"])).is_ok());
        assert!(dispatch(&toks(&[
            "simtest",
            "--explorer",
            "quantized",
            "--replay",
            "3"
        ]))
        .is_ok());
    }

    #[test]
    fn simtest_runs_a_balance_schedule_seed() {
        assert!(dispatch(&toks(&[
            "simtest",
            "--explorer",
            "balance",
            "--seeds",
            "1",
            "--start-seed",
            "2",
        ]))
        .is_ok());
        assert!(dispatch(&toks(&[
            "simtest",
            "--explorer",
            "balance",
            "--replay",
            "2"
        ]))
        .is_ok());
    }

    #[test]
    fn simtest_golden_regen_then_check_roundtrips() {
        let dir = std::env::temp_dir().join("chameleon-cli-golden-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let dir_str = dir.to_str().expect("utf8 path");
        // Checking a corpus that was never generated points at --regen-golden.
        let missing = dir.join("never-written");
        let err = dispatch(&toks(&[
            "simtest",
            "--check-golden",
            "--golden-dir",
            missing.to_str().expect("utf8 path"),
        ]))
        .expect_err("missing corpus must fail the gate");
        assert!(err.contains("regen-golden"), "{err}");
        dispatch(&toks(&[
            "simtest",
            "--regen-golden",
            "--golden-dir",
            dir_str,
        ]))
        .expect("regeneration succeeds");
        dispatch(&toks(&[
            "simtest",
            "--check-golden",
            "--golden-dir",
            dir_str,
        ]))
        .expect("freshly regenerated corpus is conformant");
        // A flipped byte without a version bump must trip the gate.
        let target = dir.join("wire_frames.golden");
        let mut text = std::fs::read_to_string(&target).expect("read corpus");
        let pos = text.rfind('0').expect("hex digit");
        text.replace_range(pos..=pos, "1");
        std::fs::write(&target, text).expect("write tampered corpus");
        let err = dispatch(&toks(&[
            "simtest",
            "--check-golden",
            "--golden-dir",
            dir_str,
        ]))
        .expect_err("tampered corpus must fail the gate");
        assert!(err.contains("drift"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_checkpoint_lands_in_a_nested_target_directory() {
        let root = std::env::temp_dir().join(format!("chameleon-cli-save-{}", std::process::id()));
        let dir = root.join("deep").join("nested");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let target = dir.join("ckpt.bin");
        dispatch(&toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--seed",
            "3",
            "--save",
            target.to_str().expect("utf8 path"),
        ]))
        .expect("train --save with a nested target");
        assert!(target.is_file(), "checkpoint missing at the nested target");
        // Renamed into place: no temp sibling left behind, and nothing
        // dropped into the process CWD.
        assert!(!dir.join(".ckpt.bin.tmp").exists());
        assert!(!std::path::Path::new(".ckpt.bin.tmp").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fleet_store_dir_spills_and_recovers_across_runs() {
        let dir = std::env::temp_dir().join(format!("chameleon-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().expect("utf8 path").to_string();
        let base = [
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "2",
            "--shards",
            "1",
            "--budget-mb",
            "0.02",
            "--store-dir",
            &dir_str,
        ];
        dispatch(&toks(&base)).expect("first durable fleet run");
        assert!(
            dir.join("SESSIONS.log").is_file(),
            "store directory missing its log"
        );
        // Second run recovers the sealed sessions and keeps serving.
        let mut with_json: Vec<&str> = base.to_vec();
        with_json.push("--json");
        dispatch(&toks(&with_json)).expect("recovered durable fleet run");
        std::fs::remove_dir_all(&dir).ok();
    }
}
