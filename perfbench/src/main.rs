//! `perfbench`: the repository benchmark. Drives the real serving stack
//! (`Server`, `Router`, `Connection`) through one named closed-loop
//! workload and prints its end-to-end metrics (`--trace 0`) or its
//! per-layer ledger (`--trace 1`). The last stdout line is one JSON
//! object; the exit code is non-zero when an output check fails.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload resident --seed 1 --seconds 10 --trace 0
//! ```

mod ledger;
mod schedule;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use chameleon_route::MuxConnection;

use crate::ledger::{Diff, Inputs, Metric};
use crate::schedule::{Op, CONNECTIONS};
use crate::trace::{mux_options, Recorder, Tracer};
use crate::workload::{Stack, Topology, WorkDir, Workload};

/// Extra set-ups on each side of the measured window of an untraced run,
/// so that one busy stretch of a shared host does not cover them all.
const SETUPS_EACH_SIDE: usize = 10;
/// `setup_s` is the median of this many least CPU-stolen set-ups (plus
/// ties), so a burst of outside load during some of them does not move
/// it.
const SETUP_KEEP: usize = 5;

const USAGE: &str = "usage: perfbench --workload <resident|churn|routed> --seed <n> \
                     --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1) as f64),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Output tree: span dumps and (transient) working directories.
fn out_dir() -> Result<PathBuf, String> {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    Ok(out)
}

/// Peak resident set of this process (which hosts every server and the
/// router), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct Report {
    metrics: Vec<Metric>,
    /// Printed with the metrics but kept out of the JSON result.
    unbounded: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn print(&self) {
        for problem in &self.problems {
            eprintln!("check failed: {problem}");
        }
        println!("ops attempted {}  failed {}", self.attempted, self.failed);
        for m in self.metrics.iter().chain(&self.unbounded) {
            println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let number = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "1e308".into()
            }
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// `--trace 0`: set up and shut down `SETUPS_EACH_SIDE` times, then set
/// up, warm up, measure and check the run's stack, then set up
/// `SETUPS_EACH_SIDE` more times.
fn plain(args: &Args) -> Result<Report, String> {
    let out = out_dir()?;
    let set_up_alone = |i: usize| -> Result<(f64, Option<f64>), String> {
        let dir = WorkDir::new(&out, &format!("setup{i}"))?;
        let stack = Stack::setup(args.workload, args.seed, &dir.0)?;
        let timing = (stack.setup_s, stack.setup_steal);
        stack.shutdown();
        Ok(timing)
    };
    let mut setups = (0..SETUPS_EACH_SIDE)
        .map(set_up_alone)
        .collect::<Result<Vec<_>, _>>()?;
    let dir = WorkDir::new(&out, "run")?;
    let mut stack = Stack::setup(args.workload, args.seed, &dir.0)?;
    setups.push((stack.setup_s, stack.setup_steal));
    stack.warm_up()?;
    let window = stack.measure(args.seconds, None);
    let rss = peak_rss_mb()?;
    eprintln!("{}", window.describe());
    stack.verify()?;
    let problems = std::mem::take(&mut stack.problems);
    stack.shutdown();
    for i in SETUPS_EACH_SIDE..2 * SETUPS_EACH_SIDE {
        setups.push(set_up_alone(i)?);
    }

    let ms = |op: Op, q: f64| window.percentile(op, q).unwrap_or(f64::INFINITY) / 1e3;
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(Report {
        metrics: vec![
            m("setup_s", stats::quiet_median(&setups, SETUP_KEEP), "s"),
            m("ops_per_s", window.ops_per_s(), "1/s"),
            m("step_p50_ms", ms(Op::Step, 0.5), "ms"),
            m("predict_p50_ms", ms(Op::Predict, 0.5), "ms"),
            m("checkpoint_p50_ms", ms(Op::Checkpoint, 0.5), "ms"),
            m("peak_rss_mb", rss, "MiB"),
        ],
        // The step tail does not repeat within any allowed bound on a
        // shared 2-vCPU host (millisecond preemptions set it), so it is
        // shown but not part of the result the bounds apply to.
        unbounded: vec![m("step_p99_ms", ms(Op::Step, 0.99), "ms")],
        attempted: window.attempted,
        failed: window.failed,
        problems,
    })
}

/// `--trace 1`: an untraced run with counter diffs, then a traced
/// repeat of the same seed with re-enacted paths, then offline probes.
fn traced(args: &Args) -> Result<Report, String> {
    let out = out_dir()?;
    let w = args.workload;
    let mut problems = Vec::new();

    let dir = WorkDir::new(&out, "plain")?;
    let mut stack = Stack::setup(w, args.seed, &dir.0)?;
    stack.warm_up()?;
    let before = stack.observe()?;
    let plain = stack.measure(args.seconds, None);
    let diff = Diff::new(before, stack.observe()?);
    eprintln!("untraced {}", plain.describe());
    stack.verify()?;
    problems.append(&mut stack.problems);
    stack.shutdown();
    drop(dir);

    let dir = WorkDir::new(&out, "traced")?;
    let mut stack = Stack::setup(w, args.seed, &dir.0)?;
    stack.warm_up()?;
    let epoch = Instant::now();
    let muxes: Arc<Vec<MuxConnection>> = Arc::new(
        stack
            .servers
            .iter()
            .enumerate()
            .filter(|_| w.topology == Topology::Routed)
            .map(|(i, s)| MuxConnection::new(s.local_addr().to_string(), mux_options(i as u64)))
            .collect(),
    );
    let mut tracers = (0..CONNECTIONS)
        .map(|lane| Tracer::new(lane, &stack, args.seed, epoch, &dir.0, Arc::clone(&muxes)))
        .collect::<Result<Vec<_>, _>>()?;
    drop(muxes);
    let traced = stack.measure(args.seconds, Some(&mut tracers));
    eprintln!("traced {}", traced.describe());
    let mut spans = Vec::new();
    for tracer in tracers {
        problems.extend(tracer.problems);
        spans.extend(tracer.rec.spans);
    }
    let hop = match w.topology {
        Topology::Routed => Some(ledger::hop_probe(&mut stack)?),
        Topology::Direct => None,
    };
    stack.verify()?;
    problems.append(&mut stack.problems);
    let mut probes = Recorder::new(CONNECTIONS as u64, epoch);
    let blob_bytes = ledger::offline_probes(&stack, args.seed, &dir.0, &mut probes)?;
    spans.extend(probes.spans);
    stack.shutdown();

    let dump = out.join(format!("spans-{}-{}.jsonl", w.name, args.seed));
    trace::dump(&dump, w.name, &spans)?;
    let inputs = Inputs {
        topology: w.topology,
        durable: w.store,
        plain: &plain,
        diff: &diff,
        traced: &traced,
        spans: &spans,
        blob_bytes,
        hop,
    };
    let metrics = ledger::ledger(&inputs);
    eprintln!("{}", ledger::breakdown(&inputs, &metrics));
    eprintln!("{} spans written to {}", spans.len(), dump.display());
    Ok(Report {
        metrics,
        unbounded: Vec::new(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        problems,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        plain(&args)
    };
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
