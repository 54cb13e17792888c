//! Host-time benchmark of the dB-tree.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hostbench --self-test [--seed <n>]
//! ```
//!
//! A run first samples set-up time, then repeats rounds (set up, drive
//! closed-loop, check), each on fresh inputs drawn from the seed, until
//! `--seconds` have passed, at least three times. Host times are medians
//! over rounds. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` each round's inputs also run traced, a traced simulator
//! round must reproduce the bare round's counts exactly, and it prints the
//! per-layer breakdown. The last stdout line is one JSON object; any
//! correctness violation makes the exit code non-zero. See `README.md`
//! next to this file for the workloads and metrics.

mod alloc;
mod check;
mod inputs;
mod probe;
mod report;
mod round;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use simnet::{threaded, Simulation};

use check::Oracle;
use inputs::{Substrate, Workload, NAMES};
use report::{quantile, Metric, Run, MIB};
use round::{Plain, Round, Stack, Substrate as Rt, Traced};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Rounds of each kind a run makes at least, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Set-up samples a run takes, before its rounds: at least this many...
const SETUP_SAMPLES: usize = 21;
/// ...and, for set-ups this cheap, until they add up to this many seconds
/// (or [`SETUP_SAMPLES_MAX`] samples), so their median is steady.
const SETUP_SECONDS: f64 = 0.25;
const SETUP_SAMPLES_MAX: usize = 2_000;
/// Largest share of traced wall time the probes' accounting may miss.
const ACCOUNTING_TOLERANCE: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!("usage: hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("       hostbench --self-test [--seed <n>]");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(args.seed);
    }
    let run = measure(
        &args.workload,
        args.seed,
        Duration::from_secs_f64(args.seconds),
        args.trace,
    );

    let mut violations: Vec<String> = run
        .plain
        .iter()
        .chain(&run.traced)
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    violations.extend(determinism(&run));
    for v in violations.iter().take(20) {
        eprintln!("violation: {v}");
    }
    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let rounds: Vec<&Round> = run.plain.iter().chain(&run.traced).collect();
    let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let completed: usize = rounds.iter().map(|r| r.completed).sum();
    print_report(&args.workload, &metrics);
    println!(
        "{}",
        json(
            violations.is_empty(),
            attempted,
            attempted - completed,
            &metrics
        )
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The seed of round `i` of a run on `seed`. Every round draws fresh
/// inputs, so a run's medians average over many input sets instead of
/// repeating one.
fn round_seed(seed: u64, i: usize) -> u64 {
    (seed << 16) ^ i as u64
}

/// Run rounds until `budget` has passed (and at least [`MIN_ROUNDS`]).
/// In trace mode each round's inputs run twice, bare then traced.
fn measure(name: &str, seed: u64, budget: Duration, trace: bool) -> Run {
    let first = Workload::new(name, round_seed(seed, 0)).expect("known workload");
    match first.substrate {
        Substrate::Sim => {
            measure_on::<Simulation<Plain>, Simulation<Traced>>(name, seed, first, budget, trace)
        }
        Substrate::Threads => measure_on::<threaded::Cluster<Plain>, threaded::Cluster<Traced>>(
            name, seed, first, budget, trace,
        ),
    }
}

/// [`measure`] with bare runtime `P` and traced runtime `T`; set-up is
/// sampled on `first`, round 0's workload.
fn measure_on<P, T>(name: &str, seed: u64, first: Workload, budget: Duration, trace: bool) -> Run
where
    P: Rt,
    P::Proc: Stack,
    T: Rt,
    T::Proc: Stack,
{
    let wrapper_ns = if trace {
        probe::calibrate()
    } else {
        (0.0, 0.0)
    };
    let start = Instant::now();
    // Set-up samples come first, from a fresh heap, so every run takes
    // them in the same state.
    let mut setups: Vec<round::Setup> = Vec::new();
    let spent = |s: &[round::Setup]| s.iter().map(round::Setup::total).sum::<f64>();
    while setups.len() < SETUP_SAMPLES
        || (spent(&setups) < SETUP_SECONDS && setups.len() < SETUP_SAMPLES_MAX)
    {
        let (setup, rt) = round::setup::<P>(&first);
        drop(rt.into_procs());
        setups.push(setup);
    }
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.len() < MIN_ROUNDS || start.elapsed() < budget {
        let w = Workload::new(name, round_seed(seed, plain.len())).expect("known workload");
        let oracle = Oracle::new(&w);
        plain.push(round::run::<P>(&w, &oracle));
        log_round("bare", plain.len(), &plain[plain.len() - 1]);
        if trace {
            traced.push(round::run::<T>(&w, &oracle));
            log_round("traced", traced.len(), &traced[traced.len() - 1]);
        }
    }
    Run {
        substrate: first.substrate,
        plain,
        traced,
        setups,
        wrapper_ns,
    }
}

/// One progress line per round, on stderr.
fn log_round(kind: &str, i: usize, r: &Round) {
    eprintln!(
        "{kind} round {i}: {:.0} ops/s, drive {:.3} s, set-up {:.6} s, check {:.3} s, peak heap {:.1} MiB, peak RSS {:.1} MiB",
        r.ops_per_s(),
        r.drive_s,
        r.setup.total(),
        r.check_s,
        r.peak_heap_bytes as f64 / MIB,
        report::peak_rss_mb()
    );
}

/// A simulator round is a pure function of its inputs, so each traced
/// round must reproduce the counts of the bare round on the same inputs.
fn determinism(run: &Run) -> Vec<String> {
    if run.substrate != Substrate::Sim {
        return Vec::new();
    }
    run.plain
        .iter()
        .zip(&run.traced)
        .enumerate()
        .filter(|(_, (bare, traced))| bare.deterministic() != traced.deterministic())
        .map(|(i, (bare, traced))| {
            format!(
                "round {}: traced counts {:?} != bare {:?}",
                i + 1,
                traced.deterministic(),
                bare.deterministic()
            )
        })
        .collect()
}

fn print_report(name: &str, metrics: &[Metric]) {
    println!("workload {name}");
    for m in metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} ({})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Benchmark self-test on the simulator workloads: a bare round and two
/// traced rounds on the same seed must agree on every deterministic count
/// (latency percentiles included) and the traced ones on every per-kind
/// message count; every round must pass the correctness checks; and the
/// traced rounds' self-times plus probe cost must account for their wall
/// time.
fn self_test(seed: u64) -> ExitCode {
    let mut failures = Vec::new();
    for name in NAMES {
        let w = Workload::new(name, seed).expect("known workload");
        if w.substrate != Substrate::Sim {
            continue;
        }
        let oracle = Oracle::new(&w);
        let run = Run {
            substrate: w.substrate,
            plain: vec![round::run::<Simulation<Plain>>(&w, &oracle)],
            traced: (0..2)
                .map(|_| round::run::<Simulation<Traced>>(&w, &oracle))
                .collect(),
            setups: Vec::new(),
            wrapper_ns: probe::calibrate(),
        };
        let bare = &run.plain[0];
        let mut problems: Vec<String> = Vec::new();
        for r in &run.traced {
            if r.deterministic() != bare.deterministic() {
                problems.push(format!(
                    "counts {:?} != {:?}",
                    r.deterministic(),
                    bare.deterministic()
                ));
            }
        }
        let kinds = |r: &Round| -> Vec<(&'static str, u64)> {
            let t = r.trace.as_ref().expect("traced round carries probes");
            t.kinds.iter().map(|(k, v)| (*k, v.calls)).collect()
        };
        if kinds(&run.traced[0]) != kinds(&run.traced[1]) {
            problems.push("per-kind message counts differ between traced rounds".into());
        }
        problems.extend(
            run.plain
                .iter()
                .chain(&run.traced)
                .flat_map(|r| r.violations.iter().cloned()),
        );
        let errors = run.accounting_error();
        if errors.iter().any(|e| *e > ACCOUNTING_TOLERANCE) {
            problems.push(format!(
                "self-times miss the traced wall time by {errors:?}"
            ));
        }
        println!(
            "{name}: p50 {:.4} p99 {:.4} ticks, {:?} events/msgs, accounting error \
             {errors:.4?}, tracing slowdown {:.3}: {}",
            quantile(&bare.latencies, 0.50),
            quantile(&bare.latencies, 0.99),
            bare.counts.unwrap_or_default(),
            run.traced[0].drive_s / bare.drive_s - 1.0,
            if problems.is_empty() { "ok" } else { "FAIL" }
        );
        failures.extend(problems.into_iter().map(|p| format!("{name}: {p}")));
    }
    for f in &failures {
        eprintln!("self-test: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
