//! The repository benchmark: one workload per process.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <testnet_storm|paper_deployment|mesh_apps> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! A run derives one simulation seed per repetition slot from `--seed`
//! and makes one repetition on each. With `--trace 0` it then repeats
//! them, cycling through the seeds, until `--seconds` of wall time are
//! used, and reports the end-to-end metrics. Their host times are CPU
//! seconds of the benchmark's thread, scaled to a reference host by a
//! fixed reference computation run between repetitions, so that the
//! shared host's drifting speed moves them less. With `--trace 1` it
//! makes every repetition twice, untraced and with the profiler on, and
//! reports the per-layer metrics. Every repetition's outputs are
//! checked; a repeated seed must give a byte-identical run report. On a
//! failed check the run exits with code 1 and prints no metrics. The
//! last line of standard output is the result as one JSON object.

mod clock;
mod heap;
mod metrics;
mod reference;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{pooled_e2e, quantile, Metric};
use workloads::{Rep, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Builds timed for `setup_s` before each timed repetition, besides the
/// build the repetition makes. A build takes milliseconds, and the
/// host's speed shifts over seconds, so builds are spread over the whole
/// run.
const SETUP_BUILDS: usize = 10;

/// Fewest end-to-end samples a run must have above its 95th percentile
/// for that percentile to be reported.
const MIN_TAIL: usize = 10;

const USAGE: &str = "usage: perfbench --workload <testnet_storm|paper_deployment|mesh_apps> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The seed of repetition slot `slot`: a SplitMix64 step from `seed`.
fn slot_seed(seed: u64, slot: usize) -> u64 {
    let mut z = seed.wrapping_add((slot as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    /// One repetition per seed, the source of the sim-time figures.
    first: Vec<Rep>,
    /// CPU seconds of every repetition's drive call, in run order.
    drive_s: Vec<f64>,
    /// CPU seconds of every call of the reference computation after the
    /// warm-up, in run order; none on a traced run.
    reference_s: Vec<f64>,
    builds: usize,
}

fn same_report(seed: u64, first: &Rep, again: &Rep, what: &str) -> Result<(), String> {
    if first.digest == again.digest {
        Ok(())
    } else {
        Err(format!(
            "seed {seed}: {what} run report differs ({:016x} vs {:016x})",
            first.digest, again.digest
        ))
    }
}

/// `--trace 0`: repetitions cycle through the seeds, and a new one
/// starts while time remains or no seed has been repeated yet. The first
/// repetition warms the allocator and caches up and is not timed. The
/// reference computation runs after every repetition; host times are
/// scaled by the median of its calls.
fn measure(args: &Args, seeds: &[u64]) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut reps = vec![args.workload.run(seeds[0], false)?];
    // The first call warms the reference computation up in the same way.
    reference::run();
    let mut reference_s = vec![reference::run()];
    let mut setup_s = Vec::new();
    loop {
        let slot = reps.len() % seeds.len();
        for _ in 0..SETUP_BUILDS {
            setup_s.push(args.workload.setup_only(seeds[slot])?);
        }
        let rep = args.workload.run(seeds[slot], false)?;
        if let Some(first) = reps.get(slot) {
            same_report(seeds[slot], first, &rep, "repeated")?;
        }
        setup_s.push(rep.setup_s);
        reps.push(rep);
        reference_s.push(reference::run());
        if reps.len() > seeds.len() && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let e2e = pooled_e2e(&reps[..seeds.len()]);
    let tail = quantile(&e2e, 0.95, args.workload.clock_s()).1;
    if tail < MIN_TAIL {
        return Err(format!("only {tail} of {} end-to-end samples lie above p95", e2e.len()));
    }
    let host_scale = reference::NOMINAL_S / metrics::median(&reference_s);
    let metrics =
        metrics::end_to_end(args.workload, &reps[..seeds.len()], &reps, &setup_s, host_scale);
    let drive_s = reps.iter().map(|rep| rep.drive_s).collect();
    reps.truncate(seeds.len());
    Ok(Outcome { metrics, first: reps, drive_s, reference_s, builds: setup_s.len() + 1 })
}

/// `--trace 1`: every seed untraced, then traced with the same drive
/// call; the two run reports must be identical.
fn trace(args: &Args, seeds: &[u64]) -> Result<Outcome, String> {
    let (mut untraced, mut traced, mut drive_s) = (Vec::new(), Vec::new(), Vec::new());
    for &seed in seeds {
        let bare = args.workload.run(seed, false)?;
        let profiled = args.workload.run(seed, true)?;
        same_report(seed, &bare, &profiled, "traced")?;
        drive_s.extend([bare.drive_s, profiled.drive_s]);
        untraced.push(bare);
        traced.push(profiled);
    }
    let metrics = metrics::per_layer(args.workload, &untraced, &traced);
    Ok(Outcome {
        metrics,
        first: untraced,
        drive_s,
        reference_s: Vec::new(),
        builds: 2 * seeds.len(),
    })
}

fn json_result(first: &[Rep], metrics: &[Metric]) -> Result<String, String> {
    let attempted: u64 = first.iter().map(|rep| rep.attempted).sum();
    let failed: u64 = first.iter().map(|rep| rep.failed).sum();
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        let value = m.value + 0.0;
        fields.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seeds: Vec<u64> =
        (0..args.workload.seeds()).map(|slot| slot_seed(args.seed, slot)).collect();
    let started = Instant::now();
    let outcome = if args.trace { trace(&args, &seeds) } else { measure(&args, &seeds) };
    let result = outcome.and_then(|o| json_result(&o.first, &o.metrics).map(|json| (o, json)));
    let (outcome, json) = match result {
        Ok(done) => done,
        Err(error) => {
            eprintln!(
                "perfbench: {} seed {}: check failed: {error}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::FAILURE;
        }
    };

    let e2e = pooled_e2e(&outcome.first);
    let drives: Vec<String> = outcome.drive_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "{} seed {} trace {}: {} repetitions over {} seeds, {} builds, {:.1} s wall",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.drive_s.len(),
        seeds.len(),
        outcome.builds,
        started.elapsed().as_secs_f64()
    );
    let references: Vec<String> = outcome.reference_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("  drive call CPU seconds, in run order: {}", drives.join(" "));
    if !references.is_empty() {
        println!("  reference computation CPU seconds, in run order: {}", references.join(" "));
    }
    for m in &outcome.metrics {
        let note = match m.name.as_str() {
            "e2e_p50_s" | "e2e_p95_s" => {
                let q = if m.name == "e2e_p50_s" { 0.50 } else { 0.95 };
                format!(
                    "  (n = {}, {} above)",
                    e2e.len(),
                    quantile(&e2e, q, args.workload.clock_s()).1
                )
            }
            _ => String::new(),
        };
        println!("  {:<36} {:>16.6} {}{note}", m.name, m.value, m.unit);
    }
    for name in outcome.first[0].counts.keys() {
        let total: f64 = outcome.first.iter().map(|rep| rep.counts[name]).sum();
        println!("  count {name:<30} {total:>16}");
    }
    println!("  checks passed: outputs, conservation and same-seed run reports");
    println!("{json}");
    ExitCode::SUCCESS
}
