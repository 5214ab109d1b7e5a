//! Shared machinery for the per-figure experiment binaries.
//!
//! Every `fig*`/`table1`/`recv_packet_cost` binary replays the same
//! simulated deployment; the report is cached on disk (keyed by the
//! configuration, the duration and the running build) so running all
//! binaries costs one simulation. Results are
//! emitted as a telemetry [`Artifact`] — one structure rendered both as
//! terminal text (suppressed by `--quiet`) and, with `--json <path>`, as
//! a machine-readable JSON file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use serde::de::DeserializeOwned;
use sim_crypto::Sha256;
use testnet::{evaluate, EvaluationReport, OutputOptions, Section, Summary, TestnetConfig, DAY_MS};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Simulated duration in days (paper: 28).
    pub days: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Ignore any cached report.
    pub fresh: bool,
    /// Artifact emission: `--quiet` and `--json <path>`.
    pub output: OutputOptions,
}

impl RunOptions {
    /// Parses `--days N`, `--seed N`, `--fresh`, `--quiet` and
    /// `--json <path>` from `std::env::args`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut options = Self {
            days: 28,
            seed: 20240901,
            fresh: false,
            output: OutputOptions::from_args(&args),
        };
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--days" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        options.days = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        options.seed = v;
                    }
                }
                "--fresh" => options.fresh = true,
                _ => {}
            }
        }
        options
    }
}

/// The cache file for `days` of `config` run by the executable whose bytes
/// are `build`. The name carries the duration and seed for humans, and a
/// hash of the configuration, the duration and the build, so neither a
/// code change nor a config change can load an old run.
fn cache_file(dir: &Path, config: &TestnetConfig, days: u64, build: &[u8]) -> PathBuf {
    let mut hasher = Sha256::new();
    hasher.update(format!("{config:?}/{days}"));
    hasher.update(build);
    let key = hasher.finalize().to_hex();
    dir.join(format!("be-my-guest-report-{days}d-seed{}-{}.json", config.seed, &key[..16]))
}

/// The running build's cache file, or `None` when the executable cannot
/// be read (then nothing is cached: an unkeyed cache could go stale).
fn cache_path(config: &TestnetConfig, days: u64) -> Option<PathBuf> {
    let build = std::env::current_exe().and_then(std::fs::read).ok()?;
    Some(cache_file(&std::env::temp_dir(), config, days, &build))
}

fn load_cached<T: DeserializeOwned>(path: &Path) -> Option<T> {
    serde_json::from_slice(&std::fs::read(path).ok()?).ok()
}

/// Runs (or loads from cache) the paper-configuration deployment and
/// returns its evaluation report. Progress notes go to stderr unless
/// `--quiet` was given.
pub fn paper_report(options: &RunOptions) -> EvaluationReport {
    let mut config = TestnetConfig::paper();
    config.seed = options.seed;
    let path = cache_path(&config, options.days);
    if let Some(path) = path.as_deref().filter(|_| !options.fresh) {
        if let Some(report) = load_cached(path) {
            if !options.output.quiet {
                eprintln!("(loaded cached report from {})", path.display());
            }
            return report;
        }
    }
    if !options.output.quiet {
        eprintln!(
            "simulating {} days of the paper deployment (seed {})…",
            options.days, options.seed
        );
    }
    let started = std::time::Instant::now();
    let report = evaluate(config, options.days * DAY_MS);
    if !options.output.quiet {
        eprintln!("…done in {:.1?}", started.elapsed());
    }
    if let (Some(path), Ok(bytes)) = (path, serde_json::to_vec(&report)) {
        let _ = std::fs::write(path, bytes);
    }
    report
}

/// Appends a value-CDF to an artifact section: quantile rows as text plus
/// named scalar values for the JSON twin. NaN samples are discarded by the
/// underlying quantile.
pub fn cdf_section(section: &mut Section, label: &str, unit: &str, values: &[f64], points: &[f64]) {
    section.line(format!("{label} (n = {}):", values.len()));
    for q in points {
        let v = testnet::quantile(values, *q);
        let pct = (q * 100.0) as u32;
        section.line(format!("  p{pct:<4} {v:>10.2} {unit}"));
        section.value(&format!("{label}_p{pct}"), v);
    }
    let summary = Summary::of(values);
    if summary.count > 0 {
        section.line(format!("  min  {:>10.2} {unit}", summary.min));
        section.line(format!("  max  {:>10.2} {unit}", summary.max));
        section.value(&format!("{label}_min"), summary.min);
        section.value(&format!("{label}_max"), summary.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_different_key_misses_the_cache() {
        let dir = std::env::temp_dir().join(format!("bench-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = TestnetConfig::paper();
        let cached = cache_file(&dir, &config, 28, b"build-a");
        std::fs::write(&cached, serde_json::to_vec(&vec![1u64, 2, 3]).unwrap()).unwrap();
        assert_eq!(load_cached::<Vec<u64>>(&cached), Some(vec![1, 2, 3]));
        assert_eq!(cache_file(&dir, &config, 28, b"build-a"), cached, "the key is stable");

        let mut reseeded = config.clone();
        reseeded.seed += 1;
        let mut reconfigured = config.clone();
        reconfigured.safety_net_ms += 1;
        for other in [
            cache_file(&dir, &config, 28, b"build-b"),
            cache_file(&dir, &config, 27, b"build-a"),
            cache_file(&dir, &reseeded, 28, b"build-a"),
            cache_file(&dir, &reconfigured, 28, b"build-a"),
        ] {
            assert_ne!(other, cached);
            assert_eq!(load_cached::<Vec<u64>>(&other), None);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
