//! End-to-end and per-layer metrics, computed from repetitions.
//!
//! Sim-time figures pool the first repetition of every seed, and are
//! exact. Host-time figures are medians over the timed repetitions of
//! the run, in CPU seconds scaled to the reference host by the median
//! time of the reference computation (see `reference`), which runs
//! between repetitions. Delivered packets per second is the pooled
//! delivered count per simulated second times that median speed, so
//! which seeds a run drew moves it only as much as they move the pooled
//! count.
//! Per-layer phase times sum the traced repetitions' profiler trees (one
//! per seed); counts sum the untraced repetitions. A metric whose layer
//! the workload does not run reads 0, and so do the phase times of the
//! mesh, which has no profiler: its time shows as `mesh.drive_ms`.

use std::collections::BTreeMap;

use telemetry::Histogram;

use crate::workloads::{Rep, Workload};

/// One named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Critical-path stages reported as shares of end-to-end time.
const STAGES: [&str; 7] = [
    "mempool_wait",
    "finality_wait",
    "client_update",
    "relay_recv",
    "ack_relay",
    "relayer_wait",
    "unattributed",
];

/// Median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of samples taken on a clock that ticks every
/// `resolution`, and how many samples lie above it. Each sample stands
/// for the tick-wide interval centred on it, and the quantile is read off
/// the piecewise-linear distribution this gives (the grouped-data median
/// formula), so ties at one tick do not pin the figure to that tick.
pub fn quantile(values: &[f64], q: f64, resolution: f64) -> (f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let target = q * sorted.len() as f64;
    let mut below = 0;
    for group in sorted.chunk_by(|a, b| a == b) {
        let ties = group.len();
        if (below + ties) as f64 >= target {
            let value = group[0] + resolution * ((target - below as f64) / ties as f64 - 0.5);
            return (value, sorted.iter().filter(|v| **v > value).count());
        }
        below += ties;
    }
    (0.0, 0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Pooled end-to-end samples of the first repetition of every seed.
pub fn pooled_e2e(first: &[Rep]) -> Vec<f64> {
    first.iter().flat_map(|rep| rep.e2e_s.iter().copied()).collect()
}

/// The end-to-end metrics of `workload`: `first` holds one repetition
/// per seed, `all` every repetition, the first of which is the untimed
/// warm-up, and `setup_s` the CPU seconds of every timed build. A host
/// second times `host_scale` is a second of the reference host.
pub fn end_to_end(
    workload: Workload,
    first: &[Rep],
    all: &[Rep],
    setup_s: &[f64],
    host_scale: f64,
) -> Vec<Metric> {
    let e2e = pooled_e2e(first);
    let delivered: u64 = first.iter().map(|rep| rep.delivered).sum();
    let attempted: u64 = first.iter().map(|rep| rep.attempted).sum();
    let sim_s: f64 = first.iter().map(|rep| rep.sim_s).sum();
    let speeds: Vec<f64> = all[1..].iter().map(|rep| rep.sim_s / rep.drive_s).collect();
    let sim_per_ref_s = median(&speeds) / host_scale;
    let peak_heap = all.iter().map(|rep| rep.heap_bytes).max().unwrap_or(0);
    vec![
        metric("setup_s", median(setup_s) * host_scale, "s"),
        metric("sim_per_ref_s", sim_per_ref_s, "s/s"),
        metric("delivered_per_ref_s", delivered as f64 / sim_s * sim_per_ref_s, "1/s"),
        metric("peak_heap_mb", peak_heap as f64 / 1e6, "MB"),
        metric("delivered_share", ratio(delivered as f64, attempted as f64), "ratio"),
        metric("e2e_p50_s", quantile(&e2e, 0.50, workload.clock_s()).0, "s"),
        metric("e2e_p95_s", quantile(&e2e, 0.95, workload.clock_s()).0, "s"),
    ]
}

/// Phase times of the traced repetitions' profiler trees.
struct Phases<'a>(&'a [Rep]);

impl Phases<'_> {
    fn entries(&self) -> impl Iterator<Item = &profiler::ProfileEntry> {
        self.0.iter().filter_map(|rep| rep.profile.as_ref()).flat_map(|p| p.entries.iter())
    }

    /// Self milliseconds of every phase called `name`, wherever it nests.
    fn named(&self, name: &str) -> f64 {
        self.entries().filter(|e| e.name == name).map(|e| e.self_ms).sum()
    }

    /// Self milliseconds of the phase at `path`.
    fn at(&self, path: &str) -> f64 {
        self.entries().filter(|e| e.path == path).map(|e| e.self_ms).sum()
    }

    /// Calls of the phase at `path`.
    fn calls(&self, path: &str) -> f64 {
        self.entries().filter(|e| e.path == path).map(|e| e.calls as f64).sum()
    }
}

/// Buckets of the histogram `name` merged over `reps`.
fn merged(reps: &[Rep], name: &str) -> Option<Histogram> {
    let mut merged: Option<Histogram> = None;
    for histogram in reps.iter().filter_map(|rep| rep.histograms.get(name)) {
        match merged.as_mut() {
            None => merged = Some(histogram.clone()),
            Some(total) => {
                for (sum, count) in total.counts.iter_mut().zip(&histogram.counts) {
                    *sum += count;
                }
                total.count += histogram.count;
                total.max = total.max.max(histogram.max);
            }
        }
    }
    merged
}

/// The per-layer metrics: `untraced` and `traced` each hold one
/// repetition per seed, made with the same drive calls.
pub fn per_layer(workload: Workload, untraced: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let sum = |name: &str| -> f64 {
        untraced.iter().map(|rep| rep.counts.get(name).copied().unwrap_or(0.0)).sum()
    };
    let p95 = |name: &str| merged(untraced, name).map_or(0.0, |h| h.quantile(0.95));
    let phases = Phases(traced);
    let delivered = sum("delivered");
    let mut stages: BTreeMap<&str, u64> = BTreeMap::new();
    for rep in untraced {
        for (stage, ms) in &rep.stage_ms {
            *stages.entry(stage.as_str()).or_default() += ms;
        }
    }
    let end_to_end_ms = stages.get("end_to_end").copied().unwrap_or(0) as f64;
    let drive_ms = |reps: &[Rep]| reps.iter().map(|rep| rep.drive_s * 1_000.0).sum::<f64>();
    let mesh_drive_ms = if workload == Workload::MeshApps { drive_ms(untraced) } else { 0.0 };
    let app_p95_s = |app: &str| {
        let values: Vec<f64> = untraced
            .iter()
            .map(|rep| rep.app_p95_ms.get(app).copied().unwrap_or(0) as f64 / 1_000.0)
            .collect();
        median(&values)
    };

    let mut metrics = vec![
        metric("counterparty-sim.snapshot_ms", phases.named("cp.snapshot"), "ms"),
        metric("counterparty-sim.sign_ms", phases.named("cp.sign"), "ms"),
        metric("counterparty-sim.block_self_ms", phases.at("step;cp.block"), "ms"),
        metric("counterparty-sim.blocks", sum("cp.blocks"), "count"),
        metric("host-sim.tx_execute_ms", phases.named("tx.execute"), "ms"),
        metric("host-sim.block_self_ms", phases.at("step;host.block"), "ms"),
        metric("host-sim.mempool_drain_ms", phases.named("mempool.drain"), "ms"),
        metric("host-sim.txs_included", sum("host.txs.included"), "count"),
        metric("host-sim.txs_failed", sum("host.txs.failed"), "count"),
        metric("host-sim.inclusion_failures", sum("host.inclusion_failures"), "count"),
        metric("host-sim.mempool_depth_p95", p95("host.mempool.depth"), "txs"),
        metric("core.cu_per_packet", ratio(sum("guest.cu"), delivered), "CU/packet"),
        metric(
            "core.verify_sigs_cu_per_packet",
            ratio(sum("guest.cu.verify_sigs"), delivered),
            "CU/packet",
        ),
        metric("core.write_chunk_instructions", sum("guest.instructions.write_chunk"), "count"),
        metric(
            "lamports_per_packet",
            ratio(sum("host.fees.lamports"), delivered),
            "lamports/packet",
        ),
        metric("relayer.event_decode_ms", phases.at("step;relayer.tick;guest.events"), "ms"),
        metric("testnet.guest_events_ms", phases.at("step;guest.events"), "ms"),
        metric("relayer.scan_host_ms", phases.at("step;relayer.tick;scan.host"), "ms"),
        metric("relayer.chunk_plan_ms", phases.named("chunk.plan"), "ms"),
        metric("relayer.cp_prove_ms", phases.named("cp.prove"), "ms"),
        metric("relayer.job_activate_ms", phases.at("step;relayer.tick;job.activate"), "ms"),
        metric("relayer.job_pump_ms", phases.at("step;relayer.tick;job.pump"), "ms"),
        metric("relayer.tick_self_ms", phases.at("step;relayer.tick"), "ms"),
        metric("relayer.txs_per_packet", ratio(sum("relayer.txs"), delivered), "tx/packet"),
        metric("relayer.jobs.client_update", sum("relayer.jobs.client_update"), "count"),
        metric("relayer.jobs.recv_packet", sum("relayer.jobs.recv_packet"), "count"),
        metric("relayer.jobs.ack_packet", sum("relayer.jobs.ack_packet"), "count"),
        metric(
            "relayer.recv_jobs_per_delivered",
            ratio(sum("relayer.jobs.recv_packet"), sum("delivered.inbound")),
            "jobs/packet",
        ),
        metric("relayer.job_wait_p95_s", p95("relayer.job.latency_ms") / 1_000.0, "s"),
    ];
    for stage in STAGES {
        let share = ratio(stages.get(stage).copied().unwrap_or(0) as f64 * 100.0, end_to_end_ms);
        metrics.push(metric(format!("stage.{stage}.share_pct"), share, "%"));
    }
    metrics.extend([
        metric("telemetry.record_ms", phases.named("telemetry.record"), "ms"),
        metric("testnet.step_self_ms", phases.at("step"), "ms"),
        metric("testnet.steps", phases.calls("step"), "count"),
        metric("testnet.schedule_fire_ms", phases.at("step;schedule.fire"), "ms"),
        metric("telemetry.run_report_ms", untraced.iter().map(|r| r.run_report_ms).sum(), "ms"),
        metric("telemetry.attribution_ms", untraced.iter().map(|r| r.attribution_ms).sum(), "ms"),
        metric("telemetry.journal_len", sum("journal_len"), "count"),
        metric("chaos.audit_ms", phases.at("step;invariants.audit"), "ms"),
        metric("monitor.tick_ms", phases.at("step;monitor.tick"), "ms"),
        metric("workload.arrivals_ms", phases.at("step;workload.arrivals"), "ms"),
        metric("mesh.drive_ms", mesh_drive_ms, "ms"),
        metric("mesh.legs_per_route", ratio(sum("mesh.legs"), sum("mesh.routes")), "legs/route"),
        metric("mesh.relay_errors", sum("mesh.relay_errors"), "count"),
        metric("mesh.stuck_refunds", sum("mesh.stuck_refunds"), "count"),
        metric("apps.transfer.p95_s", app_p95_s("transfer"), "s"),
        metric("apps.nft.p95_s", app_p95_s("nft"), "s"),
        metric("apps.ica.p95_s", app_p95_s("ica"), "s"),
        metric("e2e.samples", pooled_e2e(untraced).len() as f64, "count"),
        metric(
            "profiler.overhead_pct",
            (ratio(drive_ms(traced), drive_ms(untraced)) - 1.0) * 100.0,
            "%",
        ),
    ]);
    metrics
}
