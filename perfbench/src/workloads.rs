//! The three benchmark workloads and the checks on their outputs.
//!
//! Each repetition builds the system, makes one fixed drive call, reads
//! the run report and its latency attribution, and checks the outputs.
//! Every call into the program is timed from here; nothing inside the
//! program is changed or traced for the benchmark, except that a traced
//! repetition sets `TestnetConfig::profile`.

use std::collections::BTreeMap;

use mesh::{ica_port, Mesh, MeshConfig};
use profiler::ProfileReport;
use telemetry::{names, AttributionReport, Histogram, PacketTraceReport, RunReport};
use testnet::{Testnet, TestnetConfig, HOUR_MS};
use workload::{AppMix, TrafficConfig};

use crate::{clock, heap};

/// Simulated window of one airdrop-storm repetition: the hour before the
/// surge, the 30-minute surge and the 30 minutes after it.
const STORM_WINDOW_MS: u64 = 2 * HOUR_MS;
/// Simulated window of one paper-deployment repetition. It ends before
/// the paper chaos plan's day-11 outage. Many short repetitions give the
/// median host time more samples than a few long ones.
const PAPER_WINDOW_MS: u64 = 36 * HOUR_MS;
/// Traffic window of one mesh repetition, then the drain window in which
/// routes still in flight may settle.
const MESH_WINDOW_MS: u64 = 2 * HOUR_MS;
const MESH_DRAIN_MS: u64 = 2 * HOUR_MS;

/// Histograms whose buckets are merged across repetitions.
const HISTOGRAMS: [&str; 2] = ["relayer.job.latency_ms", "host.mempool.depth"];

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `TestnetConfig::small` under a 1000-user airdrop storm.
    TestnetStorm,
    /// `TestnetConfig::paper` as shipped, on the per-slot loop.
    PaperDeployment,
    /// A 4-chain line mesh under an airdrop storm split over three apps.
    MeshApps,
}

/// What one repetition produced.
pub struct Rep {
    /// CPU seconds of `Testnet::build` or `Mesh::build`.
    pub setup_s: f64,
    /// CPU seconds of the drive call.
    pub drive_s: f64,
    /// Simulated seconds the drive call covered.
    pub sim_s: f64,
    /// Peak live heap of build, drive, report and attribution, in bytes.
    pub heap_bytes: usize,
    /// Digest of the run report's JSON.
    pub digest: u64,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that ended delivered.
    pub delivered: u64,
    /// Operations that ended in an error: timeout, error ack, refund or
    /// rejection. Work still in flight when the window closes is neither.
    pub failed: u64,
    /// Simulated seconds from start to end of each delivered packet
    /// (testnet) or route (mesh).
    pub e2e_s: Vec<f64>,
    /// Exact counts read from the run report and the mesh, additive over
    /// repetitions.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-stage critical-path milliseconds from the attribution, and
    /// their total under `end_to_end`.
    pub stage_ms: BTreeMap<String, u64>,
    /// 95th-percentile end-to-end milliseconds per app, from the
    /// attribution.
    pub app_p95_ms: BTreeMap<String, u64>,
    /// Histograms named in [`HISTOGRAMS`] that the run recorded.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// CPU milliseconds of the `run_report` call.
    pub run_report_ms: f64,
    /// CPU milliseconds of `AttributionReport::from_report`.
    pub attribution_ms: f64,
    /// The profiler's phase tree, on traced repetitions.
    pub profile: Option<ProfileReport>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::TestnetStorm, Workload::PaperDeployment, Workload::MeshApps];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TestnetStorm => "testnet_storm",
            Workload::PaperDeployment => "paper_deployment",
            Workload::MeshApps => "mesh_apps",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent simulations in one run, each on its own seed derived
    /// from the run's seed. Sim-time metrics pool their samples, so the
    /// figures of one run depend less on the seed drawn.
    pub fn seeds(self) -> usize {
        match self {
            Workload::TestnetStorm => 3,
            Workload::PaperDeployment => 13,
            Workload::MeshApps => 10,
        }
    }

    /// Tick of the simulated clock that end-to-end times are read on,
    /// in seconds: the testnet stamps milliseconds, the mesh steps.
    pub fn clock_s(self) -> f64 {
        match self {
            Workload::MeshApps => MeshConfig::line(4, 0).step_ms as f64 / 1_000.0,
            _ => 0.001,
        }
    }

    /// Builds the system and drops it; returns the build's CPU seconds.
    pub fn setup_only(self, seed: u64) -> Result<f64, String> {
        let (built, setup_s) = clock::timed(|| match self {
            Workload::MeshApps => build_mesh(seed).map(drop),
            _ => {
                drop(Testnet::build(self.testnet_config(seed)));
                Ok(())
            }
        });
        built.map(|()| setup_s)
    }

    /// One repetition on `seed`; `traced` turns the profiler on.
    pub fn run(self, seed: u64, traced: bool) -> Result<Rep, String> {
        match self {
            Workload::MeshApps => run_mesh(seed),
            _ => self.run_testnet(seed, traced),
        }
    }

    fn testnet_config(self, seed: u64) -> TestnetConfig {
        match self {
            Workload::TestnetStorm => TestnetConfig {
                traffic: Some(TrafficConfig::airdrop_storm(1_000, 30_000)),
                ..TestnetConfig::small(seed)
            },
            _ => TestnetConfig { seed, ..TestnetConfig::paper() },
        }
    }

    fn run_testnet(self, seed: u64, traced: bool) -> Result<Rep, String> {
        let config = TestnetConfig { profile: traced, ..self.testnet_config(seed) };
        let base = heap::mark();
        let (mut net, setup_s) = clock::timed(|| Testnet::build(config));
        let (window_ms, drive_s) = clock::timed(|| {
            if self == Workload::TestnetStorm {
                net.run_heavy_for(STORM_WINDOW_MS);
                STORM_WINDOW_MS
            } else {
                net.run_for(PAPER_WINDOW_MS);
                PAPER_WINDOW_MS
            }
        });
        let (report, attribution, run_report_ms, attribution_ms) =
            report_and_attribution(|| net.run_report(self.name()));
        let heap_bytes = heap::peak_since(base);

        let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
        let both =
            |suffix: &str| counter(&format!("guest.{suffix}")) + counter(&format!("cp.{suffix}"));
        let sent = both("packets.sent");
        let acked = both("packets.acked");
        let timed_out = both("packets.timed_out");
        let error_acked = both("acks.error");
        let acked_lifecycles = report.packets.iter().filter(|p| p.completed && !timed_out_trace(p));
        let e2e_s: Vec<f64> = acked_lifecycles.map(lifecycle_s).collect();
        let timed_out_lifecycles =
            report.packets.iter().filter(|p| timed_out_trace(p)).count() as u64;
        if report.packets.len() as u64 != sent {
            return Err(format!(
                "{} packet lifecycles in the run report, but {sent} packets sent",
                report.packets.len()
            ));
        }
        if e2e_s.len() as u64 != acked || timed_out_lifecycles != timed_out {
            return Err(format!(
                "lifecycles show {} acked and {timed_out_lifecycles} timed out, counters {acked} \
                 and {timed_out}",
                e2e_s.len()
            ));
        }
        let (attempted, rejected) = match report.delivery {
            Some(ledger) if ledger.unexplained() != 0 => {
                return Err(format!("delivery ledger leaves {} unexplained", ledger.unexplained()))
            }
            Some(ledger) => (ledger.generated, ledger.rejected),
            None => (sent, 0),
        };
        if self == Workload::TestnetStorm {
            if let Some(violation) = net.invariant_violations().first() {
                return Err(format!(
                    "{} invariant violation(s), first: {:?} at {} ms: {}",
                    net.invariant_violations().len(),
                    violation.invariant,
                    violation.at_ms,
                    violation.details
                ));
            }
        }

        let delivered = acked.saturating_sub(error_acked);
        let guest_cu: u64 = report
            .metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("guest.cu.instruction."))
            .map(|(_, cu)| cu)
            .sum();
        let mut counts = BTreeMap::new();
        for (name, value) in [
            ("delivered", delivered),
            (
                "delivered.inbound",
                counter("cp.packets.acked").saturating_sub(counter("cp.acks.error")),
            ),
            ("host.fees.lamports", counter("host.fees.lamports")),
            ("host.txs.included", counter("host.txs.included")),
            ("host.txs.failed", counter("host.txs.failed")),
            ("host.inclusion_failures", counter("host.inclusion_failures")),
            ("guest.cu", guest_cu),
            ("guest.cu.verify_sigs", counter("guest.cu.instruction.verify_sigs")),
            ("guest.instructions.write_chunk", counter("guest.instructions.write_chunk")),
            ("relayer.txs", counter("relayer.txs")),
            ("relayer.jobs.client_update", counter("relayer.jobs.client_update")),
            ("relayer.jobs.recv_packet", counter("relayer.jobs.recv_packet")),
            ("relayer.jobs.ack_packet", counter("relayer.jobs.ack_packet")),
            ("cp.blocks", counter("cp.blocks")),
            ("journal_len", report.journal_len),
        ] {
            counts.insert(name, value as f64);
        }
        let histograms = HISTOGRAMS
            .into_iter()
            .filter_map(|name| Some((name, report.metrics.histograms.get(name)?.clone())))
            .collect();
        Ok(Rep {
            setup_s,
            drive_s,
            sim_s: window_ms as f64 / 1_000.0,
            heap_bytes,
            digest: digest(&report),
            attempted,
            delivered,
            failed: timed_out + error_acked + rejected,
            e2e_s,
            counts,
            stage_ms: stage_ms(&attribution),
            app_p95_ms: app_p95_ms(&attribution),
            histograms,
            run_report_ms,
            attribution_ms,
            profile: traced.then(|| net.profile_report()),
        })
    }
}

/// Per-app tally of attempts and how they ended.
#[derive(Default)]
struct Tally {
    attempts: u64,
    delivered: u64,
    failed: u64,
    in_flight: u64,
}

impl Tally {
    fn balanced(&self) -> bool {
        self.delivered + self.failed + self.in_flight == self.attempts
    }
}

fn build_mesh(seed: u64) -> Result<Mesh, String> {
    Mesh::build(MeshConfig::line(4, seed)).map_err(|e| format!("mesh build failed: {e}"))
}

fn run_mesh(seed: u64) -> Result<Rep, String> {
    let base = heap::mark();
    let (mesh, setup_s) = clock::timed(|| build_mesh(seed));
    let mut mesh = mesh?;
    let traffic = TrafficConfig::airdrop_storm(96, 60_000).with_app_mix(AppMix::even());
    let (outcome, drive_s) =
        clock::timed(|| mesh.run_with_traffic(&traffic, seed, MESH_WINDOW_MS, MESH_DRAIN_MS));
    let outcome = outcome.map_err(|e| format!("mesh traffic run failed: {e}"))?;
    let (report, attribution, run_report_ms, attribution_ms) =
        report_and_attribution(|| mesh.run_report(Workload::MeshApps.name()));
    let heap_bytes = heap::peak_since(base);

    let (supply, fees, nfts) = (mesh.supply_drift(), mesh.fee_imbalance(), mesh.nft_supply_drift());
    if supply != 0 || fees != 0 || nfts != 0 {
        return Err(format!(
            "conservation broken: supply drift {supply}, fee imbalance {fees}, NFT drift {nfts}"
        ));
    }

    // Transfer and NFT arrivals are routes; a route's denom is its origin
    // chain's native denom for transfers and an NFT class otherwise.
    let (mut transfer, mut nft) = (Tally::default(), Tally::default());
    for route in mesh.routes() {
        if route.delivered && route.refunded {
            return Err(format!("{} is both delivered and refunded", route.label));
        }
        let tally =
            if route.denom == mesh.nodes()[route.origin].denom { &mut transfer } else { &mut nft };
        tally.attempts += 1;
        tally.delivered += u64::from(route.delivered);
        tally.failed += u64::from(route.refunded);
        tally.in_flight += u64::from(!route.settled());
    }
    // ICA arrivals are single packets on the ica port: count them in the
    // run report, and their outcomes in the ICA stacks' counters.
    let ica_traces: Vec<&PacketTraceReport> = report
        .packets
        .iter()
        .filter(|p| src_port(p).as_deref() == Some(ica_port().as_str()))
        .collect();
    let (mut acked, mut timed_out, mut error_acks) = (0, 0, 0);
    for node in mesh.nodes() {
        let counters = node.stack_on(&ica_port()).counters();
        acked += counters.acked;
        timed_out += counters.timed_out;
        error_acks += counters.recv_errors;
    }
    let ica_attempts = ica_traces.len() as u64;
    let ica = Tally {
        attempts: ica_attempts,
        delivered: acked.saturating_sub(error_acks),
        failed: error_acks + timed_out,
        in_flight: ica_attempts.checked_sub(acked + timed_out).ok_or_else(|| {
            format!(
                "ICA stacks closed {} packets, but only {ica_attempts} were sent",
                acked + timed_out
            )
        })?,
    };
    let ica_open = ica_traces.iter().filter(|p| !p.completed).count() as u64;
    if ica_attempts == 0 || ica_open != ica.in_flight {
        return Err(format!(
            "{ica_attempts} ICA packets sent, {ica_open} still open in the run report, {} by the \
             stack counters",
            ica.in_flight
        ));
    }
    for (app, tally) in [("transfer", &transfer), ("nft", &nft), ("ica", &ica)] {
        if !tally.balanced() {
            return Err(format!(
                "{app}: {} delivered + {} failed + {} in flight != {} attempts",
                tally.delivered, tally.failed, tally.in_flight, tally.attempts
            ));
        }
    }
    if outcome.sent != transfer.attempts + nft.attempts + ica.attempts
        || outcome.delivered != transfer.delivered + nft.delivered
        || outcome.refunded != transfer.failed + nft.failed
    {
        return Err(format!(
            "traffic outcome {outcome:?} disagrees with per-app counts: transfer {}/{}/{}, nft \
             {}/{}/{}, ica {} sent",
            transfer.attempts,
            transfer.delivered,
            transfer.failed,
            nft.attempts,
            nft.delivered,
            nft.failed,
            ica.attempts
        ));
    }

    let e2e_s: Vec<f64> = mesh
        .routes()
        .iter()
        .filter(|r| r.delivered)
        .filter_map(|r| r.latency_ms())
        .map(|ms| ms as f64 / 1_000.0)
        .collect();
    let blocks: u64 = mesh.nodes().iter().map(|n| n.chain().height()).sum();
    let legs: u64 = report.routes.iter().map(|r| r.legs).sum();
    let mut counts = BTreeMap::new();
    for (name, value) in [
        ("delivered", transfer.delivered + nft.delivered + ica.delivered),
        ("apps.transfer.attempts", transfer.attempts),
        ("apps.transfer.delivered", transfer.delivered),
        ("apps.nft.attempts", nft.attempts),
        ("apps.nft.delivered", nft.delivered),
        ("apps.ica.attempts", ica.attempts),
        ("apps.ica.delivered", ica.delivered),
        ("apps.ica.in_flight", ica.in_flight),
        ("cp.blocks", blocks),
        ("journal_len", report.journal_len),
        ("mesh.routes", report.routes.len() as u64),
        ("mesh.legs", legs),
        ("mesh.relay_errors", mesh.relay_errors()),
        ("mesh.stuck_refunds", mesh.stuck_refunds()),
    ] {
        counts.insert(name, value as f64);
    }
    Ok(Rep {
        setup_s,
        drive_s,
        sim_s: mesh.now_ms() as f64 / 1_000.0,
        heap_bytes,
        digest: digest(&report),
        attempted: transfer.attempts + nft.attempts + ica.attempts + outcome.unroutable,
        delivered: transfer.delivered + nft.delivered + ica.delivered,
        failed: transfer.failed + nft.failed + ica.failed + outcome.unroutable,
        e2e_s,
        counts,
        stage_ms: stage_ms(&attribution),
        app_p95_ms: app_p95_ms(&attribution),
        histograms: BTreeMap::new(),
        run_report_ms,
        attribution_ms,
        profile: None,
    })
}

/// Calls `run_report`, then builds the attribution, timing each in CPU
/// milliseconds.
fn report_and_attribution(
    run_report: impl FnOnce() -> RunReport,
) -> (RunReport, AttributionReport, f64, f64) {
    let (report, run_report_s) = clock::timed(run_report);
    let (attribution, attribution_s) = clock::timed(|| AttributionReport::from_report(&report));
    (report, attribution, run_report_s * 1_000.0, attribution_s * 1_000.0)
}

fn timed_out_trace(packet: &PacketTraceReport) -> bool {
    packet.events.iter().any(|e| e.name == names::PACKET_TIMEOUT)
}

fn lifecycle_s(packet: &PacketTraceReport) -> f64 {
    packet.last_ms.saturating_sub(packet.first_ms) as f64 / 1_000.0
}

/// The source port a packet's lifecycle events carry, if any.
fn src_port(packet: &PacketTraceReport) -> Option<String> {
    packet.events.iter().find_map(|e| e.fields.get("src_port")).map(ToString::to_string)
}

fn stage_ms(attribution: &AttributionReport) -> BTreeMap<String, u64> {
    let mut stages: BTreeMap<String, u64> =
        attribution.stages.iter().map(|s| (s.stage.clone(), s.total_ms)).collect();
    stages.insert("end_to_end".to_string(), attribution.total_end_to_end_ms);
    stages
}

fn app_p95_ms(attribution: &AttributionReport) -> BTreeMap<String, u64> {
    attribution.apps.iter().map(|a| (a.key.clone(), a.p95_ms)).collect()
}

/// FNV-1a over the run report's JSON: equal reports, equal digests.
fn digest(report: &RunReport) -> u64 {
    report.to_json().bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}
