//! The four workloads: what each one builds in set-up, which simulations one
//! pass runs, and the output checks every simulation must pass.
//!
//! `README.md` lists which layers each workload carries and which it leaves
//! idle.
//!
//! Every input is seed-free except `ssp_cube`, whose program seed and
//! heterogeneity scenario come from the benchmark's `--seed`.

use ec_bench::congestion::Collective;
use ec_bench::incast::{fig18_engine, FabricKind, IncastConfig};
use ec_bench::ssp_scale::{fig14_scenario, ssp_scale_program, SspScaleConfig};
use ec_bench::tuner::{fig16_preset, AllreduceVariant, AlltoallVariant};
use ec_collectives::schedule::ring_allreduce_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine, Program, RunReport};

/// The workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["ring_large", "ssp_cube", "fabric_pricing", "ring_diagnose"];

/// Which network model a job's engine prices transfers with; together with
/// `EngineMetrics::dataflow_burst_ops` it names the execution path a run took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    AlphaBeta,
    Flow,
    Packet,
}

/// Extra output check a job's report must pass besides its fingerprint.
pub type Check = Box<dyn Fn(&RunReport) -> Result<(), String>>;

/// One simulation of a pass.
pub struct Job {
    /// Stable label, also the key of the job's pinned fingerprint.
    pub label: String,
    /// Records the program (the `record` layer).
    pub record: Box<dyn Fn() -> Program>,
    /// Index into [`Engines::engines`].
    pub engine: usize,
    pub net: Net,
    /// `ring_diagnose`: `run_checked` on a tracing engine, then the critical
    /// path and the Chrome-trace export.
    pub diagnose: bool,
    pub check: Check,
}

/// The simulator objects set-up builds and every pass reuses: cluster
/// specs, cost models, presets, topologies, routing tables and engines.
pub struct Engines {
    pub engines: Vec<Engine>,
    /// `ring_diagnose`: the same engine without tracing, for `trace.overhead_x`.
    pub untraced: Option<Engine>,
}

/// Build `workload`'s engines (the timed set-up); `None` for an unknown name.
pub fn engines(workload: &str, seed: u64) -> Option<Engines> {
    Some(match workload {
        "ring_large" => ring_large_engines(),
        "ssp_cube" => ssp_cube_engines(seed),
        "fabric_pricing" => fabric_pricing_engines(),
        "ring_diagnose" => ring_diagnose_engines(),
        _ => return None,
    })
}

/// The simulations one pass of `workload` runs, in order; empty for an
/// unknown name.
pub fn jobs(workload: &str, seed: u64) -> Vec<Job> {
    match workload {
        "ring_large" => ring_large_jobs(),
        "ssp_cube" => ssp_cube_jobs(seed),
        "fabric_pricing" => fabric_pricing_jobs(),
        "ring_diagnose" => ring_diagnose_jobs(),
        _ => Vec::new(),
    }
}

/// Whether `workload`'s inputs depend on the seed (so its pins hold for one
/// seed only).
pub fn seeded(workload: &str) -> bool {
    workload == "ssp_cube"
}

fn finite_makespan(r: &RunReport) -> Result<(), String> {
    let m = r.makespan();
    if m.is_finite() && m > 0.0 {
        Ok(())
    } else {
        Err(format!("makespan {m} is not a positive finite time"))
    }
}

/// The paper's large-message ring allreduce (Fig. 12): p = 1024, 8 MB, so
/// chunks are ragged and compilation interns nothing.
fn ring_large_engines() -> Engines {
    let engine = Engine::new(ClusterSpec::homogeneous(1024, 1), CostModel::skylake_fdr()).with_shards(1);
    Engines { engines: vec![engine], untraced: None }
}

fn ring_large_jobs() -> Vec<Job> {
    vec![Job {
        label: "ring/p1024/8000000".into(),
        record: Box::new(|| ring_allreduce_schedule(1024, 8_000_000)),
        engine: 0,
        net: Net::AlphaBeta,
        diagnose: false,
        check: Box::new(finite_makespan),
    }]
}

/// The eventually consistent SSP hypercube at p = 4096, slack 2: multi-writer,
/// so the strict event loop and calendar queue carry it.  `run`, not
/// `run_checked`: the analyzer rejects SSP's slack tail by design.
fn ssp_cube_config(seed: u64) -> SspScaleConfig {
    let mut cfg = SspScaleConfig::new(4096, 2);
    cfg.seed = seed;
    cfg
}

fn ssp_cube_engines(seed: u64) -> Engines {
    let cfg = ssp_cube_config(seed);
    let engine = Engine::new(ClusterSpec::homogeneous(cfg.workers, 1), CostModel::marenostrum4_opa())
        .with_scenario(fig14_scenario(seed))
        .with_shards(1);
    Engines { engines: vec![engine], untraced: None }
}

fn ssp_cube_jobs(seed: u64) -> Vec<Job> {
    let cfg = ssp_cube_config(seed);
    // Every put lands exactly once; every wait past the slack window
    // consumes exactly one arrival.
    let dims = cfg.workers.trailing_zeros() as u64;
    let received = cfg.workers as u64 * cfg.iterations as u64 * dims;
    let consumed = cfg.workers as u64 * (cfg.iterations - cfg.slack) as u64 * dims;
    let label = format!("ssp/p{}/slack{}/seed{seed}", cfg.workers, cfg.slack);
    vec![Job {
        label,
        record: Box::new(move || ssp_scale_program(&cfg)),
        engine: 0,
        net: Net::AlphaBeta,
        diagnose: false,
        check: Box::new(move |r| {
            finite_makespan(r)?;
            let (got_r, got_c) = (r.total_notifications_received(), r.total_notifications_consumed());
            if (got_r, got_c) == (received, consumed) {
                Ok(())
            } else {
                Err(format!("notifications received/consumed {got_r}/{got_c}, expected {received}/{consumed}"))
            }
        }),
    }]
}

const FP_RANKS: usize = 128;
const FP_PPN: usize = 4;
const FP_TAPER: f64 = 4.0;
const PACKET_KINDS: [FabricKind; 3] = [FabricKind::PacketPfc, FabricKind::PacketWindow, FabricKind::PacketLossy];

/// Variant pricing on the Galileo preset at p = 128 (4 ranks/node): every
/// allreduce and alltoall variant on alpha-beta and on the 4:1 flow fabric,
/// plus the fig18 incast cells through the flow and the three packet fabrics.
/// Engines 0 and 1 price on alpha-beta and on the flow fabric; engines 2..
/// are the packet fabrics of [`PACKET_KINDS`], in order.
fn fabric_pricing_engines() -> Engines {
    let preset = fig16_preset(FP_RANKS, FP_PPN, FP_TAPER);
    let incast = IncastConfig::new(FP_RANKS);
    let mut engines = vec![preset.engine_alpha_beta().with_shards(1), preset.engine().with_shards(1)];
    engines.extend(PACKET_KINDS.iter().map(|&k| fig18_engine(&incast, k, FP_TAPER).with_shards(1)));
    Engines { engines, untraced: None }
}

fn fabric_pricing_jobs() -> Vec<Job> {
    let incast = IncastConfig::new(FP_RANKS);
    let priced = [(0, Net::AlphaBeta, "alpha-beta"), (1, Net::Flow, "flow")];
    let mut jobs = Vec::new();
    let mut push = |label: String, engine: usize, net: Net, record: Box<dyn Fn() -> Program>, lossless: bool| {
        jobs.push(Job {
            label,
            record,
            engine,
            net,
            diagnose: false,
            check: Box::new(move |r: &RunReport| {
                finite_makespan(r)?;
                if lossless && r.metrics.packet_drops != 0 {
                    return Err(format!("{} packets dropped on a PFC fabric", r.metrics.packet_drops));
                }
                Ok(())
            }),
        });
    };
    for (engine, net, model) in priced {
        for bytes in [8u64, 32 * 1024, 4 << 20] {
            for v in AllreduceVariant::all() {
                let label = format!("allreduce/{model}/{}/{bytes}", v.label());
                push(label, engine, net, Box::new(move || v.schedule(FP_RANKS, bytes, FP_PPN)), false);
            }
        }
        for bytes in [8u64, 4 * 1024, 32 * 1024] {
            for v in AlltoallVariant::all() {
                let label = format!("alltoall/{model}/{}/{bytes}", v.label());
                push(label, engine, net, Box::new(move || v.schedule(FP_RANKS, bytes)), false);
            }
        }
    }
    let fabrics = [(1, Net::Flow, FabricKind::Flow)]
        .into_iter()
        .chain(PACKET_KINDS.iter().enumerate().map(|(i, &k)| (2 + i, Net::Packet, k)));
    for (engine, net, kind) in fabrics {
        for collective in [Collective::Alltoall, Collective::Ring] {
            let cfg = incast.clone();
            let label = format!("incast/{}/{}", kind.label(), collective.label());
            let lossless = kind.packet_config().is_some_and(|c| c.pfc.is_some());
            push(label, engine, net, Box::new(move || cfg.program(collective)), lossless);
        }
    }
    jobs
}

/// The diagnostic use: a ragged p = 512 ring through `run_checked` on a
/// tracing engine, then its critical path and a Chrome-trace export.
fn ring_diagnose_engines() -> Engines {
    let engine = Engine::new(ClusterSpec::homogeneous(512, 1), CostModel::skylake_fdr()).with_shards(1);
    Engines { engines: vec![engine.clone().with_trace(true)], untraced: Some(engine) }
}

fn ring_diagnose_jobs() -> Vec<Job> {
    vec![Job {
        label: "ring/p512/1000000".into(),
        record: Box::new(|| ring_allreduce_schedule(512, 1_000_000)),
        engine: 0,
        net: Net::AlphaBeta,
        diagnose: true,
        check: Box::new(finite_makespan),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_sets_up() {
        for name in NAMES {
            let e = engines(name, 42).expect("known workload");
            let j = jobs(name, 42);
            assert!(!j.is_empty());
            assert!(j.iter().all(|j| j.engine < e.engines.len()));
        }
        assert!(engines("nope", 1).is_none());
    }

    #[test]
    fn fabric_pricing_runs_122_simulations() {
        let jobs = jobs("fabric_pricing", 42);
        assert_eq!(jobs.len(), 122);
        let mut labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 122, "job labels key the pins, so they must be unique");
    }
}
