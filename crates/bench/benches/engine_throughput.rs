//! Criterion benchmark of the discrete-event engine's raw throughput:
//! simulated operations per wall-clock second on a large (p = 1024)
//! ring-allreduce program.
//!
//! The program is compiled to the arena form **once** and every timed run
//! executes `Engine::run_compiled`, so the numbers measure the event loop,
//! not program construction.  Besides the Criterion timing, the benchmark
//! hand-times a few runs and merges a machine-readable baseline into
//! `BENCH_engine.json` (override the path with the `BENCH_ENGINE_JSON`
//! environment variable; the fig17 binary owns the `peak_rss_bytes` /
//! `ops_per_sec_p_*` keys of the same file) so the perf trajectory of the
//! engine is recorded across PRs.
//!
//! The `pooled_waits` row re-compiles the same program with
//! `CompileOptions { inline_single_id_waits: false }`: the gap between it and
//! the default row is the measured win of inlining single-id `WaitNotify`
//! records in the arena instead of chasing the shared id pool.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ec_bench::merge_baseline_json;
use ec_collectives::schedule::ring_allreduce_schedule;
use ec_netsim::{ClusterSpec, CompileOptions, CompiledProgram, CostModel, Engine};

/// Payload of the benchmark allreduce (8 MB, the paper's large-message size).
const BYTES: u64 = 8_000_000;

/// Rank count of the benchmark program (1024 simulated workers).
const RANKS: usize = 1024;

/// Throughput of the pre-optimization engine on this exact program,
/// measured on the reference build machine immediately before the hot-loop
/// rewrite (per-step `Op` clones, `HashMap` notification counters, eager
/// trace formatting).  Kept as the fixed origin of the perf trajectory.
const PRE_REWRITE_OPS_PER_SEC: f64 = 1.484e6;

fn bench_engine(ranks: usize) -> Engine {
    Engine::new(ClusterSpec::homogeneous(ranks, 1), CostModel::skylake_fdr())
}

fn bench_program(ranks: usize) -> CompiledProgram {
    ring_allreduce_schedule(ranks, BYTES).compile().expect("benchmark program must compile")
}

/// Hand-timed measurement used for the JSON baseline: mean wall time of
/// `runs` simulations after one warm-up, plus the derived ops/sec figure.
fn measure_ops_per_sec(engine: &Engine, prog: &CompiledProgram, runs: usize) -> (f64, f64) {
    let _ = engine.run_compiled(prog).expect("benchmark program must simulate");
    let start = Instant::now();
    for _ in 0..runs {
        let _ = engine.run_compiled(prog).expect("benchmark program must simulate");
    }
    let secs_per_run = start.elapsed().as_secs_f64() / runs as f64;
    (secs_per_run, prog.total_ops() as f64 / secs_per_run)
}

fn write_baseline(
    prog: &CompiledProgram,
    secs_per_run: f64,
    ops_per_sec: f64,
    pooled: f64,
    traced: f64,
    per_shard: &[(usize, f64)],
) {
    // Default to the workspace root (cargo runs benches with the package
    // directory as cwd) so the baseline lands next to the README.
    let path = std::env::var("BENCH_ENGINE_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_engine.json", env!("CARGO_MANIFEST_DIR")));
    let mut updates: Vec<(&str, String)> = vec![
        ("bench", "\"engine_throughput\"".into()),
        ("program", "\"ring_allreduce\"".into()),
        ("ranks", RANKS.to_string()),
        ("payload_bytes", BYTES.to_string()),
        ("total_ops", prog.total_ops().to_string()),
        ("seconds_per_run", format!("{secs_per_run:.6}")),
        ("simulated_ops_per_sec", format!("{ops_per_sec:.0}")),
        ("simulated_ops_per_sec_pooled_waits", format!("{pooled:.0}")),
        ("trace_overhead_ops_per_sec", format!("{traced:.0}")),
        ("trace_overhead_slowdown", format!("{:.2}", ops_per_sec / traced)),
    ];
    let shard_keys: Vec<(String, String)> =
        per_shard.iter().map(|(s, ops)| (format!("simulated_ops_per_sec_shards_{s}"), format!("{ops:.0}"))).collect();
    for (k, v) in &shard_keys {
        updates.push((k.as_str(), v.clone()));
    }
    updates.push(("pre_rewrite_ops_per_sec", format!("{PRE_REWRITE_OPS_PER_SEC:.0}")));
    updates.push(("speedup_vs_pre_rewrite", format!("{:.2}", ops_per_sec / PRE_REWRITE_OPS_PER_SEC)));
    if let Err(e) = merge_baseline_json(&path, &updates) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn bench_engine_throughput(c: &mut Criterion) {
    // `cargo test --benches` runs bench binaries with `--test`: use a small
    // program and skip the JSON emission so the test suite stays fast.
    let test_mode = std::env::args().any(|a| a == "--test");
    let ranks = if test_mode { 64 } else { RANKS };
    let engine = bench_engine(ranks);
    let prog = bench_program(ranks);

    if !test_mode {
        let (secs_per_run, ops_per_sec) = measure_ops_per_sec(&engine, &prog, 5);
        println!(
            "engine_throughput: {} ops in {:.3} s -> {:.3} M simulated ops/sec",
            prog.total_ops(),
            secs_per_run,
            ops_per_sec / 1e6
        );
        // The same program with single-id waits kept in the shared pool
        // instead of inlined in the op record: the arena-inlining win.
        let pooled_prog = ring_allreduce_schedule(ranks, BYTES)
            .compile_with(CompileOptions { inline_single_id_waits: false })
            .expect("benchmark program must compile");
        let (_, pooled) = measure_ops_per_sec(&engine, &pooled_prog, 3);
        println!("engine_throughput[pooled waits]: {:.3} M simulated ops/sec", pooled / 1e6);
        // Full in-memory tracing on the same program: the cost of recording
        // every typed event.  Gated so the typed-emission path cannot rot.
        let traced_engine = bench_engine(ranks).with_trace(true);
        let (_, traced) = measure_ops_per_sec(&traced_engine, &prog, 2);
        println!(
            "engine_throughput[traced]: {:.3} M simulated ops/sec ({:.2}x slowdown)",
            traced / 1e6,
            ops_per_sec / traced
        );
        // Per-shard-count rows (worker threads over contiguous rank blocks),
        // for the perf trajectory.
        let mut per_shard = Vec::new();
        for shards in [2usize, 4, 8] {
            let sharded = bench_engine(ranks).with_shards(shards);
            let (_, ops) = measure_ops_per_sec(&sharded, &prog, 3);
            println!("engine_throughput[shards={shards}]: {:.3} M simulated ops/sec", ops / 1e6);
            per_shard.push((shards, ops));
        }
        write_baseline(&prog, secs_per_run, ops_per_sec, pooled, traced, &per_shard);
    }

    let mut group = c.benchmark_group("engine");
    group.sample_size(5);
    group.bench_function(BenchmarkId::new("ring_allreduce", format!("p{ranks}")), |b| {
        b.iter(|| engine.run_compiled(&prog).unwrap());
    });
    if !test_mode {
        group.bench_function(BenchmarkId::new("ring_allreduce_shards4", format!("p{ranks}")), |b| {
            let sharded = bench_engine(ranks).with_shards(4);
            b.iter(|| sharded.run_compiled(&prog).unwrap());
        });
        group.bench_function(BenchmarkId::new("ring_allreduce_traced", format!("p{ranks}")), |b| {
            let traced = bench_engine(ranks).with_trace(true);
            b.iter(|| traced.run_compiled(&prog).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
