//! Host-cost benchmark of the `ec_netsim` simulator, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, single-threaded (`shards = 1`).  It builds
//! the workload's engines in timed batches (the upper quartile is `setup_s`),
//! runs untimed warm-up passes, then times passes for `--seconds`.
//!
//! * `--trace 0` reports the end-to-end metrics: `sim_ops_per_s` (program ops
//!   of one pass over the upper quartile of the pass times), `setup_s` and
//!   `peak_rss_mib`.
//! * `--trace 1` alternates untraced passes with passes whose calls into
//!   each layer are wrapped in spans, and reports per-layer self times and
//!   the work counters the public API returns (`RunReport::metrics`,
//!   `CompiledProgram::memory_stats`).  The spans are written to
//!   `perfbench/out/spans-<workload>-seed<n>.jsonl`.
//!
//! Every simulation runs under `catch_unwind` and counts as failed on an
//! `Err`, a panic, a failed output check, or a fingerprint that differs from
//! its pin in `pins.txt` or from the same simulation earlier in the run.
//! `failed / attempted` is the workload's fail ratio; any failure makes the
//! command exit with code 1.  The last line of stdout is the JSON result.

mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use ec_netsim::{analyze_compiled, write_chrome_trace, EngineMetrics, RunReport};
use spans::Spans;
use workloads::{Engines, Job, Net};

/// Pinned fingerprints, one line per simulation:
/// `<workload> <seed or *> <job label> <fingerprint hex>`.
const PINS: &str = include_str!("../pins.txt");
/// Set-up batches timed before warm-up; one more follows each timed pass.
const SETUP_SAMPLES: usize = 5;
/// A set-up batch repeats the set-up until it takes at least this long, so
/// that a sample of a sub-microsecond set-up is neither timer resolution nor
/// one stray interrupt.
const SETUP_BATCH_S: f64 = 0.02;
/// Warm-up runs at least one pass and at least this long before timing.
const WARMUP_S: f64 = 1.0;
/// Timed passes of each kind, at least.
const MIN_PASSES: usize = 3;
/// The end-to-end times (`sim_ops_per_s`'s pass time, `setup_s`) are this
/// quantile of their samples.  On a shared virtual machine the host's speed
/// has fast excursions, up to 1.5x, that last from seconds to minutes; the
/// upper quartile tracks the host's usual speed and moved less from run to
/// run than the median (README, "End-to-end metrics").
const TIME_QUANTILE: f64 = 0.75;
/// Untraced/traced simulation pairs behind `trace.overhead_x`.
const OVERHEAD_PAIRS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name);
    let need = |v: Option<String>, name: &str| v.ok_or_else(|| format!("missing {name}"));
    let workload = need(take("--workload"), "--workload")?;
    let seed = need(take("--seed"), "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need(take("--seconds"), "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match need(take("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The pinned fingerprint of each job, where `pins` has one for this
/// workload and seed.
fn load_pins(pins: &str, workload: &str, seed: u64, jobs: &[Job]) -> Result<Vec<Option<u64>>, String> {
    let mut by_label = BTreeMap::new();
    for (n, line) in pins.lines().enumerate().filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, s, label, hex] = fields[..] else {
            return Err(format!("pins line {}: expected 4 fields", n + 1));
        };
        let fp = u64::from_str_radix(hex, 16).map_err(|e| format!("pins line {}: {e}", n + 1))?;
        let seed_matches = s == "*" || s.parse::<u64>().is_ok_and(|s| s == seed);
        if w == workload && seed_matches {
            by_label.insert(label.to_string(), fp);
        }
    }
    Ok(jobs.iter().map(|j| by_label.get(&j.label).copied()).collect())
}

/// Per-job work counters of a traced pass (deterministic, so they must repeat
/// exactly from pass to pass).
type Counters = BTreeMap<&'static str, u64>;

/// The layer a simulation's `run_compiled` time belongs to.
fn path_of(job: &Job, m: &EngineMetrics) -> &'static str {
    match job.net {
        _ if job.diagnose => "trace",
        Net::Flow => "fabric",
        Net::Packet => "packet",
        Net::AlphaBeta if m.dataflow_burst_ops > 0 => "dataflow",
        Net::AlphaBeta => "engine",
    }
}

fn add_run_counters(c: &mut Counters, path: &'static str, m: &EngineMetrics) {
    let mut add = |k, v| *c.entry(k).or_insert(0) += v;
    if path == "engine" {
        add("engine.events", m.events_scheduled);
    }
    if path == "dataflow" {
        add("dataflow.ops", m.dataflow_burst_ops);
    }
    add("calendar.bucket_sorts", m.calendar_bucket_sorts);
    add("fabric.solves", m.fabric_solves);
    add("fabric.swap_hits", m.balanced_swap_hits);
    add("packet.events", m.packet_events);
    add("packet.drops", m.packet_drops);
    add("packet.retransmits", m.packet_retransmits);
    add("packet.pfc_pauses", m.pfc_pauses);
    add("trace.events", m.trace_events);
}

/// The critical path's categories must sum to the makespan; returns the
/// path's segment count.
fn check_critical_path(r: &RunReport) -> Result<u64, String> {
    let cp = r.critical_path().ok_or("traced run produced no critical path")?;
    let (sum, makespan) = (cp.breakdown.total(), r.makespan());
    if (sum - makespan).abs() >= 1e-9 {
        return Err(format!("critical-path categories sum to {sum}, makespan is {makespan}"));
    }
    Ok(cp.segments.len() as u64)
}

/// A `Write` that only counts bytes.
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn export_bytes(r: &RunReport) -> Result<u64, String> {
    let mut sink = ByteCount(0);
    write_chrome_trace(&mut sink, &r.trace, &r.links).map_err(|e| format!("trace export: {e}"))?;
    if sink.0 == 0 {
        return Err("trace export wrote nothing".into());
    }
    Ok(sink.0)
}

/// Outcome of one simulation: program ops, fingerprint, traced-pass counters.
type Outcome = Result<(u64, u64, Counters), String>;

/// One untraced simulation: record → `run` (`run_checked` + critical path +
/// export for a diagnose job) → checks.
fn run_job(engines: &Engines, job: &Job) -> Outcome {
    let program = (job.record)();
    let engine = &engines.engines[job.engine];
    let report = if job.diagnose { engine.run_checked(&program) } else { engine.run(&program) };
    let report = report.map_err(|e| e.to_string())?;
    if job.diagnose {
        check_critical_path(&report)?;
        export_bytes(&report)?;
    }
    (job.check)(&report)?;
    Ok((program.total_ops() as u64, report.fingerprint(), Counters::new()))
}

/// The same simulation with a span around each layer call.
fn spanned_job(engines: &Engines, job: &Job, spans: &mut Spans) -> Outcome {
    let mut c = Counters::new();
    let program = spans.time("record", || (job.record)());
    let ops = program.total_ops() as u64;
    let compiled = spans.time("compiled", || program.compile()).map_err(|e| e.to_string())?;
    let ms = compiled.memory_stats();
    c.insert("compiled.segments", ms.segments as u64);
    c.insert("compiled.total_ops", ms.total_ops);
    c.insert("compiled.stored_ops", ms.stored_ops as u64);
    c.insert("compiled.arena_bytes", ms.arena_bytes as u64);
    if job.diagnose {
        let analysis = spans.time("analyze", || analyze_compiled(&compiled));
        if !analysis.is_clean() {
            return Err(format!("analyzer rejected the program: {:?}", analysis.errors));
        }
        c.insert("analyze.ops", ops);
    }
    let id = spans.open("run_compiled");
    let report = engines.engines[job.engine].run_compiled(&compiled);
    let path = report.as_ref().map_or("engine", |r| path_of(job, &r.metrics));
    spans.close_as(id, path);
    let report = report.map_err(|e| e.to_string())?;
    add_run_counters(&mut c, path, &report.metrics);
    if job.diagnose {
        c.insert("critpath.segments", spans.time("critpath", || check_critical_path(&report))?);
        c.insert("trace.export_bytes", spans.time("trace.export", || export_bytes(&report))?);
    }
    let fp = spans.time("report.fingerprint", || report.fingerprint());
    (job.check)(&report)?;
    Ok((ops, fp, c))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    let msg = p.downcast_ref::<&str>().map(ToString::to_string).or_else(|| p.downcast_ref::<String>().cloned());
    format!("panic: {}", msg.unwrap_or_default())
}

/// Runs passes and keeps the failure tally and the reference outputs every
/// later simulation must reproduce.
struct Runner<'a> {
    engines: &'a Engines,
    jobs: &'a [Job],
    /// Per job: the pinned fingerprint, else the first one observed.
    expected: Vec<Option<u64>>,
    /// Per job: the counters of its first traced run.
    counters: Vec<Option<Counters>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<'a> Runner<'a> {
    fn new(engines: &'a Engines, jobs: &'a [Job], pins: Vec<Option<u64>>) -> Self {
        let counters = vec![None; jobs.len()];
        Self { engines, jobs, expected: pins, counters, attempted: 0, failed: 0, errors: Vec::new() }
    }

    fn fail(&mut self, label: &str, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(format!("{label}: {why}"));
        }
    }

    /// Score one simulation; returns its op count and counters when it passed.
    fn score(&mut self, j: usize, outcome: Outcome) -> Option<(u64, Counters)> {
        self.attempted += 1;
        let label = &self.jobs[j].label;
        let (ops, fp, c) = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.fail(label, e);
                return None;
            }
        };
        let want = *self.expected[j].get_or_insert(fp);
        if fp != want {
            self.fail(label, format!("fingerprint {fp:016x}, expected {want:016x}"));
            return None;
        }
        if !c.is_empty() {
            let first = self.counters[j].get_or_insert_with(|| c.clone());
            if *first != c {
                let why = format!("work counters {c:?} differ from the first traced run's {first:?}");
                self.fail(label, why);
                return None;
            }
        }
        Some((ops, c))
    }

    /// One untraced pass; returns the ops simulated.
    fn pass(&mut self) -> u64 {
        let mut ops = 0;
        for (j, job) in self.jobs.iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| run_job(self.engines, job)));
            let outcome = outcome.unwrap_or_else(|p| Err(panic_message(p.as_ref())));
            ops += self.score(j, outcome).map_or(0, |(o, _)| o);
        }
        ops
    }

    /// One traced pass as span pass `pass`; returns the summed counters.
    fn spanned_pass(&mut self, spans: &mut Spans, pass: u32) -> Counters {
        spans.set_pass(pass);
        let root = spans.open("pass");
        let mut total = Counters::new();
        for (j, job) in self.jobs.iter().enumerate() {
            let depth = spans.depth();
            let outcome = catch_unwind(AssertUnwindSafe(|| spanned_job(self.engines, job, spans)));
            spans.close_to(depth);
            let outcome = outcome.unwrap_or_else(|p| Err(panic_message(p.as_ref())));
            for (k, v) in self.score(j, outcome).map(|(_, c)| c).unwrap_or_default() {
                *total.entry(k).or_insert(0) += v;
            }
        }
        spans.close_as(root, "pass");
        total
    }

    /// `ring_diagnose`: traced over untraced `run_compiled` time of the same
    /// compiled program, medians of alternating runs.
    fn trace_overhead(&mut self) -> f64 {
        let Some(untraced) = &self.engines.untraced else { return 0.0 };
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for (j, job) in self.jobs.iter().enumerate() {
            let compiled = match (job.record)().compile() {
                Ok(c) => c,
                Err(e) => {
                    self.score(j, Err(e.to_string()));
                    continue;
                }
            };
            for _ in 0..OVERHEAD_PAIRS {
                for (engine, times) in [(untraced, &mut plain), (&self.engines.engines[job.engine], &mut traced)] {
                    let t = Instant::now();
                    let r = catch_unwind(AssertUnwindSafe(|| engine.run_compiled(&compiled)));
                    times.push(t.elapsed().as_secs_f64());
                    let outcome = match r {
                        Ok(Ok(r)) => Ok((0, r.fingerprint(), Counters::new())),
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(p) => Err(panic_message(p.as_ref())),
                    };
                    self.score(j, outcome);
                }
            }
        }
        ratio(median(&traced), median(&plain))
    }
}

/// The `q`-quantile of `xs`, interpolated between the closest ranks; 0 for
/// no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// Seconds `f` takes.
fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Times the workload's set-up, [`workloads::engines`], in batches.  The job
/// list is built once, outside the batches: it is the benchmark's own
/// scaffolding, not the simulator's.  Batches are taken before warm-up and
/// between timed passes, so `setup_s` is taken over the heap states and host
/// speeds a run goes through rather than one process's first state.
struct SetupTimer<'a> {
    args: &'a Args,
    reps: u32,
    samples: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    fn new(args: &'a Args) -> Self {
        let mut t = Self { args, reps: 1, samples: Vec::new() };
        // The first set-up of the process pays its one-off costs (heap
        // growth); it would stop the calibration at one repetition.
        t.batch();
        while t.reps < 1 << 20 && t.batch() < SETUP_BATCH_S {
            t.reps *= 2;
        }
        for _ in 0..SETUP_SAMPLES {
            t.sample();
        }
        t
    }

    fn batch(&self) -> f64 {
        seconds(|| {
            (0..self.reps).for_each(|_| drop(black_box(workloads::engines(&self.args.workload, self.args.seed))))
        })
    }

    fn sample(&mut self) {
        let s = self.batch() / f64::from(self.reps);
        self.samples.push(s);
    }

    fn seconds(&self) -> f64 {
        quantile(&self.samples, TIME_QUANTILE)
    }
}

/// The per-layer metrics of the traced run, as `(name, unit, value)`.
fn layer_metrics(
    spans: &Spans,
    passes: &[u32],
    c: &Counters,
    ops: u64,
    overhead_x: f64,
    plain_pass_s: &[f64],
) -> Vec<(&'static str, &'static str, f64)> {
    let per_pass: Vec<BTreeMap<&str, f64>> = passes.iter().map(|&p| spans.self_times(p)).collect();
    let t = |name: &str| median(&per_pass.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect::<Vec<_>>());
    let n = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let spanned_pass_s: Vec<f64> = passes.iter().map(|&p| spans.pass_duration(p)).collect();
    let (solves, hits) = (n("fabric.solves"), n("fabric.swap_hits"));
    vec![
        ("record.s", "s", t("record")),
        ("record.ops_per_s", "ops/s", ratio(ops as f64, t("record"))),
        ("compiled.s", "s", t("compiled")),
        ("compiled.segments", "count", n("compiled.segments")),
        ("compiled.dedup_ratio", "ratio", ratio(n("compiled.total_ops"), n("compiled.stored_ops"))),
        ("compiled.arena_bytes", "bytes", n("compiled.arena_bytes")),
        ("analyze.s", "s", t("analyze")),
        ("analyze.ops_per_s", "ops/s", ratio(n("analyze.ops"), t("analyze"))),
        ("engine.s", "s", t("engine")),
        ("engine.events", "count", n("engine.events")),
        ("engine.events_per_s", "1/s", ratio(n("engine.events"), t("engine"))),
        ("calendar.bucket_sorts", "count", n("calendar.bucket_sorts")),
        ("dataflow.s", "s", t("dataflow")),
        ("dataflow.ops", "count", n("dataflow.ops")),
        ("dataflow.ops_per_s", "ops/s", ratio(n("dataflow.ops"), t("dataflow"))),
        ("fabric.s", "s", t("fabric")),
        ("fabric.solves", "count", solves),
        ("fabric.swap_hits", "count", hits),
        ("fabric.swap_hit_ratio", "ratio", ratio(hits, hits + solves)),
        ("packet.s", "s", t("packet")),
        ("packet.events", "count", n("packet.events")),
        ("packet.events_per_s", "1/s", ratio(n("packet.events"), t("packet"))),
        ("packet.drops", "count", n("packet.drops")),
        ("packet.retransmits", "count", n("packet.retransmits")),
        ("packet.pfc_pauses", "count", n("packet.pfc_pauses")),
        ("report.fingerprint_s", "s", t("report.fingerprint")),
        ("trace.s", "s", t("trace")),
        ("trace.events", "count", n("trace.events")),
        ("trace.overhead_x", "x", overhead_x),
        ("trace.export_s", "s", t("trace.export")),
        ("trace.export_bytes", "bytes", n("trace.export_bytes")),
        ("critpath.s", "s", t("critpath")),
        ("critpath.segments", "count", n("critpath.segments")),
        ("spans.overhead_ratio", "x", ratio(median(&spanned_pass_s), median(plain_pass_s))),
    ]
}

fn json_result(r: &Runner<'_>, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> =
        metrics.iter().map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

/// How many simulations a run attempted and how many of them failed.
#[derive(Debug)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Run one workload against the pinned fingerprints in `pins` and print its
/// result; `Err` when the run could not start.
fn run(args: &Args, pins: &str) -> Result<Tally, String> {
    let t0 = Instant::now();
    let engines = workloads::engines(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}; known: {}", args.workload, workloads::NAMES.join(", ")))?;
    let jobs = workloads::jobs(&args.workload, args.seed);
    let mut setup_timer = SetupTimer::new(args);
    let pins = load_pins(pins, &args.workload, args.seed, &jobs).map_err(|e| format!("pins: {e}"))?;
    let pinned = pins.iter().filter(|p| p.is_some()).count();
    let unpinned: Vec<bool> = pins.iter().map(Option::is_none).collect();
    let mut runner = Runner::new(&engines, &jobs, pins);
    let mut spans = Spans::new();

    // Warm-up: page in the allocator's arenas and the code before timing.
    let warm = Instant::now();
    let mut ops = 0;
    while ops == 0 || warm.elapsed().as_secs_f64() < WARMUP_S {
        ops = runner.pass();
        if args.trace {
            runner.spanned_pass(&mut spans, 0);
        }
        if runner.failed > 0 {
            break;
        }
    }

    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut counters = Counters::new();
    let start = Instant::now();
    while plain.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(seconds(|| {
            runner.pass();
        }));
        setup_timer.sample();
        if args.trace {
            let pass = spanned.len() as u32 + 1;
            counters = runner.spanned_pass(&mut spans, pass);
            spanned.push(pass);
        }
    }
    let overhead_x = if args.trace { runner.trace_overhead() } else { 0.0 };

    let pass_s = quantile(&plain, TIME_QUANTILE);
    let metrics = if args.trace {
        layer_metrics(&spans, &spanned, &counters, ops, overhead_x, &plain)
    } else {
        vec![
            ("sim_ops_per_s", "ops/s", ratio(ops as f64, pass_s)),
            ("setup_s", "s", setup_timer.seconds()),
            ("peak_rss_mib", "MiB", peak_rss_mib()),
        ]
    };
    if args.trace {
        let path = format!("perfbench/out/spans-{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, spans.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: could not write spans to {path}: {e}");
        }
    }

    let (lo, hi) = plain.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    println!(
        "# {} seed {} trace {}: {} ops/pass, {} timed passes, pass s upper quartile {pass_s:.4} median {:.4} min {lo:.4} max {hi:.4}, {pinned}/{} simulations pinned, wall {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        ops,
        plain.len(),
        median(&plain),
        jobs.len(),
        t0.elapsed().as_secs_f64()
    );
    let pass_list: Vec<String> = plain.iter().map(|s| format!("{s:.4}")).collect();
    println!("# pass s: {}", pass_list.join(" "));
    println!(
        "# fail_ratio {} ({} of {} simulations failed)",
        ratio(runner.failed as f64, runner.attempted as f64),
        runner.failed,
        runner.attempted
    );
    for e in &runner.errors {
        println!("# failure: {e}");
    }
    // Fingerprints without a pin, in the pins file's format.
    let seed = if workloads::seeded(&args.workload) { args.seed.to_string() } else { "*".into() };
    for ((job, &unpinned), fp) in jobs.iter().zip(&unpinned).zip(&runner.expected) {
        if let (true, Some(fp)) = (unpinned, fp) {
            eprintln!("unpinned: {} {seed} {} {fp:016x}", args.workload, job.label);
        }
    }
    for (name, unit, v) in &metrics {
        println!("# {name:<24} {v:>20.9} {unit}");
    }
    println!("{}", json_result(&runner, &metrics));
    Ok(Tally { attempted: runner.attempted, failed: runner.failed })
}

/// 0 when every simulation passed, 1 when one failed or none ran, 2 when
/// the run could not start.
fn exit_code(outcome: &Result<Tally, String>) -> ExitCode {
    match outcome {
        Ok(t) if t.failed == 0 && t.attempted > 0 => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(_) => ExitCode::from(2),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args, PINS));
    if let Err(e) = &outcome {
        eprintln!("perfbench: {e}");
    }
    exit_code(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_large() -> Args {
        Args { workload: "ring_large".into(), seed: 7, seconds: 1.0, trace: false }
    }

    #[test]
    fn wrong_pin_fails_every_simulation() {
        let outcome = run(&ring_large(), "ring_large * ring/p1024/8000000 0123456789abcdef\n");
        let t = outcome.as_ref().expect("the run starts");
        assert!(t.attempted > 0);
        assert_eq!(t.failed, t.attempted, "fail ratio must be 1");
        assert_eq!(exit_code(&outcome), ExitCode::FAILURE);
    }

    #[test]
    fn committed_pins_pass() {
        let outcome = run(&ring_large(), PINS);
        assert_eq!(outcome.as_ref().expect("the run starts").failed, 0);
        assert_eq!(exit_code(&outcome), ExitCode::SUCCESS);
    }
}
