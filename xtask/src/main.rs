//! `cargo xtask` — repository automation.
//!
//! Four tasks, all run by CI:
//!
//! ```text
//! cargo run -p xtask -- bench-gate --baseline OLD.json --fresh NEW.json [--threshold 0.15]
//! cargo run -p xtask -- lint-schedules [--out report.txt]
//! cargo run -p xtask -- trace-stats run.json
//! cargo run -p xtask -- doc-check
//! ```
//!
//! **doc-check** builds the rustdoc of every first-party crate with all
//! rustdoc warnings (broken intra-doc links included) promoted to errors,
//! then rebuilds `ec_netsim` — the crate whose API the architecture book
//! links into — with `missing_docs` denied, so every public item of the
//! simulator stays documented.
//!
//! **trace-stats** validates a Chrome Trace Event JSON file exported by a
//! fig binary's `--trace-out` flag (span pairing, flow-arrow pairing,
//! counter tracks) and prints a per-span-name time summary.
//!
//! **lint-schedules** sweeps every schedule generator and `ProgramSource`
//! in `ec_collectives` and `ec_baseline` through the `ec_netsim::analyze`
//! static analyzer (deadlock/starvation, notification conservation,
//! one-sided buffer races) across a grid of rank counts — including
//! non-power-of-two — and payload sizes, and fails if any schedule is not
//! certified clean.  See the `lint` module.
//!
//! **bench-gate** compares two bench baseline files:
//!
//! Both files are the flat JSON baselines the Criterion benches emit
//! (`BENCH_engine.json`, `BENCH_fabric.json`).  Every numeric field whose
//! name contains `per_sec` is treated as a throughput metric (higher is
//! better; a drop beyond the threshold fails), and every field whose name
//! contains `peak_rss_bytes` as a memory metric (lower is better; growth
//! beyond the threshold fails).  The gate prints the relative delta for each
//! and **fails** (exit code 1) when any metric regressed by more than the
//! threshold (default 15%).  A gated field present in the baseline but
//! missing from the fresh file also fails — silently dropping a metric must
//! not pass the gate.
//!
//! The parser is deliberately minimal (the workspace is offline and has no
//! serde): it understands exactly the flat `"key": value` shape our bench
//! baselines use.

use std::process::ExitCode;

mod lint;

/// Extract the `(key, value)` pairs of every numeric field in a flat JSON
/// object.  String-valued fields are skipped; nested objects are not
/// supported (our baselines are flat).
fn numeric_fields(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find('"') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('"') else { break };
        let key = &rest[..end];
        rest = &rest[end + 1..];
        let after = rest.trim_start();
        let Some(after_colon) = after.strip_prefix(':') else { continue };
        let value = after_colon.trim_start();
        let num_len = value
            .char_indices()
            .take_while(|(i, c)| {
                c.is_ascii_digit() || *c == '-' || *c == '+' || *c == '.' || (*i > 0 && (*c == 'e' || *c == 'E'))
            })
            .count();
        if num_len > 0 {
            if let Ok(v) = value[..num_len].parse::<f64>() {
                out.push((key.to_string(), v));
            }
        }
    }
    out
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
struct Delta {
    key: String,
    baseline: f64,
    fresh: Option<f64>,
    /// Relative change, `(fresh - baseline) / baseline`.
    relative: Option<f64>,
    /// Memory-style metric (`peak_rss_bytes`): growth is the regression.
    lower_is_better: bool,
}

impl Delta {
    fn regressed(&self, threshold: f64) -> bool {
        match self.relative {
            Some(rel) => {
                if self.lower_is_better {
                    rel > threshold
                } else {
                    rel < -threshold
                }
            }
            None => true, // metric disappeared
        }
    }
}

/// Whether a field name is gated, and in which direction.
fn gated_direction(key: &str) -> Option<bool> {
    if key.contains("peak_rss_bytes") {
        Some(true) // lower is better
    } else if key.contains("per_sec") {
        Some(false) // higher is better
    } else {
        None
    }
}

/// Compare every gated field (`per_sec` throughput, `peak_rss_bytes` memory)
/// of `baseline` against `fresh`.
fn compare_throughput(baseline: &str, fresh: &str) -> Vec<Delta> {
    let fresh_fields = numeric_fields(fresh);
    numeric_fields(baseline)
        .into_iter()
        .filter_map(|(key, base)| gated_direction(&key).map(|lower| (key, base, lower)))
        .map(|(key, base, lower_is_better)| {
            let fresh = fresh_fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
            let relative = fresh.filter(|_| base != 0.0).map(|f| (f - base) / base);
            Delta { key, baseline: base, fresh, relative, lower_is_better }
        })
        .collect()
}

/// Run the gate over two already-loaded JSON documents; returns the report
/// lines and whether the gate passed.
fn gate(baseline: &str, fresh: &str, threshold: f64) -> (String, bool) {
    use std::fmt::Write as _;
    let deltas = compare_throughput(baseline, fresh);
    let mut out = String::new();
    let mut ok = true;
    if deltas.is_empty() {
        let _ = writeln!(out, "error: the baseline file contains no `per_sec` or `peak_rss_bytes` fields");
        return (out, false);
    }
    let _ = writeln!(out, "{:<44} {:>14} {:>14} {:>9}", "metric", "baseline", "fresh", "delta");
    for d in &deltas {
        let regressed = d.regressed(threshold);
        ok &= !regressed;
        let (fresh_s, delta_s) = match (d.fresh, d.relative) {
            (Some(f), Some(rel)) => (format!("{f:.0}"), format!("{:+.1}%", rel * 100.0)),
            (Some(f), None) => (format!("{f:.0}"), String::from("n/a")),
            (None, _) => (String::from("missing"), String::from("n/a")),
        };
        let marker = if regressed { "  <-- REGRESSION" } else { "" };
        let _ = writeln!(out, "{:<44} {:>14.0} {:>14} {:>9}{}", d.key, d.baseline, fresh_s, delta_s, marker);
    }
    let _ = writeln!(
        out,
        "{}",
        if ok {
            format!("bench gate passed (threshold: {:.0}%)", threshold * 100.0)
        } else {
            format!("bench gate FAILED: a metric regressed by more than {:.0}%", threshold * 100.0)
        }
    );
    (out, ok)
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- bench-gate --baseline <file> --fresh <file> [--threshold 0.15]");
    eprintln!("       cargo run -p xtask -- lint-schedules [--out <report-file>]");
    eprintln!("       cargo run -p xtask -- trace-stats <trace.json>");
    eprintln!("       cargo run -p xtask -- doc-check");
    ExitCode::from(2)
}

/// The first-party crates `doc-check` holds to the strict rustdoc bar (the
/// vendored stand-ins keep their upstream docs as-is).
const FIRST_PARTY: [&str; 11] = [
    "ec-collectives-suite",
    "ec_gaspi",
    "ec_ssp",
    "ec_comm",
    "ec_collectives",
    "ec_baseline",
    "ec_netsim",
    "ec_mlapp",
    "ec_fftapp",
    "ec_bench",
    "xtask",
];

/// `doc-check`: fail on any rustdoc warning in a first-party crate, then
/// deny `missing_docs` on the `ec_netsim` public API.
fn doc_check_main(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        return usage();
    }
    let run = |what: &str, cmd: &mut std::process::Command| -> bool {
        println!("doc-check: {what}");
        match cmd.status() {
            Ok(status) if status.success() => true,
            Ok(status) => {
                eprintln!("error: {what} failed with {status}");
                false
            }
            Err(e) => {
                eprintln!("error: could not spawn cargo for {what}: {e}");
                false
            }
        }
    };

    let mut doc = std::process::Command::new(env!("CARGO"));
    doc.args(["doc", "--no-deps"]);
    for pkg in FIRST_PARTY {
        doc.args(["-p", pkg]);
    }
    // `-D warnings` already covers the rustdoc lints, but broken intra-doc
    // links are the failure mode the architecture book cares about most, so
    // deny them by name too (the flag survives a future softening of the
    // blanket deny).
    doc.env("RUSTDOCFLAGS", "-D warnings -D rustdoc::broken-intra-doc-links");
    if !run("rustdoc (deny warnings, deny broken intra-doc links)", &mut doc) {
        return ExitCode::FAILURE;
    }

    let mut missing = std::process::Command::new(env!("CARGO"));
    missing.args(["rustc", "-p", "ec_netsim", "--lib", "--", "-D", "missing-docs"]);
    if !run("ec_netsim public API (deny missing docs)", &mut missing) {
        return ExitCode::FAILURE;
    }

    println!("doc-check passed");
    ExitCode::SUCCESS
}

/// `trace-stats <file>`: parse and validate an exported Chrome Trace Event
/// JSON file (`--trace-out` on any fig binary) and print a summary.  Fails
/// (exit code 1) when the file is not a structurally valid trace — unpaired
/// spans, flow finishes without a start, non-monotone span nesting.
fn trace_stats_main(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match ec_netsim::validate_chrome_trace(&json) {
        Ok(stats) => {
            println!("{path}: valid Chrome Trace Event JSON");
            println!("  events:         {}", stats.events);
            println!("  rank tracks:    {}", stats.tracks);
            println!("  spans (B/E):    {}", stats.spans);
            println!("  flows (s -> f): {} started, {} finished", stats.flow_starts, stats.flow_ends);
            if stats.dangling_flows > 0 {
                println!("  dangling flows: {} (peer rank outside the trace window)", stats.dangling_flows);
            }
            println!("  trace end:      {:.6} s", stats.end_time);
            if !stats.span_time_by_name.is_empty() {
                println!("  span time by name:");
                for (name, secs, count) in &stats.span_time_by_name {
                    println!("    {name:<12} {secs:>12.6} s over {count} span(s)");
                }
            }
            if !stats.counter_busy.is_empty() {
                println!("  link busy time (from counter tracks):");
                for (link, secs) in &stats.counter_busy {
                    println!("    {link:<24} {secs:>12.6} s");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path} is not a valid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `lint-schedules [--out <file>]`: run the static-analyzer sweep and
/// optionally persist the report (CI uploads it as an artifact).
fn lint_schedules_main(args: &[String]) -> ExitCode {
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage() };
        match flag.as_str() {
            "--out" => out_path = Some(value.clone()),
            _ => return usage(),
        }
    }
    let (report, ok) = lint::lint_schedules();
    print!("{report}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-gate") => {}
        Some("lint-schedules") => return lint_schedules_main(&args[1..]),
        Some("trace-stats") => return trace_stats_main(&args[1..]),
        Some("doc-check") => return doc_check_main(&args[1..]),
        _ => return usage(),
    }
    let mut baseline = None;
    let mut fresh = None;
    let mut threshold = 0.15f64;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage() };
        match flag.as_str() {
            "--baseline" => baseline = Some(value.clone()),
            "--fresh" => fresh = Some(value.clone()),
            "--threshold" => match value.parse() {
                Ok(t) => threshold = t,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(baseline), Some(fresh)) = (baseline, fresh) else { return usage() };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            None
        }
    };
    let (Some(base_json), Some(fresh_json)) = (read(&baseline), read(&fresh)) else {
        return ExitCode::from(2);
    };
    println!("comparing {baseline} (baseline) vs {fresh} (fresh)");
    let (report, ok) = gate(&base_json, &fresh_json, threshold);
    print!("{report}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "bench": "engine_throughput",
  "ranks": 1024,
  "seconds_per_run": 1.551622,
  "simulated_ops_per_sec": 3375668,
  "pre_rewrite_ops_per_sec": 1484000,
  "speedup_vs_pre_rewrite": 2.27
}"#;

    #[test]
    fn parser_extracts_numeric_fields_and_skips_strings() {
        let fields = numeric_fields(BASE);
        assert_eq!(fields.len(), 5, "the string-valued bench name is skipped: {fields:?}");
        assert!(fields.contains(&("simulated_ops_per_sec".into(), 3375668.0)));
        assert!(fields.contains(&("seconds_per_run".into(), 1.551622)));
    }

    #[test]
    fn parser_handles_scientific_notation_and_negatives() {
        let fields = numeric_fields(r#"{"a_per_sec": 1.5e6, "b": -3.25}"#);
        assert_eq!(fields, vec![("a_per_sec".into(), 1.5e6), ("b".into(), -3.25)]);
    }

    #[test]
    fn small_fluctuations_pass_the_gate() {
        let fresh = BASE.replace("3375668", "3000000"); // -11.1%
        let (report, ok) = gate(BASE, &fresh, 0.15);
        assert!(ok, "{report}");
        assert!(report.contains("-11.1%"));
        assert!(report.contains("bench gate passed"));
    }

    #[test]
    fn large_regressions_fail_the_gate() {
        let fresh = BASE.replace("3375668", "2500000"); // -25.9%
        let (report, ok) = gate(BASE, &fresh, 0.15);
        assert!(!ok, "{report}");
        assert!(report.contains("REGRESSION"));
        assert!(report.contains("simulated_ops_per_sec"));
    }

    #[test]
    fn improvements_are_reported_with_a_positive_delta() {
        let fresh = BASE.replace("3375668", "4000000");
        let (report, ok) = gate(BASE, &fresh, 0.15);
        assert!(ok);
        assert!(report.contains("+18.5%"));
    }

    #[test]
    fn a_disappearing_metric_fails_the_gate() {
        let fresh = BASE.replace("simulated_ops_per_sec", "renamed_ops_per_hour");
        let (report, ok) = gate(BASE, &fresh, 0.15);
        assert!(!ok, "{report}");
        assert!(report.contains("missing"));
    }

    #[test]
    fn only_per_sec_fields_are_gated() {
        // seconds_per_run doubling (a 2x slowdown in wall time per run) is
        // reported by the throughput fields, not gated directly.
        let fresh = BASE.replace("\"speedup_vs_pre_rewrite\": 2.27", "\"speedup_vs_pre_rewrite\": 0.1");
        let (_, ok) = gate(BASE, &fresh, 0.15);
        assert!(ok, "non-throughput fields must not trip the gate");
    }

    #[test]
    fn multi_metric_files_gate_each_field() {
        let base = r#"{"solves_per_sec_oversubscribed_4_1": 25886, "solves_per_sec_full_bisection": 30030}"#;
        let fresh = r#"{"solves_per_sec_oversubscribed_4_1": 26000, "solves_per_sec_full_bisection": 20000}"#;
        let (report, ok) = gate(base, fresh, 0.15);
        assert!(!ok);
        assert!(report.contains("solves_per_sec_full_bisection"));
        assert!(report.lines().filter(|l| l.contains("per_sec")).count() >= 2);
    }

    #[test]
    fn per_shard_engine_metrics_are_gated() {
        // The engine baseline now records one throughput row per shard
        // count; each row is an independent gated metric, so a regression in
        // (say) the 4-shard path fails the gate even when the serial path
        // improved — and dropping a shard row altogether is also a failure.
        let base = r#"{
  "simulated_ops_per_sec": 38000000,
  "simulated_ops_per_sec_shards_2": 18000000,
  "simulated_ops_per_sec_shards_4": 17000000,
  "simulated_ops_per_sec_shards_8": 16000000
}"#;
        let regressed_shard =
            base.replace("\"simulated_ops_per_sec_shards_4\": 17000000", "\"simulated_ops_per_sec_shards_4\": 9000000");
        let (report, ok) = gate(base, &regressed_shard, 0.15);
        assert!(!ok, "{report}");
        assert!(report.contains("simulated_ops_per_sec_shards_4"));

        let dropped_row = base.replace(
            "\"simulated_ops_per_sec_shards_8\": 16000000",
            "\"simulated_ops_per_sec_shards_8_renamed\": 16000000",
        );
        let (report, ok) = gate(base, &dropped_row, 0.15);
        assert!(!ok, "{report}");
        assert!(report.contains("missing"));

        let (_, ok) = gate(base, base, 0.15);
        assert!(ok, "identical per-shard rows pass");
    }

    #[test]
    fn peak_rss_growth_fails_the_gate() {
        // Memory metrics gate in the opposite direction: growth beyond the
        // threshold is the regression, shrinkage is an improvement.
        let base = r#"{"ops_per_sec_p_1m": 30000000, "peak_rss_bytes": 4000000000}"#;
        let grown = r#"{"ops_per_sec_p_1m": 30000000, "peak_rss_bytes": 6000000000}"#; // +50%
        let (report, ok) = gate(base, grown, 0.15);
        assert!(!ok, "{report}");
        assert!(report.contains("peak_rss_bytes"));
        assert!(report.contains("REGRESSION"));

        let shrunk = r#"{"ops_per_sec_p_1m": 30000000, "peak_rss_bytes": 2000000000}"#; // -50%
        let (report, ok) = gate(base, shrunk, 0.15);
        assert!(ok, "less memory must pass: {report}");

        let dropped = r#"{"ops_per_sec_p_1m": 30000000}"#;
        let (report, ok) = gate(base, dropped, 0.15);
        assert!(!ok, "a disappearing RSS metric must fail: {report}");
        assert!(report.contains("missing"));
    }

    #[test]
    fn smoke_rss_keys_are_gated_too() {
        let base = r#"{"ops_per_sec_p_131072": 38000000, "peak_rss_bytes_smoke": 800000000}"#;
        let grown = base.replace("800000000", "1000000000"); // +25%
        let (report, ok) = gate(base, &grown, 0.15);
        assert!(!ok, "{report}");
        assert!(report.contains("peak_rss_bytes_smoke"));
    }

    #[test]
    fn empty_baseline_is_rejected() {
        let (report, ok) = gate(r#"{"bench": "x"}"#, r#"{"bench": "x"}"#, 0.15);
        assert!(!ok);
        assert!(report.contains("no `per_sec`"));
    }
}
