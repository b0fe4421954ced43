//! Acceptance tests for the fig14 SSP-at-scale experiment: the simulated
//! sweep must be deterministic (same seed, identical reports) at 512+
//! workers, staleness must pay off under injected stragglers, the
//! notification-conservation invariant must hold, and the multi-writer
//! hypercube must never take the dataflow path.

use ec_bench::ssp_scale::{fig14_scenario, ssp_scale_program, SspScaleConfig};
use ec_netsim::{ClusterSpec, CostModel, Engine, RunReport};

fn run(workers: usize, slack: usize, seed: u64) -> RunReport {
    let mut cfg = SspScaleConfig::new(workers, slack);
    cfg.iterations = 10;
    cfg.seed = seed;
    let program = ssp_scale_program(&cfg);
    let engine = Engine::new(ClusterSpec::homogeneous(workers, 1), CostModel::marenostrum4_opa())
        .with_scenario(fig14_scenario(seed));
    engine.run(&program).expect("fig14 program must simulate")
}

#[test]
fn fig14_is_deterministic_at_512_workers() {
    let a = run(512, 4, 42);
    let b = run(512, 4, 42);
    assert!(a.makespan() > 0.0);
    assert_eq!(a.ranks, b.ranks, "same seed must reproduce identical per-rank stats");
    // A different seed yields a genuinely different heterogeneous run.
    let c = run(512, 4, 43);
    assert_ne!(a.makespan(), c.makespan());
}

#[test]
fn slack_reduces_wait_time_under_stragglers() {
    let sync = run(512, 0, 42);
    let stale = run(512, 8, 42);
    assert!(
        stale.total_wait_time() < sync.total_wait_time(),
        "slack 8 must absorb straggler hiccups: {} vs {}",
        stale.total_wait_time(),
        sync.total_wait_time()
    );
    assert!(stale.makespan() < sync.makespan(), "staleness must shorten the heterogeneous makespan");
}

#[test]
fn notification_conservation_holds_at_scale() {
    for slack in [0, 3, 8] {
        let r = run(512, slack, 42);
        assert!(
            r.total_notifications_consumed() <= r.total_notifications_received(),
            "slack {slack}: consumed more arrivals than were delivered"
        );
    }
}

#[test]
fn scenario_injects_the_configured_stragglers() {
    let r = run(512, 2, 42);
    // fig14_scenario: 2% of nodes at 1.5x on top of 10% speed spread.
    let slow = r.ranks.iter().filter(|s| s.compute_scale > 1.3).count();
    assert_eq!(slow, 10, "2% of 512 single-rank nodes are persistent stragglers");
    assert!(r.max_compute_scale() > 1.3 && r.max_compute_scale() < 1.7);
}

#[test]
fn smoke_sweep_runs_entirely_on_the_strict_event_loop() {
    // The `--smoke` sweep of the fig14 binary: 128 workers, slack 0..=8,
    // 6 iterations, default payload, compute and seed.  Every destination
    // hears from one partner per hypercube dimension, so no run may
    // execute a single op on the (single-writer) dataflow path.
    for slack in 0..=8 {
        let mut cfg = SspScaleConfig::new(128, slack);
        cfg.iterations = 6;
        let engine = Engine::new(ClusterSpec::homogeneous(128, 1), CostModel::marenostrum4_opa())
            .with_scenario(fig14_scenario(cfg.seed));
        let r = engine.run(&ssp_scale_program(&cfg)).expect("fig14 smoke program must simulate");
        assert_eq!(r.metrics.dataflow_burst_ops, 0, "slack {slack}");
        assert!(r.metrics.events_scheduled > 0, "slack {slack}: the strict loop ran");
    }
}
