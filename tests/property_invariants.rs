//! Cross-crate property-based invariants: the collectives must compute the
//! mathematically correct results for arbitrary inputs, and the cost model
//! must respond monotonically to workload parameters.

use ec_collectives_suite::baseline::{
    mpi_bcast_binomial_schedule, mpi_reduce_binomial_schedule, MpiAllreduceVariant, MpiWorld,
};
use ec_collectives_suite::collectives::schedule::{
    alltoall_direct_schedule, bcast_bst_schedule, reduce_bst_schedule, ring_allreduce_schedule,
};
use ec_collectives_suite::collectives::{BroadcastBst, ReduceOp, RingAllreduce, SspAllreduce, Threshold};
use ec_collectives_suite::gaspi::{GaspiConfig, Job};
use ec_collectives_suite::netsim::{validate, ClusterSpec, CostModel, Engine};
use proptest::prelude::*;

fn engine(nodes: usize) -> Engine {
    Engine::new(ClusterSpec::homogeneous(nodes, 1), CostModel::skylake_fdr())
}

/// Strategy over process counts that are *not* powers of two.
///
/// Binomial trees and ring schedules contain power-of-two fast paths (and,
/// historically, power-of-two-only bugs in the remainder handling), so these
/// counts deliberately exercise the general-case code.
fn non_power_of_two_procs() -> impl Strategy<Value = usize> {
    (3usize..16).prop_filter("power-of-two process counts excluded", |p| !p.is_power_of_two())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ring allreduce must equal the element-wise sum of all inputs for
    /// arbitrary payloads and rank counts (including non powers of two).
    #[test]
    fn ring_allreduce_computes_exact_sums(
        p in 2usize..6,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|r| (0..n).map(|i| (((seed as usize + r * 31 + i * 7) % 23) as f64) - 11.0).collect())
            .collect();
        let expected: Vec<f64> = (0..n).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        let inputs_clone = inputs.clone();
        let out = Job::new(GaspiConfig::new(p))
            .run(move |ctx| {
                let ring = RingAllreduce::new(ctx, n).unwrap();
                let mut data = inputs_clone[ctx.rank()].clone();
                ring.run(&mut data, ReduceOp::Sum).unwrap();
                data
            })
            .unwrap();
        for data in out {
            for (a, b) in data.iter().zip(expected.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Whatever the slack, an SSP allreduce result is a sum of one
    /// contribution per rank where every contribution is bounded by the
    /// per-iteration contribution range, and its clock never violates the
    /// slack bound.
    #[test]
    fn ssp_allreduce_results_stay_within_staleness_bounds(
        log_p in 1u32..3,
        slack in 0u64..5,
        iters in 1usize..5,
    ) {
        let p = 1usize << log_p;
        let n = 8;
        let out = Job::new(GaspiConfig::new(p))
            .run(move |ctx| {
                let mut ssp = SspAllreduce::new(ctx, n, slack).unwrap();
                let mut ok = true;
                for it in 1..=iters {
                    let contribution = vec![1.0; n];
                    let rep = ssp.run(&contribution, ReduceOp::Sum).unwrap();
                    // Result is a sum of exactly P contributions of 1.0 each
                    // (stale or fresh — the value is the same by construction).
                    ok &= rep.result.iter().all(|&v| (v - p as f64).abs() < 1e-9);
                    ok &= rep.result_clock.value() >= it as i64 - slack as i64;
                    ok &= rep.result_clock.value() <= rep.iteration.value() + slack as i64 + iters as i64;
                }
                ok
            })
            .unwrap();
        prop_assert!(out.into_iter().all(|v| v));
    }

    /// Simulated collective time must not decrease when the payload grows.
    #[test]
    fn makespan_is_monotone_in_message_size(bytes in 1_000u64..1_000_000) {
        let e = engine(8);
        let smaller = e.makespan(&ring_allreduce_schedule(8, bytes)).unwrap();
        let larger = e.makespan(&ring_allreduce_schedule(8, bytes * 2)).unwrap();
        prop_assert!(larger >= smaller);
        let b_small = e.makespan(&bcast_bst_schedule(8, bytes, 1.0)).unwrap();
        let b_large = e.makespan(&bcast_bst_schedule(8, bytes * 2, 1.0)).unwrap();
        prop_assert!(b_large >= b_small);
    }

    /// Shipping a smaller fraction of the data never makes the eventually
    /// consistent broadcast or reduce slower.
    #[test]
    fn threshold_is_monotone_in_simulated_time(bytes in 10_000u64..2_000_000, t1 in 0.1f64..1.0, t2 in 0.1f64..1.0) {
        prop_assume!(t1 <= t2);
        let e = engine(16);
        let b1 = e.makespan(&bcast_bst_schedule(16, bytes, t1)).unwrap();
        let b2 = e.makespan(&bcast_bst_schedule(16, bytes, t2)).unwrap();
        prop_assert!(b1 <= b2 + 1e-12);
        let r1 = e.makespan(&reduce_bst_schedule(16, bytes, t1)).unwrap();
        let r2 = e.makespan(&reduce_bst_schedule(16, bytes, t2)).unwrap();
        prop_assert!(r1 <= r2 + 1e-12);
    }

    /// Every MPI allreduce variant and the GASPI schedules validate for
    /// arbitrary (reasonable) rank counts and sizes, and simulate to a
    /// positive finite time.
    #[test]
    fn all_schedules_validate_and_simulate(p in 2usize..12, kb in 1u64..512) {
        let bytes = kb * 1024;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        let mut programs = vec![
            ring_allreduce_schedule(p, bytes),
            bcast_bst_schedule(p, bytes, 0.5),
            reduce_bst_schedule(p, bytes, 0.5),
            alltoall_direct_schedule(p, bytes.min(64 * 1024)),
        ];
        for v in MpiAllreduceVariant::all() {
            programs.push(v.schedule(p, bytes, 1));
        }
        for prog in programs {
            prop_assert!(validate(&prog, p).is_ok());
            let t = e.makespan(&prog).unwrap();
            prop_assert!(t.is_finite() && t >= 0.0);
        }
    }

    /// Ring allreduce on non-power-of-two rank counts: the segmented
    /// scatter-reduce/allgather pipeline has no power-of-two shortcut, so odd
    /// and prime process counts must still produce exact element-wise sums.
    #[test]
    fn ring_allreduce_is_exact_for_non_power_of_two_procs(
        p in non_power_of_two_procs(),
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|r| (0..n).map(|i| (((seed as usize + r * 17 + i * 13) % 19) as f64) - 9.0).collect())
            .collect();
        let expected: Vec<f64> = (0..n).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        let inputs_clone = inputs.clone();
        let out = Job::new(GaspiConfig::new(p))
            .run(move |ctx| {
                let ring = RingAllreduce::new(ctx, n).unwrap();
                let mut data = inputs_clone[ctx.rank()].clone();
                ring.run(&mut data, ReduceOp::Sum).unwrap();
                data
            })
            .unwrap();
        for data in out {
            for (a, b) in data.iter().zip(expected.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Binomial-tree broadcast on non-power-of-two rank counts: with a full
    /// threshold every rank must end up with the root's exact payload, for
    /// every possible root (the tree is rotated around the root rank).
    #[test]
    fn binomial_bcast_reaches_all_ranks_for_non_power_of_two_procs(
        p in non_power_of_two_procs(),
        n in 1usize..32,
        root_seed in 0usize..64,
    ) {
        let root = root_seed % p;
        let payload: Vec<f64> = (0..n).map(|i| (root * 100 + i) as f64).collect();
        let payload_clone = payload.clone();
        let out = Job::new(GaspiConfig::new(p))
            .run(move |ctx| {
                let bcast = BroadcastBst::new(ctx, n).unwrap();
                let mut data = if ctx.rank() == root {
                    payload_clone.clone()
                } else {
                    vec![f64::NAN; n]
                };
                bcast.run(&mut data, root, Threshold::FULL).unwrap();
                data
            })
            .unwrap();
        for (rank, data) in out.iter().enumerate() {
            prop_assert_eq!(data, &payload, "rank {} diverged from the root payload", rank);
        }
    }

    /// Notification-counter conservation over random put/wait programs: a
    /// wait consumes exactly as many arrivals as it asked for, so the total
    /// consumed can never exceed the total delivered — and programs whose
    /// waits are covered by matching puts never deadlock.  (This property
    /// fails on an engine whose `WaitNotifyAny` over-consumes: an any-wait
    /// draining every available id starves a later wait.)
    #[test]
    fn notification_arrivals_are_conserved(
        p in 2usize..6,
        puts in 1usize..24,
        ids in 1u32..5,
        seed in 0u64..10_000,
    ) {
        use ec_collectives_suite::netsim::{ProgramBuilder, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let mut b = ProgramBuilder::new(p);
        // Random notifies; remember which ids each receiver saw.
        let mut seen: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut arrivals = vec![0usize; p];
        for _ in 0..puts {
            let src = rng.next_below(p);
            let dst = (src + 1 + rng.next_below(p - 1)) % p;
            let id = (rng.next_u64() % ids as u64) as u32;
            b.notify(src, dst, id);
            if !seen[dst].contains(&id) {
                seen[dst].push(id);
            }
            arrivals[dst] += 1;
        }
        // Each receiver issues at most `arrivals` single-count any-waits over
        // every id it can receive: satisfiable regardless of arrival order
        // *iff* earlier waits consume exactly one arrival each.
        let mut expected_consumed = 0u64;
        for dst in 0..p {
            if seen[dst].is_empty() {
                continue;
            }
            let waits = 1 + rng.next_below(arrivals[dst]);
            for _ in 0..waits {
                b.wait_notify_any(dst, &seen[dst], 1);
            }
            expected_consumed += waits as u64;
        }
        let prog = b.build();
        prop_assert!(validate(&prog, p).is_ok());
        let report = engine(p).run(&prog).unwrap();
        prop_assert_eq!(report.total_notifications_received(), puts as u64);
        prop_assert_eq!(report.total_notifications_consumed(), expected_consumed);
        prop_assert!(report.total_notifications_consumed() <= report.total_notifications_received());
    }

    /// Max-min fair allocation invariants on random topologies and flow
    /// sets: **feasibility** (on every link the flow rates sum to at most
    /// the capacity) and **work conservation** (every flow crosses at least
    /// one saturated link — nobody could be sped up without slowing a flow
    /// that is no faster).
    #[test]
    fn max_min_allocation_is_feasible_and_work_conserving(
        nodes in 2usize..24,
        flows in 1usize..40,
        leaf_size in 1usize..8,
        oversub in 1u32..5,
        shape in 0u32..2,
        seed in 0u64..10_000,
    ) {
        use ec_collectives_suite::netsim::{Fabric, SplitMix64, Topology};
        let topology = if shape == 0 {
            Topology::single_switch(nodes, 1e9)
        } else {
            Topology::fat_tree(nodes, leaf_size, oversub as f64, 1e9)
        };
        let mut fabric = Fabric::new(topology).unwrap();
        let mut rng = SplitMix64::new(seed);
        let ids: Vec<_> = (0..flows)
            .map(|_| {
                let src = rng.next_below(nodes);
                let dst = (src + 1 + rng.next_below(nodes - 1)) % nodes;
                fabric.add_flow(0.0, src, dst, 1.0 + rng.next_unit_f64() * 1e6)
            })
            .collect();
        fabric.resolve(0.0);
        // Feasibility: no link is allocated beyond its capacity.
        for (l, link) in fabric.topology().links().iter().enumerate() {
            prop_assert!(
                fabric.link_allocated(l) <= link.capacity * (1.0 + 1e-9),
                "link {} over-allocated: {} > {}",
                link.label,
                fabric.link_allocated(l),
                link.capacity
            );
        }
        // Work conservation: every flow is bottlenecked at a saturated link.
        for &id in &ids {
            prop_assert!(fabric.rate(id) > 0.0, "max-min never starves a flow");
            prop_assert!(
                fabric.path_of(id).iter().any(|&l| fabric.link_saturated(l)),
                "flow {id} at rate {} crosses no saturated link",
                fabric.rate(id)
            );
        }
    }

    /// Fabric runs are deterministic: the same seed and scenario produce an
    /// identical report, makespan included, on a contended topology.
    #[test]
    fn fabric_simulation_is_deterministic_per_seed(
        p in 2usize..12,
        kb in 1u64..256,
        seed in 0u64..1000,
    ) {
        use ec_collectives_suite::netsim::{Scenario, Topology};
        let bytes = kb * 1024;
        let prog = alltoall_direct_schedule(p, bytes.min(64 * 1024));
        let run = || {
            Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::galileo_opa())
                .with_topology(Topology::fat_tree(p, 4, 4.0, 1e9))
                .with_scenario(Scenario::new(seed).with_link_jitter(0.2, 0.2))
                .run(&prog)
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.ranks, &b.ranks);
        prop_assert_eq!(&a.links, &b.links);
        prop_assert!(a.makespan() > 0.0 && a.makespan().is_finite());
    }

    /// The broadcast threshold changes time but never the number of tree
    /// edges: every non-root rank still receives exactly one message.
    #[test]
    fn broadcast_reaches_every_rank_regardless_of_threshold(p in 2usize..32, t in 0.05f64..1.0) {
        let prog = bcast_bst_schedule(p, 1_000_000, t);
        let receivers = prog
            .ranks
            .iter()
            .flat_map(|r| r.ops.iter())
            .filter_map(|op| match op {
                ec_collectives_suite::netsim::Op::PutNotify { dst, .. } => Some(*dst),
                _ => None,
            })
            .collect::<std::collections::HashSet<_>>();
        prop_assert_eq!(receivers.len(), p - 1);
    }
}

/// Strategy over the awkward rank counts the single-source variant library
/// must survive: all three are non-powers-of-two, so the Rabenseifner-style
/// variants exercise their fold-in/fold-out phases and the chunked variants
/// their ragged chunk arithmetic.
fn variant_library_procs() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [6, 12, 24][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every variant of the single-source library holds its two-backend
    /// contract at p ∈ {6, 12, 24}: the recorded schedule passes
    /// `ec_netsim::validate`, and the threaded backend's numeric result
    /// matches the straightforward reference within 1e-9.
    #[test]
    fn variant_library_schedules_validate_and_threaded_results_match(
        p in variant_library_procs(),
        n in 1usize..96,
        seed in 0u64..1000,
    ) {
        use ec_collectives_suite::baseline::variants;

        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|r| (0..n).map(|i| (((seed as usize + r * 29 + i * 11) % 21) as f64) - 10.0).collect())
            .collect();
        let expected_sum: Vec<f64> = (0..n).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();

        // Allreduce variants: exact element-wise sums everywhere.
        for variant in 0..2 {
            let inputs = inputs.clone();
            let out = MpiWorld::new(p).run(move |comm| {
                let mut data = inputs[comm.rank()].clone();
                match variant {
                    0 => variants::allreduce_rabenseifner(comm, &mut data).unwrap(),
                    _ => variants::allreduce_reduce_scatter_allgather(comm, &mut data).unwrap(),
                }
                data
            });
            for data in &out {
                for (a, b) in data.iter().zip(expected_sum.iter()) {
                    prop_assert!((a - b).abs() < 1e-9, "allreduce variant {} at p={}", variant, p);
                }
            }
        }

        // Reduce: the sum lands on the root only.
        let root = p - 1;
        let reduce_inputs = inputs.clone();
        let out = MpiWorld::new(p).run(move |comm| {
            variants::reduce_rsg(comm, &reduce_inputs[comm.rank()], root).unwrap()
        });
        for (a, b) in out[root].as_ref().unwrap().iter().zip(expected_sum.iter()) {
            prop_assert!((a - b).abs() < 1e-9, "rsg reduce at p={}", p);
        }

        // Bcasts: the root payload replicates everywhere, bit for bit.
        for variant in 0..2 {
            let payload = inputs[0].clone();
            let check = payload.clone();
            let out = MpiWorld::new(p).run(move |comm| {
                let mut data = if comm.rank() == 0 { payload.clone() } else { vec![0.0; n] };
                match variant {
                    0 => variants::bcast_scatter_allgather(comm, &mut data, 0).unwrap(),
                    _ => variants::bcast_pipelined_binomial(comm, &mut data, 0, 7).unwrap(),
                }
                data
            });
            for data in &out {
                prop_assert_eq!(data, &check, "bcast variant {} at p={}", variant, p);
            }
        }

        // AlltoAll: Bruck against the transpose definition.
        let block = 1 + (n % 4);
        let out = MpiWorld::new(p).run(move |comm| {
            let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 1000 + i) as f64).collect();
            variants::alltoall_bruck(comm, &send, block).unwrap()
        });
        for (dst, recv) in out.iter().enumerate() {
            for src in 0..p {
                for k in 0..block {
                    prop_assert_eq!(recv[src * block + k], (src * 1000 + dst * block + k) as f64);
                }
            }
        }

        // Every recorded schedule of the library validates at this p.
        let bytes = (n * 8) as u64;
        let block_bytes = (block * 8) as u64;
        let schedules = [
            variants::rabenseifner_allreduce_schedule(p, bytes),
            variants::rsag_allreduce_schedule(p, bytes),
            variants::bruck_alltoall_schedule(p, block_bytes),
            variants::pairwise_alltoall_schedule(p, block_bytes),
            variants::scatter_allgather_bcast_schedule(p, bytes),
            variants::pipelined_binomial_bcast_schedule(p, bytes, 56),
            mpi_bcast_binomial_schedule(p, bytes),
            mpi_reduce_binomial_schedule(p, bytes),
            variants::rsg_reduce_schedule(p, bytes),
        ];
        for prog in schedules {
            prop_assert!(validate(&prog, p).is_ok(), "schedule failed validation at p={}", p);
        }
    }
}

/// Simulated makespans are deterministic: repeated simulation of the same
/// program yields bit-identical reports (required for reproducible figures).
#[test]
fn simulation_is_deterministic_across_runs() {
    let e = engine(16);
    let prog = MpiAllreduceVariant::Rabenseifner.schedule(16, 123_456, 1);
    let a = e.run(&prog).unwrap();
    let b = e.run(&prog).unwrap();
    assert_eq!(a, b);
}
