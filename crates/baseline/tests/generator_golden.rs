//! Drift-proof goldens for every `ec_baseline` schedule generator.
//!
//! Each generator is simulated on a grid of rank counts, placements and
//! payload sizes, and the full `RunReport::fingerprint` of every cell is
//! folded into one digest per generator.  The digests were captured from
//! the hand-written generators before the allreduce variants were rebuilt
//! as recordings of the single-source `TwoSided` bodies: a recording that
//! differs from its predecessor in anything but message tags (which the
//! fingerprint does not see) changes a digest here.

use ec_baseline::{
    mpi_alltoall_pairwise_schedule, mpi_bcast_binomial_schedule, mpi_bcast_default_schedule,
    mpi_reduce_binomial_schedule, mpi_reduce_default_schedule, variants, MpiAllreduceVariant,
};
use ec_netsim::{ClusterSpec, CostModel, Engine, Program, SplitMix64};

/// Rank counts: two, odd, non-power-of-two composite, prime, and the
/// power-of-two ladder.
const RANKS: [usize; 8] = [2, 3, 4, 6, 12, 13, 16, 32];

/// Ranks per node.  Where `p` is not a multiple, the cell runs one rank per
/// node while the topology-aware variants still receive the requested
/// `ppn`, pinning their irregular-placement fallback.
const PPN: [usize; 2] = [1, 4];

/// Payloads: one double, a page, the small-message sweep size of Figures
/// 8–10 and the large one (above every size-adaptive threshold).
const BYTES: [u64; 4] = [8, 4096, 80_000, 8_000_000];

/// Fold the fingerprints of `generator` over the whole grid.
fn digest(generator: impl Fn(usize, u64, usize) -> Program) -> u64 {
    let mut digest = 0u64;
    for p in RANKS {
        for ppn in PPN {
            let cluster = if p.is_multiple_of(ppn) {
                ClusterSpec::homogeneous(p / ppn, ppn)
            } else {
                ClusterSpec::homogeneous(p, 1)
            };
            let engine = Engine::new(cluster, CostModel::skylake_fdr());
            for bytes in BYTES {
                let report = engine
                    .run(&generator(p, bytes, ppn))
                    .unwrap_or_else(|e| panic!("p={p} ppn={ppn} bytes={bytes}: {e}"));
                digest = SplitMix64::mix(digest ^ report.fingerprint());
            }
        }
    }
    digest
}

/// Golden digests of the twelve allreduce variants, in legend order.
const ALLREDUCE_GOLDEN: [(&str, u64); 12] = [
    ("mpi1-recursive-doubling", 0xe2d6_5ffe_9abe_19de),
    ("mpi2-rabenseifner", 0xe744_76f6_d695_9bf3),
    ("mpi3-reduce-bcast", 0x8b4e_a02a_57eb_b4cb),
    ("mpi4-topo-reduce-bcast", 0xc504_838a_6f89_ef2a),
    ("mpi5-binomial-gather-scatter", 0xc0bb_d11f_8e12_bc11),
    ("mpi6-topo-gather-scatter", 0x7748_b901_9c35_3dfa),
    ("mpi7-shumilin-ring", 0xb6e0_812b_7cb5_0c1a),
    ("mpi8-ring", 0xffc2_a003_cb17_e8cd),
    ("mpi9-knomial", 0xa269_a147_60c5_d03c),
    ("mpi10-shm-flat", 0x1c50_2e57_2a28_87e0),
    ("mpi11-shm-knomial", 0xce3b_c5f4_02b5_ba2f),
    ("mpi12-shm-knary", 0x9940_b7cc_02ef_1b3e),
];

#[test]
fn allreduce_variants_reproduce_their_golden_digests() {
    let mut drifted = Vec::new();
    for (variant, (label, golden)) in MpiAllreduceVariant::all().into_iter().zip(ALLREDUCE_GOLDEN) {
        assert_eq!(variant.label(), label);
        let got = digest(|p, bytes, ppn| variant.schedule(p, bytes, ppn));
        if got != golden {
            drifted.push(format!("{label}: {got:#018x} (golden {golden:#018x})"));
        }
    }
    assert!(drifted.is_empty(), "drifted digests:\n{}", drifted.join("\n"));
}

#[test]
fn rooted_and_alltoall_generators_reproduce_their_golden_digests() {
    type Generator = fn(usize, u64) -> Program;
    let generators: [(&str, Generator, u64); 6] = [
        ("mpi_bcast_binomial_schedule", mpi_bcast_binomial_schedule, 0x88ce_0c2d_9603_0d6f),
        ("mpi_bcast_default_schedule", mpi_bcast_default_schedule, 0xe385_6061_f219_f1b0),
        ("mpi_reduce_binomial_schedule", mpi_reduce_binomial_schedule, 0x177b_130f_79a9_192d),
        ("mpi_reduce_default_schedule", mpi_reduce_default_schedule, 0xa9dd_40e4_a425_ce6d),
        ("mpi_alltoall_pairwise_schedule", mpi_alltoall_pairwise_schedule, 0x33b2_b233_8d12_9533),
        ("variants::pairwise_alltoall_schedule", variants::pairwise_alltoall_schedule, 0x5c62_96c9_0039_17ff),
    ];
    let mut drifted = Vec::new();
    for (label, generator, golden) in generators {
        let got = digest(|p, bytes, _| generator(p, bytes));
        if got != golden {
            drifted.push(format!("{label}: {got:#018x} (golden {golden:#018x})"));
        }
    }
    assert!(drifted.is_empty(), "drifted digests:\n{}", drifted.join("\n"));
}
