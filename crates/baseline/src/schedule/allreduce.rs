//! Schedules for the twelve `MPI_Allreduce` algorithm variants the paper
//! compares against in Figures 11–12.
//!
//! The variant numbering and naming follows the caption of Figure 11:
//! `mpi1` recursive doubling, `mpi2` Rabenseifner, `mpi3` reduce + bcast,
//! `mpi4` topology-aware reduce + bcast, `mpi5` binomial gather + scatter,
//! `mpi6` topology-aware binomial gather + scatter, `mpi7` Shumilin's ring,
//! `mpi8` ring, `mpi9` knomial, `mpi10` topology-aware SHM-based flat,
//! `mpi11` topology-aware SHM-based knomial, `mpi12` topology-aware
//! SHM-based knary.
//!
//! Every variant but `mpi2` is one [`crate::variants`] body:
//! [`MpiAllreduceVariant::run`] executes it on any [`TwoSided`] backend (the
//! threaded runtime through [`crate::ThreadedTwoSided`]) and
//! [`MpiAllreduceVariant::schedule`] records it.

use ec_netsim::{Program, ProgramBuilder};

use super::trees::{binomial, flat, knary, knomial};
use crate::comm::Result;
use crate::twosided::{record, TwoSided};
use crate::variants::{
    gather_allreduce, hierarchical_allreduce, prev_power_of_two, rabenseifner_allreduce, recursive_doubling_allreduce,
    reduce_scatter_allgather_allreduce, tree_allreduce,
};

/// The twelve Intel-MPI Allreduce algorithm variants of Figures 11–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiAllreduceVariant {
    /// `mpi1`: recursive doubling.
    RecursiveDoubling,
    /// `mpi2`: Rabenseifner (reduce-scatter + allgather).
    ///
    /// The one variant whose schedule is still priced by hand rather than
    /// recorded from [`rabenseifner_allreduce`], because its pricing of tiny
    /// payloads is pinned by the benchmark.  That pricing is a known defect:
    /// below `P2` bytes (`P2` the largest power of two `<= P`) every window
    /// is clamped to 1 byte, so the allgather doubles from 1 byte up to
    /// `P2 / 2` bytes instead of moving the payload.  At `P = 128` and 8 B
    /// each rank sends `[4, 2, 1, 1, 1, 1, 1 | 1, 2, 4, ..., 64]` bytes,
    /// 17 664 B in all against 2 032 B for the recorded body.
    Rabenseifner,
    /// `mpi3`: binomial reduce followed by binomial broadcast.
    ReduceBcast,
    /// `mpi4`: topology-aware reduce followed by broadcast (node leaders
    /// reduce intra-node first).
    TopoReduceBcast,
    /// `mpi5`: binomial gather of all vectors to the root + broadcast.
    BinomialGatherScatter,
    /// `mpi6`: topology-aware binomial gather + broadcast.
    TopoGatherScatter,
    /// `mpi7`: Shumilin's ring (pipelined reduce-scatter + allgather).
    ShumilinRing,
    /// `mpi8`: ring with phase synchronization.
    Ring,
    /// `mpi9`: knomial (radix 4) reduce + broadcast.
    Knomial,
    /// `mpi10`: topology-aware SHM-based flat tree.
    TopoShmFlat,
    /// `mpi11`: topology-aware SHM-based knomial (radix 8).
    TopoShmKnomial,
    /// `mpi12`: topology-aware SHM-based knary (arity 3).
    TopoShmKnary,
}

impl MpiAllreduceVariant {
    /// All twelve variants in the order of the paper's legend.
    pub fn all() -> [MpiAllreduceVariant; 12] {
        use MpiAllreduceVariant::*;
        [
            RecursiveDoubling,
            Rabenseifner,
            ReduceBcast,
            TopoReduceBcast,
            BinomialGatherScatter,
            TopoGatherScatter,
            ShumilinRing,
            Ring,
            Knomial,
            TopoShmFlat,
            TopoShmKnomial,
            TopoShmKnary,
        ]
    }

    /// The legend label used in the paper's plots (`mpi1` .. `mpi12`).
    pub fn label(self) -> &'static str {
        use MpiAllreduceVariant::*;
        match self {
            RecursiveDoubling => "mpi1-recursive-doubling",
            Rabenseifner => "mpi2-rabenseifner",
            ReduceBcast => "mpi3-reduce-bcast",
            TopoReduceBcast => "mpi4-topo-reduce-bcast",
            BinomialGatherScatter => "mpi5-binomial-gather-scatter",
            TopoGatherScatter => "mpi6-topo-gather-scatter",
            ShumilinRing => "mpi7-shumilin-ring",
            Ring => "mpi8-ring",
            Knomial => "mpi9-knomial",
            TopoShmFlat => "mpi10-shm-flat",
            TopoShmKnomial => "mpi11-shm-knomial",
            TopoShmKnary => "mpi12-shm-knary",
        }
    }

    /// Run this variant's body on `t` over the `n`-element payload at offset
    /// 0, with `ranks_per_node` ranks sharing each node (used by the
    /// topology-aware variants).  The gather variants stage the gathered
    /// vectors behind the payload: their working buffer holds `P * n`
    /// elements.  `mpi2` runs [`rabenseifner_allreduce`], the algorithm its
    /// hand-priced schedule models.
    pub fn run<T: TwoSided>(self, t: &mut T, n: usize, ranks_per_node: usize) -> Result<()> {
        use MpiAllreduceVariant::*;
        let ppn = ranks_per_node;
        match self {
            RecursiveDoubling => recursive_doubling_allreduce(t, n),
            Rabenseifner => rabenseifner_allreduce(t, n),
            ReduceBcast => tree_allreduce(t, n, binomial),
            TopoReduceBcast => hierarchical_allreduce(t, n, ppn, |w| tree_allreduce(w, n, binomial)),
            BinomialGatherScatter => gather_allreduce(t, n),
            TopoGatherScatter => hierarchical_allreduce(t, n, ppn, |w| gather_allreduce(w, n)),
            ShumilinRing => reduce_scatter_allgather_allreduce(t, n, false),
            Ring => reduce_scatter_allgather_allreduce(t, n, true),
            Knomial => tree_allreduce(t, n, |r, p| knomial(r, p, 4)),
            TopoShmFlat => hierarchical_allreduce(t, n, ppn, |w| tree_allreduce(w, n, flat)),
            TopoShmKnomial => hierarchical_allreduce(t, n, ppn, |w| tree_allreduce(w, n, |r, p| knomial(r, p, 8))),
            TopoShmKnary => hierarchical_allreduce(t, n, ppn, |w| tree_allreduce(w, n, |r, p| knary(r, p, 3))),
        }
    }

    /// Build this variant's schedule for `ranks` ranks reducing `total_bytes`
    /// bytes, with `ranks_per_node` ranks sharing each node (used by the
    /// topology-aware variants).
    ///
    /// The body is recorded over byte-granular elements, except that the
    /// rings record `P` elements of `total_bytes / P` bytes each, pricing
    /// every ring step at one uniform chunk.
    pub fn schedule(self, ranks: usize, total_bytes: u64, ranks_per_node: usize) -> Program {
        use MpiAllreduceVariant::*;
        let bytes = total_bytes.max(1);
        match self {
            Rabenseifner => rabenseifner(ranks, bytes),
            ShumilinRing | Ring => {
                let chunk = (bytes / ranks.max(1) as u64).max(1);
                record(ranks, chunk, |t| self.run(t, ranks, ranks_per_node))
            }
            _ => record(ranks, 1, |t| self.run(t, bytes as usize, ranks_per_node)),
        }
    }
}

/// `mpi2`: Rabenseifner — recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather over the largest power-of-two sub-world,
/// with the surplus ranks folded in before and out after.  Hand-priced, and
/// overpricing tiny payloads: see [`MpiAllreduceVariant::Rabenseifner`].
fn rabenseifner(ranks: usize, bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    if ranks <= 1 {
        return b.build();
    }
    let p2 = prev_power_of_two(ranks);
    let extras = ranks - p2;
    // Pre-fold: ranks p2..ranks hand their contribution to ranks 0..extras.
    for i in 0..extras {
        let src = p2 + i;
        b.send(src, i, bytes, 90);
        b.recv(i, src, bytes, 90);
        b.reduce(i, bytes);
    }
    let d = p2.trailing_zeros();
    // Reduce-scatter by recursive halving.
    for rank in 0..p2 {
        let mut window = bytes;
        for k in 0..d {
            let distance = p2 >> (k + 1);
            let partner = rank ^ distance;
            window = (window / 2).max(1);
            let tag = 10 + k;
            b.isend(rank, partner, window, tag);
            b.recv(rank, partner, window, tag);
            b.reduce(rank, window);
        }
        b.wait_all_sends(rank);
    }
    // Allgather by recursive doubling (windows grow back).
    for rank in 0..p2 {
        let mut window = (bytes / p2 as u64).max(1);
        for k in 0..d {
            let distance = 1usize << k;
            let partner = rank ^ distance;
            let tag = 30 + k;
            b.isend(rank, partner, window, tag);
            b.recv(rank, partner, window, tag);
            window *= 2;
        }
        b.wait_all_sends(rank);
    }
    // Post-fold: the folded ranks receive the final result.
    for i in 0..extras {
        let dst = p2 + i;
        b.send(i, dst, bytes, 91);
        b.recv(dst, i, bytes, 91);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    fn makespan(variant: MpiAllreduceVariant, p: usize, bytes: u64) -> f64 {
        let prog = variant.schedule(p, bytes, 1);
        validate(&prog, p).unwrap();
        Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr()).makespan(&prog).unwrap()
    }

    #[test]
    fn labels_are_unique_and_follow_the_paper_numbering() {
        let labels: Vec<_> = MpiAllreduceVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 12);
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 12);
        assert_eq!(MpiAllreduceVariant::RecursiveDoubling.label(), "mpi1-recursive-doubling");
        assert_eq!(MpiAllreduceVariant::TopoShmKnary.label(), "mpi12-shm-knary");
    }

    #[test]
    fn recursive_doubling_beats_ring_for_small_messages() {
        let small = 800; // 100 doubles
        let rd = makespan(MpiAllreduceVariant::RecursiveDoubling, 32, small);
        let ring = makespan(MpiAllreduceVariant::Ring, 32, small);
        assert!(rd < ring, "recursive doubling ({rd}) should win at small sizes vs ring ({ring})");
    }

    #[test]
    fn ring_variants_beat_gather_based_variants_for_large_messages() {
        let large = 8_000_000;
        let shumilin = makespan(MpiAllreduceVariant::ShumilinRing, 32, large);
        let gather = makespan(MpiAllreduceVariant::BinomialGatherScatter, 32, large);
        let flat = makespan(MpiAllreduceVariant::TopoShmFlat, 32, large);
        assert!(shumilin < gather);
        assert!(shumilin < flat);
    }

    #[test]
    fn shumilin_is_at_least_as_fast_as_the_synchronized_ring() {
        let large = 8_000_000;
        let shumilin = makespan(MpiAllreduceVariant::ShumilinRing, 32, large);
        let ring = makespan(MpiAllreduceVariant::Ring, 32, large);
        assert!(shumilin <= ring * 1.001, "Shumilin ({shumilin}) must not lose to the barrier ring ({ring})");
    }

    #[test]
    fn rabenseifner_moves_less_data_than_recursive_doubling() {
        let p = 16;
        let bytes = 1_000_000;
        let rd = MpiAllreduceVariant::RecursiveDoubling.schedule(p, bytes, 1).total_wire_bytes();
        let rab = MpiAllreduceVariant::Rabenseifner.schedule(p, bytes, 1).total_wire_bytes();
        assert!(rab < rd, "Rabenseifner ({rab} B) must move less than recursive doubling ({rd} B)");
    }

    #[test]
    fn hierarchical_variants_differ_from_flat_ones_when_nodes_share_ranks() {
        let p = 16;
        let ppn = 4;
        let bytes = 100_000;
        let flat_prog = MpiAllreduceVariant::ReduceBcast.schedule(p, bytes, 1);
        let hier_prog = MpiAllreduceVariant::TopoReduceBcast.schedule(p, bytes, ppn);
        validate(&hier_prog, p).unwrap();
        // Same total traffic (P-1 vectors each way) but a different structure:
        // the hierarchical variant funnels inter-node traffic through leaders.
        assert_ne!(flat_prog, hier_prog);
        let e = Engine::new(ClusterSpec::homogeneous(p / ppn, ppn), CostModel::skylake_fdr());
        assert!(e.makespan(&hier_prog).unwrap() > 0.0);
    }

    #[test]
    fn every_variant_sums_exactly_on_the_threaded_runtime() {
        use crate::comm::MpiWorld;
        use crate::twosided::ThreadedTwoSided;
        let n = 37;
        let input = |rank: usize| (0..n).map(|i| ((rank * 31 + i * 7) % 17) as f64 - 8.0).collect::<Vec<_>>();
        for p in [2usize, 3, 6, 8, 12, 16] {
            let want: Vec<f64> = (0..n).map(|i| (0..p).map(|r| input(r)[i]).sum()).collect();
            for ppn in [1usize, 4] {
                for variant in MpiAllreduceVariant::all() {
                    let out = MpiWorld::new(p).run(|comm| {
                        // Room for the gather variants' staged vectors.
                        let mut buf = input(comm.rank());
                        buf.resize(p * n, 0.0);
                        variant.run(&mut ThreadedTwoSided::new(comm, &mut buf), n, ppn).unwrap();
                        buf.truncate(n);
                        buf
                    });
                    for (rank, data) in out.iter().enumerate() {
                        for (i, (a, b)) in data.iter().zip(&want).enumerate() {
                            assert!(
                                (a - b).abs() < 1e-9,
                                "{variant:?} p={p} ppn={ppn} rank {rank} elem {i}: {a} != {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn leaders_cannot_enter_a_world_barrier() {
        let prog = record(4, 1, |t| {
            let leader = t.rank() % 2 == 0;
            let result = hierarchical_allreduce(t, 1, 2, |w| w.barrier());
            assert_eq!(leader, matches!(result, Err(crate::comm::MpiError::Unsupported(_))));
            Ok(())
        });
        assert!(prog.total_ops() > 0, "the intra-node phase still records");
    }

    #[test]
    fn rabenseifner_overprices_payloads_below_the_power_of_two_world() {
        // Known defect of the pinned hand model: windows clamp to 1 byte, so
        // the allgather doubles up to P2 / 2 bytes.
        let hand = MpiAllreduceVariant::Rabenseifner.schedule(128, 8, 4).total_wire_bytes();
        let body = crate::variants::rabenseifner_allreduce_schedule(128, 8).total_wire_bytes();
        assert_eq!((hand, body), (17_664, 2_032));
    }

    #[test]
    fn every_variant_handles_two_ranks() {
        for v in MpiAllreduceVariant::all() {
            let prog = v.schedule(2, 1000, 1);
            validate(&prog, 2).unwrap();
            let t = Engine::new(ClusterSpec::homogeneous(2, 1), CostModel::test_model()).makespan(&prog).unwrap();
            assert!(t >= 0.0, "{v:?}");
        }
    }
}
