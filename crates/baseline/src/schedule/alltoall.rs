//! Schedule for the vendor `MPI_Alltoall` (pairwise exchange).

use ec_netsim::{Program, ProgramBuilder};

/// Pairwise-exchange `MPI_Alltoall`: `P - 1` rounds, in round `k` every rank
/// sends its block to `(rank + k) % P` and receives from `(rank - k) % P`
/// (Figure 13's `mpi` curves).
///
/// Hand-priced rather than a recording of
/// [`crate::variants::pairwise_alltoall`]: it omits the local self-block
/// copy that body (the tuner's `ss-pairwise`) prices, and both are pinned.
pub fn mpi_alltoall_pairwise_schedule(ranks: usize, block_bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    if ranks <= 1 {
        return b.build();
    }
    for rank in 0..ranks {
        for step in 1..ranks {
            let dst = (rank + step) % ranks;
            let src = (rank + ranks - step) % ranks;
            let tag = step as u32;
            b.isend(rank, dst, block_bytes, tag);
            b.recv(rank, src, block_bytes, tag);
        }
        b.wait_all_sends(rank);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_collectives::schedule::alltoall_direct_schedule;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn traffic_matches_p_times_p_minus_1_blocks() {
        let p = 16u64;
        let block = 8192u64;
        let prog = mpi_alltoall_pairwise_schedule(p as usize, block);
        assert_eq!(prog.total_wire_bytes(), p * (p - 1) * block);
    }

    #[test]
    fn simulates_with_four_ranks_per_node() {
        let nodes = 8;
        let ppn = 4;
        let p = nodes * ppn;
        let prog = mpi_alltoall_pairwise_schedule(p, 32 * 1024);
        validate(&prog, p).unwrap();
        let t = Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::galileo_opa()).makespan(&prog).unwrap();
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn round_structure_serializes_rounds() {
        // The pairwise exchange must be slower than the one-sided direct
        // algorithm because every round waits for the received block.
        let p = 16;
        let block = 32 * 1024;
        let e = Engine::new(ClusterSpec::homogeneous(4, 4), CostModel::galileo_opa());
        let mpi = e.makespan(&mpi_alltoall_pairwise_schedule(p, block)).unwrap();
        let gaspi = e.makespan(&alltoall_direct_schedule(p, block)).unwrap();
        assert!(mpi > gaspi, "pairwise MPI ({mpi}) must be slower than the direct GASPI alltoall ({gaspi})");
    }
}
