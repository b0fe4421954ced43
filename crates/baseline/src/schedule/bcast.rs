//! Schedules for `MPI_Bcast`: the binomial variant and the "default"
//! (size-adaptive) variant of a vendor library.

use ec_netsim::{Program, ProgramBuilder};

use super::trees::{binomial, subtree_size};
use crate::twosided::record;
use crate::variants::binomial_bcast;

/// Message size (bytes) above which the default broadcast switches from the
/// binomial tree to the scatter + ring-allgather (van de Geijn) algorithm,
/// mirroring what vendor libraries do for large payloads.
const LARGE_BCAST_THRESHOLD: u64 = 64 * 1024;

/// Binomial-tree `MPI_Bcast` (the `mpi-bin` curve of Figure 8): the
/// [`binomial_bcast`] body recorded over byte-granular elements.
pub fn mpi_bcast_binomial_schedule(ranks: usize, total_bytes: u64) -> Program {
    record(ranks, 1, |t| binomial_bcast(t, total_bytes as usize, 0))
}

/// Size-adaptive "default" `MPI_Bcast` (the `mpi-def` curve of Figure 8):
/// binomial tree for small payloads, scatter + ring allgather for large ones.
pub fn mpi_bcast_default_schedule(ranks: usize, total_bytes: u64) -> Program {
    if total_bytes <= LARGE_BCAST_THRESHOLD || ranks <= 2 {
        return mpi_bcast_binomial_schedule(ranks, total_bytes);
    }
    scatter_allgather_bcast(ranks, total_bytes)
}

/// Van de Geijn broadcast: binomial scatter of 1/P chunks from the root,
/// followed by a ring allgather.
///
/// Hand-priced rather than recorded: it scatters down the binomial tree's
/// non-contiguous subtrees, where the single-source
/// [`crate::variants::scatter_allgather_bcast`] walks a contiguous halving
/// tree, so a recording would move the `mpi-def` cells of Figure 8.
fn scatter_allgather_bcast(ranks: usize, total_bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    let chunk = (total_bytes / ranks as u64).max(1);
    // Phase 1: binomial scatter.  A rank forwards to each child the portion
    // of the payload destined for the child's subtree.
    for rank in 0..ranks {
        let (parent, children) = binomial(rank, ranks);
        if let Some(parent) = parent {
            // Receives its own chunk plus everything for its subtree.
            let subtree = subtree_size(rank, ranks);
            b.recv(rank, parent, chunk * subtree as u64, 1);
        }
        for child in children {
            let subtree = subtree_size(child, ranks);
            b.send(rank, child, chunk * subtree as u64, 1);
        }
    }
    // Phase 2: ring allgather of the P chunks.
    for rank in 0..ranks {
        let next = (rank + 1) % ranks;
        let prev = (rank + ranks - 1) % ranks;
        for step in 0..ranks - 1 {
            b.isend(rank, next, chunk, 100 + step as u32);
            b.recv(rank, prev, chunk, 100 + step as u32);
        }
        b.wait_all_sends(rank);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn binomial_bcast_sends_p_minus_1_messages() {
        let p = 16;
        let prog = mpi_bcast_binomial_schedule(p, 1000);
        validate(&prog, p).unwrap();
        assert_eq!(prog.total_wire_bytes(), (p as u64 - 1) * 1000);
    }

    #[test]
    fn default_bcast_switches_algorithm_with_size() {
        let p = 8;
        let small = mpi_bcast_default_schedule(p, 1000);
        let large = mpi_bcast_default_schedule(p, 8_000_000);
        // Small payloads use the binomial tree (P-1 messages)...
        assert_eq!(small.total_wire_bytes(), 7 * 1000);
        assert_eq!(small.total_ops(), mpi_bcast_binomial_schedule(p, 1000).total_ops());
        // ...large payloads switch to scatter + ring allgather, which issues
        // many more (smaller) messages than the binomial tree.
        assert!(large.total_ops() > mpi_bcast_binomial_schedule(p, 8_000_000).total_ops());
    }

    #[test]
    fn subtree_sizes_sum_to_world_size() {
        for p in [1usize, 2, 7, 8, 16, 23] {
            assert_eq!(subtree_size(0, p), p);
        }
    }

    #[test]
    fn default_bcast_is_faster_than_binomial_for_large_payloads() {
        let p = 32;
        let bytes = 8_000_000;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let t_bin = e.makespan(&mpi_bcast_binomial_schedule(p, bytes)).unwrap();
        let t_def = e.makespan(&mpi_bcast_default_schedule(p, bytes)).unwrap();
        assert!(t_def < t_bin, "scatter+allgather ({t_def}) must beat binomial ({t_bin}) for large payloads");
    }

    #[test]
    fn schedules_simulate_cleanly() {
        let p = 12;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        for prog in [
            mpi_bcast_binomial_schedule(p, 500),
            mpi_bcast_default_schedule(p, 500),
            mpi_bcast_default_schedule(p, 1_000_000),
        ] {
            validate(&prog, p).unwrap();
            assert!(e.makespan(&prog).unwrap() > 0.0);
        }
    }
}
