//! Cost-model schedules of the MPI-like baseline collectives.
//!
//! Every generator emits an `ec-netsim` program using **two-sided**
//! operations (`Send`/`Isend`/`Recv`), so the simulator charges them the
//! matching overheads, the progress-engine bandwidth penalty and — for large
//! messages — the rendezvous handshake that the one-sided GASPI schedules
//! avoid.  This is what the `mpi*` curves of Figures 8–13 are generated
//! from.
//!
//! Most generators record a [`crate::variants`] body, the same code the
//! threaded runtime executes: eleven of the twelve allreduce variants and
//! the binomial bcast and reduce.  Four models are still priced by hand,
//! each for a reason given on it: `mpi2` Rabenseifner
//! ([`MpiAllreduceVariant::Rabenseifner`]), the large-message paths of
//! [`mpi_bcast_default_schedule`] and [`mpi_reduce_default_schedule`], and
//! [`mpi_alltoall_pairwise_schedule`].

pub mod allreduce;
pub mod alltoall;
pub mod bcast;
pub mod reduce;
pub mod trees;

pub use allreduce::MpiAllreduceVariant;
pub use alltoall::mpi_alltoall_pairwise_schedule;
pub use bcast::{mpi_bcast_binomial_schedule, mpi_bcast_default_schedule};
pub use reduce::{mpi_reduce_binomial_schedule, mpi_reduce_default_schedule};

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn every_baseline_schedule_validates_and_simulates() {
        let p = 16;
        let bytes = 80_000;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let mut programs = vec![
            mpi_bcast_binomial_schedule(p, bytes),
            mpi_bcast_default_schedule(p, bytes),
            mpi_reduce_binomial_schedule(p, bytes),
            mpi_reduce_default_schedule(p, bytes),
            mpi_alltoall_pairwise_schedule(p, 4096),
        ];
        for variant in MpiAllreduceVariant::all() {
            programs.push(variant.schedule(p, bytes, 1));
        }
        for prog in programs {
            validate(&prog, p).unwrap();
            let t = e.makespan(&prog).unwrap();
            assert!(t > 0.0 && t < 1.0, "implausible makespan {t}");
        }
    }

    #[test]
    fn baseline_schedules_also_work_for_non_power_of_two() {
        let p = 12;
        let bytes = 10_000;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        for variant in MpiAllreduceVariant::all() {
            let prog = variant.schedule(p, bytes, 1);
            validate(&prog, p).unwrap();
            assert!(e.makespan(&prog).unwrap() > 0.0, "{variant:?} failed for p={p}");
        }
    }
}
