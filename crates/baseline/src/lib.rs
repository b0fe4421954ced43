//! # ec-baseline — MPI-like baseline collectives
//!
//! The paper evaluates its GASPI collectives against the collectives of a
//! vendor MPI library (Intel MPI): the default and binomial variants of
//! `MPI_Bcast` and `MPI_Reduce`, twelve `MPI_Allreduce` algorithm variants
//! and the default `MPI_Alltoall`.  This crate implements those baselines
//! from scratch so the comparison can be reproduced:
//!
//! * a **single-source algorithm library** ([`twosided`] + [`variants`]):
//!   every baseline algorithm is one body written against the
//!   [`twosided::TwoSided`] trait and executed both on a small threaded
//!   two-sided runtime ([`comm`], blocking send/receive with tag matching)
//!   and as a recorded simulator schedule.  That covers eleven of the twelve
//!   allreduce variants ([`MpiAllreduceVariant`]), the binomial bcast and
//!   reduce, and the extra candidates the `ec_bench` tuner auto-selects
//!   from (Rabenseifner, ring reduce-scatter+allgather, Bruck and pairwise
//!   AlltoAll, van de Geijn and pipelined-binomial Bcast,
//!   reduce-scatter+gather Reduce);
//! * **schedule generators** ([`schedule`]) that express every baseline
//!   algorithm as an `ec-netsim` program with two-sided semantics
//!   (eager/rendezvous protocol, progress-engine bandwidth penalty,
//!   per-message matching overhead), which is what the figure-regeneration
//!   benches simulate.  Most record a [`variants`] body; the four models
//!   still priced by hand are listed in [`schedule`];
//! * **independent threaded references** ([`collectives`]) written directly
//!   on [`comm`], the oracles the single-source bodies and the GASPI
//!   collectives are cross-checked against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod schedule;
pub mod twosided;
pub mod variants;

pub use collectives::{
    allreduce_recursive_doubling, allreduce_ring, alltoall_pairwise, bcast_binomial, reduce_binomial,
};
pub use comm::{MpiComm, MpiError, MpiWorld};
pub use schedule::allreduce::MpiAllreduceVariant;
pub use schedule::alltoall::mpi_alltoall_pairwise_schedule;
pub use schedule::bcast::{mpi_bcast_binomial_schedule, mpi_bcast_default_schedule};
pub use schedule::reduce::{mpi_reduce_binomial_schedule, mpi_reduce_default_schedule};
pub use twosided::{RecordingTwoSided, ThreadedTwoSided, TwoSided};
pub use variants::{
    allreduce_rabenseifner, allreduce_reduce_scatter_allgather, alltoall_bruck, bcast_pipelined_binomial,
    bcast_scatter_allgather, reduce_rsg,
};
