//! End-to-end benchmark of the `bfd` disclosure daemon.
//!
//! One process generates a seeded, closed-loop request stream
//! ([`gen`]), sends it over one connection to a release `bfd` child
//! ([`wire`]) and checks every reply against ground truth ([`check`]).
//! The traced mode adds an in-process replay of the same stream with
//! spans around each layer's public calls ([`replay`], [`trace`]).
//! [`run`] ties these together and computes the reported metrics; see
//! `perfbench/README.md` for the workloads and what each metric should
//! move.

pub mod affinity;
pub mod check;
pub mod gen;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod wire;
