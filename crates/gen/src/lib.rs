//! # equeue-gen — EQueue program generators
//!
//! The paper demonstrates the EQueue dialect with generators written
//! against the builder API (§VI-B): a systolic-array model swept over
//! dataflows and array shapes, and a Versal ACAP AI Engine FIR pipeline
//! built up through four design iterations (§VII). This crate implements
//! both, plus the Fig. 11 lowering-pipeline stage programs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod detailed;
mod fir;
mod pipeline;
pub mod scenarios;
mod systolic;

pub use detailed::generate_systolic_detailed;
pub use fir::{generate_fir, reference as fir_reference, FirCase, FirProgram, FirSpec};
pub use pipeline::{build_stage_program, Stage, StageProgram};
pub use systolic::{generate_systolic, SystolicMapping, SystolicProgram, SystolicSpec};
