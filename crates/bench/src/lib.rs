//! The renderer that turns the paper's figure grids into its tables.
//!
//! Every grid — the paper's figures and the beyond-the-paper comparisons —
//! is defined only by its document checked in under `scenarios/`; edit
//! and review a grid there. `scenario_run` executes a grid and writes its
//! reports as JSONL; the `figures` binary renders every table from the
//! three figure grids' JSONL through [`figures`].

#![warn(missing_docs)]

pub mod figures;
