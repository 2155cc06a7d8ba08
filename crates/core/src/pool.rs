//! Re-export of the process thread budget.
//!
//! The canonical definition lives in [`drp_net::pool`], the bottom of the
//! workspace dependency DAG. Everything above `drp-net` should import from
//! here (`drp_core::pool`); the path stays until the threaded ingest and
//! the budget itself are deleted.

pub use drp_net::pool::*;
