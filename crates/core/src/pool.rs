//! Re-export of the persistent worker pool.
//!
//! The canonical implementation lives in [`drp_net::pool`] — the bottom
//! of the workspace dependency DAG — so the parallel all-pairs
//! shortest-path kernel can use it without a dependency cycle. Everything
//! above `drp-net` should import from here (`drp_core::pool`).

pub use drp_net::pool::*;
