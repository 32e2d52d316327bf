//! Re-export of the shared work-stealing pool.
//!
//! The pool started here and moved to `gscalar-pool`; this module
//! keeps the `gscalar_sweep::pool` paths working.

pub use gscalar_pool::{resolve_threads, run_indexed};
