//! Performance ledger for the dbac workspace (see `perf/README.md`).
pub mod alloc;
pub mod compare;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod measure;
pub mod spanned;
pub mod stats;
pub mod traced;
pub mod workloads;
