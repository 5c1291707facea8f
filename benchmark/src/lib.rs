//! The repository's performance benchmark as a library: the `benchmark`
//! binary (`src/main.rs`) is a thin command line over these modules, and
//! the smoke test in `tests/` reads the metric registry and the JSON
//! reader from here.

pub mod compare;
pub mod json;
pub mod measure;
pub mod probes;
pub mod runner;
pub mod spec;
pub mod timed;
pub mod units;
