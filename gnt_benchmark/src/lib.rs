//! The end-to-end benchmark of `gnt-lint` and the GIVE-N-TAKE solver.
//!
//! The `gnt-benchmark` binary runs five seeded workloads ([`workloads`])
//! over the repository's public entry points, prints every metric by name
//! with its unit, and checks every output it times. A traced run
//! ([`trace`]) times each layer on the output of the layer before and
//! derives per-layer self times. End-to-end timings are divided by the
//! host's speed at the moment they were taken, which a [`yardstick`]
//! measures between operations. See `BENCHMARK.md` beside this crate.

pub mod gen;
pub mod host;
pub mod part;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;
