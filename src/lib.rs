//! # GIVE-N-TAKE — a balanced code placement framework
//!
//! A from-scratch reproduction of *GIVE-N-TAKE — A Balanced Code
//! Placement Framework* (Reinhard von Hanxleden and Ken Kennedy, PLDI
//! 1994): a generalization of partial redundancy elimination that treats
//! code placement as a producer–consumer problem and computes **balanced
//! pairs** of placements — an EAGER solution (production as far from the
//! consumers as legal) and a LAZY solution (as close as legal) that match
//! one-to-one on every execution path. The gap between them is a
//! *production region* usable for latency hiding, which is how the
//! framework splits distributed-memory communication into `Send`/`Recv`
//! pairs.
//!
//! This crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`ir`] | `gnt-ir` | MiniF, the Fortran-style mini language |
//! | [`cfg`](mod@cfg) | `gnt-cfg` | CFGs, dominators, Tarjan intervals, the interval flow graph |
//! | [`dataflow`] | `gnt-dataflow` | bitsets, universes, generic iterative solver |
//! | [`core`] | `gnt-core` | **the GIVE-N-TAKE framework**: equations, solver, verifiers |
//! | [`sections`] | `gnt-sections` | symbolic array sections and value numbering |
//! | [`comm`] | `gnt-comm` | READ/WRITE communication generation |
//! | [`pre`] | `gnt-pre` | Morel–Renvoise and lazy code motion baselines |
//! | [`sim`] | `gnt-sim` | α+βn distributed-memory cost simulator |
//! | [`analyze`] | `gnt-analyze` | placement linter, GNT0xx diagnostics, `gnt-lint` CLI |
//!
//! # Quickstart
//!
//! ```
//! use give_n_take::comm::{analyze, generate, render, CommConfig};
//!
//! // The paper's Figure 1: a gather x(a(·)) consumed in both branches.
//! let program = give_n_take::ir::parse(
//!     "do i = 1, N\n  y(i) = ...\nenddo\n\
//!      if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
//!      else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
//! )?;
//! let plan = generate(analyze(&program, &CommConfig::distributed(&["x"]))?)?;
//! // One vectorized send at the very top, one receive per branch —
//! // the paper's Figure 2.
//! println!("{}", render(&program, &plan));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use gnt_analyze as analyze;
pub use gnt_cfg as cfg;
pub use gnt_comm as comm;
pub use gnt_core as core;
pub use gnt_dataflow as dataflow;
pub use gnt_ir as ir;
pub use gnt_pre as pre;
pub use gnt_sections as sections;
pub use gnt_sim as sim;
