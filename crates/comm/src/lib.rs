//! Communication generation for distributed arrays with GIVE-N-TAKE.
//!
//! This crate applies the GIVE-N-TAKE framework to the paper's motivating
//! problem (§2–3.1): compiling data-parallel programs onto
//! distributed-memory machines. References to distributed arrays induce
//! global READs, definitions induce global WRITEs; both split into
//! balanced Send/Recv pairs whose gap is usable for latency hiding, and
//! sections are vectorized (`x(a(1:N))` instead of one message per
//! element).
//!
//! * [`analyze`] — turn a MiniF program plus a [`CommConfig`] into the
//!   READ (BEFORE) and WRITE (AFTER) placement problems over a universe
//!   of canonical array portions,
//! * [`generate`] — solve both problems and assemble a [`CommPlan`],
//! * [`render`] — print the annotated program (Figures 2/3/14 style).
//!
//! # Examples
//!
//! The paper's Figure 1 → Figure 2 transformation:
//!
//! ```
//! use gnt_comm::{analyze, generate, render, CommConfig, OpKind};
//!
//! let program = gnt_ir::parse(
//!     "do i = 1, N\n  y(i) = ...\nenddo\n\
//!      if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
//!      else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
//! )?;
//! let plan = generate(analyze(&program, &CommConfig::distributed(&["x"]))?)?;
//! assert_eq!(plan.count(OpKind::ReadSend), 1); // one vectorized message
//! let listing = render(&program, &plan);
//! assert!(listing.contains("READ_send{x(a(1:N))}"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod analyze;
mod generate;
mod render;

pub use analyze::{analyze, analyze_timed, CommAnalysis, CommConfig};
pub use generate::{
    generate, generate_styled, generate_with_options, generate_with_placement, CommOp, CommPlan,
    EmittedPlacement, GenerateOptions, OpKind, PlacementStyle,
};
pub use render::render;
