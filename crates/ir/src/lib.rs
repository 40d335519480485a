//! MiniF: a Fortran-style mini language for the GIVE-N-TAKE reproduction.
//!
//! The GIVE-N-TAKE paper (von Hanxleden & Kennedy, PLDI 1994) demonstrates
//! its code placement framework on Fortran D kernels built from counted
//! `do` loops, `if/then/else`, `goto` out of loops, and subscripted array
//! accesses. MiniF is exactly that fragment:
//!
//! * [`parse`] turns source text into a [`Program`] (statement arena +
//!   top-level body),
//! * [`pretty`] renders a [`Program`] back to source,
//! * [`ProgramBuilder`] constructs programs without a parser (used by the
//!   benchmark workload generators and property tests).
//!
//! # Examples
//!
//! Parsing Figure 1 of the paper:
//!
//! ```
//! let program = gnt_ir::parse(
//!     "do i = 1, N\n\
//!        y(i) = ...\n\
//!      enddo\n\
//!      if test then\n\
//!        do k = 1, N\n\
//!          ... = x(a(k))\n\
//!        enddo\n\
//!      else\n\
//!        do l = 1, N\n\
//!          ... = x(a(l))\n\
//!        enddo\n\
//!      endif",
//! )?;
//! assert_eq!(program.body().len(), 2);
//! # Ok::<(), gnt_ir::ParseError>(())
//! ```

#![warn(missing_docs)]

mod ast;
mod builder;
mod intern;
mod lexer;
mod parser;
mod pretty;

pub use ast::{BinOp, Expr, LValue, Label, Program, Span, Stmt, StmtId, StmtKind};
pub use builder::{BlockBuilder, ProgramBuilder};
pub use intern::{intern, Symbol, SymbolTable};
pub use lexer::{lex, LexError, SpannedToken, Token};
pub use parser::{parse, ParseError, MAX_NESTING_DEPTH};
pub use pretty::pretty;
