//! A recursive-descent parser for MiniF.
//!
//! The accepted grammar (newline-terminated statements, `!` comments):
//!
//! ```text
//! program  := ["program" IDENT] { stmt } ["end"]
//! stmt     := [INT] core                      -- optional numeric label
//! core     := "do" IDENT "=" expr "," expr { stmt } "enddo"
//!           | "if" expr "then" { stmt } ["else" { stmt }] "endif"
//!           | "if" expr "goto" INT
//!           | "goto" INT
//!           | "continue"
//!           | lvalue "=" expr
//! lvalue   := "..." | IDENT ["(" expr ")"]
//! expr     := term { ("+" | "-") term }
//! term     := factor { "*" factor }
//! factor   := "..." | INT | "-" factor | "(" expr ")"
//!           | IDENT ["(" expr [":" expr] ")"]
//! ```

use crate::ast::{BinOp, Expr, LValue, Label, Program, Span, Stmt, StmtId, StmtKind};
use crate::intern::{intern, Symbol};
use crate::lexer::{lex, LexError, SpannedToken, Token};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

/// The MiniF keywords, interned once per process so the parser's keyword
/// checks are integer compares.
struct Keywords {
    program: Symbol,
    end: Symbol,
    do_: Symbol,
    enddo: Symbol,
    if_: Symbol,
    then: Symbol,
    else_: Symbol,
    endif: Symbol,
    goto: Symbol,
    continue_: Symbol,
}

fn kw() -> &'static Keywords {
    static KW: OnceLock<Keywords> = OnceLock::new();
    KW.get_or_init(|| Keywords {
        program: intern("program"),
        end: intern("end"),
        do_: intern("do"),
        enddo: intern("enddo"),
        if_: intern("if"),
        then: intern("then"),
        else_: intern("else"),
        endif: intern("endif"),
        goto: intern("goto"),
        continue_: intern("continue"),
    })
}

/// The deepest nesting [`parse`] accepts: `do`/`if` blocks inside one
/// another, and parenthesised, subscripted or negated subexpressions
/// inside one another, counted together. The parser and the walkers
/// downstream of it (CFG lowering, analysis, printing) recurse once per
/// level, so a deeper input would overflow the stack of a worker thread
/// (2 MiB) instead of failing cleanly. Unoptimised builds overflow a
/// worker thread between 400 and 450 nested blocks, so this limit leaves
/// them about 1.5× headroom.
pub const MAX_NESTING_DEPTH: usize = 256;

/// An error produced while parsing MiniF source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The lexer rejected a character.
    Lex(LexError),
    /// An unexpected token was encountered.
    Unexpected {
        /// What was found (`None` at end of input).
        found: Option<Token>,
        /// What the parser was looking for.
        expected: String,
        /// 1-based source line.
        line: u32,
    },
    /// A `goto` targets a label that no statement carries.
    UnknownLabel(Label),
    /// Two statements carry the same label.
    DuplicateLabel(Label),
    /// Blocks or subexpressions nest deeper than [`MAX_NESTING_DEPTH`].
    TooDeep {
        /// The nesting limit that was exceeded.
        limit: usize,
        /// 1-based source line of the construct one level too deep.
        line: u32,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => e.fmt(f),
            ParseError::Unexpected {
                found,
                expected,
                line,
            } => match found {
                Some(tok) => write!(f, "expected {expected}, found {tok} on line {line}"),
                None => write!(f, "expected {expected}, found end of input on line {line}"),
            },
            ParseError::UnknownLabel(l) => write!(f, "goto references unknown label {l}"),
            ParseError::DuplicateLabel(l) => write!(f, "label {l} defined more than once"),
            ParseError::TooDeep { limit, line } => {
                write!(f, "nesting deeper than {limit} levels on line {line}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses MiniF source into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, unknown `goto` targets,
/// duplicate labels, or nesting deeper than [`MAX_NESTING_DEPTH`].
///
/// # Examples
///
/// ```
/// let p = gnt_ir::parse(
///     "do i = 1, N\n\
///        y(a(i)) = ...\n\
///        if test(i) goto 77\n\
///      enddo\n\
///      77 continue",
/// )?;
/// assert_eq!(p.body().len(), 2);
/// # Ok::<(), gnt_ir::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        program: Program::new("main"),
    };
    parser.parse_program()?;
    let program = parser.program;
    validate_labels(&program)?;
    Ok(program)
}

/// Rejects a label defined twice, then a `goto` to a label never
/// defined, each the first in program order. One hash set of the
/// labels keeps it linear in the program.
fn validate_labels(program: &Program) -> Result<(), ParseError> {
    let mut seen = HashSet::new();
    for (_, stmt) in program.iter() {
        if let Some(l) = stmt.label {
            if !seen.insert(l) {
                return Err(ParseError::DuplicateLabel(l));
            }
        }
    }
    for (_, stmt) in program.iter() {
        let target = match &stmt.kind {
            StmtKind::Goto(t) | StmtKind::IfGoto { target: t, .. } => Some(*t),
            _ => None,
        };
        if let Some(t) = target {
            if !seen.contains(&t) {
                return Err(ParseError::UnknownLabel(t));
            }
        }
    }
    Ok(())
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Blocks and subexpressions open around the current position.
    depth: usize,
    program: Program,
}

impl Parser {
    /// Runs `f` one nesting level deeper, or fails with
    /// [`ParseError::TooDeep`] past [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(ParseError::TooDeep {
                limit: MAX_NESTING_DEPTH,
                line: self.line(),
            });
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |t| t.line)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn unexpected<T>(&self, expected: &str) -> Result<T, ParseError> {
        Err(ParseError::Unexpected {
            found: self.peek().copied(),
            expected: expected.to_string(),
            line: self.line(),
        })
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            self.unexpected(what)
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        if self.peek().is_none() {
            return Ok(());
        }
        self.expect(&Token::Newline, "end of line")
    }

    fn at_keyword(&self, kw: Symbol) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if *s == kw)
    }

    fn eat_keyword(&mut self, kw: Symbol) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_program(&mut self) -> Result<(), ParseError> {
        if self.eat_keyword(kw().program) {
            match self.bump() {
                Some(Token::Ident(name)) => {
                    self.program = Program::new(name.as_str());
                }
                _ => return self.unexpected("program name"),
            }
            self.expect_newline()?;
        }
        let body = self.parse_block(&[kw().end])?;
        // Optional trailing `end`.
        if self.eat_keyword(kw().end) {
            let _ = self.expect_newline();
        }
        self.program.set_body(body);
        if self.peek().is_some() {
            return self.unexpected("end of input");
        }
        Ok(())
    }

    /// Parses statements until end of input or one of `terminators` is seen
    /// at the start of a line (the terminator is not consumed).
    fn parse_block(&mut self, terminators: &[Symbol]) -> Result<Vec<StmtId>, ParseError> {
        let mut body = Vec::new();
        loop {
            while self.peek() == Some(&Token::Newline) {
                self.pos += 1;
            }
            match self.peek() {
                None => break,
                Some(Token::Ident(s)) if terminators.contains(s) => break,
                _ => {}
            }
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    /// The byte span of the statement header line starting at token
    /// `start_pos`: from the first token through the last non-newline
    /// token before the next end of line. For `do`/`if` blocks this is
    /// the header only — the natural anchor for diagnostics.
    fn header_span(&self, start_pos: usize) -> Option<Span> {
        let first = self.tokens.get(start_pos)?;
        let mut end = first.end;
        for t in &self.tokens[start_pos..] {
            if t.token == Token::Newline {
                break;
            }
            end = t.end;
        }
        Some(Span::new(first.start, end))
    }

    fn parse_stmt(&mut self) -> Result<StmtId, ParseError> {
        let start_pos = self.pos;
        let label = if let Some(Token::Int(n)) = self.peek() {
            let n = *n;
            // A line-leading integer is a label only if more follows on the
            // line.
            if matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.token),
                Some(Token::Newline) | None
            ) {
                return self.unexpected("a statement after the label");
            }
            self.pos += 1;
            Some(Label(u32::try_from(n).map_err(|_| {
                ParseError::Unexpected {
                    found: Some(Token::Int(n)),
                    expected: "a non-negative label".to_string(),
                    line: self.line(),
                }
            })?))
        } else {
            None
        };

        let kind = if self.at_keyword(kw().do_) {
            self.parse_do()?
        } else if self.at_keyword(kw().if_) {
            self.parse_if()?
        } else if self.eat_keyword(kw().goto) {
            let target = self.parse_label_ref()?;
            self.expect_newline()?;
            StmtKind::Goto(target)
        } else if self.eat_keyword(kw().continue_) {
            self.expect_newline()?;
            StmtKind::Continue
        } else {
            self.parse_assign()?
        };
        let id = self.program.alloc(Stmt { label, kind });
        if let Some(span) = self.header_span(start_pos) {
            self.program.set_span(id, span);
        }
        Ok(id)
    }

    fn parse_label_ref(&mut self) -> Result<Label, ParseError> {
        match self.bump() {
            Some(Token::Int(n)) if n >= 0 => Ok(Label(n as u32)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.unexpected("a label number")
            }
        }
    }

    fn parse_do(&mut self) -> Result<StmtKind, ParseError> {
        assert!(self.eat_keyword(kw().do_));
        let var = match self.bump() {
            Some(Token::Ident(v)) => v,
            _ => return self.unexpected("loop variable"),
        };
        self.expect(&Token::Eq, "`=`")?;
        let lo = self.parse_expr()?;
        self.expect(&Token::Comma, "`,`")?;
        let hi = self.parse_expr()?;
        self.expect_newline()?;
        let body = self.nested(|p| p.parse_block(&[kw().enddo]))?;
        if !self.eat_keyword(kw().enddo) {
            return self.unexpected("`enddo`");
        }
        self.expect_newline()?;
        Ok(StmtKind::Do { var, lo, hi, body })
    }

    fn parse_if(&mut self) -> Result<StmtKind, ParseError> {
        assert!(self.eat_keyword(kw().if_));
        let cond = self.parse_expr()?;
        if self.eat_keyword(kw().goto) {
            let target = self.parse_label_ref()?;
            self.expect_newline()?;
            return Ok(StmtKind::IfGoto { cond, target });
        }
        if !self.eat_keyword(kw().then) {
            return self.unexpected("`then` or `goto`");
        }
        self.expect_newline()?;
        let then_body = self.nested(|p| p.parse_block(&[kw().else_, kw().endif]))?;
        let else_body = if self.eat_keyword(kw().else_) {
            self.expect_newline()?;
            self.nested(|p| p.parse_block(&[kw().endif]))?
        } else {
            Vec::new()
        };
        if !self.eat_keyword(kw().endif) {
            return self.unexpected("`endif`");
        }
        self.expect_newline()?;
        Ok(StmtKind::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn parse_assign(&mut self) -> Result<StmtKind, ParseError> {
        let lhs = match self.peek() {
            Some(Token::Dots) => {
                self.pos += 1;
                LValue::Opaque
            }
            Some(Token::Ident(_)) => {
                let name = match self.bump() {
                    Some(Token::Ident(n)) => n,
                    _ => unreachable!(),
                };
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let idx = self.nested(Self::parse_expr)?;
                    self.expect(&Token::RParen, "`)`")?;
                    LValue::Element(name, idx)
                } else {
                    LValue::Scalar(name)
                }
            }
            _ => return self.unexpected("a statement"),
        };
        self.expect(&Token::Eq, "`=`")?;
        let rhs = self.parse_expr()?;
        self.expect_newline()?;
        Ok(StmtKind::Assign { lhs, rhs })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_term()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_factor()?;
        while self.peek() == Some(&Token::Star) {
            self.pos += 1;
            let rhs = self.parse_factor()?;
            lhs = Expr::bin(BinOp::Mul, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek().copied() {
            Some(Token::Dots) => {
                self.pos += 1;
                Ok(Expr::Opaque)
            }
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Const(n))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                let inner = self.nested(Self::parse_factor)?;
                Ok(Expr::bin(BinOp::Sub, Expr::Const(0), inner))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::parse_expr)?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let first = self.nested(Self::parse_expr)?;
                    if self.peek() == Some(&Token::Colon) {
                        self.pos += 1;
                        let hi = self.nested(Self::parse_expr)?;
                        self.expect(&Token::RParen, "`)`")?;
                        Ok(Expr::Section(name, Box::new(first), Box::new(hi)))
                    } else {
                        self.expect(&Token::RParen, "`)`")?;
                        Ok(Expr::Elem(name, Box::new(first)))
                    }
                } else {
                    Ok(Expr::Var(name))
                }
            }
            _ => self.unexpected("an expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure_1() {
        let p = parse(
            "do i = 1, N\n\
               y(i) = ...\n\
             enddo\n\
             if test then\n\
               do j = 1, N\n\
                 z(j) = ...\n\
               enddo\n\
               do k = 1, N\n\
                 ... = x(a(k))\n\
               enddo\n\
             else\n\
               do l = 1, N\n\
                 ... = x(a(l))\n\
               enddo\n\
             endif",
        )
        .unwrap();
        assert_eq!(p.body().len(), 2);
        let StmtKind::If {
            then_body,
            else_body,
            ..
        } = &p.stmt(p.body()[1]).kind
        else {
            panic!("expected if");
        };
        assert_eq!(then_body.len(), 2);
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn parses_figure_11_with_goto() {
        let p = parse(
            "do i = 1, N\n\
               y(a(i)) = ...\n\
               if test(i) goto 77\n\
             enddo\n\
             do j = 1, N\n\
               ... = ...\n\
             enddo\n\
             77 do k = 1, N\n\
               ... = x(k+10) + y(b(k))\n\
             enddo",
        )
        .unwrap();
        assert_eq!(p.body().len(), 3);
        let labeled = p.find_label(Label(77)).unwrap();
        assert!(matches!(p.stmt(labeled).kind, StmtKind::Do { .. }));
    }

    #[test]
    fn parses_program_header_and_end() {
        let p = parse("program fig3\nx = 1\nend").unwrap();
        assert_eq!(p.name(), "fig3");
        assert_eq!(p.body().len(), 1);
    }

    #[test]
    fn rejects_unknown_goto_target() {
        let err = parse("goto 9").unwrap_err();
        assert_eq!(err, ParseError::UnknownLabel(Label(9)));
    }

    #[test]
    fn rejects_duplicate_labels() {
        let err = parse("10 continue\n10 continue").unwrap_err();
        assert_eq!(err, ParseError::DuplicateLabel(Label(10)));
    }

    /// 40 000 statements labeled 1 to 40 000, every 100th an `if … goto`
    /// 50 labels on, with the lines `line(i)` returns in place of theirs.
    fn labeled_program(line: impl Fn(u32) -> String) -> String {
        (1..=40_000)
            .map(|i| match line(i) {
                custom if !custom.is_empty() => custom + "\n",
                _ if i % 100 == 1 => format!("{i} if t goto {}\n", i + 50),
                _ => format!("{i} a = 1\n"),
            })
            .collect()
    }

    #[test]
    fn label_errors_on_a_40k_labeled_program_are_the_first_in_program_order() {
        let clean = parse(&labeled_program(|_| String::new())).unwrap();
        assert_eq!(clean.body().len(), 40_000);
        // Two duplicates: the first in program order is reported.
        let dups = labeled_program(|i| match i {
            30_000 => "20000 a = 2".to_owned(),
            35_000 => "100 a = 2".to_owned(),
            _ => String::new(),
        });
        assert_eq!(
            parse(&dups).unwrap_err(),
            ParseError::DuplicateLabel(Label(20_000))
        );
        // Two unknown targets: the first in program order is reported.
        let unknown = labeled_program(|i| match i {
            10_000 => "10000 goto 90001".to_owned(),
            20_000 => "20000 goto 90000".to_owned(),
            _ => String::new(),
        });
        assert_eq!(
            parse(&unknown).unwrap_err(),
            ParseError::UnknownLabel(Label(90_001))
        );
    }

    #[test]
    fn rejects_missing_enddo() {
        let err = parse("do i = 1, N\nx = 1\n").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn parse_error_display_mentions_line() {
        let err = parse("x = 1\ny = = 2").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    /// `blocks` nested blocks, `do` loops alternating with `if`/`else`,
    /// around a statement whose subscript adds one more level.
    fn nest(blocks: usize) -> String {
        let mut src = String::new();
        for k in 0..blocks {
            if k % 2 == 0 {
                src.push_str(&format!("do i{k} = 1, N\n"));
            } else {
                src.push_str(&format!("if t{k} then\n"));
            }
        }
        src.push_str("if t goto 99\n... = x(i0)\n");
        for k in (0..blocks).rev() {
            src.push_str(if k % 2 == 0 {
                "enddo\n"
            } else {
                "else\nc = 1\nendif\n"
            });
        }
        src + "99 continue\n"
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit_and_rejected_past_it() {
        let too_deep = |line| ParseError::TooDeep {
            limit: MAX_NESTING_DEPTH,
            line,
        };
        assert!(parse(&nest(MAX_NESTING_DEPTH - 1)).is_ok());
        assert_eq!(
            parse(&nest(MAX_NESTING_DEPTH)).unwrap_err(),
            too_deep(MAX_NESTING_DEPTH as u32 + 2)
        );
        let parens = |d: usize| format!("y = {}x{}\n", "(".repeat(d), ")".repeat(d));
        assert!(parse(&parens(MAX_NESTING_DEPTH)).is_ok());
        assert_eq!(
            parse(&parens(MAX_NESTING_DEPTH + 1)).unwrap_err(),
            too_deep(1)
        );
        let negated = |d: usize| format!("y = {}x\n", "-".repeat(d));
        assert!(parse(&negated(MAX_NESTING_DEPTH)).is_ok());
        assert!(parse(&negated(MAX_NESTING_DEPTH + 1)).is_err());
        // Far past the limit the parser fails cleanly too.
        assert!(parse(&nest(20_000)).is_err());
        assert_eq!(
            parse(&nest(MAX_NESTING_DEPTH)).unwrap_err().to_string(),
            format!(
                "nesting deeper than {MAX_NESTING_DEPTH} levels on line {}",
                MAX_NESTING_DEPTH + 2
            )
        );
    }

    #[test]
    fn parses_precedence() {
        let p = parse("x = a + b * c").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!();
        };
        assert_eq!(rhs.to_string(), "a+b*c");
        assert!(matches!(rhs, Expr::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn parses_unary_minus() {
        let p = parse("x = -y + 1").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!();
        };
        assert_eq!(rhs.to_string(), "0-y+1");
    }

    #[test]
    fn parses_section_expression() {
        let p = parse("x = w(6:N+5)").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!();
        };
        assert!(matches!(rhs, Expr::Section(..)));
    }

    #[test]
    fn parses_nested_loops() {
        let p = parse(
            "do i = 1, N\n\
               do j = 1, M\n\
                 x(j) = y(i)\n\
               enddo\n\
             enddo",
        )
        .unwrap();
        let StmtKind::Do { body, .. } = &p.stmt(p.body()[0]).kind else {
            panic!();
        };
        assert!(matches!(p.stmt(body[0]).kind, StmtKind::Do { .. }));
    }

    #[test]
    fn semicolons_separate_statements() {
        let p = parse("a = 1; b = 2; c = 3").unwrap();
        assert_eq!(p.body().len(), 3);
    }

    #[test]
    fn bare_integer_line_is_an_error() {
        assert!(parse("42").is_err());
    }

    #[test]
    fn statements_carry_header_spans() {
        let src = "a = 1\ndo i = 1, N\n  b = c(i)\nenddo";
        let p = parse(src).unwrap();
        let assign = p.body()[0];
        assert_eq!(p.span(assign).unwrap().slice(src), "a = 1");
        let header = p.body()[1];
        // Block statements anchor on the header line only.
        assert_eq!(p.span(header).unwrap().slice(src), "do i = 1, N");
        let StmtKind::Do { body, .. } = &p.stmt(header).kind else {
            panic!();
        };
        let inner = p.span(body[0]).unwrap();
        assert_eq!(inner.slice(src), "b = c(i)");
        assert_eq!(inner.start_line_col(src), (3, 3));
    }

    #[test]
    fn labeled_statement_span_includes_the_label() {
        let src = "goto 7\n7 continue";
        let p = parse(src).unwrap();
        let labeled = p.find_label(Label(7)).unwrap();
        assert_eq!(p.span(labeled).unwrap().slice(src), "7 continue");
    }

    #[test]
    fn builder_programs_have_no_spans() {
        let p = crate::ProgramBuilder::new("b")
            .assign("x", Expr::Const(1))
            .build();
        assert_eq!(p.span(p.body()[0]), None);
    }
}
