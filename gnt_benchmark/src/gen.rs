//! Seeded MiniF inputs: whole programs and the edits of a watched project.
//!
//! `gnt_core::random_program` emits no array reference, so its item
//! universe is empty and the solver and plan generator barely run. The
//! programs here are built for communication generation instead: gathers
//! `x(a(i))`/`x(b(i))`, shifted sections `x(i+k)`, writes of both,
//! redefinitions of the indirection arrays, at most one `goto` out of a
//! loop, and loop/branch nesting up to [`MAX_DEPTH`]. Every program has a
//! loop holding a gather read, so no universe is empty.
//!
//! A seed decides content only. Everything that changes which code path
//! runs, or how much work it does, is fixed by the file's [`Shape`]: the
//! exact statement count, the number of arrays, and how (if at all) a
//! `goto` leaves a loop. A corpus draws its shapes from fixed quantiles
//! ([`log_uniform_shapes`]), so two seeds give the same amount of work on
//! the same paths — which is what keeps the seed-to-seed spread of the
//! benchmark's numbers small.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distributed arrays, in the order a file's arrays are drawn.
const ARRAYS: [&str; 4] = ["x", "y", "z", "w"];
/// Indirection arrays of the gathers.
const INDEX: [&str; 2] = ["a", "b"];
/// Deepest loop/branch nesting a generated file reaches.
pub const MAX_DEPTH: usize = 4;
/// Largest statement budget of one loop or branch body.
const BODY_MAX: usize = 12;

/// How a file's single `goto` leaves a loop. A jump out of a loop gives
/// the reversed graph a jump-in edge, so the WRITE (AFTER) problem is
/// first solved optimistically and checked by the independent verifiers
/// (§5.3). Where the jump leaves decides whether that check passes, and
/// so whether the solver must poison the loop and solve again — a path
/// a random placement would take in about 40 % of files, seed by seed.
/// The jump therefore sits in a fixed first loop, like Figure 11's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Jump {
    /// No `goto`.
    None,
    /// `do j0 … x(a(j0)) = … ; if t(j0) goto 99 … enddo`: the optimistic
    /// WRITE placement passes the verifiers.
    AfterWrite,
    /// `do j0 … if t(j0) goto 99 ; x(a(j0)) = … enddo`: it does not, and
    /// the solver poisons the loop and solves again.
    BeforeWrite,
}

/// The size of one generated file, and the paths it takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Statements, counting loop and branch headers (at least 5 with a
    /// jump, 2 without).
    pub stmts: usize,
    /// Distributed arrays referenced, 1 to 4.
    pub arrays: usize,
    /// How the file's `goto` leaves a loop.
    pub jump: Jump,
}

/// `count` file shapes, smallest first, whose sizes are the
/// `(k + ½)/count` quantiles of a log-uniform distribution over `lo..=hi`
/// statements, with 1 to 4 arrays cycling and, of every 5 files, 2
/// jumping after the write, 1 before it and 2 without a `goto`.
pub fn log_uniform_shapes(count: usize, lo: usize, hi: usize) -> Vec<Shape> {
    let ratio = hi as f64 / lo as f64;
    (0..count)
        .map(|k| Shape {
            stmts: (lo as f64 * ratio.powf((k as f64 + 0.5) / count as f64)).round() as usize,
            arrays: 1 + k % ARRAYS.len(),
            jump: match k % 5 {
                0 | 1 => Jump::AfterWrite,
                2 => Jump::BeforeWrite,
                _ => Jump::None,
            },
        })
        .collect()
}

/// Generates one MiniF program of exactly `shape.stmts` statements (plus
/// the labelled `99 continue` a `goto` jumps to).
pub fn program(seed: u64, shape: Shape) -> String {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        arrays: shape.arrays.clamp(1, ARRAYS.len()),
        out: String::new(),
        loops: 0,
        scalars: 0,
        need_ref: true,
    };
    let jump = match shape.jump {
        Jump::None => None,
        Jump::AfterWrite => Some(["x(a(j0)) = ...", "if t(j0) goto 99"]),
        Jump::BeforeWrite => Some(["if t(j0) goto 99", "x(a(j0)) = ..."]),
    };
    let mut budget = shape.stmts.max(2);
    if let Some(body) = jump {
        g.line(0, "do j0 = 1, N");
        body.iter().for_each(|s| g.line(1, s));
        g.line(0, "enddo");
        budget = budget.saturating_sub(3).max(2);
    }
    g.block(budget, 0, &mut Vec::new());
    if jump.is_some() {
        g.line(0, "99 continue");
    }
    g.out
}

struct Gen {
    rng: StdRng,
    arrays: usize,
    out: String,
    loops: usize,
    scalars: usize,
    /// The file has no gather read yet: force one.
    need_ref: bool,
}

impl Gen {
    fn line(&mut self, depth: usize, text: &str) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Emits exactly `budget` statements at `depth`; `vars` are the
    /// enclosing loop variables, innermost last.
    fn block(&mut self, budget: usize, depth: usize, vars: &mut Vec<String>) {
        let mut left = budget;
        while left > 0 {
            left -= self.stmt(left, depth, vars);
        }
    }

    /// Emits one statement (a compound one with its body) of at most
    /// `left` statements and returns how many it used.
    fn stmt(&mut self, left: usize, depth: usize, vars: &mut Vec<String>) -> usize {
        let room = left >= 2 && depth < MAX_DEPTH;
        let (p_loop, p_if) = if vars.is_empty() {
            (0.45, 0.15)
        } else {
            (0.15, 0.12)
        };
        let r: f64 = self.rng.gen();
        let force_loop = self.need_ref && vars.is_empty();
        if room && (force_loop || r < p_loop) {
            let body = self.rng.gen_range(1..=(left - 1).min(BODY_MAX));
            let var = format!("i{}", self.loops);
            self.loops += 1;
            self.line(depth, &format!("do {var} = 1, N"));
            vars.push(var);
            self.block(body, depth + 1, vars);
            vars.pop();
            self.line(depth, "enddo");
            1 + body
        } else if room && !self.need_ref && r < p_loop + p_if {
            let then_n = self.rng.gen_range(1..=(left - 1).min(BODY_MAX));
            let else_n = self.rng.gen_range(0..=(left - 1 - then_n).min(BODY_MAX));
            self.line(depth, "if q then");
            self.block(then_n, depth + 1, vars);
            if else_n > 0 {
                self.line(depth, "else");
                self.block(else_n, depth + 1, vars);
            }
            self.line(depth, "endif");
            1 + then_n + else_n
        } else if vars.is_empty() {
            let s = format!("s{} = ...", self.scalars % 16);
            self.scalars += 1;
            self.line(depth, &s);
            1
        } else {
            let s = self.array_stmt(vars);
            self.line(depth, &s);
            1
        }
    }

    /// One statement inside a loop, over the enclosing loop variables.
    fn array_stmt(&mut self, vars: &[String]) -> String {
        let v = if vars.len() > 1 && self.rng.gen_bool(0.3) {
            &vars[self.rng.gen_range(0..vars.len())]
        } else {
            &vars[vars.len() - 1]
        };
        let x = ARRAYS[self.rng.gen_range(0..self.arrays)];
        let idx = INDEX[self.rng.gen_range(0..INDEX.len())];
        let gather = format!("{x}({idx}({v}))");
        if self.need_ref {
            self.need_ref = false;
            return format!("... = {gather}");
        }
        let shift = match self.rng.gen_range(0..100) {
            0..=29 => format!("{x}({v})"),
            30..=79 => format!("{x}({v}+{})", self.rng.gen_range(1..=3)),
            80..=84 => format!("{x}({v}-1)"),
            _ => format!("{x}({v}+{})", self.rng.gen_range(4..=10)),
        };
        match self.rng.gen_range(0..100) {
            0..=29 => format!("... = {gather}"),
            30..=54 => format!("... = {shift}"),
            55..=64 => {
                let y = ARRAYS[self.rng.gen_range(0..self.arrays)];
                format!("... = {shift} + {y}({idx}({v}))")
            }
            65..=79 => format!("{shift} = ..."),
            80..=86 => format!("{gather} = ..."),
            87..=91 => format!("{idx}({v}) = ..."),
            _ => {
                self.scalars += 1;
                format!("s{} = ...", self.scalars % 16)
            }
        }
    }
}

/// One edit to a watched project.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// A shifted subscript `x(i+k)` got another offset `k`.
    Shift,
    /// A read statement was duplicated: one more consumer.
    AddConsumer,
    /// An `enddo` was deleted: the file no longer parses.
    DropEnddo,
    /// The `enddo` deleted by an earlier edit was put back.
    Restore,
}

/// A project of generated files under seeded edits — the traffic of an
/// editor or watcher re-linting on every save.
#[derive(Clone, Debug)]
pub struct Project {
    files: Vec<Vec<String>>,
    /// Per file, the `(line, text)` a [`Edit::DropEnddo`] removed.
    dropped: Vec<Option<(usize, String)>>,
    rng: StdRng,
}

/// One edit in this many deletes an `enddo`.
const DROP_ONE_IN: u32 = 16;

impl Project {
    /// A project of one generated file per shape.
    pub fn new(seed: u64, shapes: &[Shape]) -> Project {
        let files = shapes
            .iter()
            .enumerate()
            .map(|(k, &shape)| {
                program(file_seed(seed, k), shape)
                    .lines()
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        Project {
            files,
            dropped: vec![None; shapes.len()],
            rng: StdRng::seed_from_u64(seed ^ 0xed17),
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` for a project without files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The current text of file `k`.
    pub fn text(&self, k: usize) -> String {
        let mut text = self.files[k].join("\n");
        text.push('\n');
        text
    }

    /// `true` while file `k` lacks an `enddo` an edit deleted.
    pub fn is_broken(&self, k: usize) -> bool {
        self.dropped[k].is_some()
    }

    /// Applies one round of `count` edits and returns `(file, edit)` for
    /// each. Files broken by an earlier round are restored first; the
    /// other edits go to distinct intact files, the `j`-th edit of the
    /// round to one in the `j`-th of `count` equal strata of the files.
    /// With the files in size order (as [`log_uniform_shapes`] gives them)
    /// every seed thus edits the same mix of sizes.
    pub fn edit_round(&mut self, count: usize) -> Vec<(usize, Edit)> {
        let mut done: Vec<(usize, Edit)> = Vec::with_capacity(count);
        for k in 0..self.files.len() {
            if done.len() == count {
                break;
            }
            if let Some((line, text)) = self.dropped[k].take() {
                self.files[k].insert(line, text);
                done.push((k, Edit::Restore));
            }
        }
        let n = self.files.len();
        let mut attempts = 0;
        while done.len() < count && attempts < 64 * count {
            attempts += 1;
            let j = done.len();
            let lo = j * n / count;
            let k = self.rng.gen_range(lo..((j + 1) * n / count).max(lo + 1));
            if self.is_broken(k) || done.iter().any(|&(f, _)| f == k) {
                continue;
            }
            let edit = if self.rng.gen_range(0..DROP_ONE_IN) == 0 {
                Edit::DropEnddo
            } else if self.rng.gen_bool(0.5) {
                Edit::Shift
            } else {
                Edit::AddConsumer
            };
            done.push((k, self.apply(k, edit)));
        }
        done
    }

    /// Applies `edit` to file `k` and returns the edit made: a file with
    /// no shifted subscript gets [`Edit::AddConsumer`] instead of
    /// [`Edit::Shift`]. Every file keeps the gather read it was generated
    /// with, so a consumer to duplicate always exists.
    fn apply(&mut self, k: usize, edit: Edit) -> Edit {
        let lines = &mut self.files[k];
        match edit {
            Edit::DropEnddo => {
                let i = pick(&mut self.rng, lines, |l| l.trim() == "enddo")
                    .expect("every file starts with a loop");
                let text = lines.remove(i);
                self.dropped[k] = Some((i, text));
                return Edit::DropEnddo;
            }
            Edit::Shift => {
                if let Some(i) = pick(&mut self.rng, lines, |l| offset_at(l).is_some()) {
                    let (start, end) = offset_at(&lines[i]).expect("picked for its offset");
                    let old: usize = lines[i][start..end].parse().expect("ASCII digits");
                    // 1 + (old + r) % 4 with r < 3 never reproduces `old`.
                    let new = 1 + (old + self.rng.gen_range(0..3usize)) % 4;
                    lines[i].replace_range(start..end, &new.to_string());
                    return Edit::Shift;
                }
            }
            Edit::AddConsumer | Edit::Restore => {}
        }
        let i = pick(&mut self.rng, lines, |l| {
            l.trim_start().starts_with("... = ")
        })
        .expect("every file keeps its gather read");
        let copy = lines[i].clone();
        lines.insert(i + 1, copy);
        Edit::AddConsumer
    }
}

/// A uniformly drawn index of a line satisfying `keep`.
fn pick(rng: &mut StdRng, lines: &[String], keep: impl Fn(&str) -> bool) -> Option<usize> {
    let found: Vec<usize> = (0..lines.len()).filter(|&i| keep(&lines[i])).collect();
    (!found.is_empty()).then(|| found[rng.gen_range(0..found.len())])
}

/// Byte range of the first `+k)` offset in `line` (the digits of `k`).
fn offset_at(line: &str) -> Option<(usize, usize)> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'+' && bytes[i + 1].is_ascii_digit() {
            let start = i + 1;
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            if bytes.get(end) == Some(&b')') {
                return Some((start, end));
            }
        }
        i += 1;
    }
    None
}

/// The seed of file `k` of a corpus drawn from `seed`.
pub fn file_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (k as u64).wrapping_add(1)
}

/// One generated program per shape, named `gen<k>.minif`.
pub fn corpus(seed: u64, shapes: &[Shape]) -> Vec<(String, String)> {
    shapes
        .iter()
        .enumerate()
        .map(|(k, &shape)| {
            (
                format!("gen{k:03}.minif"),
                program(file_seed(seed, k), shape),
            )
        })
        .collect()
}
