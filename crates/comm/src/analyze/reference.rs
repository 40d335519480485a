//! The reference oracles of pass 1 and pass 2.
//!
//! Pass 1's oracle is the former walk, kept verbatim: accesses keyed by
//! statement in a `HashMap`. [`collect_accesses`](super::collect_accesses)
//! must build the same universe (ids in order, each item printed alike),
//! the same reductions and the same accesses for every statement.
//!
//! Pass 2's oracle is pass 2 as it was before the relation rows,
//! statement by statement, scanning the universe with `may_overlap` for
//! every reference and every redefined local name, over the former
//! pass 1. [`analyze`](super::analyze) must build the same `TAKE_init`,
//! `STEAL_init` and `GIVE_init` bit for bit, on the example programs,
//! seeded random programs, sized programs, hand-written corner cases,
//! universes on both sides of the 64-bit word boundary, and token
//! mutations of the examples (which must also lint without a panic).

use super::*;
use gnt_core::{random_program, sized_program, GenConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the former pass 1 collected: the universe, each recorded
/// statement's accesses keyed by statement, and the reduction items.
struct ReferenceCollected {
    universe: Universe<DataRef>,
    accesses: HashMap<StmtId, Accesses>,
    reductions: HashMap<ItemId, gnt_ir::BinOp>,
}

/// The former pass 1: canonical accesses per statement, keyed by
/// statement in a `HashMap`, then the reduction items.
fn reference_collect_accesses(program: &Program, config: &CommConfig) -> ReferenceCollected {
    let mut universe = Universe::new();
    let mut accesses: HashMap<StmtId, Accesses> = HashMap::new();
    let mut ctx = LoopContext::new();
    // The distributed arrays as symbols, resolved once, so that testing
    // a reference is an id compare and takes no symbol-table lock. A
    // name that was never interned names no array of the program.
    let table = gnt_ir::SymbolTable::global();
    let distributed: Vec<Symbol> = config
        .distributed
        .iter()
        .filter_map(|a| table.get(a))
        .collect();
    reference_collect(
        program,
        program.body(),
        &distributed,
        &mut ctx,
        &mut universe,
        &mut accesses,
    );

    // An item is a reduction iff every definition of it accumulates with
    // one operator; mixed items fall back to ordinary READ+WRITE.
    let mut reductions: HashMap<ItemId, gnt_ir::BinOp> = HashMap::new();
    let mut disqualified: Vec<ItemId> = Vec::new();
    for acc in accesses.values() {
        let acc_items: Vec<ItemId> = acc.acc_ops.iter().map(|(i, _)| *i).collect();
        for &(item, op) in &acc.acc_ops {
            match reductions.get(&item) {
                None => {
                    reductions.insert(item, op);
                }
                Some(&prev) if prev == op => {}
                Some(_) => disqualified.push(item),
            }
        }
        for &d in &acc.defs {
            if !acc_items.contains(&d) {
                disqualified.push(d); // plain definition of the same item
            }
        }
    }
    for d in disqualified {
        reductions.remove(&d);
    }
    ReferenceCollected {
        universe,
        accesses,
        reductions,
    }
}

fn reference_collect(
    program: &Program,
    stmts: &[StmtId],
    distributed: &[Symbol],
    ctx: &mut LoopContext,
    universe: &mut Universe<DataRef>,
    accesses: &mut HashMap<StmtId, Accesses>,
) {
    for &sid in stmts {
        match &program.stmt(sid).kind {
            StmtKind::Assign { lhs, rhs } => {
                let mut acc = Accesses::default();
                // An accumulation `x(e) = x(e) ⊕ …` reads its own target;
                // that read is recorded separately so it can be elided
                // when the item is communicated as a reduction.
                let acc_op = match lhs {
                    LValue::Element(name, idx) if distributed.contains(name) => {
                        accumulation_op(*name, idx, rhs)
                    }
                    _ => None,
                };
                match (acc_op, lhs) {
                    (Some(op), LValue::Element(name, idx)) => {
                        // Collect non-self reads only.
                        let self_ref = Expr::Elem(*name, Box::new(idx.clone()));
                        for (array, sub) in rhs.subscripted_refs() {
                            if distributed.contains(&array) {
                                let full = Expr::Elem(array, Box::new(sub.clone()));
                                let item = universe.intern(normalize_ref(array, sub, ctx));
                                if full == self_ref {
                                    acc.acc_reads.push(item);
                                } else {
                                    acc.reads.push(item);
                                }
                            }
                        }
                        reference_collect_reads(idx, distributed, ctx, universe, &mut acc);
                        let d = universe.intern(normalize_ref(*name, idx, ctx));
                        acc.defs.push(d);
                        acc.acc_ops.push((d, op));
                    }
                    _ => {
                        reference_collect_reads(rhs, distributed, ctx, universe, &mut acc);
                        match lhs {
                            LValue::Element(name, idx) => {
                                // Subscript reads happen regardless of the
                                // target.
                                reference_collect_reads(idx, distributed, ctx, universe, &mut acc);
                                if distributed.contains(name) {
                                    let d = normalize_ref(*name, idx, ctx);
                                    acc.defs.push(universe.intern(d));
                                } else {
                                    acc.local_defs.push(*name);
                                }
                            }
                            LValue::Scalar(name) => acc.local_defs.push(*name),
                            LValue::Opaque => {}
                        }
                    }
                }
                accesses.insert(sid, acc);
            }
            StmtKind::Do { var, lo, hi, body } => {
                // Bound expressions are read outside the loop.
                let mut acc = Accesses::default();
                reference_collect_reads(lo, distributed, ctx, universe, &mut acc);
                reference_collect_reads(hi, distributed, ctx, universe, &mut acc);
                accesses.insert(sid, acc);
                ctx.push(*var, lo, hi);
                reference_collect(program, body, distributed, ctx, universe, accesses);
                ctx.pop();
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let mut acc = Accesses::default();
                reference_collect_reads(cond, distributed, ctx, universe, &mut acc);
                accesses.insert(sid, acc);
                reference_collect(program, then_body, distributed, ctx, universe, accesses);
                reference_collect(program, else_body, distributed, ctx, universe, accesses);
            }
            StmtKind::IfGoto { cond, .. } => {
                let mut acc = Accesses::default();
                reference_collect_reads(cond, distributed, ctx, universe, &mut acc);
                accesses.insert(sid, acc);
            }
            StmtKind::Goto(_) | StmtKind::Continue => {}
        }
    }
}

fn reference_collect_reads(
    expr: &Expr,
    distributed: &[Symbol],
    ctx: &LoopContext,
    universe: &mut Universe<DataRef>,
    acc: &mut Accesses,
) {
    for (array, idx) in expr.subscripted_refs() {
        if distributed.contains(&array) {
            let r = normalize_ref(array, idx, ctx);
            acc.reads.push(universe.intern(r));
        }
    }
}

/// The READ and WRITE problems of `program` under `config`, built by the
/// former pass 2 over the former pass 1.
fn reference_problems(
    program: &Program,
    config: &CommConfig,
) -> Result<(PlacementProblem, PlacementProblem), Box<dyn std::error::Error>> {
    let lowered = lower(program)?;
    let node_of_stmt = lowered.node_of_stmt.clone();
    let graph = IntervalGraph::from_cfg(lowered.cfg)?;
    let ReferenceCollected {
        universe,
        accesses,
        reductions,
    } = reference_collect_accesses(program, config);

    // Pass 2: initial variables over the full universe.
    let n = graph.num_nodes();
    let cap = universe.len();
    let mut read_problem = PlacementProblem::new(n, cap);
    let mut write_problem = PlacementProblem::new(n, cap);
    let items: Vec<(ItemId, DataRef)> = universe.iter().map(|(id, r)| (id, r.clone())).collect();

    for (sid, acc) in &accesses {
        let Some(&node) = node_of_stmt.get(sid) else {
            continue; // unreachable statement
        };
        // A self-reference read of a reduction item is elided (the owner
        // combines contributions); otherwise it is an ordinary read.
        let effective_reads: Vec<ItemId> = acc
            .reads
            .iter()
            .chain(acc.acc_reads.iter().filter(|i| !reductions.contains_key(i)))
            .copied()
            .collect();
        for &item in &effective_reads {
            read_problem.take(node, item.index());
            // A read of a portion overlapping a pending write-back forces
            // the WRITE to complete first (Figure 3).
            let r = universe.resolve(item).clone();
            for (other, oref) in &items {
                if r.may_overlap(oref) {
                    write_problem.steal(node, other.index());
                }
            }
        }
        for &item in &acc.defs {
            // The definition demands a write-back…
            write_problem.take(node, item.index());
            let d = universe.resolve(item).clone();
            for (other, oref) in &items {
                if *other == item {
                    continue;
                }
                if d.may_overlap(oref) {
                    // …destroys cached copies of overlapping portions
                    // (both for later reads and for pending write-backs
                    // of other portions)…
                    read_problem.steal(node, other.index());
                    write_problem.steal(node, other.index());
                }
            }
            // …and, without strict owner-computes, produces its own
            // portion for free (§3.1). A reduction contribution is only a
            // *partial* value: it gives nothing, and it invalidates any
            // previously fetched copy of its own portion.
            if reductions.contains_key(&item) {
                read_problem.steal(node, item.index());
            } else if !config.strict_owner_computes {
                read_problem.give(node, item.index());
            }
        }
        for name in &acc.local_defs {
            // Redefining an indirection array or a bound variable voids
            // every portion whose meaning depends on it (§4.1).
            for (other, oref) in &items {
                let invalidated = oref.depends_on_index_array(*name)
                    || match oref {
                        DataRef::Section { range, .. } => {
                            range.lo.coeff(*name) != 0 || range.hi.coeff(*name) != 0
                        }
                        _ => false,
                    };
                if invalidated {
                    read_problem.steal(node, other.index());
                    write_problem.steal(node, other.index());
                }
            }
        }
    }
    Ok((read_problem, write_problem))
}

/// Every subscripted name of `program`, distributed.
fn auto(program: &Program) -> CommConfig {
    let names = gnt_analyze::driver::detect_distributed(program);
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    CommConfig::distributed(&refs)
}

/// Asserts that [`analyze`] and the oracle agree on `program` under
/// `config` (both failing counts as agreeing), and that the overlap rows
/// are the `may_overlap` relation; returns the universe size.
fn agree(program: &Program, config: &CommConfig, what: &str) -> usize {
    let (got, want) = match (
        analyze(program, config),
        reference_problems(program, config),
    ) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(_), Err(_)) => return 0,
        (got, want) => panic!(
            "{what}: analyze ok {}, reference ok {}",
            got.is_ok(),
            want.is_ok()
        ),
    };
    let (read, write) = want;
    assert_eq!(got.read_problem, read, "{what}: READ problem");
    assert_eq!(got.write_problem, write, "{what}: WRITE problem");
    for (i, ri) in got.universe.iter() {
        for (j, rj) in got.universe.iter() {
            assert_eq!(
                got.overlaps[i.index()].contains(j.index()),
                ri.may_overlap(rj),
                "{what}: overlap row of {ri} at {rj}"
            );
        }
    }
    got.universe.len()
}

/// [`agree`] under the auto-detected arrays, with and without strict
/// owner-computes.
fn agree_both(src: &str, what: &str) -> usize {
    let program = gnt_ir::parse(src).unwrap_or_else(|e| panic!("{what}: {e}\n{src}"));
    let mut config = auto(&program);
    let items = agree(&program, &config, what);
    config.strict_owner_computes = true;
    agree(&program, &config, &format!("{what} (strict)"));
    items
}

fn examples() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "minif"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples in {}", dir.display());
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable example");
            (p.display().to_string(), text)
        })
        .collect()
}

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> u64 {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// SplitMix64: a few random bits without a dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick<'a>(rng: &mut u64, from: &[&'a str]) -> &'a str {
    from[(next(rng) % from.len() as u64) as usize]
}

/// A random MiniF program with distributed-array traffic: shifted and
/// gathered reads, plain, accumulating and self-overlapping writes,
/// index-array and bound redefinitions, branches, and at most one `goto`
/// out of a loop.
fn random_source(seed: u64) -> String {
    let mut rng = seed;
    let mut out = String::new();
    let mut jumped = false;
    fn block(rng: &mut u64, out: &mut String, depth: usize, var: Option<&str>, jumped: &mut bool) {
        let pad = "  ".repeat(depth);
        for _ in 0..1 + next(rng) % 4 {
            let r = next(rng) % 100;
            let v = var.unwrap_or("1");
            if r < 15 && depth < 3 {
                let inner = ["i", "j", "k"][depth];
                let hi = pick(rng, &["N", "M"]);
                out.push_str(&format!("{pad}do {inner} = 1, {hi}\n"));
                block(rng, out, depth + 1, Some(inner), jumped);
                out.push_str(&format!("{pad}enddo\n"));
            } else if r < 25 && depth < 3 {
                out.push_str(&format!("{pad}if t then\n"));
                block(rng, out, depth + 1, var, jumped);
                out.push_str(&format!("{pad}else\n"));
                block(rng, out, depth + 1, var, jumped);
                out.push_str(&format!("{pad}endif\n"));
            } else if r < 29 && var.is_some() && !*jumped {
                *jumped = true;
                out.push_str(&format!("{pad}if t({v}) goto 99\n"));
            } else {
                let k = next(rng) % 3;
                let stmt = match next(rng) % 16 {
                    0 => format!("... = x({v})"),
                    1 => format!("... = x({v}+{k})"),
                    2 => format!("... = x(a({v}))"),
                    3 => format!("... = y(b({v})) + x({v}+1)"),
                    4 => format!("... = x({k})"),
                    5 => "... = x(1:N)".to_string(),
                    6 => format!("x({v}) = ..."),
                    7 => format!("x(a({v})) = ..."),
                    8 => format!("y({v}+{k}) = x({v})"),
                    9 => format!("x(a({v})) = x(a({v})) + w({v})"),
                    10 => format!("y({v}) = y({v}) * 2"),
                    11 => format!("x({v}) = x({v}+1)"),
                    12 => format!("a({k}) = 0"),
                    13 => format!("M = {k}"),
                    14 => format!("s = x(M) + y({v})"),
                    _ => format!("x(a({v})) = w({v})"),
                };
                out.push_str(&format!("{pad}{stmt}\n"));
            }
        }
    }
    block(&mut rng, &mut out, 0, None, &mut jumped);
    if jumped {
        out.push_str("99 continue\n");
    }
    out
}

/// One read per offset `0..items` of `x(i+k)`, a write of `x(i)` that
/// overlaps all of them, and a redefinition of their bound `N`.
fn wide_source(items: usize) -> String {
    let mut src = String::from("do i = 1, N\n  x(i) = ...\n");
    for k in 1..items {
        src.push_str(&format!("  ... = x(i+{k})\n"));
    }
    src.push_str("enddo\nN = 2\ndo j = 1, N\n  ... = x(j+1)\nenddo\n");
    src
}

/// The fields of one statement's accesses, for comparison.
type AccessFields<'a> = (
    &'a [ItemId],
    &'a [ItemId],
    &'a [ItemId],
    &'a [(ItemId, gnt_ir::BinOp)],
    &'a [Symbol],
);

fn fields(acc: &Accesses) -> AccessFields<'_> {
    (
        &acc.reads,
        &acc.defs,
        &acc.acc_reads,
        &acc.acc_ops,
        &acc.local_defs,
    )
}

/// Asserts that pass 1 and the former walk agree on `program` under
/// `config`: the same items under the same ids, printed alike; the same
/// reductions; and for every statement the same accesses, empty where
/// the former walk recorded none. Returns the universe size.
fn pass1_agrees(program: &Program, config: &CommConfig, what: &str) -> usize {
    let got = collect_accesses(program, config);
    let want = reference_collect_accesses(program, config);
    assert_eq!(
        got.universe.len(),
        want.universe.len(),
        "{what}: universe size"
    );
    for ((gid, g), (wid, w)) in got.universe.iter().zip(want.universe.iter()) {
        assert_eq!(gid, wid, "{what}: ids");
        assert_eq!(g, w, "{what}: item {gid}");
        assert_eq!(g.to_string(), w.to_string(), "{what}: item {gid} printed");
    }
    assert_eq!(got.reductions, want.reductions, "{what}: reductions");
    assert_eq!(
        got.accesses.len(),
        program.num_stmts(),
        "{what}: statements"
    );
    let empty = Accesses::default();
    for (sid, _) in program.iter() {
        let w = want.accesses.get(&sid).unwrap_or(&empty);
        assert_eq!(
            fields(&got.accesses[sid.index()]),
            fields(w),
            "{what}: accesses of statement {sid}"
        );
    }
    got.universe.len()
}

/// [`pass1_agrees`] under the auto-detected arrays, and under the first
/// half of them only, so that definitions of undistributed arrays are
/// local definitions.
fn pass1_agrees_both(program: &Program, what: &str) -> usize {
    let all = auto(program);
    let half = CommConfig {
        distributed: all.distributed[..all.distributed.len() / 2].to_vec(),
        strict_owner_computes: false,
    };
    pass1_agrees(program, &half, &format!("{what} (half distributed)"));
    pass1_agrees(program, &all, what)
}

#[test]
fn pass1_matches_the_former_walk_on_the_examples() {
    for (name, text) in examples() {
        let program = gnt_ir::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            pass1_agrees_both(&program, &name) > 0,
            "{name}: empty universe"
        );
    }
}

#[test]
fn pass1_matches_the_former_walk_on_generated_programs() {
    let jumpy = GenConfig {
        goto_prob: 0.1,
        ..GenConfig::default()
    };
    let mut items = 0;
    for seed in 0..40 * stress() {
        for config in [&GenConfig::default(), &jumpy] {
            let program = random_program(seed, config);
            pass1_agrees_both(&program, &format!("random_program {seed}"));
        }
        let src = random_source(seed);
        let program = gnt_ir::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        items += pass1_agrees_both(&program, &format!("random source {seed}:\n{src}"));
    }
    assert!(
        items as u64 >= 80 * stress(),
        "random sources reach {items} items"
    );
    for stmts in [200, 800, 3000] {
        let program = sized_program(stmts);
        assert!(pass1_agrees_both(&program, &format!("sized {stmts}")) > 0);
    }
}

#[test]
fn relation_rows_match_the_per_statement_scan_on_the_examples() {
    for (name, text) in examples() {
        assert!(agree_both(&text, &name) > 0, "{name}: empty universe");
    }
}

#[test]
fn relation_rows_match_the_per_statement_scan_on_generated_programs() {
    let jumpy = GenConfig {
        goto_prob: 0.1,
        ..GenConfig::default()
    };
    let mut items = 0;
    for seed in 0..40 * stress() {
        for config in [&GenConfig::default(), &jumpy] {
            let program = random_program(seed, config);
            agree(&program, &auto(&program), &format!("random_program {seed}"));
        }
        let src = random_source(seed);
        items += agree_both(&src, &format!("random source {seed}:\n{src}"));
    }
    assert!(
        items as u64 >= 80 * stress(),
        "random sources reach {items} items"
    );
    for stmts in [200, 800, 3000] {
        let program = sized_program(stmts);
        assert!(agree(&program, &auto(&program), &format!("sized {stmts}")) > 0);
    }
}

/// Hand-written corner cases: reductions, strict owner-computes,
/// redefined index arrays and bounds, and reads overlapping their own
/// definition.
const CORNER_CASES: [(&str, &str); 7] = [
    (
        "single-operator reduction",
        "do i = 1, N\n  x(a(i)) = x(a(i)) + w(i)\nenddo\n... = x(a(1))",
    ),
    (
        "mixed reduction",
        "do i = 1, N\n  x(a(i)) = x(a(i)) + w(i)\n  x(a(i)) = x(a(i)) * w(i)\nenddo\n\
         do j = 1, N\n  x(a(j)) = w(j)\nenddo",
    ),
    (
        "strict owner-computes",
        "x(1) = 2\n... = x(1)\n... = x(1:N)",
    ),
    (
        "index-array redefinition",
        "do k = 1, N\n  ... = x(a(k)) + x(b(k))\nenddo\na(1) = 0\n\
         do l = 1, N\n  ... = x(a(l))\nenddo",
    ),
    (
        "scalar-bound redefinition",
        "do i = 1, M\n  ... = x(i+1)\nenddo\nM = 2\n... = x(M)\nN = 3",
    ),
    (
        "read overlapping its own definition",
        "do i = 1, N\n  x(i) = x(i+1) + x(i)\n  y(a(i)) = y(a(i+1))\nenddo",
    ),
    (
        "accumulation reading another part of its own array",
        "do i = 1, N\n  x(i) = x(i+1) + x(i)\n  y(a(i)) = y(a(i)) * y(b(i))\nenddo",
    ),
];

#[test]
fn pass1_matches_the_former_walk_on_corner_cases() {
    for (what, src) in CORNER_CASES {
        let program = gnt_ir::parse(src).unwrap_or_else(|e| panic!("{what}: {e}"));
        pass1_agrees_both(&program, what);
    }
}

#[test]
fn relation_rows_match_the_per_statement_scan_on_corner_cases() {
    for (what, src) in CORNER_CASES {
        agree_both(src, what);
    }
    for items in [64, 65, 130] {
        assert_eq!(agree_both(&wide_source(items), "wide"), items);
    }
}

/// The source split into tokens (identifier-like runs or single
/// punctuation characters) and the whitespace between them, so that
/// joining the pieces gives the source back.
fn pieces(src: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let class = |c: char| {
        if c.is_whitespace() {
            0
        } else if c.is_alphanumeric() || c == '_' || c == '.' {
            1
        } else {
            2
        }
    };
    for c in src.chars() {
        match out.last_mut() {
            Some(last) if class(c) != 2 && last.chars().next().map(class) == Some(class(c)) => {
                last.push(c)
            }
            _ => out.push(c.to_string()),
        }
    }
    out
}

/// One token mutation of `src`, two in one case of four: drop,
/// duplicate or swap a token, truncate after one, or copy a line
/// elsewhere.
fn mutate(src: &str, rng: &mut u64) -> String {
    let mut text = src.to_string();
    for _ in 0..1 + u64::from(next(rng).is_multiple_of(4)) {
        let mut p = pieces(&text);
        let tokens: Vec<usize> = (0..p.len()).filter(|&i| !p[i].trim().is_empty()).collect();
        if tokens.is_empty() {
            break;
        }
        let t = tokens[(next(rng) % tokens.len() as u64) as usize];
        match next(rng) % 5 {
            0 => p[t].clear(),
            1 => p[t] = format!("{0} {0}", p[t]),
            2 => {
                if let Some(&u) = tokens.iter().find(|&&u| u > t) {
                    p.swap(t, u);
                }
            }
            3 => p.truncate(t + 1),
            _ => {
                let lines: Vec<&str> = text.lines().collect();
                let from = lines[(next(rng) % lines.len() as u64) as usize];
                let at = (next(rng) % (lines.len() as u64 + 1)) as usize;
                let mut copied: Vec<&str> = lines.clone();
                copied.insert(at, from);
                text = copied.join("\n");
                continue;
            }
        }
        text = p.concat();
    }
    text
}

/// Token mutations of every example lint to `Ok` or `Err` without a
/// panic, with zero-trip on and off, and on every mutant that parses
/// the relation rows match the oracle.
#[test]
fn token_mutants_of_the_examples_never_panic_and_match_the_oracle() {
    let mut rng = 0x005e_ed0f_f022_u64;
    let (mut parsed, mut total) = (0, 0);
    for (name, text) in examples() {
        for m in 0..100 * stress() {
            let mutant = mutate(&text, &mut rng);
            total += 1;
            for zero_trip in [false, true] {
                let opts = gnt_analyze::LintOptions {
                    zero_trip,
                    ..Default::default()
                };
                let linted = catch_unwind(AssertUnwindSafe(|| {
                    gnt_analyze::lint_source(&mutant, &opts).is_ok()
                }));
                assert!(
                    linted.is_ok(),
                    "{name} mutant {m} (zero-trip {zero_trip}) panicked:\n{mutant}"
                );
            }
            if let Ok(program) = gnt_ir::parse(&mutant) {
                parsed += 1;
                agree(
                    &program,
                    &auto(&program),
                    &format!("{name} mutant {m}:\n{mutant}"),
                );
            }
        }
    }
    assert!(
        parsed * 10 >= total && parsed < total,
        "{parsed} of {total} mutants parse: the mutator is too gentle or too harsh"
    );
}
