//! Golden digests of the two optimality checkers: one FNV-1a hash per
//! input over every diagnostic of [`lint_placement`] (optimality on,
//! `GNT005`–`GNT007`) and of [`audit_placement`] (`GNT031`/`GNT032`):
//! code, severity, node, item, message, notes and related entries, in
//! output order.
//!
//! Each input is solved, shifted off synthetic nodes as a plan emits it,
//! and then checked in five variants: the shifted optimum itself, the
//! LAZY points as both flavors (transfers that start late), the EAGER
//! points as both flavors (transfers that complete early), and the
//! optimum with random productions added and dropped. Inputs are the
//! example programs and `sized_program(60)` under their communication
//! analysis, random programs with and without a `goto` out of a loop
//! under random problems (forward and reversed graphs), and two
//! hand-made programs that reach `GNT031` and `GNT032`. On a mismatch
//! the test prints the table it computed.

use gnt_analyze::audit::{audit_placement, AuditOptions};
use gnt_analyze::driver::detect_distributed;
use gnt_analyze::placement::{lint_placement, PlacementLintOptions};
use gnt_analyze::Diagnostic;
use gnt_cfg::{reversed_graph, IntervalGraph, NodeId};
use gnt_comm::{analyze, CommConfig};
use gnt_core::{
    random_problem, random_program, shift_off_synthetic, sized_program, solve, FlavorSolution,
    GenConfig, PlacementProblem, SolverOptions,
};
use gnt_ir::Program;
use std::collections::BTreeMap;

const GOLDEN: &str = "\
fig1.minif 99d568fee7d382ba 7409fdef3c988301
fig11.minif c0cc8015912e35ef 196444bbc4352aa9
fig3.minif cb9c725da2dd85d8 edf8d0841d58c9c2
sized_60 d65bce9aa721c61f c37e4e6a1723740e
prelude c1961f97ee142229 8d26df82eec628ab
free_give 957be177fc25f1af 33fcad8e0d0f9705
random_nogoto_0_fwd_5 f98399e7b9a22b26 00f94e491bde42ee
random_nogoto_0_fwd_70 99097c0e75b2c0b3 6defab59757dc035
random_nogoto_0_rev_5 613aa4b49762dd8d 40d69e0cf0f65c45
random_nogoto_0_rev_70 77663b1ec0ddac66 37139587f8a6b8a5
random_nogoto_1_fwd_5 83c7d4bdfa9135c8 768260a957070c8a
random_nogoto_1_fwd_70 79143e08ee1ac123 f6f3177df6130569
random_nogoto_1_rev_5 622bbef0577abc6b e1d8e813afe75ae7
random_nogoto_1_rev_70 d3d8c98db3f98a1b c7895f9187dc8998
random_nogoto_2_fwd_5 2e0fe6b651e32039 40d69e0cf0f65c45
random_nogoto_2_fwd_70 73682d9de539d5fd d88ac20fd4011f26
random_nogoto_2_rev_5 f99ee6000be340e7 40d69e0cf0f65c45
random_nogoto_2_rev_70 56e0683249546f78 cd1126ac2ac8cf74
random_nogoto_3_fwd_5 1a2950ae91ce6fbe b95f8e93ebb0382d
random_nogoto_3_fwd_70 de2682e734b62045 8a17c91408b331b4
random_nogoto_3_rev_5 67038342aa4b7148 7e98792e361f1d8b
random_nogoto_3_rev_70 553903e64c18de9b 96ab613a0db6834d
random_nogoto_4_fwd_5 cf7445c08599ce7e e247dcb1fd59eee7
random_nogoto_4_fwd_70 652202f8126a4542 9bbb2dab62803277
random_nogoto_4_rev_5 66eda479e5f23e5b 40d69e0cf0f65c45
random_nogoto_4_rev_70 6913cf3265baca38 8241d54233108aa4
random_nogoto_5_fwd_5 3029cae3b0475e8c 791f736200b4a85b
random_nogoto_5_fwd_70 dd4cdf4c467fd73f 111dcd6fb755445d
random_nogoto_5_rev_5 c23bc38bd4970b5f 40d69e0cf0f65c45
random_nogoto_5_rev_70 0d9e39a7d2a33c70 58cd35ffd162e4cc
random_nogoto_6_fwd_5 239b66692d07c055 88a0eb47f6f3a15d
random_nogoto_6_fwd_70 413b3c6a4a66af7d 9286b3bb2724a426
random_nogoto_6_rev_5 8dff37dabc353913 40d69e0cf0f65c45
random_nogoto_6_rev_70 a3eb6df1b78059be d36bc8e34e8cb3a8
random_nogoto_7_fwd_5 77418783381eafb3 3f80deea374a0f62
random_nogoto_7_fwd_70 5a4f85cc542a7e3e 32a4251d2bb80a81
random_nogoto_7_rev_5 2b085eb122355fab aaf8d52f050dac0a
random_nogoto_7_rev_70 234ad3dd1c4fd84f 64ed7f751a7df0eb
random_nogoto_8_fwd_5 064d42c7f789bbb3 0d78de41fd9dc88c
random_nogoto_8_fwd_70 9f56ae36a81c5909 4b429b91ea03df08
random_nogoto_8_rev_5 6a01a89457a619eb 40d69e0cf0f65c45
random_nogoto_8_rev_70 e593e68816975c32 97c2abccf68359df
random_nogoto_9_fwd_5 6d02449b740db63a b1b6c12aaf627d88
random_nogoto_9_fwd_70 f5ba30f0ab690879 89a4ce3f8508c258
random_nogoto_9_rev_5 ffe431be6b399311 40d69e0cf0f65c45
random_nogoto_9_rev_70 a4d0de6eb84e9609 2a3a364df5b07e24
random_nogoto_10_fwd_5 37f2c30ed7389875 40d69e0cf0f65c45
random_nogoto_10_fwd_70 5f8f7aaf33d2269b fc0a91fb0a051fe4
random_nogoto_10_rev_5 e183a9d61aa5d7b9 86eeb0acacee2465
random_nogoto_10_rev_70 cdbe89b7f1c11da4 74f731f76d9c25f9
random_nogoto_11_fwd_5 6cfda0efeaae3761 9401982ef278f31f
random_nogoto_11_fwd_70 cefeac0d7a93fde5 96b619f101136f44
random_nogoto_11_rev_5 5b4aa0dc641a197f 40d69e0cf0f65c45
random_nogoto_11_rev_70 1232ac329c0b7912 79c9cff25c613b33
random_goto_0_fwd_5 811f9f0d3a30e36f 622d661b26fbf546
random_goto_0_fwd_70 2822a1e0112968e6 facb69efc25dad99
random_goto_0_rev_5 2f1378e1394271bf 40d69e0cf0f65c45
random_goto_0_rev_70 cfeabdf901d2f08f 0a26d0bbd3d6f70e
random_goto_1_fwd_5 c88ec46f8f497b5d bbc3b0b9cea54932
random_goto_1_fwd_70 b98d5c706896c3c4 0741a592e7233158
random_goto_1_rev_5 3ce195546cb1374f 40d69e0cf0f65c45
random_goto_1_rev_70 c0337699c3cc54bc 04de003b28c8e730
random_goto_2_fwd_5 720acf55b7c3d8fa 40d69e0cf0f65c45
random_goto_2_fwd_70 38d182c6a7f00725 347bc943925a92b5
random_goto_2_rev_5 481d5cdfdfa9801f 40d69e0cf0f65c45
random_goto_2_rev_70 94c84c5be292648b b0ba55c6ebd9665d
random_goto_3_fwd_5 93c85ff2c28075f7 6af92c13e9a5d0a6
random_goto_3_fwd_70 96eff5865373183f 893c9f1eb5dedbc8
random_goto_3_rev_5 39b62e8b7f69beb1 40d69e0cf0f65c45
random_goto_3_rev_70 848ef88f9a3f2ed2 dc7bcb7bc549e911
random_goto_4_fwd_5 99f0a28b8f02fadc deb538d05db153eb
random_goto_4_fwd_70 f340373c07a51bd2 0ff824b8950e93fe
random_goto_4_rev_5 db9c0ec592b14a07 40d69e0cf0f65c45
random_goto_4_rev_70 9918600304cdfc8a 8930a61c2946c713
random_goto_5_fwd_5 0c2abacda230db6b 368c9127a63aed45
random_goto_5_fwd_70 f601f8308dae5217 3051fcf45db7d4cc
random_goto_5_rev_5 31a80a21ae526f0b 5dc9b8d3d2bfd9ed
random_goto_5_rev_70 e80d3f32b5e42166 93018dcb99115e77
random_goto_6_fwd_5 c445bf6cb86b6e9c ea06a961af6b058f
random_goto_6_fwd_70 3191f101e839463b 99ac2f9a6b220b43
random_goto_6_rev_5 4f94c33d9f4db1b7 ab10ed7e9843c097
random_goto_6_rev_70 f81cb5e121f15d39 3316f8ccc49e98de
random_goto_7_fwd_5 8615bd2de1bef0af cc49e573008bfcd6
random_goto_7_fwd_70 7e802fce9c9d7407 798ade7a4d62095c
random_goto_7_rev_5 a522ad906096f8ed 40d69e0cf0f65c45
random_goto_7_rev_70 7bb87c4da1ea32af 21b7b3673da8ba2b
random_goto_8_fwd_5 3b00521f44005fc9 03efcd71bfbdd011
random_goto_8_fwd_70 bf768b79adcd4b92 44d190f987c134e0
random_goto_8_rev_5 498f6ac88edcb967 40d69e0cf0f65c45
random_goto_8_rev_70 e856be7fc2468799 5f9c391e866dafa7
random_goto_9_fwd_5 e99e7023461cf533 359bbe4066dd757a
random_goto_9_fwd_70 7e0600524b659aa4 79b1b5a61aa219fd
random_goto_9_rev_5 3eb41b6be71fba1a d39a12628df446d6
random_goto_9_rev_70 29082704d456df1c 01f7764cabb0ed1a
random_goto_10_fwd_5 c30aeac37b2760e5 40d69e0cf0f65c45
random_goto_10_fwd_70 cd6f38b7bdac37a4 5bc55531ccfadfb8
random_goto_10_rev_5 3445936cd0b57057 40d69e0cf0f65c45
random_goto_10_rev_70 ed4202b66dee31fa 10f07a9003bf8b57
random_goto_11_fwd_5 df2a34ed19874dd2 bef78d4db1bfb329
random_goto_11_fwd_70 81763dd1f7ffcb1c bb3044d3f0402f98
random_goto_11_rev_5 1cc31f2a97802bf7 40d69e0cf0f65c45
random_goto_11_rev_70 ed0d15fab97e240e 2be28b31aa45effc
";

/// SplitMix64: a few random bits without a dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Adds a production of a random item at about one slot in `per`, and
/// drops every set production at about one slot in `per`.
fn perturb(flavor: &mut FlavorSolution, cap: usize, per: u64, rng: &mut u64) {
    for sets in [&mut flavor.res_in, &mut flavor.res_out] {
        for set in sets.iter_mut() {
            if next(rng).is_multiple_of(per) {
                set.insert((next(rng) % cap as u64) as usize);
            }
            if next(rng).is_multiple_of(per) {
                set.clear();
            }
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, x: u64) {
        self.eat(&x.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.eat(s.as_bytes());
    }

    fn node(&mut self, node: Option<NodeId>) {
        self.num(node.map_or(u64::MAX, |n| u64::from(n.0)));
    }
}

/// Folds `diags` into `h` and counts them per code into `fired`.
fn digest(h: &mut Fnv, diags: &[Diagnostic], fired: &mut BTreeMap<&'static str, usize>) {
    h.num(diags.len() as u64);
    for d in diags {
        *fired.entry(d.code).or_default() += 1;
        h.text(d.code);
        h.text(&format!("{:?}", d.severity));
        h.node(d.node);
        h.num(d.item.map_or(u64::MAX, |i| i as u64));
        h.text(&d.message);
        h.num(d.notes.len() as u64);
        for note in &d.notes {
            h.text(note);
        }
        h.num(d.related.len() as u64);
        for r in &d.related {
            h.text(&r.message);
            h.node(r.node);
        }
    }
}

/// One input: a graph, a problem over it and the item names to render.
struct Case {
    graph: IntervalGraph,
    problem: PlacementProblem,
    names: Vec<String>,
}

/// The communication analysis's READ problem of `program`, arrays
/// auto-detected as the driver does.
fn analyzed(program: &Program) -> Case {
    let distributed = detect_distributed(program);
    let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
    let analysis = analyze(program, &CommConfig::distributed(&refs)).expect("program analyzes");
    let names = analysis
        .universe
        .iter()
        .map(|(_, r)| r.to_string())
        .collect();
    Case {
        graph: analysis.graph.clone(),
        problem: analysis.read_problem.clone(),
        names,
    }
}

/// A straight-line prelude before a consuming loop: the solver hoists
/// the transfer start to the top, so a late start leaves slack.
fn prelude_case() -> Case {
    analyzed(
        &gnt_ir::parse("a = 1\nb = 2\nc = 3\nd = 4\ne = 5\ndo k = 1, N\n  ... = x(a(k))\nenddo")
            .expect("parses"),
    )
}

/// A free `GIVE_init` of item 0 on the first statement covers the
/// consumers of item 0 further down; item 1 is consumed with no give.
fn free_give_case() -> Case {
    let program = gnt_ir::parse("a = 1\nb = 2\nc = 3\nd = 4").expect("parses");
    let graph = IntervalGraph::from_program(&program).expect("reducible");
    let stmts: Vec<NodeId> = graph
        .nodes()
        .filter(|&n| graph.kind(n).stmt().is_some())
        .collect();
    let mut problem = PlacementProblem::new(graph.num_nodes(), 2);
    problem
        .give(stmts[0], 0)
        .take(stmts[2], 0)
        .take(stmts[3], 0)
        .take(stmts[3], 1);
    Case {
        graph,
        problem,
        names: Vec::new(),
    }
}

fn cases() -> Vec<(String, Case)> {
    let mut out = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "minif"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("example source");
        let name = path.file_name().expect("file name").to_string_lossy();
        let program = gnt_ir::parse(&text).expect("example parses");
        out.push((name.into_owned(), analyzed(&program)));
    }
    out.push(("sized_60".into(), analyzed(&sized_program(60))));
    out.push(("prelude".into(), prelude_case()));
    out.push(("free_give".into(), free_give_case()));
    for (tag, goto_prob) in [("nogoto", 0.0), ("goto", 0.1)] {
        let config = GenConfig {
            goto_prob,
            loop_prob: 0.45,
            ..GenConfig::default()
        };
        for seed in 0..12u64 {
            let graph =
                IntervalGraph::from_program(&random_program(seed, &config)).expect("reducible");
            let reversed = reversed_graph(&graph).expect("reversible");
            for (dir, graph) in [("fwd", graph), ("rev", reversed)] {
                for cap in [5, 70] {
                    let problem = random_problem(seed * 131 + cap as u64, &graph, cap, 0.25);
                    out.push((
                        format!("random_{tag}_{seed}_{dir}_{cap}"),
                        Case {
                            graph: graph.clone(),
                            problem,
                            names: Vec::new(),
                        },
                    ));
                }
            }
        }
    }
    out
}

/// The table of digests, one line per input (lint, then audit), and how
/// often each code fired over all inputs.
fn table() -> (String, BTreeMap<&'static str, usize>) {
    let mut out = String::new();
    let mut fired = BTreeMap::new();
    let mut rng = 0x5eed_0f0e_d161_e575;
    for (name, case) in cases() {
        let Case {
            graph,
            problem,
            names,
        } = &case;
        let cap = problem.universe_size;
        let mut sol = solve(graph, problem, &SolverOptions::default());
        shift_off_synthetic(graph, &mut sol.eager);
        shift_off_synthetic(graph, &mut sol.lazy);
        let (eager, lazy) = (sol.eager, sol.lazy);
        let mut variants = vec![
            (eager.clone(), lazy.clone()),
            (lazy.clone(), lazy.clone()),
            (eager.clone(), eager.clone()),
        ];
        if cap > 0 {
            for per in [4, 9] {
                let (mut e, mut l) = (eager.clone(), lazy.clone());
                perturb(&mut e, cap, per, &mut rng);
                perturb(&mut l, cap, per, &mut rng);
                variants.push((e, l));
            }
        }
        let lint_opts = PlacementLintOptions {
            item_names: names.clone(),
            ..PlacementLintOptions::default()
        };
        let audit_opts = AuditOptions {
            item_names: names.clone(),
            ..AuditOptions::default()
        };
        let (mut lint, mut audit) = (Fnv(0xcbf2_9ce4_8422_2325), Fnv(0xcbf2_9ce4_8422_2325));
        for (e, l) in &variants {
            let found = lint_placement(graph, problem, e, l, &lint_opts);
            digest(&mut lint, &found, &mut fired);
            let found = audit_placement(graph, problem, e, l, &audit_opts);
            digest(&mut audit, &found, &mut fired);
        }
        out.push_str(&format!("{name} {:016x} {:016x}\n", lint.0, audit.0));
    }
    (out, fired)
}

#[test]
fn optimality_findings_match_the_recorded_digests() {
    let (computed, fired) = table();
    // The table pins the optimality checkers only if each of their codes
    // fires somewhere.
    for code in ["GNT005", "GNT006", "GNT007", "GNT031", "GNT032"] {
        assert!(
            fired.get(code).is_some_and(|&n| n > 0),
            "{code} never fires: {fired:?}"
        );
    }
    assert!(
        computed == GOLDEN,
        "optimality digests moved ({fired:?}); computed table:\n{computed}"
    );
}
