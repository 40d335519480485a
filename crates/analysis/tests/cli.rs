//! Integration tests for the `gnt-lint` binary: exit codes, `--deny`,
//! output formats, and the registry subcommands.

use std::path::PathBuf;
use std::process::{Command, Output};

const FIG1: &str = "do i = 1, N\n  y(i) = ...\nenddo\n\
                    if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
                    else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif";

fn write_fixture(name: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gnt-lint-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, src).expect("fixture written");
    path
}

fn gnt_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gnt-lint"))
        .args(args)
        .output()
        .expect("gnt-lint runs")
}

#[test]
fn clean_program_exits_zero() {
    let file = write_fixture("fig1.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("clean"), "stdout: {stdout}");
}

#[test]
fn zero_trip_warnings_do_not_fail_by_default() {
    let file = write_fixture("fig1.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--zero-trip"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("warning[GNT"), "stdout: {stdout}");
    assert!(
        stdout.contains("-->"),
        "rustc-style span line, stdout: {stdout}"
    );
}

#[test]
fn denied_warning_exits_nonzero() {
    let file = write_fixture("fig1.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--zero-trip", "--deny", "GNT003"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn deny_all_denies_every_warning() {
    let file = write_fixture("fig1.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--zero-trip", "--deny", "all"]);
    assert_eq!(out.status.code(), Some(1));
    // Without findings, --deny all still exits 0.
    let out = gnt_lint(&[file.to_str().unwrap(), "--deny", "all"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_deny_code_exits_two() {
    let file = write_fixture("fig1.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--deny", "GNT999"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("GNT999"));
}

#[test]
fn json_format_is_machine_readable() {
    let file = write_fixture("fig1.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--zero-trip", "--format=json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "stdout: {stdout}"
    );
    assert!(trimmed.contains("\"code\":\"GNT003\""), "stdout: {stdout}");
    assert!(
        trimmed.contains("\"severity\":\"warning\""),
        "stdout: {stdout}"
    );
    assert!(trimmed.contains("\"notes\":["), "stdout: {stdout}");
}

#[test]
fn missing_file_exits_two() {
    let out = gnt_lint(&["/nonexistent/gnt-lint-test.minif"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
}

#[test]
fn parse_error_exits_two() {
    let file = write_fixture("broken.minif", "do i = 1, N\n  a = 1\n");
    let out = gnt_lint(&[file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn unknown_flag_exits_two() {
    let out = gnt_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn explain_and_list_codes() {
    let out = gnt_lint(&["--explain", "GNT004"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("GNT004"), "stdout: {stdout}");
    assert!(
        stdout.to_lowercase().contains("redundant"),
        "stdout: {stdout}"
    );

    let out = gnt_lint(&["--list-codes"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for code in [
        "GNT001", "GNT007", "GNT010", "GNT011", "GNT012", "GNT020", "GNT021", "GNT022",
    ] {
        assert!(stdout.contains(code), "missing {code} in: {stdout}");
    }
}

#[test]
fn dot_overlay_is_written() {
    let file = write_fixture("fig1.minif", FIG1);
    let dot = std::env::temp_dir()
        .join("gnt-lint-cli-tests")
        .join("fig1.dot");
    let out = gnt_lint(&[
        file.to_str().unwrap(),
        "--zero-trip",
        "--dot",
        dot.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let dot_src = std::fs::read_to_string(&dot).expect("dot file written");
    assert!(dot_src.contains("digraph"), "dot: {dot_src}");
    assert!(
        dot_src.contains("GNT003"),
        "overlay marks findings: {dot_src}"
    );
}

#[test]
fn why_query_prints_a_validated_chain() {
    let file = write_fixture("fig1_why.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--why", "0:x(a(1:N))"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.contains("why RES_in^eager(n0) contains"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("root:"), "stdout: {stdout}");
    assert!(stdout.contains("Eq."), "stdout: {stdout}");
}

#[test]
fn why_not_query_explains_an_absence() {
    let src = "do i = 1, N\n  a(i) = ...\n  ... = x(a(i))\nenddo";
    let file = write_fixture("why_not.minif", src);
    let out = gnt_lint(&[file.to_str().unwrap(), "--why-not", "2:a(1:N):res_in.lazy"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("does NOT contain"), "stdout: {stdout}");
    assert!(stdout.contains("blocked by"), "stdout: {stdout}");
}

#[test]
fn malformed_why_spec_exits_two() {
    let file = write_fixture("fig1_why.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--why", "not-a-spec"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sarif_format_emits_a_valid_shell() {
    let file = write_fixture("fig1_sarif.minif", FIG1);
    let out = gnt_lint(&[file.to_str().unwrap(), "--zero-trip", "--format=sarif"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("\"version\":\"2.1.0\""), "stdout: {stdout}");
    assert!(stdout.contains("\"rules\":"), "stdout: {stdout}");
    assert!(stdout.contains("GNT003"), "stdout: {stdout}");
    assert!(
        stdout.contains("\"relatedLocations\":"),
        "blame trail attached: {stdout}"
    );
}

#[test]
fn list_codes_groups_by_family() {
    let out = gnt_lint(&["--list-codes"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for family in ["[correctness]", "[comm-safety]", "[optimality-audit]"] {
        assert!(stdout.contains(family), "missing {family} in: {stdout}");
    }
    for code in ["GNT030", "GNT031", "GNT032"] {
        assert!(stdout.contains(code), "missing {code} in: {stdout}");
    }
    // Audit codes are listed under their family header, after it.
    let family_at = stdout.find("[optimality-audit]").unwrap();
    let code_at = stdout.find("GNT030").unwrap();
    assert!(
        code_at > family_at,
        "GNT030 listed before its header: {stdout}"
    );
}

/// Writes fixtures into a dedicated subdirectory (for directory-walk
/// tests that must see only their own files).
fn write_dir_fixture(dir_name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("gnt-lint-cli-tests")
        .join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, src) in files {
        let path = dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("nested dir");
        }
        std::fs::write(&path, src).expect("fixture written");
    }
    dir
}

#[test]
fn multiple_files_lint_in_argument_order() {
    let a = write_fixture("multi_a.minif", FIG1);
    let b = write_fixture("multi_b.minif", FIG1);
    let out = gnt_lint(&[b.to_str().unwrap(), a.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let b_at = stdout.find("multi_b.minif").expect("b reported");
    let a_at = stdout.find("multi_a.minif").expect("a reported");
    assert!(b_at < a_at, "argument order preserved: {stdout}");
}

#[test]
fn directory_walk_lints_every_minif_sorted() {
    let dir = write_dir_fixture(
        "walk",
        &[
            ("zz.minif", FIG1),
            ("aa.minif", FIG1),
            ("nested/mid.minif", FIG1),
            ("ignored.txt", "not minif"),
        ],
    );
    let out = gnt_lint(&[dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let aa = stdout.find("aa.minif").expect("aa linted");
    let mid = stdout.find("mid.minif").expect("nested file linted");
    let zz = stdout.find("zz.minif").expect("zz linted");
    assert!(aa < mid && mid < zz, "sorted path order: {stdout}");
    assert!(!stdout.contains("ignored.txt"), "stdout: {stdout}");
}

#[test]
fn empty_directory_exits_two() {
    let dir = write_dir_fixture("empty_walk", &[("readme.txt", "no programs here")]);
    let out = gnt_lint(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no .minif files"));
}

#[test]
fn batch_exit_code_is_the_per_file_maximum() {
    // Clean + parse error: the parse failure (2) wins, but the clean
    // file still reports.
    let good = write_fixture("agg_good.minif", FIG1);
    let bad = write_fixture("agg_bad.minif", "do i = 1, N\n  a = 1\n");
    let out = gnt_lint(&[good.to_str().unwrap(), bad.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}");
    assert!(stdout.contains("agg_good.minif: clean"), "stdout: {stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("agg_bad.minif"),
        "stderr names the failing file"
    );

    // Clean + denied findings: denied (1) wins over clean (0).
    let out = gnt_lint(&[
        good.to_str().unwrap(),
        good.to_str().unwrap(),
        "--zero-trip",
        "--deny",
        "all",
    ]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn batch_output_is_identical_across_jobs_counts() {
    let dir = write_dir_fixture(
        "jobs_det",
        &[
            ("p0.minif", FIG1),
            ("p1.minif", FIG1),
            ("p2.minif", FIG1),
            ("p3.minif", FIG1),
        ],
    );
    let base = gnt_lint(&[dir.to_str().unwrap(), "--zero-trip", "--format=json"]);
    for jobs in ["1", "2", "8"] {
        let out = gnt_lint(&[
            dir.to_str().unwrap(),
            "--zero-trip",
            "--format=json",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out.status.code(), base.status.code());
        assert_eq!(
            out.stdout, base.stdout,
            "byte-identical diagnostics at --jobs {jobs}"
        );
    }
}

#[test]
fn multi_file_json_is_one_flat_array() {
    let a = write_fixture("json_a.minif", FIG1);
    let b = write_fixture("json_b.minif", FIG1);
    let out = gnt_lint(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--zero-trip",
        "--format=json",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "single array: {stdout}"
    );
    assert_eq!(
        trimmed.matches('[').count()
            - trimmed.matches("\"notes\":[").count()
            - trimmed.matches("\"related\":[").count(),
        1,
        "no spliced arrays: {stdout}"
    );
    assert!(stdout.contains("json_a.minif"), "stdout: {stdout}");
    assert!(stdout.contains("json_b.minif"), "stdout: {stdout}");
}

#[test]
fn multi_file_sarif_is_one_run() {
    let a = write_fixture("sarif_a.minif", FIG1);
    let b = write_fixture("sarif_b.minif", FIG1);
    let out = gnt_lint(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--zero-trip",
        "--format=sarif",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert_eq!(
        stdout.matches("\"$schema\"").count(),
        1,
        "one log document: {stdout}"
    );
    assert_eq!(
        stdout.matches("\"tool\"").count(),
        1,
        "one run, one tool: {stdout}"
    );
    assert!(stdout.contains("sarif_a.minif"), "stdout: {stdout}");
    assert!(stdout.contains("sarif_b.minif"), "stdout: {stdout}");
}

#[test]
fn point_queries_require_exactly_one_input() {
    let a = write_fixture("q_a.minif", FIG1);
    let b = write_fixture("q_b.minif", FIG1);
    for flag in [
        &["--why", "0:0"][..],
        &["--why-not", "0:0"][..],
        &["--dot", "/tmp/gnt-lint-cli-tests/q.dot"][..],
    ] {
        let mut args = vec![a.to_str().unwrap(), b.to_str().unwrap()];
        args.extend_from_slice(flag);
        let out = gnt_lint(&args);
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("exactly one input"),
            "{flag:?}"
        );
    }
}

#[test]
fn explain_prints_the_family() {
    let out = gnt_lint(&["--explain", "GNT031"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        stdout.contains("family: optimality-audit"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.to_lowercase().contains("latency"),
        "stdout: {stdout}"
    );
}

/// `--profile` counts the bounded paths the lint layers replayed and the
/// enumerations cut short at `MAX_PATHS` (256). Figure 1 has 18 paths
/// (three loops run 0, 1 or 2 times, two of them on exclusive branches),
/// 8 of them without a zero trip: the plan replay takes those 8 by
/// default; with `--zero-trip` it takes all 18 and the placement pass the
/// other 10. Six sequential loops have 3^6 = 729 paths, so every
/// enumeration is truncated. Next come the O1 fixpoints' rounds, 3 for
/// READ plus 3 for WRITE: in each, one sweep in preorder settles these
/// loops of depth 1, a second one carries availability around their
/// CYCLE edges, and a third confirms. No loop here is left by a `goto`,
/// so no WRITE verdict is reused.
#[test]
fn profile_line_counts_replayed_and_truncated_paths() {
    let fig1 = write_fixture("fig1.minif", FIG1);
    let six_loops: String = ["i", "j", "k", "l", "m", "n"]
        .iter()
        .map(|v| format!("do {v} = 1, N\n  y({v}) = x({v})\nenddo\n"))
        .collect();
    let six = write_fixture("six_loops.minif", &six_loops);
    for (file, zero_trip, replayed, truncated) in [
        (&fig1, false, 8, 0),
        (&fig1, true, 28, 0),
        (&six, false, 39, 1),
        (&six, true, 473, 2),
    ] {
        let mut args = vec![file.to_str().unwrap(), "--profile"];
        if zero_trip {
            args.push("--zero-trip");
        }
        let out = gnt_lint(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = stderr.lines().next().unwrap_or_default();
        let expected = format!(
            "\"paths_replayed\":{replayed},\"enumerations_truncated\":{truncated},\"o1_rounds\":6,\
             \"checks_reused\":0}}"
        );
        assert!(
            line.ends_with(&expected),
            "{} (zero-trip {zero_trip}): {line}",
            file.display()
        );
    }
}

/// The `--profile` line of `file` under the extra `args`, asserting the
/// run exits with `code`.
fn profile_line(file: &std::path::Path, args: &[&str], code: i32) -> String {
    let mut argv = vec![file.to_str().unwrap(), "--profile"];
    argv.extend_from_slice(args);
    let out = gnt_lint(&argv);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{argv:?}: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr.lines().next().unwrap_or_default().to_string()
}

/// The value of the integer field `key` in a `--profile` line.
fn profile_field(line: &str, key: &str) -> u64 {
    line.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {line}"))
}

/// The O1 must-availability fixpoint sweeps in preorder, so its round
/// count is bounded by the loop nesting depth, not by the file size: 500
/// sibling loop nests of depth 2 settle within depth + 3 rounds, in the
/// READ fixpoint (`--before`) and in the WRITE one (`--after`) alike. A
/// sweep in node-id order needed a round count that grew with the file.
#[test]
fn profile_o1_rounds_stay_bounded_by_loop_depth() {
    const DEPTH: u64 = 2;
    let src: String = (0..500)
        .map(|k| {
            format!("do i{k} = 1, N\n  do j{k} = 1, M\n    y(j{k}) = x(a(i{k}))\n  enddo\nenddo\n")
        })
        .collect();
    let file = write_fixture("sibling_loops.minif", &src);
    for select in ["--before", "--after"] {
        let line = profile_line(&file, &[select], 0);
        let rounds = profile_field(&line, "o1_rounds");
        assert!(
            (1..=DEPTH + 3).contains(&rounds),
            "{rounds} O1 rounds over 500 sibling loops ({select}): {line}"
        );
    }
}

/// The `--profile` line times lowering plus the interval graph
/// (`cfg_ns`) apart from the communication analysis that walks them
/// (`analyze_ns`, printed right after it), the reversed graph of the
/// WRITE problem has a stage of its own (`reverse_ns`), so do Layer 2's
/// placement criteria (`criteria_ns`), and `total_ns` is the sum of the
/// eight stage times.
#[test]
fn profile_splits_the_graph_from_the_comm_analysis() {
    let file = write_fixture("fig1_stages.minif", FIG1);
    let line = profile_line(&file, &[], 0);
    let keys: Vec<&str> = line
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|k| k.ends_with("_ns"))
        .collect();
    assert_eq!(
        keys,
        [
            "parse_ns",
            "cfg_ns",
            "analyze_ns",
            "reverse_ns",
            "solve_ns",
            "generate_ns",
            "criteria_ns",
            "lint_ns",
            "total_ns"
        ],
        "{line}"
    );
    let stages: u64 = keys[..8].iter().map(|k| profile_field(&line, k)).sum();
    assert_eq!(profile_field(&line, "total_ns"), stages, "{line}");
    assert!(profile_field(&line, "analyze_ns") > 0, "{line}");
    assert!(profile_field(&line, "reverse_ns") > 0, "{line}");
    assert!(profile_field(&line, "criteria_ns") > 0, "{line}");
}

/// A lint solves each problem once, inside plan generation, and lints the
/// solutions the plan was emitted from; a problem is solved a second time
/// only to blame the findings its placement lint reported. Clean Figure 1
/// takes 2 solves; with `--zero-trip` its READ placement draws two
/// warnings, so READ is re-derived for their trails, and WRITE is not.
/// A `goto` out of a loop ahead of its write makes the optimistic WRITE
/// solve fail its checks, and the poisoned fallback solve counts too.
/// Every solve of a lint is a full walk of the schedule, so the line
/// carries no delta re-solve counts, which would always read 0.
#[test]
fn profile_counts_one_solve_per_problem() {
    let fig1 = write_fixture("fig1_solves.minif", FIG1);
    for (args, solves) in [
        (&[][..], 2),
        (&["--zero-trip"][..], 3),
        (&["--zero-trip", "--after"][..], 2),
    ] {
        let line = profile_line(&fig1, args, 0);
        assert_eq!(profile_field(&line, "solves"), solves, "{args:?}: {line}");
        assert_eq!(
            profile_field(&line, "direct_solves"),
            solves,
            "{args:?}: {line}"
        );
        for key in ["deltas_incremental", "deltas_declined"] {
            assert!(!line.contains(key), "{args:?}: {line}");
        }
    }
    let goto = write_fixture(
        "goto_before_write.minif",
        "do j = 1, N\n  if t(j) goto 99\n  x(a(j)) = ...\nenddo\n99 continue\n",
    );
    let line = profile_line(&goto, &[], 0);
    // Every key after `file`, in print order.
    let keys: Vec<&str> = line.split('"').skip(1).step_by(2).skip(2).collect();
    assert_eq!(
        keys,
        [
            "parse_ns",
            "cfg_ns",
            "analyze_ns",
            "reverse_ns",
            "solve_ns",
            "generate_ns",
            "criteria_ns",
            "lint_ns",
            "total_ns",
            "solves",
            "direct_solves",
            "paths_replayed",
            "enumerations_truncated",
            "o1_rounds",
            "checks_reused"
        ],
        "{line}"
    );
    assert_eq!(profile_field(&line, "solves"), 3, "{line}");
    assert_eq!(profile_field(&line, "direct_solves"), 3, "{line}");
    for key in ["deltas_incremental", "deltas_declined"] {
        assert!(!line.contains(key), "{line}");
    }
}

/// The WRITE solve checks its optimistic attempt against C1 and C3 when a
/// loop is left by a `goto` (§5.3). When that check passes, it checked
/// the very WRITE rows Layer 2 lints, and Layer 2 takes its verdict:
/// `checks_reused` is 1 for a `goto` after the write. It is 0 when the
/// check fails and the poisoned fallback serves the plan (a `goto` ahead
/// of the write, `solves` 3), and 0 under `--before`, which lints no
/// WRITE placement. Either way the lint stays clean.
#[test]
fn profile_counts_the_reused_write_verdict() {
    let after = write_fixture(
        "goto_after_write.minif",
        "do i = 1, N
  x(a(i)) = ...
  if t(i) goto 7
enddo
7 b = 2
",
    );
    let before = write_fixture(
        "goto_ahead_of_write.minif",
        "do j = 1, N
  if t(j) goto 99
  x(a(j)) = ...
enddo
99 continue
",
    );
    for (file, args, solves, reused) in [
        (&after, &[][..], 2, 1),
        (&after, &["--after"][..], 2, 1),
        (&after, &["--before"][..], 2, 0),
        (&before, &[][..], 3, 0),
        (&before, &["--before"][..], 3, 0),
    ] {
        let line = profile_line(file, args, 0);
        let what = format!("{} {args:?}: {line}", file.display());
        assert_eq!(profile_field(&line, "solves"), solves, "{what}");
        assert_eq!(profile_field(&line, "checks_reused"), reused, "{what}");
    }
}

/// `--after` queries explain the WRITE solve the plan was emitted from:
/// the coupled problem, in which Figure 3's placed READs steal the
/// pending write-back. There the eager write-back of `x(a(1:N))` starts
/// at the first loop's header (reversed node 3) — in the uncoupled
/// problem it does not, and starts at node 11 instead.
#[test]
fn after_queries_explain_the_coupled_write_solve() {
    let fig3 = format!("{}/../../examples/fig3.minif", env!("CARGO_MANIFEST_DIR"));
    let out = gnt_lint(&[&fig3, "--after", "--why", "3:x(a(1:N)):res_in"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.starts_with("why RES_in^eager(n3) contains x(a(1:N)):"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("root: TAKE_init"), "stdout: {stdout}");
    let out = gnt_lint(&[&fig3, "--after", "--why-not", "11:x(a(1:N)):res_in"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.starts_with("why RES_in^eager(n11) does NOT contain x(a(1:N)):"),
        "stdout: {stdout}"
    );
}

/// `blocks` nested blocks, `do` loops alternating with `if`/`else` and a
/// `goto` out of the nest, around a gather whose subscript adds one more
/// level; `blocks + 1` levels in all.
fn deep_nest(blocks: usize) -> String {
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

/// The deepest nest the parser accepts lints cleanly on the main thread
/// and, in a directory, on pool worker threads (whose stacks are smaller);
/// one level more is a parse error naming the limit (exit 2), not a stack
/// overflow.
#[test]
fn nesting_at_the_limit_lints_alone_and_in_a_directory() {
    let limit = gnt_ir::MAX_NESTING_DEPTH;
    let dir = std::env::temp_dir().join("gnt-lint-cli-tests").join("deep");
    for (blocks, code) in [(limit - 1, 0), (limit, 2)] {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let src = deep_nest(blocks);
        for k in 0..4 {
            std::fs::write(dir.join(format!("deep{k}.minif")), &src).expect("fixture written");
        }
        let file = dir.join("deep0.minif");
        let dir_arg = dir.to_str().unwrap();
        for args in [&[file.to_str().unwrap()][..], &[dir_arg, "--jobs", "4"][..]] {
            let out = gnt_lint(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(code),
                "{blocks} blocks, {args:?}: {stderr}"
            );
            if code == 2 {
                assert!(
                    stderr.contains(&format!("nesting deeper than {limit} levels")),
                    "{stderr}"
                );
            }
        }
    }
}

/// A reader that closes the pipe early (`gnt-lint … | head -c 10`) ends
/// the report quietly: the exit code is the batch's, not a panic's.
#[test]
fn closed_stdout_pipe_is_not_a_panic() {
    use std::io::Read;
    use std::process::Stdio;
    let fig1 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig1.minif");
    // Far more report than a pipe buffers, so writes outlive the reader.
    let mut child = Command::new(env!("CARGO_BIN_EXE_gnt-lint"))
        .args(std::iter::repeat_n(fig1, 3000))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gnt-lint runs");
    let mut head = [0u8; 10];
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_exact(&mut head).expect("some report");
    drop(stdout);
    let out = child.wait_with_output().expect("gnt-lint exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
