//! Communication-plan lints: dead and redundant transfers, and the
//! static race/deadlock detector over `gnt-comm` output.
//!
//! The detector replays a [`CommPlan`]'s before/after operation slots
//! along bounded execution paths of the interval flow graph, using the
//! same edge-aware firing rules as the `gnt-core` verifiers (a loop
//! header's before-slot runs once, on entry from outside the loop; its
//! after-slot runs when leaving along a FORWARD/JUMP exit edge). Each
//! `Send` opens a per-item *in-flight window* that the matching `Recv`
//! closes:
//!
//! * a window still open at the end of a path is a **message leak**
//!   (`GNT020`),
//! * a `Recv` with no open window is a **deadlock potential** — the
//!   receive blocks on a message no one sent on this path (`GNT021`),
//! * two concurrently open windows whose section footprints
//!   [`DataRef::may_overlap`](gnt_sections::DataRef::may_overlap) with
//!   at least one write-side transfer involved are a **communication
//!   race** (`GNT022`),
//! * a `Send` of data already in flight or still locally available is
//!   **redundant communication** (`GNT012`),
//! * a transfer whose item is never consumed by any statement, or a
//!   send kind with no matching receive kind anywhere in the plan, is
//!   **dead communication** (`GNT011`).

use crate::diag::Diagnostic;
use crate::driver::StageTimings;
use crate::{MAX_EDGE_VISITS, MAX_PATHS};
use gnt_cfg::{EdgeClass, NodeId};
use gnt_comm::{CommOp, CommPlan, OpKind};
use gnt_core::{for_each_path, path_has_zero_trip, Path};
use gnt_dataflow::{BitSet, ItemId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Which side of the owner/referencer protocol an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Family {
    /// Write-backs and reductions (owner receives).
    Write,
    /// Reads (owner sends).
    Read,
}

fn family(kind: OpKind) -> Family {
    match kind {
        OpKind::ReadSend | OpKind::ReadRecv | OpKind::ReadAtomic => Family::Read,
        _ => Family::Write,
    }
}

/// Options for [`lint_plan`].
#[derive(Clone, Debug)]
pub struct CommLintOptions {
    /// Replay read-side operations (`READ_send`/`READ_recv`).
    pub reads: bool,
    /// Replay write-side operations (`WRITE_*`, `REDUCE_*`).
    pub writes: bool,
    /// Also replay zero-trip paths (reporting findings as warnings).
    pub zero_trip: bool,
}

impl Default for CommLintOptions {
    fn default() -> Self {
        CommLintOptions {
            reads: true,
            writes: true,
            zero_trip: false,
        }
    }
}

/// One finding of the path replay, recorded as a key-sized record and
/// rendered into a [`Diagnostic`] only the first time its key is seen.
#[derive(Clone, Copy, Debug)]
enum Finding {
    /// `GNT012`: a send while the same window is still open.
    InFlight { item: ItemId, node: NodeId },
    /// `GNT012`: a read send of an item that is still locally available.
    Available { item: ItemId, node: NodeId },
    /// `GNT022`: a send overlapping the open window of `other`, which
    /// opened at `since`.
    Race {
        item: ItemId,
        node: NodeId,
        other: ItemId,
        since: NodeId,
    },
    /// `GNT021`: a receive with no open window.
    Deadlock { item: ItemId, node: NodeId },
    /// `GNT020`: a window still open at the end of the path.
    Leak { item: ItemId, node: NodeId },
}

impl Finding {
    /// The deduplication key: one diagnostic per code, item and node.
    fn key(self) -> (&'static str, u32, u32) {
        let (code, item, node) = match self {
            Finding::InFlight { item, node } | Finding::Available { item, node } => {
                ("GNT012", item, node)
            }
            Finding::Race { item, node, .. } => ("GNT022", item, node),
            Finding::Deadlock { item, node } => ("GNT021", item, node),
            Finding::Leak { item, node } => ("GNT020", item, node),
        };
        (code, item.0, node.0)
    }

    fn render(self, plan: &CommPlan) -> Diagnostic {
        let name = |item: ItemId| plan.analysis.universe.resolve(item);
        let (diagnostic, item, node) = match self {
            Finding::InFlight { item, node } => (
                Diagnostic::warning(
                    "GNT012",
                    format!("{} is re-sent while already in flight", name(item)),
                ),
                item,
                node,
            ),
            Finding::Available { item, node } => (
                Diagnostic::warning(
                    "GNT012",
                    format!(
                        "{} is re-communicated although it is already locally available",
                        name(item)
                    ),
                ),
                item,
                node,
            ),
            Finding::Race {
                item,
                node,
                other,
                since,
            } => (
                Diagnostic::error(
                    "GNT022",
                    format!(
                        "{} is sent while overlapping {} is still in flight",
                        name(item),
                        name(other)
                    ),
                )
                .note(format!("the conflicting transfer started at node {since}"))
                .note("read and write transfers of aliasing sections must not overlap in time"),
                item,
                node,
            ),
            Finding::Deadlock { item, node } => (
                Diagnostic::error(
                    "GNT021",
                    format!(
                        "receive of {} is reachable before its send on some path",
                        name(item)
                    ),
                )
                .note("the receive blocks forever if the message was never sent (deadlock)"),
                item,
                node,
            ),
            Finding::Leak { item, node } => (
                Diagnostic::error(
                    "GNT020",
                    format!(
                        "message for {} is sent but never received on some path",
                        name(item)
                    ),
                )
                .note("an unmatched eager send leaks the message buffer"),
                item,
                node,
            ),
        };
        diagnostic.at(node).for_item(item.index())
    }
}

/// The plan lint's output: diagnostics deduplicated on
/// [`Finding::key`]-shaped keys.
struct Findings<'a> {
    plan: &'a CommPlan,
    seen: BTreeSet<(&'static str, u32, u32)>,
    out: Vec<Diagnostic>,
    /// The path being replayed runs some loop zero times: findings are
    /// downgraded to warnings.
    zero_trip_path: bool,
}

impl Findings<'_> {
    fn report(&mut self, finding: Finding) {
        if !self.seen.insert(finding.key()) {
            return;
        }
        let mut d = finding.render(self.plan);
        if self.zero_trip_path {
            d.severity = crate::diag::Severity::Warning;
            d.notes.push(
                "only when a loop runs zero iterations (the paper assumes \u{2265}1 trip, \u{a7}2)"
                    .to_string(),
            );
        }
        self.out.push(d);
    }
}

/// Replay state. Paths come depth-first and share long prefixes, so the
/// state reached right before each node's after-slot on the previous
/// path is kept, and the next path resumes where it leaves that one.
/// Skipping the shared prefix loses no finding: replaying it again
/// would only rediscover keys already reported.
struct Replay<'a> {
    plan: &'a CommPlan,
    opts: &'a CommLintOptions,
    /// Open in-flight windows, sorted by (item, family), with the node
    /// that sent.
    open: Vec<((ItemId, Family), NodeId)>,
    /// Items whose read transfer completed and is still valid.
    avail: BitSet,
    findings: Findings<'a>,
    /// The previous path.
    path: Vec<NodeId>,
    /// Per node `k` of `path`: the `avail` words right before its
    /// after-slot.
    saved_avail: Vec<u64>,
    /// Per node `k` of `path`: `open` right before its after-slot, as
    /// `saved_open[saved_ends[k - 1]..saved_ends[k]]`.
    saved_open: Vec<((ItemId, Family), NodeId)>,
    saved_ends: Vec<usize>,
}

impl Replay<'_> {
    /// Replays `path`; `zero` marks a path that runs some loop zero
    /// times.
    fn run(&mut self, path: &Path, zero: bool) {
        let graph = &self.plan.analysis.graph;
        let plan = self.plan;
        self.findings.zero_trip_path = zero;
        let shared = self
            .path
            .iter()
            .zip(path)
            .take_while(|(a, b)| a == b)
            .count();
        // Resume at the last shared node's after-slot (whether it fires
        // at a loop header depends on the successor), or start afresh.
        let start = match shared.checked_sub(1) {
            Some(k) => {
                self.rewind(k);
                k
            }
            None => {
                self.open.clear();
                self.avail.clear();
                self.saved_avail.clear();
                self.saved_open.clear();
                self.saved_ends.clear();
                0
            }
        };
        let mut in_class = None;
        for (k, &node) in path.iter().enumerate().skip(start) {
            let i = node.index();
            let out_class = path
                .get(k + 1)
                .and_then(|&next| graph.edge_class(node, next));
            if k >= shared {
                if in_class != Some(EdgeClass::Cycle) {
                    for &op in &plan.before[i] {
                        self.apply(op, node);
                    }
                }
                // Statement execution: invalidations (STEAL) expire local
                // availability of overwritten/renormalized sections.
                self.avail
                    .subtract_with(&plan.analysis.read_problem.steal_init[i]);
                self.saved_avail.extend_from_slice(self.avail.words());
                self.saved_open.extend_from_slice(&self.open);
                self.saved_ends.push(self.saved_open.len());
            }
            let exits_loop = graph.is_loop_header(node)
                && (k + 1 == path.len()
                    || matches!(
                        out_class,
                        Some(EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn)
                    ));
            if !graph.is_loop_header(node) || exits_loop {
                for &op in &plan.after[i] {
                    self.apply(op, node);
                }
            }
            in_class = out_class;
        }
        self.path.clear();
        self.path.extend_from_slice(path);
        for &((item, _), node) in &self.open {
            self.findings.report(Finding::Leak { item, node });
        }
    }

    /// Back to the state saved at node `k` of the previous path.
    fn rewind(&mut self, k: usize) {
        let words = self.avail.words().len();
        self.avail
            .words_mut()
            .copy_from_slice(&self.saved_avail[k * words..(k + 1) * words]);
        let from = k.checked_sub(1).map_or(0, |j| self.saved_ends[j]);
        let to = self.saved_ends[k];
        self.open.clear();
        self.open.extend_from_slice(&self.saved_open[from..to]);
        self.saved_avail.truncate((k + 1) * words);
        self.saved_open.truncate(to);
        self.saved_ends.truncate(k + 1);
    }

    fn apply(&mut self, op: CommOp, node: NodeId) {
        let fam = family(op.kind);
        if (fam == Family::Read && !self.opts.reads) || (fam == Family::Write && !self.opts.writes)
        {
            return;
        }
        if op.kind.is_atomic() {
            if fam == Family::Read {
                self.avail.insert(op.item.index());
            }
            return;
        }
        let item = op.item;
        let slot = self
            .open
            .binary_search_by_key(&(item, fam), |&(key, _)| key);
        if op.kind.is_send() {
            if slot.is_ok() {
                self.findings.report(Finding::InFlight { item, node });
            } else if fam == Family::Read && self.avail.contains(item.index()) {
                self.findings.report(Finding::Available { item, node });
            }
            // Race: this window vs. every other open window with an
            // overlapping footprint, if a write side is involved.
            let universe = &self.plan.analysis.universe;
            let sec = universe.resolve(item);
            for &((other, ofam), since) in &self.open {
                if other == item && ofam == fam {
                    continue;
                }
                if (fam == Family::Write || ofam == Family::Write)
                    && sec.may_overlap(universe.resolve(other))
                {
                    self.findings.report(Finding::Race {
                        item,
                        node,
                        other,
                        since,
                    });
                }
            }
            match slot {
                Ok(at) => self.open[at].1 = node,
                Err(at) => self.open.insert(at, ((item, fam), node)),
            }
        } else {
            // A receive.
            match slot {
                Ok(at) => {
                    self.open.remove(at);
                    if fam == Family::Read {
                        self.avail.insert(item.index());
                    }
                }
                Err(_) => self.findings.report(Finding::Deadlock { item, node }),
            }
        }
    }
}

/// Lints `plan`: dead/redundant communication plus the send/recv
/// matching and in-flight aliasing checks described in the module docs.
pub fn lint_plan(plan: &CommPlan, opts: &CommLintOptions) -> Vec<Diagnostic> {
    lint_plan_counted(plan, opts, &mut StageTimings::default())
}

/// [`lint_plan`], adding its bounded-path replay counts to `profile`.
pub(crate) fn lint_plan_counted(
    plan: &CommPlan,
    opts: &CommLintOptions,
    profile: &mut StageTimings,
) -> Vec<Diagnostic> {
    let graph = &plan.analysis.graph;
    let mut findings = Findings {
        plan,
        seen: BTreeSet::new(),
        out: Vec::new(),
        zero_trip_path: false,
    };
    let (seen, out) = (&mut findings.seen, &mut findings.out);

    // GNT011a: a send kind with no matching receive kind anywhere.
    let mut sends: HashMap<(ItemId, Family), (NodeId, OpKind)> = HashMap::new();
    let mut recvs: HashSet<(ItemId, Family)> = HashSet::new();
    // GNT011b: communicated items never consumed by any statement.
    let mut communicated: BTreeMap<(ItemId, Family), NodeId> = BTreeMap::new();
    for (node, _, op) in plan.ops() {
        let fam = family(op.kind);
        if (fam == Family::Read && !opts.reads) || (fam == Family::Write && !opts.writes) {
            continue;
        }
        if op.kind.is_send() {
            sends.entry((op.item, fam)).or_insert((node, op.kind));
        } else if !op.kind.is_atomic() {
            recvs.insert((op.item, fam));
        }
        communicated.entry((op.item, fam)).or_insert(node);
    }
    for (&(item, fam), &(node, kind)) in &sends {
        if !recvs.contains(&(item, fam)) {
            out.push(
                Diagnostic::error(
                    "GNT011",
                    format!(
                        "{kind}{{{}}} has no matching receive anywhere in the plan",
                        plan.analysis.universe.resolve(item)
                    ),
                )
                .at(node)
                .for_item(item.index()),
            );
            seen.insert(("GNT011", item.0, node.0));
        }
    }
    for (&(item, fam), &node) in &communicated {
        let problem = match fam {
            Family::Read => &plan.analysis.read_problem,
            Family::Write => &plan.analysis.write_problem,
        };
        let consumed =
            (0..problem.num_nodes()).any(|i| problem.take_init[i].contains(item.index()));
        if !consumed && seen.insert(("GNT011", item.0, node.0)) {
            out.push(
                Diagnostic::error(
                    "GNT011",
                    format!(
                        "{} is communicated but no statement consumes it",
                        plan.analysis.universe.resolve(item)
                    ),
                )
                .at(node)
                .for_item(item.index()),
            );
        }
    }

    // Replay the plan along bounded paths, each as the enumeration
    // reaches it, none kept. Non-zero-trip paths first, so an error
    // shadows the same finding rediscovered on a zero-trip path: those
    // come from a second enumeration, in the same order.
    let mut replay = Replay {
        plan,
        opts,
        open: Vec::new(),
        avail: BitSet::new(plan.analysis.read_problem.universe_size),
        findings,
        path: Vec::new(),
        saved_avail: Vec::new(),
        saved_open: Vec::new(),
        saved_ends: Vec::new(),
    };
    let mut replayed = 0;
    let passes: &[bool] = if opts.zero_trip {
        &[false, true]
    } else {
        &[false]
    };
    for &zero in passes {
        let truncated = for_each_path(graph, MAX_EDGE_VISITS, MAX_PATHS, |path| {
            if path_has_zero_trip(graph, path) == zero {
                replay.run(path, zero);
                replayed += 1;
            }
        });
        if !zero {
            profile.enumerations_truncated += u64::from(truncated);
        }
    }
    profile.paths_replayed += replayed;

    let mut out = replay.findings.out;
    out.sort_by_key(|d| (d.code, d.node.map_or(usize::MAX, NodeId::index)));
    out
}
