//! The determinism & invariant rules and the local (single-file) rule
//! implementations.
//!
//! Each rule is grounded in a real hazard this workspace has hit (or is
//! one contributor away from hitting); DESIGN.md §"Determinism rules"
//! documents the rationale for each. Rules are scoped to the crates
//! where the hazard matters, skip `#[cfg(test)]` modules, and can be
//! waived per-site with `// lint:allow(<rule>) reason` — an annotation
//! must carry a non-empty reason, and an annotation that suppresses
//! nothing is itself reported (`unused-allow`), so stale waivers cannot
//! accumulate.
//!
//! Rules with `check: None` are semantic: they need the whole-workspace
//! item index and live in [`crate::semantic`], dispatched by the driver
//! in `lib.rs`.

use crate::index::{ident_at, matching_brace, punct_at, FileIndex};
use crate::lexer::Tok;

/// Crates whose state feeds simulation outcomes: iteration order,
/// timing or dropped invariants here silently invalidate cross-run
/// comparisons.
pub const SIM_CRATES: &[&str] = &[
    "sim", "net", "mem", "vm", "gpu", "core", "proto", "multigpu",
];

/// Event-emission entry points that must thread the engine [`Tracer`]
/// (or a `Ctx`, which carries it): dropping the tracer from one of
/// these signatures silently blinds the tracing layer to the
/// stitch/pool/trim/sequence decisions the figures are built on.
pub const TRACED_ENTRY_POINTS: &[&str] = &[
    "pop",
    "push_flit",
    "stitch_into",
    "unstitch",
    "request_bits",
    "record_response",
];

/// Type names that provide interior mutability: a non-`const` `static`
/// holding one of these is ambient mutable state, which component code
/// could reach without going through the engine — shared by every
/// engine in the process, so concurrent simulations on sweep worker
/// threads (`Runner::sweep --jobs`) would leak state into each other.
pub const INTERIOR_MUTABLE_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "Cell",
    "LazyCell",
    "LazyLock",
    "Mutex",
    "OnceCell",
    "OnceLock",
    "RefCell",
    "RwLock",
    "UnsafeCell",
];

/// One rule violation (or waived violation) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, matches the allow-annotation spelling).
    pub rule: &'static str,
    /// Path as given to the engine (repo-relative in workspace runs).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(reason)` when a `lint:allow` annotation waives this
    /// finding; waived findings do not fail the run but are kept in the
    /// machine-readable report.
    pub allowed: Option<String>,
}

/// A single-file rule body: pushes `(line, message)` raw findings.
pub(crate) type LocalCheck = fn(&FileIndex, &mut Vec<(u32, String)>);

/// Static description of one rule.
pub struct Rule {
    /// Kebab-case name used in reports and allow-annotations.
    pub name: &'static str,
    /// One-line rationale shown by `--list-rules`.
    pub summary: &'static str,
    /// Crates the rule applies to; `None` applies everywhere.
    pub crates: Option<&'static [&'static str]>,
    /// Single-file check, or `None` for whole-workspace semantic rules
    /// implemented in [`crate::semantic`].
    pub(crate) check: Option<LocalCheck>,
}

/// Crates the Component trait-contract rules cover (`proto` holds no
/// components).
const COMPONENT_CRATES: &[&str] = &["sim", "net", "mem", "vm", "gpu", "core", "multigpu"];

/// The rule registry, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-unordered-iteration",
        summary: "std HashMap/HashSet banned in sim-facing crates; \
                  iteration order leaks host randomness into simulation \
                  state — use proto::collections::OrderedMap",
        crates: Some(SIM_CRATES),
        check: Some(check_unordered_iteration),
    },
    Rule {
        name: "no-wall-clock",
        summary: "std::time::{Instant,SystemTime} banned outside bench; \
                  wall-clock reads in sim logic break bit-exact replay",
        crates: Some(SIM_CRATES),
        check: Some(check_wall_clock),
    },
    Rule {
        name: "wake-contract",
        summary: "every non-test `impl Component` must define `next_wake` \
                  explicitly; relying on the EveryCycle default silently \
                  forfeits the event-driven scheduler's contract audit",
        crates: Some(COMPONENT_CRATES),
        check: Some(check_wake_contract),
    },
    Rule {
        name: "snapshot-coverage",
        summary: "every non-test `impl Component` must implement the \
                  `save_state`/`load_state` pair; a component the trait \
                  defaults would panic for makes every checkpoint of a \
                  system containing it abort at snapshot time",
        crates: Some(COMPONENT_CRATES),
        check: Some(check_snapshot_coverage),
    },
    Rule {
        name: "snapshot-field-parity",
        summary: "every field of a snapshotted struct must be referenced \
                  in both halves of its save/load pair, in the same \
                  order; an unsnapshotted field silently resets on \
                  restore — waive per field with the reason it is \
                  restore-invariant",
        crates: Some(SIM_CRATES),
        check: None,
    },
    Rule {
        name: "snapshot-version-bump",
        summary: "a diff-visible change to a snapshotted struct's field \
                  list must come with a SNAPSHOT_VERSION bump; checked \
                  against the committed field-inventory baseline \
                  (regenerate with --emit-inventory); active only when \
                  --baseline is given",
        crates: Some(SIM_CRATES),
        check: None,
    },
    Rule {
        name: "no-unchecked-narrowing",
        summary: "bare `as u16`/`as u8` narrowing banned in net/sim hot \
                  paths; use try_into/try_from with an expect message",
        crates: Some(&["net", "sim"]),
        check: Some(check_narrowing),
    },
    Rule {
        name: "no-ambient-state",
        summary: "static mut, thread_local! and statics with interior \
                  mutability banned in sim-facing crates; ambient state \
                  bypasses the engine and is shared by the concurrent \
                  simulations of sweep worker threads",
        crates: Some(SIM_CRATES),
        check: Some(check_ambient_state),
    },
    Rule {
        name: "tracer-threading",
        summary: "event-emission entry points (pop, push_flit, stitch/\
                  trim/seq) must take a Tracer or Ctx so scheduling \
                  decisions stay visible in traces; a helper is exempt \
                  when every same-crate caller threads one",
        crates: Some(&["net", "core"]),
        check: None,
    },
    Rule {
        name: "no-hot-path-alloc",
        summary: "Box::new/Vec::new/to_vec banned inside `tick`/`tick_burst` \
                  bodies and every same-crate helper they reach (call-graph \
                  fixpoint); per-flit allocation there defeats the arena/\
                  burst batching — preallocate, reuse a scratch field, or \
                  waive at the call site with a reason",
        crates: Some(SIM_CRATES),
        check: Some(check_hot_path_alloc),
    },
];

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Whether `rule` applies to a file of `crate_name` (`None` — fixtures,
/// ad-hoc files — activates every rule).
pub(crate) fn rule_applies(rule: &Rule, crate_name: Option<&str>) -> bool {
    match (rule.crates, crate_name) {
        (Some(crates), Some(name)) => crates.contains(&name),
        _ => true,
    }
}

fn check_unordered_iteration(fi: &FileIndex, out: &mut Vec<(u32, String)>) {
    for t in &fi.tokens {
        if let Tok::Ident(name) = &t.tok {
            if name == "HashMap" || name == "HashSet" {
                out.push((
                    t.line,
                    format!(
                        "{name} iterates in RandomState order, which can leak \
                         host randomness into simulation state; use \
                         netcrafter_proto::collections::OrderedMap (or a \
                         BTreeMap for sorted-key semantics)"
                    ),
                ));
            }
        }
    }
}

fn check_wall_clock(fi: &FileIndex, out: &mut Vec<(u32, String)>) {
    let tokens = &fi.tokens;
    let mut i = 0;
    while i < tokens.len() {
        let hit = match ident_at(tokens, i) {
            Some("std")
                if punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && ident_at(tokens, i + 3) == Some("time") =>
            {
                Some("std::time")
            }
            Some(id @ ("Instant" | "SystemTime"))
                if punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && ident_at(tokens, i + 3) == Some("now") =>
            {
                Some(id)
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push((
                tokens[i].line,
                format!(
                    "wall-clock access via {what}: host time must never \
                     reach simulation logic (cycle counts come from the \
                     engine); host timing belongs in the bench crate"
                ),
            ));
            i += 4;
            continue;
        }
        i += 1;
    }
}

fn check_wake_contract(fi: &FileIndex, out: &mut Vec<(u32, String)>) {
    for im in &fi.impls {
        if im.trait_name.as_deref() != Some("Component") {
            continue;
        }
        if !im.fns.iter().any(|f| f.name == "next_wake") {
            out.push((
                im.line,
                "impl Component without an explicit `next_wake`: the \
                 EveryCycle default is correct but hides the component \
                 from the wake-contract audit — state the wake policy \
                 (and its justification) explicitly"
                    .to_string(),
            ));
        }
    }
}

fn check_snapshot_coverage(fi: &FileIndex, out: &mut Vec<(u32, String)>) {
    for im in &fi.impls {
        if im.trait_name.as_deref() != Some("Component") {
            continue;
        }
        let missing: Vec<&str> = ["save_state", "load_state"]
            .into_iter()
            .filter(|n| !im.fns.iter().any(|f| &f.name == n))
            .collect();
        if !missing.is_empty() {
            out.push((
                im.line,
                format!(
                    "impl Component without {}: the trait defaults panic, \
                     so any checkpoint of a system containing this \
                     component aborts at snapshot time — implement the \
                     save_state/load_state pair (or waive with a reason \
                     if the component can never appear in a \
                     checkpointable system)",
                    missing.join(" and "),
                ),
            ));
        }
    }
}

fn check_narrowing(fi: &FileIndex, out: &mut Vec<(u32, String)>) {
    let tokens = &fi.tokens;
    for i in 0..tokens.len() {
        if ident_at(tokens, i) == Some("as") {
            if let Some(ty @ ("u8" | "u16")) = ident_at(tokens, i + 1) {
                out.push((
                    tokens[i].line,
                    format!(
                        "bare `as {ty}` silently truncates on overflow; on \
                         cycle/flit-size arithmetic that corrupts results \
                         instead of failing — use `{ty}::try_from(..).expect(..)` \
                         or a checked helper"
                    ),
                ));
            }
        }
    }
}

fn check_ambient_state(fi: &FileIndex, out: &mut Vec<(u32, String)>) {
    let tokens = &fi.tokens;
    let mut i = 0;
    while i < tokens.len() {
        if ident_at(tokens, i) == Some("thread_local") && punct_at(tokens, i + 1, '!') {
            out.push((
                tokens[i].line,
                "thread_local! is ambient per-thread state: simulations \
                 sharing a sweep worker thread silently share one \
                 instance — thread simulation state through the \
                 component or the engine instead"
                    .to_string(),
            ));
            i += 2;
            continue;
        }
        // `'static` lexes as a Lifetime token, so an Ident here is the
        // `static` item keyword.
        if ident_at(tokens, i) != Some("static") {
            i += 1;
            continue;
        }
        let line = tokens[i].line;
        if ident_at(tokens, i + 1) == Some("mut") {
            out.push((
                line,
                "`static mut` is unsynchronized ambient state: any write \
                 races across sweep worker threads and breaks bit-exact \
                 replay — own the state in a component"
                    .to_string(),
            ));
            i += 2;
            continue;
        }
        // `static NAME: Type = init;` — scan the item for interior-
        // mutability types. The engine cannot see state that lives here,
        // so neither snapshots nor per-engine isolation cover it.
        let mut j = i + 1;
        while j < tokens.len() && tokens[j].tok != Tok::Punct(';') {
            if let Some(id) = ident_at(tokens, j) {
                if INTERIOR_MUTABLE_TYPES.contains(&id) {
                    out.push((
                        line,
                        format!(
                            "non-const `static` holding {id}: interior \
                             mutability makes this ambient simulation state \
                             that bypasses the engine and is shared by \
                             every simulation — own it in a component, or waive \
                             with a justification if it never feeds \
                             simulation outcomes"
                        ),
                    ));
                    break;
                }
            }
            j += 1;
        }
        while j < tokens.len() && tokens[j].tok != Tok::Punct(';') {
            j += 1;
        }
        i = j + 1;
    }
}

/// The local half of `no-hot-path-alloc`: scans `fn tick` /
/// `fn tick_burst` bodies wherever they appear in the token stream
/// (including trait default bodies, which the item index skips) for
/// `Box::new`, `Vec::new` and `.to_vec()`. Growth of a preallocated
/// buffer (`push`, `with_capacity` at construction) is fine; minting a
/// fresh heap object per tick is not. The interprocedural half in
/// [`crate::semantic`] extends the ban through the call graph.
fn check_hot_path_alloc(fi: &FileIndex, out: &mut Vec<(u32, String)>) {
    let tokens = &fi.tokens;
    let mut i = 0;
    while i < tokens.len() {
        if ident_at(tokens, i) != Some("fn") {
            i += 1;
            continue;
        }
        let is_tick = matches!(ident_at(tokens, i + 1), Some("tick" | "tick_burst"));
        if !is_tick {
            i += 1;
            continue;
        }
        let Some(open) = tokens[i..]
            .iter()
            .position(|t| t.tok == Tok::Punct('{'))
            .map(|p| i + p)
        else {
            break;
        };
        let close = matching_brace(tokens, open);
        for (line, what) in crate::callgraph::alloc_sites(tokens, (open, close)) {
            let detail = match what {
                ".to_vec()" => ".to_vec() inside a tick body copies into a fresh \
                     heap allocation every call; move or borrow the data \
                     instead (or stage it in a reusable scratch buffer)"
                    .to_string(),
                _ => format!(
                    "{what} inside a tick body allocates on the \
                     dispatch hot path; the burst/arena design moves \
                     payloads through recycled slots — preallocate \
                     the buffer once (a scratch field) or reuse an \
                     existing one"
                ),
            };
            out.push((line, detail));
        }
        i = close + 1;
    }
}
