//! The lint rule catalog.
//!
//! Every rule protects a property the AC/DC reproduction's correctness
//! argument leans on (see `LINTS.md` for the full rationale and the paper
//! sections each rule traces to). Rules are token-level checks over the
//! comment/string-stripped code channel produced by [`crate::scan`].

use crate::scan::SourceFile;

/// Severity of a finding. Everything ships as `Error` today; the field
/// exists so a future rule can start life as a warning without an
/// engine change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
}

/// A single diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    pub rule: &'static Rule,
    pub message: String,
    pub severity: Severity,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} ({}): {}",
            self.path, self.line, self.rule.id, self.rule.name, self.message
        )
    }
}

/// Static description of a rule.
pub struct Rule {
    pub id: &'static str,
    pub name: &'static str,
    pub summary: &'static str,
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

pub static D001: Rule = Rule {
    id: "D001",
    name: "wall-clock",
    summary: "no Instant::now/SystemTime::now/thread_rng outside crates/bench \
              (simulation time must come from the event loop)",
};

pub static D003: Rule = Rule {
    id: "D003",
    name: "unseeded-rng",
    summary: "no from_entropy/from_os_rng/rand::random outside crates/bench \
              (randomness must flow from an explicit seed; fault injection \
              and simulations must replay byte-identically)",
};

pub static D002: Rule = Rule {
    id: "D002",
    name: "hash-collections",
    summary: "no HashMap/HashSet in netsim/core/vswitch/tcp \
              (iteration order must be deterministic; use BTreeMap/BTreeSet)",
};

pub static D004: Rule = Rule {
    id: "D004",
    name: "heap-outside-wheel",
    summary: "no BinaryHeap in crates/netsim/src outside the timing wheel's \
              overflow module (near-horizon timers must go through the O(1) \
              wheel slots; wheel/overflow.rs is the single far-future heap)",
};

pub static P001: Rule = Rule {
    id: "P001",
    name: "raw-seq-arith",
    summary: "no wrapping u32 sequence arithmetic outside packet/src/seq.rs \
              (go through SeqNumber)",
};

pub static P002: Rule = Rule {
    id: "P002",
    name: "rwnd-scale-helper",
    summary: "no hand-rolled wscale shifts outside crates/packet \
              (use scale_rwnd/unscale_rwnd; AC/DC §3.3)",
};

pub static P003: Rule = Rule {
    id: "P003",
    name: "float-eq-alpha",
    summary: "no exact float comparison on DCTCP alpha \
              (EWMA state; compare with a tolerance)",
};

pub static P004: Rule = Rule {
    id: "P004",
    name: "reparse-on-meta",
    summary: "no Ipv4Repr/TcpRepr/UdpRepr::parse or tcp_repr in the packet \
              pipeline crates (segments carry cached PacketMeta; read \
              Segment::try_meta and the maintained accessors instead)",
};

pub static P005: Rule = Rule {
    id: "P005",
    name: "flow-admission",
    summary: "no FlowTable::with_entry_or_create outside \
              vswitch table.rs/datapath.rs (every flow entry must pass the \
              bounded-admission gate so capacity and health accounting hold)",
};

pub static O001: Rule = Rule {
    id: "O001",
    name: "ad-hoc-counter",
    summary: "no new raw *_drops/*_count integer fields and no live \
              *_drops increments in runtime crates (register an \
              acdc_telemetry Counter/Gauge — or adopt the cell — so the \
              metric appears in the unified snapshot_all(); `Copy` \
              snapshot views of registry cells are exempt)",
};

pub static H001: Rule = Rule {
    id: "H001",
    name: "forbid-unsafe",
    summary: "every crate root must carry #![forbid(unsafe_code)]",
};

pub static H002: Rule = Rule {
    id: "H002",
    name: "clippy-sync",
    summary: "clippy.toml disallowed-methods/types must stay in sync with \
              the lint catalog",
};

pub static S001: Rule = Rule {
    id: "S001",
    name: "checkpoint-determinism",
    summary: "no HashMap/HashSet anywhere in crates/soak/src and no float \
              types in the checkpoint serialization paths (vswitch \
              checkpoint.rs, soak driver.rs): acdc-checkpoint/v1 bytes must \
              be a pure function of state — Vec-ordered objects, u64-only \
              numbers, no float formatting (DESIGN.md §15)",
};

pub static W002: Rule = Rule {
    id: "W002",
    name: "lock-order",
    summary: "no table re-entry and no event-bus publish inside a flow-table \
              closure (with_entry/with_entry_or_create/for_each hold a shard \
              lock; crates/vswitch/src — the deadlock shapes the worker model \
              must never ship)",
};

/// All rules, in diagnostic order.
pub static CATALOG: [&Rule; 14] = [
    &D001, &D002, &D003, &D004, &P001, &P002, &P003, &P004, &P005, &O001, &S001, &H001, &H002,
    &W002,
];

pub fn catalog() -> &'static [&'static Rule] {
    &CATALOG
}

/// True when `code` contains `token` as a standalone identifier-path, i.e.
/// not embedded in a longer identifier (`MyHashMapLike` must not match
/// `HashMap`).
pub fn contains_token(code: &str, token: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap());
        let after = at + token.len();
        let after_ok = after >= code.len() || !is_ident(code[after..].chars().next().unwrap());
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// True when `code` contains an identifier *ending* in `suffix`
/// (`wscale`, `ack_wscale`, `self.peer_wscale` all count for `wscale`).
pub fn contains_token_suffix(code: &str, suffix: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(suffix) {
        let after = start + pos + suffix.len();
        if after >= code.len() || !is_ident(code[after..].chars().next().unwrap()) {
            return true;
        }
        start = start + pos + 1;
    }
    false
}

/// Raw integer/atomic types that make a counter field "ad-hoc" for O001.
/// `Counter`/`Gauge` fields (registry-backed cells) are the blessed path.
const O001_RAW_TYPES: &[&str] = &["u64", "u32", "usize", "AtomicU64", "AtomicUsize"];

/// True when `code` declares something named `…_drops` or `…_count`
/// immediately followed by a `:` type annotation — the shape of a struct
/// counter field (`pub rto_count: u64`).
fn has_counter_field_name(code: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    for suffix in ["_drops", "_count"] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(suffix) {
            let at = start + pos;
            let after = at + suffix.len();
            let rest = &code[after..];
            let boundary_ok = rest.chars().next().is_none_or(|c| !is_ident(c));
            let annotated = {
                let t = rest.trim_start();
                t.starts_with(':') && !t.starts_with("::")
            };
            if boundary_ok && annotated {
                return true;
            }
            start = at + 1;
        }
    }
    false
}

/// Does the struct enclosing the field at `field_idx` derive `Copy`?
///
/// A `Copy` struct cannot hold live registry cells (`Counter`/`Gauge`
/// are `Arc`-backed and not `Copy`), so its counter-named integer fields
/// are necessarily pure point-in-time *values* — the snapshot views
/// (`SwitchCounters`, `PortCounters`, `FaultStats`, …) the registry
/// migration deliberately kept for field-access ergonomics. This
/// structural exemption is what retired the O001 grandfather allow-list:
/// a *live* counter struct cannot be `Copy`-derived without giving up
/// accumulation, and compound-assignment accumulation into `_drops`
/// fields is a finding in its own right (see `has_live_counter_update`).
fn enclosing_struct_derives_copy(file: &SourceFile, field_idx: usize) -> bool {
    let mut l = field_idx;
    while l > 0 {
        l -= 1;
        let line = &file.lines[l];
        let code = line.code.trim();
        if contains_token(code, "struct") && code.contains('{') {
            let mut a = l;
            while a > 0 {
                a -= 1;
                let above = &file.lines[a];
                let c = above.code.trim();
                let comment_only = c.is_empty() && !above.comment.trim().is_empty();
                if c.starts_with("#[") {
                    if contains_token(c, "derive") && contains_token(c, "Copy") {
                        return true;
                    }
                } else if !comment_only {
                    break;
                }
            }
            return false;
        }
        // A closing brace ends the previous item: the field can't belong
        // to any struct declared above it.
        if code == "}" {
            break;
        }
    }
    false
}

/// True when `code` *accumulates into* something named `…_drops` — a
/// compound assignment (`+=`) or an atomic `fetch_add` — the shape of a
/// live ad-hoc counter being bumped. This closes the hole the field
/// check's `Copy` exemption would otherwise leave open (a `Copy` struct
/// kept live by value replacement): registry-backed cells are bumped via
/// `Counter::inc`/`add`, never `+=`. Scoped to `_drops` only: `_count`
/// names also cover private algorithm state (e.g. Vegas' per-RTT ACK
/// tally) that is not a metric and may legitimately accumulate.
fn has_live_counter_update(code: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let suffix = "_drops";
    let mut start = 0;
    while let Some(pos) = code[start..].find(suffix) {
        let at = start + pos;
        let rest = &code[at + suffix.len()..];
        let boundary_ok = rest.chars().next().is_none_or(|c| !is_ident(c));
        if boundary_ok {
            let t = rest.trim_start();
            if t.starts_with("+=") || t.starts_with(".fetch_add(") {
                return true;
            }
        }
        start = at + 1;
    }
    false
}

/// Per-line rules applied to one file. `path` is repo-relative with
/// forward slashes.
pub fn lint_lines(path: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    let in_bench = path.starts_with("crates/bench/");
    let in_xtask = path.starts_with("crates/xtask/");
    let d002_scope = [
        "crates/netsim/",
        "crates/core/",
        "crates/vswitch/",
        "crates/tcp/",
        "crates/faults/",
    ]
    .iter()
    .any(|p| path.starts_with(p));
    // D004 keeps the engine's fast path on the timing wheel: the far-
    // future overflow module is the one sanctioned heap; any other
    // BinaryHeap in the simulator core is a scheduler bypass.
    let d004_scope =
        path.starts_with("crates/netsim/src/") && path != "crates/netsim/src/wheel/overflow.rs";
    let p001_scope = ["crates/packet/", "crates/tcp/", "crates/vswitch/"]
        .iter()
        .any(|p| path.starts_with(p))
        && path != "crates/packet/src/seq.rs";
    let p002_scope = !path.starts_with("crates/packet/") && !in_xtask;
    // P004 guards the single-parse pipeline: every crate a Segment flows
    // through reads the cached PacketMeta instead of re-parsing wire
    // bytes. Scoped to src/ so tests may still round-trip through Reprs.
    let p004_scope = [
        "crates/vswitch/src/",
        "crates/core/src/",
        "crates/tcp/src/",
        "crates/netsim/src/",
        "crates/faults/src/",
        "crates/workloads/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p));
    // P005 guards the bounded flow table: only the vswitch's own table and
    // datapath may mint flow entries, so the capacity/admission gate and
    // the health ladder's occupancy accounting cannot be bypassed. Tests
    // and benches (no /src/ component) may drive the table directly.
    let p005_scope = !in_bench
        && !in_xtask
        && path.contains("/src/")
        && path != "crates/vswitch/src/table.rs"
        && path != "crates/vswitch/src/datapath.rs";
    // O001 guards the unified metrics registry: runtime crates must not
    // grow new raw counter fields on the side. The telemetry crate (which
    // *implements* the registry) and non-src code (tests/benches build
    // expectation structs) are exempt.
    let o001_scope = [
        "crates/netsim/src/",
        "crates/vswitch/src/",
        "crates/tcp/src/",
        "crates/core/src/",
        "crates/faults/src/",
        "crates/cc/src/",
        "crates/workloads/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p));
    // S001 guards the checkpoint wire format's determinism contract.
    // Floats are banned only in the files that *write* checkpoint bytes
    // (you cannot float-format a value you never hold); unordered
    // collections are banned across the whole soak crate, whose A/B
    // byte-identity checks any iteration-order leak would break.
    let s001_float_scope =
        path == "crates/vswitch/src/checkpoint.rs" || path == "crates/soak/src/driver.rs";
    let s001_hash_scope = s001_float_scope || path.starts_with("crates/soak/src/");

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let mut hits: Vec<(&'static Rule, String)> = Vec::new();

        if !in_bench && !in_xtask {
            for tok in ["Instant::now", "SystemTime::now", "thread_rng", "ThreadRng"] {
                if contains_token(code, tok) {
                    hits.push((
                        &D001,
                        format!("`{tok}` is wall-clock/ambient entropy; derive time and randomness from the simulator"),
                    ));
                    break;
                }
            }
            // D003 is D001's sibling: D001 bans ambient *time* and the
            // thread-local RNG; D003 bans the remaining unseeded RNG
            // constructors so every random stream is replayable.
            for tok in ["from_entropy", "from_os_rng", "rand::random"] {
                if contains_token(code, tok) {
                    hits.push((
                        &D003,
                        format!("`{tok}` draws OS entropy; seed explicitly (e.g. StdRng::seed_from_u64) so runs replay"),
                    ));
                    break;
                }
            }
        }

        if d002_scope {
            for tok in ["HashMap", "HashSet"] {
                if contains_token(code, tok) {
                    hits.push((
                        &D002,
                        format!("`{tok}` has nondeterministic iteration order; use BTreeMap/BTreeSet or sort before iterating"),
                    ));
                    break;
                }
            }
        }

        if d004_scope && contains_token(code, "BinaryHeap") {
            hits.push((
                &D004,
                "`BinaryHeap` bypasses the timing wheel's O(1) slots; schedule through TimerWheel (far-future storage belongs in wheel/overflow.rs)"
                    .to_string(),
            ));
        }

        if p001_scope {
            for tok in ["wrapping_add", "wrapping_sub"] {
                if contains_token(code, tok) {
                    hits.push((
                        &P001,
                        format!("raw `{tok}` on sequence numbers; use SeqNumber arithmetic from acdc-packet"),
                    ));
                    break;
                }
            }
        }

        if p004_scope {
            for tok in [
                "Ipv4Repr::parse",
                "TcpRepr::parse",
                "UdpRepr::parse",
                "tcp_repr",
            ] {
                if contains_token(code, tok) {
                    hits.push((
                        &P004,
                        format!("`{tok}` re-parses header bytes the segment's PacketMeta cache already holds; use Segment::try_meta and the maintained accessors"),
                    ));
                    break;
                }
            }
        }

        if p005_scope && contains_token(code, "with_entry_or_create") {
            hits.push((
                &P005,
                "`with_entry_or_create` mints flow entries outside the vswitch admission path; route flow creation through AcdcDatapath so capacity bounds and health accounting hold".to_string(),
            ));
        }

        if p002_scope
            && contains_token_suffix(code, "wscale")
            && (code.contains(">>") || code.contains("<<"))
        {
            hits.push((
                &P002,
                "hand-rolled window-scale shift; use acdc_packet::scale_rwnd / unscale_rwnd"
                    .to_string(),
            ));
        }

        if o001_scope
            && contains_token(code, "pub")
            && has_counter_field_name(code)
            && O001_RAW_TYPES.iter().any(|t| contains_token(code, t))
        {
            hits.push((
                &O001,
                "raw counter field bypasses the metrics registry; hold an acdc_telemetry::Counter/Gauge (adopt_counter keeps snapshot-struct compat) so the value shows up in snapshot_all()"
                    .to_string(),
            ));
        }

        if s001_hash_scope {
            for tok in ["HashMap", "HashSet"] {
                if contains_token(code, tok) {
                    hits.push((
                        &S001,
                        format!("`{tok}` iteration order leaks into checkpoint/soak output; use a Vec or BTreeMap so the bytes are a pure function of state"),
                    ));
                    break;
                }
            }
        }

        if s001_float_scope {
            for tok in ["f32", "f64"] {
                if contains_token(code, tok) {
                    hits.push((
                        &S001,
                        format!("`{tok}` in a checkpoint serialization path invites float formatting; acdc-checkpoint/v1 numbers are u64 only — scale to integers before they reach the serializer"),
                    ));
                    break;
                }
            }
        }

        if o001_scope && has_live_counter_update(code) {
            hits.push((
                &O001,
                "live ad-hoc counter increment bypasses the metrics registry; bump an acdc_telemetry::Counter (inc/add) so the value shows up in snapshot_all()"
                    .to_string(),
            ));
        }

        if !in_xtask
            && contains_token(code, "alpha")
            && (code.contains("==")
                || code.contains("!=")
                || code.contains("assert_eq!")
                || code.contains("assert_ne!"))
        {
            hits.push((
                &P003,
                "exact comparison on DCTCP alpha (EWMA float state); compare with a tolerance"
                    .to_string(),
            ));
        }

        if hits.is_empty() {
            continue;
        }
        let allows = file.allows_on(idx);
        for (rule, message) in hits {
            if allows.iter().any(|a| a == rule.id) {
                continue;
            }
            // O001's field check exempts `Copy` snapshot structs: they
            // cannot hold live registry cells, so their counter-named
            // fields are point-in-time values by construction. Live
            // accumulation (`+=` / `fetch_add`) is caught separately by
            // `has_live_counter_update`, which this exemption never
            // applies to (increments live in method bodies, not struct
            // field blocks).
            if rule.id == "O001"
                && has_counter_field_name(&file.lines[idx].code)
                && enclosing_struct_derives_copy(file, idx)
            {
                continue;
            }
            findings.push(Finding {
                path: path.to_string(),
                line: lineno,
                rule,
                message,
                severity: Severity::Error,
            });
        }
    }

    if path.starts_with("crates/vswitch/src/") {
        for (line, message) in lock_order(file) {
            if file.allows_on(line - 1).iter().any(|a| a == W002.id) {
                continue;
            }
            findings.push(Finding {
                path: path.to_string(),
                line,
                rule: &W002,
                message,
                severity: Severity::Error,
            });
        }
    }
}

/// H001: a crate-root file must carry `#![forbid(unsafe_code)]`.
pub fn lint_crate_root(path: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    let has = file
        .lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has {
        findings.push(Finding {
            path: path.to_string(),
            line: 1,
            rule: &H001,
            message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
            severity: Severity::Error,
        });
    }
}

/// Catalog entries `clippy.toml` must mention for H002. Kept here so the
/// lint catalog and the clippy configuration cannot drift silently.
pub const CLIPPY_REQUIRED: &[(&str, &str)] = &[
    ("std::time::Instant::now", "D001"),
    ("std::time::SystemTime::now", "D001"),
    ("rand::thread_rng", "D001"),
    ("std::collections::HashMap", "D002"),
    ("std::collections::HashSet", "D002"),
];

/// H002: clippy.toml must exist at the workspace root and mention every
/// catalog-required disallowed method/type.
pub fn lint_clippy_sync(clippy_toml: Option<&str>, findings: &mut Vec<Finding>) {
    match clippy_toml {
        None => findings.push(Finding {
            path: "clippy.toml".to_string(),
            line: 0,
            rule: &H002,
            message: "workspace clippy.toml is missing (required to mirror the lint catalog)"
                .to_string(),
            severity: Severity::Error,
        }),
        Some(text) => {
            for (entry, rule_id) in CLIPPY_REQUIRED {
                if !text.contains(entry) {
                    findings.push(Finding {
                        path: "clippy.toml".to_string(),
                        line: 0,
                        rule: &H002,
                        message: format!(
                            "missing disallowed entry `{entry}` (mirrors rule {rule_id})"
                        ),
                        severity: Severity::Error,
                    });
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Lock order (W002)
// ----------------------------------------------------------------------

/// The flow table's closure accessors: each runs its closure argument
/// under a shard lock.
const TABLE_TOKENS: &[&str] = &["with_entry_or_create", "with_entry", "for_each"];

/// Lexical pass over one file for the flow table's one lock: the shard
/// lock held across a `with_entry` / `with_entry_or_create` / `for_each`
/// closure, modelled as held until the call's parentheses close. Inside
/// such a call it reports:
///
/// * a table re-entry (another closure accessor, `.gc(`, `.clear(`):
///   shard locks are not re-entrant, so this self-deadlocks whenever the
///   two keys share a shard;
/// * an event-bus publish (`.record(`, `.publish(`): publishing takes
///   the telemetry lock, extending the shard's critical section and
///   ordering it against an unrelated subsystem.
fn lock_order(file: &SourceFile) -> Vec<(usize, String)> {
    let mut findings = Vec::new();
    let mut depth: i32 = 0;
    // One entry per open table call: the depth inside its parentheses.
    let mut held: Vec<i32> = Vec::new();

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        let bytes = code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => {
                    depth -= 1;
                    held.retain(|&d| depth >= d);
                }
                _ => {}
            }
            let locked = !held.is_empty();

            if let Some(tok) = TABLE_TOKENS.iter().find(|t| token_at(code, i, t)) {
                if locked {
                    findings.push((
                        lineno,
                        format!(
                            "`{tok}` re-enters the flow table inside a table closure; \
                             the shard lock is held and not re-entrant — return what \
                             you need from the first closure and call again after it"
                        ),
                    ));
                }
                i += tok.len();
                if let Some(rel) = code[i..].find('(') {
                    if code[i..i + rel].trim().is_empty() {
                        i += rel + 1;
                        depth += 1;
                        held.push(depth);
                    }
                }
                continue;
            }
            if locked && (code[i..].starts_with(".gc(") || code[i..].starts_with(".clear(")) {
                findings.push((
                    lineno,
                    "table maintenance call inside a table closure; gc/clear \
                     take every shard lock in turn, including the one held"
                        .to_string(),
                ));
            }
            if locked && (code[i..].starts_with(".record(") || code[i..].starts_with(".publish(")) {
                findings.push((
                    lineno,
                    "event-bus publish inside a table closure; publishing takes \
                     the telemetry lock, extending the shard's critical section \
                     and ordering it against an unrelated subsystem — buffer the \
                     event and publish after the closure returns"
                        .to_string(),
                ));
            }

            i += 1;
        }
    }
    findings
}

/// Is `tok` present at byte offset `at` with identifier boundaries?
fn token_at(code: &str, at: usize, tok: &str) -> bool {
    if !code[at..].starts_with(tok) {
        return false;
    }
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap());
    let after = at + tok.len();
    let after_ok = after >= code.len() || !is_ident(code[after..].chars().next().unwrap());
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn run(path: &str, src: &str) -> Vec<String> {
        let f = SourceFile::scan(src);
        let mut out = Vec::new();
        lint_lines(path, &f, &mut out);
        out.iter().map(|f| f.rule.id.to_string()).collect()
    }

    #[test]
    fn d004_heap_banned_outside_overflow_module() {
        let src = "use std::collections::BinaryHeap;\n";
        assert_eq!(run("crates/netsim/src/engine.rs", src), vec!["D004"]);
        assert_eq!(run("crates/netsim/src/wheel/mod.rs", src), vec!["D004"]);
        assert!(run("crates/netsim/src/wheel/overflow.rs", src).is_empty());
        assert!(run("crates/netsim/tests/wheel_props.rs", src).is_empty());
        assert!(run("crates/core/src/host.rs", src).is_empty());
    }

    #[test]
    fn w002_scoped_to_vswitch_src() {
        let src = "fn f(&self) {\n    self.table.with_entry(&a, |e| self.table.with_entry(&b, |r| r.mark_closing()));\n}\n";
        assert_eq!(run("crates/vswitch/src/x.rs", src), vec!["W002"]);
        assert!(run("crates/core/src/x.rs", src).is_empty());
        assert!(run("crates/vswitch/tests/x.rs", src).is_empty());
    }

    fn locks(src: &str) -> Vec<(usize, String)> {
        lock_order(&SourceFile::scan(src))
    }

    #[test]
    fn table_reentry_inside_closure_fires() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.with_entry(&a, |e| {\n\
             \x20       self.table.with_entry(&b, |r| r.closing = true);\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, 3);
        assert!(f[0].1.contains("with_entry"));
    }

    #[test]
    fn sequential_closures_do_not_fire() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   let fb = self.table.with_entry(&a, |e| e.take_feedback());\n\
             \x20   self.table.with_entry_or_create(b, mk, |e| {\n\
             \x20       e.rx_total += 1;\n\
             \x20   });\n\
             \x20   self.table.gc(now, idle);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn publish_inside_with_entry_closure_fires() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.with_entry(&key, |e| {\n\
             \x20       e.closing = true;\n\
             \x20       self.telemetry.record(now, key, EventKind::FlowCreated);\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].1.contains("publish"));
    }

    #[test]
    fn publish_after_closure_is_clean() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.with_entry(&key, |e| {\n\
             \x20       e.rx_total += 1;\n\
             \x20   });\n\
             \x20   self.telemetry.record(now, key, EventKind::FlowCreated);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn for_each_closure_holds_the_lock() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.for_each(|key, e| {\n\
             \x20       self.telemetry.record(now, *key, EventKind::FlowCreated);\n\
             \x20       self.table.clear();\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn explicit_shard_locks_are_not_closures() {
        // The table's own shard walk locks directly and clears the map
        // it holds: that is not a re-entry.
        let f = locks(
            "fn clear(&self) {\n\
             \x20   for shard in &self.shards {\n\
             \x20       let mut shard = shard.lock();\n\
             \x20       shard.clear();\n\
             \x20   }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn token_boundaries() {
        assert!(contains_token("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(!contains_token("let m: MyHashMapLike;", "HashMap"));
        assert!(!contains_token("let m: HashMapx;", "HashMap"));
    }

    #[test]
    fn d001_fires_outside_bench_only() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(run("crates/core/src/x.rs", src), vec!["D001"]);
        assert!(run("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d002_scoped_to_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/netsim/src/x.rs", src), vec!["D002"]);
        assert_eq!(run("crates/faults/src/x.rs", src), vec!["D002"]);
        assert!(run("crates/stats/src/x.rs", src).is_empty());
    }

    #[test]
    fn d003_bans_unseeded_rng_outside_bench() {
        for src in [
            "let mut rng = SmallRng::from_entropy();\n",
            "let mut rng = StdRng::from_os_rng();\n",
            "let x: f64 = rand::random();\n",
        ] {
            assert_eq!(run("crates/faults/src/x.rs", src), vec!["D003"], "{src}");
            assert!(run("crates/bench/src/x.rs", src).is_empty(), "{src}");
        }
        // Seeded construction is the blessed path.
        assert!(run(
            "crates/faults/src/x.rs",
            "let mut rng = StdRng::seed_from_u64(seed);\n"
        )
        .is_empty());
        // Identifier boundaries: a method *named like* a banned token in a
        // longer path must not fire.
        assert!(run("crates/core/src/x.rs", "let x = self.rand::randomize();\n").is_empty());
    }

    #[test]
    fn p001_exempts_seq_rs() {
        let src = "let n = a.wrapping_add(b);\n";
        assert_eq!(run("crates/tcp/src/x.rs", src), vec!["P001"]);
        assert!(run("crates/packet/src/seq.rs", src).is_empty());
    }

    #[test]
    fn p002_requires_shift_and_wscale_together() {
        assert_eq!(
            run(
                "crates/vswitch/src/x.rs",
                "let w = (cwnd >> wscale) as u16;\n"
            ),
            vec!["P002"]
        );
        assert_eq!(
            run(
                "crates/tcp/src/x.rs",
                "let b = u64::from(raw) << self.peer_wscale;\n"
            ),
            vec!["P002"]
        );
        assert!(run("crates/vswitch/src/x.rs", "let w = cwnd >> 2;\n").is_empty());
        assert!(run("crates/packet/src/tcp.rs", "let w = cwnd >> wscale;\n").is_empty());
    }

    #[test]
    fn p004_bans_reparse_in_pipeline_crates() {
        let src = "let t = TcpRepr::parse(&seg.tcp())?;\n";
        assert_eq!(run("crates/vswitch/src/x.rs", src), vec!["P004"]);
        assert_eq!(run("crates/core/src/x.rs", src), vec!["P004"]);
        // The packet crate *is* the parser; benches and tests round-trip
        // through Reprs on purpose.
        assert!(run("crates/packet/src/segment.rs", src).is_empty());
        assert!(run("crates/bench/src/x.rs", src).is_empty());
        assert!(run("crates/vswitch/tests/x.rs", src).is_empty());
        // The convenience helper counts as a re-parse too.
        assert_eq!(
            run("crates/tcp/src/x.rs", "let r = seg.tcp_repr()?;\n"),
            vec!["P004"]
        );
        // Identifier boundaries: `my_tcp_repr` must not fire.
        assert!(run("crates/tcp/src/x.rs", "let r = my_tcp_repr();\n").is_empty());
    }

    #[test]
    fn p005_confines_flow_creation_to_the_admission_path() {
        let create = "let (r, adm) = self.table.with_entry_or_create(key, mk, f);\n";
        let with = "let (r, adm) = table.with_entry_or_create(key, now, f);\n";
        assert_eq!(run("crates/core/src/x.rs", create), vec!["P005"]);
        assert_eq!(run("crates/netsim/src/x.rs", with), vec!["P005"]);
        // The table and the datapath *are* the admission path.
        assert!(run("crates/vswitch/src/table.rs", create).is_empty());
        assert!(run("crates/vswitch/src/datapath.rs", with).is_empty());
        // Tests and benches may drive the table directly.
        assert!(run("crates/vswitch/tests/x.rs", create).is_empty());
        assert!(run("crates/bench/benches/flowtable.rs", create).is_empty());
        // Identifier boundaries: a longer name must not fire.
        assert!(run("crates/core/src/x.rs", "let x = with_entry_or_created();\n").is_empty());
    }

    #[test]
    fn p003_catches_assert_eq_on_alpha() {
        assert_eq!(
            run("crates/cc/src/x.rs", "assert_eq!(d.alpha(), 1.0);\n"),
            vec!["P003"]
        );
        assert!(run(
            "crates/cc/src/x.rs",
            "assert!((d.alpha() - 1.0).abs() < 1e-9);\n"
        )
        .is_empty());
    }

    #[test]
    fn o001_bans_new_raw_counter_fields() {
        let src = "pub struct S {\n    pub rto_count: u64,\n}\n";
        assert_eq!(run("crates/vswitch/src/x.rs", src), vec!["O001"]);
        assert_eq!(run("crates/netsim/src/x.rs", src), vec!["O001"]);
        // Atomics are still raw counters.
        assert_eq!(
            run(
                "crates/core/src/x.rs",
                "pub struct S {\n    pub corrupt_drops: AtomicU64,\n}\n"
            ),
            vec!["O001"]
        );
        // The blessed path: a registry-backed Counter field.
        assert!(run(
            "crates/core/src/x.rs",
            "pub struct S {\n    pub corrupt_drops: Counter,\n}\n"
        )
        .is_empty());
        // The telemetry crate implements the registry; tests build
        // expectation structs freely.
        assert!(run("crates/telemetry/src/x.rs", src).is_empty());
        assert!(run("crates/vswitch/tests/x.rs", src).is_empty());
        // Non-counter names and non-field uses don't fire.
        assert!(run(
            "crates/core/src/x.rs",
            "pub struct S {\n    pub discounts: u64,\n}\n"
        )
        .is_empty());
        assert!(run("crates/core/src/x.rs", "let byte_count: usize = 0;\n").is_empty());
    }

    #[test]
    fn o001_copy_snapshot_structs_are_exempt() {
        // A `Copy` struct cannot hold live registry cells, so its
        // counter-named fields are snapshot values — no finding, and no
        // allow directive needed (the grandfather list is retired).
        let src = "/// Snapshot view of registry-backed cells.\n\
                   #[derive(Debug, Clone, Copy)]\n\
                   pub struct Stats {\n\
                   \x20   pub random_drops: u64,\n\
                   \x20   pub flap_drops: u64,\n\
                   }\n";
        assert!(run("crates/faults/src/x.rs", src).is_empty());
        // The exemption is per-struct: a *following* non-Copy struct is
        // not covered.
        let two = format!("{src}pub struct Other {{\n    pub wred_drops: u64,\n}}\n");
        assert_eq!(run("crates/faults/src/x.rs", &two), vec!["O001"]);
        // Without the Copy derive the same struct fires on both fields.
        let live = "#[derive(Debug, Clone)]\n\
                    pub struct Stats {\n\
                    \x20   pub random_drops: u64,\n\
                    \x20   pub flap_drops: u64,\n\
                    }\n";
        assert_eq!(run("crates/faults/src/x.rs", live), vec!["O001", "O001"]);
    }

    #[test]
    fn o001_flags_live_drop_counter_increments() {
        // Accumulating into a `_drops` name is a live ad-hoc counter
        // regardless of where the field is declared.
        assert_eq!(
            run("crates/netsim/src/x.rs", "self.wred_drops += 1;\n"),
            vec!["O001"]
        );
        assert_eq!(
            run(
                "crates/faults/src/x.rs",
                "stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);\n"
            ),
            vec!["O001"]
        );
        // `_count` accumulation is private algorithm state (e.g. Vegas'
        // per-RTT ACK tally), not a metric — exempt.
        assert!(run("crates/cc/src/x.rs", "self.rtt_count += 1;\n").is_empty());
        // Reads and plain `+` merges of snapshot fields don't fire.
        assert!(run(
            "crates/netsim/src/x.rs",
            "let total = a.wred_drops + b.wred_drops;\n"
        )
        .is_empty());
        // Tests may keep tallies however they like.
        assert!(run("crates/netsim/tests/x.rs", "self.wred_drops += 1;\n").is_empty());
    }

    #[test]
    fn s001_bans_floats_in_serialization_paths_only() {
        let float = "fn pct(x: f64) -> u64 { (x * 100.0) as u64 }\n";
        assert_eq!(run("crates/vswitch/src/checkpoint.rs", float), vec!["S001"]);
        assert_eq!(run("crates/soak/src/driver.rs", float), vec!["S001"]);
        // Floats elsewhere in the soak crate (e.g. fault probabilities)
        // never touch the serializer and are fine.
        assert!(run("crates/soak/src/storm.rs", float).is_empty());
        assert!(run("crates/vswitch/src/datapath.rs", float).is_empty());
        // Identifier boundaries: `f64x` must not fire.
        assert!(run("crates/soak/src/driver.rs", "let x = f64x::new();\n").is_empty());
    }

    #[test]
    fn s001_bans_unordered_collections_across_soak() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/soak/src/watchdog.rs", src), vec!["S001"]);
        assert_eq!(run("crates/soak/src/driver.rs", src), vec!["S001"]);
        // checkpoint.rs sits in the vswitch crate, so D002 fires there
        // too: both rules protect the same line from different angles.
        assert_eq!(
            run("crates/vswitch/src/checkpoint.rs", src),
            vec!["D002", "S001"]
        );
        // Soak tests are not serialization paths.
        assert!(run("crates/soak/tests/soak.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "use std::collections::HashMap; // acdc-lint: allow(D002)\n";
        assert!(run("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn comment_mentions_do_not_fire() {
        let src = "// HashMap would be wrong here\nlet x = 1;\n";
        assert!(run("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn h001_detects_missing_forbid() {
        let f = SourceFile::scan("pub fn f() {}\n");
        let mut out = Vec::new();
        lint_crate_root("crates/foo/src/lib.rs", &f, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule.id, "H001");
        let ok = SourceFile::scan("#![forbid(unsafe_code)]\npub fn f() {}\n");
        out.clear();
        lint_crate_root("crates/foo/src/lib.rs", &ok, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn h002_requires_all_entries() {
        let mut out = Vec::new();
        lint_clippy_sync(None, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        lint_clippy_sync(Some("disallowed-methods = []"), &mut out);
        assert_eq!(out.len(), CLIPPY_REQUIRED.len());
    }
}
