//! Item-aware source model for the `analyze` pass.
//!
//! The lint pass (`rules::lint_lines`) is line-local: every check is a
//! token match on one line. The write-scope and lock-order rules need
//! more: *which struct* a field belongs to, *which impl block* a
//! `self.field` write sits in, and *whether a table closure is open*
//! when a table call or event publish happens. This module builds that
//! model on top of the comment/string-stripped code channel from
//! [`crate::scan`] — still dependency-free, still token-level, but
//! item-aware.
//!
//! The model is deliberately approximate (no type inference): a write
//! through `self` resolves to the enclosing `impl` target precisely; a
//! write through any other receiver is attributed by field *name* and
//! checked against every component claiming that name (see
//! `scopes::check_write_scopes`). Lock tracking is lexical: a flow-table
//! closure accessor holds its shard lock until the call's parentheses
//! close.

use crate::scan::SourceFile;

/// A struct definition: name plus its named fields.
#[derive(Debug)]
pub struct StructDef {
    pub name: String,
    /// 1-based line of the `struct` header.
    pub line: usize,
    /// Named fields `(name, 1-based line)`.
    pub fields: Vec<(String, usize)>,
}

/// An `impl` block and the type it targets.
#[derive(Debug)]
pub struct ImplBlock {
    /// Last path segment of the Self type (`impl fmt::Debug for FlowEntry`
    /// → `FlowEntry`).
    pub target: String,
    /// 1-based line range of the block body, inclusive.
    pub start_line: usize,
    pub end_line: usize,
}

/// Receiver of a field write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.field …`
    SelfRecv,
    /// `ident.field …` (a local, a guard, a parameter).
    Ident(String),
    /// The chain starts at a call/index expression (`x.lock().field …`).
    Expr,
}

/// How the write happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `recv.field = …`
    Assign,
    /// `recv.field += …` (any compound assignment).
    CompoundAssign,
    /// `&mut recv.field`
    MutBorrow,
    /// `recv.field.push(…)` etc. — a method from [`MUT_METHODS`].
    MutMethod,
}

/// One field-write site.
#[derive(Debug)]
pub struct WriteSite {
    /// 1-based line.
    pub line: usize,
    pub receiver: Receiver,
    /// The written field. For a chain `self.a.b = x` two sites are
    /// emitted: field `a` (resolvable against the impl target) and field
    /// `b` (attributable by name only); `head` is true for the first.
    pub field: String,
    /// Is this the first segment after the receiver (so, for a `self`
    /// receiver, a field of the enclosing impl's target type)?
    pub head: bool,
    pub kind: WriteKind,
}

/// Method names treated as mutating the value they are called on.
/// Deliberately conservative: only unambiguous `&mut self` methods from
/// std/parking_lot that the workspace actually uses on struct fields.
pub const MUT_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "take",
    "replace",
    "get_or_insert",
    "get_or_insert_with",
    "push_back",
    "push_front",
    "extend",
    "append",
    "truncate",
    "retain",
    "drain",
    "sort",
    "sort_by",
    "sort_by_key",
    "set",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
];

/// The per-file model.
#[derive(Debug, Default)]
pub struct FileModel {
    pub structs: Vec<StructDef>,
    pub impls: Vec<ImplBlock>,
    pub writes: Vec<WriteSite>,
    /// `acdc-scope: <component>` annotations `(1-based line, component)`.
    pub scopes: Vec<(usize, String)>,
}

impl FileModel {
    /// The impl block enclosing `line` (innermost wins; impls do not nest
    /// in practice, so first-containing is fine).
    pub fn impl_target_at(&self, line: usize) -> Option<&str> {
        self.impls
            .iter()
            .find(|b| b.start_line <= line && line <= b.end_line)
            .map(|b| b.target.as_str())
    }

    /// Does some struct in this file declare `name` with all of `fields`?
    pub fn declares_struct(&self, name: &str, fields: &[String]) -> bool {
        self.structs.iter().any(|s| {
            s.name == name
                && fields
                    .iter()
                    .all(|f| s.fields.iter().any(|(sf, _)| sf == f))
        })
    }

    /// Build the model for one scanned file.
    pub fn build(file: &SourceFile) -> FileModel {
        let mut m = FileModel::default();
        let mut depth: i32 = 0;

        // Open items waiting for their closing brace: (kind, body depth).
        enum Open {
            Struct(usize), // index into m.structs
            Impl(usize),   // index into m.impls
        }
        let mut open: Vec<(Open, i32)> = Vec::new();
        // A struct/impl header seen, `{` not yet reached.
        let mut pending: Option<Open> = None;

        for (idx, line) in file.lines.iter().enumerate() {
            let lineno = idx + 1;
            let code = line.code.as_str();

            for (l, name) in parse_scope_notes(&line.comment) {
                let _ = l;
                m.scopes.push((lineno, name));
            }

            if code.trim().is_empty() {
                continue;
            }

            // Item headers. (Headers and their `{` share a line in this
            // codebase's rustfmt style; a pending header survives until
            // the next `{` regardless.)
            if let Some(name) = item_header(code, "struct") {
                m.structs.push(StructDef {
                    name,
                    line: lineno,
                    fields: Vec::new(),
                });
                pending = Some(Open::Struct(m.structs.len() - 1));
            } else if let Some(target) = impl_header(code) {
                m.impls.push(ImplBlock {
                    target,
                    start_line: lineno,
                    end_line: lineno,
                });
                pending = Some(Open::Impl(m.impls.len() - 1));
            }

            // Struct fields: only at the struct's own body depth.
            if let Some((Open::Struct(si), body_depth)) = open.last().map(|(o, d)| {
                (
                    match o {
                        Open::Struct(i) => Open::Struct(*i),
                        Open::Impl(i) => Open::Impl(*i),
                    },
                    *d,
                )
            }) {
                if depth == body_depth {
                    if let Some(field) = field_name(code) {
                        m.structs[si].fields.push((field, lineno));
                    }
                }
            }

            collect_writes(code, lineno, &mut m.writes);

            // Track brace depth and item open/close.
            for c in code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if let Some(p) = pending.take() {
                            open.push((p, depth));
                        }
                    }
                    '}' => {
                        if let Some((o, d)) = open.last() {
                            if depth == *d {
                                if let Open::Impl(i) = o {
                                    m.impls[*i].end_line = lineno;
                                }
                                open.pop();
                            }
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
            // A header whose `;` arrives before any `{` (tuple struct,
            // `impl Trait for T {}` handled above) stops pending.
            if pending.is_some() && code.contains(';') {
                pending = None;
            }
        }
        m
    }
}

/// Parse `acdc-scope: <name>` annotations out of comment text.
pub fn parse_scope_notes(comment: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("acdc-scope:") {
        rest = &rest[pos + "acdc-scope:".len()..];
        let name: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || matches!(c, '.' | '-' | '_'))
            .collect();
        if !name.is_empty() {
            out.push((0, name));
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `… struct Name …` → `Name` (token-boundary aware).
fn item_header(code: &str, kw: &str) -> Option<String> {
    let mut start = 0;
    while let Some(pos) = code[start..].find(kw) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap());
        let after = at + kw.len();
        let after_ok = code[after..].starts_with(char::is_whitespace);
        if before_ok && after_ok {
            let name: String = code[after..]
                .trim_start()
                .chars()
                .take_while(|&c| is_ident(c))
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        start = at + 1;
    }
    None
}

/// `impl …` header → last path segment of the Self type, generics
/// stripped. `impl fmt::Debug for FlowEntry {` → `FlowEntry`;
/// `impl<T> Foo<T> {` → `Foo`.
fn impl_header(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("impl")?;
    if rest.starts_with(is_ident) {
        return None; // an identifier like `implement`
    }
    // Skip generic parameters directly after `impl`.
    let mut rest = rest;
    if rest.starts_with('<') {
        let mut d = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => d += 1,
                '>' => {
                    d -= 1;
                    if d == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    // `impl Trait for Type` → take what follows ` for `.
    let ty = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    let ty = ty.trim_start();
    // Last `::` segment before generics/brace/where.
    let head: String = ty
        .chars()
        .take_while(|&c| is_ident(c) || c == ':')
        .collect();
    let seg = head.rsplit("::").next().unwrap_or("").to_string();
    if seg.is_empty() {
        None
    } else {
        Some(seg)
    }
}

/// A struct-body field line: `[pub[(…)]] name: Type,` → `name`.
fn field_name(code: &str) -> Option<String> {
    let mut t = code.trim_start();
    if t.starts_with('#') || t.starts_with('}') {
        return None;
    }
    if let Some(rest) = t.strip_prefix("pub") {
        let rest = rest.trim_start();
        t = match rest.strip_prefix('(') {
            Some(r) => &r[r.find(')')? + 1..],
            None => rest,
        };
        t = t.trim_start();
    }
    let name: String = t.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() || name == "fn" || name == "const" || name == "type" {
        return None;
    }
    let rest = t[name.len()..].trim_start();
    if rest.starts_with(':') && !rest.starts_with("::") {
        Some(name)
    } else {
        None
    }
}

/// Walk backwards from byte offset `end` (exclusive) collecting a dotted
/// path `recv.f1.f2`. Returns `(receiver, fields in order)`.
fn path_before(code: &str, end: usize) -> (Receiver, Vec<String>) {
    let bytes = code.as_bytes();
    let mut i = end;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    let mut segs: Vec<String> = Vec::new();
    loop {
        let seg_end = i;
        while i > 0 && is_ident(bytes[i - 1] as char) {
            i -= 1;
        }
        if seg_end == i {
            // No identifier here: the chain starts at a `)`/`]`/other
            // expression, or the path is malformed.
            return (Receiver::Expr, segs);
        }
        segs.insert(0, code[i..seg_end].to_string());
        if i > 0 && bytes[i - 1] == b'.' {
            i -= 1;
            // `..` (range) is not a field access.
            if i > 0 && bytes[i - 1] == b'.' {
                return (Receiver::Expr, segs);
            }
            continue;
        }
        // Path fully consumed: the first segment is the receiver.
        let first = segs.remove(0);
        let receiver = if first == "self" {
            Receiver::SelfRecv
        } else {
            Receiver::Ident(first)
        };
        return (receiver, segs);
    }
}

/// Forward path parse from byte offset `start`: `recv.f1.f2` until a
/// non-path character. Returns `(receiver, fields, stop char)`.
fn path_after(code: &str, start: usize) -> (Receiver, Vec<String>, Option<char>) {
    let rest = &code[start..];
    let rest = rest.trim_start();
    let mut segs: Vec<String> = Vec::new();
    let mut it = rest.char_indices().peekable();
    let mut seg = String::new();
    let mut stop = None;
    while let Some(&(_, c)) = it.peek() {
        if is_ident(c) {
            seg.push(c);
            it.next();
        } else if c == '.' {
            if seg.is_empty() {
                stop = Some(c);
                break;
            }
            segs.push(std::mem::take(&mut seg));
            it.next();
        } else {
            stop = Some(c);
            break;
        }
    }
    if !seg.is_empty() {
        segs.push(seg);
    }
    if segs.is_empty() {
        return (Receiver::Expr, segs, stop);
    }
    let first = segs.remove(0);
    let receiver = if first == "self" {
        Receiver::SelfRecv
    } else {
        Receiver::Ident(first)
    };
    (receiver, segs, stop)
}

fn push_sites(
    line: usize,
    receiver: Receiver,
    fields: &[String],
    kind: WriteKind,
    out: &mut Vec<WriteSite>,
) {
    for (i, f) in fields.iter().enumerate() {
        out.push(WriteSite {
            line,
            receiver: receiver.clone(),
            field: f.clone(),
            head: i == 0,
            kind,
        });
    }
}

/// Collect every field-write site on one code line.
fn collect_writes(code: &str, lineno: usize, out: &mut Vec<WriteSite>) {
    let bytes = code.as_bytes();

    // Assignments and compound assignments.
    let mut i = 0;
    while let Some(pos) = code[i..].find('=') {
        let at = i + pos;
        i = at + 1;
        let prev = at.checked_sub(1).map(|p| bytes[p] as char);
        let next = bytes.get(at + 1).map(|&b| b as char);
        if next == Some('=') {
            i = at + 2;
            continue; // ==
        }
        if next == Some('>') || matches!(prev, Some('=') | Some('!')) {
            continue; // => , second half of ==, !=
        }
        let (lvalue_end, kind) = match prev {
            Some('<') | Some('>') => {
                // `<=`/`>=` are comparisons; `<<=`/`>>=` are writes.
                let prev2 = at.checked_sub(2).map(|p| bytes[p] as char);
                if prev2 == prev {
                    (at - 2, WriteKind::CompoundAssign)
                } else {
                    continue;
                }
            }
            Some(c) if "+-*/%&|^".contains(c) => (at - 1, WriteKind::CompoundAssign),
            _ => (at, WriteKind::Assign),
        };
        let (receiver, fields) = path_before(code, lvalue_end);
        if !fields.is_empty() {
            push_sites(lineno, receiver, &fields, kind, out);
        }
    }

    // `&mut recv.field` borrows.
    let mut i = 0;
    while let Some(pos) = code[i..].find("&mut ") {
        let at = i + pos;
        i = at + 5;
        let (receiver, mut fields, stop) = path_after(code, at + 5);
        // `&mut x.entry.lock()` mutably borrows the *guard*, not `lock`;
        // drop a trailing method-call segment.
        if stop == Some('(') && !fields.is_empty() {
            fields.pop();
        }
        if !fields.is_empty() {
            push_sites(lineno, receiver, &fields, WriteKind::MutBorrow, out);
        }
    }

    // Mutating method calls on a field: `recv.field.push(…)`.
    for m in MUT_METHODS {
        let needle = format!(".{m}(");
        let mut i = 0;
        while let Some(pos) = code[i..].find(&needle) {
            let at = i + pos;
            i = at + needle.len();
            let (receiver, fields) = path_before(code, at);
            if !fields.is_empty() {
                push_sites(lineno, receiver, &fields, WriteKind::MutMethod, out);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Lock-order analysis (rule W002)
// ----------------------------------------------------------------------

/// A W002 candidate: `(1-based line, message)`.
pub type LockFinding = (usize, String);

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
pub fn lock_order(file: &SourceFile) -> Vec<LockFinding> {
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
    let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap());
    let after = at + tok.len();
    let after_ok = after >= code.len() || !is_ident(code[after..].chars().next().unwrap());
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn model(src: &str) -> FileModel {
        FileModel::build(&SourceFile::scan(src))
    }

    #[test]
    fn structs_and_fields_are_parsed() {
        let m = model(
            "pub struct FlowEntry {\n    pub snd_una: u32,\n    wscale_learned: bool,\n    #[allow(dead_code)]\n    pub(crate) inner: Option<Vec<(u64, u64)>>,\n}\n",
        );
        assert_eq!(m.structs.len(), 1);
        let s = &m.structs[0];
        assert_eq!(s.name, "FlowEntry");
        let names: Vec<&str> = s.fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["snd_una", "wscale_learned", "inner"]);
    }

    #[test]
    fn enum_variants_are_not_fields() {
        let m = model("pub enum Verdict {\n    Forward(u32),\n    Drop,\n}\n");
        assert!(m.structs.is_empty());
    }

    #[test]
    fn impl_blocks_resolve_self_type() {
        let m = model(
            "impl FlowEntry {\n    fn f(&mut self) {\n        self.snd_una = 1;\n    }\n}\nimpl core::fmt::Debug for FlowEntry {\n    fn g(&self) {}\n}\nimpl<T> Wrapper<T> {\n    fn h(&self) {}\n}\n",
        );
        assert_eq!(m.impls.len(), 3);
        assert_eq!(m.impls[0].target, "FlowEntry");
        assert_eq!(m.impls[1].target, "FlowEntry");
        assert_eq!(m.impls[2].target, "Wrapper");
        assert_eq!(m.impl_target_at(3), Some("FlowEntry"));
        assert_eq!(m.impl_target_at(9), Some("Wrapper"));
    }

    #[test]
    fn write_sites_cover_all_four_shapes() {
        let m = model(
            "fn f(e: &mut E) {\n\
             \x20   self.snd_una = 1;\n\
             \x20   e.rx_total += 2;\n\
             \x20   g(&mut self.ooo);\n\
             \x20   self.window_trace.get_or_insert_with(Vec::new).push((1, 2));\n\
             }\n",
        );
        let by_field = |f: &str| {
            m.writes
                .iter()
                .find(|w| w.field == f)
                .unwrap_or_else(|| panic!("no write to {f}: {:?}", m.writes))
        };
        assert_eq!(by_field("snd_una").kind, WriteKind::Assign);
        assert_eq!(by_field("snd_una").receiver, Receiver::SelfRecv);
        assert_eq!(by_field("rx_total").kind, WriteKind::CompoundAssign);
        assert_eq!(
            by_field("rx_total").receiver,
            Receiver::Ident("e".to_string())
        );
        assert_eq!(by_field("ooo").kind, WriteKind::MutBorrow);
        assert_eq!(by_field("window_trace").kind, WriteKind::MutMethod);
    }

    #[test]
    fn non_writes_do_not_fire() {
        let m = model(
            "fn f() {\n\
             \x20   if a.snd_una == b.snd_nxt {}\n\
             \x20   let x = e.rx_total;\n\
             \x20   for i in 0..=n {}\n\
             \x20   if let Some(p) = e.rtt_probe {}\n\
             \x20   #[cfg(feature = \"strict\")]\n\
             \x20   match x { A => 1, _ => 2 };\n\
             \x20   let ok = a <= b && c >= d;\n\
             }\n",
        );
        assert!(m.writes.is_empty(), "{:?}", m.writes);
    }

    #[test]
    fn shift_assign_is_a_write_but_comparison_is_not() {
        let m = model("fn f() {\n    e.mask <<= 1;\n    if e.mask >= 2 {}\n}\n");
        assert_eq!(m.writes.len(), 1);
        assert_eq!(m.writes[0].field, "mask");
        assert_eq!(m.writes[0].kind, WriteKind::CompoundAssign);
    }

    #[test]
    fn chained_fields_emit_head_and_tail_sites() {
        let m = model("impl D {\n    fn f(&mut self) {\n        self.rwnd.target = 5;\n    }\n}\n");
        assert_eq!(m.writes.len(), 2);
        assert!(m.writes[0].head && m.writes[0].field == "rwnd");
        assert!(!m.writes[1].head && m.writes[1].field == "target");
    }

    #[test]
    fn guard_receiver_writes_resolve_to_expr() {
        let m = model("fn f() {\n    slot.entry.lock().closing = true;\n}\n");
        assert_eq!(m.writes.len(), 1);
        assert_eq!(m.writes[0].receiver, Receiver::Expr);
        assert_eq!(m.writes[0].field, "closing");
    }

    #[test]
    fn scope_annotations_are_collected() {
        let m = model("//! acdc-scope: vswitch.rwnd-rewrite\nfn f() {}\n");
        assert_eq!(m.scopes.len(), 1);
        assert_eq!(m.scopes[0].1, "vswitch.rwnd-rewrite");
    }

    fn locks(src: &str) -> Vec<LockFinding> {
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
}
