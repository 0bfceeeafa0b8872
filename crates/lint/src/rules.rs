//! The rule engine: named workspace invariants matched over the token stream
//! of [`crate::lexer`], plus the suppression layer (`rm-lint: allow(...)`)
//! and the per-crate configuration table.
//!
//! Every rule guards one facet of the repo's core contract — bit-identical
//! pipeline output at any thread count, batch size, or pool mode — or the
//! safety discipline of the code that makes the parallelism sound:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-needs-safety-comment` | every `unsafe` site carries a `// SAFETY:` argument |
//! | `no-raw-env-read` | env knobs resolve once per process through cached accessors |
//! | `no-thread-spawn-outside-runtime` | all parallelism flows through `rm-runtime` |
//! | `no-unordered-iteration` | no `HashMap`/`HashSet` in deterministic crates |
//! | `no-wallclock-in-deterministic-path` | no `Instant::now`/`SystemTime::now` outside timing code |
//! | `no-entropy-rng` | all randomness is seed-derived (`derive_seed`), never OS entropy |
//! | `prefer-matmul-into` | hot-path modules reuse output buffers instead of allocating `matmul` |
//!
//! Suppressions are explicit and must justify themselves:
//! `// rm-lint: allow(rule-name): why this site is sound`. An annotation with
//! no justification, or naming an unknown rule, is itself a diagnostic — the
//! suppression layer cannot silently rot.

use crate::lexer::{Lexed, Token, TokenKind};

/// The named rules, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    UnsafeNeedsSafetyComment,
    NoRawEnvRead,
    NoThreadSpawnOutsideRuntime,
    NoUnorderedIteration,
    NoWallclockInDeterministicPath,
    NoEntropyRng,
    PreferMatmulInto,
}

/// All rules, for the registry listing and the config table.
pub const ALL_RULES: &[Rule] = &[
    Rule::UnsafeNeedsSafetyComment,
    Rule::NoRawEnvRead,
    Rule::NoThreadSpawnOutsideRuntime,
    Rule::NoUnorderedIteration,
    Rule::NoWallclockInDeterministicPath,
    Rule::NoEntropyRng,
    Rule::PreferMatmulInto,
];

impl Rule {
    /// The kebab-case name used in diagnostics and `allow(...)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafetyComment => "unsafe-needs-safety-comment",
            Rule::NoRawEnvRead => "no-raw-env-read",
            Rule::NoThreadSpawnOutsideRuntime => "no-thread-spawn-outside-runtime",
            Rule::NoUnorderedIteration => "no-unordered-iteration",
            Rule::NoWallclockInDeterministicPath => "no-wallclock-in-deterministic-path",
            Rule::NoEntropyRng => "no-entropy-rng",
            Rule::PreferMatmulInto => "prefer-matmul-into",
        }
    }

    /// Parses an `allow(...)` rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale, shown by `rm-lint rules`.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafetyComment => {
                "every `unsafe` block/impl/fn must be argued sound by a nearby `// SAFETY:` comment"
            }
            Rule::NoRawEnvRead => {
                "env knobs must resolve once per process through cached accessors; a raw \
                 `env::var` read can disagree with the cached value mid-run"
            }
            Rule::NoThreadSpawnOutsideRuntime => {
                "all parallelism must flow through rm-runtime's deterministic primitives; a stray \
                 spawn escapes the ordering and nesting contract"
            }
            Rule::NoUnorderedIteration => {
                "HashMap/HashSet iteration order varies between processes; deterministic crates \
                 must use ordered structures or justify membership-only use"
            }
            Rule::NoWallclockInDeterministicPath => {
                "wall-clock reads in a deterministic path invite time-dependent branches; timing \
                 belongs to the bench harness and explicitly justified telemetry"
            }
            Rule::NoEntropyRng => {
                "all randomness must derive from the seed (`derive_seed`); OS entropy breaks \
                 reproducibility by construction"
            }
            Rule::PreferMatmulInto => {
                "hot-path modules should write into reusable buffers (`matmul_into`) instead of \
                 allocating a fresh output per call"
            }
        }
    }
}

/// One finding, printed as `file:line:col rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// The rule name, or `lint-annotation` for malformed suppressions.
    pub rule: String,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Per-crate configuration: path prefixes (relative to the workspace root,
/// `/`-separated) where specific rules do not apply, with the reason on
/// record. Inline `rm-lint: allow` annotations handle single sites; this
/// table handles whole crates whose *purpose* exempts them.
pub struct PathPolicy {
    pub prefix: &'static str,
    pub skip: &'static [Rule],
    pub why: &'static str,
}

pub const PATH_POLICIES: &[PathPolicy] = &[
    PathPolicy {
        prefix: "crates/runtime/",
        skip: &[Rule::NoThreadSpawnOutsideRuntime],
        why: "rm-runtime is the sanctioned spawn site: every thread in the process is created \
              (and flagged) here",
    },
    PathPolicy {
        prefix: "crates/bench/",
        skip: &[Rule::NoWallclockInDeterministicPath],
        why: "the experiment harness measures wall-clock by design (stage timings, Table VII); \
              timings are reported, never branched on",
    },
];

/// Directory names never descended into by the workspace walker. `vendor`
/// holds third-party shims that are outside the repo's determinism contract;
/// `target`/`.git` are build/VCS state.
pub const SKIP_DIR_NAMES: &[&str] = &["vendor", "target", ".git", ".github"];

/// Rules additionally skipped for files under a `benches/` directory:
/// criterion benches time things — that is their job.
const BENCH_DIR_SKIP: &[Rule] = &[Rule::NoWallclockInDeterministicPath];

/// Returns the rules that apply to a workspace-relative path.
fn rules_for(path: &str) -> Vec<Rule> {
    let mut rules: Vec<Rule> = ALL_RULES.to_vec();
    for policy in PATH_POLICIES {
        if path.starts_with(policy.prefix) {
            rules.retain(|r| !policy.skip.contains(r));
        }
    }
    if path.split('/').any(|seg| seg == "benches") {
        rules.retain(|r| !BENCH_DIR_SKIP.contains(r));
    }
    rules
}

/// A parsed `rm-lint:` annotation.
#[derive(Debug)]
enum Annotation {
    /// `rm-lint: allow(rule): justification` — suppresses `rule` on the
    /// annotation's own line and the line immediately below (so it can sit
    /// on its own line above the code it excuses).
    Allow { rule: Rule, line: u32 },
    /// `rm-lint: hot-path` — marks the whole file as a hot-loop module for
    /// [`Rule::PreferMatmulInto`].
    HotPath,
    /// A malformed annotation (unknown rule, missing justification): always
    /// a diagnostic, never suppressible.
    Malformed { line: u32, message: String },
}

/// Extracts every `rm-lint:` annotation from a file's comments.
///
/// Only a plain `//` line comment *starting* with `rm-lint:` is an
/// annotation. Doc comments (`///`, `//!`) and block comments never are, so
/// documentation can show the syntax verbatim without tripping the parser,
/// and prose that merely mentions rm-lint mid-sentence is ignored.
fn parse_annotations(lexed: &Lexed) -> Vec<Annotation> {
    let mut out = Vec::new();
    for (idx, comments) in lexed.comments.iter().enumerate() {
        let line = idx as u32 + 1;
        for segment in &comments.segments {
            let Some(content) = plain_comment_content(segment) else {
                continue;
            };
            let Some(body) = content.trim_start().strip_prefix("rm-lint:") else {
                continue;
            };
            let body = body.trim_start();
            if body.starts_with("hot-path") {
                out.push(Annotation::HotPath);
            } else if let Some(after) = body.strip_prefix("allow(") {
                let Some(close) = after.find(')') else {
                    out.push(Annotation::Malformed {
                        line,
                        message: "unclosed `allow(` annotation".to_string(),
                    });
                    continue;
                };
                let name = after[..close].trim();
                let tail = after[close + 1..].trim_start();
                let Some(rule) = Rule::from_name(name) else {
                    out.push(Annotation::Malformed {
                        line,
                        message: format!("unknown rule `{name}` in allow annotation"),
                    });
                    continue;
                };
                // The justification is mandatory: `): why...`.
                let justified = tail
                    .strip_prefix(':')
                    .map(|j| !j.trim().is_empty())
                    .unwrap_or(false);
                if !justified {
                    out.push(Annotation::Malformed {
                        line,
                        message: format!(
                            "allow({name}) has no justification — write \
                             `rm-lint: allow({name}): <why this site is sound>`"
                        ),
                    });
                    continue;
                }
                out.push(Annotation::Allow { rule, line });
            } else {
                out.push(Annotation::Malformed {
                    line,
                    message: "unrecognized rm-lint annotation (expected `allow(rule): why` \
                              or `hot-path`)"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// The content of a plain `//` comment segment (`None` for doc comments and
/// block comments).
fn plain_comment_content(segment: &str) -> Option<&str> {
    let rest = segment.strip_prefix("//")?;
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    Some(rest)
}

/// Lints one file's source text. `path` must be workspace-relative with `/`
/// separators — the config table and diagnostics both key on it.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = crate::lexer::lex(src);
    let annotations = parse_annotations(&lexed);

    let mut hot_path = false;
    let mut allows: Vec<(Rule, u32)> = Vec::new();
    let mut diagnostics = Vec::new();
    for annotation in &annotations {
        match annotation {
            Annotation::HotPath => hot_path = true,
            Annotation::Allow { rule, line } => allows.push((*rule, *line)),
            Annotation::Malformed { line, message } => diagnostics.push(Diagnostic {
                file: path.to_string(),
                line: *line,
                col: 1,
                rule: "lint-annotation".to_string(),
                message: message.clone(),
            }),
        }
    }

    let rules = rules_for(path);
    let mut findings = Vec::new();
    for rule in &rules {
        run_rule(*rule, &lexed, hot_path, &mut findings);
    }

    // Apply suppressions: an allow covers its own line and the next line.
    findings.retain(|(rule, token, _)| {
        !allows
            .iter()
            .any(|(r, line)| r == rule && (token.line == *line || token.line == *line + 1))
    });

    diagnostics.extend(
        findings
            .into_iter()
            .map(|(rule, token, message)| Diagnostic {
                file: path.to_string(),
                line: token.line,
                col: token.col,
                rule: rule.name().to_string(),
                message,
            }),
    );
    diagnostics.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    diagnostics
}

type Finding = (Rule, Token, String);

fn run_rule(rule: Rule, lexed: &Lexed, hot_path: bool, out: &mut Vec<Finding>) {
    match rule {
        Rule::UnsafeNeedsSafetyComment => unsafe_needs_safety(lexed, out),
        Rule::NoRawEnvRead => {
            for pat in [
                &["env", ":", ":", "var"][..],
                &["env", ":", ":", "var_os"][..],
            ] {
                match_sequence(
                    lexed,
                    pat,
                    |token| {
                        (
                            Rule::NoRawEnvRead,
                            token,
                            "raw environment read — route this knob through a once-per-process \
                         cached accessor (see `rm_runtime::resolve_threads` / \
                         `rm_imputers::driver::default_epochs` for the pattern)"
                                .to_string(),
                        )
                    },
                    out,
                );
            }
        }
        Rule::NoThreadSpawnOutsideRuntime => {
            for pat in [
                &["thread", ":", ":", "spawn"][..],
                &["thread", ":", ":", "Builder"][..],
                &["thread", ":", ":", "scope"][..],
            ] {
                match_sequence(
                    lexed,
                    pat,
                    |token| {
                        (
                            Rule::NoThreadSpawnOutsideRuntime,
                            token,
                            "thread creation outside rm-runtime — fan work out through \
                         `rm_runtime::par_map`/`par_chunks` so it obeys the determinism \
                         contract (ordering, nesting, seed derivation)"
                                .to_string(),
                        )
                    },
                    out,
                );
            }
        }
        Rule::NoUnorderedIteration => {
            for token in lexed.tokens.iter() {
                if token.kind == TokenKind::Ident
                    && (token.text == "HashMap" || token.text == "HashSet")
                {
                    out.push((
                        Rule::NoUnorderedIteration,
                        token.clone(),
                        format!(
                            "{} in a deterministic crate — iteration order varies between \
                             processes; use BTreeMap/BTreeSet/Vec, or justify a \
                             membership-only use with an allow annotation",
                            token.text
                        ),
                    ));
                }
            }
        }
        Rule::NoWallclockInDeterministicPath => {
            for pat in [
                &["Instant", ":", ":", "now"][..],
                &["SystemTime", ":", ":", "now"][..],
                &["SystemTime", ":", ":", "UNIX_EPOCH"][..],
            ] {
                match_sequence(
                    lexed,
                    pat,
                    |token| {
                        (
                            Rule::NoWallclockInDeterministicPath,
                            token,
                            "wall-clock read in a deterministic path — timing belongs to the \
                         bench harness; telemetry that never influences results needs an \
                         allow annotation saying so"
                                .to_string(),
                        )
                    },
                    out,
                );
            }
        }
        Rule::NoEntropyRng => {
            for token in lexed.tokens.iter() {
                if token.kind == TokenKind::Ident
                    && matches!(token.text.as_str(), "from_entropy" | "thread_rng" | "OsRng")
                {
                    out.push((
                        Rule::NoEntropyRng,
                        token.clone(),
                        format!(
                            "`{}` draws OS entropy — derive every stream from the run seed \
                             via `rm_runtime::derive_seed` + `StdRng::seed_from_u64`",
                            token.text
                        ),
                    ));
                }
            }
        }
        Rule::PreferMatmulInto => {
            if !hot_path {
                return;
            }
            match_sequence(
                lexed,
                &[".", "matmul", "("],
                |token| {
                    (
                        Rule::PreferMatmulInto,
                        token,
                        "allocating `matmul` in a hot-path module — use `matmul_into` with a \
                     reused buffer, or justify the allocation with an allow annotation"
                            .to_string(),
                    )
                },
                out,
            );
        }
    }
}

/// How many lines above an `unsafe` token a `SAFETY` comment may sit and
/// still count as covering it (the comment usually spans several lines and
/// may be separated from the token by an attribute like
/// `#[allow(unsafe_code)]`).
const SAFETY_LOOKBACK_LINES: u32 = 6;

fn unsafe_needs_safety(lexed: &Lexed, out: &mut Vec<Finding>) {
    for token in lexed.tokens.iter() {
        if token.kind != TokenKind::Ident || token.text != "unsafe" {
            continue;
        }
        let covered = (token.line.saturating_sub(SAFETY_LOOKBACK_LINES)..=token.line)
            .any(|line| lexed.comment_contains(line, "SAFETY"));
        if !covered {
            out.push((
                Rule::UnsafeNeedsSafetyComment,
                token.clone(),
                format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_LOOKBACK_LINES} \
                     lines above — state the invariant that makes this site sound"
                ),
            ));
        }
    }
}

/// Matches a token-text sequence (all tokens must be `Ident` or `Punct` with
/// exactly the given text) and reports at the first token of each match.
fn match_sequence(
    lexed: &Lexed,
    pattern: &[&str],
    make: impl Fn(Token) -> Finding,
    out: &mut Vec<Finding>,
) {
    let tokens = &lexed.tokens;
    if tokens.len() < pattern.len() {
        return;
    }
    'outer: for start in 0..=tokens.len() - pattern.len() {
        for (tok, want) in tokens[start..].iter().zip(pattern.iter()) {
            if tok.kind == TokenKind::Literal || tok.kind == TokenKind::Lifetime {
                continue 'outer;
            }
            if tok.text != *want {
                continue 'outer;
            }
        }
        out.push(make(tokens[start].clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_name(rule.name()), Some(*rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn path_policies_skip_rules() {
        assert!(
            !rules_for("crates/runtime/src/pool.rs").contains(&Rule::NoThreadSpawnOutsideRuntime)
        );
        assert!(rules_for("crates/runtime/src/pool.rs").contains(&Rule::NoRawEnvRead));
        assert!(
            !rules_for("crates/bench/src/lib.rs").contains(&Rule::NoWallclockInDeterministicPath)
        );
        assert!(!rules_for("crates/imputers/benches/bench_imputers.rs")
            .contains(&Rule::NoWallclockInDeterministicPath));
        assert!(rules_for("crates/core/src/pipeline.rs")
            .contains(&Rule::NoWallclockInDeterministicPath));
    }
}
