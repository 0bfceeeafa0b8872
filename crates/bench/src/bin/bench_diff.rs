//! `bench_diff [<entry>]` — prints every metric of a flat
//! `BENCH_baseline.json` entry against its parent's value, as a ratio.
//!
//! A flat entry is an object holding `env`, `metrics` and
//! `parent_metrics`, where the two metric objects have the same keys and
//! every value is a number: `metrics` is the change, `parent_metrics` the
//! parent commit measured back to back with it on the same machine. Any
//! other shape is an error, so CI fails on a malformed entry. (The oldest
//! entries predate this schema and fail by design.)
//! Without an argument the newest entry is checked: the first key naming a
//! PR (`pr<N>`), since entries are kept newest first.
//!
//! ```text
//! cargo run --release -p rm-bench --bin bench_diff [-- <entry>]
//! ```

use std::process::ExitCode;

/// The file read, relative to the working directory (the repository root).
const BASELINE: &str = "BENCH_baseline.json";

/// A parsed JSON value. Objects keep their keys in file order.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A minimal recursive-descent JSON parser: enough for the baseline file.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }

    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    let c = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("expected a value"))
    }
}

/// One metric of a flat entry: name, change value, parent value.
type Row = (String, f64, f64);

/// The metric rows of the flat entry `name`, in the order of `metrics`, or
/// why the entry is not a well-formed flat entry.
fn flat_rows(root: &Json, name: &str) -> Result<Vec<Row>, String> {
    let entry = root.get(name).ok_or_else(|| format!("no entry '{name}'"))?;
    if !matches!(entry.get("env"), Some(Json::Obj(_))) {
        return Err(format!("{name}: missing 'env' object"));
    }
    let metrics = |key: &str| match entry.get(key) {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| match v {
                Json::Num(x) => Ok((k.clone(), *x)),
                _ => Err(format!("{name}: {key}.{k} is not a number")),
            })
            .collect::<Result<Vec<_>, _>>(),
        _ => Err(format!("{name}: missing '{key}' object")),
    };
    let change = metrics("metrics")?;
    let parent = metrics("parent_metrics")?;
    for (key, _) in &parent {
        if !change.iter().any(|(k, _)| k == key) {
            return Err(format!("{name}: '{key}' is in parent_metrics only"));
        }
    }
    change
        .into_iter()
        .map(|(key, value)| {
            let base = parent
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{name}: '{key}' is in metrics only"))?;
            Ok((key, value, base))
        })
        .collect()
}

/// The newest entry: the first top-level key naming a PR.
fn newest_entry(root: &Json) -> Option<&str> {
    let Json::Obj(fields) = root else {
        return None;
    };
    fields.iter().map(|(k, _)| k.as_str()).find(|k| {
        k.strip_prefix("pr")
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    })
}

fn run(entry: Option<&str>) -> Result<(), String> {
    let text =
        std::fs::read_to_string(BASELINE).map_err(|e| format!("cannot read {BASELINE}: {e}"))?;
    let root = Parser::parse(&text)?;
    let name = match entry {
        Some(name) => name,
        None => newest_entry(&root).ok_or("no pr<N> entry found")?,
    };
    let rows = flat_rows(&root, name)?;
    let width = rows.iter().map(|(k, _, _)| k.len()).max().unwrap_or(0);
    println!("{name}: {} metrics, change vs parent", rows.len());
    for (key, value, base) in &rows {
        println!(
            "  {key:<width$}  {value:>12.3}  {base:>12.3}  ×{:.3}",
            value / base
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 1 || args.first().is_some_and(|a| a.starts_with('-')) {
        eprintln!("usage: bench_diff [<entry>]");
        return ExitCode::from(2);
    }
    match run(args.first().map(String::as_str)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "_comment": "x",
        "pr9": {
            "_comment": "a \"quoted\" note\n",
            "env": {"cpus": 2},
            "metrics": {"a_ms": 5.0, "b": -1e3},
            "parent_metrics": {"b": -2e3, "a_ms": 10}
        },
        "pr8": {"env": {}, "metrics": {}, "parent_metrics": {}}
    }"#;

    #[test]
    fn a_flat_entry_yields_change_and_parent_per_metric() {
        let root = Parser::parse(GOOD).unwrap();
        assert_eq!(newest_entry(&root), Some("pr9"));
        let rows = flat_rows(&root, "pr9").unwrap();
        assert_eq!(
            rows,
            vec![("a_ms".into(), 5.0, 10.0), ("b".into(), -1e3, -2e3)]
        );
        assert_eq!(
            root.get("pr9").and_then(|e| e.get("_comment")),
            Some(&Json::Str("a \"quoted\" note\n".into()))
        );
    }

    #[test]
    fn malformed_flat_entries_are_rejected() {
        let entry = |body: &str| format!(r#"{{"pr1": {body}}}"#);
        let cases = [
            (r#"{"metrics": {}, "parent_metrics": {}}"#, "missing 'env'"),
            (r#"{"env": {}, "parent_metrics": {}}"#, "missing 'metrics'"),
            (r#"{"env": {}, "metrics": {}}"#, "missing 'parent_metrics'"),
            (
                r#"{"env": {}, "metrics": {"a": 1}, "parent_metrics": {}}"#,
                "'a' is in metrics only",
            ),
            (
                r#"{"env": {}, "metrics": {}, "parent_metrics": {"b": 1}}"#,
                "'b' is in parent_metrics only",
            ),
            (
                r#"{"env": {}, "metrics": {"a": "1"}, "parent_metrics": {"a": 1}}"#,
                "metrics.a is not a number",
            ),
            (r#"{"before": {}, "after": {}}"#, "missing 'env'"),
        ];
        for (body, want) in cases {
            let root = Parser::parse(&entry(body)).unwrap();
            let err = flat_rows(&root, "pr1").unwrap_err();
            assert!(err.contains(want), "{body}: {err}");
        }
        let root = Parser::parse(GOOD).unwrap();
        assert!(flat_rows(&root, "pr99").unwrap_err().contains("no entry"));
    }

    #[test]
    fn invalid_json_is_an_error() {
        for text in [
            "",
            "{",
            r#"{"a": }"#,
            r#"{"a": 1,}"#,
            "[1 2]",
            r#""\q""#,
            "1 2",
        ] {
            assert!(Parser::parse(text).is_err(), "{text:?} parsed");
        }
        assert_eq!(
            Parser::parse(r#"[true, false, null, "é"]"#).unwrap(),
            Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
                Json::Str("é".into())
            ])
        );
    }

    /// The repository's own baseline file: its newest entry is well formed.
    #[test]
    fn the_newest_baseline_entry_is_well_formed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let root = Parser::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let newest = newest_entry(&root).expect("a pr<N> entry");
        assert!(!flat_rows(&root, newest).unwrap().is_empty());
    }
}
