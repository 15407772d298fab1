//! Versioned benchmark-result schema.
//!
//! Every `BENCH_*.json` artifact at the workspace root is a flat list of
//! `{bench, config, metric, value, unit, commit}` entries under a
//! `schema_version` header, so entries of runs from different commits
//! match by `(bench, config, metric)`. Keeping the schema stable (append
//! entries, never rename fields) keeps old files readable. Nothing gates
//! on these files: the `benchmark/` package judges performance.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Bump only on incompatible field changes, so that a reader can tell
/// files it cannot compare.
pub const SCHEMA_VERSION: u64 = 1;

/// One measurement: which benchmark, which configuration of it, which
/// metric, and the measured value, in `unit` (time metrics in `ns`/`ms`).
pub struct Entry {
    pub bench: String,
    pub config: String,
    pub metric: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Entry {
    pub fn new(
        bench: impl Into<String>,
        config: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
        unit: &'static str,
    ) -> Entry {
        Entry {
            bench: bench.into(),
            config: config.into(),
            metric: metric.into(),
            value,
            unit,
        }
    }
}

/// The current git commit (short hash), or `"unknown"` outside a
/// repository — bench artifacts must stay writable from exported
/// tarballs.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Render `entries` as a schema-versioned JSON document. `context` pairs
/// (e.g. core counts) land in a `context` object, informational only.
pub fn render(entries: &[Entry], context: &[(&str, String)]) -> String {
    let commit = commit();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(json, "  \"commit\": \"{commit}\",");
    if !context.is_empty() {
        json.push_str("  \"context\": {");
        for (i, (k, v)) in context.iter().enumerate() {
            let sep = if i + 1 == context.len() { "" } else { ", " };
            let _ = write!(json, "\"{k}\": {v}{sep}");
        }
        json.push_str("},\n");
    }
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"bench\": \"{}\", \"config\": \"{}\", \"metric\": \"{}\", \
             \"value\": {}, \"unit\": \"{}\", \"commit\": \"{commit}\"}}{sep}",
            e.bench,
            e.config,
            e.metric,
            fmt_value(e.value),
            e.unit
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// JSON has no NaN/Inf literals; degenerate measurements become null.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// The workspace root, from the bench crate's manifest dir when cargo
/// provides it (benches run from the package directory), else cwd.
pub fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Write a `BENCH_*.json` artifact at the workspace root.
pub fn write_bench_json(filename: &str, entries: &[Entry], context: &[(&str, String)]) {
    let path = workspace_root().join(filename);
    std::fs::write(&path, render(entries, context))
        .unwrap_or_else(|e| panic!("write {filename}: {e}"));
    println!("  -> {filename}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_versioned_json() {
        let entries = vec![
            Entry::new("pipeline_write", "listless/on", "wall_ns", 1234.5, "ns"),
            Entry::new("pack", "treewalk/flat", "median_ns", f64::NAN, "ns"),
        ];
        let json = render(&entries, &[("cores", "8".to_string())]);
        let v = lio_obs::json::parse(&json).expect("schema output parses");
        assert_eq!(
            v.get("schema_version").and_then(|v| v.as_f64()),
            Some(SCHEMA_VERSION as f64)
        );
        let rows = v.get("entries").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("metric").and_then(|m| m.as_str()),
            Some("wall_ns")
        );
        assert_eq!(rows[0].get("value").and_then(|m| m.as_f64()), Some(1234.5));
        // NaN degraded to null, not an invalid literal
        assert!(rows[1].get("value").is_some_and(|v| v.as_f64().is_none()));
    }
}
