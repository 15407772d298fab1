//! What a run writes and what `compare` reads: the result line, the
//! result and trace files, the host context, and `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::run::{Outcome, END_TO_END, PER_LAYER};
use crate::trace::Span;
use crate::workload::{Workload, RANKS, WORKLOADS};

/// The benchmark's directory, as built.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` at the repository root, checked against the metric
/// and workload tables compiled into this program.
pub fn benchmark_json() -> Result<Json, String> {
    let b = read_json(&bench_dir().join("../BENCHMARK.json"))?;
    let names = |key: &str, field: &str| -> Vec<String> {
        b.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some(format!(
                    "{} [{}]",
                    m.get("name")?.as_str()?,
                    m.get(field)?.as_str()?
                ))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<String> {
        t.iter().map(|(n, u)| format!("{n} [{u}]")).collect()
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{} [{}]", w.name, w.why))
        .collect();
    for (what, listed, compiled) in [
        (
            "end_to_end",
            names("end_to_end", "unit"),
            table(&END_TO_END),
        ),
        ("per_layer", names("per_layer", "unit"), table(&PER_LAYER)),
        ("workloads", names("workloads", "why"), workloads),
    ] {
        if listed != compiled {
            return Err(format!(
                "BENCHMARK.json {what} differs from the benchmark's own table:\n  listed   {listed:?}\n  compiled {compiled:?}"
            ));
        }
    }
    Ok(b)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cache_size(index: u32) -> Json {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| Json::str(s.trim()))
    .unwrap_or(Json::Null)
}

/// File-system type of the mount that holds `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were measured.
pub fn context(tmp_dir: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", Json::from(nproc as u64)),
        ("ranks", Json::from(RANKS as u64)),
        // fewer cores than rank threads: the numbers measure the scheduler
        ("oversubscribed", Json::Bool(nproc < RANKS)),
        ("l2", cache_size(2)),
        ("l3", cache_size(3)),
        ("tmp_dir_fs", Json::str(fs_type(tmp_dir))),
        (
            "working_set_bytes",
            Json::obj(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::from(w.working_set_bytes()))),
            ),
        ),
    ])
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The last line of standard output.
pub fn result_line(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics_json(&out.metrics)),
    ])
}

/// One run's entry in the result file.
pub fn run_record(w: &Workload, seed: u64, out: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::from(seed)),
        ("traced", Json::Bool(out.traced)),
        ("rounds", Json::from(out.rounds as u64)),
        ("steal_frac", Json::Num(out.steal_frac)),
        ("k", Json::from(out.k as u64)),
        (
            "samples_per_metric",
            Json::from(out.samples_per_metric as u64),
        ),
        ("seconds_measured", Json::Num(out.seconds_measured)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        (
            "fail_frac",
            Json::Num(out.failed as f64 / out.attempted as f64),
        ),
        ("metrics", metrics_json(&out.metrics)),
        (
            "round_iqr_frac",
            Json::obj(out.round_iqr_frac.iter().map(|&(n, v)| (n, Json::Num(v)))),
        ),
    ])
}

/// Spans as rows of numbers; a span's `parent` is a row index or -1.
pub fn trace_json(spans: &[Span]) -> Json {
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let rows = spans.iter().map(|s| {
        let name = names.binary_search(&s.name).expect("name was collected");
        Json::Arr(vec![
            Json::from(name as u64),
            Json::from(u64::from(s.rank)),
            Json::from(s.op_id),
            Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
            Json::from(s.start_ns),
            Json::from(s.end_ns),
            Json::from(s.bytes),
        ])
    });
    Json::obj([
        (
            "fields",
            Json::Arr(
                [
                    "name", "rank", "op_id", "parent", "start_ns", "end_ns", "bytes",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        (
            "names",
            Json::Arr(names.iter().map(|n| Json::str(*n)).collect()),
        ),
        ("spans", Json::Arr(rows.collect())),
    ])
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between rounds is wider than the bound: a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse; negative when better.
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn untraced_runs(file: &Json) -> Vec<&Json> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .collect()
}

/// Per (workload, end-to-end metric) present in both files: how much
/// worse `b` is than `a`, judged against the bound in `bench` and the
/// wider of the two runs' spreads between rounds.
pub fn compare(a: &Json, b: &Json, bench: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let runs_b = untraced_runs(b);
    for ra in untraced_runs(a) {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("");
        let Some(rb) = runs_b
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for m in bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {metric} has no bound"))?;
            let value = |r: &Json| r.get("metrics")?.get(metric)?.get("value")?.as_f64();
            let spread = |r: &Json| r.get("round_iqr_frac")?.get(metric)?.as_f64();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                return Err(format!("{name}: {metric} is missing from a result file"));
            };
            let worse_by = match field("better") {
                "lower" => (vb - va) / va,
                _ => (va - vb) / va,
            };
            let spread = spread(ra).unwrap_or(0.0).max(spread(rb).unwrap_or(0.0));
            let verdict = if worse_by > bound && worse_by > spread {
                Verdict::Regressed
            } else if spread > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(ra) > 0.0 || failed(rb) > 0.0 {
            return Err(format!("{name}: a run has failed operations or checks"));
        }
    }
    if rows.is_empty() {
        return Err("the two files share no untraced run of a workload".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_compiled_tables() {
        let b = benchmark_json().expect("BENCHMARK.json agrees with the tables");
        assert_eq!(
            b.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    fn file(write_mbps: f64, setup_s: f64, iqr: f64) -> Json {
        Json::parse(&format!(
            r#"{{"runs": [
                {{"workload": "w", "traced": true, "failed": 0, "metrics": {{}}}},
                {{"workload": "w", "traced": false, "failed": 0,
                  "metrics": {{"write_mbps": {{"value": {write_mbps}, "unit": "MB/s"}},
                               "setup_s": {{"value": {setup_s}, "unit": "s"}}}},
                  "round_iqr_frac": {{"write_mbps": {iqr}, "setup_s": 0.01}}}}]}}"#
        ))
        .unwrap()
    }

    fn bench() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "write_mbps", "unit": "MB/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<Verdict> {
        compare(a, b, &bench())
            .unwrap()
            .into_iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn compare_judges_direction_bound_and_spread() {
        let base = file(100.0, 1.0, 0.02);
        // within bounds both ways
        assert_eq!(
            verdicts(&base, &file(95.0, 1.2, 0.02)),
            [Verdict::Ok, Verdict::Ok]
        );
        // bandwidth down 20 %, set-up up 30 %: both past their bounds
        assert_eq!(
            verdicts(&base, &file(80.0, 1.3, 0.02)),
            [Verdict::Regressed, Verdict::Regressed]
        );
        // getting better is never a regression
        assert_eq!(
            verdicts(&base, &file(150.0, 0.5, 0.02)),
            [Verdict::Ok, Verdict::Ok]
        );
        // spread wider than the bound: small changes cannot be resolved,
        // a change larger than the spread still can
        assert_eq!(
            verdicts(&base, &file(95.0, 1.0, 0.15))[0],
            Verdict::Unresolved
        );
        assert_eq!(
            verdicts(&base, &file(70.0, 1.0, 0.15))[0],
            Verdict::Regressed
        );
        let rows = compare(&base, &file(80.0, 1.0, 0.02), &bench()).unwrap();
        assert!((rows[0].worse_by - 0.2).abs() < 1e-12);
    }

    #[test]
    fn compare_refuses_failed_or_disjoint_runs() {
        let base = file(100.0, 1.0, 0.02);
        let failed =
            Json::parse(&base.to_string().replace("\"failed\": 0", "\"failed\": 3")).unwrap();
        assert!(compare(&base, &failed, &bench()).is_err());
        let other = Json::parse(&base.to_string().replace("\"w\"", "\"x\"")).unwrap();
        assert!(compare(&base, &other, &bench()).is_err());
    }

    #[test]
    fn trace_rows_index_names_and_parents() {
        let spans = vec![
            Span {
                name: "core.write_at",
                rank: 1,
                op_id: 9,
                parent: None,
                start_ns: 5,
                end_ns: 50,
                bytes: 8,
            },
            Span {
                name: "a.child",
                rank: 1,
                op_id: 9,
                parent: Some(0),
                start_ns: 6,
                end_ns: 7,
                bytes: 4,
            },
        ];
        assert_eq!(
            trace_json(&spans).to_string(),
            r#"{"fields": ["name", "rank", "op_id", "parent", "start_ns", "end_ns", "bytes"], "names": ["a.child", "core.write_at"], "spans": [[1, 1, 9, -1, 5, 50, 8], [0, 1, 9, 0, 6, 7, 4]]}"#
        );
    }
}
