//! End-to-end bandwidth benchmark of the listless-io workspace, with a
//! per-layer budget. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark compare A.json B.json
//! ```

mod json;
mod layers;
mod report;
mod round;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use report::Verdict;
use run::RunOpts;
use workload::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workloads: Vec<&'static Workload>,
    /// The name result files carry: the workload's, or `all`.
    label: &'static str,
    opts: RunOpts,
}

fn parse_run_args(args: &[String], default_seconds: f64) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        label: "all",
        opts: RunOpts {
            seed: 1,
            seconds: default_seconds,
            traced: false,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot use '{v}'\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = workload::by_name(v).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{v}'; known: {}", known.join(", "))
                })?;
                parsed.workloads = vec![w];
                parsed.label = w.name;
            }
            "--seed" => {
                let v = value()?;
                parsed.opts.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                parsed.opts.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--smoke" => parsed.opts.smoke = true,
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    // 18 LIO_* variables silently change which path the library takes.
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("LIO_"))
    {
        return Err(format!(
            "{} is set: the benchmark measures default hints only; unset every LIO_* variable",
            k.to_string_lossy()
        ));
    }
    let bench = report::benchmark_json()?;
    let default_seconds = bench
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: run_seconds is missing")?;
    let RunArgs {
        workloads,
        label,
        opts,
    } = parse_run_args(args, default_seconds)?;

    // The Os backend creates its unlinked file in the system temp
    // directory; keep that inside the benchmark's own output directory.
    // No thread has been started yet.
    let out_dir = report::out_dir();
    let tmp_dir = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp_dir).map_err(|e| format!("{}: {e}", tmp_dir.display()))?;
    std::env::set_var("TMPDIR", &tmp_dir);

    settle_allocator();
    let mut records = Vec::new();
    let mut failed = 0;
    for w in workloads {
        let out = run::run_workload(w, &opts).map_err(|e| format!("{}: {e}", w.name))?;
        println!(
            "# {}: seed {}, {} rounds x {} timed samples of {} ops per direction and engine ({} samples per bandwidth), {:.1} s; {:.2}% of CPU time stolen",
            w.name,
            opts.seed,
            out.rounds,
            out.k,
            w.batch,
            out.samples_per_metric,
            out.seconds_measured,
            out.steal_frac * 100.0
        );
        for (name, value, unit) in &out.metrics {
            println!("{:<14} {name:<36} {value:>16.6} {unit}", w.name);
        }
        println!(
            "{:<14} {:<36} {:>16.6} ratio ({} failed of {} attempted)",
            w.name,
            "fail_frac",
            out.failed as f64 / out.attempted as f64,
            out.failed,
            out.attempted
        );
        for (name, spread) in &out.round_iqr_frac {
            println!(
                "# {:<12} {name:<14} spread between rounds (IQR/median) {:.2}%",
                w.name,
                spread * 100.0
            );
        }
        if opts.traced {
            let path = out_dir.join(format!("trace-{}.json", w.name));
            std::fs::write(&path, report::trace_json(&out.spans).to_string())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        failed += out.failed;
        records.push(report::run_record(w, opts.seed, &out));
        println!("{}", report::result_line(&out));
    }
    let file = Json::obj([
        ("schema", Json::from(1u64)),
        ("context", report::context(&tmp_dir)),
        ("runs", Json::Arr(records)),
    ]);
    let path = out_dir.join(format!(
        "{label}-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.traced)
    ));
    std::fs::write(&path, file.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// glibc serves a large block from `mmap` until the first such block is
/// freed, then raises its threshold to that block's size (up to 32 MiB)
/// and serves later blocks of that size from the heap. Left alone, which
/// engine runs first and how large its first freed block is decides how
/// the allocator treats every later round of the process, and page faults
/// are a large part of a small operation. Freeing one block just under the
/// cap first puts every round of every workload under the same policy: the
/// one a long-running program ends up with.
fn settle_allocator() {
    let mut block = vec![0u8; (32 << 20) - (1 << 20)];
    std::hint::black_box(&mut block);
}

fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let bench = report::benchmark_json()?;
    let rows = report::compare(&report::read_json(a)?, &report::read_json(b)?, &bench)?;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
