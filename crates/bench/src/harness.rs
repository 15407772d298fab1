//! A minimal benchmark harness: calibrated batches, median-of-samples.
//!
//! Each measurement calibrates an iteration count so one sample runs for
//! at least [`TARGET_SAMPLE`], takes `sample_size` samples, and reports
//! the median time per iteration (plus throughput when the group declares
//! bytes moved). Set `LIO_BENCH_FAST=1` to shrink samples for smoke runs.

use std::time::{Duration, Instant};

const TARGET_SAMPLE: Duration = Duration::from_millis(5);
const FAST_SAMPLE: Duration = Duration::from_micros(500);

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    pub min_ns: f64,
    pub median_ns: f64,
    pub mean_ns: f64,
}

pub(crate) fn fast_mode() -> bool {
    std::env::var("LIO_BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A named group of related benchmarks, printed as `group/id` lines.
pub struct Group {
    name: String,
    sample_size: usize,
    throughput_bytes: Option<u64>,
}

impl Group {
    pub fn new(name: impl Into<String>) -> Group {
        Group {
            name: name.into(),
            sample_size: 20,
            throughput_bytes: None,
        }
    }

    /// Number of samples per benchmark (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Bytes moved per iteration, for throughput reporting.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    /// Time `f`, print a report line, and return the stats.
    pub fn bench<F: FnMut()>(&mut self, id: impl std::fmt::Display, mut f: F) -> Stats {
        let fast = fast_mode();
        let target = if fast { FAST_SAMPLE } else { TARGET_SAMPLE };
        let samples = if fast {
            self.sample_size.min(5)
        } else {
            self.sample_size
        };

        // Warm up and calibrate the per-sample iteration count.
        let mut iters: u64 = 1;
        let per_iter_estimate = loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt >= target {
                break dt.as_nanos() as f64 / iters as f64;
            }
            let per = (dt.as_nanos() as f64 / iters as f64).max(1.0);
            let needed = (target.as_nanos() as f64 / per).ceil() as u64;
            iters = needed.clamp(iters * 2, iters.saturating_mul(64));
        };
        let _ = per_iter_estimate;

        let mut per_iter: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));

        let stats = Stats {
            min_ns: per_iter[0],
            median_ns: per_iter[per_iter.len() / 2],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        };
        self.report(&id.to_string(), stats);
        stats
    }

    fn report(&self, id: &str, s: Stats) {
        let mut line = format!(
            "{}/{:<32} median {:>12}  (min {})",
            self.name,
            id,
            fmt_ns(s.median_ns),
            fmt_ns(s.min_ns)
        );
        if let Some(bytes) = self.throughput_bytes {
            let gbps = bytes as f64 / s.median_ns;
            line.push_str(&format!("  {gbps:8.3} GB/s"));
        }
        println!("{line}");
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        std::env::set_var("LIO_BENCH_FAST", "1");
        let mut g = Group::new("harness_test");
        g.sample_size(3);
        let s = g.bench("spin", || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert!(s.min_ns > 0.0);
        assert!(s.median_ns >= s.min_ns);
    }
}
