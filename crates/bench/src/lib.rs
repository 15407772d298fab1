//! # lio-bench — benchmark harness
//!
//! Self-contained micro-benchmarks (pack, the write-behind pipeline and the
//! five `*_overhead` gates) plus the `repro` runner that regenerates every
//! figure and table of the paper. The [`harness`] module is a minimal
//! timing loop standing in for an external bench framework: calibrated
//! batch sizes, median-of-samples reporting, and throughput lines, with no
//! dependencies.

pub mod harness;
pub mod pipebench;
pub mod schema;

/// Format a byte count the way the paper's axes do (8, 64, 1 k, 16 k...).
pub fn human_bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{} M", n >> 20)
    } else if n >= 1 << 10 {
        format!("{} k", n >> 10)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_format() {
        assert_eq!(human_bytes(8), "8");
        assert_eq!(human_bytes(1024), "1 k");
        assert_eq!(human_bytes(16384), "16 k");
        assert_eq!(human_bytes(1 << 21), "2 M");
    }
}
