//! The overlap gate of the collective schedule: throttled collective write
//! and read, the `os` column, and the P = 1 proof that the write-behind
//! lane overlaps storage with storage. The measurement lives in
//! [`lio_bench::pipebench`] so `repro bench` regenerates the identical
//! `BENCH_pipeline.json` artifact; this target just runs it.

fn main() {
    lio_bench::pipebench::run();
}
