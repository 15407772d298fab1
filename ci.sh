#!/usr/bin/env bash
# Local CI: formatting, lints, then the tier-1 gate (see ROADMAP.md).
# Usage: ./ci.sh
# A full run with warm build directories takes about 4.5 minutes on the
# 2-vCPU box (PR 24: 2 min 35–50 s up to the bench comparison, 1 min 10 s of
# fault corpus) — the per-schedule axis that used to double the backend
# corpus and the fault corpus went with the second collective schedule
# (PR 22), the tuner-armed corpus reruns and the tuner's two gates with the
# tuner (PR 24).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# `unsafe` census (ROADMAP item 6): the lines of each crate's src/ that
# hold the keyword, comment lines left out, against the number reviewed
# for it. A change that needs one more raises the number here, where the
# diff shows it; one that removes some should lower it.
echo "== unsafe census"
declare -A reviewed=(
  [bench]=0 [btio]=2 [core]=0 [datatype]=21 [mpi]=0
  [noncontig]=0 [obs]=0 [pfs]=21 [testkit]=0
)
for src in crates/*/src; do
  crate=$(basename "$(dirname "$src")")
  n=$(grep -rhv --include='*.rs' '^[[:space:]]*//' "$src" | grep -cw unsafe || true)
  echo "  $crate: $n (reviewed: ${reviewed[$crate]:-none})"
  if [ "$n" -gt "${reviewed[$crate]:--1}" ]; then
    echo "unsafe census: crates/$crate has $n, more than was reviewed"
    exit 1
  fi
done

# Knob census (ROADMAP item 5(d)), the same ratchet: the distinct
# `LIO_*` names anywhere under crates/*/src — every environment variable
# the workspace reads, whether it selects, arms or sizes something —
# against the number reviewed. A new one raises the number here, where the
# diff shows it, and owes a bench on which it changes the answer.
echo "== LIO_* knob census"
reviewed_knobs=15
knobs=$(grep -rhoE --include='*.rs' 'LIO_[A-Z_]+' crates/*/src | sort -u)
n=$(echo "$knobs" | grep -c .)
echo "  $n (reviewed: $reviewed_knobs):" $knobs
if [ "$n" -gt "$reviewed_knobs" ]; then
  echo "knob census: $n distinct LIO_* names under crates/*/src, more than was reviewed"
  exit 1
fi

# `default-members` in the root manifest makes both commands cover the
# whole workspace: the root package and every crate's unit, differential
# and property suites.
echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The benchmark's own oracle on the data path: one short round of all five
# workloads with every file-image and read-back check on (< 10 s). The
# benchmark is a package of its own, so tier-1 never builds it. All five
# files lend their bytes, so the listless collective read-backs of the
# three `coll-*` rows are *routed* reads (each rank's own sieved read, no
# exchange): this run is the read-back oracle of that path on the tile and
# Figure-4 shapes, on `MemFile` and on the mapped real file.
echo "== benchmark smoke run"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke

# There is one collective schedule, so no rerun per schedule: tier-1 above
# ran every differential case on it, `--test pipeline` among them, which
# runs its corpus a second time on slow staging storage with the IOPs'
# write-behind lanes armed. The request geometry suite rides along in the
# backend and fault reruns below: the window grid must hold on every
# backend. So does the in-place ≡ staged corpus (`inplace`), in the
# backend, the pack-kernel and the fault reruns: a `MemFile` that lends
# its bytes, one that does not and the environment's storage must agree
# byte for byte whatever the backend, kernel or fault seed. And so does the
# own-share corpus (`own_share`): what an IOP moves between its own user
# buffer and the window without a message must be what a message would
# have left, under the same three axes.
# These are debug builds, so the scratch arena's 0xA5 poison is on.

# Real-storage backend: the collective + pipeline + fault suites again
# with every storage stack forced onto OsFile (submission queue over a
# real unlinked file), once on tmpfs and once on a real directory so
# both the fast-page-cache and the ordinary-filesystem paths are
# exercised. Without a fault seed the queue's device is a plain UnixFile,
# which lends a shared mapping of the file: these reruns (and the
# LIO_BACKEND=os row of the backend corpus below) are the collective
# write schedule on mapped windows and — listless — *routed* collective
# reads over the mapping (every rank is lent its bytes, so each reads its
# own view by itself; the list-based engine and every write stay
# two-phase), 4 KiB pages on tmpfs and large folios on ext4; the suites
# run each read-back on `Staged` storage too, which keeps the two-phase
# read in these reruns. os_edge holds the mapping's own edge cases (EOF,
# set_len, growth, sync + reopen). The fault-seed reruns at the end put a
# FaultyFile under the queue, which declines: they are the staged path on
# the same backend, and their collective reads are two-phase reads by
# construction (no decorator lends, so no rank's probe is answered).
# Cross-backend equivalence itself is the backend corpus:
# the same differential cases must produce byte-identical files under
# every backend.
mkdir -p target/lio-os-ci
for osdir in /dev/shm "$PWD/target/lio-os-ci"; do
  echo "== collective/pipeline/faults suites under LIO_BACKEND=os LIO_OS_DIR=$osdir"
  LIO_BACKEND=os LIO_OS_DIR=$osdir \
    cargo test -q -p lio-core --test collective --test pipeline --test faults --test geometry
  echo "== OsFile fault/edge suites under LIO_OS_DIR=$osdir"
  LIO_OS_DIR=$osdir cargo test -q -p lio-pfs --test os_faults --test os_edge
done

echo "== backend corpus LIO_BACKEND={mem,os}"
for be in mem os; do
  echo "  -- LIO_BACKEND=$be"
  LIO_BACKEND=$be \
    cargo test -q -p lio-core --test backend --test geometry --test inplace --test own_share
done

# The suites again with the pack-kernel mode forced both ways: every
# kernel family must be bit-identical to the scalar reference loop, so
# the same differential cases must pass with the kernels disabled and
# with the best CPU-supported family engaged. The root strided_copy test
# rides along: it drives the same frame executor through windows. The
# datatype suite holds the typed-to-typed transfer's differential tests
# (`property.rs`: transfer == pack then unpack, which themselves force
# every mode in turn); the corpora above it reach the transfer through
# every sieved access and every collective's own share.
for pk in scalar auto; do
  echo "== collective/pipeline/faults/inplace/own_share/datatype/strided_copy suites under LIO_PACK_KERNEL=$pk"
  LIO_PACK_KERNEL=$pk \
    cargo test -q -p lio-core --test collective --test pipeline --test faults --test inplace --test own_share
  LIO_PACK_KERNEL=$pk cargo test -q -p lio-datatype
  LIO_PACK_KERNEL=$pk cargo test -q -p listless-io --test strided_copy
done

# Event tracing: the collective + pipeline suites once more with the
# recorder armed (catches trace-enabled-only panics), plus the dedicated
# trace-correctness tests (span pairing, causal merge, ring wraparound,
# critical path).
echo "== collective suites under LIO_TRACE=1"
LIO_TRACE=1 cargo test -q -p lio-core --test collective --test pipeline
echo "== trace correctness tests"
cargo test -q -p lio-core --test trace

# Runtime health layer: the collective + pipeline + fault suites once
# more with heartbeats armed on every file (catches health-enabled-only
# panics and watchdog false positives across the differential corpus),
# then the dedicated hang-injection suite under a hard timeout so a
# watchdog regression can never wedge CI itself.
echo "== collective/pipeline/faults suites under LIO_HEALTH=1"
LIO_HEALTH=1 cargo test -q -p lio-core --test collective --test pipeline --test faults

echo "== hang-injection suite (hard 300 s timeout)"
timeout 300 cargo test -q -p lio-core --test health

# repro trace must produce a well-formed Perfetto timeline whose
# critical-path report names a bounding phase.
echo "== repro trace + validate-json"
./target/release/repro trace --quick | tee /tmp/lio_trace_out.txt
grep -q "bounding" /tmp/lio_trace_out.txt
./target/release/repro validate-json results/trace.json

# Access-pattern profiler + hint advisor: the three reference workloads
# must produce per-rule recommendations with printed reasoning and a
# schema-versioned, well-formed profile artifact.
echo "== repro profile + validate-json"
./target/release/repro profile --quick | tee /tmp/lio_profile_out.txt
grep -q "engine=listless" /tmp/lio_profile_out.txt
grep -q "cb_buffer_size=" /tmp/lio_profile_out.txt
grep -q "pack_kernel=auto" /tmp/lio_profile_out.txt
# the ragged workload's programs must be attributed to the
# normalization pass, not reported as born strided
grep -Eq "ragged_hindexed_pack:.*[1-9][0-9]* rewritten" /tmp/lio_profile_out.txt
./target/release/repro validate-json results/profile.json

# Compiled-program overhead gate: on a flat-contiguous type the run
# program must stay within 2% of the naive tree walk (exits non-zero
# on a sustained violation).
echo "== pack_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench pack_overhead

# Kernel overhead gate: on a flat-contiguous type (one huge block — the
# fixed-block kernels must not engage) auto mode must stay within 2% of
# a forced-scalar run.
echo "== kernel_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench kernel_overhead

# Trace overhead: same noise-floor structure as obs_overhead — with
# tracing disabled the hooks must be within run-to-run noise.
echo "== trace_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench trace_overhead

# Profiler overhead: same noise-floor structure — with profiling
# disabled the record hooks must be within run-to-run noise.
echo "== profile_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench profile_overhead

# Health overhead: same noise-floor structure — with the layer disabled
# every heartbeat site is one relaxed atomic load and must be within
# run-to-run noise (<2%).
echo "== health_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench health_overhead

# Submission-queue backend overhead gate: on contiguous page-aligned
# 4 MiB transfers the OsFile layer must stay within 5% of a direct
# pread/pwrite (exits non-zero on a clean violation; prints CHECK when
# the host's own noise floor exceeds the threshold).
echo "== os_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench os_overhead

# Perf trajectory: regenerate every committed BENCH_*.json artifact and
# compare against its baseline. Any time-unit metric regressing beyond
# the threshold fails CI with the (bench, config, metric) triple named;
# the threshold is deliberately loose (50%) so shared-host noise doesn't
# block while real cliffs stay on record.
echo "== bench baseline comparison (fail at >${LIO_BENCH_COMPARE_PCT:-50}%)"
export LIO_BENCH_COMPARE_PCT="${LIO_BENCH_COMPARE_PCT:-50}"
regen_bench() {
  case "$1" in
    BENCH_pipeline.json) LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench pipeline ;;
    BENCH_pack.json)     LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench pack ;;
    BENCH_metrics.json)  ./target/release/repro metrics --quick ;;
    *) return 1 ;;
  esac
}
for bj in $(git ls-tree --name-only HEAD | grep '^BENCH_.*\.json$'); do
  git show "HEAD:$bj" > "/tmp/lio_baseline_$bj"
  if ! grep -q schema_version "/tmp/lio_baseline_$bj"; then
    echo "  ($bj baseline predates the schema — skipping)"
    continue
  fi
  if [ "$bj" = "BENCH_pack.json" ] && ! grep -q pack_kernels "/tmp/lio_baseline_$bj"; then
    echo "  ($bj baseline lacks pack_kernels columns — skipping)"
    continue
  fi
  if ! regen_bench "$bj"; then
    echo "  (no regeneration recipe for $bj — skipping)"
    continue
  fi
  ./target/release/repro bench-compare --fail "/tmp/lio_baseline_$bj" "$bj"
done

# Fault corpus: the three fixed seeds plus a rotating, commit-derived
# seed so the corpus keeps widening over time without losing replay
# determinism (the seed depends only on the commit, never the clock).
# A fault seed wraps the device in a FaultyFile, which lends nothing: every
# collective read here is a two-phase read, so the zero-fill contract of a
# failed IOP and `core.coll.fault_aborts` are tested where a storage fault
# can occur at all (a routed read stages only what the storage declines).
# On failure, replay the exact schedule with:
#   LIO_FAULT_SEED=<seed> \
#     cargo test -p lio-core --test collective --test pipeline --test faults --test geometry --test inplace --test own_share
ROTATING_SEED="0x$(git rev-parse --short=8 HEAD 2>/dev/null || echo 5EED)"
for seed in 7 0xBAD5EED 0x5C032003 "$ROTATING_SEED"; do
  echo "== fault corpus: LIO_FAULT_SEED=$seed"
  if ! LIO_FAULT_SEED=$seed \
      cargo test -q -p lio-core --test collective --test pipeline --test faults --test geometry --test inplace --test own_share; then
    echo "FAULT CORPUS FAILURE — replay with:"
    echo "  LIO_FAULT_SEED=$seed cargo test -p lio-core --test collective --test pipeline --test faults --test geometry --test inplace --test own_share"
    exit 1
  fi
done

echo "CI OK"
