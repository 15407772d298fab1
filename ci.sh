#!/usr/bin/env bash
# Local CI: formatting, lints, then the tier-1 gate (see ROADMAP.md).
# Usage: ./ci.sh
# A full run with warm build directories takes 2½–4 minutes on the
# 2-vCPU box, as its load goes (3 min 42 s to `CI OK` right after the
# previous version of this script took 3 min 48 s in the same busy hour;
# 2 min 28 s against 2 min 32 s in a quieter one; `claim` in the
# real-file reruns, and the `lent_write` and `lent_read` corpora in the
# backend and fault reruns included). The telemetry's disabled cost is a count, not a
# timing: tier-1's `obs_off` test, so no gate here prints a verdict it
# cannot fail on. The pack-kernel reruns and the kernel_overhead gate went
# with the kernel families: there is one copy loop, and tier-1 runs every
# suite on it. An earlier change dropped the
# `BENCH_*.json` baseline comparison, which stopped PRs 22, 24 and 25 on
# rows none of them touched (ROADMAP item 8(a) does the rest: the benchmark
# package judges performance). The per-schedule axis that used to double
# the backend corpus and the fault corpus went with the second collective
# schedule (PR 22), the tuner-armed corpus reruns and the tuner's two gates
# with the tuner (PR 24), the os_overhead gate and the os_faults suite with
# the submission queue (PR 25). The last timing gate, pack_overhead, went
# with the old bench harness: its two claims are counts now, tier-1's
# `pack_frames_and_runs` in lio-datatype's `program` suite (one frame and
# one run for a flat contiguous type, one run per block for the Figure 4
# filetype); its ×2 bound against a hand-written loop is given up, and
# the nearest ratio left is the benchmark's per-layer
# `datatype.pack_over_memcpy` (typed pack over a plain copy), which
# nothing gates on. So no step here times anything.
set -euo pipefail
cd "$(dirname "$0")"

# the `repro` stanzas below keep their printed output here, one directory
# per run, so that two runs on one host never grep each other's files
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# `unsafe` census (ROADMAP item 6): the lines of each crate's src/ that
# hold the keyword, comment lines left out, against the number reviewed
# for it. A change that needs one more raises the number here, where the
# diff shows it; one that removes some should lower it. `mpi` has two, both
# in lend.rs: `Lent::get` hands out a slice another rank lent to be read,
# `LentMut::take` the piece another rank lent this one to be written —
# each sound by the scope's borrow and its closing barrier, `take` also by
# the pieces' disjointness and its one taker (their SAFETY comments).
# `datatype` has two, both in kernels.rs, neither of them a block copy:
# the frame executor's one loop (`strided::strided_copy`) is safe code,
# the SSE2/AVX2 gather/scatter families that held 21 more are gone (no
# benchmark workload reached them), and so is the read-side prefetch of
# the user lines (`claim_ahead`). The two are what streaming a
# placement's whole lines needs (`kernels::stream_lines`,
# `kernels::fence`): the non-temporal stores and their loads, sound by the
# slices' bounds and the asserted 64-byte alignment, and the `sfence` that
# orders them, which touches no memory.
echo "== unsafe census"
declare -A reviewed=(
  [bench]=0 [btio]=0 [core]=0 [datatype]=2 [mpi]=2
  [noncontig]=0 [obs]=0 [pfs]=6 [testkit]=0
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

# Size census (ROADMAP's size line), the same ratchet: the Rust lines of
# each crate's src/, comments and unit tests included, printed so that
# the size line is read off this output, and `datatype`'s and `core`'s
# against the numbers reviewed for them. A change that grows one past its
# number raises the number here, where the diff shows it; one that
# shrinks it should lower it. Copies, navigation and flattening all run
# one compiled run program, and `datatype`'s ceiling keeps a second
# interpreter of a datatype (the tree walks navigation and the tests'
# `FlatIter` used to be) from coming back unseen; both engines' data move
# by lending and through one window loop per direction, and `core`'s
# keeps a second transport (data messages, read replies) or a second
# window loop (one per engine) from coming back unseen. `obs`'s keeps a
# second instrumentation from coming back unseen: the access-pattern
# profile is a view of the one metric registry, and records nothing of
# its own, and the collective phase counters are charged by the trace
# layer's spans from the one tag table (`trace::phase_of`), not by
# hand-held timers. `pfs`'s keeps the decorators' hand-written forwards from
# coming back unseen: one `Decorated<F, P>` implements `StorageFile`, and
# the throttle, the counter and the fault plan are policies of it.
echo "== size census"
declare -A reviewed_lines=([datatype]=6272 [core]=4440 [obs]=3536 [pfs]=2728)
total=0
for src in crates/*/src; do
  crate=$(basename "$(dirname "$src")")
  n=$(find "$src" -name '*.rs' -exec cat {} + | wc -l)
  total=$((total + n))
  echo "  $crate: $n (reviewed: ${reviewed_lines[$crate]:-none})"
  if [ "$n" -gt "${reviewed_lines[$crate]:-$n}" ]; then
    echo "size census: crates/$crate/src has $n lines, more than the ${reviewed_lines[$crate]} reviewed"
    exit 1
  fi
done
echo "  all crates: $total"

# Knob census (ROADMAP item 5(d)), the same ratchet: the distinct
# `LIO_*` names anywhere under crates/*/src — every environment variable
# the workspace reads, whether it selects, arms or sizes something —
# against the number reviewed. A new one raises the number here, where the
# diff shows it, and owes a benchmark workload on which it changes the
# answer. Four since the old bench harness went with its fast-mode
# variable, after the health watchdog's three variables (it is
# configured in code only, `health::set_watchdog`) and the per-layer
# on-off switches of trace, profile and health, which one `LIO_OBS` set
# replaced (its `profile` names the metrics, which the access-pattern
# profile reads). What is left: the backend and its directory, the fault
# seed, and the one telemetry switch.
echo "== LIO_* knob census"
reviewed_knobs=4
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
# files lend their bytes, so the listless collective writes and read-backs
# of the three `coll-*` rows work on the file in place, each IOP moving
# every rank's bytes between its windows and the buffer (a write) or the
# pieces (a read) the rank lends: this run is the oracle of that path on
# the tile and Figure-4 shapes, on `MemFile` and on the mapped real file.
echo "== benchmark smoke run"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke

# There is one collective schedule, so no rerun per schedule: tier-1 above
# ran every differential case on it, `--test pipeline` among them, which
# runs its corpus a second time on slow staging storage with the IOPs'
# write-behind lanes armed. The request geometry suite rides along in the
# backend and fault reruns below: the window grid must hold on every
# backend. So does the in-place ≡ staged corpus (`inplace`), in the
# backend and the fault reruns: a `MemFile` that lends its bytes, one
# that does not and the environment's storage must agree byte for byte
# whatever the backend or fault seed. And so do the
# own-share corpus (`own_share`): what an IOP moves between its own user
# buffer and the window without a message must be what a message would
# have left — and the lent-write and lent-read corpora (`lent_write`,
# `lent_read`): what a listless IOP places from the user buffers the other
# ranks lend, and extracts into the pieces of them they lend, through
# their memtypes, must be the naive reference's file and buffers, under the
# same three axes — and the overlapping-view suite (`overlap`): where two
# ranks' views overlap or leave holes, a collective write must leave every
# byte no view holds as the file had it, on staged storage and on the
# environment's — and the random-view corpus (`random_views`): the same
# for drawn views, disjoint, identical, shifted or of another extent, and
# disjoint ones must leave the naive reference's file — and the sieve's
# suites (`independent`, `atomic`): ranks whose sieving writes start their
# window walks in different windows of a file that grows from empty, with
# and without the whole-range lock, must leave the naive reference's
# file; on the mapped real file the windows past EOF are staged.
# These are debug builds, so the scratch arena's 0xA5 poison is on.

# Real-storage backend: the collective + pipeline + fault + geometry +
# claim suites again with every storage stack forced onto the mapped real file
# (`UnixFile::temp()`, an unlinked file in LIO_OS_DIR), once on tmpfs and
# once on a real directory so both the fast-page-cache and the
# ordinary-filesystem paths are exercised. The file lends a shared mapping
# of what lies inside it and stages the rest through `pread`/`pwrite`:
# these reruns (and the LIO_BACKEND=os row of the backend corpus below)
# are the collective schedule on mapped windows — listless, the IOPs move
# every rank's bytes between the mapping and the buffers the ranks lend —
# 4 KiB pages on tmpfs and large folios on ext4; the suites run each
# read-back on `Staged` storage too, which stages every window of the same
# read in these reruns. os_edge holds the real file's own
# edge cases (EOF, zero-length and odd-shaped accesses against a MemFile
# mirror, a seeded fault plan under the retry loops, and the mapping's
# EOF, set_len, growth, sync + reopen). `claim` places runs long enough to
# stream their whole lines, on and off the line grid, into those mapped
# pages. The fault-seed reruns at the end
# set no LIO_BACKEND, so they run on `mem`. Cross-backend equivalence
# itself is the backend corpus: the same differential cases must produce
# byte-identical files under every backend.
mkdir -p target/lio-os-ci
for osdir in /dev/shm "$PWD/target/lio-os-ci"; do
  echo "== collective/pipeline/faults/geometry/claim suites under LIO_BACKEND=os LIO_OS_DIR=$osdir"
  LIO_BACKEND=os LIO_OS_DIR=$osdir \
    cargo test -q -p lio-core --test collective --test pipeline --test faults --test geometry --test claim
  echo "== real-file edge suite under LIO_OS_DIR=$osdir"
  LIO_OS_DIR=$osdir cargo test -q -p lio-pfs --test os_edge
done

# The differential corpora above, in the one list that the backend corpus,
# the fault corpus and the fault corpus's replay line all read, so that
# the three cannot drift apart; each rerun adds its own suites in front.
corpora=(geometry inplace own_share lent_write lent_read overlap random_views independent atomic)
backend_suites=(backend "${corpora[@]}")
fault_suites=(collective pipeline faults lent_faults "${corpora[@]}")

echo "== backend corpus LIO_BACKEND={mem,os}"
for be in mem os; do
  echo "  -- LIO_BACKEND=$be"
  LIO_BACKEND=$be cargo test -q -p lio-core "${backend_suites[@]/#/--test=}"
done

# Every telemetry layer armed at once: the collective + pipeline + fault
# suites once more with metrics, the trace recorder and the heartbeats on
# for every file (catches a panic that only an armed layer
# reaches, and a watchdog false positive under tracing), plus the
# dedicated trace-correctness tests (span pairing, causal merge, ring
# wraparound, critical path, each `win` span's index and bytes), then the
# hang-injection suite under a hard timeout so a watchdog regression can
# never wedge CI itself. Heartbeats are published from the span opens, so
# that suite checks that those alone name a seeded stall's rank and
# phase; it configures its watchdog in code (`health::set_watchdog`), and
# its replay line is `LIO_OBS=health cargo test -q -p lio-core --test health`.
echo "== collective/pipeline/faults suites under LIO_OBS=all"
LIO_OBS=all cargo test -q -p lio-core --test collective --test pipeline --test faults
echo "== trace correctness tests"
cargo test -q -p lio-core --test trace

echo "== hang-injection suite (hard 300 s timeout)"
timeout 300 cargo test -q -p lio-core --test health

# repro trace must produce a well-formed Perfetto timeline whose
# critical-path report names a bounding phase.
echo "== repro trace + validate-json"
./target/release/repro trace --quick | tee "$out/trace.txt"
grep -q "bounding" "$out/trace.txt"
./target/release/repro validate-json results/trace.json

# Access-pattern profile, a view of the metric registry: the reference
# workloads must produce a schema-versioned, well-formed artifact (each
# workload's registry snapshot).
echo "== repro profile + validate-json"
./target/release/repro profile --quick | tee "$out/profile.txt"
# the ragged workload's line must show the normalization pass's rewrites
# (`dt.normalize.rewrites`): its raw compile is a literal tail
grep -Eq "ragged_hindexed_pack:.*[1-9][0-9]* rewritten" "$out/profile.txt"
./target/release/repro validate-json results/profile.json

# Fault corpus: the three fixed seeds plus a rotating, commit-derived
# seed so the corpus keeps widening over time without losing replay
# determinism (the seed depends only on the commit, never the clock).
# A fault seed decorates the device with the seed's fault plan, which lends
# all but a seeded share of the windows: those it declines are staged, and
# their requests meet the faults, so each op of these suites moves bytes in
# place and staged (`lent_faults` asserts both, and injected faults, for a
# collective write and read). The windows `slow` storage stages, behind a
# throttle that declines every lend, meet the faults on the write-behind
# lane. A failed IOP's zero-fill contract (the rest of every AP's lent
# piece) and `core.coll.fault_aborts` are pinned by `faults`, `lent_read`
# and `lent_write` on a device-loss policy that fails the lend, and again
# behind `Staged`, which fails the staged request.
# On failure it prints the line that replays the exact schedule: the
# seed and `fault_suites`.
ROTATING_SEED="0x$(git rev-parse --short=8 HEAD 2>/dev/null || echo 5EED)"
for seed in 7 0xBAD5EED 0x5C032003 "$ROTATING_SEED"; do
  echo "== fault corpus: LIO_FAULT_SEED=$seed"
  if ! LIO_FAULT_SEED=$seed cargo test -q -p lio-core "${fault_suites[@]/#/--test=}"; then
    echo "FAULT CORPUS FAILURE — replay with:"
    echo "  LIO_FAULT_SEED=$seed cargo test -p lio-core ${fault_suites[*]/#/--test=}"
    exit 1
  fi
done

echo "CI OK"
