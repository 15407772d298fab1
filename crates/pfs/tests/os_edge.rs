//! Alignment and edge-case suite for the submission-queue backend,
//! driven end-to-end through the public facade: unaligned head/tail
//! splits, zero-length submissions, transfers spanning EOF, completion
//! reordering under a seeded scheduler shuffle, and queue-full
//! backpressure. Each case runs differentially against a plain
//! [`MemFile`] mirror, so the facade's POSIX semantics are pinned
//! byte-for-byte rather than asserted piecemeal.
//!
//! The second half is the real file's lending path — a [`UnixFile`]'s
//! shared mapping, bare and under the queue facade: coherence with the
//! positional calls in both directions, and the three ways a mapping
//! could outlive its file (a range past EOF, a shrinking `set_len`, growth
//! through `write_at`), each of which must decline or remap, never fault.
//! `ci.sh` runs this file on tmpfs and on a real directory (`LIO_OS_DIR`).

use lio_pfs::{
    FaultPlan, FaultyFile, MemFile, OsConfig, OsFile, QueueConfig, StorageFile, UnixFile,
};

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

fn cfg(
    workers: usize,
    depth: usize,
    shuffle: Option<u64>,
    align: usize,
    max_seg: usize,
) -> OsConfig {
    OsConfig {
        queue: QueueConfig {
            workers,
            depth,
            shuffle_seed: shuffle,
        },
        align,
        max_seg,
    }
}

/// Mirror every (offset, len) access on both files and demand identical
/// observable behavior: same return counts, same read bytes, same final
/// contents.
fn differential_sweep(f: &OsFile, mirror: &MemFile, accesses: &[(u64, usize)], seed: u64) {
    for (i, &(off, len)) in accesses.iter().enumerate() {
        let data = pattern(len, seed + i as u64);
        assert_eq!(
            f.write_at(off, &data).unwrap(),
            mirror.write_at(off, &data).unwrap(),
            "write count at ({off}, {len})"
        );
        let mut a = vec![0u8; len + 64];
        let mut b = vec![0u8; len + 64];
        let na = f.read_at(off.saturating_sub(9), &mut a).unwrap();
        let nb = mirror.read_at(off.saturating_sub(9), &mut b).unwrap();
        assert_eq!(na, nb, "read count at ({off}, {len})");
        assert_eq!(a[..na], b[..nb], "read bytes at ({off}, {len})");
        assert_eq!(f.len(), mirror.len(), "length after ({off}, {len})");
    }
    // Full-file comparison at the end.
    let n = mirror.len() as usize;
    let mut a = vec![0u8; n];
    assert_eq!(f.read_at(0, &mut a).unwrap(), n);
    assert_eq!(a, mirror.snapshot(), "final contents diverge");
}

/// Offsets/lengths chosen to hit every split shape: block-aligned,
/// head-only, tail-only, head+tail, sub-block, straddling one boundary,
/// and multi-segment bodies.
fn edge_accesses(align: u64) -> Vec<(u64, usize)> {
    let a = align;
    vec![
        (0, a as usize * 3),            // aligned, multi-segment body
        (a, a as usize),                // aligned single block
        (3, 100),                       // sub-block fragment
        (a - 1, 2),                     // straddles one boundary
        (a / 2, a as usize),            // head + tail, no aligned body
        (5, (a * 4) as usize + 7),      // head + body + tail
        (a * 7 + 13, (a * 2) as usize), // unaligned far write (extends)
        (0, 1),                         // single byte at zero
    ]
}

#[test]
fn unaligned_splits_match_memfile() {
    let align = 512u64;
    let f = OsFile::over(MemFile::new(), cfg(3, 16, None, align as usize, 1024));
    let mirror = MemFile::new();
    differential_sweep(&f, &mirror, &edge_accesses(align), 1000);
}

#[test]
fn zero_length_accesses_are_noops() {
    let f = OsFile::over(MemFile::new(), cfg(2, 8, None, 512, 1024));
    assert_eq!(f.write_at(100, &[]).unwrap(), 0);
    assert_eq!(f.len(), 0, "zero-length write must not extend");
    let mut empty: [u8; 0] = [];
    assert_eq!(f.read_at(0, &mut empty).unwrap(), 0);
    assert_eq!(f.read_at(1 << 30, &mut empty).unwrap(), 0);
    f.sync().unwrap();
}

#[test]
fn reads_spanning_eof_are_short_writes_extend() {
    let f = OsFile::over(
        MemFile::with_data(pattern(3000, 5)),
        cfg(2, 8, None, 512, 1024),
    );
    // Read window straddling EOF: short at exactly the boundary.
    let mut buf = vec![0xAAu8; 2048];
    let n = f.read_at(2500, &mut buf).unwrap();
    assert_eq!(n, 500, "short at EOF, not before");
    assert_eq!(buf[..500], pattern(3000, 5)[2500..]);
    // Entirely past EOF: empty.
    assert_eq!(f.read_at(10_000, &mut buf).unwrap(), 0);
    // Write past EOF extends with a zero hole, POSIX-style.
    assert_eq!(f.write_at(5000, b"tail").unwrap(), 4);
    assert_eq!(f.len(), 5004);
    let mut hole = vec![0xFFu8; 2004];
    assert_eq!(f.read_at(3000, &mut hole).unwrap(), 2004);
    assert!(
        hole[..2000].iter().all(|&b| b == 0),
        "the gap reads as zeros"
    );
    assert_eq!(&hole[2000..], b"tail");
}

#[test]
fn completion_reordering_is_invisible_through_the_facade() {
    // One worker + seeded shuffle: submissions complete in a
    // deterministic non-FIFO order, and the facade must reassemble
    // identical bytes anyway. Two different seeds double-check that the
    // result does not depend on the schedule.
    let align = 512u64;
    for seed in [0x5EED_0001u64, 0xD15C_0BADu64] {
        let f = OsFile::over(MemFile::new(), cfg(1, 32, Some(seed), align as usize, 1024));
        let mirror = MemFile::new();
        differential_sweep(&f, &mirror, &edge_accesses(align), 2000);
    }
}

#[test]
fn queue_full_backpressure_still_completes() {
    // Depth 1 and a tiny max_seg force a 96 KiB transfer through ~192
    // sequential submissions, saturating the queue; the blocking submit
    // path must absorb the backpressure and complete correctly.
    let f = OsFile::over(MemFile::new(), cfg(2, 1, None, 512, 512));
    let data = pattern(96 * 1024, 9);
    assert_eq!(f.write_at(1, &data).unwrap(), data.len());
    let mut back = vec![0u8; data.len()];
    assert_eq!(f.read_at(1, &mut back).unwrap(), data.len());
    assert_eq!(back, data);
}

#[test]
fn real_file_edge_sweep() {
    // The same split shapes against a real kernel-backed temp file.
    let align = 4096u64;
    let f = OsFile::over(
        lio_pfs::os::temp_unix().expect("temp file"),
        cfg(3, 16, None, align as usize, 8192),
    );
    let mirror = MemFile::new();
    differential_sweep(&f, &mirror, &edge_accesses(align), 3000);
}

/// Bytes per lock stripe of a lending file (`lio-pfs` keeps it private).
const STRIPE: u64 = 256 * 1024;

/// A real unlinked file holding `data`: bare, and under the queue facade.
fn real_lenders(data: &[u8]) -> [(&'static str, Box<dyn StorageFile>); 2] {
    let unix = || {
        let f = lio_pfs::os::temp_unix().expect("temp file");
        f.write_at(0, data).unwrap();
        f
    };
    [
        ("UnixFile", Box::new(unix())),
        (
            "OsFile",
            Box::new(OsFile::over(unix(), cfg(2, 8, None, 4096, 8192))),
        ),
    ]
}

/// The bytes of `[lo, hi)` as `with_range` lends them, `None` if declined.
fn lent(f: &dyn StorageFile, lo: u64, hi: u64) -> Option<Vec<u8>> {
    let mut seen = Vec::new();
    f.with_range(lo, hi, &mut |at, piece| {
        assert_eq!(at, lo + seen.len() as u64, "ascending and contiguous");
        seen.extend_from_slice(piece);
    })
    .unwrap()
    .then_some(seen)
}

/// Copy `data` into the file at `lo` in place; whether the file lent.
fn place(f: &dyn StorageFile, lo: u64, data: &[u8]) -> bool {
    f.with_range_mut(lo, lo + data.len() as u64, &mut |at, piece| {
        let o = (at - lo) as usize;
        piece.copy_from_slice(&data[o..o + piece.len()]);
    })
    .unwrap()
}

fn read_back(f: &dyn StorageFile, lo: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    assert_eq!(f.read_at(lo, &mut out).unwrap(), len);
    out
}

#[test]
fn lent_bytes_and_positional_io_see_each_other() {
    let len = 2 * STRIPE as usize + 999;
    for (name, f) in real_lenders(&pattern(len, 1)) {
        let f = &*f;
        let mut want = pattern(len, 1);
        // pwrite, then the mapping (made only now) shows it
        assert_eq!(lent(f, 0, len as u64).unwrap(), want, "{name}");
        // a store through the mapping, then pread shows it
        let (lo, patch) = (STRIPE - 100, pattern(STRIPE as usize + 300, 2));
        assert!(place(f, lo, &patch), "{name}");
        want[lo as usize..][..patch.len()].copy_from_slice(&patch);
        assert_eq!(read_back(f, 0, len), want, "{name}");
        // and a pwrite under the live mapping shows through it
        let (lo, patch) = (4095, pattern(STRIPE as usize, 3));
        f.write_at(lo, &patch).unwrap();
        want[lo as usize..][..patch.len()].copy_from_slice(&patch);
        assert_eq!(lent(f, 0, len as u64).unwrap(), want, "{name}");
        assert_eq!(f.len(), len as u64);
    }
}

#[test]
fn a_range_past_eof_and_a_decorated_device_are_declined() {
    let len = STRIPE + 100;
    let untouched = |f: &dyn StorageFile, lo, hi| {
        let mut calls = 0;
        let a = f.with_range(lo, hi, &mut |_, _| calls += 1).unwrap();
        let b = f.with_range_mut(lo, hi, &mut |_, _| calls += 1).unwrap();
        assert_eq!((a, b, calls), (false, false, 0), "[{lo}, {hi}) was lent");
        assert_eq!(f.len(), len, "a declined range must not grow the file");
    };
    for (name, f) in real_lenders(&pattern(len as usize, 4)) {
        let f = &*f;
        // before and after the mapping exists
        for round in 0..2 {
            untouched(f, len - 1, len + 1);
            untouched(f, len, len + 1);
            untouched(f, 3 * STRIPE, 4 * STRIPE);
            // an empty range is served wherever it is, without a call
            assert_eq!(lent(f, len + 5, len + 5), Some(Vec::new()));
            assert!(lent(f, 0, len).is_some(), "{name} round {round}");
        }
    }
    // in bounds, but the device is decorated: the request is the fault
    // plan's business, so the facade stages it
    let faulty = FaultyFile::new(
        lio_pfs::os::temp_unix().expect("temp file"),
        FaultPlan::disabled(),
    );
    let f = OsFile::over(faulty, cfg(2, 8, None, 4096, 8192));
    f.write_at(0, &pattern(len as usize, 4)).unwrap();
    untouched(&f, 0, len);
    untouched(&f, 10, 20);
}

#[test]
fn shrinking_below_a_lent_range_unmaps_it() {
    let len = 3 * STRIPE;
    let cut = STRIPE + STRIPE / 2 + 7;
    for (name, f) in real_lenders(&pattern(len as usize, 5)) {
        let f = &*f;
        assert!(lent(f, 0, len).is_some(), "{name}");
        f.set_len(cut).unwrap();
        // the old mapping reached past the new end: touching it would be
        // a SIGBUS, so the range must be declined, not served
        assert_eq!(lent(f, 0, len), None, "{name}");
        assert_eq!(lent(f, cut - 1, cut + 1), None, "{name}");
        assert!(!place(f, cut, &[1; 16]), "{name}");
        assert_eq!(f.len(), cut);
        assert_eq!(
            lent(f, 0, cut).unwrap(),
            pattern(len as usize, 5)[..cut as usize]
        );
        // regrown, what was cut off reads as zeros through the new mapping
        f.set_len(len).unwrap();
        let tail = lent(f, cut, len).unwrap();
        assert!(tail.iter().all(|&b| b == 0), "{name}: stale bytes");
        assert!(place(f, len - 16, &[9; 16]), "{name}");
        assert_eq!(read_back(f, len - 17, 17), [&[0u8][..], &[9; 16]].concat());
    }
}

#[test]
fn growth_through_write_at_is_remapped_on_demand() {
    let len = STRIPE + 5;
    for (name, f) in real_lenders(&pattern(len as usize, 6)) {
        let f = &*f;
        assert!(lent(f, 0, len).is_some(), "{name}");
        // the file grows behind the mapping's back, hole included
        let more = pattern(2 * STRIPE as usize, 7);
        f.write_at(len + 1000, &more).unwrap();
        let new_len = len + 1000 + more.len() as u64;
        let mut want = pattern(len as usize, 6);
        want.resize(len as usize + 1000, 0);
        want.extend_from_slice(&more);
        assert_eq!(lent(f, 0, new_len).unwrap(), want, "{name}");
        let patch = pattern(3000, 8);
        assert!(place(f, new_len - 3000, &patch), "{name}");
        assert_eq!(read_back(f, new_len - 3000, 3000), patch, "{name}");
        assert_eq!(f.len(), new_len);
    }
}

#[test]
fn lent_updates_survive_sync_and_reopen() {
    let dir = lio_pfs::os::os_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("lio-os-edge-reopen-{}.bin", std::process::id()));
    let len = STRIPE as usize + 4097;
    let data = pattern(len, 9);
    {
        let f = OsFile::create(&path).expect("named file");
        f.write_at(0, &vec![0u8; len]).unwrap();
        assert!(place(&f, 0, &data));
        // fdatasync covers the stores through the mapping: no msync
        f.sync().unwrap();
    }
    let f = UnixFile::open(&path).expect("reopen");
    assert_eq!(f.len(), len as u64);
    assert_eq!(read_back(&f, 0, len), data);
    assert_eq!(lent(&f, 0, len as u64).unwrap(), data);
    drop(f);
    std::fs::remove_file(&path).unwrap();
}
