//! Edge-case suite for the real-file backend, a bare [`UnixFile`] on an
//! unlinked temp file ([`UnixFile::temp`]): zero-length accesses, reads
//! short at EOF, writes that extend the file, and accesses of every shape
//! relative to a block grid, each run differentially against a plain
//! [`MemFile`] mirror so the POSIX semantics are pinned byte for byte
//! rather than asserted piecemeal; and the seeded fault plan over the real
//! file, ridden out by the same [`lio_pfs::retry`] loops `lio-core` wraps
//! every staged call in.
//!
//! The second half is the lending path — the file's shared mapping:
//! coherence with the positional calls in both directions, and the three
//! ways a mapping could outlive its file (a range past EOF, a shrinking
//! `set_len`, growth through `write_at`), each of which must decline or
//! remap, never fault; and a decorated file declines to lend at all.
//! `ci.sh` runs this file on tmpfs and on a real directory (`LIO_OS_DIR`).

use lio_pfs::retry::{read_full_at, sync_with_retry, write_full_at};
use lio_pfs::{FaultPlan, FaultyFile, MemFile, StorageFile, UnixFile};

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

fn temp() -> UnixFile {
    UnixFile::temp().expect("temp file")
}

/// Mirror every access of [`edge_accesses`]`(block)` on a fresh real file
/// and a fresh [`MemFile`] and demand identical observable behavior: same
/// return counts, same read bytes, same final contents.
fn differential_sweep(block: u64, seed: u64) {
    let (f, mirror) = (temp(), MemFile::new());
    for (i, &(off, len)) in edge_accesses(block).iter().enumerate() {
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

/// Offsets/lengths of every shape against a grid of `block` bytes:
/// block-aligned, ragged head only, ragged tail only, both, sub-block,
/// straddling one boundary, and spanning several blocks.
fn edge_accesses(block: u64) -> Vec<(u64, usize)> {
    let a = block;
    vec![
        (0, a as usize * 3),            // aligned, several blocks
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
    differential_sweep(512, 1000);
}

#[test]
fn real_file_edge_sweep() {
    // The same shapes against the page grid.
    differential_sweep(4096, 3000);
}

#[test]
fn zero_length_accesses_are_noops() {
    let f = temp();
    assert_eq!(f.write_at(100, &[]).unwrap(), 0);
    assert_eq!(f.len(), 0, "zero-length write must not extend");
    let mut empty: [u8; 0] = [];
    assert_eq!(f.read_at(0, &mut empty).unwrap(), 0);
    assert_eq!(f.read_at(1 << 30, &mut empty).unwrap(), 0);
    f.sync().unwrap();
}

#[test]
fn reads_spanning_eof_are_short_writes_extend() {
    let f = temp();
    f.write_at(0, &pattern(3000, 5)).unwrap();
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
fn seeded_plan_survives_on_a_real_file() {
    // Shorts, bounded transients and two failed flushes, under the retry
    // loops the engines use for every staged call.
    let f = FaultyFile::new(temp(), FaultPlan::seeded(33));
    let data = pattern(20_000, 33);
    write_full_at(&f, 11, &data).unwrap();
    let mut back = vec![0u8; data.len()];
    assert_eq!(read_full_at(&f, 11, &mut back).unwrap(), data.len());
    assert_eq!(back, data);
    sync_with_retry(&f).expect("sync survives the default plan");
    assert!(f.injected() > 0);
    assert_eq!(read_back(f.inner(), 11, data.len()), data);
}

/// Bytes per lock stripe of a lending file (`lio-pfs` keeps it private).
const STRIPE: u64 = 256 * 1024;

/// A real unlinked file holding `data`.
fn real_lender(data: &[u8]) -> UnixFile {
    let f = temp();
    f.write_at(0, data).unwrap();
    f
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
    let f = &real_lender(&pattern(len, 1));
    let mut want = pattern(len, 1);
    // pwrite, then the mapping (made only now) shows it
    assert_eq!(lent(f, 0, len as u64).unwrap(), want);
    // a store through the mapping, then pread shows it
    let (lo, patch) = (STRIPE - 100, pattern(STRIPE as usize + 300, 2));
    assert!(place(f, lo, &patch));
    want[lo as usize..][..patch.len()].copy_from_slice(&patch);
    assert_eq!(read_back(f, 0, len), want);
    // and a pwrite under the live mapping shows through it
    let (lo, patch) = (4095, pattern(STRIPE as usize, 3));
    f.write_at(lo, &patch).unwrap();
    want[lo as usize..][..patch.len()].copy_from_slice(&patch);
    assert_eq!(lent(f, 0, len as u64).unwrap(), want);
    assert_eq!(f.len(), len as u64);
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
    let f = &real_lender(&pattern(len as usize, 4));
    // before and after the mapping exists
    for round in 0..2 {
        untouched(f, len - 1, len + 1);
        untouched(f, len, len + 1);
        untouched(f, 3 * STRIPE, 4 * STRIPE);
        // an empty range is served wherever it is, without a call
        assert_eq!(lent(f, len + 5, len + 5), Some(Vec::new()));
        assert!(lent(f, 0, len).is_some(), "round {round}");
    }
    // in bounds, but the file is decorated: the request is the fault
    // plan's business, so the caller stages it
    let f = FaultyFile::new(
        real_lender(&pattern(len as usize, 4)),
        FaultPlan::disabled(),
    );
    untouched(&f, 0, len);
    untouched(&f, 10, 20);
}

#[test]
fn shrinking_below_a_lent_range_unmaps_it() {
    let len = 3 * STRIPE;
    let cut = STRIPE + STRIPE / 2 + 7;
    let f = &real_lender(&pattern(len as usize, 5));
    assert!(lent(f, 0, len).is_some());
    f.set_len(cut).unwrap();
    // the old mapping reached past the new end: touching it would be a
    // SIGBUS, so the range must be declined, not served
    assert_eq!(lent(f, 0, len), None);
    assert_eq!(lent(f, cut - 1, cut + 1), None);
    assert!(!place(f, cut, &[1; 16]));
    assert_eq!(f.len(), cut);
    assert_eq!(
        lent(f, 0, cut).unwrap(),
        pattern(len as usize, 5)[..cut as usize]
    );
    // regrown, what was cut off reads as zeros through the new mapping
    f.set_len(len).unwrap();
    let tail = lent(f, cut, len).unwrap();
    assert!(tail.iter().all(|&b| b == 0), "stale bytes");
    assert!(place(f, len - 16, &[9; 16]));
    assert_eq!(read_back(f, len - 17, 17), [&[0u8][..], &[9; 16]].concat());
}

#[test]
fn growth_through_write_at_is_remapped_on_demand() {
    let len = STRIPE + 5;
    let f = &real_lender(&pattern(len as usize, 6));
    assert!(lent(f, 0, len).is_some());
    // the file grows behind the mapping's back, hole included
    let more = pattern(2 * STRIPE as usize, 7);
    f.write_at(len + 1000, &more).unwrap();
    let new_len = len + 1000 + more.len() as u64;
    let mut want = pattern(len as usize, 6);
    want.resize(len as usize + 1000, 0);
    want.extend_from_slice(&more);
    assert_eq!(lent(f, 0, new_len).unwrap(), want);
    let patch = pattern(3000, 8);
    assert!(place(f, new_len - 3000, &patch));
    assert_eq!(read_back(f, new_len - 3000, 3000), patch);
    assert_eq!(f.len(), new_len);
}

#[test]
fn lent_updates_survive_sync_and_reopen() {
    let dir = lio_pfs::os_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("lio-os-edge-reopen-{}.bin", std::process::id()));
    let len = STRIPE as usize + 4097;
    let data = pattern(len, 9);
    {
        let f = UnixFile::create(&path).expect("named file");
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
