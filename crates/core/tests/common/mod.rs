#![allow(dead_code)] // each test binary uses a different subset

//! Shared test helpers: a deliberately naive reference implementation of
//! viewed file access, used to differentially test both engines.

use lio_core::{BackendKind, File, Hints, SharedFile};
use lio_datatype::typemap::{expand, reference_pack};
use lio_datatype::{Datatype, Field};
use lio_pfs::decorate::FaultyFile;
use lio_pfs::{MemFile, StorageFile};
use std::sync::Arc;

/// An injection-free handle on the raw device beneath whatever stack
/// [`test_storage`] built (fault decorator, submission queue, ...), for
/// byte-exact snapshots regardless of the selected backend.
pub struct SnapHandle(Arc<dyn StorageFile>);

impl SnapHandle {
    /// The entire current file contents.
    pub fn snapshot(&self) -> Vec<u8> {
        let len = self.0.len() as usize;
        let mut out = vec![0u8; len];
        if len > 0 {
            let n = lio_pfs::retry::read_full_at(&*self.0, 0, &mut out).expect("snapshot read");
            assert_eq!(n, len, "snapshot read must reach EOF");
        }
        out
    }
}

/// Empty test storage honoring the backend and fault environment:
///
/// * `LIO_BACKEND` selects the substrate — `mem` (default) builds over a
///   [`MemFile`], `os` over the real-file submission-queue backend
///   ([`lio_pfs::OsFile`] on an unlinked temp file), `throttled` over
///   the calibrated bandwidth model — so the whole differential corpus
///   reruns unchanged against real storage;
/// * `LIO_FAULT_SEED` injects that seed's storage fault schedule
///   ([`lio_testkit::fault_plan`]) *beneath* the backend stack (for the
///   `os` backend that means inside the worker threadpool's retry path).
///
/// The returned [`SnapHandle`] bypasses both for byte-exact snapshots.
pub fn test_storage() -> (SharedFile, SnapHandle) {
    test_storage_with(Vec::new())
}

/// [`test_storage`] over pre-existing file contents.
pub fn test_storage_with(data: Vec<u8>) -> (SharedFile, SnapHandle) {
    storage_stack(BackendKind::from_env(), data, lio_testkit::env_seed())
}

/// Build a fresh storage stack over an *explicitly chosen* backend (no
/// environment involved), for the cross-backend differential corpus.
pub fn storage_for_backend(kind: BackendKind) -> (SharedFile, SnapHandle) {
    storage_stack(kind, Vec::new(), None)
}

fn storage_stack(
    backend: BackendKind,
    data: Vec<u8>,
    fault_seed: Option<u64>,
) -> (SharedFile, SnapHandle) {
    let raw: Arc<dyn StorageFile> = match backend {
        BackendKind::Os => {
            Arc::new(lio_pfs::os::temp_unix().expect("temp file for the os backend"))
        }
        _ => Arc::new(MemFile::new()),
    };
    if !data.is_empty() {
        lio_pfs::retry::write_full_at(&*raw, 0, &data).expect("pre-populate storage");
    }
    let device: Arc<dyn StorageFile> = match fault_seed {
        Some(seed) => Arc::new(FaultyFile::new(
            Arc::clone(&raw),
            lio_testkit::fault_plan(seed),
        )),
        None => Arc::clone(&raw),
    };
    let shared = match backend {
        BackendKind::Os => SharedFile::new(lio_pfs::OsFile::over_arc(
            device,
            lio_pfs::OsConfig::from_env(),
        )),
        BackendKind::Throttled => SharedFile::new(lio_pfs::ThrottledFile::new(
            device,
            lio_pfs::Throttle::sx6_local_fs(),
        )),
        BackendKind::Mem => SharedFile::from_arc(device),
    };
    (shared, SnapHandle(raw))
}

/// One storage call as [`RecordingFile`] saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub write: bool,
    pub offset: u64,
    pub len: u64,
}

/// A [`StorageFile`] decorator that logs the offset and length of every
/// `read_at`/`write_at` before handing it to the file beneath, so a test
/// can assert on the request geometry an engine produces. Like every
/// decorator it lends nothing, so each staged window is one logged call.
pub struct RecordingFile {
    inner: Arc<dyn StorageFile>,
    log: std::sync::Mutex<Vec<Request>>,
}

impl RecordingFile {
    pub fn new(inner: Arc<dyn StorageFile>) -> RecordingFile {
        RecordingFile {
            inner,
            log: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The requests logged since the last call, in arrival order.
    pub fn take(&self) -> Vec<Request> {
        std::mem::take(
            &mut self
                .log
                .lock()
                .expect("the log lock is never held across a panic"),
        )
    }

    fn note(&self, write: bool, offset: u64, len: usize) {
        self.log
            .lock()
            .expect("the log lock is never held across a panic")
            .push(Request {
                write,
                offset,
                len: len as u64,
            });
    }
}

impl StorageFile for RecordingFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        self.note(false, offset, buf.len());
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<usize> {
        self.note(true, offset, buf.len());
        self.inner.write_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

/// A storage that lends no bytes, whatever is beneath it: only the five
/// required [`StorageFile`] methods are forwarded, so
/// `with_range`/`with_range_mut` keep their declining defaults and every
/// window of an access is staged through `read_at`/`write_at` — the oracle
/// the in-place path of a [`MemFile`] is compared against.
pub struct Staged<F>(pub F);

impl<F: StorageFile> StorageFile for Staged<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.0.set_len(len)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.0.sync()
    }
}

/// A `MemFile` holding `data` behind [`Staged`]: the same bytes as
/// [`test_storage_with`]'s default, none of them lent.
pub fn staged_with(data: Vec<u8>) -> (SharedFile, SnapHandle) {
    let mem = Arc::new(MemFile::with_data(data));
    (SharedFile::new(Staged(Arc::clone(&mem))), SnapHandle(mem))
}

/// What a collective corpus runs on, as makers of a file holding the given
/// bytes. A listless `read_at_all` is *routed* where every rank is lent its
/// bytes — each rank's own sieved read, on [`test_storage_with`]'s bare
/// `MemFile` — and two-phase where the storage stages: a read-back must be
/// the same on both.
pub const LENDING_AND_STAGED: [MakeStorage; 2] = [test_storage_with, staged_with];

/// Makes a file holding the given bytes, and the handle that snapshots it.
pub type MakeStorage = fn(Vec<u8>) -> (SharedFile, SnapHandle);

/// `inner` at 150 µs per request and lending nothing — more than the
/// window loop's lane hop (`LANE_HOP`, 100 µs), so a collective write's
/// IOPs arm their write-behind lanes after their first staged window,
/// while sieving (which never declares itself sole writer) stays inline.
pub fn slow<F: StorageFile>(inner: F) -> lio_pfs::ThrottledFile<F> {
    let per_request = lio_pfs::Throttle {
        read_bw: 1e12,
        write_bw: 1e12,
        latency: std::time::Duration::from_micros(150),
    };
    lio_pfs::ThrottledFile::new(inner, per_request)
}

/// [`slow`] storage over a `MemFile` holding `data`.
pub fn slow_staged(data: Vec<u8>) -> (SharedFile, SnapHandle) {
    let mem = Arc::new(MemFile::with_data(data));
    (SharedFile::new(slow(Arc::clone(&mem))), SnapHandle(mem))
}

/// An `OsFile` on an unlinked real file holding `data`, no decorator
/// anywhere: what lies inside the file is lent through its mapping.
pub fn real_file_with(data: &[u8]) -> lio_pfs::OsFile {
    let f = lio_pfs::OsFile::temp().expect("temp file for the os backend");
    lio_pfs::retry::write_full_at(&f, 0, data).expect("pre-populate storage");
    f
}

/// The whole file as rank code sees it (retries ride out injected faults).
pub fn image_of(shared: &SharedFile) -> Vec<u8> {
    let mut img = vec![0u8; shared.len() as usize];
    let n = lio_pfs::retry::read_full_at(shared.storage().as_ref(), 0, &mut img).unwrap();
    assert_eq!(n, img.len());
    img
}

/// Run `body` on every rank over a file holding `initial`, once per
/// storage; the final file and what the ranks returned must not depend on
/// the storage. Returns both for the comparison with the reference.
pub fn on_each_storage<R: PartialEq + Send>(
    what: &str,
    initial: &[u8],
    nprocs: u64,
    body: impl Fn(&lio_mpi::Comm, SharedFile) -> R + Sync,
) -> (Vec<u8>, Vec<R>) {
    let run = |shared: SharedFile| {
        lio_mpi::World::run(nprocs as usize, |comm| {
            apply_comm_faults(comm);
            body(comm, shared.clone())
        })
    };
    let lends = |shared: &SharedFile| shared.storage().with_range(0, 0, &mut |_, _| {}).unwrap();

    // `SharedFile::new` wraps the `Arc<MemFile>` in its own `Arc`: the
    // bytes are lent only because `Arc<F>` forwards the two methods
    let mem = Arc::new(MemFile::with_data(initial.to_vec()));
    let in_place = SharedFile::new(Arc::clone(&mem));
    assert!(lends(&in_place), "a MemFile behind SharedFile must lend");
    let got = run(in_place);
    let image = mem.snapshot();

    let mem = Arc::new(MemFile::with_data(initial.to_vec()));
    let staged = SharedFile::new(Staged(Arc::clone(&mem)));
    assert!(!lends(&staged));
    assert!(
        run(staged) == got,
        "{what}: in place and staged return different data"
    );
    assert!(
        mem.snapshot() == image,
        "{what}: in place and staged leave different files"
    );

    // a real file lends through a mapping what lies inside it and stages
    // what lies past its end: both on one file, window by window
    let os = SharedFile::new(real_file_with(initial));
    assert!(lends(&os), "an OsFile over a plain UnixFile must lend");
    assert!(
        run(os.clone()) == got,
        "{what}: in place and the real file return different data"
    );
    assert!(
        image_of(&os) == image,
        "{what}: in place and the real file leave different files"
    );

    let (shared, raw) = test_storage_with(initial.to_vec());
    assert!(
        run(shared) == got,
        "{what}: the environment's storage returns different data"
    );
    assert!(
        raw.snapshot() == image,
        "{what}: the environment's storage leaves a different file"
    );
    (image, got)
}

/// [`test_storage_with`] (so `LIO_BACKEND` still picks the substrate)
/// without the storage fault schedule — a retried request would be logged
/// twice — and with a [`RecordingFile`] on top.
pub fn recording_storage(data: Vec<u8>) -> (SharedFile, Arc<RecordingFile>) {
    let (inner, _) = storage_stack(BackendKind::from_env(), data, None);
    let rec = Arc::new(RecordingFile::new(Arc::clone(inner.storage())));
    (SharedFile::from_arc(rec.clone()), rec)
}

/// Arm the rank-local communication fault schedule when `LIO_FAULT_SEED`
/// is set; a no-op otherwise. Call at the top of a `World::run` closure.
pub fn apply_comm_faults(comm: &lio_mpi::Comm) {
    if let Some(seed) = lio_testkit::env_seed() {
        comm.set_fault_plan(Some(lio_testkit::comm_fault_plan(seed, comm.rank())));
    }
}

/// The file bytes that a correct write must produce: walk the view's tiled
/// runs, skip `stream_start` data bytes, place `data` run by run.
pub fn reference_write(
    file: &mut Vec<u8>,
    disp: u64,
    ftype: &Datatype,
    stream_start: u64,
    data: &[u8],
) {
    let fsize = ftype.size();
    let fext = ftype.extent();
    assert!(fsize > 0);
    let instances = (stream_start + data.len() as u64) / fsize + 2;
    let mut remaining_skip = stream_start;
    let mut pos = 0usize;
    'outer: for inst in 0..instances {
        let base = disp as i64 + (inst * fext) as i64;
        for r in expand(ftype, 1) {
            let mut off = (base + r.disp) as u64;
            let mut len = r.len;
            if remaining_skip >= len {
                remaining_skip -= len;
                continue;
            }
            off += remaining_skip;
            len -= remaining_skip;
            remaining_skip = 0;
            let take = (len as usize).min(data.len() - pos);
            if file.len() < off as usize + take {
                file.resize(off as usize + take, 0);
            }
            file[off as usize..off as usize + take].copy_from_slice(&data[pos..pos + take]);
            pos += take;
            if pos == data.len() {
                break 'outer;
            }
        }
    }
    assert_eq!(pos, data.len(), "reference write consumed all data");
}

/// The bytes a correct read must return (zeros for holes/EOF).
pub fn reference_read(
    file: &[u8],
    disp: u64,
    ftype: &Datatype,
    stream_start: u64,
    total: u64,
) -> Vec<u8> {
    let fsize = ftype.size();
    let fext = ftype.extent();
    let instances = (stream_start + total) / fsize + 2;
    let mut out = Vec::with_capacity(total as usize);
    let mut remaining_skip = stream_start;
    'outer: for inst in 0..instances {
        let base = disp as i64 + (inst * fext) as i64;
        for r in expand(ftype, 1) {
            let mut off = (base + r.disp) as u64;
            let mut len = r.len;
            if remaining_skip >= len {
                remaining_skip -= len;
                continue;
            }
            off += remaining_skip;
            len -= remaining_skip;
            remaining_skip = 0;
            // the part of the run inside the file, then zeros up to its end
            let take = len.min(total - out.len() as u64) as usize;
            let from = (off as usize).min(file.len());
            let have = take.min(file.len() - from);
            out.extend_from_slice(&file[from..from + have]);
            out.resize(out.len() + take - have, 0);
            if out.len() as u64 == total {
                break 'outer;
            }
        }
    }
    assert_eq!(out.len() as u64, total);
    out
}

/// Pack a user buffer through a memtype: the stream a write must emit.
pub fn reference_stream(user: &[u8], memtype: &Datatype, count: u64) -> Vec<u8> {
    reference_pack(user, memtype, count)
}

/// A deterministic pseudorandom byte pattern.
pub fn pattern(len: usize, seed: u64) -> Vec<u8> {
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

/// The fileview of the paper's Figure 4 for rank `p` of `nprocs`: an
/// LB/vector/UB struct with the vector at `p·sblock` *inside* the struct,
/// so every rank uses displacement 0 and the listless engine builds a
/// mergeview (which covers the whole file).
pub fn figure4_filetype(p: u64, nprocs: u64, nblock: u64, sblock: u64) -> Datatype {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, nprocs as i64, &block).unwrap();
    Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: (p * sblock) as i64,
            count: 1,
            child: v,
        },
        Field {
            disp: (nblock * nprocs * sblock) as i64,
            count: 1,
            child: Datatype::ub_marker(),
        },
    ])
    .unwrap()
}

/// [`figure4_filetype`] with every block one elementary type, so that the
/// naive reference walks blocks, not bytes.
pub fn figure4_of_blocks(p: u64, nprocs: u64, nblock: u64, sblock: u64) -> Datatype {
    let field = |disp: u64, child: Datatype| Field {
        disp: disp as i64,
        count: 1,
        child,
    };
    let block = Datatype::basic(sblock as u32);
    let blocks = Datatype::vector(nblock, 1, nprocs as i64, &block).unwrap();
    Datatype::struct_type(vec![
        field(0, Datatype::lb_marker()),
        field(p * sblock, blocks),
        field(nprocs * nblock * sblock, Datatype::ub_marker()),
    ])
    .unwrap()
}

/// A collective write in which not every rank writes all its view holds:
/// two ranks share the Figure-4 view over a file of `0xFF`; rank 0 writes
/// its 64 blocks, rank 1 only the first `r1_bytes` bytes of its own. The
/// union of the *views* covers every window, the data of the *call* does
/// not, so the bytes rank 1 left alone must still be `0xFF` afterwards —
/// in the file, and in what both ranks then read back collectively.
/// `storage` makes the file: [`test_storage_with`], [`staged_with`] or
/// [`slow_staged`].
pub fn check_partial_participation(storage: MakeStorage, hints: Hints, r1_bytes: u64) {
    const NBLOCK: u64 = 64;
    const SBLOCK: u64 = 8;
    let counts = [NBLOCK * SBLOCK, r1_bytes];
    let before = vec![0xFFu8; (2 * NBLOCK * SBLOCK) as usize];
    let mut want = before.clone();
    for me in 0..2u64 {
        let data = pattern(counts[me as usize] as usize, me + 1);
        if !data.is_empty() {
            reference_write(
                &mut want,
                0,
                &figure4_filetype(me, 2, NBLOCK, SBLOCK),
                0,
                &data,
            );
        }
    }
    let (shared, raw) = storage(before);
    let file = want.clone();
    lio_mpi::World::run(2, move |comm| {
        apply_comm_faults(comm);
        let me = comm.rank() as u64;
        let view = figure4_filetype(me, 2, NBLOCK, SBLOCK);
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(0, Datatype::byte(), view.clone()).unwrap();
        let count = counts[me as usize];
        let data = pattern(count as usize, me + 1);
        let n = f.write_at_all(0, &data, count, &Datatype::byte()).unwrap();
        assert_eq!(n, count);
        let mut back = vec![0u8; (NBLOCK * SBLOCK) as usize];
        let n = back.len() as u64;
        f.read_at_all(0, &mut back, n, &Datatype::byte()).unwrap();
        assert_eq!(back, reference_read(&file, 0, &view, 0, n), "rank {me}");
    });
    let got = raw.snapshot();
    let clobbered = (0..NBLOCK as usize)
        .filter(|b| {
            let at = (2 * b + 1) * SBLOCK as usize;
            got[at..at + SBLOCK as usize] != want[at..at + SBLOCK as usize]
        })
        .count();
    assert_eq!(
        clobbered, 0,
        "{clobbered} of rank 1's blocks clobbered (rank 1 wrote {r1_bytes} B)"
    );
    assert_eq!(got, want, "file differs from the reference");
}
