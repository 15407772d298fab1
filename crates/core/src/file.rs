//! The file handle: open, set_view, independent and collective access.

use std::sync::Arc;

use lio_datatype::Datatype;
use lio_mpi::Comm;
use lio_obs::{LazyCounter, LazyGauge, LazyHistogram};
use lio_pfs::{RangeLock, StorageFile};

use crate::error::{IoError, Result};
use crate::hints::{Engine, Hints};
use crate::packer::MemPacker;
use crate::scratch::Scratch;
use crate::sieve;
use crate::twophase::{self, CollState};
use crate::view::{FfNav, FileView, ListNav, ViewNav};

// Per-operation wall-time spans (nanoseconds), one histogram per entry
// point. Each call contributes one sample, so `count` is the number of
// operations and `sum` the total time spent in them on this process;
// beside each, the user bytes its calls asked for. Both feed the
// access-pattern profile (`lio_obs::profile`), as the view gauges do.
static OBS_WRITE_AT_NS: LazyHistogram = LazyHistogram::new("core.write_at.ns");
static OBS_READ_AT_NS: LazyHistogram = LazyHistogram::new("core.read_at.ns");
static OBS_WRITE_ALL_NS: LazyHistogram = LazyHistogram::new("core.write_at_all.ns");
static OBS_READ_ALL_NS: LazyHistogram = LazyHistogram::new("core.read_at_all.ns");
static OBS_WRITE_AT_BYTES: LazyCounter = LazyCounter::new("core.write_at.bytes");
static OBS_READ_AT_BYTES: LazyCounter = LazyCounter::new("core.read_at.bytes");
static OBS_WRITE_ALL_BYTES: LazyCounter = LazyCounter::new("core.write_at_all.bytes");
static OBS_READ_ALL_BYTES: LazyCounter = LazyCounter::new("core.read_at_all.bytes");
static OBS_SET_VIEW_NS: LazyHistogram = LazyHistogram::new("core.set_view.ns");
// The last fileview's filetype: data bytes, extent and contiguous runs.
static OBS_VIEW_SIZE: LazyGauge = LazyGauge::new("core.view.size");
static OBS_VIEW_EXTENT: LazyGauge = LazyGauge::new("core.view.extent");
static OBS_VIEW_LEAF_RUNS: LazyGauge = LazyGauge::new("core.view.leaf_runs");

/// The state shared by all ranks that open the same file: the storage
/// backend and the byte-range lock protecting data-sieving writes.
///
/// Create one `SharedFile` outside the rank closure and clone it into each
/// rank, mirroring how MPI ranks share a file system:
///
/// ```
/// use lio_core::{File, Hints, SharedFile};
/// use lio_mpi::World;
/// use lio_pfs::MemFile;
///
/// let shared = SharedFile::new(MemFile::new());
/// World::run(2, |comm| {
///     let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
///     f.write_bytes_at(comm.rank() as u64 * 4, &[comm.rank() as u8; 4]).unwrap();
/// });
/// assert_eq!(shared.len(), 8);
/// ```
#[derive(Clone)]
pub struct SharedFile {
    storage: Arc<dyn StorageFile>,
    lock: RangeLock,
    /// The shared file pointer (etype units), one per open file as in
    /// MPI-IO's `MPI_File_read/write_shared` family.
    shared_fp: Arc<std::sync::atomic::AtomicU64>,
}

impl SharedFile {
    /// Wrap a storage backend.
    pub fn new(storage: impl StorageFile + 'static) -> SharedFile {
        SharedFile::from_arc(Arc::new(storage))
    }

    /// Wrap an already-shared storage backend.
    pub fn from_arc(storage: Arc<dyn StorageFile>) -> SharedFile {
        SharedFile {
            storage,
            lock: RangeLock::new(),
            shared_fp: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Open a fresh file on the given storage backend: an in-memory file
    /// for [`BackendKind::Mem`], the calibrated SX-6 bandwidth model for
    /// [`BackendKind::Throttled`], and an unlinked real file in
    /// `LIO_OS_DIR` for [`BackendKind::Os`] (`lio_pfs::UnixFile::temp`:
    /// `pread`/`pwrite`, and a shared mapping lent for what lies inside
    /// the file). Only the `Os` backend can fail (temp-file creation).
    pub fn for_backend(kind: crate::BackendKind) -> std::io::Result<SharedFile> {
        use crate::BackendKind;
        Ok(match kind {
            BackendKind::Mem => SharedFile::new(lio_pfs::MemFile::new()),
            BackendKind::Throttled => SharedFile::new(lio_pfs::Decorated::new(
                lio_pfs::MemFile::new(),
                lio_pfs::Throttle::sx6_local_fs(),
            )),
            BackendKind::Os => SharedFile::new(lio_pfs::UnixFile::temp()?),
        })
    }

    /// [`SharedFile::for_backend`] resolved through a hint set: the
    /// `backend` hint decides, with the `LIO_BACKEND` environment
    /// variable overriding either way (see
    /// [`Hints::effective_backend`](crate::Hints::effective_backend)).
    /// The result is shared by every rank that opens the file — create
    /// it once and clone, exactly like a [`SharedFile::new`] handle.
    pub fn for_hints(hints: &crate::Hints) -> std::io::Result<SharedFile> {
        SharedFile::for_backend(hints.effective_backend())
    }

    /// The storage backend.
    pub fn storage(&self) -> &Arc<dyn StorageFile> {
        &self.storage
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.storage.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.storage.len() == 0
    }

    /// A point-in-time health report for the ranks working on this
    /// file: per-rank phase/progress snapshots plus the
    /// watchdog and straggler aggregates (see `lio_obs::health`), read
    /// from the trace rings. The rings are process-global, so on a
    /// process running several files this reports every active rank.
    /// Safe to call from outside the rank closure while `World::run` is
    /// in flight: it holds each rank's ring lock only to copy from it.
    pub fn health_report(&self) -> lio_obs::health::HealthReport {
        lio_obs::health::report()
    }
}

/// An open file handle for one rank.
///
/// Mirrors the MPI-IO access model: a fileview (`set_view`) filters the
/// file; offsets are in etype units and may land anywhere inside the
/// filetype; independent (`read_at`/`write_at`) and collective
/// (`read_at_all`/`write_at_all`) routines move possibly non-contiguous
/// user buffers (memtypes) through the view. The engine — list-based or
/// listless — is chosen by [`Hints`].
pub struct File<'c> {
    shared: SharedFile,
    comm: &'c Comm,
    hints: Hints,
    nav: ViewNav,
    coll: CollState,
    /// Collective ops issued through this handle, the op id a root span
    /// carries: called in the same order on every rank, so ids align.
    ops: std::sync::atomic::AtomicU64,
    /// Individual file pointer, in etype units.
    fp: u64,
    /// Atomic mode: independent accesses lock their whole file range, so
    /// conflicting accesses from different ranks serialize
    /// (`MPI_File_set_atomicity`).
    atomic: bool,
    /// This rank's recycled window, pack and message buffers.
    scratch: Scratch,
}

impl<'c> File<'c> {
    /// Open the file collectively. Every rank of `comm` must call this
    /// with the same `shared` file and equivalent hints.
    pub fn open(comm: &'c Comm, shared: SharedFile, hints: Hints) -> Result<File<'c>> {
        lio_obs::arm_at_open(hints.obs);
        let view = FileView::bytes();
        let nav = Self::make_nav(view.clone(), hints.engine);
        let coll = twophase::establish_view(comm, &view, hints.engine)?;
        Ok(File {
            shared,
            comm,
            hints,
            nav,
            coll,
            ops: std::sync::atomic::AtomicU64::new(0),
            fp: 0,
            atomic: false,
            scratch: Scratch::default(),
        })
    }

    fn make_nav(view: FileView, engine: Engine) -> ViewNav {
        match engine {
            Engine::ListBased => ViewNav::List(ListNav::new(view)),
            Engine::Listless => ViewNav::Ff(FfNav::new(view)),
        }
    }

    /// Establish a fileview (collective; resets the file pointer, as
    /// `MPI_File_set_view` does). Each rank may pass a different view.
    pub fn set_view(&mut self, disp: u64, etype: Datatype, filetype: Datatype) -> Result<()> {
        let _span = OBS_SET_VIEW_NS.span();
        let view = FileView::new(disp, etype, filetype)?;
        OBS_VIEW_SIZE.set(view.filetype.size());
        OBS_VIEW_EXTENT.set(view.filetype.extent());
        OBS_VIEW_LEAF_RUNS.set(view.filetype.leaf_runs());
        self.coll = twophase::establish_view(self.comm, &view, self.hints.engine)?;
        self.nav = Self::make_nav(view, self.hints.engine);
        self.fp = 0;
        Ok(())
    }

    /// The current fileview.
    pub fn view(&self) -> &FileView {
        self.nav.view()
    }

    /// The hints this file was opened with.
    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    /// The communicator the file was opened on.
    pub fn comm(&self) -> &Comm {
        self.comm
    }

    /// The shared state (storage + lock).
    pub fn shared(&self) -> &SharedFile {
        &self.shared
    }

    fn stream_params(&self, offset: u64, count: u64, memtype: &Datatype) -> (u64, u64) {
        let stream_start = self.nav.view().etype_offset_to_stream(offset);
        let total = count * memtype.size();
        (stream_start, total)
    }

    fn packer(&self, memtype: &Datatype, count: u64, buf_len: usize) -> Result<MemPacker> {
        MemPacker::new(
            memtype,
            count,
            buf_len,
            self.hints.engine == Engine::ListBased,
        )
    }

    // ----- independent access -------------------------------------------

    /// Enable or disable atomic mode (`MPI_File_set_atomicity`): with
    /// atomicity on, each independent access locks its entire file range,
    /// so conflicting concurrent accesses appear sequentially consistent
    /// instead of potentially interleaving at sieving-window granularity.
    pub fn set_atomicity(&mut self, atomic: bool) {
        self.atomic = atomic;
    }

    /// Whether atomic mode is enabled.
    pub fn atomicity(&self) -> bool {
        self.atomic
    }

    /// The file range an access touches (for atomic-mode locking).
    fn access_span(&self, stream_start: u64, total: u64) -> std::ops::Range<u64> {
        let reach = self.nav.reach((stream_start, stream_start + total));
        reach.map_or(0..0, |(lo, hi)| lo..hi)
    }

    /// Independent write of `count` instances of `memtype` from `buf` at
    /// view offset `offset` (etype units). Returns bytes written.
    pub fn write_at(&self, offset: u64, buf: &[u8], count: u64, memtype: &Datatype) -> Result<u64> {
        let _span = OBS_WRITE_AT_NS.span();
        let (stream_start, total) = self.stream_params(offset, count, memtype);
        OBS_WRITE_AT_BYTES.add(total);
        let packer = self.packer(memtype, count, buf.len())?;
        self.scratch.begin_op();
        let _atomic_guard = self
            .atomic
            .then(|| self.shared.lock.lock(self.access_span(stream_start, total)));
        sieve::write_independent(
            self.shared.storage.as_ref(),
            &self.shared.lock,
            &self.nav,
            &packer,
            buf,
            stream_start,
            total,
            &self.hints,
            self.atomic,
            &self.scratch,
            (self.comm.rank(), self.comm.size()),
        )
    }

    /// Independent read into `count` instances of `memtype` in `buf` at
    /// view offset `offset` (etype units). Holes and bytes past EOF read
    /// as zeros. Returns bytes read.
    pub fn read_at(
        &self,
        offset: u64,
        buf: &mut [u8],
        count: u64,
        memtype: &Datatype,
    ) -> Result<u64> {
        let _span = OBS_READ_AT_NS.span();
        let (stream_start, total) = self.stream_params(offset, count, memtype);
        OBS_READ_AT_BYTES.add(total);
        let packer = self.packer(memtype, count, buf.len())?;
        self.scratch.begin_op();
        let _atomic_guard = self
            .atomic
            .then(|| self.shared.lock.lock(self.access_span(stream_start, total)));
        sieve::read_independent(
            self.shared.storage.as_ref(),
            &self.nav,
            &packer,
            buf,
            stream_start,
            total,
            &self.hints,
            &self.scratch,
        )
    }

    /// Independent contiguous-buffer write (`memtype` = bytes).
    pub fn write_bytes_at(&self, offset: u64, buf: &[u8]) -> Result<u64> {
        self.write_at(offset, buf, buf.len() as u64, &Datatype::byte())
    }

    /// Independent contiguous-buffer read (`memtype` = bytes).
    pub fn read_bytes_at(&self, offset: u64, buf: &mut [u8]) -> Result<u64> {
        let count = buf.len() as u64;
        self.read_at(offset, buf, count, &Datatype::byte())
    }

    // ----- collective access ---------------------------------------------

    /// Collective write (`MPI_File_write_at_all`): every rank of the
    /// communicator must call this, each with its own offset, buffer, and
    /// memtype. Performed with two-phase I/O on every storage: io-processes
    /// write disjoint file domains. List-based, each rank ships them its
    /// ol-lists and data; listless, every rank lends `buf` for the call
    /// ([`lio_mpi::Comm::lend`]) and the io-processes read each rank's bytes
    /// where they lie, through its memtype, so no data is exchanged. The
    /// call ends in a rank-sync, so when it returns every rank's data is in
    /// the file and no rank reads `buf` any more.
    pub fn write_at_all(
        &self,
        offset: u64,
        buf: &[u8],
        count: u64,
        memtype: &Datatype,
    ) -> Result<u64> {
        let _span = OBS_WRITE_ALL_NS.span();
        let (stream_start, total) = self.stream_params(offset, count, memtype);
        OBS_WRITE_ALL_BYTES.add(total);
        let packer = self.packer(memtype, count, buf.len())?;
        self.scratch.begin_op();
        self.collective("coll.write", total, || {
            twophase::write_at_all(
                self.shared.storage.as_ref(),
                self.comm,
                &self.coll,
                &self.nav,
                &packer,
                buf,
                stream_start,
                total,
                &self.hints,
                &self.scratch,
            )
        })
    }

    /// Collective read (`MPI_File_read_at_all`): every rank of the
    /// communicator must call this, each with its own offset, buffer, and
    /// memtype. Performed with two-phase I/O on every storage, atomic mode
    /// or not: io-processes read disjoint file domains, each file byte
    /// once. List-based, they send each rank its bytes back in messages;
    /// listless, every rank cuts `buf` into one piece per file domain and
    /// lends each io-process its piece ([`lio_mpi::Comm::lend_mut`]), which
    /// fills it through the rank's memtype, so no data is exchanged (a
    /// memtype whose bytes do not lie in stream order gets messages). The
    /// listless call ends in the lending scope's barrier, so when it
    /// returns no rank writes `buf` any more; the list-based one ends in no
    /// rank-sync. Either way, data another rank writes is visible once
    /// *its* `write_at_all` has returned.
    pub fn read_at_all(
        &self,
        offset: u64,
        buf: &mut [u8],
        count: u64,
        memtype: &Datatype,
    ) -> Result<u64> {
        let _span = OBS_READ_ALL_NS.span();
        let (stream_start, total) = self.stream_params(offset, count, memtype);
        OBS_READ_ALL_BYTES.add(total);
        let packer = self.packer(memtype, count, buf.len())?;
        self.scratch.begin_op();
        self.collective("coll.read", total, || {
            twophase::read_at_all(
                self.shared.storage.as_ref(),
                self.comm,
                &self.coll,
                &self.nav,
                &packer,
                buf,
                stream_start,
                total,
                &self.hints,
                &self.scratch,
            )
        })
    }

    /// Run the collective `engine` of `total` bytes in its root span `tag`,
    /// whose payload carries the op id, then surface a watchdog abort: every
    /// rank reached the closing sync, so `IoError::Stalled` strands no
    /// peer. An engine error (e.g. a fault abort) wins over a parked stall.
    fn collective(
        &self,
        tag: &'static str,
        total: u64,
        engine: impl FnOnce() -> Result<u64>,
    ) -> Result<u64> {
        let op = self.ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let root = lio_obs::trace::span_ab(tag, total, op);
        let res = engine();
        drop(root);
        match (res, lio_obs::health::take_stall(self.comm.rank() as u32)) {
            (Ok(_), Some(info)) => Err(IoError::Stalled(info)),
            (res, _) => res,
        }
    }

    // ----- individual file pointer ----------------------------------------

    /// Set the individual file pointer (etype units).
    pub fn seek(&mut self, offset: u64) {
        self.fp = offset;
    }

    /// The individual file pointer (etype units).
    pub fn tell(&self) -> u64 {
        self.fp
    }

    /// Write at the file pointer and advance it.
    pub fn write(&mut self, buf: &[u8], count: u64, memtype: &Datatype) -> Result<u64> {
        let n = self.write_at(self.fp, buf, count, memtype)?;
        self.advance(count, memtype)?;
        Ok(n)
    }

    /// Read at the file pointer and advance it.
    pub fn read(&mut self, buf: &mut [u8], count: u64, memtype: &Datatype) -> Result<u64> {
        let n = self.read_at(self.fp, buf, count, memtype)?;
        self.advance(count, memtype)?;
        Ok(n)
    }

    fn advance(&mut self, count: u64, memtype: &Datatype) -> Result<()> {
        let esize = self.nav.view().etype.size();
        let bytes = count * memtype.size();
        if !bytes.is_multiple_of(esize) {
            return Err(IoError::Usage(format!(
                "transfer of {bytes} bytes is not a whole number of etypes (size {esize})"
            )));
        }
        self.fp += bytes / esize;
        Ok(())
    }

    // ----- shared file pointer ---------------------------------------------

    /// Write at the *shared* file pointer (one pointer per open file,
    /// like `MPI_File_write_shared`). Concurrent callers are serialized
    /// by an atomic reservation: each sees a distinct, contiguous range
    /// of etype offsets in some order.
    ///
    /// All ranks must use the same fileview for shared-pointer access
    /// (the MPI-IO requirement).
    pub fn write_shared(&self, buf: &[u8], count: u64, memtype: &Datatype) -> Result<u64> {
        let etypes = self.etypes_of(count, memtype)?;
        let at = self
            .shared
            .shared_fp
            .fetch_add(etypes, std::sync::atomic::Ordering::SeqCst);
        self.write_at(at, buf, count, memtype)
    }

    /// Read at the shared file pointer (like `MPI_File_read_shared`).
    pub fn read_shared(&self, buf: &mut [u8], count: u64, memtype: &Datatype) -> Result<u64> {
        let etypes = self.etypes_of(count, memtype)?;
        let at = self
            .shared
            .shared_fp
            .fetch_add(etypes, std::sync::atomic::Ordering::SeqCst);
        self.read_at(at, buf, count, memtype)
    }

    /// Set the shared file pointer (like `MPI_File_seek_shared`; call
    /// with the same value from every rank).
    pub fn seek_shared(&self, offset: u64) {
        self.shared
            .shared_fp
            .store(offset, std::sync::atomic::Ordering::SeqCst);
    }

    /// The shared file pointer's current value (etype units).
    pub fn tell_shared(&self) -> u64 {
        self.shared
            .shared_fp
            .load(std::sync::atomic::Ordering::SeqCst)
    }

    fn etypes_of(&self, count: u64, memtype: &Datatype) -> Result<u64> {
        let esize = self.nav.view().etype.size();
        let bytes = count * memtype.size();
        if !bytes.is_multiple_of(esize) {
            return Err(IoError::Usage(format!(
                "transfer of {bytes} bytes is not a whole number of etypes (size {esize})"
            )));
        }
        Ok(bytes / esize)
    }

    // ----- inquiries ---------------------------------------------------------

    /// The absolute file byte offset of a view offset (etype units) —
    /// `MPI_File_get_byte_offset`. Uses the engine's navigation, so this
    /// is `O(Nblock)` on the list-based engine and `O(depth)` listless.
    pub fn byte_offset(&self, offset: u64) -> u64 {
        self.nav
            .stream_to_abs(self.nav.view().etype_offset_to_stream(offset))
    }

    /// The view offset (etype units) of the first whole etype at or after
    /// the absolute byte `abs` — the inverse of [`File::byte_offset`].
    pub fn offset_of_byte(&self, abs: u64) -> u64 {
        let esize = self.nav.view().etype.size();
        self.nav.abs_to_stream(abs).div_ceil(esize)
    }

    /// Flush the storage backend, retrying transient flush faults with
    /// bounded backoff ([`lio_pfs::retry`]).
    pub fn sync(&self) -> Result<()> {
        lio_pfs::retry::sync_with_retry(self.shared.storage.as_ref())?;
        Ok(())
    }

    /// File length in bytes.
    pub fn len(&self) -> u64 {
        self.shared.storage.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-size the file (collective convenience; rank 0 performs it).
    pub fn preallocate(&self, len: u64) -> Result<()> {
        if self.comm.rank() == 0 {
            self.shared.storage.set_len(len)?;
        }
        self.comm.barrier();
        Ok(())
    }
}
