//! The row zip, differentially. A listless collective write whose two
//! views interleave 8 B blocks — each filetype 8 bytes every 16, the two
//! ranks' blocks tiling each row — fills every whole row of a piece the
//! storage lent in one pass, in file order, each row taking the next
//! block of both ranks' streams (`lio_datatype::zip_rows`), and places
//! the partial rows at either end of the piece, and any rows after a
//! block the zip could not take, share by share. Every other shape is
//! placed share by share throughout. Every case must leave exactly the
//! file the naive reference writes on every storage `on_each_storage`
//! knows, and the zip's streamed lines (`dt.stream.bytes`) must show on
//! exactly the cases it serves on the storages that lend.
//!
//! The corpus: P ∈ {2, 3, 4, 8} and `Sblock` ∈ {8, 16, 32}; displacements
//! 0 (rows on the line grid), 24 (rows on the 8-byte word grid, off the
//! line grid) and 13 (rows off the word grid, where the zip declines and
//! every piece is placed share by share); windows of 1000 and 4096 bytes
//! and the default, so that windows and pieces cut rows; each rank's
//! memory contiguous, the benchmark's strided memtype (8 B blocks at
//! stride 16, whose instances abut 8 bytes short of their stride at
//! 65 528 B), an `hvector` of 16 B blocks 24 bytes apart, or runs 4 bytes
//! off the word grid, which a row's block straddles, in every rotation over
//! two ranks and in one over more. Then the case in which one rank writes
//! fewer bytes than its view holds: the pieces it leaves short are placed
//! share by share, and its view's bytes past its data keep the file's.

mod common;

use common::{figure4_of_blocks, on_each_storage, pattern, reference_stream, reference_write};
use common::{real_file_with, staged};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_pfs::MemFile;

/// Data bytes each rank writes: two instances of the strided memtype, so
/// that its stream crosses the jump between them.
const BYTES: u64 = 2 * 4096 * 8;

/// How a rank holds its stream.
#[derive(Clone, Copy, Debug)]
enum Mem {
    /// One run: the IOP gets a base offset, no memtype.
    Contiguous,
    /// `noncontig_memtype(4096, 8)`: 8 B blocks at stride 16, extent
    /// 65 528.
    Strided,
    /// 16 B blocks, 24 bytes apart.
    Apart,
    /// 12 B and 4 B blocks in turn at stride 20; each 4 B block abuts the
    /// next 12 B one, so past the first the runs are 16 B, 4 bytes off the
    /// word grid: a row's block straddles two runs, and the zip stops
    /// there.
    Straddling,
}

const MEMS: [Mem; 4] = [Mem::Contiguous, Mem::Strided, Mem::Apart, Mem::Straddling];

impl Mem {
    /// The memtype and the count that hold `bytes` stream bytes.
    fn memtype(self, bytes: u64) -> (Datatype, u64) {
        let byte = Datatype::byte();
        let t = match self {
            Mem::Contiguous => Datatype::contiguous(bytes, &byte).unwrap(),
            Mem::Strided => Datatype::vector(4096, 1, 2, &Datatype::basic(8)).unwrap(),
            Mem::Apart => {
                let block = Datatype::contiguous(16, &byte).unwrap();
                Datatype::hvector(bytes / 16, 1, 40, &block).unwrap()
            }
            Mem::Straddling => {
                let pair = Datatype::indexed(&[12, 4], &[0, 16], &byte).unwrap();
                Datatype::contiguous(bytes / 16, &pair).unwrap()
            }
        };
        let count = bytes.div_ceil(t.size());
        (t, count)
    }
}

/// One case: `p` ranks writing through interleaved views of `sblock`-byte
/// blocks at `disp`, in windows of `cb` bytes, rank `r` holding its stream
/// as `mems[r]` and writing `bytes[r]` of it.
struct Case {
    p: usize,
    sblock: u64,
    disp: u64,
    cb: Option<usize>,
    mems: Vec<Mem>,
    bytes: Vec<u64>,
}

impl Case {
    fn what(&self) -> String {
        format!(
            "p={} sblock={} disp={} cb={:?} {:?} bytes={:?}",
            self.p, self.sblock, self.disp, self.cb, self.mems, self.bytes
        )
    }

    /// Whether the zip streams whole lines of this case on a storage
    /// that lends: the row it serves (two ranks, 8 B blocks) on the word
    /// grid, every rank's blocks in long lanes. 16 B memory blocks hand
    /// it two rows at a time, too few to fill a line; a straddling block
    /// stops it.
    fn streams(&self) -> bool {
        let lanes = |m: &Mem| matches!(m, Mem::Contiguous | Mem::Strided);
        self.p == 2
            && self.sblock == 8
            && self.disp.is_multiple_of(8)
            && self.mems.iter().all(lanes)
    }

    fn view(&self, rank: usize) -> Datatype {
        let nblock = BYTES / self.sblock;
        figure4_of_blocks(rank as u64, self.p as u64, nblock, self.sblock)
    }

    /// Rank `rank`'s memtype, count and user buffer, which holds more
    /// stream than the rank writes where it writes less than `BYTES`.
    fn access(&self, rank: usize) -> (Datatype, u64, Vec<u8>) {
        let (memtype, count) = self.mems[rank].memtype(BYTES);
        let len = (count - 1) * memtype.extent() + memtype.data_ub() as u64;
        (memtype, count, pattern(len as usize, rank as u64 + 7))
    }

    fn hints(&self) -> Hints {
        let hints = Hints::listless();
        self.cb.map_or(hints, |cb| hints.cb_buffer(cb))
    }

    /// The whole range every view reaches, and a line of bytes past it.
    fn initial(&self) -> Vec<u8> {
        vec![0xEE; (self.disp + self.p as u64 * BYTES + 64) as usize]
    }

    fn reference(&self) -> Vec<u8> {
        let mut want = self.initial();
        for rank in 0..self.p {
            let (memtype, count, user) = self.access(rank);
            let stream = reference_stream(&user, &memtype, count);
            let data = &stream[..self.bytes[rank] as usize];
            reference_write(&mut want, self.disp, &self.view(rank), 0, data);
        }
        want
    }

    /// Every rank writes its bytes collectively over `shared`.
    fn write(&self, comm: &lio_mpi::Comm, shared: &SharedFile) {
        let me = comm.rank();
        let mut f = File::open(comm, shared.clone(), self.hints()).unwrap();
        f.set_view(self.disp, Datatype::byte(), self.view(me))
            .unwrap();
        let (memtype, count, user) = self.access(me);
        let bytes = self.bytes[me];
        let n = if bytes == BYTES {
            f.write_at_all(0, &user, count, &memtype)
        } else {
            // a rank short of its view writes a prefix of its stream
            let stream = reference_stream(&user, &memtype, count);
            f.write_at_all(0, &stream[..bytes as usize], bytes, &Datatype::byte())
        };
        assert_eq!(n.unwrap(), bytes);
    }
}

/// Every shape, window and displacement, each rank's memory in every
/// rotation of the three layouts; then one rank short of its view.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for p in [2, 3, 4, 8] {
        for sblock in [8, 16, 32] {
            for disp in [0, 24, 13] {
                for cb in [Some(1000), Some(4096), None] {
                    // at P ≥ 4 one rotation puts every layout on a rank
                    for shift in 0..(if p == 2 { 4 } else { 1 }) {
                        cases.push(Case {
                            p,
                            sblock,
                            disp,
                            cb,
                            mems: (0..p).map(|r| MEMS[(r + shift) % 4]).collect(),
                            bytes: vec![BYTES; p],
                        });
                    }
                }
            }
        }
    }
    for p in [2, 3] {
        let mut bytes = vec![BYTES; p];
        bytes[1] = BYTES / 2 + 24;
        cases.push(Case {
            p,
            sblock: 8,
            disp: 0,
            cb: None,
            mems: vec![Mem::Contiguous; p],
            bytes,
        });
    }
    cases
}

/// `dt.stream.bytes` of one run of `case` over `shared`.
fn streamed(case: &Case, shared: SharedFile) -> u64 {
    lio_obs::reset();
    lio_obs::set_enabled(true);
    lio_mpi::World::run(case.p, |comm| case.write(comm, &shared));
    lio_obs::set_enabled(false);
    lio_obs::snapshot().counter("dt.stream.bytes")
}

/// One test: the stream counter is process-wide.
#[test]
fn the_zip_leaves_the_reference_file_on_every_storage() {
    // (storage, whether it lends, how to make it)
    type Make = fn(&[u8]) -> SharedFile;
    let kinds: [(&str, bool, Make); 3] = [
        ("MemFile", true, |d| {
            SharedFile::new(MemFile::with_data(d.to_vec()))
        }),
        ("staged(MemFile)", false, |d| {
            SharedFile::new(staged(MemFile::with_data(d.to_vec())))
        }),
        ("UnixFile", true, |d| SharedFile::new(real_file_with(d))),
    ];
    for case in cases() {
        let what = case.what();
        let (image, _) = on_each_storage(&what, &case.initial(), case.p as u64, |comm, shared| {
            case.write(comm, &shared)
        });
        assert!(
            image == case.reference(),
            "{what}: file differs from the reference"
        );
        // the counters once per shape, in the default windows
        if case.cb.is_none() {
            for (name, lends, make) in &kinds {
                let got = streamed(&case, make(&case.initial()));
                let want = *lends && case.streams() && cfg!(target_arch = "x86_64");
                assert_eq!(got > 0, want, "{what} on {name}: {got} bytes streamed");
            }
        }
    }
}
