//! The five workloads: their datatypes, sizes, buffers and the naive
//! reference file image. Types and sizes are fixed; the seed drives buffer
//! contents only. Every workload is nc-nc (non-contiguous memory *and*
//! file) and runs on [`RANKS`] rank threads.

use lio_core::BackendKind;
use lio_datatype::{typemap, Datatype, Order};
use lio_noncontig::{figure4_filetype, noncontig_memtype};

/// Rank threads per world; the benchmark box has two cores.
pub const RANKS: usize = 2;
/// Untimed operations before the timed ones, per direction and world.
pub const WARMUP: usize = 3;

const TILE_GRID: u64 = 64;
const TILE_POINT: u32 = 40;
const TILE_STEPS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `write_at` / `read_at` (data sieving).
    Independent,
    /// `write_at_all` / `read_at_all` (two-phase).
    Collective,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The paper's Figure-4 vector view, every op at offset 0.
    Fig4 {
        sblock: u64,
        nblock: u64,
        bytes_per_proc: u64,
    },
    /// BTIO-shaped: a 64³ grid of 40-byte points split in two along the
    /// fastest axis (rows of 1280 B), a ghost-padded memory tile, and an
    /// append file of [`TILE_STEPS`] grids; op `i` moves step `i mod 8`.
    Tile,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub access: Access,
    pub backend: BackendKind,
    shape: Shape,
    /// Timed samples per direction, engine and round. Fixed, so that the
    /// work in a round is the same on every commit.
    pub k: usize,
    /// Operations per sample: issued back to back between two barriers
    /// and timed as one. More than one where a single operation is so
    /// short that the barrier's wake-up would be a tenth of the sample.
    pub batch: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ind-small",
        why: "independent, 8 B blocks x 4096, 128 KiB/proc/op, Mem, all in L2: per-block pack/navigation and sieving cost (Fig. 5)",
        access: Access::Independent,
        backend: BackendKind::Mem,
        shape: Shape::Fig4 {
            sblock: 8,
            nblock: 4096,
            bytes_per_proc: 128 << 10,
        },
        k: 40,
        batch: 8,
    },
    Workload {
        name: "ind-large",
        why: "independent, 16 KiB blocks x 8, 8 MiB/proc/op, Mem: memcpy-bound, both engines tie (Fig. 7 right end)",
        access: Access::Independent,
        backend: BackendKind::Mem,
        shape: Shape::Fig4 {
            sblock: 16 << 10,
            nblock: 8,
            bytes_per_proc: 8 << 20,
        },
        k: 40,
        batch: 1,
    },
    Workload {
        name: "coll-small",
        why: "collective, 8 B blocks x 4096, 1 MiB/proc/op, Mem: adds exchange, fileview caching and mergeview (Fig. 6)",
        access: Access::Collective,
        backend: BackendKind::Mem,
        shape: Shape::Fig4 {
            sblock: 8,
            nblock: 4096,
            bytes_per_proc: 1 << 20,
        },
        k: 40,
        batch: 1,
    },
    Workload {
        name: "coll-tile",
        why: "collective BTIO-shaped subarray tiles, 1280 B rows, 5.2 MB/proc/op, 8-step append file, Mem (Table 3)",
        access: Access::Collective,
        backend: BackendKind::Mem,
        shape: Shape::Tile,
        k: 45,
        batch: 1,
    },
    Workload {
        name: "coll-tile-os",
        why: "coll-tile on a real unlinked file through the submission queue: every difference from coll-tile is lio-pfs",
        access: Access::Collective,
        backend: BackendKind::Os,
        shape: Shape::Tile,
        k: 24,
        batch: 1,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Data bytes each rank moves per operation.
    pub fn bytes_per_proc(&self) -> u64 {
        match self.shape {
            Shape::Fig4 { bytes_per_proc, .. } => bytes_per_proc,
            Shape::Tile => TILE_GRID * TILE_GRID * (TILE_GRID / 2) * u64::from(TILE_POINT),
        }
    }

    /// The filetype of `rank`; every rank uses view displacement 0 and
    /// etype byte.
    pub fn filetype(&self, rank: usize) -> Datatype {
        match self.shape {
            Shape::Fig4 { sblock, nblock, .. } => {
                figure4_filetype(rank as u64, RANKS as u64, nblock, sblock)
            }
            Shape::Tile => {
                let g = TILE_GRID;
                Datatype::subarray(
                    &[g, g, g],
                    &[g, g, g / 2],
                    &[0, 0, g / 2 * rank as u64],
                    Order::C,
                    &Datatype::basic(TILE_POINT),
                )
                .expect("tile filetype")
            }
        }
    }

    /// The memtype and how many instances of it one operation moves.
    pub fn memtype(&self) -> (Datatype, u64) {
        match self.shape {
            Shape::Fig4 {
                sblock,
                nblock,
                bytes_per_proc,
            } => (
                noncontig_memtype(nblock, sblock),
                bytes_per_proc / (nblock * sblock),
            ),
            Shape::Tile => {
                let g = TILE_GRID;
                let mt = Datatype::subarray(
                    &[g + 2, g + 2, g / 2 + 2],
                    &[g, g, g / 2],
                    &[1, 1, 1],
                    Order::C,
                    &Datatype::basic(TILE_POINT),
                )
                .expect("tile memtype");
                (mt, 1)
            }
        }
    }

    /// Length of the user buffer that holds `count` memtype instances.
    pub fn buf_len(&self) -> usize {
        let (mt, count) = self.memtype();
        ((count - 1) * mt.extent()) as usize + mt.data_ub() as usize
    }

    /// Distinct file regions the operations cycle through.
    pub fn steps(&self) -> u64 {
        match self.shape {
            Shape::Fig4 { .. } => 1,
            Shape::Tile => TILE_STEPS,
        }
    }

    /// View offset (etype = byte) of the `i`-th operation of a direction.
    pub fn offset(&self, i: usize) -> u64 {
        (i as u64 % self.steps()) * self.bytes_per_proc()
    }

    pub fn file_len(&self) -> u64 {
        self.steps() * self.bytes_per_proc() * RANKS as u64
    }

    /// User buffers of all ranks plus the file.
    pub fn working_set_bytes(&self) -> u64 {
        self.file_len() + (self.buf_len() * RANKS) as u64
    }
}

/// SplitMix64: the benchmark's only source of pseudo-random numbers.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The user buffer of `rank` for `seed`: the same bytes in every round
/// and for both engines, so one reference image serves the whole run.
pub fn user_buffer(seed: u64, rank: usize, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ (rank as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut buf = vec![0u8; len];
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let last = rng.next_u64().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
    buf
}

/// What a read buffer must hold after reading back what `user` wrote:
/// `user`'s bytes at the memtype's data positions, `fill` elsewhere.
pub fn expected_readback(w: &Workload, user: &[u8], fill: u8) -> Vec<u8> {
    let (mt, count) = w.memtype();
    let mut want = vec![fill; user.len()];
    for r in typemap::expand(&mt, count) {
        let (o, n) = (r.disp as usize, r.len as usize);
        want[o..o + n].copy_from_slice(&user[o..o + n]);
    }
    want
}

/// The file image after `ops` writes per rank, built by plain typemap
/// expansion: each rank's data bytes in memtype order land on its
/// filetype's runs in file order, one `bytes_per_proc` stream per step.
pub fn reference_image(w: &Workload, seed: u64, ops: usize) -> Vec<u8> {
    let (mt, count) = w.memtype();
    let bpp = w.bytes_per_proc() as usize;
    let steps = w.steps().min(ops as u64);
    let mut img = vec![0u8; w.file_len() as usize];
    for rank in 0..RANKS {
        let user = user_buffer(seed, rank, w.buf_len());
        let mut packed = Vec::with_capacity(bpp);
        for r in typemap::expand(&mt, count) {
            packed.extend_from_slice(&user[r.disp as usize..][..r.len as usize]);
        }
        assert_eq!(packed.len(), bpp, "memtype moves bytes_per_proc");
        let ft = w.filetype(rank);
        let instances = steps * w.bytes_per_proc() / ft.size();
        let mut pos = 0; // position in the rank's data stream
        for r in typemap::expand(&ft, instances) {
            let mut at = r.disp as usize;
            let mut left = r.len as usize;
            while left > 0 {
                let n = left.min(bpp - pos % bpp);
                img[at..at + n].copy_from_slice(&packed[pos % bpp..][..n]);
                at += n;
                pos += n;
                left -= n;
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_the_stated_ones() {
        let w = by_name("ind-small").unwrap();
        assert_eq!(
            (w.bytes_per_proc(), w.file_len(), w.buf_len()),
            (128 << 10, 256 << 10, 4 * 65528)
        );
        let w = by_name("ind-large").unwrap();
        assert_eq!((w.bytes_per_proc(), w.file_len()), (8 << 20, 16 << 20));
        let w = by_name("coll-tile-os").unwrap();
        assert_eq!(w.bytes_per_proc(), 5_242_880);
        assert_eq!(w.file_len(), 83_886_080);
        // up to the end of the last interior point of the 66 x 66 x 34 tile
        assert_eq!(w.buf_len(), (64 * 66 * 34 + 64 * 34 + 32 + 1) * 40);
        assert_eq!(w.offset(9), 5_242_880);
        for w in &WORKLOADS {
            let (mt, count) = w.memtype();
            assert_eq!(mt.size() * count, w.bytes_per_proc(), "{}", w.name);
            assert_eq!(w.bytes_per_proc() % w.filetype(1).size(), 0, "{}", w.name);
        }
    }

    #[test]
    fn buffers_depend_on_seed_and_rank_only() {
        assert_eq!(user_buffer(7, 0, 29), user_buffer(7, 0, 29));
        assert_ne!(user_buffer(7, 0, 29), user_buffer(8, 0, 29));
        assert_ne!(user_buffer(7, 0, 29), user_buffer(7, 1, 29));
    }

    #[test]
    fn reference_image_covers_the_file_with_both_ranks_data() {
        let w = by_name("ind-small").unwrap();
        let img = reference_image(w, 1, 4);
        let (u0, u1) = (
            user_buffer(1, 0, w.buf_len()),
            user_buffer(1, 1, w.buf_len()),
        );
        // 8-byte blocks alternate between the ranks; memory is half-dense
        assert_eq!(img[0..8], u0[0..8]);
        assert_eq!(img[8..16], u1[0..8]);
        assert_eq!(img[16..24], u0[16..24]);
        // a tile step that no op wrote stays zero
        let t = by_name("coll-tile").unwrap();
        let img = reference_image(t, 1, 2);
        let step = (t.bytes_per_proc() * RANKS as u64) as usize;
        assert!(img[..2 * step].iter().any(|&b| b != 0));
        assert!(img[2 * step..].iter().all(|&b| b == 0));
    }
}
