//! Per-process grid storage and the stand-in compute phase.
//!
//! Each process stores its `q` cells consecutively. A cell holds
//! `(cz+2)·(cy+2)·(cx+2)` points of 5 doubles — one layer of ghost points
//! per side, as in BT — so the *interior* the process writes to the file
//! is non-contiguous in memory and BTIO's subarray memtype is genuinely
//! exercised.
//!
//! The compute phase is a 7-point stencil relaxation over the 5-vector,
//! standing in for BT's ADI solver (see DESIGN.md for the substitution
//! argument): it touches the same working set with a comparable memory
//! access pattern, and its per-step cost is calibrated by `sweeps`.

use crate::decomp::{Cell, Decomp};

/// Ghost layers per side.
pub const GHOST: u64 = 1;
/// Solution components per grid point.
pub const NVARS: usize = 5;

/// One process's share of the solution array.
pub struct Grid {
    /// The owning rank's cells (interior shapes).
    pub cells: Vec<Cell>,
    /// Index of each cell's first value within `data`.
    pub cell_base: Vec<usize>,
    /// All cells' storage, ghost points included: `f64` values as their
    /// little-endian bytes, so the I/O user buffer is the storage itself
    /// ([`Grid::value`] and [`Grid::set`] index it by value).
    data: Vec<u8>,
}

/// Storage dimensions of a cell including ghosts, `[z, y, x]`.
pub fn padded(cell: &Cell) -> [u64; 3] {
    [
        cell.size[0] + 2 * GHOST,
        cell.size[1] + 2 * GHOST,
        cell.size[2] + 2 * GHOST,
    ]
}

impl Grid {
    /// Allocate the grid for rank `p` of decomposition `d`.
    pub fn new(d: &Decomp, p: usize) -> Grid {
        let cells = d.cells_of(p);
        let mut cell_base = Vec::with_capacity(cells.len());
        let mut total = 0usize;
        for c in &cells {
            cell_base.push(total);
            let pd = padded(c);
            total += (pd[0] * pd[1] * pd[2]) as usize * NVARS;
        }
        Grid {
            cells,
            cell_base,
            data: vec![0; total * 8],
        }
    }

    /// Value `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.data[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    }

    /// Set value `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        self.data[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Initialize every interior point to a deterministic function of its
    /// global coordinates (BT's `initialize` analogue; also the basis for
    /// output verification).
    pub fn initialize(&mut self) {
        for ci in 0..self.cells.len() {
            let cell = self.cells[ci];
            let base = self.cell_base[ci];
            let pd = padded(&cell);
            for z in 0..cell.size[0] {
                for y in 0..cell.size[1] {
                    for x in 0..cell.size[2] {
                        let gz = cell.start[0] + z;
                        let gy = cell.start[1] + y;
                        let gx = cell.start[2] + x;
                        let idx = point_index(base, pd, z + GHOST, y + GHOST, x + GHOST);
                        for v in 0..NVARS {
                            self.set(idx + v, expected_value(gz, gy, gx, v));
                        }
                    }
                }
            }
        }
    }

    /// One compute step: `sweeps` relaxation sweeps over every cell.
    /// Returns a residual-like checksum so the work cannot be optimized
    /// away.
    pub fn relax(&mut self, sweeps: usize) -> f64 {
        let mut acc = 0.0f64;
        for _ in 0..sweeps {
            for ci in 0..self.cells.len() {
                let cell = self.cells[ci];
                let base = self.cell_base[ci];
                let pd = padded(&cell);
                for z in GHOST..cell.size[0] + GHOST {
                    for y in GHOST..cell.size[1] + GHOST {
                        for x in GHOST..cell.size[2] + GHOST {
                            let i = point_index(base, pd, z, y, x);
                            let xs = (pd[2] as usize) * NVARS;
                            let ys = (pd[1] * pd[2]) as usize * NVARS;
                            for v in 0..NVARS {
                                let j = i + v;
                                let c = self.value(j);
                                let n = self.value(j - xs)
                                    + self.value(j + xs)
                                    + self.value(j - ys)
                                    + self.value(j + ys)
                                    + self.value(j - NVARS)
                                    + self.value(j + NVARS);
                                let updated = 0.4 * c + 0.1 * n;
                                self.set(j, updated);
                                acc += updated;
                            }
                        }
                    }
                }
            }
        }
        acc
    }

    /// Interior points owned by this rank.
    pub fn points(&self) -> u64 {
        self.cells.iter().map(|c| c.points()).sum()
    }

    /// The storage as bytes (the I/O user buffer).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// The storage as mutable bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Flat index of component 0 of point `(z, y, x)` (padded-local
/// coordinates) in a cell based at `base` with padded dims `pd`.
#[inline]
pub fn point_index(base: usize, pd: [u64; 3], z: u64, y: u64, x: u64) -> usize {
    base + ((z * pd[1] + y) * pd[2] + x) as usize * NVARS
}

/// The deterministic initial value of component `v` at global point
/// `(z, y, x)` — the verification oracle.
#[inline]
pub fn expected_value(z: u64, y: u64, x: u64, v: usize) -> f64 {
    (z as f64) * 1.0e6 + (y as f64) * 1.0e3 + (x as f64) + (v as f64) * 0.125
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_allocates_all_cells() {
        let d = Decomp::new(12, 4).unwrap();
        let g = Grid::new(&d, 0);
        assert_eq!(g.cells.len(), 2);
        assert_eq!(g.points(), 12 * 12 * 12 / 4);
        let padded_total: usize = g
            .cells
            .iter()
            .map(|c| {
                let pd = padded(c);
                (pd[0] * pd[1] * pd[2]) as usize * NVARS
            })
            .sum();
        assert_eq!(g.bytes().len(), padded_total * 8);
    }

    #[test]
    fn initialize_sets_interior_only() {
        let d = Decomp::new(8, 4).unwrap();
        let mut g = Grid::new(&d, 1);
        g.initialize();
        // ghost corners stay zero
        assert_eq!(g.value(0), 0.0);
        // an interior point holds the oracle value
        let cell = g.cells[0];
        let pd = padded(&cell);
        let idx = point_index(g.cell_base[0], pd, GHOST, GHOST, GHOST);
        assert_eq!(
            g.value(idx),
            expected_value(cell.start[0], cell.start[1], cell.start[2], 0)
        );
        assert_eq!(
            g.value(idx + 3),
            expected_value(cell.start[0], cell.start[1], cell.start[2], 3)
        );
    }

    #[test]
    fn relax_changes_data_and_returns_checksum() {
        let d = Decomp::new(8, 1).unwrap();
        let mut g = Grid::new(&d, 0);
        g.initialize();
        let before = g.bytes().to_vec();
        let r1 = g.relax(1);
        assert_ne!(g.bytes(), before);
        assert!(r1.is_finite());
        let r2 = g.relax(1);
        assert_ne!(r1, r2);
    }

    #[test]
    fn bytes_roundtrip() {
        let d = Decomp::new(8, 1).unwrap();
        let mut g = Grid::new(&d, 0);
        g.initialize();
        let copy = g.bytes().to_vec();
        g.bytes_mut().copy_from_slice(&copy);
        let idx = point_index(g.cell_base[0], padded(&g.cells[0]), GHOST, GHOST, GHOST);
        assert_eq!(g.value(idx), expected_value(0, 0, 0, 0));
    }
}
