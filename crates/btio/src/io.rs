//! BTIO's datatypes: the file and memory subarray types.
//!
//! BTIO describes each process's share of the solution file with one
//! derived datatype (built from `MPI_Type_create_subarray`) and its
//! in-memory layout with another, then writes each time step with a
//! single collective call — "a good example of the advantage of assigning
//! as much of an I/O task as possible to the MPI library" (Section 4.2).

use lio_datatype::{Datatype, Field, Order};

use crate::decomp::Decomp;
use crate::grid::{padded, Grid, GHOST, NVARS};

/// One grid point on file: 5 doubles.
pub fn point_type() -> Datatype {
    Datatype::basic((NVARS * 8) as u32)
}

/// The filetype of rank `p`: the overlay of its `q` cell subarrays within
/// the global `N³` array of points.
pub fn filetype(d: &Decomp, p: usize) -> Datatype {
    let n = d.n;
    let elem = point_type();
    let fields: Vec<Field> = d
        .cells_of(p)
        .iter()
        .map(|cell| Field {
            disp: 0,
            count: 1,
            child: Datatype::subarray(&[n, n, n], &cell.size, &cell.start, Order::C, &elem)
                .expect("cell subarray"),
        })
        .collect();
    let merged = Datatype::struct_type(fields).expect("filetype struct");
    // all subarrays carry the full-array extent; keep it explicit
    Datatype::resized(&merged, 0, n * n * n * (NVARS as u64 * 8)).expect("filetype extent")
}

/// The memtype of rank `p`: the interiors of its cells within their
/// ghost-padded storage.
pub fn memtype(grid: &Grid) -> Datatype {
    let elem = point_type();
    let fields: Vec<Field> = grid
        .cells
        .iter()
        .zip(&grid.cell_base)
        .map(|(cell, &base)| {
            let pd = padded(cell);
            Field {
                disp: base as i64 * 8,
                count: 1,
                child: Datatype::subarray(&pd, &cell.size, &[GHOST, GHOST, GHOST], Order::C, &elem)
                    .expect("cell interior subarray"),
            }
        })
        .collect();
    Datatype::struct_type(fields).expect("memtype struct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lio_datatype::OlList;

    #[test]
    fn filetype_covers_owned_points() {
        let d = Decomp::new(12, 4).unwrap();
        for p in 0..4 {
            let ft = filetype(&d, p);
            assert_eq!(ft.size(), d.points() / 4 * 40);
            assert_eq!(ft.extent(), d.points() * 40);
            assert!(ft.is_monotone(), "rank {p} filetype not monotone");
            assert!(ft.valid_as_filetype().is_ok());
        }
    }

    #[test]
    fn filetypes_of_all_ranks_tile_the_file() {
        let d = Decomp::new(8, 4).unwrap();
        let mut covered = vec![false; (d.points() * 40) as usize];
        for p in 0..4 {
            let ft = filetype(&d, p);
            for seg in &OlList::flatten(&ft, 1).segs {
                for b in seg.offset..seg.offset + seg.len as i64 {
                    assert!(!covered[b as usize], "byte {b} covered twice");
                    covered[b as usize] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "file not fully covered");
    }

    #[test]
    fn filetype_block_structure_matches_table2() {
        let d = Decomp::new(102, 4).unwrap();
        let ft = filetype(&d, 0);
        let list = OlList::flatten(&ft, 1);
        let (nblock, sblock) = d.access_pattern(0);
        assert_eq!(list.num_blocks() as u64, nblock); // 5202
        assert_eq!(list.segs[0].len as f64, sblock); // 2040
    }

    #[test]
    fn memtype_skips_ghosts() {
        let d = Decomp::new(8, 4).unwrap();
        let g = Grid::new(&d, 2);
        let mt = memtype(&g);
        assert_eq!(mt.size(), g.points() * 40);
        // extent fits in the storage
        assert!(mt.data_ub() as usize <= g.bytes().len());
        assert!(!mt.is_contiguous());
    }

    #[test]
    fn memtype_first_run_is_an_x_row() {
        let d = Decomp::new(8, 4).unwrap();
        let g = Grid::new(&d, 0);
        let mt = memtype(&g);
        let list = OlList::flatten(&mt, 1);
        // first run: one x-row of the first cell interior
        assert_eq!(list.segs[0].len, g.cells[0].size[2] * 40);
        // it starts after one ghost plane + one ghost row + one ghost point
        let pd = padded(&g.cells[0]);
        let want = ((pd[1] + 1) * pd[2] + 1) as i64 * 40;
        assert_eq!(list.segs[0].offset, want);
    }
}
