//! P-IPT on the CPU: one task per cycle, no splitting (Sung et al.'s \[12\]
//! baseline parallelisation, which the paper's optimised PTTWAC defeats).
//!
//! Thin, named wrapper over the cycle-parallel engine in `ipt-core` so the
//! experiment harness can refer to the comparator by its paper name.

use ipt_core::{Matrix, TransposePerm};

/// P-IPT in-place transposition: rayon task per cycle, longest first.
#[must_use]
pub fn transpose_in_place_pipt<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    let perm = TransposePerm::new(rows, cols);
    ipt_core::elementary::parallel::cycle_shift_par(matrix.as_mut_slice(), &perm, 1);
    matrix.assume_transposed_shape()
}

/// Load-imbalance diagnostic: fraction of all moved elements that live on
/// the single longest cycle — the quantity that caps P-IPT's speedup
/// (§4 of the paper, citing Cate & Twigg).
#[must_use]
pub fn dominant_cycle_fraction(rows: usize, cols: usize) -> f64 {
    let perm = TransposePerm::new(rows, cols);
    let stats = perm.stats();
    if stats.moved == 0 {
        0.0
    } else {
        stats.max_len as f64 / stats.moved as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipt_correct() {
        for &(r, c) in &[(5, 3), (64, 48), (720, 180)] {
            let m = Matrix::iota(r, c);
            assert_eq!(transpose_in_place_pipt(m.clone()), m.transposed(), "{r}x{c}");
        }
    }

    #[test]
    fn dominant_cycle_is_large_for_rectangles() {
        // Rectangular matrices typically concentrate most elements on few
        // long cycles; squares have 2-cycles only.
        let rect = dominant_cycle_fraction(720, 180);
        let square = dominant_cycle_fraction(512, 512);
        assert!(rect > 0.05, "rect {rect}");
        assert!(square < 1e-3, "square {square}");
    }
}
