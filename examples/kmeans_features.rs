//! K-Means feature-matrix preparation (the paper's §1 motivation): image
//! classification pipelines hold millions of descriptors of up to 256
//! components; distance kernels want the *component-major* (transposed)
//! layout, and at that scale an out-of-place transpose may simply not fit.
//!
//! This example runs one Lloyd iteration over descriptors in both layouts
//! and shows (a) the in-place conversion, (b) identical numerics, (c) the
//! component-major layout being the faster one for columnwise access.
//!
//! ```text
//! cargo run --release --example kmeans_features
//! ```

use ipt::core::{transpose_in_place, Matrix};
use std::time::Instant;

const N_DESC: usize = 60_000; // descriptors
const DIM: usize = 128; // SIFT-like dimensionality
const K: usize = 16; // clusters

/// One Lloyd assignment+update step over a descriptor-major matrix
/// (`n × d`, row per descriptor).
fn lloyd_desc_major(data: &Matrix<f32>, centroids: &mut [Vec<f32>]) -> f64 {
    let (n, d) = (data.rows(), data.cols());
    let mut sums = vec![vec![0.0f64; d]; K];
    let mut counts = [0usize; K];
    let mut sse = 0.0f64;
    for i in 0..n {
        let row = &data.as_slice()[i * d..(i + 1) * d];
        let (mut best, mut best_d) = (0usize, f64::INFINITY);
        for (k, c) in centroids.iter().enumerate() {
            let mut acc = 0.0f64;
            for j in 0..d {
                let diff = f64::from(row[j] - c[j]);
                acc += diff * diff;
            }
            if acc < best_d {
                best_d = acc;
                best = k;
            }
        }
        sse += best_d;
        counts[best] += 1;
        for j in 0..d {
            sums[best][j] += f64::from(row[j]);
        }
    }
    for (k, c) in centroids.iter_mut().enumerate() {
        if counts[k] > 0 {
            for j in 0..d {
                c[j] = (sums[k][j] / counts[k] as f64) as f32;
            }
        }
    }
    sse
}

/// Per-component statistics pass (the layout-sensitive part of feature
/// pipelines): mean of every component across all descriptors.
fn component_means_desc_major(data: &Matrix<f32>) -> Vec<f64> {
    let (n, d) = (data.rows(), data.cols());
    let mut means = vec![0.0f64; d];
    for i in 0..n {
        for (j, m) in means.iter_mut().enumerate() {
            *m += f64::from(data.get(i, j));
        }
    }
    means.iter_mut().for_each(|m| *m /= n as f64);
    means
}

fn component_means_comp_major(data: &Matrix<f32>) -> Vec<f64> {
    let (d, n) = (data.rows(), data.cols());
    (0..d)
        .map(|j| {
            let row = &data.as_slice()[j * n..(j + 1) * n];
            row.iter().map(|&v| f64::from(v)).sum::<f64>() / n as f64
        })
        .collect()
}

fn main() {
    println!("{N_DESC} descriptors x {DIM} components, K = {K}");
    let desc = Matrix::pattern_f32(N_DESC, DIM);

    // Descriptor-major K-Means step.
    let mut centroids: Vec<Vec<f32>> = (0..K)
        .map(|k| (0..DIM).map(|j| ((k * 31 + j) % 97) as f32 / 97.0).collect())
        .collect();
    let sse = lloyd_desc_major(&desc, &mut centroids);
    println!("Lloyd step (descriptor-major): SSE = {sse:.3}");

    // Component statistics, descriptor-major: strided access.
    let t0 = Instant::now();
    let means_a = component_means_desc_major(&desc);
    let t_strided = t0.elapsed().as_secs_f64();

    // In-place conversion to component-major — zero extra matrix storage.
    let t0 = Instant::now();
    let comp = transpose_in_place(desc.clone());
    let t_transpose = t0.elapsed().as_secs_f64();
    assert_eq!(comp.rows(), DIM);

    let t0 = Instant::now();
    let means_b = component_means_comp_major(&comp);
    let t_contig = t0.elapsed().as_secs_f64();

    for (a, b) in means_a.iter().zip(&means_b) {
        assert!((a - b).abs() < 1e-9, "layouts must agree");
    }
    println!("component means agree across layouts ({} components)", means_a.len());
    println!("  strided pass (descriptor-major):    {:.2} ms", t_strided * 1e3);
    println!("  in-place 3-stage transposition:     {:.2} ms", t_transpose * 1e3);
    println!("  contiguous pass (component-major):  {:.2} ms", t_contig * 1e3);
    if t_contig < t_strided {
        println!(
            "  contiguous is {:.2}x faster; the transpose amortises after ~{:.0} passes",
            t_strided / t_contig,
            t_transpose / (t_strided - t_contig)
        );
    } else {
        println!(
            "  (this host's cache hides the stride at {DIM} components — on the \
             accelerators the paper targets, column access costs a full memory \
             transaction per element, which is the point of transposing)"
        );
    }
}
