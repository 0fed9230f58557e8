//! Data-layout marshaling with elementary transpositions: AoS ↔ SoA ↔ ASTA.
//!
//! This is the original use of the paper's building blocks (Sung et al.'s
//! DL system): converting an array of structures to the GPU-friendly ASTA
//! layout *in place* is exactly the `010!` elementary transposition; SoA to
//! ASTA is `100!`.
//!
//! ```text
//! cargo run --release --example layout_marshal
//! ```

use ipt::core::layout::StructArray;

/// A particle record: position (3), velocity (3), mass, charge.
const FIELDS: usize = 8;
const N_PARTICLES: usize = 4096;
const TILE: usize = 64; // ASTA tile height (coalescing granule)

fn main() {
    let sa = StructArray::new(N_PARTICLES, FIELDS);

    // Build AoS data: particle p, field f = p*10 + f (easily checkable).
    let mut data: Vec<f32> = vec![0.0; sa.len()];
    for p in 0..N_PARTICLES {
        for f in 0..FIELDS {
            data[sa.aos_index(p, f)] = (p * 10 + f) as f32;
        }
    }
    println!("{N_PARTICLES} particles x {FIELDS} fields (AoS, {} floats)", sa.len());

    // AoS -> ASTA in place: one 010! elementary transposition.
    let op = sa.aos_to_asta(TILE);
    println!(
        "AoS -> ASTA(tile={TILE}): 010! as InstancedTranspose {{ instances: {}, rows: {}, cols: {}, super: {} }}",
        op.instances, op.rows, op.cols, op.super_size
    );
    op.apply(&mut data);
    // Fields of one tile are now contiguous: perfect for SIMD/warp loads.
    assert_eq!(data[sa.asta_index(123, 5, TILE)], (123 * 10 + 5) as f32);
    let base = sa.asta_index(0, 3, TILE);
    print!("field 3 of particles 0..6 is contiguous in ASTA: ");
    println!("{:?}", &data[base..base + 6]);

    // ASTA -> SoA in place: the inverse 100!.
    sa.asta_to_soa(TILE).apply(&mut data);
    assert_eq!(data[sa.soa_index(123, 5)], (123 * 10 + 5) as f32);
    println!("ASTA -> SoA: field-major layout restored (100! inverse)");

    // And SoA straight back to AoS: a full rectangular transposition.
    sa.aos_to_soa().inverse().apply(&mut data);
    assert_eq!(data[sa.aos_index(123, 5)], (123 * 10 + 5) as f32);
    println!("SoA -> AoS: full {}x{} in-place transposition — round trip exact", FIELDS, N_PARTICLES);
}
