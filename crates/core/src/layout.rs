//! Data-layout marshaling: AoS ↔ SoA ↔ ASTA conversions, expressed as
//! elementary transpositions (the original use of the building blocks in
//! Sung et al.'s DL system, recounted in §4.1 of the paper).
//!
//! * **AoS** (Array of Structures): `[n_structs][fields]`
//! * **SoA** (Structure of Arrays): `[fields][n_structs]`
//! * **ASTA** (Array of Structures of Tiled Arrays): `[n_structs/t][fields][t]`
//!   — AoS-like coalescing-friendly layout with tile height `t`.
//!
//! AoS→ASTA is `t × fields` tile transposition per chunk (`010!`); SoA→ASTA
//! shifts `t`-sized super-elements (`100!`). These are exactly the kernels
//! the staged full transposition reuses.

use crate::elementary::InstancedTranspose;

/// Description of a structured array: `n_structs` records of `fields`
/// scalars each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructArray {
    /// Number of records.
    pub n_structs: usize,
    /// Scalars per record.
    pub fields: usize,
}

impl StructArray {
    /// Construct; both dimensions must be positive.
    #[must_use]
    pub fn new(n_structs: usize, fields: usize) -> Self {
        assert!(n_structs > 0 && fields > 0);
        Self { n_structs, fields }
    }

    /// Total scalars.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_structs * self.fields
    }

    /// Never true (dimensions are positive); for API hygiene.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `010!` operation converting AoS → ASTA with tile height `t`
    /// (`t` must divide `n_structs`): `A×t×F → A×F×t` where `A = n_structs/t`.
    ///
    /// # Panics
    /// Panics if `t` does not divide `n_structs`.
    #[must_use]
    pub fn aos_to_asta(&self, t: usize) -> InstancedTranspose {
        assert!(t > 0 && self.n_structs.is_multiple_of(t), "tile height {t} must divide {}", self.n_structs);
        InstancedTranspose::new(self.n_structs / t, t, self.fields, 1)
    }

    /// The inverse `010!` converting ASTA (tile height `t`) → AoS.
    #[must_use]
    pub fn asta_to_aos(&self, t: usize) -> InstancedTranspose {
        self.aos_to_asta(t).inverse()
    }

    /// The `100!` operation converting SoA → ASTA with tile height `t`:
    /// `F×A×t → A×F×t` (super-elements of size `t`).
    ///
    /// # Panics
    /// Panics if `t` does not divide `n_structs`.
    #[must_use]
    pub fn soa_to_asta(&self, t: usize) -> InstancedTranspose {
        assert!(t > 0 && self.n_structs.is_multiple_of(t), "tile height {t} must divide {}", self.n_structs);
        InstancedTranspose::new(1, self.fields, self.n_structs / t, t)
    }

    /// The inverse `100!` converting ASTA (tile height `t`) → SoA.
    #[must_use]
    pub fn asta_to_soa(&self, t: usize) -> InstancedTranspose {
        self.soa_to_asta(t).inverse()
    }

    /// Full AoS → SoA conversion (a plain `n_structs × fields`
    /// transposition).
    #[must_use]
    pub fn aos_to_soa(&self) -> InstancedTranspose {
        InstancedTranspose::new(1, self.n_structs, self.fields, 1)
    }

    /// Index of field `f` of record `r` in AoS layout.
    #[must_use]
    pub fn aos_index(&self, r: usize, f: usize) -> usize {
        debug_assert!(r < self.n_structs && f < self.fields);
        r * self.fields + f
    }

    /// Index of field `f` of record `r` in SoA layout.
    #[must_use]
    pub fn soa_index(&self, r: usize, f: usize) -> usize {
        debug_assert!(r < self.n_structs && f < self.fields);
        f * self.n_structs + r
    }

    /// Index of field `f` of record `r` in ASTA layout with tile height `t`.
    #[must_use]
    pub fn asta_index(&self, r: usize, f: usize, t: usize) -> usize {
        debug_assert!(r < self.n_structs && f < self.fields);
        let (chunk, within) = (r / t, r % t);
        chunk * (t * self.fields) + f * t + within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill AoS data where record r field f = r*100 + f.
    fn aos_data(sa: StructArray) -> Vec<u32> {
        let mut v = vec![0u32; sa.len()];
        for r in 0..sa.n_structs {
            for f in 0..sa.fields {
                v[sa.aos_index(r, f)] = (r * 100 + f) as u32;
            }
        }
        v
    }

    #[test]
    fn aos_to_asta_layout() {
        let sa = StructArray::new(12, 5);
        for t in [1, 2, 3, 4, 6, 12] {
            let mut data = aos_data(sa);
            sa.aos_to_asta(t).apply(&mut data);
            for r in 0..12 {
                for f in 0..5 {
                    assert_eq!(
                        data[sa.asta_index(r, f, t)],
                        (r * 100 + f) as u32,
                        "t={t} r={r} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn soa_to_asta_layout() {
        let sa = StructArray::new(12, 5);
        for t in [1, 2, 3, 4, 6, 12] {
            // Build SoA data.
            let mut data = vec![0u32; sa.len()];
            for r in 0..12 {
                for f in 0..5 {
                    data[sa.soa_index(r, f)] = (r * 100 + f) as u32;
                }
            }
            sa.soa_to_asta(t).apply(&mut data);
            for r in 0..12 {
                for f in 0..5 {
                    assert_eq!(
                        data[sa.asta_index(r, f, t)],
                        (r * 100 + f) as u32,
                        "t={t} r={r} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn asta_roundtrips() {
        let sa = StructArray::new(24, 7);
        let orig = aos_data(sa);
        for t in [2, 3, 4, 6, 8] {
            let mut data = orig.clone();
            sa.aos_to_asta(t).apply(&mut data);
            sa.asta_to_aos(t).apply(&mut data);
            assert_eq!(data, orig, "t={t}");
        }
    }

    #[test]
    fn aos_to_soa_via_asta_equals_direct() {
        let sa = StructArray::new(24, 7);
        let orig = aos_data(sa);
        // Direct full transposition.
        let mut direct = orig.clone();
        sa.aos_to_soa().apply(&mut direct);
        // AoS → ASTA → SoA.
        let mut staged = orig.clone();
        let t = 4;
        sa.aos_to_asta(t).apply(&mut staged);
        sa.asta_to_soa(t).apply(&mut staged);
        assert_eq!(staged, direct);
    }

    #[test]
    fn asta_index_with_tile_one_is_soa_like_aos() {
        // t = n_structs → ASTA is SoA; t = 1 → ASTA is AoS.
        let sa = StructArray::new(8, 3);
        for r in 0..8 {
            for f in 0..3 {
                assert_eq!(sa.asta_index(r, f, 1), sa.aos_index(r, f));
                assert_eq!(sa.asta_index(r, f, 8), sa.soa_index(r, f));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_tile_panics() {
        let _ = StructArray::new(10, 3).aos_to_asta(4);
    }
}
