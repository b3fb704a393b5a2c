//! Exact-bit hashing of thermal maps and power vectors.
//!
//! The batch engine in `tadfa-core` memoises thermal solves: when the
//! same kernel appears repeatedly across a suite, its fixpoint
//! re-derives an identical power profile, and the whole solve can be
//! answered from a cache instead of re-iterated. The cache key — and
//! the report fingerprints the engine's determinism tests compare — is
//! a 128-bit FNV-1a hash computed with the [`Fnv128`] hasher in this
//! module.
//!
//! Every `f64` is hashed as its raw IEEE-754 bit pattern, so only
//! *bit-identical* inputs share a key. There is no approximate mode:
//! that is what lets the engine guarantee byte-identical results with
//! and without the cache.
//!
//! The 128-bit width makes accidental collisions of distinct inputs
//! negligible (birthday bound ≈ 2⁻⁶⁴ at 2³² entries), so callers may
//! treat key equality as input equality without storing the inputs.

/// FNV-1a 128-bit offset basis.
pub const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c7d3;

/// FNV-1a 128-bit prime.
pub const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Incremental 128-bit FNV-1a hasher over 64-bit words.
///
/// # Examples
///
/// ```
/// use tadfa_thermal::hashing::Fnv128;
///
/// let mut a = Fnv128::new();
/// a.write_u64(42);
/// let mut b = Fnv128::new();
/// b.write_u64(42);
/// assert_eq!(a.finish(), b.finish());
/// b.write_u64(43);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Fnv128 {
    state: u128,
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    /// Absorbs one 64-bit word (byte by byte, FNV-1a order).
    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.state ^= byte as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs one `f64` as its exact IEEE-754 bit pattern.
    ///
    /// # Examples
    ///
    /// ```
    /// use tadfa_thermal::hashing::Fnv128;
    ///
    /// let mut a = Fnv128::new();
    /// a.write_f64(318.15);
    /// let mut b = Fnv128::new();
    /// b.write_u64(318.15f64.to_bits());
    /// assert_eq!(a.finish(), b.finish());
    /// ```
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Absorbs a whole `f64` slice, length included (so a prefix never
    /// hashes equal to the full slice).
    pub fn write_f64s(&mut self, values: &[f64]) {
        self.write_u64(values.len() as u64);
        for &v in values {
            self.write_f64(v);
        }
    }

    /// The current 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hashes a sequence of slices the way a key folds its inputs.
    fn key(parts: &[&[f64]]) -> u128 {
        let mut h = Fnv128::new();
        for part in parts {
            h.write_f64s(part);
        }
        h.finish()
    }

    #[test]
    fn exact_keys_distinguish_one_ulp() {
        let a: [f64; 2] = [300.0, 301.0];
        let mut b = a;
        b[1] = f64::from_bits(b[1].to_bits() + 1);
        assert_ne!(key(&[&a, &[0.0; 2]]), key(&[&b, &[0.0; 2]]));
        assert_eq!(key(&[&a, &[0.0; 2]]), key(&[a.as_slice(), &[0.0; 2]]));
    }

    #[test]
    fn length_is_part_of_the_key() {
        // A two-element state must not hash like a three-element one
        // whose tail happens to line up.
        let mut h2 = Fnv128::new();
        h2.write_f64s(&[1.0, 2.0]);
        let mut h3 = Fnv128::new();
        h3.write_f64s(&[1.0, 2.0, 0.0]);
        assert_ne!(h2.finish(), h3.finish());
    }

    #[test]
    fn power_and_state_do_not_alias() {
        // Same concatenation, different split: the length prefixes keep
        // (temps=[a], power=[b,c]) distinct from (temps=[a,b], power=[c]).
        let k1 = key(&[&[1.0], &[2.0, 3.0]]);
        let k2 = key(&[&[1.0, 2.0], &[3.0]]);
        assert_ne!(k1, k2);
    }
}
