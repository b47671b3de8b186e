//! Canonical fingerprinting of measurement sets and checkpoint bytes.
//!
//! The registry's result cache (crate `nrpm-registry`) memoizes adaptive
//! modeling outcomes keyed by *what was modeled* and *which network modeled
//! it*. For those keys to be useful they must be:
//!
//! * **bit-stable** — derived from the exact `f64` bit patterns of the
//!   coordinates and values, never from formatted text, so a key computed
//!   today matches one computed after a round trip through the wire
//!   protocol or the journal;
//! * **order-insensitive** — a measurement set is a *set*: permuting the
//!   points, or the repetitions within a point, must not change the key
//!   (clients enumerate kernels in arbitrary order);
//! * **model-sensitive** — swapping the serving checkpoint must invalidate
//!   every cached result, which is why [`ModelKey`] folds the checkpoint's
//!   content hash into the fingerprint.
//!
//! The hash is a self-contained FNV-1a-64 plus a `splitmix64`-style
//! finalizer for the commutative combination — no external dependencies,
//! and the constants are fixed forever (they are baked into persisted cache
//! journals).

use nrpm_extrap::MeasurementSet;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// Deliberately *not* `std::hash::Hasher`: the std trait's output is
/// documented as unstable across releases, while cache fingerprints must
/// stay identical across builds and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(FNV_OFFSET)
    }
}

impl Fnv1a64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds one `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Feeds one `f64` through [`canonical_f64_bits`].
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(canonical_f64_bits(v))
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes a byte slice in one call (checkpoint content addressing).
pub fn bytes_hash(bytes: &[u8]) -> u64 {
    Fnv1a64::new().write(bytes).finish()
}

/// The canonical bit pattern of an `f64` for fingerprinting: `-0.0`
/// collapses onto `0.0` (they compare equal, so they must hash equal) and
/// every NaN collapses onto one canonical NaN payload.
pub fn canonical_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else if v == 0.0 {
        0u64 // +0.0; -0.0 has the sign bit set but compares equal
    } else {
        v.to_bits()
    }
}

/// A `splitmix64`-style finalizer: spreads one hash over all 64 bits so
/// that commutative (`wrapping_add`) combination of per-item hashes stays
/// collision-resistant against structured inputs.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes one measurement: the point coordinates in order (coordinate
/// position is meaningful), then the repetition values combined
/// order-insensitively (repetitions are an unordered sample).
fn measurement_hash(point: &[f64], values: &[f64]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(point.len() as u64);
    for &x in point {
        h.write_f64(x);
    }
    // Commutative fold over the repetitions: each value is hashed alone,
    // finalized, and summed, so permuting repetitions cannot change the sum
    // while multisets that differ in any value (or multiplicity) do.
    let mut rep_sum = 0u64;
    for &v in values {
        rep_sum = rep_sum.wrapping_add(mix64(canonical_f64_bits(v)));
    }
    h.write_u64(values.len() as u64);
    h.write_u64(rep_sum);
    mix64(h.finish())
}

/// The canonical fingerprint of a measurement set: order-insensitive over
/// points and repetitions, bit-stable over coordinates and values, and
/// sensitive to `num_params` and to every multiplicity.
pub fn set_fingerprint(set: &MeasurementSet) -> u64 {
    let mut point_sum = 0u64;
    for m in set.measurements() {
        point_sum = point_sum.wrapping_add(measurement_hash(&m.point, &m.values));
    }
    let mut h = Fnv1a64::new();
    h.write(b"nrpm-set-v1");
    h.write_u64(set.num_params() as u64);
    h.write_u64(set.len() as u64);
    h.write_u64(point_sum);
    h.finish()
}

/// The full cache key of one adaptive modeling request.
///
/// Two requests share a key exactly when the same data would be modeled by
/// the same network under the same adaptation mode — the three inputs the
/// adaptive pipeline is deterministic over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// [`set_fingerprint`] of the measurement set.
    pub set_fingerprint: u64,
    /// Content hash of the active checkpoint ([`bytes_hash`] of the bytes
    /// it was loaded from, or of its canonical JSON).
    pub checkpoint_hash: u64,
    /// Whether domain adaptation runs before modeling (it changes the
    /// weights used, hence the outcome).
    pub adapt: bool,
}

impl ModelKey {
    /// Builds the key for modeling `set` with the checkpoint identified by
    /// `checkpoint_hash`.
    pub fn new(set: &MeasurementSet, checkpoint_hash: u64, adapt: bool) -> Self {
        ModelKey {
            set_fingerprint: set_fingerprint(set),
            checkpoint_hash,
            adapt,
        }
    }

    /// Collapses the key into the single `u64` used by the cache and the
    /// journal.
    pub fn combined(&self) -> u64 {
        let mut h = Fnv1a64::new();
        h.write(b"nrpm-key-v1");
        h.write_u64(self.set_fingerprint);
        h.write_u64(self.checkpoint_hash);
        h.write_u64(u64::from(self.adapt));
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> MeasurementSet {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[4.0], &[8.0, 8.2, 7.9]);
        set.add_repetitions(&[8.0], &[16.1, 15.8]);
        set.add_repetitions(&[16.0], &[32.0]);
        set
    }

    #[test]
    fn permuting_points_does_not_change_the_fingerprint() {
        let a = sample_set();
        let mut b = MeasurementSet::new(1);
        b.add_repetitions(&[16.0], &[32.0]);
        b.add_repetitions(&[4.0], &[8.0, 8.2, 7.9]);
        b.add_repetitions(&[8.0], &[16.1, 15.8]);
        assert_eq!(set_fingerprint(&a), set_fingerprint(&b));
    }

    #[test]
    fn permuting_repetitions_does_not_change_the_fingerprint() {
        let a = sample_set();
        let mut b = MeasurementSet::new(1);
        b.add_repetitions(&[4.0], &[7.9, 8.0, 8.2]);
        b.add_repetitions(&[8.0], &[15.8, 16.1]);
        b.add_repetitions(&[16.0], &[32.0]);
        assert_eq!(set_fingerprint(&a), set_fingerprint(&b));
    }

    #[test]
    fn any_value_change_changes_the_fingerprint() {
        let base = set_fingerprint(&sample_set());
        let mut tweaked_value = sample_set();
        tweaked_value.add(&[32.0], 64.0);
        assert_ne!(base, set_fingerprint(&tweaked_value));

        let mut b = MeasurementSet::new(1);
        b.add_repetitions(&[4.0], &[8.0, 8.2, 7.9 + 1e-12]);
        b.add_repetitions(&[8.0], &[16.1, 15.8]);
        b.add_repetitions(&[16.0], &[32.0]);
        assert_ne!(base, set_fingerprint(&b), "last-bit changes must matter");
    }

    #[test]
    fn multiplicity_matters() {
        let mut once = MeasurementSet::new(1);
        once.add_repetitions(&[4.0], &[8.0]);
        let mut twice = MeasurementSet::new(1);
        twice.add_repetitions(&[4.0], &[8.0, 8.0]);
        assert_ne!(set_fingerprint(&once), set_fingerprint(&twice));
    }

    #[test]
    fn coordinate_position_matters() {
        let mut ab = MeasurementSet::new(2);
        ab.add(&[2.0, 3.0], 1.0);
        let mut ba = MeasurementSet::new(2);
        ba.add(&[3.0, 2.0], 1.0);
        assert_ne!(set_fingerprint(&ab), set_fingerprint(&ba));
    }

    #[test]
    fn zero_signs_and_nan_payloads_are_canonical() {
        assert_eq!(canonical_f64_bits(0.0), canonical_f64_bits(-0.0));
        let weird_nan = f64::from_bits(0x7ff8_0000_0000_1234);
        assert_eq!(canonical_f64_bits(weird_nan), canonical_f64_bits(f64::NAN));
        assert_ne!(canonical_f64_bits(1.0), canonical_f64_bits(-1.0));
    }

    #[test]
    fn model_key_separates_checkpoints_and_adaptation() {
        let set = sample_set();
        let a = ModelKey::new(&set, 1, false);
        let b = ModelKey::new(&set, 2, false);
        let c = ModelKey::new(&set, 1, true);
        assert_ne!(a.combined(), b.combined());
        assert_ne!(a.combined(), c.combined());
        assert_eq!(a.combined(), ModelKey::new(&set, 1, false).combined());
    }

    #[test]
    fn bytes_hash_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(bytes_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(bytes_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(bytes_hash(b"foobar"), 0x85944171f73967e8);
    }
}
