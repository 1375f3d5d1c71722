//! Pinned names of the retired 8-lane MAC front-end, for `benchmark/`.

/// Lanes per call of the retired kernel.
pub const LANES: usize = 8;

/// Whether MACs batch through a multi-lane kernel: never.
pub fn simd_preferred() -> bool {
    false
}
