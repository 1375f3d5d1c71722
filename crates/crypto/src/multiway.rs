//! Multiway HMAC-SHA-256: many short MACs batched through the 8-lane
//! multi-buffer kernel.
//!
//! Under a Figure 7 flood the MAC kernel is the receiver's hot path: every
//! datagram that survives port filtering costs one HMAC. The seen-first
//! rule and the batch verdict cache cut how *many* HMACs run; this module
//! cuts what each remaining HMAC *costs* by computing up to [`LANES`] of them in
//! lockstep over the transposed AVX2 compression kernel in
//! [`crate::sha256`].
//!
//! The front-end exploits the precomputed [`HmacKey`] ipad/opad midstates:
//! a short MAC (message + padding within one block) is exactly two
//! compressions — one inner tail block resumed from the ipad midstate, one
//! outer block resumed from the opad midstate — so a full 8-lane batch of
//! short MACs runs in 2 kernel calls instead of 16.
//!
//! Dispatch picks the fastest kernel for the host, not just any SIMD one:
//! on SHA-NI hardware the single-block unit beats the 8-lane AVX2 kernel
//! per block, so [`MultiMac::new`] stays single-block there (see
//! [`simd_preferred`]); on AVX2-only hosts the lane kernel wins ~3.6× over
//! the portable rounds and is used whenever batches form.
//!
//! Tags are bit-identical to the scalar [`HmacKey::mac_parts`] path in both
//! the 8-lane and forced-scalar configurations; the tests and the crate
//! property suite pin that.

use crate::hmac::HmacKey;
use crate::sha256::{self, BLOCK_LEN, DIGEST_LEN};

/// Lanes per kernel call: how many MACs advance per 8-wide compression.
pub const LANES: usize = sha256::LANES;

/// Whether the CPU has the 8-lane kernel at all (AVX2 on x86-64).
pub fn simd_available() -> bool {
    sha256::lanes_available()
}

/// Whether [`MultiMac::new`] actually routes work through the 8-lane
/// kernel: it is present ([`simd_available`]) and the fastest bulk-hash
/// path on this CPU. On SHA-NI hardware the single-block unit retires a
/// block in fewer cycles than the 8-lane AVX2 kernel's per-lane share, so
/// the dispatcher keeps such hosts on the single-block path — the same
/// policy multi-buffer libraries like ISA-L apply. [`MultiMac::lanes`]
/// bypasses the preference for benches and tests that pin the lane kernel
/// itself.
pub fn simd_preferred() -> bool {
    sha256::lanes_preferred()
}

/// Exact kernel-utilization counters, in machine-independent units.
///
/// `compress_calls` counts kernel invocations: an 8-wide call is one call
/// (filling 8 lanes), a single-block call is one call (filling 1 lane). The
/// lane-fill ratio `lanes_filled / (LANES * compress_calls)` therefore reads
/// 1.0 for perfectly batched work and 1/8 for purely scalar work, and the
/// per-block cost `compress_calls / blocks` reads 0.125 on the full 8-lane
/// path versus 1.0 scalar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Kernel invocations (8-wide or single-block).
    pub compress_calls: u64,
    /// Total lanes those invocations advanced (blocks actually hashed).
    pub lanes_filled: u64,
}

impl LaneStats {
    /// Fraction of lane capacity used: 1.0 when every call ran 8-wide full.
    pub fn fill_ratio(&self) -> f64 {
        if self.compress_calls == 0 {
            0.0
        } else {
            self.lanes_filled as f64 / (self.compress_calls as f64 * LANES as f64)
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: LaneStats) {
        self.compress_calls += other.compress_calls;
        self.lanes_filled += other.lanes_filled;
    }
}

/// One MAC to compute: `HMAC(key, domain ‖ a ‖ b ‖ payload)` with `a`/`b`
/// big-endian — the shape shared by Drum's message tags (`source`, `seq`)
/// and frame tags (`sender`, `nonce`). Constructed via
/// [`crate::auth::msg_job`] / [`crate::auth::frame_job`] so the domain
/// strings stay in one place.
#[derive(Debug, Clone, Copy)]
pub struct MacJob<'a> {
    /// Precomputed schedule for the signing key.
    pub key: &'a HmacKey,
    /// Domain-separation prefix.
    pub domain: &'static [u8],
    /// First big-endian u64 of the authenticated triple.
    pub a: u64,
    /// Second big-endian u64 of the authenticated triple.
    pub b: u64,
    /// The authenticated payload.
    pub payload: &'a [u8],
}

/// A reusable multiway MAC engine.
///
/// Owns the per-job scratch (padded inner tails, lane grouping order,
/// intermediate digests) so steady-state batches allocate nothing, and the
/// exact [`LaneStats`] counters for the trace registry. Construct once and
/// reuse; `mac_many` batches arbitrarily many jobs, grouping equal-length
/// messages into full lanes and running any ragged tail single-lane.
pub struct MultiMac {
    /// Whether full chunks go through the 8-lane kernel.
    use_simd: bool,
    /// Per-job padded inner tails (message ‖ SHA-256 padding), reused.
    bufs: Vec<Vec<u8>>,
    /// Job indices sorted by tail length, grouping lockstep-compatible jobs.
    order: Vec<u32>,
    /// Per-job inner digests.
    inner: Vec<[u8; DIGEST_LEN]>,
    /// Per-job final tags; `mac_many` returns a view of this.
    digests: Vec<[u8; DIGEST_LEN]>,
    stats: LaneStats,
}

impl Default for MultiMac {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for MultiMac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MultiMac")
            .field("use_simd", &self.use_simd)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MultiMac {
    /// Runtime-dispatched engine: 8-lane when [`simd_preferred`].
    pub fn new() -> Self {
        Self::with_simd(simd_preferred())
    }

    /// Forced single-lane engine, for tests that pin the 8-lane path
    /// against the scalar one.
    pub fn scalar() -> Self {
        Self::with_simd(false)
    }

    /// Forced 8-lane engine wherever the kernel exists — ignoring the
    /// [`simd_preferred`] speed policy. This is the kernel arm of the
    /// counter-exactness tests, which must exercise the lane path even on
    /// SHA-NI hosts where `new()` dispatches single-block.
    pub fn lanes() -> Self {
        Self::with_simd(simd_available())
    }

    fn with_simd(use_simd: bool) -> Self {
        MultiMac {
            use_simd,
            bufs: Vec::new(),
            order: Vec::new(),
            inner: Vec::new(),
            digests: Vec::new(),
            stats: LaneStats::default(),
        }
    }

    /// Whether this engine batches through the 8-lane kernel.
    pub fn simd_active(&self) -> bool {
        self.use_simd
    }

    /// Counters accumulated since the last [`MultiMac::take_stats`].
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// Returns and resets the accumulated counters.
    pub fn take_stats(&mut self) -> LaneStats {
        core::mem::take(&mut self.stats)
    }

    /// Computes every job's tag, returning them in job order.
    ///
    /// Bit-identical to running [`HmacKey::mac_parts`] per job. The returned
    /// slice borrows internal scratch and is valid until the next call.
    pub fn mac_many(&mut self, jobs: &[MacJob<'_>]) -> &[[u8; DIGEST_LEN]] {
        let Self {
            use_simd,
            bufs,
            order,
            inner,
            digests,
            stats,
        } = self;
        let use_simd = *use_simd;
        digests.clear();
        digests.resize(jobs.len(), [0u8; DIGEST_LEN]);
        if jobs.is_empty() {
            return digests;
        }

        // 1. Materialize each job's padded inner tail: the message bytes
        // followed by standard SHA-256 padding for a stream that already
        // absorbed one 64-byte ipad block. The tail is what remains to be
        // compressed from the cached inner midstate — a whole number of
        // blocks, one for any short message.
        if bufs.len() < jobs.len() {
            bufs.resize_with(jobs.len(), Vec::new);
        }
        for (job, buf) in jobs.iter().zip(bufs.iter_mut()) {
            buf.clear();
            buf.extend_from_slice(job.domain);
            buf.extend_from_slice(&job.a.to_be_bytes());
            buf.extend_from_slice(&job.b.to_be_bytes());
            buf.extend_from_slice(job.payload);
            let hashed_bits = ((BLOCK_LEN + buf.len()) as u64) * 8;
            buf.push(0x80);
            while buf.len() % BLOCK_LEN != BLOCK_LEN - 8 {
                buf.push(0);
            }
            buf.extend_from_slice(&hashed_bits.to_be_bytes());
        }

        // 2. Group jobs by tail length (stable, so equal-length jobs keep
        // their submission order): lanes of one kernel call advance in
        // lockstep, so only equal-block-count jobs can share a call.
        order.clear();
        order.extend(0..jobs.len() as u32);
        order.sort_by_key(|&j| bufs[j as usize].len());

        // 3. Inner hash: resume each lane from its key's ipad midstate.
        inner.clear();
        inner.resize(jobs.len(), [0u8; DIGEST_LEN]);
        let mut group = 0;
        while group < order.len() {
            let len = bufs[order[group] as usize].len();
            let mut end = group;
            while end < order.len() && bufs[order[end] as usize].len() == len {
                end += 1;
            }
            let blocks = len / BLOCK_LEN;
            let mut at = group;
            while use_simd && at + LANES <= end {
                let lanes: [u32; LANES] = core::array::from_fn(|l| order[at + l]);
                let mut states: [[u32; 8]; LANES] =
                    core::array::from_fn(|l| jobs[lanes[l] as usize].key.inner_midstate());
                for b in 0..blocks {
                    let span = b * BLOCK_LEN..(b + 1) * BLOCK_LEN;
                    let refs: [&[u8]; LANES] =
                        core::array::from_fn(|l| &bufs[lanes[l] as usize][span.clone()]);
                    sha256::compress8(&mut states, &refs);
                    stats.compress_calls += 1;
                    stats.lanes_filled += LANES as u64;
                }
                for (l, &j) in lanes.iter().enumerate() {
                    inner[j as usize] = digest_bytes(&states[l]);
                }
                at += LANES;
            }
            // Ragged tail of the group (or the whole group when forced
            // scalar): single-lane compressions, one call per block.
            for &j in &order[at..end] {
                let j = j as usize;
                let mut state = jobs[j].key.inner_midstate();
                for block in bufs[j].chunks_exact(BLOCK_LEN) {
                    sha256::compress(&mut state, block);
                    stats.compress_calls += 1;
                    stats.lanes_filled += 1;
                }
                inner[j] = digest_bytes(&state);
            }
            group = end;
        }

        // 4. Outer hash: always exactly one block per job — the 32-byte
        // inner digest plus padding for a 96-byte (opad block + digest)
        // stream — so every job batches here regardless of message length.
        let outer_bits = ((BLOCK_LEN + DIGEST_LEN) * 8) as u64;
        let mut oblock = [0u8; BLOCK_LEN];
        oblock[DIGEST_LEN] = 0x80;
        oblock[BLOCK_LEN - 8..].copy_from_slice(&outer_bits.to_be_bytes());
        let mut oblocks = [oblock; LANES];
        let mut at = 0;
        while use_simd && at + LANES <= jobs.len() {
            for (l, ob) in oblocks.iter_mut().enumerate() {
                ob[..DIGEST_LEN].copy_from_slice(&inner[at + l]);
            }
            let mut states: [[u32; 8]; LANES] =
                core::array::from_fn(|l| jobs[at + l].key.outer_midstate());
            let refs: [&[u8]; LANES] = core::array::from_fn(|l| &oblocks[l][..]);
            sha256::compress8(&mut states, &refs);
            stats.compress_calls += 1;
            stats.lanes_filled += LANES as u64;
            for (l, state) in states.iter().enumerate() {
                digests[at + l] = digest_bytes(state);
            }
            at += LANES;
        }
        for j in at..jobs.len() {
            let mut state = jobs[j].key.outer_midstate();
            oblocks[0][..DIGEST_LEN].copy_from_slice(&inner[j]);
            sha256::compress(&mut state, &oblocks[0]);
            stats.compress_calls += 1;
            stats.lanes_filled += 1;
            digests[j] = digest_bytes(&state);
        }
        digests
    }
}

/// Serializes a chaining state to the big-endian digest bytes.
fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<HmacKey> {
        (0..n)
            .map(|i| HmacKey::new(format!("multiway-key-{i}").as_bytes()))
            .collect()
    }

    fn jobs_of<'a>(keys: &'a [HmacKey], payloads: &'a [Vec<u8>]) -> Vec<MacJob<'a>> {
        payloads
            .iter()
            .enumerate()
            .map(|(i, p)| MacJob {
                key: &keys[i % keys.len()],
                domain: if i % 3 == 0 {
                    b"drum.msg.auth"
                } else {
                    b"drum.frame.auth"
                },
                a: i as u64 * 17,
                b: i as u64 + 3,
                payload: p,
            })
            .collect()
    }

    fn scalar_tag(job: &MacJob<'_>) -> [u8; DIGEST_LEN] {
        job.key.mac_parts(&[
            job.domain,
            &job.a.to_be_bytes(),
            &job.b.to_be_bytes(),
            job.payload,
        ])
    }

    // Every batch size from empty through several full chunks plus a ragged
    // tail, with message lengths straddling every block boundary, must match
    // the scalar mac_parts path bit for bit — in both engine configurations.
    #[test]
    fn mac_many_matches_scalar_all_batch_shapes() {
        let keys = keys(5);
        let mut dispatched = MultiMac::lanes();
        let mut forced = MultiMac::scalar();
        for njobs in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 24] {
            let payloads: Vec<Vec<u8>> = (0..njobs)
                .map(|i| {
                    let len = [0, 1, 35, 63, 64, 65, 128, 200, 256][i % 9];
                    (0..len)
                        .map(|b| (b as u8).wrapping_mul(i as u8 + 1))
                        .collect()
                })
                .collect();
            let jobs = jobs_of(&keys, &payloads);
            let want: Vec<[u8; DIGEST_LEN]> = jobs.iter().map(scalar_tag).collect();
            assert_eq!(dispatched.mac_many(&jobs), &want[..], "simd njobs={njobs}");
            assert_eq!(forced.mac_many(&jobs), &want[..], "scalar njobs={njobs}");
        }
    }

    // Counter exactness on the uniform short-MAC flood shape: every MAC is
    // 2 blocks (inner tail + outer), so 512 jobs are 1024 blocks — 128
    // kernel calls 8-wide, 1024 single-lane.
    #[test]
    fn counters_exact_on_uniform_flood() {
        let keys = keys(1);
        let payloads: Vec<Vec<u8>> = (0..512).map(|i| vec![i as u8; 16]).collect();
        let jobs: Vec<MacJob<'_>> = payloads
            .iter()
            .map(|p| MacJob {
                key: &keys[0],
                domain: b"drum.msg.auth",
                a: 1,
                b: p[0] as u64,
                payload: p,
            })
            .collect();

        let mut forced = MultiMac::scalar();
        forced.mac_many(&jobs);
        let s = forced.take_stats();
        assert_eq!(s.compress_calls, 1024);
        assert_eq!(s.lanes_filled, 1024);
        assert_eq!(forced.take_stats(), LaneStats::default(), "take resets");

        let mut lanes = MultiMac::lanes();
        lanes.mac_many(&jobs);
        let s = lanes.take_stats();
        if simd_available() {
            assert_eq!(s.compress_calls, 128);
            assert_eq!(s.lanes_filled, 1024);
            assert!((s.fill_ratio() - 1.0).abs() < 1e-9);
        } else {
            assert_eq!(s.compress_calls, 1024);
        }
    }

    // A ragged batch (full chunks + a tail shorter than LANES) keeps exact
    // counts: tail jobs run single-lane, one call per block.
    #[test]
    fn counters_exact_on_ragged_batch() {
        let keys = keys(2);
        let payloads: Vec<Vec<u8>> = (0..11).map(|i| vec![0xab; 8 + i]).collect();
        let jobs = jobs_of(&keys, &payloads);
        let mut mm = MultiMac::lanes();
        mm.mac_many(&jobs);
        let s = mm.take_stats();
        if simd_available() {
            // Inner: lengths vary but all pad to one block — 1 chunk call +
            // 3 tail calls. Outer: 1 chunk call + 3 tail calls.
            assert_eq!(s.compress_calls, 8);
            assert_eq!(s.lanes_filled, 22);
        } else {
            assert_eq!(s.compress_calls, 22);
            assert_eq!(s.lanes_filled, 22);
        }
    }

    #[test]
    fn fill_ratio_degenerate_cases() {
        assert_eq!(LaneStats::default().fill_ratio(), 0.0);
        let mut s = LaneStats {
            compress_calls: 2,
            lanes_filled: 16,
        };
        assert!((s.fill_ratio() - 1.0).abs() < 1e-9);
        s.merge(LaneStats {
            compress_calls: 2,
            lanes_filled: 2,
        });
        assert_eq!(s.compress_calls, 4);
        assert_eq!(s.lanes_filled, 18);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", MultiMac::new()).is_empty());
    }
}
