//! Hot-path gates: exact, machine-independent counts of the work the
//! DoS-critical paths do, each against the mechanism it replaced, plus
//! allocation checks.
//!
//! Every row counts a quantity that is a constant of the code for a fixed
//! scenario, so a fresh run reproduces the checked-in `BENCH_hotpath.json`
//! on any machine and `bench_diff` can fail CI on any regression:
//!
//! * `recv_drain_flood_1024` — receive syscalls per datagram draining a
//!   1024-datagram flood, the victim's per-round ingest under attack:
//!   baseline = the per-datagram `recv_from` loop (one syscall per
//!   datagram plus the `WouldBlock` probe, kept in-tree as the
//!   [`drum_net::BatchRx`] fallback); current = `recvmmsg` batches.
//! * `send_fanout_mmsg` — send syscalls per datagram fanning one encoded
//!   message to 64 recipients: baseline = 64 `send_to` syscalls; current =
//!   one `sendmmsg` via [`drum_net::BatchTx`] with the encode-once repeat
//!   hint.
//!
//!   The kernel's per-datagram UDP work is identical in both arms, so the
//!   quantity batching eliminates — user/kernel crossings per attacker
//!   datagram, the denominator of the DoS argument in DESIGN.md §14 — is
//!   counted directly. Both are skipped on targets without the
//!   raw-syscall fast path.
//! * `mac_verify_flood_512` — full-MAC-verifies per datagram under an
//!   identical-fan-in flood (the replay adversary's wire pattern):
//!   baseline = one HMAC per datagram (the per-datagram path); current =
//!   one HMAC per unique `(source, seq, tag)` triple per round via the
//!   round-scoped `drum_crypto::batch::BatchVerifier`.
//! * `mac_multiway_flood_512` — SHA-256 compressions per 64-byte block of
//!   MAC work across a 512-unique-datagram flood: baseline = the
//!   one-block-at-a-time kernel; current = the 8-lane multi-buffer kernel
//!   behind [`drum_crypto::multiway`] (DESIGN.md §20). Skipped where the
//!   8-lane path does not exist.
//! * `sweep_span_8w`, `sweep_idle_per_job_8w` — the `drum-pool` rewrite
//!   of `run_experiment` (DESIGN.md §15): per-point `std::thread::scope`
//!   with contiguous `div_ceil(trials, workers)` chunks and a join barrier
//!   between points, against the pool's dynamic self-scheduling over one
//!   flat chunk set at 8 workers. Both schedules are modeled from each
//!   trial's deterministic `rounds_executed` cost: the **sweep span** (sum
//!   of per-point straggler chunks vs greedy list scheduling, floor 1.5×
//!   — a span is lower-bounded by the straggler chunk both must run) and
//!   the **idle worker-rounds per job** the barriers strand (floor 2×).
//! * `sim_shard_balance_1m`, `sim_merge_ops_1m` — the sharded stepper
//!   (DESIGN.md §18) at n = 10^6: the per-shard work split and the
//!   shard-count-dependent serial merge ops, pure functions of
//!   `(n, auto_shards(n))`.
//!
//! Two checks run beside the rows and print their counts; a failure
//! panics the binary. They use this binary's counting global allocator:
//!
//! * `buffer_purge_steady` — a warmed-up steady-state buffer round
//!   performs zero heap allocations, and the `max_age = 0` purge does no
//!   iteration work (DESIGN.md §19);
//! * `sim_round_sharded_1m` — a warmed-up sharded round at n = 10^6
//!   performs zero heap allocations.
//!
//! Emits `BENCH_hotpath.json` (override with `--out PATH`) and exits
//! non-zero when a speedup falls below its floor unless `--no-gate` is
//! given. `--only a,b` runs the named rows and checks; `--quick` shrinks
//! the sample count of the one informational wall-clock print
//! (`mac_multiway_flood_512`).

use std::time::{Duration, Instant};

use drum_core::bytes::Bytes;
use drum_core::digest::Digest;
use drum_core::ids::{MessageId, ProcessId};
use drum_core::message::{DataMessage, GossipMessage, PortRef};
use drum_core::ProtocolVariant;
use drum_crypto::auth;
use drum_crypto::keys::KeyStore;
use drum_metrics::json::Json;
use drum_pool::{schedule, Pool};
use drum_sim::config::SimConfig;
use drum_sim::model::{shard_range, SimState};
use drum_sim::runner::{auto_shards, chunk_size, run_trial};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Counting global allocator backing the zero-allocation checks. Every
/// heap operation that obtains memory bumps one relaxed atomic.
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Heap acquisitions (alloc/alloc_zeroed/realloc) since process start.
    pub fn total() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    pub struct Counting;

    // SAFETY: defers every operation to `System` unchanged; the counter
    // itself never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }
}

#[global_allocator]
static COUNTING_ALLOC: alloc_count::Counting = alloc_count::Counting;

/// One exact comparison: the baseline mechanism's count vs the current
/// one's, per unit of work.
struct Comparison {
    name: &'static str,
    seed_per_op: f64,
    current_per_op: f64,
    /// Gate floor on `seed_per_op / current_per_op`.
    floor: f64,
    /// What the baseline/current columns count, e.g. `sys/dgram`
    /// (syscalls per datagram) for the syscall-batching benches.
    unit: &'static str,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.seed_per_op / self.current_per_op
    }
}

/// Median ns/op of `routine`, batched so each sample spans a few ms.
fn measure_ns<R>(samples: usize, mut routine: impl FnMut() -> R) -> f64 {
    // Calibrate the batch size on a throwaway run.
    let mut batch = 1u64;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_micros(500) || batch >= 1 << 22 {
            break elapsed.as_secs_f64() / batch as f64;
        }
        batch *= 2;
    };
    let per_sample = ((4e-3 / per_iter.max(1e-12)) as u64).clamp(1, 1 << 22);
    let mut sample_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                std::hint::black_box(routine());
            }
            start.elapsed().as_secs_f64() * 1e9 / per_sample as f64
        })
        .collect();
    sample_ns.sort_by(f64::total_cmp);
    sample_ns[sample_ns.len() / 2]
}

/// A minimal fabricated pull-request on the wire — the adversary's
/// cheapest flood datagram, and thus the recv path's worst case.
fn flood_wire() -> Vec<u8> {
    drum_net::codec::encode(&GossipMessage::PullRequest {
        from: ProcessId(0xDEAD),
        digest: Digest::new(),
        reply_port: PortRef::Plain(1),
        nonce: 7,
    })
    .to_vec()
}

/// Datagrams per measured flood; refilled in waves of `WAVE` so the
/// receive queue never outgrows the socket buffer.
const FLOOD: usize = 1024;
const WAVE: usize = 64;

/// Floods `FLOOD` datagrams at `rx`'s socket in waves and returns the
/// receive syscalls `rx` spent draining them (its own instrumentation —
/// the same counter the runtime exports as `net.syscalls_recv`). The
/// refill goes through one batched sender in both arms so only the drain
/// strategy differs.
fn drain_flood_syscalls(rx: &mut drum_net::BatchRx, wire: &[u8]) -> f64 {
    use drum_net::transport::bind_ephemeral;
    use drum_net::BatchTx;

    let sender = bind_ephemeral().expect("bind sender");
    let receiver = bind_ephemeral().expect("bind receiver");
    let dest = receiver.local_addr().expect("receiver addr");
    let mut tx = BatchTx::forced(true);
    let mut scratch = vec![0u8; 2048];

    let before = rx.syscalls();
    for _ in 0..FLOOD / WAVE {
        for _ in 0..WAVE {
            tx.push(&sender, dest, wire, true);
        }
        let sent = tx.finish(&sender) as usize;
        let mut got = 0usize;
        let mut spins = 0u32;
        while got < sent && spins < 1_000_000 {
            let n = rx.drain_socket(&receiver, &mut scratch, |b| {
                std::hint::black_box(b);
            });
            got += n;
            if n == 0 {
                spins += 1;
            }
        }
    }
    (rx.syscalls() - before) as f64
}

fn bench_recv_drain() -> Comparison {
    use drum_net::BatchRx;

    let wire = flood_wire();
    // Seed drain: the per-datagram `recv_from` loop (one syscall per
    // datagram plus the final WouldBlock probe), exactly the seed
    // revision's `SocketPool::drain`/`drain_attackable` — preserved
    // in-tree as the BatchRx fallback.
    let mut rx_seed = BatchRx::forced(2048, false);
    let seed_per_op = drain_flood_syscalls(&mut rx_seed, &wire) / FLOOD as f64;
    // Current drain: `recvmmsg` in `sys::BATCH`-sized waves.
    let mut rx_cur = BatchRx::forced(2048, true);
    let current_per_op = drain_flood_syscalls(&mut rx_cur, &wire) / FLOOD as f64;

    Comparison {
        name: "recv_drain_flood_1024",
        seed_per_op,
        current_per_op,
        floor: 2.0,
        unit: "sys/dgram",
    }
}

const SEND_FANOUT: usize = 64;

fn bench_send_fanout() -> Comparison {
    use drum_net::transport::bind_ephemeral;
    use drum_net::{BatchRx, BatchTx};

    let wire = flood_wire();
    let sender = bind_ephemeral().expect("bind sender");
    let receiver = bind_ephemeral().expect("bind receiver");
    let dest = receiver.local_addr().expect("receiver addr");
    // Both arms empty the receive queue through the same (uncounted)
    // batched drain so the socket buffer never overflows.
    let mut rx = BatchRx::forced(2048, true);
    let mut scratch = vec![0u8; 2048];
    // Repeat the fan-out enough times for a stable per-datagram figure.
    const REPS: usize = 16;

    let mut run = |tx: &mut BatchTx| -> f64 {
        let before = tx.syscalls();
        for _ in 0..REPS {
            for _ in 0..SEND_FANOUT {
                // The encode-once repeat hint: same bytes, k recipients.
                tx.push(&sender, dest, &wire, true);
            }
            let sent = tx.finish(&sender) as usize;
            let mut got = 0usize;
            let mut spins = 0u32;
            while got < sent && spins < 1_000_000 {
                let n = rx.drain_socket(&receiver, &mut scratch, |b| {
                    std::hint::black_box(b);
                });
                got += n;
                if n == 0 {
                    spins += 1;
                }
            }
        }
        (tx.syscalls() - before) as f64 / (REPS * SEND_FANOUT) as f64
    };

    // Seed fan-out: one `send_to` syscall per recipient (the in-tree
    // fallback, which is the seed revision's send path).
    let mut tx_seed = BatchTx::forced(false);
    let seed_per_op = run(&mut tx_seed);
    // Current fan-out: one `sendmmsg` per `sys::BATCH` recipients.
    let mut tx_cur = BatchTx::forced(true);
    let current_per_op = run(&mut tx_cur);

    Comparison {
        name: "send_fanout_mmsg",
        seed_per_op,
        current_per_op,
        floor: 2.0,
        unit: "sys/dgram",
    }
}

/// Datagrams in the identical-fan-in MAC flood; fixed so the gated ratio
/// is the same exact constant on every machine.
const MAC_FLOOD: usize = 512;
/// Distinct `(source, seq, tag)` triples in that flood — the replay
/// adversary's corpus size.
const MAC_UNIQUE: usize = 8;

/// Full-HMAC verifications per datagram under an identical-fan-in flood —
/// the quantity batched verification exists to shrink (DESIGN.md §17).
///
/// The flood is the replay adversary's wire pattern: `MAC_UNIQUE` captured
/// authentic datagrams resent round-robin until `MAC_FLOOD` copies have
/// arrived within one victim round. The seed arm is the per-datagram path
/// (one HMAC per copy, by construction of `auth::verify`); the current arm
/// is the round-scoped [`drum_crypto::batch::BatchVerifier`], whose own
/// `full_verifies` counter reports the exact HMAC count. Both arms accept
/// every datagram — the equivalence tests pin that — so the comparison is
/// purely HMACs/datagram: exact, machine-independent, and gated.
fn bench_mac_verify_flood() -> Comparison {
    use drum_crypto::batch::BatchVerifier;

    let store = KeyStore::new(7);
    let key = store.register(1);
    let corpus: Vec<(u64, Vec<u8>, auth::AuthTag)> = (0..MAC_UNIQUE as u64)
        .map(|seq| {
            let payload = vec![0x5Au8; 16];
            let tag = auth::sign(&key, 1, seq, &payload);
            (seq, payload, tag)
        })
        .collect();

    // Seed arm: the per-datagram path pays one full HMAC per copy.
    let mut seed_verifies = 0u64;
    for i in 0..MAC_FLOOD {
        let (seq, payload, tag) = &corpus[i % MAC_UNIQUE];
        auth::verify(&store, 1, *seq, payload, tag).expect("authentic datagram");
        seed_verifies += 1;
    }

    // Current arm: one round's BatchVerifier over the same flood.
    let mut bv = BatchVerifier::new();
    bv.begin_round();
    for i in 0..MAC_FLOOD {
        let (seq, payload, tag) = &corpus[i % MAC_UNIQUE];
        bv.verify(&store, 1, *seq, payload, tag)
            .expect("authentic datagram");
    }

    Comparison {
        name: "mac_verify_flood_512",
        seed_per_op: seed_verifies as f64 / MAC_FLOOD as f64,
        current_per_op: bv.full_verifies() as f64 / MAC_FLOOD as f64,
        // Expected exactly MAC_FLOOD / MAC_UNIQUE = 64x; the floor guards
        // the mechanism (the cache actually collapses fan-in), not the
        // corpus size.
        floor: 2.0,
        unit: "verifies/dgram",
    }
}

/// Datagrams in the multiway-kernel flood. Every one is unique so no
/// replay caching applies and both arms compute all 512 HMACs; only the
/// kernel batching differs.
const MWAY_FLOOD: usize = 512;

/// SHA-256 compressions per 64-byte block of MAC work under a unique-
/// datagram verification flood — the quantity the 8-lane multi-buffer
/// kernel divides by its lane width (DESIGN.md §20).
///
/// Each datagram carries a 16-byte payload, so its domain-tagged MAC
/// message is 45 bytes: one padded inner tail block plus one outer block
/// per HMAC (the ipad/opad midstates are precomputed in the key
/// schedule), 1024 blocks across the flood in both arms. The scalar arm
/// pays one kernel call per block (1.0 calls/block, the seed shape); the
/// multiway arm retires eight blocks per call (0.125). Both counts come
/// from the engine's own [`drum_crypto::multiway::LaneStats`], so the
/// gated ratio is exact and machine-independent wherever the 8-lane path
/// exists; like the syscall benches it is skipped where it doesn't. The
/// lane arm is the forced
/// [`drum_crypto::MultiMac::lanes`] engine: it pins the kernel mechanism
/// even on SHA-NI hosts, where product dispatch (`simd_preferred`)
/// deliberately stays on the faster single-block unit and the printed
/// wall clock will favour the scalar arm. Wall clock is informational
/// either way; lane fill is hard-asserted at ≥ 7/8.
fn bench_mac_multiway_flood(samples: usize) -> Option<Comparison> {
    use drum_crypto::multiway::{simd_available, simd_preferred, MultiMac};

    if !simd_available() {
        println!("  (skipping mac_multiway_flood_512: 8-lane SHA-256 path unavailable)");
        return None;
    }

    let store = KeyStore::new(7);
    let keys: Vec<_> = (0..8u64).map(|s| store.register(s)).collect();
    let hmac_keys: Vec<_> = keys.iter().map(|k| k.hmac_key()).collect();
    let payloads: Vec<Vec<u8>> = (0..MWAY_FLOOD).map(|i| vec![i as u8; 16]).collect();
    let jobs: Vec<_> = (0..MWAY_FLOOD)
        .map(|i| auth::msg_job(&hmac_keys[i % 8], (i % 8) as u64, i as u64, &payloads[i]))
        .collect();
    // 45-byte MAC messages: one inner tail block + one outer block each.
    let blocks = (2 * MWAY_FLOOD) as f64;

    let mut scalar = MultiMac::scalar();
    let scalar_tags: Vec<[u8; 32]> = scalar.mac_many(&jobs).to_vec();
    let scalar_stats = scalar.take_stats();
    let scalar_ns = measure_ns(samples, || {
        std::hint::black_box(scalar.mac_many(&jobs).len());
    }) / MWAY_FLOOD as f64;

    let mut simd = MultiMac::lanes();
    let simd_tags: Vec<[u8; 32]> = simd.mac_many(&jobs).to_vec();
    let simd_stats = simd.take_stats();
    let simd_ns = measure_ns(samples, || {
        std::hint::black_box(simd.mac_many(&jobs).len());
    }) / MWAY_FLOOD as f64;

    // The ablation invariant the equivalence tests pin cluster-wide, held
    // here at the kernel boundary: identical tags, identical lane totals.
    assert_eq!(
        scalar_tags, simd_tags,
        "multiway lane transposition changed a MAC tag"
    );
    for (i, tags) in scalar_tags.iter().enumerate() {
        assert_eq!(
            *tags,
            auth::sign(&keys[i % 8], (i % 8) as u64, i as u64, &payloads[i]).0,
            "multiway MAC diverged from the one-at-a-time signer"
        );
    }
    assert_eq!(scalar_stats.lanes_filled as f64, blocks);
    assert_eq!(simd_stats.lanes_filled as f64, blocks);
    assert!(
        simd_stats.fill_ratio() >= 7.0 / 8.0,
        "uniform 512-datagram flood must fill ≥ 7/8 of SIMD lanes, got {:.3}",
        simd_stats.fill_ratio()
    );
    println!(
        "  mac_multiway_flood_512: lane fill {:.3}, wall {:.1} -> {:.1} ns/MAC \
         (dispatch prefers {})",
        simd_stats.fill_ratio(),
        scalar_ns,
        simd_ns,
        if simd_preferred() {
            "the 8-lane kernel"
        } else {
            "single-block hardware"
        }
    );

    Some(Comparison {
        name: "mac_multiway_flood_512",
        seed_per_op: scalar_stats.compress_calls as f64 / blocks,
        current_per_op: simd_stats.compress_calls as f64 / blocks,
        // Expected exactly LANES = 8x; the floor guards the mechanism
        // (blocks actually coalesce into multi-lane calls), not the
        // exact lane width.
        floor: 4.0,
        unit: "compress-calls/block",
    })
}

/// Steady-state buffer-round parameters: arrivals per round, retention
/// age (§8.2's 10 rounds), seen window, and per-partner selection cap
/// (§8.2's 80).
const BUF_PER_ROUND: usize = 64;
const BUF_MAX_AGE: u64 = 10;
const BUF_SEEN_WINDOW: u64 = 40;
const BUF_SELECT: usize = 80;

/// Check `buffer_purge_steady`: one steady-state buffer round — insert
/// the round's arrivals, purge, age the survivors, select a partner's
/// missing set — on the age-bucketed ring (DESIGN.md §19). A warmed-up
/// round must perform ZERO heap allocations (this binary's counting
/// allocator; recycled buckets, reused index capacity, reused selection
/// scratch), and the `max_age = 0` path must do no purge iteration work
/// at all.
fn check_buffer_steady() {
    use drum_core::buffer::MessageBuffer;
    use drum_core::ids::Round;

    const WARM: u64 = 60; // past the seen window: the ring is steady
    let total = WARM + 2;

    // Unique pre-built messages: payload allocation happens here, outside
    // the checked rounds; inserting a clone only bumps a refcount.
    let msgs: Vec<DataMessage> = (0..total * BUF_PER_ROUND as u64)
        .map(|seq| DataMessage {
            id: MessageId::new(ProcessId(1), seq),
            hops: 0,
            payload: Bytes::from(vec![0x5Au8; 32]),
            auth: auth::AuthTag::zero(),
        })
        .collect();
    let their = Digest::new();

    let mut buf = MessageBuffer::with_seen_window(BUF_MAX_AGE, BUF_SEEN_WINDOW);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut scratch: Vec<DataMessage> = Vec::new();
    let mut run_round = |r: u64| {
        for m in &msgs[(r as usize * BUF_PER_ROUND)..(r as usize + 1) * BUF_PER_ROUND] {
            buf.insert(m.clone(), Round(r));
        }
        buf.purge(Round(r));
        buf.increment_hops();
        buf.select_missing_into(&their, BUF_SELECT, &mut rng, &mut scratch);
        std::hint::black_box(scratch.len());
    };
    for r in 0..WARM {
        run_round(r);
    }
    let before = alloc_count::total();
    for r in WARM..total {
        run_round(r);
    }
    let allocs = alloc_count::total() - before;
    println!("  check buffer_purge_steady: {allocs} heap allocations across 2 warmed-up rounds");
    assert_eq!(
        allocs, 0,
        "steady-state buffer round allocated {allocs} times; \
         ring buckets, index and selection scratch must be grow-once"
    );

    // The max_age = 0 ("never purge") fast path must early-return, not
    // scan-and-keep: zero messages visited no matter the buffer size.
    let mut never = MessageBuffer::new(0);
    for (i, m) in msgs.iter().take(1_000).enumerate() {
        never.insert(m.clone(), Round(i as u64));
    }
    for r in 0..64u64 {
        assert_eq!(never.purge(Round(1_000_000 + r)), 0);
    }
    println!(
        "  check buffer_purge_steady: max_age = 0 purge work {}",
        never.purge_work()
    );
    assert_eq!(
        never.purge_work(),
        0,
        "max_age = 0 purge did iteration work"
    );
}

/// Workers for the sweep-scheduling comparison. Fixed (not
/// `available_parallelism`) so the modeled spans are identical on every
/// machine.
const SWEEP_WORKERS: usize = 8;

/// The fig3a-style attacked sweep: cheap no-attack baselines next to
/// heavy-tailed attacked points (Pull under flood is geometric in the
/// source-escape round), the mix whose stragglers the seed scheduler
/// handles worst.
fn sweep_mix(xs: &[f64], n: usize) -> Vec<SimConfig> {
    xs.iter()
        .flat_map(|&x| {
            [
                ProtocolVariant::Drum,
                ProtocolVariant::Push,
                ProtocolVariant::Pull,
            ]
            .into_iter()
            .map(move |p| {
                if x == 0.0 {
                    SimConfig::baseline(p, n)
                } else {
                    SimConfig::paper_attack(p, n, x)
                }
            })
        })
        .collect()
}

/// The modeled scheduling comparison (exact, machine-independent).
///
/// The scenario is fixed in both quick and full mode: `run_trial` is
/// deterministic, so for a fixed (mix, trials, seed) the spans — and
/// therefore the gated ratios — are exact constants on every machine.
/// 12 trials per point is the CI smoke trial count, the regime where the
/// seed's per-point join barriers waste the most: `div_ceil(12, 8) = 2`
/// leaves two of eight workers idle through every point even before the
/// straggler chunk runs long.
fn bench_sweep_schedule() -> Vec<Comparison> {
    let trials = 12;
    let base_seed = 20040628;
    let cfgs = sweep_mix(&[0.0, 16.0, 32.0, 64.0, 96.0, 128.0], 120);

    // Deterministic per-trial costs in executed rounds — the same costs
    // both schedulers pay, measured once.
    let costs_per_cfg: Vec<Vec<u64>> = cfgs
        .iter()
        .map(|cfg| {
            (0..trials)
                .map(|i| u64::from(run_trial(cfg, base_seed + i as u64, 0).rounds_executed))
                .collect()
        })
        .collect();

    // Seed: the sweep takes the sum of per-point straggler chunks.
    let static_span: u64 = costs_per_cfg
        .iter()
        .map(|costs| schedule::static_point_makespan(costs, SWEEP_WORKERS))
        .sum();
    // Current: greedy list scheduling over the runner's flat chunk set.
    let chunk = chunk_size(trials);
    let flat_jobs: Vec<u64> = costs_per_cfg
        .iter()
        .flat_map(|costs| schedule::chunk_sums(costs, chunk))
        .collect();
    let dynamic_span = schedule::greedy_makespan(&flat_jobs, SWEEP_WORKERS);

    let jobs = flat_jobs.len() as f64;
    let static_idle = schedule::idle_time(static_span, SWEEP_WORKERS, &flat_jobs) as f64 / jobs;
    let dynamic_idle = schedule::idle_time(dynamic_span, SWEEP_WORKERS, &flat_jobs) as f64 / jobs;

    vec![
        Comparison {
            name: "sweep_span_8w",
            seed_per_op: static_span as f64,
            current_per_op: dynamic_span as f64,
            floor: 1.5,
            unit: "rounds",
        },
        Comparison {
            name: "sweep_idle_per_job_8w",
            seed_per_op: static_idle,
            current_per_op: dynamic_idle,
            floor: 2.0,
            unit: "idle/job",
        },
    ]
}

/// Members in the sharded-stepper scenario: the tentpole scale, two
/// orders of magnitude past the paper's n = 1000 simulations.
const SIM_1M: usize = 1_000_000;

/// The million-member flood scenario (the `ext_scale` figure's heaviest
/// point): Drum, alpha = 0.1, x = 72 — the Figure 7 setting.
fn sim_1m_cfg() -> SimConfig {
    SimConfig::attack_alpha(ProtocolVariant::Drum, SIM_1M, 0.1, 72.0)
}

/// Modeled shard/merge metrics of one sharded round at n = 10^6 — pure
/// functions of `(n, auto_shards(n))`, so they are the same exact
/// constants in --quick and full mode and on every machine (bench_diff
/// compares them across runs).
///
/// * `sim_shard_balance_1m` — sender work per shard is proportional to
///   its contiguous range, so the split efficiency is
///   `n / (shards * max_range)`: 1.0 means no shard waits on a longer
///   neighbour. `shard_range` differs by at most one process, so the
///   gate pins near-perfect balance.
/// * `sim_merge_ops_1m` — the serial merge word-ops per round that grow
///   with the shard count: OR-ing each shard's `new_m` fragment
///   (`shards * ceil(n/64)` word ops) plus the per-shard fake-counter
///   sums. Gated against a budget of one op per member per round: the
///   floor proves the `auto_shards` cap keeps the shard-count-dependent
///   serial section at O(n/4) word ops, so adding shards can't push the
///   merge toward an O(n)-per-shard rescan. (The CSR pull-request merge
///   is shard-count-independent — O(requests) total regardless of the
///   split — so it is not part of this gate.)
fn bench_sim_sharded_model() -> Vec<Comparison> {
    let shards = auto_shards(SIM_1M);
    let max_range = (0..shards)
        .map(|s| {
            let (lo, hi) = shard_range(SIM_1M, shards, s);
            hi - lo
        })
        .max()
        .expect("at least one shard");
    let merge_ops = shards * SIM_1M.div_ceil(64) + 2 * shards;

    vec![
        Comparison {
            name: "sim_shard_balance_1m",
            seed_per_op: SIM_1M as f64,
            current_per_op: (shards * max_range) as f64,
            floor: 0.99,
            unit: "split",
        },
        Comparison {
            name: "sim_merge_ops_1m",
            seed_per_op: SIM_1M as f64,
            current_per_op: merge_ops as f64,
            floor: 2.0,
            unit: "merge-ops",
        },
    ]
}

/// Check `sim_round_sharded_1m`: after the first round has sized the
/// grow-once scratch, a sharded round at n = 10^6 must perform ZERO heap
/// allocations. Measured on a 1-thread pool, whose inline `Pool::run`
/// path allocates nothing itself, so the counter sees exactly the
/// stepper's own behaviour. (On a multi-thread pool the only per-round
/// allocations are the pool's own batch handles — O(1) per `Pool::run`,
/// not O(n).)
fn check_sim_round_sharded_1m() {
    let pool = Pool::new(1);
    let shards = auto_shards(SIM_1M);
    let mut state = SimState::new(sim_1m_cfg());
    state.step_sharded(11, shards, &pool);
    let before = alloc_count::total();
    state.step_sharded(12, shards, &pool);
    state.step_sharded(13, shards, &pool);
    let allocs = alloc_count::total() - before;
    println!("  check sim_round_sharded_1m: {allocs} heap allocations across 2 warmed-up rounds");
    assert_eq!(
        allocs, 0,
        "sharded stepper allocated {allocs} times in warmed-up rounds; \
         per-round scratch must be grow-once"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = !args.iter().any(|a| a == "--no-gate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    // `--only a,b`: run just the named benches and checks (exact names as
    // printed/emitted). Lets verify.sh smoke the crypto gates without
    // paying for the million-member rounds.
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(str::to_string).collect());
    let want = |name: &str| only.as_ref().is_none_or(|o| o.iter().any(|n| n == name));
    let samples = if quick { 7 } else { 21 };

    println!("=== hot-path benchmarks (baseline mechanism vs current) ===");
    println!(
        "mode: {} | out: {out_path}\n",
        if quick { "quick" } else { "full" }
    );

    let mut results = Vec::new();
    let mut checks = 0;
    if ["sim_shard_balance_1m", "sim_merge_ops_1m"]
        .iter()
        .any(|n| want(n))
    {
        results.extend(
            bench_sim_sharded_model()
                .into_iter()
                .filter(|c| want(c.name)),
        );
    }
    if want("sim_round_sharded_1m") {
        check_sim_round_sharded_1m();
        checks += 1;
    }
    if want("mac_verify_flood_512") {
        results.push(bench_mac_verify_flood());
    }
    if want("mac_multiway_flood_512") {
        results.extend(bench_mac_multiway_flood(samples));
    }
    if want("buffer_purge_steady") {
        check_buffer_steady();
        checks += 1;
    }
    if ["sweep_span_8w", "sweep_idle_per_job_8w"]
        .iter()
        .any(|n| want(n))
    {
        results.extend(bench_sweep_schedule().into_iter().filter(|c| want(c.name)));
    }
    if drum_net::sys::available() {
        if want("recv_drain_flood_1024") {
            results.push(bench_recv_drain());
        }
        if want("send_fanout_mmsg") {
            results.push(bench_send_fanout());
        }
    } else {
        println!(
            "  (skipping syscall-batching benches: no recvmmsg/sendmmsg fast path on this target)"
        );
    }
    if results.is_empty() && checks == 0 {
        eprintln!("--only matched no benchmarks");
        std::process::exit(2);
    }

    println!(
        "  {:<24} {:>12} {:>12} {:>10} {:>9}  gate",
        "benchmark", "baseline", "now", "unit", "speedup"
    );
    let mut failed = Vec::new();
    for r in &results {
        let ok = r.speedup() >= r.floor;
        println!(
            "  {:<24} {:>12.4} {:>12.4} {:>10} {:>8.2}x  {}",
            r.name,
            r.seed_per_op,
            r.current_per_op,
            r.unit,
            r.speedup(),
            if ok {
                "ok".to_string()
            } else {
                format!("FAIL (< {:.2}x)", r.floor)
            }
        );
        if !ok {
            failed.push(r.name);
        }
    }

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("hotpath".into())),
        (
            "mode".into(),
            Json::Str(if quick { "quick" } else { "full" }.into()),
        ),
        (
            "results".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(r.name.into())),
                            ("seed_per_op".into(), Json::num(r.seed_per_op)),
                            ("current_per_op".into(), Json::num(r.current_per_op)),
                            ("unit".into(), Json::Str(r.unit.into())),
                            ("speedup".into(), Json::num(r.speedup())),
                            ("gate_floor".into(), Json::num(r.floor)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench json");
    println!("\nwrote {out_path}");

    if gate && !failed.is_empty() {
        eprintln!("bench gate FAILED: {failed:?}");
        std::process::exit(1);
    }
}
