//! The round-synchronized simulation model (§7 and Appendix C of the
//! paper), tracking the propagation of a single message `M`.
//!
//! Model recap:
//!
//! * rounds are synchronized; every correct process gossips every round
//!   (buffers always hold *some* messages, so contention for reception
//!   slots exists whether or not a process holds `M`);
//! * push is modeled without push-offers, as in the paper's analysis and
//!   simulations;
//! * each transmission is independently lost with probability `loss`;
//! * a process accepts at most `F_in-push` push messages and `F_in-pull`
//!   pull-requests per round, chosen uniformly among valid + fabricated
//!   arrivals — this is where the DoS attack bites;
//! * pull-replies are always received thanks to random ports, except in the
//!   no-random-ports ablation where the adversary splits its pull budget
//!   between the request and reply ports (Figure 12(a));
//! * crashed and malicious processes transmit nothing and drop everything
//!   sent to them (correct processes still waste fan-out on them).
//!
//! # The stepper
//!
//! [`SimState::step_sharded`] is the intra-trial parallel stepper that
//! makes n = 10^6 trials practical: every `(trial_seed, round, phase,
//! process)` tuple owns a counter-derived [`SmallRng`] stream
//! ([`SmallRng::from_key`]), so a shard of the process range draws
//! independently of its neighbours and the result is a pure
//! function of the key material — byte-identical across worker counts
//! *and* shard counts. Per-shard partials (`u16` tallies, a `new_m`
//! bitset fragment, a pull-request list) are merged in ascending shard
//! order: tallies by saturating sums, requests by a CSR count/prefix/fill
//! pass that preserves ascending requester order per target, fragments by
//! word-level OR ([`BitSet::or_with`]).

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rand::rngs::{key_fold, SmallRng};
use rand::SeedableRng;

use drum_core::BitSet;
use drum_pool::Pool;
use drum_trace::{trace_event, Timestamp, Tracer};

use crate::adversary::{self, TargetView};
use crate::config::SimConfig;
use crate::sampling::{
    accepted_valid, any_interesting, binomial, randomized_round, sample_targets, sample_targets_any,
};

/// Phase tags for the counter-derived stream keys. Tag lives in the top
/// byte, process id in the low 56 bits: `key_fold(round_key, tag<<56 | p)`.
const STREAM_CONTROL: u64 = 1;
const STREAM_PUSH_SEND: u64 = 2;
const STREAM_PUSH_ACCEPT: u64 = 3;
const STREAM_PULL_REQUEST: u64 = 4;
const STREAM_PULL_SERVE: u64 = 5;
const STREAM_REPLY_ACCEPT: u64 = 6;

/// The per-`(phase, process)` stream for a round whose common prefix
/// `(trial_seed, round)` was folded into `round_key` once.
#[inline]
fn stream(round_key: u64, tag: u64, process: usize) -> SmallRng {
    debug_assert!(process < (1usize << 56));
    SmallRng::seed_from_u64(key_fold(round_key, (tag << 56) | process as u64))
}

/// Half-open range of processes owned by shard `s` of `shards` over `0..n`
/// (contiguous, ascending, difference in size at most one).
#[inline]
pub fn shard_range(n: usize, shards: usize, s: usize) -> (usize, usize) {
    (s * n / shards, (s + 1) * n / shards)
}

#[inline]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[inline]
fn lock_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

#[inline]
fn read<T>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(PoisonError::into_inner)
}

#[inline]
fn write<T>(m: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(PoisonError::into_inner)
}

#[inline]
fn rw_mut<T>(m: &mut RwLock<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Read-only per-round parameters shared by every shard.
#[derive(Clone, Copy)]
struct RoundCtx {
    round_key: u64,
    /// `1 - loss`: per-transmission survival probability.
    ok: f64,
    x_push: f64,
    /// Pull budget on the request port (full `x_pull` with random ports,
    /// half without — §9).
    x_req: f64,
    /// Pull budget on the well-known reply port (0 with random ports).
    x_reply: f64,
}

/// Sender-side partial for one shard: what its senders pushed (per-target
/// tallies) and requested (pull-request list). Grow-once scratch, reused
/// across rounds and trials.
#[derive(Debug)]
struct APart {
    /// Valid push arrivals per target (`u16` saturating; a target would
    /// need 65 535 simultaneous senders to clip, far beyond any scenario).
    push_valid: Vec<u16>,
    push_with_m: Vec<u16>,
    /// `(target, requester)` pull-request pairs in ascending requester
    /// order (the sender loop is ascending and targets are distinct per
    /// sender).
    requests: Vec<(u32, u32)>,
    /// Fan-out sampling scratch.
    targets: Vec<usize>,
}

/// Receiver-side partial for one shard: its targets' acceptance outcomes.
#[derive(Debug)]
struct BPart {
    /// Processes that learned `M` this round, discovered by this shard
    /// (push-accept for owned targets; pull-serve may set *any* requester's
    /// bit, which is why fragments are full-length and OR-merged).
    new_m: BitSet,
    /// Valid pull-replies per requester on the well-known port
    /// (no-random-ports ablation only).
    reply_valid: Vec<u16>,
    reply_with_m: Vec<u16>,
    /// Per-target serve scratch: the CSR request segment being shuffled.
    serve_buf: Vec<u32>,
    /// Push tallies for the owned target range, summed over every sender
    /// shard at the top of phase B (saturating adds are order-independent,
    /// so the merge is partition-independent). Grow-once, range-local.
    sum_valid: Vec<u16>,
    sum_with_m: Vec<u16>,
    fakes_push: u64,
    fakes_pull: u64,
}

/// Mutable state of one simulated trial.
///
/// Struct-of-arrays layout: the per-member hot state is two bits
/// (`has_m`, `attacked`) plus `u16` phase tallies, so a 10^6-member trial
/// keeps its whole per-round working set in a few megabytes of cache
/// instead of the pointer-heavy per-member records a naive AoS would use.
#[derive(Debug)]
pub struct SimState {
    cfg: SimConfig,
    /// Whether process `i` holds `M` — word-packed so the per-round
    /// delivery bookkeeping runs on popcount/trailing-zeros word ops.
    has_m: BitSet,
    /// Whether process `i` is currently under attack (dynamic when the
    /// adversary rotates its target set). One bit per member; the old
    /// `Vec<bool>` spent a byte.
    attacked: BitSet,
    /// Current round number (0 = initial state, only the source holds `M`).
    round: u32,
    /// Structured-event emitter; round-stamped, so fixed-seed runs trace
    /// byte-identically (the golden-trace CI oracle).
    tracer: Tracer,
    /// Incrementally maintained `correct_with_m` — the per-round trace event
    /// and the experiment loop both query it every round, so a full O(n)
    /// scan per query would dominate large-n sweeps.
    n_correct_with_m: usize,
    /// Incrementally maintained `attacked_with_m`; rebuilt on target
    /// rotation, bumped at delivery time otherwise.
    n_attacked_with_m: usize,
    /// Per-target per-round channel rates `(push, pull)` of the configured
    /// adversary ([`adversary::rates`]). Constant for a trial's lifetime,
    /// so computed once.
    adv_x_push: f64,
    adv_x_pull: f64,

    /// Processes that learned `M` this round (the merged shard fragments).
    new_m: BitSet,
    /// Target-rotation pick buffer, reused across rounds.
    rotation_picks: Vec<usize>,

    // Per-shard scratch, sized lazily on the first `step_sharded()`.
    // Sender partials live behind `RwLock`: phase A writes each shard's
    // part exclusively; phase B workers then read *all* parts
    // concurrently (shared read locks) without collecting a per-round
    // reference vector — the stepper stays allocation-free per round.
    a_parts: Vec<RwLock<APart>>,
    b_parts: Vec<Mutex<BPart>>,
    csr_offsets: Vec<u32>,
    csr_cursor: Vec<u32>,
    csr_data: Vec<u32>,
    reply_merge_valid: Vec<u16>,
    reply_merge_with_m: Vec<u16>,
}

impl SimState {
    /// Initializes a trial: the source (process 0) holds `M`, nobody else.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid simulation config");
        let n = cfg.n;
        let mut attacked = BitSet::new(n);
        for i in 0..cfg.attacked() {
            attacked.set(i);
        }
        let mut has_m = BitSet::new(n);
        has_m.set(0);
        // Only the source holds `M` initially; under the fixed role layout
        // it is correct (validate() guarantees correct() >= 1) and attacked
        // exactly when an attack is configured.
        let n_correct_with_m = usize::from(cfg.correct() > 0);
        let n_attacked_with_m = usize::from(cfg.attacked() > 0);
        let (adv_x_push, adv_x_pull) = adversary::rates(&cfg);
        SimState {
            cfg,
            has_m,
            attacked,
            round: 0,
            tracer: Tracer::disabled(),
            n_correct_with_m,
            n_attacked_with_m,
            adv_x_push,
            adv_x_pull,
            new_m: BitSet::new(n),
            rotation_picks: Vec::new(),
            a_parts: Vec::new(),
            b_parts: Vec::new(),
            csr_offsets: Vec::new(),
            csr_cursor: Vec::new(),
            csr_data: Vec::new(),
            reply_merge_valid: Vec::new(),
            reply_merge_with_m: Vec::new(),
        }
    }

    /// Rewinds to the round-0 state (source holds `M`, static targets)
    /// while keeping every scratch buffer's capacity —
    /// the cross-trial reuse hook that makes a 10^6-member sweep allocate
    /// its working set once instead of once per trial.
    pub fn reset(&mut self) {
        self.has_m.clear_all();
        self.has_m.set(0);
        self.attacked.clear_all();
        for i in 0..self.cfg.attacked() {
            self.attacked.set(i);
        }
        self.round = 0;
        self.tracer = Tracer::disabled();
        self.n_correct_with_m = usize::from(self.cfg.correct() > 0);
        self.n_attacked_with_m = usize::from(self.cfg.attacked() > 0);
    }

    /// The scenario being simulated.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Attaches a tracer and emits a `sim.start` scenario event. Tracing
    /// never touches the RNG, so traced and untraced runs of the same seed
    /// evolve identically.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        trace_event!(
            self.tracer,
            "sim",
            "sim.start",
            Timestamp::Round(0),
            n = self.cfg.n,
            protocol = self.cfg.protocol.to_string(),
            malicious = self.cfg.malicious,
            crashed = self.cfg.crashed,
            attacked = self.cfg.attacked(),
            x_per_round = self.cfg.attack.map_or(0.0, |a| a.x_per_round),
            random_ports = self.cfg.random_ports,
            adversary = self.cfg.adversary().name()
        );
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current round number.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Whether process `i` currently holds `M`.
    pub fn has_m(&self, i: usize) -> bool {
        self.has_m.get(i)
    }

    /// Whether process `i` is currently under attack. Unlike the static
    /// [`SimConfig::role_of`], this tracks adversarial target rotation.
    pub fn is_attacked(&self, i: usize) -> bool {
        self.attacked.get(i)
    }

    /// Re-draws the attacked set uniformly among correct processes
    /// (rotating-adversary extension). The pick buffer is reused, so
    /// rotation allocates nothing after the first call.
    fn rotate_targets(&mut self, rng: &mut SmallRng) {
        let k = self.cfg.attacked();
        let mut picked = core::mem::take(&mut self.rotation_picks);
        sample_targets_any(self.cfg.correct(), k, rng, &mut picked);
        self.apply_targets(&picked);
        self.rotation_picks = picked;
    }

    /// Replaces the attacked set with `picked` (correct process ids) and
    /// rebuilds the incremental attacked-with-`M` counter.
    fn apply_targets(&mut self, picked: &[usize]) {
        self.attacked.clear_all();
        self.n_attacked_with_m = 0;
        for &target in picked {
            self.attacked.set(target);
            if self.has_m.get(target) {
                self.n_attacked_with_m += 1;
            }
        }
    }

    /// Number of correct processes currently holding `M`.
    pub fn correct_with_m(&self) -> usize {
        debug_assert_eq!(
            self.n_correct_with_m,
            self.has_m.count_range(0, self.cfg.correct())
        );
        self.n_correct_with_m
    }

    /// Number of attacked correct processes holding `M`.
    pub fn attacked_with_m(&self) -> usize {
        debug_assert_eq!(
            self.n_attacked_with_m,
            (0..self.cfg.n)
                .filter(|&i| self.is_attacked(i) && self.has_m.get(i))
                .count()
        );
        self.n_attacked_with_m
    }

    /// Number of non-attacked correct processes holding `M`.
    pub fn unattacked_with_m(&self) -> usize {
        self.correct_with_m() - self.attacked_with_m()
    }

    /// Fraction of correct processes holding `M` (0.0 for the degenerate
    /// all-crashed/all-malicious population, not NaN).
    pub fn fraction_with_m(&self) -> f64 {
        self.cfg.fraction_of_correct(self.correct_with_m())
    }

    /// Top-of-round control work: target rotation and adaptive-strategy
    /// retargeting. All randomness comes from `rng`, the round's dedicated
    /// control stream.
    fn control_phase(&mut self, rng: &mut SmallRng) {
        if let Some(k) = self.cfg.attack.and_then(|a| a.rotate_every) {
            if k > 0 && self.round.is_multiple_of(k) {
                self.rotate_targets(rng);
                trace_event!(
                    self.tracer,
                    "sim",
                    "attack.rotate",
                    Timestamp::Round(u64::from(self.round)),
                    targets = self.cfg.attacked()
                );
            }
        }

        // Adaptive-strategy targeting. `Static` (the paper's model and the
        // default) always declines, drawing nothing from the RNG, so static
        // scenarios keep their pre-strategy random stream.
        if let Some(attack) = self.cfg.attack {
            let k = self.cfg.attacked();
            let mut picked = core::mem::take(&mut self.rotation_picks);
            let changed = adversary::retarget(
                attack.strategy,
                &TargetView {
                    round: self.round,
                    k,
                    n_correct: self.cfg.correct(),
                    has_m: &self.has_m,
                },
                rng,
                &mut picked,
            );
            if changed {
                self.apply_targets(&picked);
                trace_event!(
                    self.tracer,
                    "sim",
                    "attack.retarget",
                    Timestamp::Round(u64::from(self.round)),
                    strategy = attack.strategy.name(),
                    targets = picked.len()
                );
            }
            self.rotation_picks = picked;
        }
    }

    /// Simultaneous state update: messages received this round are
    /// forwarded starting next round. Word-level popcount gives the
    /// delivery total; the per-delivery walk visits set bits only, in
    /// ascending order (trace byte-stability).
    fn deliver_and_trace(&mut self, fakes_push_total: u64, fakes_pull_total: u64) {
        let newly = self.new_m.count_ones() as u64;
        let new_m = core::mem::replace(&mut self.new_m, BitSet::new(0));
        for i in new_m.iter_ones() {
            self.has_m.set(i);
            // Delivery-time counter maintenance; only correct processes
            // ever have `new_m` set.
            self.n_correct_with_m += 1;
            if self.is_attacked(i) {
                self.n_attacked_with_m += 1;
            }
            trace_event!(
                self.tracer,
                "sim",
                "deliver",
                Timestamp::Round(u64::from(self.round)),
                process = i,
                attacked = self.is_attacked(i)
            );
        }
        self.new_m = new_m;
        trace_event!(
            self.tracer,
            "sim",
            "round",
            Timestamp::Round(u64::from(self.round)),
            with_m = self.correct_with_m(),
            new = newly,
            attacked_with_m = self.attacked_with_m(),
            fakes_push = fakes_push_total,
            fakes_pull = fakes_pull_total
        );
    }

    fn ensure_sharded_scratch(&mut self, shards: usize) {
        let n = self.cfg.n;
        let n_correct = self.cfg.correct();
        let view_push = self.cfg.view_push();
        let view_pull = self.cfg.view_pull();
        let tally_len = if view_push > 0 { n_correct } else { 0 };
        let reply_len = if !self.cfg.random_ports && view_pull > 0 {
            n_correct
        } else {
            0
        };
        if self.a_parts.len() != shards {
            self.a_parts = (0..shards)
                .map(|s| {
                    let (lo, hi) = shard_range(n, shards, s);
                    // Exact per-round upper bound (loss only removes
                    // requests), so the list never regrows mid-trial.
                    let req_cap = (hi.min(n_correct).saturating_sub(lo)) * view_pull;
                    RwLock::new(APart {
                        push_valid: vec![0; tally_len],
                        push_with_m: vec![0; tally_len],
                        requests: Vec::with_capacity(req_cap),
                        targets: Vec::new(),
                    })
                })
                .collect();
            self.b_parts = (0..shards)
                .map(|_| {
                    Mutex::new(BPart {
                        new_m: BitSet::new(n),
                        reply_valid: vec![0; reply_len],
                        reply_with_m: vec![0; reply_len],
                        // One target's requesters: mean `view_pull`, so 64
                        // covers the per-round max at any n without ever
                        // regrowing mid-trial (the zero-alloc gate).
                        serve_buf: Vec::with_capacity(64),
                        sum_valid: Vec::new(),
                        sum_with_m: Vec::new(),
                        fakes_push: 0,
                        fakes_pull: 0,
                    })
                })
                .collect();
        }
        if view_pull > 0 && self.csr_offsets.capacity() < n_correct + 1 {
            // Grow-once CSR scratch: the request total per round is bounded
            // by `n_correct * view_pull`, so one reservation covers every
            // round of every trial at this configuration.
            self.csr_offsets = Vec::with_capacity(n_correct + 1);
            self.csr_cursor = Vec::with_capacity(n_correct);
            self.csr_data = Vec::with_capacity(n_correct * view_pull);
        }
    }

    /// Sender-side phase for one shard: push transmissions and pull
    /// requests for the owned sender range `lo..hi`, each sender drawing
    /// from its own counter-derived streams.
    fn phase_a(&self, ctx: RoundCtx, lo: usize, hi: usize, part: &mut APart) {
        let n = self.cfg.n;
        let n_correct = self.cfg.correct();
        let view_push = self.cfg.view_push();
        let view_pull = self.cfg.view_pull();
        if view_push > 0 {
            part.push_valid.fill(0);
            part.push_with_m.fill(0);
        }
        part.requests.clear();
        let mut targets = core::mem::take(&mut part.targets);
        // Crashed/malicious senders (ids >= n_correct) send nothing valid.
        for s in lo..hi.min(n_correct) {
            if view_push > 0 {
                let mut rng = stream(ctx.round_key, STREAM_PUSH_SEND, s);
                sample_targets(n, s, view_push, &mut rng, &mut targets);
                let sender_has_m = self.has_m.get(s);
                for &t in &targets {
                    // Crashed/malicious targets silently discard.
                    if t < n_correct && rng_chance(&mut rng, ctx.ok) {
                        part.push_valid[t] = part.push_valid[t].saturating_add(1);
                        if sender_has_m {
                            part.push_with_m[t] = part.push_with_m[t].saturating_add(1);
                        }
                    }
                }
            }
            if view_pull > 0 {
                let mut rng = stream(ctx.round_key, STREAM_PULL_REQUEST, s);
                sample_targets(n, s, view_pull, &mut rng, &mut targets);
                for &t in &targets {
                    if t < n_correct && rng_chance(&mut rng, ctx.ok) {
                        part.requests.push((t as u32, s as u32));
                    }
                }
            }
        }
        part.targets = targets;
    }

    /// Receiver-side phase for one shard: push acceptance and pull serving
    /// for the owned target range `lo..hi`. `a_parts` are all shards'
    /// sender partials (read-locked per sweep, never collected into a
    /// per-round vector); `csr_offsets`/`csr_data` index the merged pull
    /// requests by target.
    #[allow(clippy::too_many_arguments)]
    fn phase_b(
        &self,
        ctx: RoundCtx,
        lo: usize,
        hi: usize,
        a_parts: &[RwLock<APart>],
        csr_offsets: &[u32],
        csr_data: &[u32],
        part: &mut BPart,
    ) {
        let n_correct = self.cfg.correct();
        let view_push = self.cfg.view_push();
        let view_pull = self.cfg.view_pull();
        let hi_c = hi.min(n_correct);
        part.new_m.clear_all();
        part.fakes_push = 0;
        part.fakes_pull = 0;
        if !part.reply_valid.is_empty() {
            part.reply_valid.fill(0);
            part.reply_with_m.fill(0);
        }
        if view_push > 0 {
            // Pre-merge the per-sender-shard push tallies for the owned
            // range: one sequential sweep per sender shard (read locks are
            // shared, so every receiver shard sweeps concurrently) instead
            // of a strided gather per target. Saturating adds commute, so
            // the sums are independent of both sweep and shard order.
            let lo_c = lo.min(hi_c);
            part.sum_valid.clear();
            part.sum_valid.resize(hi_c - lo_c, 0);
            part.sum_with_m.clear();
            part.sum_with_m.resize(hi_c - lo_c, 0);
            for a in a_parts {
                let a = read(a);
                for (dst, &src) in part.sum_valid.iter_mut().zip(&a.push_valid[lo_c..hi_c]) {
                    *dst = dst.saturating_add(src);
                }
                for (dst, &src) in part.sum_with_m.iter_mut().zip(&a.push_with_m[lo_c..hi_c]) {
                    *dst = dst.saturating_add(src);
                }
            }
        }
        for t in lo..hi_c {
            if view_push > 0 && !self.has_m.get(t) {
                let mut rng = stream(ctx.round_key, STREAM_PUSH_ACCEPT, t);
                let fakes = if self.attacked.get(t) && ctx.x_push > 0.0 {
                    binomial(randomized_round(ctx.x_push, &mut rng), ctx.ok, &mut rng)
                } else {
                    0
                };
                part.fakes_push += fakes as u64;
                let valid = part.sum_valid[t - lo] as usize;
                let with_m = part.sum_with_m[t - lo] as usize;
                let acc = accepted_valid(valid, fakes, view_push, &mut rng);
                if with_m > 0 && any_interesting(with_m, valid - with_m, acc, &mut rng) {
                    part.new_m.set(t);
                }
            }
            if view_pull > 0 {
                let mut rng = stream(ctx.round_key, STREAM_PULL_SERVE, t);
                let (start, end) = (csr_offsets[t] as usize, csr_offsets[t + 1] as usize);
                part.serve_buf.clear();
                part.serve_buf.extend_from_slice(&csr_data[start..end]);
                let fakes = if self.attacked.get(t) && ctx.x_req > 0.0 {
                    binomial(randomized_round(ctx.x_req, &mut rng), ctx.ok, &mut rng)
                } else {
                    0
                };
                part.fakes_pull += fakes as u64;
                let acc = accepted_valid(part.serve_buf.len(), fakes, view_pull, &mut rng);
                partial_shuffle(&mut part.serve_buf, acc, &mut rng);
                let target_has_m = self.has_m.get(t);
                for i in 0..acc.min(part.serve_buf.len()) {
                    let p = part.serve_buf[i] as usize;
                    // The reply travels back; subject to link loss.
                    if !rng_chance(&mut rng, ctx.ok) {
                        continue;
                    }
                    if self.cfg.random_ports {
                        // Random reply port: always processed. `p` may live
                        // in any shard's range; fragments are full-length
                        // and OR-merged, so cross-shard sets are fine.
                        if target_has_m && !self.has_m.get(p) {
                            part.new_m.set(p);
                        }
                    } else {
                        // Well-known reply port: contends with fakes in
                        // phase C after a cross-shard tally merge.
                        part.reply_valid[p] = part.reply_valid[p].saturating_add(1);
                        if target_has_m {
                            part.reply_with_m[p] = part.reply_with_m[p].saturating_add(1);
                        }
                    }
                }
            }
        }
    }

    /// Reply-acceptance phase for one shard (no-random-ports ablation
    /// only): the owned requesters contend fabricated reply-port traffic
    /// against the merged valid-reply tallies.
    fn phase_c(
        &self,
        ctx: RoundCtx,
        lo: usize,
        hi: usize,
        reply_valid: &[u16],
        reply_with_m: &[u16],
        part: &mut BPart,
    ) {
        let n_correct = self.cfg.correct();
        let view_pull = self.cfg.view_pull();
        for p in lo..hi.min(n_correct) {
            if self.has_m.get(p) {
                continue;
            }
            let mut rng = stream(ctx.round_key, STREAM_REPLY_ACCEPT, p);
            let fakes = if self.attacked.get(p) && ctx.x_reply > 0.0 {
                binomial(randomized_round(ctx.x_reply, &mut rng), ctx.ok, &mut rng)
            } else {
                0
            };
            part.fakes_pull += fakes as u64;
            let valid = reply_valid[p] as usize;
            let with_m = reply_with_m[p] as usize;
            let acc = accepted_valid(valid, fakes, view_pull, &mut rng);
            if with_m > 0 && any_interesting(with_m, valid - with_m, acc, &mut rng) {
                part.new_m.set(p);
            }
        }
    }

    /// Executes one synchronized gossip round with the process range
    /// sharded across `pool` workers.
    ///
    /// Every `(phase, process)` pair draws from its own counter-derived
    /// stream keyed on `(trial_seed, round)`, and partials merge in fixed
    /// ascending shard order, so the outcome is byte-identical for any
    /// worker count *and* any shard count — `DRUM_POOL_THREADS=1` with
    /// `shards=1` is a valid oracle for a 16-way parallel run.
    pub fn step_sharded(&mut self, trial_seed: u64, shards: usize, pool: &Pool) {
        let n = self.cfg.n;
        let shards = shards.clamp(1, n);
        let ok = 1.0 - self.cfg.loss;
        self.round += 1;

        let round_key = rand::rngs::derive_stream_key(&[trial_seed, u64::from(self.round)]);
        let mut control = stream(round_key, STREAM_CONTROL, 0);
        self.control_phase(&mut control);

        self.new_m.clear_all();
        self.ensure_sharded_scratch(shards);

        let (x_req, x_reply) = if self.cfg.random_ports {
            (self.adv_x_pull, 0.0)
        } else {
            (self.adv_x_pull / 2.0, self.adv_x_pull / 2.0)
        };
        let ctx = RoundCtx {
            round_key,
            ok,
            x_push: self.adv_x_push,
            x_req,
            x_reply,
        };
        let n_correct = self.cfg.correct();
        let view_pull = self.cfg.view_pull();

        // Detach the scratch from `self` so the pool jobs can borrow the
        // rest of the state immutably while each writes its own partial.
        let mut a_parts = core::mem::take(&mut self.a_parts);
        let mut b_parts = core::mem::take(&mut self.b_parts);
        let mut csr_offsets = core::mem::take(&mut self.csr_offsets);
        let mut csr_cursor = core::mem::take(&mut self.csr_cursor);
        let mut csr_data = core::mem::take(&mut self.csr_data);

        // --- Phase A: sender-side draws, sharded over the sender range.
        {
            let state = &*self;
            let a_parts = &a_parts;
            pool.run(shards, &|s| {
                let (lo, hi) = shard_range(n, shards, s);
                state.phase_a(ctx, lo, hi, &mut write(&a_parts[s]));
            });
        }

        // --- Deterministic CSR merge of pull requests: count, prefix-sum,
        // fill, walking shards in ascending order. Contiguous ascending
        // shard ranges + ascending senders within a shard give a globally
        // ascending requester order per target, independent of the shard
        // count — the same request list the serial stepper would build.
        if view_pull > 0 {
            csr_offsets.clear();
            csr_offsets.resize(n_correct + 1, 0);
            for m in &mut a_parts {
                for &(t, _) in &rw_mut(m).requests {
                    csr_offsets[t as usize + 1] += 1;
                }
            }
            for i in 0..n_correct {
                csr_offsets[i + 1] += csr_offsets[i];
            }
            csr_cursor.clear();
            csr_cursor.extend_from_slice(&csr_offsets[..n_correct]);
            csr_data.clear();
            csr_data.resize(csr_offsets[n_correct] as usize, 0);
            for m in &mut a_parts {
                for &(t, p) in &rw_mut(m).requests {
                    let slot = &mut csr_cursor[t as usize];
                    csr_data[*slot as usize] = p;
                    *slot += 1;
                }
            }
        }

        // --- Phase B: receiver-side acceptance, sharded over targets.
        {
            let state = &*self;
            let a_parts = a_parts.as_slice();
            let b_parts = &b_parts;
            let csr_offsets = csr_offsets.as_slice();
            let csr_data = csr_data.as_slice();
            pool.run(shards, &|s| {
                let (lo, hi) = shard_range(n, shards, s);
                state.phase_b(
                    ctx,
                    lo,
                    hi,
                    a_parts,
                    csr_offsets,
                    csr_data,
                    &mut lock(&b_parts[s]),
                );
            });
        }

        // --- Phase C (no-random-ports only): merge reply tallies across
        // shards in ascending order, then contend reply-port fakes.
        if !self.cfg.random_ports && view_pull > 0 {
            let mut rv = core::mem::take(&mut self.reply_merge_valid);
            let mut rw = core::mem::take(&mut self.reply_merge_with_m);
            rv.clear();
            rv.resize(n_correct, 0);
            rw.clear();
            rw.resize(n_correct, 0);
            for m in &mut b_parts {
                let part = lock_mut(m);
                for (dst, &src) in rv.iter_mut().zip(&part.reply_valid) {
                    *dst = dst.saturating_add(src);
                }
                for (dst, &src) in rw.iter_mut().zip(&part.reply_with_m) {
                    *dst = dst.saturating_add(src);
                }
            }
            {
                let state = &*self;
                let b_parts = &b_parts;
                let rv = rv.as_slice();
                let rw = rw.as_slice();
                pool.run(shards, &|s| {
                    let (lo, hi) = shard_range(n, shards, s);
                    state.phase_c(ctx, lo, hi, rv, rw, &mut lock(&b_parts[s]));
                });
            }
            self.reply_merge_valid = rv;
            self.reply_merge_with_m = rw;
        }

        // --- Final merge: OR the delivery fragments and sum the fake
        // totals in ascending shard order.
        let mut fakes_push_total = 0u64;
        let mut fakes_pull_total = 0u64;
        for m in &mut b_parts {
            let part = lock_mut(m);
            self.new_m.or_with(&part.new_m);
            fakes_push_total += part.fakes_push;
            fakes_pull_total += part.fakes_pull;
        }

        self.a_parts = a_parts;
        self.b_parts = b_parts;
        self.csr_offsets = csr_offsets;
        self.csr_cursor = csr_cursor;
        self.csr_data = csr_data;

        self.deliver_and_trace(fakes_push_total, fakes_pull_total);
    }
}

#[inline]
fn rng_chance(rng: &mut SmallRng, p: f64) -> bool {
    use rand::RngExt;
    p >= 1.0 || rng.random_bool(p)
}

/// Moves a uniform random `k`-subset to the front of `v` (partial
/// Fisher-Yates).
fn partial_shuffle(v: &mut [u32], k: usize, rng: &mut SmallRng) {
    use rand::RngExt;
    let k = k.min(v.len());
    for i in 0..k {
        let j = rng.random_range(i..v.len());
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Role;
    use drum_core::ProtocolVariant;

    fn run_sharded(
        cfg: SimConfig,
        seed: u64,
        max_rounds: u32,
        shards: usize,
        pool: &Pool,
    ) -> (SimState, u32) {
        let mut state = SimState::new(cfg);
        let mut rounds = 0;
        while state.fraction_with_m() < state.config().threshold && rounds < max_rounds {
            state.step_sharded(seed, shards, pool);
            rounds += 1;
        }
        (state, rounds)
    }

    /// Byte-comparable digest of a trial's observable end state.
    fn fingerprint(state: &SimState) -> (u32, usize, usize, Vec<u64>) {
        (
            state.round(),
            state.correct_with_m(),
            state.attacked_with_m(),
            state.has_m.words().to_vec(),
        )
    }

    #[test]
    fn initial_state_only_source() {
        let state = SimState::new(SimConfig::baseline(ProtocolVariant::Drum, 50));
        assert_eq!(state.correct_with_m(), 1);
        assert!(state.has_m(0));
        assert!(!state.has_m(1));
        assert_eq!(state.round(), 0);
    }

    #[test]
    fn all_protocols_disseminate_without_failures() {
        for p in [
            ProtocolVariant::Drum,
            ProtocolVariant::Push,
            ProtocolVariant::Pull,
        ] {
            let (state, rounds) =
                run_sharded(SimConfig::baseline(p, 120), 7, 100, 1, Pool::global());
            assert!(
                state.fraction_with_m() >= 0.99,
                "{p} stuck at {}",
                state.fraction_with_m()
            );
            assert!(rounds <= 20, "{p} took {rounds} rounds");
        }
    }

    #[test]
    fn propagation_is_logarithmic_ish() {
        // Figure 2(a): rounds grow slowly (log) with n.
        let r = |n| {
            let mut total = 0;
            for seed in 0..5 {
                total += run_sharded(
                    SimConfig::baseline(ProtocolVariant::Drum, n),
                    seed,
                    200,
                    1,
                    Pool::global(),
                )
                .1;
            }
            total as f64 / 5.0
        };
        let r50 = r(50);
        let r800 = r(800);
        assert!(r800 < r50 * 3.0, "r50={r50} r800={r800}");
    }

    #[test]
    fn crashes_degrade_gracefully() {
        // Figure 2(b): even 40% crashed processes only slow things down.
        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 200);
        cfg.crashed = 80;
        let (state, rounds) = run_sharded(cfg, 3, 200, 1, Pool::global());
        assert!(
            state.fraction_with_m() >= 0.99,
            "stuck at {}",
            state.fraction_with_m()
        );
        assert!(rounds < 40);
    }

    #[test]
    fn malicious_members_do_not_block_dissemination() {
        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 200);
        cfg.malicious = 20;
        let (state, _) = run_sharded(cfg, 3, 200, 1, Pool::global());
        assert!(state.fraction_with_m() >= 0.99);
    }

    #[test]
    fn targeted_attack_slows_push_much_more_than_drum() {
        // The core claim (Figure 3(a)) at small scale: α=10%, strong x.
        let avg = |proto| {
            drum_testkit::mean_over_seeds(0..8, |seed| {
                let cfg = SimConfig::paper_attack(proto, 120, 256.0);
                run_sharded(cfg, seed, 400, 1, Pool::global()).1 as f64
            })
        };
        let drum = avg(ProtocolVariant::Drum);
        let push = avg(ProtocolVariant::Push);
        assert!(
            push > drum * 2.0,
            "push {push} should be much slower than drum {drum}"
        );
    }

    #[test]
    fn attacked_source_blocks_pull_exit() {
        // Under a strong attack on the source, Pull takes many rounds for M
        // to leave the source at all (geometric with small p̃).
        let cfg = SimConfig::paper_attack(ProtocolVariant::Pull, 120, 256.0);
        let mut slow_exits = 0;
        for seed in 0..10 {
            let mut state = SimState::new(cfg.clone());
            let mut exit_round = None;
            for r in 1..=100 {
                state.step_sharded(seed, 1, Pool::global());
                if state.correct_with_m() > 1 {
                    exit_round = Some(r);
                    break;
                }
            }
            if exit_round.unwrap_or(101) > 3 {
                slow_exits += 1;
            }
        }
        assert!(
            slow_exits >= 3,
            "expected several slow source exits, got {slow_exits}"
        );
    }

    #[test]
    fn no_random_ports_variant_is_slower_under_attack() {
        let avg = |random_ports: bool| {
            drum_testkit::mean_over_seeds(0..8, |seed| {
                let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 256.0);
                cfg.random_ports = random_ports;
                run_sharded(cfg, seed, 400, 1, Pool::global()).1 as f64
            })
        };
        let with_ports = avg(true);
        let without = avg(false);
        assert!(
            without > with_ports * 1.3,
            "no-random-ports {without} should be slower than {with_ports}"
        );
    }

    #[test]
    fn attacked_and_unattacked_counts_consistent() {
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 64.0);
        let mut state = SimState::new(cfg);
        for _ in 0..10 {
            state.step_sharded(5, 1, Pool::global());
            assert_eq!(
                state.correct_with_m(),
                state.attacked_with_m() + state.unattacked_with_m()
            );
        }
    }

    #[test]
    fn partial_shuffle_selects_uniform_prefix() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            let mut v = [0u32, 1, 2, 3, 4];
            partial_shuffle(&mut v, 2, &mut rng);
            counts[v[0] as usize] += 1;
            counts[v[1] as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let p = *c as f64 / 100_000.0;
            assert!((p - 0.2).abs() < 0.01, "element {i}: {p}");
        }
    }

    #[test]
    fn rotating_adversary_moves_targets() {
        let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 60, 64.0);
        cfg.attack.as_mut().unwrap().rotate_every = Some(2);
        let mut state = SimState::new(cfg.clone());
        let initial: Vec<usize> = (0..60).filter(|&i| state.is_attacked(i)).collect();
        assert_eq!(initial.len(), 6);
        // Run past a rotation boundary; the attacked set should change at
        // some point (probability of re-drawing the same 6-subset is ~0).
        let mut changed = false;
        for _ in 0..10 {
            state.step_sharded(13, 1, Pool::global());
            let now: Vec<usize> = (0..60).filter(|&i| state.is_attacked(i)).collect();
            assert_eq!(now.len(), 6, "target count must be preserved");
            // Targets are always correct processes.
            for &t in &now {
                assert!(matches!(
                    cfg.role_of(t),
                    Role::AttackedCorrect | Role::Correct
                ));
            }
            if now != initial {
                changed = true;
            }
        }
        assert!(changed, "rotation never changed the target set");
    }

    #[test]
    fn rotating_attack_does_not_beat_static_against_drum() {
        // The extension's finding: moving the attack around gains nothing.
        let mean = |rotate: Option<u32>| {
            drum_testkit::mean_over_seeds(0..10, |seed| {
                let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0);
                cfg.attack.as_mut().unwrap().rotate_every = rotate;
                run_sharded(cfg, seed, 400, 1, Pool::global()).1 as f64
            })
        };
        let static_attack = mean(None);
        let rotating = mean(Some(1));
        assert!(
            rotating < static_attack + 3.0,
            "rotation should not help the adversary: static {static_attack:.1} vs rotating {rotating:.1}"
        );
    }

    #[test]
    fn eclipse_attacks_only_the_source() {
        use crate::adversary::AdversaryKind;
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 60, 64.0)
            .with_adversary(AdversaryKind::Eclipse);
        let mut state = SimState::new(cfg);
        for _ in 0..5 {
            state.step_sharded(3, 1, Pool::global());
            let attacked: Vec<usize> = (0..60).filter(|&i| state.is_attacked(i)).collect();
            assert_eq!(attacked, vec![0], "eclipse must pin the source alone");
        }
    }

    #[test]
    fn chasing_adversary_tracks_the_frontier() {
        use crate::adversary::AdversaryKind;
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 60, 64.0)
            .with_adversary(AdversaryKind::TargetChasing { every: 1 });
        let mut state = SimState::new(cfg.clone());
        // Early rounds: far more than 6 processes lack M, so every chased
        // target must be one of them. Targets are re-drawn at the top of
        // the round, so check against the *pre-step* frontier.
        for _ in 0..3 {
            let frontier: Vec<usize> = (0..60)
                .filter(|&i| i < cfg.correct() && !state.has_m(i))
                .collect();
            assert!(frontier.len() > 6);
            state.step_sharded(11, 1, Pool::global());
            let targets: Vec<usize> = (0..60).filter(|&i| state.is_attacked(i)).collect();
            assert_eq!(targets.len(), 6, "target count must be preserved");
            for &t in &targets {
                assert!(
                    frontier.contains(&t),
                    "chased target {t} already held M at round start"
                );
            }
        }
    }

    #[test]
    fn adaptive_adversaries_do_not_break_drum_bounds() {
        use crate::adversary::AdversaryKind;
        // The tentpole claim (extension beyond the paper): none of the
        // adaptive strategies slows Drum catastrophically relative to the
        // paper's static flood at the same total budget.
        let mean = |kind: AdversaryKind| {
            drum_testkit::mean_over_seeds(0..8, |seed| {
                let cfg =
                    SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0).with_adversary(kind);
                run_sharded(cfg, seed, 400, 1, Pool::global()).1 as f64
            })
        };
        let static_rounds = mean(AdversaryKind::Static);
        for kind in [
            AdversaryKind::TargetChasing { every: 1 },
            AdversaryKind::Eclipse,
            AdversaryKind::PullAbuse,
            AdversaryKind::Replay,
        ] {
            let adaptive = mean(kind);
            assert!(
                adaptive < static_rounds * 2.0 + 5.0,
                "{} broke Drum's bound: {adaptive:.1} rounds vs static {static_rounds:.1}",
                kind.name()
            );
        }
    }

    #[test]
    fn pull_abuse_hurts_pull_more_than_drum() {
        use crate::adversary::AdversaryKind;
        // Where the bound story differs by protocol: the all-pull budget
        // lands on Pull's only channel but just one of Drum's two.
        let mean = |proto| {
            drum_testkit::mean_over_seeds(0..8, |seed| {
                let cfg = SimConfig::paper_attack(proto, 120, 128.0)
                    .with_adversary(AdversaryKind::PullAbuse);
                run_sharded(cfg, seed, 400, 1, Pool::global()).1 as f64
            })
        };
        let drum = mean(ProtocolVariant::Drum);
        let pull = mean(ProtocolVariant::Pull);
        assert!(
            pull > drum * 1.5,
            "pull-abuse should hurt Pull ({pull:.1}) more than Drum ({drum:.1})"
        );
    }

    #[test]
    fn fraction_never_decreases() {
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0);
        let mut state = SimState::new(cfg);
        let mut prev = state.fraction_with_m();
        for _ in 0..30 {
            state.step_sharded(9, 1, Pool::global());
            let now = state.fraction_with_m();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn fraction_with_m_zero_correct_is_zero_not_nan() {
        // Degenerate all-crashed/all-malicious population: `validate()`
        // rejects it, but experiment code can build such a config directly
        // (the fields are public). The fraction must clamp to 0.0, not NaN.
        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 10);
        cfg.crashed = 6;
        cfg.malicious = 4;
        assert_eq!(cfg.correct(), 0);
        assert_eq!(cfg.fraction_of_correct(0), 0.0);
        assert!(cfg.fraction_of_correct(0).is_finite());
    }

    #[test]
    fn reset_restores_round_zero_state() {
        // Past a rotation, so the attacked set has moved off the prefix.
        let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 80, 64.0);
        cfg.attack.as_mut().unwrap().rotate_every = Some(2);
        let mut state = SimState::new(cfg);
        for _ in 0..8 {
            state.step_sharded(4, 1, Pool::global());
        }
        state.reset();
        assert_eq!(state.round(), 0);
        assert_eq!(state.correct_with_m(), 1);
        assert!(state.has_m(0));
        let attacked: Vec<usize> = (0..80).filter(|&i| state.is_attacked(i)).collect();
        assert_eq!(attacked, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_reset_reuse_matches_fresh_state() {
        let pool = Pool::new(3);
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 90, 64.0);
        let mut reused = SimState::new(cfg.clone());
        for _ in 0..6 {
            reused.step_sharded(111, 4, &pool);
        }
        reused.reset();
        let mut fresh = SimState::new(cfg);
        for _ in 0..10 {
            reused.step_sharded(222, 4, &pool);
            fresh.step_sharded(222, 4, &pool);
        }
        assert_eq!(fingerprint(&reused), fingerprint(&fresh));
    }

    #[test]
    fn sharded_matches_across_shard_counts() {
        // The tentpole invariant: the sharded stepper is a pure function of
        // (config, trial_seed) — the shard count never shows through.
        let pool = Pool::new(2);
        for cfg in [
            SimConfig::baseline(ProtocolVariant::Drum, 150),
            SimConfig::paper_attack(ProtocolVariant::Drum, 150, 64.0),
            SimConfig::paper_attack(ProtocolVariant::Push, 150, 64.0),
            SimConfig::paper_attack(ProtocolVariant::Pull, 150, 64.0),
        ] {
            let reference = run_sharded(cfg.clone(), 42, 60, 1, &pool);
            for shards in [2, 3, 7, 16, 150] {
                let other = run_sharded(cfg.clone(), 42, 60, shards, &pool);
                assert_eq!(
                    fingerprint(&reference.0),
                    fingerprint(&other.0),
                    "{:?} diverged at {shards} shards",
                    cfg.protocol
                );
                assert_eq!(reference.1, other.1);
            }
        }
    }

    #[test]
    fn sharded_matches_across_shard_counts_no_random_ports() {
        // The reply-accept phase (phase C) only runs in the
        // no-random-ports ablation; cover its merge path too.
        let pool = Pool::new(3);
        let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 64.0);
        cfg.random_ports = false;
        let reference = run_sharded(cfg.clone(), 7, 80, 1, &pool);
        for shards in [3, 5, 16] {
            let other = run_sharded(cfg.clone(), 7, 80, shards, &pool);
            assert_eq!(fingerprint(&reference.0), fingerprint(&other.0));
        }
    }

    #[test]
    fn sharded_matches_with_rotation_and_adversaries() {
        use crate::adversary::AdversaryKind;
        // Mid-trial rotate_targets and adaptive retargeting draw from the
        // control stream only; the partition must still never show.
        let pool = Pool::new(3);
        let mut rotating = SimConfig::paper_attack(ProtocolVariant::Drum, 100, 64.0);
        rotating.attack.as_mut().unwrap().rotate_every = Some(3);
        let chasing = SimConfig::paper_attack(ProtocolVariant::Drum, 100, 64.0)
            .with_adversary(AdversaryKind::TargetChasing { every: 2 });
        for cfg in [rotating, chasing] {
            let reference = run_sharded(cfg.clone(), 13, 60, 1, &pool);
            for shards in [4, 9] {
                let other = run_sharded(cfg.clone(), 13, 60, shards, &pool);
                assert_eq!(fingerprint(&reference.0), fingerprint(&other.0));
            }
        }
    }

    #[test]
    fn sharded_counters_match_full_recount() {
        let pool = Pool::new(3);
        let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 110, 64.0);
        cfg.attack.as_mut().unwrap().rotate_every = Some(2);
        let mut state = SimState::new(cfg);
        for _ in 0..15 {
            state.step_sharded(5, 6, &pool);
            let correct = state.has_m.count_range(0, state.config().correct());
            let attacked: usize = (0..state.config().n)
                .filter(|&i| state.is_attacked(i) && state.has_m(i))
                .count();
            assert_eq!(state.correct_with_m(), correct);
            assert_eq!(state.attacked_with_m(), attacked);
        }
    }

    #[test]
    fn shard_range_partitions_exactly() {
        for n in [1usize, 7, 64, 65, 1000] {
            for shards in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                for s in 0..shards {
                    let (lo, hi) = shard_range(n, shards, s);
                    assert!(lo <= hi && hi <= n);
                    assert_eq!(lo, covered, "gap at shard {s} of {shards} over {n}");
                    covered = hi;
                }
                assert_eq!(covered, n);
            }
        }
    }
}
