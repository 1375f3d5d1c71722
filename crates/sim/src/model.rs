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
//! [`SimState::step`] draws every random decision from a counter-derived
//! [`SmallRng`] stream keyed on `(trial_seed, round, phase, process)`
//! ([`SmallRng::from_key`]), so a trial is a pure function of its key
//! material and no draw depends on another process's. Pull requests are
//! grouped by target in a CSR count/prefix/fill pass that keeps ascending
//! requester order per target. The per-round scratch (`u16` tallies, one
//! `new_m` bitset, the request list and the CSR arrays) is sized on the
//! first round and reused for every later round and trial.

use rand::rngs::{key_fold, SmallRng};
use rand::SeedableRng;

use drum_core::{BitSet, FloodRates};
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

/// Read-only per-round parameters shared by the phases.
#[derive(Clone, Copy)]
struct RoundCtx {
    round_key: u64,
    /// `1 - loss`: per-transmission survival probability.
    ok: f64,
    x_push: f64,
    /// Pull budget on the request port (the whole pull rate with random ports,
    /// half without — §9).
    x_req: f64,
    /// Pull budget on the well-known reply port (0 with random ports).
    x_reply: f64,
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
    /// Per-target per-round channel rates of the configured adversary
    /// ([`adversary::rates`]). Constant for a trial's lifetime, so
    /// computed once.
    adv: FloodRates,

    /// Processes that learned `M` this round.
    new_m: BitSet,
    /// Target-rotation pick buffer, reused across rounds.
    rotation_picks: Vec<usize>,

    // Grow-once round scratch, sized on the first `step()`.
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
    /// Pull requests grouped by target: target `t`'s requesters are
    /// `csr_data[csr_offsets[t]..csr_offsets[t + 1]]`, ascending.
    csr_offsets: Vec<u32>,
    csr_cursor: Vec<u32>,
    csr_data: Vec<u32>,
    /// Per-target serve scratch: the CSR request segment being shuffled.
    serve_buf: Vec<u32>,
    /// Valid pull-replies per requester on the well-known port
    /// (no-random-ports ablation only).
    reply_valid: Vec<u16>,
    reply_with_m: Vec<u16>,
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
        let adv = adversary::rates(&cfg);
        SimState {
            cfg,
            has_m,
            attacked,
            round: 0,
            tracer: Tracer::disabled(),
            n_correct_with_m,
            n_attacked_with_m,
            adv,
            new_m: BitSet::new(n),
            rotation_picks: Vec::new(),
            push_valid: Vec::new(),
            push_with_m: Vec::new(),
            requests: Vec::new(),
            targets: Vec::new(),
            csr_offsets: Vec::new(),
            csr_cursor: Vec::new(),
            csr_data: Vec::new(),
            serve_buf: Vec::new(),
            reply_valid: Vec::new(),
            reply_with_m: Vec::new(),
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

    /// Sizes the round scratch on the first round. The bounds are exact
    /// per-round maxima (loss only removes requests), so no buffer regrows
    /// mid-trial and a warmed round allocates nothing.
    fn ensure_scratch(&mut self) {
        let n_correct = self.cfg.correct();
        let view_push = self.cfg.view_push();
        let view_pull = self.cfg.view_pull();
        if view_push > 0 && self.push_valid.len() != n_correct {
            self.push_valid = vec![0; n_correct];
            self.push_with_m = vec![0; n_correct];
        }
        if view_pull > 0 && self.csr_offsets.capacity() < n_correct + 1 {
            self.requests = Vec::with_capacity(n_correct * view_pull);
            self.csr_offsets = Vec::with_capacity(n_correct + 1);
            self.csr_cursor = Vec::with_capacity(n_correct);
            self.csr_data = Vec::with_capacity(n_correct * view_pull);
            // One target's requesters: mean `view_pull`, so 64 covers the
            // per-round max at any n.
            self.serve_buf = Vec::with_capacity(64);
            if !self.cfg.random_ports {
                self.reply_valid = vec![0; n_correct];
                self.reply_with_m = vec![0; n_correct];
            }
        }
    }

    /// Sender-side phase: push transmissions and pull requests, each
    /// sender drawing from its own counter-derived streams.
    fn phase_a(&mut self, ctx: RoundCtx) {
        let n = self.cfg.n;
        let n_correct = self.cfg.correct();
        let view_push = self.cfg.view_push();
        let view_pull = self.cfg.view_pull();
        self.push_valid.fill(0);
        self.push_with_m.fill(0);
        self.requests.clear();
        let targets = &mut self.targets;
        // Crashed/malicious senders (ids >= n_correct) send nothing valid.
        for s in 0..n_correct {
            if view_push > 0 {
                let mut rng = stream(ctx.round_key, STREAM_PUSH_SEND, s);
                sample_targets(n, s, view_push, &mut rng, targets);
                let sender_has_m = self.has_m.get(s);
                for &t in targets.iter() {
                    // Crashed/malicious targets silently discard.
                    if t < n_correct && rng_chance(&mut rng, ctx.ok) {
                        self.push_valid[t] = self.push_valid[t].saturating_add(1);
                        if sender_has_m {
                            self.push_with_m[t] = self.push_with_m[t].saturating_add(1);
                        }
                    }
                }
            }
            if view_pull > 0 {
                let mut rng = stream(ctx.round_key, STREAM_PULL_REQUEST, s);
                sample_targets(n, s, view_pull, &mut rng, targets);
                for &t in targets.iter() {
                    if t < n_correct && rng_chance(&mut rng, ctx.ok) {
                        self.requests.push((t as u32, s as u32));
                    }
                }
            }
        }
    }

    /// Groups the round's pull requests by target (count, prefix-sum,
    /// fill). Requests arrive in ascending requester order, so each
    /// target's segment is ascending too.
    fn group_requests(&mut self) {
        let n_correct = self.cfg.correct();
        let (offsets, cursor, data) = (
            &mut self.csr_offsets,
            &mut self.csr_cursor,
            &mut self.csr_data,
        );
        offsets.clear();
        offsets.resize(n_correct + 1, 0);
        for &(t, _) in &self.requests {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n_correct {
            offsets[i + 1] += offsets[i];
        }
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n_correct]);
        data.clear();
        data.resize(offsets[n_correct] as usize, 0);
        for &(t, p) in &self.requests {
            let slot = &mut cursor[t as usize];
            data[*slot as usize] = p;
            *slot += 1;
        }
    }

    /// Receiver-side phase: push acceptance and pull serving for every
    /// correct target. Returns the fabricated `(push, pull)` arrivals.
    fn phase_b(&mut self, ctx: RoundCtx) -> (u64, u64) {
        let n_correct = self.cfg.correct();
        let view_push = self.cfg.view_push();
        let view_pull = self.cfg.view_pull();
        let (mut fakes_push, mut fakes_pull) = (0u64, 0u64);
        self.reply_valid.fill(0);
        self.reply_with_m.fill(0);
        for t in 0..n_correct {
            if view_push > 0 && !self.has_m.get(t) {
                let mut rng = stream(ctx.round_key, STREAM_PUSH_ACCEPT, t);
                let fakes = if self.attacked.get(t) && ctx.x_push > 0.0 {
                    binomial(randomized_round(ctx.x_push, &mut rng), ctx.ok, &mut rng)
                } else {
                    0
                };
                fakes_push += fakes as u64;
                let valid = self.push_valid[t] as usize;
                let with_m = self.push_with_m[t] as usize;
                let acc = accepted_valid(valid, fakes, view_push, &mut rng);
                if with_m > 0 && any_interesting(with_m, valid - with_m, acc, &mut rng) {
                    self.new_m.set(t);
                }
            }
            if view_pull > 0 {
                let mut rng = stream(ctx.round_key, STREAM_PULL_SERVE, t);
                let (start, end) = (self.csr_offsets[t], self.csr_offsets[t + 1]);
                self.serve_buf.clear();
                self.serve_buf
                    .extend_from_slice(&self.csr_data[start as usize..end as usize]);
                let fakes = if self.attacked.get(t) && ctx.x_req > 0.0 {
                    binomial(randomized_round(ctx.x_req, &mut rng), ctx.ok, &mut rng)
                } else {
                    0
                };
                fakes_pull += fakes as u64;
                let acc = accepted_valid(self.serve_buf.len(), fakes, view_pull, &mut rng);
                partial_shuffle(&mut self.serve_buf, acc, &mut rng);
                let target_has_m = self.has_m.get(t);
                for i in 0..acc.min(self.serve_buf.len()) {
                    let p = self.serve_buf[i] as usize;
                    // The reply travels back; subject to link loss.
                    if !rng_chance(&mut rng, ctx.ok) {
                        continue;
                    }
                    if self.cfg.random_ports {
                        // Random reply port: always processed.
                        if target_has_m && !self.has_m.get(p) {
                            self.new_m.set(p);
                        }
                    } else {
                        // Well-known reply port: contends with fakes in
                        // phase C.
                        self.reply_valid[p] = self.reply_valid[p].saturating_add(1);
                        if target_has_m {
                            self.reply_with_m[p] = self.reply_with_m[p].saturating_add(1);
                        }
                    }
                }
            }
        }
        (fakes_push, fakes_pull)
    }

    /// Reply-acceptance phase (no-random-ports ablation only): each
    /// requester contends fabricated reply-port traffic against its valid
    /// replies. Returns the fabricated arrivals.
    fn phase_c(&mut self, ctx: RoundCtx) -> u64 {
        let view_pull = self.cfg.view_pull();
        let mut fakes_pull = 0u64;
        for p in 0..self.cfg.correct() {
            if self.has_m.get(p) {
                continue;
            }
            let mut rng = stream(ctx.round_key, STREAM_REPLY_ACCEPT, p);
            let fakes = if self.attacked.get(p) && ctx.x_reply > 0.0 {
                binomial(randomized_round(ctx.x_reply, &mut rng), ctx.ok, &mut rng)
            } else {
                0
            };
            fakes_pull += fakes as u64;
            let valid = self.reply_valid[p] as usize;
            let with_m = self.reply_with_m[p] as usize;
            let acc = accepted_valid(valid, fakes, view_pull, &mut rng);
            if with_m > 0 && any_interesting(with_m, valid - with_m, acc, &mut rng) {
                self.new_m.set(p);
            }
        }
        fakes_pull
    }

    /// Executes one synchronized gossip round of trial `trial_seed`.
    ///
    /// Every `(phase, process)` pair draws from its own counter-derived
    /// stream keyed on `(trial_seed, round)`, so the outcome is a pure
    /// function of the configuration, the seed and the round.
    pub fn step(&mut self, trial_seed: u64) {
        self.round += 1;
        let round_key = rand::rngs::derive_stream_key(&[trial_seed, u64::from(self.round)]);
        let mut control = stream(round_key, STREAM_CONTROL, 0);
        self.control_phase(&mut control);

        self.new_m.clear_all();
        self.ensure_scratch();

        let (x_req, x_reply) = self.adv.pull_split(self.cfg.random_ports);
        let ctx = RoundCtx {
            round_key,
            ok: 1.0 - self.cfg.loss,
            x_push: self.adv.push,
            x_req,
            x_reply,
        };
        let pulls = self.cfg.view_pull() > 0;

        self.phase_a(ctx);
        if pulls {
            self.group_requests();
        }
        let (fakes_push, mut fakes_pull) = self.phase_b(ctx);
        if pulls && !self.cfg.random_ports {
            fakes_pull += self.phase_c(ctx);
        }
        self.deliver_and_trace(fakes_push, fakes_pull);
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

    fn run(cfg: SimConfig, seed: u64, max_rounds: u32) -> (SimState, u32) {
        let mut state = SimState::new(cfg);
        let mut rounds = 0;
        while state.fraction_with_m() < state.config().threshold && rounds < max_rounds {
            state.step(seed);
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
            let (state, rounds) = run(SimConfig::baseline(p, 120), 7, 100);
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
                total += run(SimConfig::baseline(ProtocolVariant::Drum, n), seed, 200).1;
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
        let (state, rounds) = run(cfg, 3, 200);
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
        let (state, _) = run(cfg, 3, 200);
        assert!(state.fraction_with_m() >= 0.99);
    }

    #[test]
    fn targeted_attack_slows_push_much_more_than_drum() {
        // The core claim (Figure 3(a)) at small scale: α=10%, strong x.
        let avg = |proto| {
            drum_testkit::mean_over_seeds(0..8, |seed| {
                let cfg = SimConfig::paper_attack(proto, 120, 256.0);
                run(cfg, seed, 400).1 as f64
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
                state.step(seed);
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
                run(cfg, seed, 400).1 as f64
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
            state.step(5);
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
            state.step(13);
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
                run(cfg, seed, 400).1 as f64
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
            state.step(3);
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
            state.step(11);
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
                run(cfg, seed, 400).1 as f64
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
                run(cfg, seed, 400).1 as f64
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
            state.step(9);
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
            state.step(4);
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
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 90, 64.0);
        let mut reused = SimState::new(cfg.clone());
        for _ in 0..6 {
            reused.step(111);
        }
        reused.reset();
        let mut fresh = SimState::new(cfg);
        for _ in 0..10 {
            reused.step(222);
            fresh.step(222);
        }
        assert_eq!(fingerprint(&reused), fingerprint(&fresh));
    }

    #[test]
    fn sharded_counters_match_full_recount() {
        let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 110, 64.0);
        cfg.attack.as_mut().unwrap().rotate_every = Some(2);
        let mut state = SimState::new(cfg);
        for _ in 0..15 {
            state.step(5);
            let correct = state.has_m.count_range(0, state.config().correct());
            let attacked: usize = (0..state.config().n)
                .filter(|&i| state.is_attacked(i) && state.has_m(i))
                .count();
            assert_eq!(state.correct_with_m(), correct);
            assert_eq!(state.attacked_with_m(), attacked);
        }
    }
}
