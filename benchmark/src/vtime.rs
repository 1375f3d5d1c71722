//! The virtual-time driver: the cluster's `NodeCore`s stepped back-to-back
//! on one thread with no sleeping, so wall time is stack time and
//! throughput moves when any layer gets cheaper. It mirrors
//! `ShardCore::run` with the timer wheel's next deadline as the clock.
//!
//! The schedule is staggered on purpose: each node ticks at its own
//! (jittered) deadline and the sockets are drained dry after every tick.
//! Ticking all nodes and then draining would clear each engine's
//! `offered_to` before any push-reply arrives and silently kill the push
//! path.

use std::io;
use std::net::UdpSocket;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use drum_core::bytes::{Bytes, BytesMut};
use drum_core::config::GossipConfig;
use drum_core::ids::ProcessId;
use drum_crypto::keys::KeyStore;
use drum_net::attack::{fabricated_pull_request, fabricated_push_offer};
use drum_net::runtime::{seed_of, unpack_token};
use drum_net::transport::bind_ephemeral;
use drum_net::{
    codec, sys, AddressBook, BatchRx, BatchTx, Delivery, NetConfig, NetStats, NodeCore,
    ProcessSpec, TimerWheel, WellKnownAddrs, WellKnownSockets,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{Checker, Fault};
use crate::procfs;
use crate::spec::{Workload, ROUND, VTIME_DRAIN_ROUNDS, VTIME_WARMUP_ROUNDS, VTIME_WINDOW};
use crate::trace::{Kind, Spans};
use crate::{median, RunData, StageLedger};

/// The flood the driver injects itself: same thread, own socket.
struct Flood {
    socket: UdpSocket,
    tx: BatchTx,
    wire: BytesMut,
    garbage: Vec<u8>,
    targets: Vec<WellKnownAddrs>,
    /// Datagrams per target per channel per tick (x/2 a round, §5).
    per_tick: f64,
    carry: f64,
    seq: u64,
    garbage_every: u64,
    rng: SmallRng,
    sent: u64,
}

impl Flood {
    /// One tick's share of the round's flood.
    fn inject(&mut self) {
        self.carry += self.per_tick;
        let n = self.carry as u64;
        self.carry -= n as f64;
        for t in 0..self.targets.len() {
            let target = self.targets[t];
            for _ in 0..n {
                self.push(target.pull, fabricated_pull_request);
                self.push(target.push, fabricated_push_offer);
            }
        }
        self.sent += self.tx.finish(&self.socket);
    }

    fn push(
        &mut self,
        addr: std::net::SocketAddr,
        fabricate: fn(u64) -> drum_core::message::GossipMessage,
    ) {
        self.seq += 1;
        codec::encode_into(&fabricate(self.seq), &mut self.wire);
        if self.garbage_every > 0 && self.seq.is_multiple_of(self.garbage_every) {
            // Random bytes of the same length: the decoder's reject path.
            self.garbage.resize(self.wire.len(), 0);
            self.rng.fill_bytes(&mut self.garbage);
            self.tx.push(&self.socket, addr, &self.garbage, false);
        } else {
            self.tx.push(&self.socket, addr, &self.wire[..], false);
        }
    }
}

/// A cluster built exactly as `Cluster::start` builds one, but driven from
/// here instead of from shard threads.
struct VCluster {
    nodes: Vec<NodeCore>,
    publish_tx: Sender<Bytes>,
    delivered_rx: Vec<Receiver<Delivery>>,
    send_socket: UdpSocket,
    rx: BatchRx,
    tx: BatchTx,
    scratch: Vec<u8>,
    epoll: Arc<sys::Epoll>,
    wheel: TimerWheel,
    tokens: Vec<u64>,
    flood: Option<Flood>,
    /// Malicious members' sockets: open, never read.
    _malicious: Vec<WellKnownSockets>,
    msgs_per_round: usize,
    /// Virtual due time of the messages published at each source round.
    due: Vec<Instant>,
    /// The virtual clock.
    now: Instant,
    ticks: u64,
}

impl VCluster {
    fn build(w: &Workload, seed: u64) -> io::Result<VCluster> {
        if !sys::enabled() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the virtual-time driver needs the Linux epoll/recvmmsg path",
            ));
        }
        let key_store = KeyStore::new(seed);
        let members: Vec<ProcessId> = (0..w.n as u64).map(ProcessId).collect();
        let mut correct_sockets = Vec::new();
        let mut malicious = Vec::new();
        let mut entries = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            let (sockets, addrs) = WellKnownSockets::bind()?;
            entries.push((m, addrs));
            if i < w.correct() {
                correct_sockets.push((m, sockets));
            } else {
                malicious.push(sockets);
            }
        }
        let book = AddressBook::new(entries);
        let config = NetConfig::new(GossipConfig::drum()).with_round(ROUND);
        let epoll = Arc::new(sys::Epoll::new()?);
        let mut nodes = Vec::new();
        let mut delivered_rx = Vec::new();
        let mut source_tx = None;
        for (i, (m, sockets)) in correct_sockets.into_iter().enumerate() {
            let (publish_tx, publish_rx) = channel();
            let (delivered_tx, rx) = channel();
            let spec = ProcessSpec {
                me: m,
                members: members.clone(),
                book: book.clone(),
                key_store: key_store.clone(),
                my_key: key_store.register(m.as_u64()),
                sockets,
                ablation: None,
                config: config.clone(),
                seed: seed ^ seed_of(m),
            };
            let mut node = NodeCore::new(spec, publish_rx, delivered_tx);
            if !node.register_tagged(&epoll, i) {
                return Err(io::Error::other("epoll registration failed"));
            }
            nodes.push(node);
            delivered_rx.push(rx);
            // Only the source publishes; the other lanes' senders drop.
            source_tx.get_or_insert(publish_tx);
        }
        let flood = if w.attacked > 0 {
            Some(Flood {
                socket: bind_ephemeral()?,
                tx: BatchTx::new(),
                wire: BytesMut::with_capacity(256),
                garbage: Vec::new(),
                targets: (0..w.attacked as u64)
                    .filter_map(|i| book.addrs_of(ProcessId(i)))
                    .collect(),
                per_tick: w.x as f64 / 2.0 / w.correct() as f64,
                carry: 0.0,
                seq: 0,
                garbage_every: w.garbage_every,
                rng: SmallRng::seed_from_u64(seed ^ 0xF100D),
                sent: 0,
            })
        } else {
            None
        };
        // First rounds evenly staggered across one round length.
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        for i in 0..nodes.len() {
            wheel.push(base + ROUND * i as u32 / nodes.len() as u32, i);
        }
        Ok(VCluster {
            nodes,
            publish_tx: source_tx.expect("at least one correct node"),
            delivered_rx,
            send_socket: bind_ephemeral()?,
            rx: BatchRx::new(codec::MAX_WIRE_LEN + 1),
            tx: BatchTx::new(),
            scratch: vec![0u8; codec::MAX_WIRE_LEN + 1],
            epoll,
            wheel,
            tokens: Vec::new(),
            flood,
            _malicious: malicious,
            msgs_per_round: w.msgs_per_round,
            due: Vec::new(),
            now: base,
            ticks: 0,
        })
    }

    /// One virtual instant: the earliest deadline fires, that node ticks,
    /// and the sockets are drained until nothing is readable. Returns the
    /// node that ticked and the deliveries collected.
    fn step(&mut self, spans: &mut Spans, checker: &mut Checker, publishing: bool) -> (usize, u64) {
        let now = self.wheel.next_deadline().expect("every node is armed");
        let (deadline, i) = self.wheel.pop_due(now).expect("the peeked deadline is due");
        self.now = now;
        spans.open_vround();
        if i == 0 && publishing {
            spans.time(Kind::Publish, 0, || {
                for _ in 0..self.msgs_per_round {
                    let (_, payload) = checker.publish();
                    let _ = self.publish_tx.send(payload);
                }
            });
            self.due.push(now);
        }
        let next = self.nodes[i].next_deadline(deadline, now);
        spans.time(Kind::Tick, i, || {
            self.nodes[i].round_tick(&self.send_socket, &mut self.tx)
        });
        self.wheel.push(next, i);
        self.ticks += 1;
        if let Some(flood) = &mut self.flood {
            spans.time(Kind::Flood, i, || flood.inject());
        }
        loop {
            self.tokens.clear();
            let _ = spans.time(Kind::Epoll, i, || {
                self.epoll.wait_tagged(0, &mut self.tokens)
            });
            if self.tokens.is_empty() {
                break;
            }
            self.tokens.sort_unstable();
            self.tokens.dedup();
            for k in 0..self.tokens.len() {
                let (engine, Some(class)) = unpack_token(self.tokens[k]) else {
                    continue;
                };
                spans.time(Kind::Drain, engine, || {
                    self.nodes[engine].drain_class(
                        class,
                        &mut self.rx,
                        &mut self.scratch,
                        &self.send_socket,
                        &mut self.tx,
                    )
                });
            }
        }
        let collected = spans.time(Kind::Collect, i, || self.collect(checker));
        spans.close_vround(i);
        (i, collected)
    }

    fn collect(&mut self, checker: &mut Checker) -> u64 {
        let mut n = 0;
        for (receiver, rx) in self.delivered_rx.iter().enumerate() {
            while let Ok(d) = rx.try_recv() {
                n += 1;
                let (now, due, m) = (self.now, &self.due, self.msgs_per_round as u64);
                checker.record(receiver, &d.message.payload, d.message.hops, |seq| {
                    now.duration_since(due[(seq / m) as usize])
                });
            }
        }
        n
    }

    /// Steps until the source has ticked `rounds` more times; returns the
    /// deliveries collected.
    fn run_source_rounds(
        &mut self,
        rounds: u64,
        spans: &mut Spans,
        checker: &mut Checker,
        publishing: bool,
    ) -> u64 {
        let (mut done, mut delivered) = (0, 0);
        while done < rounds {
            let (node, n) = self.step(spans, checker, publishing);
            delivered += n;
            done += u64::from(node == 0);
        }
        delivered
    }

    fn finish(self) -> (Vec<NetStats>, u64) {
        let totals = (
            self.rx.syscalls(),
            self.tx.syscalls(),
            self.rx.batched_datagrams(),
        );
        let flood_sent = self.flood.map_or(0, |f| f.sent);
        let stats = self
            .nodes
            .into_iter()
            .map(|n| n.finalize(Some(totals)))
            .collect();
        (stats, flood_sent)
    }
}

struct Window {
    traced: bool,
    deliveries: u64,
    ticks: u64,
    stack_s: f64,
}

const STAGES: [Kind; 5] = [
    Kind::Tick,
    Kind::Drain,
    Kind::Epoll,
    Kind::Flood,
    Kind::Collect,
];

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: Option<Fault>,
) -> io::Result<RunData> {
    let setup_s = crate::paced::setup_s(w, seed)?;
    let mut cluster = VCluster::build(w, seed)?;
    let born = Instant::now();
    let mut spans = Spans::new(trace);
    let mut checker = Checker::new(seed, w.correct(), None);
    checker.inject(fault);
    cluster.run_source_rounds(VTIME_WARMUP_ROUNDS, &mut spans, &mut checker, true);

    checker.begin_measured();
    let mut windows: Vec<Window> = Vec::new();
    let mut ledger = StageLedger::default();
    let started = Instant::now();
    let cpu0 = procfs::self_run_ns();
    let bench0 = spans.bench_ns();
    // Whole windows until the time is up.
    while started.elapsed().as_secs_f64() < seconds || windows.len() < 2 {
        // The traced run alternates traced and untraced windows, so the two
        // throughputs it compares saw the same machine.
        spans.stages = trace && windows.len().is_multiple_of(2);
        let (t0, bench, ticks) = (Instant::now(), spans.bench_ns(), cluster.ticks);
        let sums = STAGES.map(|k| spans.sum_ns(k));
        let deliveries = cluster.run_source_rounds(VTIME_WINDOW, &mut spans, &mut checker, true);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let stack_ns = wall_ns.saturating_sub(spans.bench_ns() - bench);
        let ticks = cluster.ticks - ticks;
        if spans.stages {
            let [tick, drain, epoll, flood, collect] =
                std::array::from_fn(|k| spans.sum_ns(STAGES[k]) - sums[k]);
            ledger.tick_ns += tick;
            ledger.drain_ns += drain;
            ledger.epoll_ns += epoll;
            ledger.flood_ns += flood;
            ledger.collect_ns += collect;
            ledger.stack_ns += stack_ns;
            ledger.node_rounds += ticks;
        }
        windows.push(Window {
            traced: spans.stages,
            deliveries,
            ticks,
            stack_s: stack_ns as f64 / 1e9,
        });
    }
    spans.stages = false;
    checker.end_measured();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let cpu_ns = procfs::self_run_ns() - cpu0;
    let stack_ns = wall_ns.saturating_sub(spans.bench_ns() - bench0);
    let deliveries: u64 = windows.iter().map(|w| w.deliveries).sum();

    cluster.run_source_rounds(VTIME_DRAIN_ROUNDS, &mut spans, &mut checker, false);
    let life_stack_ns = (born.elapsed().as_nanos() as u64).saturating_sub(spans.bench_ns());
    let node_rounds = cluster.ticks;
    let (stats, flood_sent) = cluster.finish();

    // Median over windows of a per-window count divided by its stack time.
    let per_s = |count: &dyn Fn(&Window) -> f64, traced: Option<bool>| {
        median(
            windows
                .iter()
                .filter(|w| traced.is_none_or(|t| w.traced == t))
                .map(|w| count(w) / w.stack_s)
                .collect(),
        )
    };
    let correct = w.correct() as f64;
    let delivered = |w: &Window| w.deliveries as f64;
    Ok(RunData {
        setup_s,
        outcome: checker.outcome(),
        samples: checker.samples(),
        deliveries_per_s: per_s(&delivered, None),
        rounds_per_s: per_s(&|w| w.ticks as f64 / correct, None),
        // The thread's CPU time, less the share of the wall clock that the
        // benchmark's own spans took.
        cpu_us_per_delivery: cpu_ns as f64 * (stack_ns as f64 / wall_ns as f64)
            / deliveries.max(1) as f64
            / 1e3,
        cpu_share: cpu_ns as f64 / wall_ns as f64,
        overhead_ratio: if trace {
            per_s(&delivered, Some(true)) / per_s(&delivered, Some(false))
        } else {
            1.0
        },
        ledger: trace.then_some(ledger),
        stats,
        node_rounds,
        stack_s: life_stack_ns as f64 / 1e9,
        hostile_dgrams: flood_sent,
        spans: Some(spans),
        ..RunData::default()
    })
}
