//! The measurement harness of §8 on real sockets: clusters of UDP engines
//! on shard threads, optional malicious members and an attacker, and the
//! delivery log of the paper's metrics, latency and throughput. The
//! figures run the same nodes in virtual time on [`crate::VirtualCluster`]
//! and read the same log through [`ThroughputReport::from_log`].

use std::time::{Duration, Instant};

use drum_core::bytes::Bytes;

use drum_core::config::{AdversaryKind, ProtocolVariant};
use drum_core::ids::ProcessId;
use drum_crypto::keys::KeyStore;
use drum_metrics::stats::RunningStats;

use crate::attack::{Attacker, Flood};
use crate::node::{seed_of, NetConfig, NetStats};
use crate::recorder::receiver_report;
pub use crate::recorder::{encode_payload, Arrival};
use crate::runtime::{Delivery, ProcessSpec};
use crate::shard::{spawn_shard, EngineHandle, ShardHandle};
use crate::transport::{AblationSockets, AddressBook, WellKnownSockets};

/// Scenario description for a networked cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total group size (correct + malicious).
    pub n: usize,
    /// Malicious members: present in every membership list, but running no
    /// engine — they silently discard whatever is sent to them, and host
    /// the attack (§7: "they do not propagate any messages, and instead
    /// perform DoS attacks only on correct processes").
    pub malicious: usize,
    /// Number of attacked correct processes (the source, id 0, first).
    pub attacked: usize,
    /// Fabricated messages per attacked process per round.
    pub x_per_round: f64,
    /// Number of shard event loops to spread the correct processes over
    /// (each shard drives its engines from one thread; see
    /// [`crate::shard`]). `0` (with `engines_per_shard` also 0) means one
    /// shard per available core, at most one per correct process.
    pub shards: usize,
    /// Alternative shard sizing: cap on engines per shard (the shard count
    /// is derived). Takes precedence over `shards` when nonzero.
    pub engines_per_shard: usize,
    /// Runtime configuration shared by all processes.
    pub net: NetConfig,
    /// Base RNG seed.
    pub seed: u64,
    /// How the attacker aims its flood ([`paper_cluster_config`] states the
    /// paper's [`AdversaryKind::Static`]).
    pub adversary: AdversaryKind,
}

impl ClusterConfig {
    /// Number of correct processes.
    pub fn correct(&self) -> usize {
        self.n - self.malicious
    }

    /// The number of shard event loops [`Cluster::start`] spawns, always
    /// in `1..=correct`.
    pub fn resolved_shards(&self) -> usize {
        resolve_shards(self.correct(), self.shards, self.engines_per_shard)
    }
}

/// Shard-layout policy (see [`ClusterConfig::resolved_shards`]):
/// `engines_per_shard` beats `shards` beats one shard per available core.
pub fn resolve_shards(correct: usize, shards: usize, engines_per_shard: usize) -> usize {
    if engines_per_shard > 0 {
        correct.div_ceil(engines_per_shard)
    } else if shards > 0 {
        shards.min(correct)
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(correct)
    }
}

/// How [`Cluster::start`] deals `correct` engines to `shards` shards:
/// contiguous, balanced chunks in id order, the first `correct % shards`
/// taking one extra engine, so handle index keeps equalling process id.
fn shard_sizes(correct: usize, shards: usize) -> impl Iterator<Item = usize> {
    let (base, extra) = (correct / shards, correct % shards);
    (0..shards).map(move |s| base + usize::from(s < extra))
}

/// A handle to one correct cluster node. A one-variant enum because
/// `benchmark/` destructures it with `let … else` (which `non_exhaustive`
/// keeps refutable there); it becomes an alias of [`EngineHandle`] at
/// benchmark v2.
#[derive(Debug)]
#[non_exhaustive]
pub enum NodeHandle {
    /// An engine on a shard ([`spawn_shard`]); the owning [`ShardHandle`]
    /// carries shutdown.
    Sharded(EngineHandle),
}

impl NodeHandle {
    fn engine(&self) -> &EngineHandle {
        let NodeHandle::Sharded(engine) = self;
        engine
    }

    /// The node's process id.
    pub fn id(&self) -> ProcessId {
        self.engine().id()
    }

    /// Queues a payload for multicast origination at this node's next
    /// round start.
    pub fn publish(&self, payload: Bytes) {
        self.engine().publish(payload)
    }

    /// Drains everything currently delivered.
    pub fn take_delivered(&self) -> Vec<Delivery> {
        self.engine().take_delivered()
    }
}

/// Slices a cluster's attacker cuts each round into, so that the victims
/// see pressure throughout their unaligned rounds.
const ATTACK_SLICES: u32 = 10;

/// A running cluster.
pub struct Cluster {
    handles: Vec<NodeHandle>,
    shards: Vec<ShardHandle>,
    attacker: Option<Attacker>,
    /// Malicious members' sockets: held open so their ports exist (and
    /// silently drop everything), mirroring non-cooperating group members.
    _malicious_sockets: Vec<WellKnownSockets>,
    epoch: Instant,
    config: ClusterConfig,
}

impl Cluster {
    /// Binds, spawns and, when the scenario floods attacked processes,
    /// starts the attacker: the scenario's [`Flood`] in ten slices a
    /// round, from the `drum-attacker` thread, until shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidInput`] for an adversary that
    /// cannot run ([`AdversaryKind::is_valid`]) before binding anything;
    /// propagates socket errors.
    ///
    /// # Panics
    ///
    /// Panics if `malicious + 1 > n` or `attacked > correct`.
    pub fn start(config: ClusterConfig) -> std::io::Result<Cluster> {
        assert!(config.correct() >= 2, "need at least two correct processes");
        assert!(
            config.attacked <= config.correct(),
            "attacked exceeds correct processes"
        );
        if !config.adversary.is_valid() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "adversary {:?} cannot run: chase cadence must be at least 1 round",
                    config.adversary
                ),
            ));
        }

        let key_store = KeyStore::new(config.seed);
        let members: Vec<ProcessId> = (0..config.n as u64).map(ProcessId).collect();
        let correct = config.correct();

        // Bind well-known sockets for everyone (including malicious
        // members) before building the shared address book.
        let ablation_mode = !config.net.gossip.random_ports;
        let mut correct_sockets = Vec::with_capacity(correct);
        let mut malicious_sockets = Vec::new();
        let mut entries = Vec::with_capacity(config.n);
        let mut ablation_addrs = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            let (sockets, addrs) = WellKnownSockets::bind()?;
            entries.push((m, addrs));
            if i < correct {
                let ablation = if ablation_mode {
                    let (sock, addrs) = AblationSockets::bind()?;
                    ablation_addrs.push(addrs);
                    Some(sock)
                } else {
                    None
                };
                correct_sockets.push((m, sockets, ablation));
            } else {
                malicious_sockets.push(sockets);
            }
        }
        let book = AddressBook::new(entries);

        let specs: Vec<ProcessSpec> = correct_sockets
            .into_iter()
            .map(|(m, sockets, ablation)| {
                let my_key = key_store.register(m.as_u64());
                ProcessSpec {
                    me: m,
                    members: members.clone(),
                    book: book.clone(),
                    key_store: key_store.clone(),
                    my_key,
                    sockets,
                    ablation,
                    config: config.net.clone(),
                    seed: config.seed ^ seed_of(m),
                }
            })
            .collect();

        let shard_count = config.resolved_shards();
        let mut handles = Vec::with_capacity(correct);
        let mut shards = Vec::with_capacity(shard_count);
        let mut specs = specs.into_iter();
        for size in shard_sizes(correct, shard_count) {
            let chunk = specs.by_ref().take(size).collect();
            let (shard, engines) = spawn_shard(chunk)?;
            shards.push(shard);
            handles.extend(engines.into_iter().map(NodeHandle::Sharded));
        }

        let epoch = Instant::now();
        let attacker = if config.x_per_round > 0.0 && config.attacked > 0 {
            let targets: Vec<_> = (0..config.attacked as u64)
                .filter_map(|i| book.addrs_of(ProcessId(i)))
                .collect();
            // §9: against well-known reply ports the adversary splits its
            // pull budget between the request and reply ports.
            let reply_ports: Vec<_> = ablation_addrs
                .iter()
                .take(config.attacked)
                .map(|a| a.pull_reply)
                .collect();
            let flood = Flood::new(
                config.adversary,
                config.net.gossip.variant,
                config.x_per_round,
                targets.len(),
                ablation_mode,
                ATTACK_SLICES,
            );
            let (slice, tracer) = (config.net.round / ATTACK_SLICES, config.net.tracer.clone());
            Some(Attacker::spawn(flood, slice, targets, reply_ports, tracer)?)
        } else {
            None
        };
        Ok(Cluster {
            handles,
            shards,
            attacker,
            _malicious_sockets: malicious_sockets,
            epoch,
            config,
        })
    }

    /// The scenario this cluster runs.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Handles of the correct processes (index = process id).
    pub fn handles(&self) -> &[NodeHandle] {
        &self.handles
    }

    /// Publishes a timestamped payload from the source (process 0).
    pub fn publish_from_source(&self, seq: u64, payload_len: usize) {
        let payload = encode_payload(self.epoch.elapsed(), seq, payload_len);
        self.handles[0].publish(payload);
    }

    /// Drains every handle once, logging each experiment payload
    /// delivered since the last call (other payloads are dropped).
    pub fn collect(&self, log: &mut Vec<Arrival>) {
        for (receiver, h) in self.handles.iter().enumerate() {
            log.extend(h.take_delivered().into_iter().filter_map(|d| {
                let at = d.at.saturating_duration_since(self.epoch);
                Arrival::of(receiver, &d.message.payload, at)
            }));
        }
    }

    /// Collects into `log` until `done(log)` holds or `deadline` passes;
    /// returns whether `done` held. Arrivals carry their own times, so the
    /// poll interval moves no measurement.
    pub fn collect_until(
        &self,
        log: &mut Vec<Arrival>,
        deadline: Instant,
        mut done: impl FnMut(&[Arrival]) -> bool,
    ) -> bool {
        loop {
            self.collect(log);
            if done(log) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
        }
    }

    /// Stops everything; returns per-process stats (index = process id —
    /// shards return their engines' stats in spawn order, which start
    /// chose to match id order).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of a shard thread.
    pub fn shutdown(mut self) -> Vec<NetStats> {
        if let Some(a) = self.attacker.take() {
            a.shutdown();
        }
        // Every shard winds down at once; joining one at a time would
        // serialize their epoll wait caps.
        self.shards.iter().for_each(ShardHandle::request_stop);
        let out: Vec<NetStats> = self
            .shards
            .drain(..)
            .flat_map(ShardHandle::shutdown)
            .collect();
        assert_eq!(out.len(), self.handles.len(), "one stats entry per node");
        out
    }
}

/// Per-receiver results of a throughput experiment.
#[derive(Debug, Clone)]
pub struct ReceiverReport {
    /// The receiving process.
    pub id: ProcessId,
    /// Whether this receiver was under attack.
    pub attacked: bool,
    /// Steady-state received throughput (msgs/s, 5% trim).
    pub throughput: f64,
    /// Mean delivery latency in ms.
    pub mean_latency_ms: f64,
    /// Messages received.
    pub received: u64,
}

/// Aggregate results of a throughput experiment (Figures 10–11).
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// One entry per correct receiver (the source excluded).
    pub receivers: Vec<ReceiverReport>,
    /// Length of the measured window in seconds: the source's send period.
    pub duration_secs: f64,
    /// Messages published.
    pub published: u64,
    /// The correct processes' [`NetStats`], summed, the shard-wide counts
    /// once per shard: per delivery `compress_calls` reads ≈ 3 for
    /// 50-byte payloads, per engine-round `sockets_opened` well under 1,
    /// `shard_wakeups` ≈ 1.4 and `shard_sleeps` ≈ 0.17, per port
    /// `port_syscalls` ≈ 3.2.
    pub totals: NetStats,
}

impl ThroughputReport {
    /// The §8.2 figures of a delivery log: one report per receiver
    /// `1..correct`, the first `attacked` processes attacked, over a run
    /// whose source sent `published` messages for `duration_secs`.
    pub fn from_log(
        log: &[Arrival],
        correct: usize,
        attacked: usize,
        published: u64,
        duration_secs: f64,
        totals: NetStats,
    ) -> ThroughputReport {
        ThroughputReport {
            receivers: (1..correct)
                .map(|i| receiver_report(log, i, i < attacked, duration_secs))
                .collect(),
            duration_secs,
            published,
            totals,
        }
    }

    /// Mean received throughput over all receivers.
    pub fn mean_throughput(&self) -> f64 {
        let s: RunningStats = self.receivers.iter().map(|r| r.throughput).collect();
        s.mean()
    }

    /// Mean latency over the means of the receivers that got at least one
    /// message; 0 when none did. A starved receiver has no latency, not a
    /// 0 ms one.
    pub fn mean_latency_ms(&self) -> f64 {
        let s: RunningStats = self.reached().map(|r| r.mean_latency_ms).collect();
        s.mean()
    }

    /// [`mean_latency_ms`](Self::mean_latency_ms) among attacked receivers
    /// only.
    pub fn mean_latency_attacked_ms(&self) -> f64 {
        let s: RunningStats = self
            .reached()
            .filter(|r| r.attacked)
            .map(|r| r.mean_latency_ms)
            .collect();
        s.mean()
    }

    fn reached(&self) -> impl Iterator<Item = &ReceiverReport> {
        self.receivers.iter().filter(|r| r.received > 0)
    }
}

/// Runs the §8.2 experiment: the source multicasts `total_messages` at
/// `rate_per_sec`; every other correct process records received throughput
/// and latency. Returns after the send completes plus a drain period.
pub fn throughput_experiment(
    config: ClusterConfig,
    total_messages: u64,
    rate_per_sec: f64,
    payload_len: usize,
    drain: Duration,
) -> std::io::Result<ThroughputReport> {
    let (correct, attacked) = (config.correct(), config.attacked);
    let cluster = Cluster::start(config)?;
    let mut log = Vec::new();
    let interval = Duration::from_secs_f64(1.0 / rate_per_sec);
    // Message `seq` is due `seq × interval` after the epoch; the log
    // fills while the source waits.
    for seq in 0..total_messages {
        let due = cluster.epoch + interval.mul_f64(seq as f64);
        cluster.collect_until(&mut log, due, |_| false);
        cluster.publish_from_source(seq, payload_len);
    }
    // The measurement window is the active send period (the paper's runs
    // are dominated by it); the drain only collects stragglers.
    let sent = cluster.epoch.elapsed().as_secs_f64();
    cluster.collect_until(&mut log, Instant::now() + drain, |_| false);
    let totals = cluster.shutdown().into_iter().sum();
    let report = ThroughputReport::from_log(&log, correct, attacked, total_messages, sent, totals);
    Ok(report)
}

/// Convenience constructor matching the paper's §8 scenario shape:
/// `n` processes, 10% malicious, `attacked` correct processes flooded with
/// `x` messages per round by the static adversary.
pub fn paper_cluster_config(
    variant: ProtocolVariant,
    n: usize,
    attacked: usize,
    x: f64,
    round: Duration,
    seed: u64,
) -> ClusterConfig {
    let gossip = match variant {
        ProtocolVariant::Drum => drum_core::config::GossipConfig::drum(),
        ProtocolVariant::Push => drum_core::config::GossipConfig::push(),
        ProtocolVariant::Pull => drum_core::config::GossipConfig::pull(),
    };
    ClusterConfig {
        n,
        malicious: n / 10,
        attacked,
        x_per_round: x,
        shards: 0,
        engines_per_shard: 0,
        net: NetConfig::new(gossip).with_round(round),
        seed,
        adversary: AdversaryKind::Static,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::tests::arrival;

    fn small_config(variant: ProtocolVariant, attacked: usize, x: f64) -> ClusterConfig {
        paper_cluster_config(variant, 8, attacked, x, Duration::from_millis(40), 7)
    }

    #[test]
    fn payload_round_trip() {
        let sent = Duration::from_micros(1_250);
        let payload = encode_payload(sent, 42, 50);
        assert_eq!(payload.len(), 50);
        let at = Duration::from_millis(9);
        let got = Arrival::of(3, &payload, at).unwrap();
        assert_eq!((got.receiver, got.seq, got.sent, got.at), (3, 42, sent, at));
        assert_eq!(Arrival::of(3, &[0u8; 15], at), None);
    }

    #[test]
    fn starved_receiver_has_no_latency() {
        // Receiver 3 got nothing, so its own mean and throughput read 0;
        // receiver 1 is the attacked one.
        let log = [arrival(1, 0.5, 40.0), arrival(2, 0.5, 20.0)];
        let report = ThroughputReport::from_log(&log, 4, 2, 10, 1.0, NetStats::default());
        assert_eq!(report.mean_latency_ms(), 30.0);
        assert_eq!(report.mean_latency_attacked_ms(), 40.0);
        let starved = &report.receivers[2];
        assert_eq!((starved.received, starved.throughput), (0, 0.0));
    }

    /// The log times a delivery when it arrived, not when it was
    /// collected: collected 500 ms after the publish, its latency is still
    /// well under the 40 ms-round cluster's spread time.
    #[test]
    fn a_late_collection_logs_the_arrival_latency() {
        let cluster = Cluster::start(small_config(ProtocolVariant::Drum, 0, 0.0)).unwrap();
        cluster.publish_from_source(0, 50);
        std::thread::sleep(Duration::from_millis(500));
        let mut log = Vec::new();
        cluster.collect(&mut log);
        let collected = cluster.epoch.elapsed();
        cluster.shutdown();
        assert!(!log.is_empty(), "nothing arrived within 500 ms");
        for a in &log {
            assert_eq!(a.seq, 0);
            assert!(a.at <= collected, "{a:?} arrived after it was collected");
        }
        let mean: RunningStats = log.iter().map(Arrival::latency_ms).collect();
        assert!(mean.mean() < 400.0, "mean latency {} ms", mean.mean());
    }

    #[test]
    fn cluster_delivers_throughput_without_attack() {
        let report = throughput_experiment(
            small_config(ProtocolVariant::Drum, 0, 0.0),
            20,
            50.0,
            50,
            Duration::from_millis(1500),
        )
        .unwrap();
        assert_eq!(report.published, 20);
        // Every receiver should get most messages.
        for r in &report.receivers {
            assert!(r.received >= 15, "{:?} received only {}", r.id, r.received);
            assert!(r.mean_latency_ms > 0.0);
        }
        assert!(report.mean_throughput() > 0.0);
    }

    /// `Cluster::start` seeds node `m` with `seed ^ seed_of(m)`: each node
    /// must then draw its own round jitter (and loss and reservoir draws),
    /// not one stream shared by the whole cluster.
    #[test]
    fn cluster_nodes_draw_their_own_round_jitter() {
        let config = small_config(ProtocolVariant::Drum, 0, 0.0);
        let keys = KeyStore::new(config.seed);
        let members: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let gaps: Vec<Vec<Duration>> = members
            .iter()
            .map(|&m| {
                let key = keys.register(m.as_u64());
                let seed = config.seed ^ seed_of(m);
                let net = config.net.clone();
                let mut node = crate::Node::new(m, members.clone(), keys.clone(), key, net, seed);
                let mut prev = Instant::now();
                (0..5)
                    .map(|_| {
                        let next = node.next_deadline(prev, prev);
                        let gap = next - prev;
                        prev = next;
                        gap
                    })
                    .collect()
            })
            .collect();
        for a in 0..gaps.len() {
            for b in a + 1..gaps.len() {
                assert_ne!(gaps[a], gaps[b], "nodes {a} and {b} share a jitter stream");
            }
        }
    }

    #[test]
    fn cluster_refuses_a_chase_without_cadence() {
        let mut config = small_config(ProtocolVariant::Drum, 2, 64.0);
        config.adversary = AdversaryKind::TargetChasing { every: 0 };
        let err = Cluster::start(config).err().expect("cluster started");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// Whether each engine of a cluster is the first of its shard: the
    /// one that reports the shard-wide counts.
    fn shard_firsts(config: &ClusterConfig) -> Vec<bool> {
        shard_sizes(config.correct(), config.resolved_shards())
            .flat_map(|size| (0..size).map(|i| i == 0))
            .collect()
    }

    #[test]
    fn cluster_stats_expose_syscall_accounting() {
        let config = small_config(ProtocolVariant::Drum, 0, 0.0);
        let firsts = shard_firsts(&config);
        let cluster = Cluster::start(config).unwrap();
        cluster.publish_from_source(0, 50);
        std::thread::sleep(Duration::from_millis(400));
        let stats = cluster.shutdown();
        assert_eq!(stats.len(), firsts.len());
        for (s, first) in stats.iter().zip(firsts) {
            // Every round gossips, so both syscall totals must be live,
            // and every datagram received moved through `recvmmsg`; a
            // shard reports them on its first engine alone.
            assert!(s.rounds > 0);
            let shard_wide = [s.syscalls_recv, s.syscalls_send, s.batch_recv_datagrams];
            if first {
                assert!(shard_wide.iter().all(|&c| c > 0), "a count is 0: {s:?}");
            } else {
                assert_eq!(shard_wide, [0; 3], "counted twice: {s:?}");
            }
        }
    }

    #[test]
    fn shard_layout_resolution() {
        // engines_per_shard beats shards beats one shard per core.
        assert_eq!(resolve_shards(10, 3, 0), 3);
        assert_eq!(resolve_shards(2, 8, 0), 2);
        assert_eq!(resolve_shards(10, 3, 4), 3); // ceil(10/4)
        assert_eq!(resolve_shards(1000, 0, 64), 16);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(resolve_shards(10, 0, 0), cores.min(10));
        assert_eq!(resolve_shards(1, 0, 0), 1);
    }

    #[test]
    fn sharded_cluster_delivers_and_reports_stats_in_id_order() {
        use drum_trace::{MemorySink, Tracer, Value};

        // 8 correct engines as chunks of 4 + 4, then one per shard (the
        // layout that stands for a process per thread).
        for shards in [2, 8] {
            let mut config = small_config(ProtocolVariant::Drum, 0, 0.0);
            config.shards = shards;
            let firsts = shard_firsts(&config);
            let sink = std::sync::Arc::new(MemorySink::new());
            config.net.tracer = Tracer::new(sink.clone());
            let cluster = Cluster::start(config).unwrap();
            assert_eq!(cluster.shards.len(), shards);
            assert_eq!(cluster.handles().len(), 8);
            for (i, h) in cluster.handles().iter().enumerate() {
                assert_eq!(h.id(), ProcessId(i as u64));
            }

            cluster.publish_from_source(0, 50);
            let got = |log: &[Arrival]| {
                let mut got = [false; 8];
                got[0] = true;
                log.iter().for_each(|a| got[a.receiver] = true);
                got
            };
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut log = Vec::new();
            cluster.collect_until(&mut log, deadline, |log| got(log).iter().all(|g| *g));
            let got = got(&log);
            assert!(got.iter().all(|g| *g), "undelivered receivers: {got:?}");

            // Entry i must be node i's: each node's `proc.stop` event
            // names the node and repeats its final counters.
            let stats = cluster.shutdown();
            assert_eq!(stats.len(), 8);
            let events = sink.take();
            for ((i, s), first) in stats.iter().enumerate().zip(firsts) {
                let me = Some(&Value::U64(i as u64));
                let stop = events
                    .iter()
                    .find(|e| e.name == "proc.stop" && e.field("me") == me)
                    .expect("one proc.stop per node");
                assert!(s.rounds > 0, "engine ran no rounds: {s:?}");
                assert_eq!(stop.field("rounds"), Some(&Value::U64(s.rounds)));
                assert_eq!(stop.field("sent"), Some(&Value::U64(s.sent)));
                assert_eq!(stop.field("received"), Some(&Value::U64(s.received)));
                // A shard accounts syscalls once and reports the totals
                // on its first engine: engines 0 and 4 of two shards,
                // every engine of eight.
                assert_eq!(first, shards == 8 || i % 4 == 0);
                let shard_wide = [s.syscalls_recv, s.syscalls_send];
                if first {
                    assert!(shard_wide.iter().all(|&c| c > 0), "a count is 0: {s:?}");
                } else {
                    assert_eq!(shard_wide, [0; 2], "counted twice: {s:?}");
                }
            }
        }
    }

    #[test]
    fn sharded_cluster_survives_attack() {
        let mut config = small_config(ProtocolVariant::Drum, 2, 64.0);
        config.engines_per_shard = 3; // ceil(8/3) = 3 shards
        let report =
            throughput_experiment(config, 15, 50.0, 50, Duration::from_millis(1500)).unwrap();
        let total: u64 = report.receivers.iter().map(|r| r.received).sum();
        assert!(total > 0, "attack silenced the sharded cluster");
    }
}
