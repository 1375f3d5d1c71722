//! The measurement harness of §8: real clusters of UDP engines on shard
//! threads, optional malicious members and attackers, and the paper's
//! latency / throughput / propagation-round metrics.

use std::time::{Duration, Instant};

use drum_core::bytes::{Bytes, BytesMut};

use drum_core::config::ProtocolVariant;
use drum_core::ids::ProcessId;
use drum_crypto::keys::KeyStore;
use drum_metrics::recorder::{LatencyRecorder, ThroughputRecorder};
use drum_metrics::stats::{quantile_in_place, RunningStats};

use crate::attack::{spawn_attacker, AttackerConfig, AttackerHandle, FloodStrategy};
use crate::runtime::{seed_of, Delivery, NetConfig, NetStats, ProcessSpec};
use crate::shard::{spawn_shard, EngineHandle, ShardHandle};
use crate::transport::{AblationSockets, AddressBook, WellKnownAddrs, WellKnownSockets};

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
    /// How the attacker aims its flood. [`paper_cluster_config`] seeds this
    /// from the `DRUM_ADVERSARY` environment knob; callers with an explicit
    /// scenario (tests, `--adversary`) overwrite it.
    pub adversary: FloodStrategy,
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

/// A running cluster.
pub struct Cluster {
    handles: Vec<NodeHandle>,
    shards: Vec<ShardHandle>,
    attacker: Option<AttackerHandle>,
    /// Flood aim retained from startup so the attack can be toggled
    /// mid-run ([`Cluster::set_attack`]); §8 runs start it once and leave
    /// it, soak runs flip it on and off.
    attack_targets: Vec<WellKnownAddrs>,
    attack_reply_ports: Vec<std::net::SocketAddr>,
    /// Malicious members' sockets: held open so their ports exist (and
    /// silently drop everything), mirroring non-cooperating group members.
    _malicious_sockets: Vec<WellKnownSockets>,
    epoch: Instant,
    config: ClusterConfig,
}

impl Cluster {
    /// Binds, spawns and (if configured) starts attacking.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
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

        // Contiguous, balanced chunks in id order: the first
        // `correct % shard_count` shards take one extra engine, so handle
        // index keeps equalling process id.
        let shard_count = config.resolved_shards();
        let mut handles = Vec::with_capacity(correct);
        let mut shards = Vec::with_capacity(shard_count);
        let mut specs = specs.into_iter();
        let (base, extra) = (correct / shard_count, correct % shard_count);
        for s in 0..shard_count {
            let chunk = specs.by_ref().take(base + usize::from(s < extra)).collect();
            let (shard, engines) = spawn_shard(chunk)?;
            shards.push(shard);
            handles.extend(engines.into_iter().map(NodeHandle::Sharded));
        }

        let attack_targets: Vec<WellKnownAddrs> = (0..config.attacked as u64)
            .filter_map(|i| book.addrs_of(ProcessId(i)))
            .collect();
        // §9: against well-known reply ports the adversary splits its
        // pull budget between the request and reply ports.
        let attack_reply_ports: Vec<std::net::SocketAddr> = if ablation_mode {
            ablation_addrs
                .iter()
                .take(config.attacked)
                .map(|a| a.pull_reply)
                .collect()
        } else {
            Vec::new()
        };

        let mut cluster = Cluster {
            handles,
            shards,
            attacker: None,
            attack_targets,
            attack_reply_ports,
            _malicious_sockets: malicious_sockets,
            epoch: Instant::now(),
            config,
        };
        let x = cluster.config.x_per_round;
        cluster.set_attack(x)?;
        Ok(cluster)
    }

    /// Starts (`x_per_round > 0`) or stops (`x_per_round <= 0`) the
    /// fabricated-message flood against the targets fixed at startup,
    /// replacing any attacker already running. Soak runs use this to
    /// toggle the flood mid-experiment; it is a no-op when the scenario
    /// configured no attacked processes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from spawning the attacker.
    pub fn set_attack(&mut self, x_per_round: f64) -> std::io::Result<()> {
        if let Some(a) = self.attacker.take() {
            a.shutdown();
        }
        if x_per_round <= 0.0 || self.attack_targets.is_empty() {
            return Ok(());
        }
        let mut attacker_config = AttackerConfig::new(
            x_per_round,
            self.config.net.round,
            self.config.net.gossip.variant,
        );
        attacker_config.tracer = self.config.net.tracer.clone();
        attacker_config.strategy = self.config.adversary.clone();
        attacker_config.reply_port_targets = self.attack_reply_ports.clone();
        self.attacker = Some(spawn_attacker(
            self.attack_targets.clone(),
            attacker_config,
        )?);
        Ok(())
    }

    /// Whether a flood is currently running.
    pub fn attack_running(&self) -> bool {
        self.attacker.is_some()
    }

    /// Cluster start instant (latency epoch).
    pub fn epoch(&self) -> Instant {
        self.epoch
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
        let payload = encode_payload(self.epoch, seq, payload_len);
        self.handles[0].publish(payload);
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

/// Encodes the standard experiment payload: sequence number + microseconds
/// since the cluster epoch, zero-padded to `len` bytes (the paper uses
/// 50-byte messages).
pub fn encode_payload(epoch: Instant, seq: u64, len: usize) -> Bytes {
    let micros = epoch.elapsed().as_micros() as u64;
    let mut out = BytesMut::with_capacity(len.max(16));
    out.put_u64(seq);
    out.put_u64(micros);
    while out.len() < len {
        out.put_u8(0);
    }
    out.freeze()
}

/// Decodes `(seq, send_micros)` from an experiment payload.
///
/// Returns `None` for payloads shorter than 16 bytes.
pub fn decode_payload(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() < 16 {
        return None;
    }
    let seq = u64::from_be_bytes(payload[0..8].try_into().ok()?);
    let micros = u64::from_be_bytes(payload[8..16].try_into().ok()?);
    Some((seq, micros))
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
    /// Wall-clock duration of the measured window in seconds.
    pub duration_secs: f64,
    /// Messages published.
    pub published: u64,
    /// Local rounds executed, summed over the correct processes.
    pub rounds: u64,
    /// Epoll wakeups taken by the shard event loops (`net.shard_wakeups`).
    /// Per round it tracks the datagrams a round brings, and explodes if a
    /// loop ever polls.
    pub shard_wakeups: u64,
    /// New data messages the correct processes' engines delivered.
    pub delivered: u64,
    /// SHA-256 kernel calls behind their source verification
    /// (`crypto.compress_calls`). Per delivery it reads ≈ 3 for 50-byte
    /// payloads on the direct path, less through the 8-lane kernel — and
    /// several times that if duplicates are ever verified again.
    pub compress_calls: u64,
    /// Descriptors their random-port pools opened (`net.sockets_opened`).
    /// Per engine-round it reads well under 1 — pools open descriptors
    /// while they grow, then only rotate ports — and ~6 if every port
    /// costs a fresh socket again.
    pub sockets_opened: u64,
    /// Random-port allocations that could bind nothing
    /// (`net.bind_failed`): non-zero means descriptor or port exhaustion
    /// is being absorbed by re-advertising older ports.
    pub bind_failed: u64,
}

impl ThroughputReport {
    /// Mean received throughput over all receivers.
    pub fn mean_throughput(&self) -> f64 {
        let s: RunningStats = self.receivers.iter().map(|r| r.throughput).collect();
        s.mean()
    }

    /// Mean latency over all receivers' means.
    pub fn mean_latency_ms(&self) -> f64 {
        let s: RunningStats = self.receivers.iter().map(|r| r.mean_latency_ms).collect();
        s.mean()
    }

    /// Mean latency among attacked receivers only.
    pub fn mean_latency_attacked_ms(&self) -> f64 {
        let s: RunningStats = self
            .receivers
            .iter()
            .filter(|r| r.attacked)
            .map(|r| r.mean_latency_ms)
            .collect();
        s.mean()
    }

    /// Per-receiver average latencies, for CDF plots (Figure 11).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.receivers.iter().map(|r| r.mean_latency_ms).collect()
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
    let cluster = Cluster::start(config.clone())?;
    let epoch = cluster.epoch();
    let interval = Duration::from_secs_f64(1.0 / rate_per_sec);

    let correct = config.correct();
    let mut latency = vec![LatencyRecorder::new(); correct];
    let mut throughput = vec![ThroughputRecorder::new(); correct];

    let drain_deliveries = |latency: &mut Vec<LatencyRecorder>,
                            throughput: &mut Vec<ThroughputRecorder>,
                            cluster: &Cluster| {
        for (i, h) in cluster.handles().iter().enumerate() {
            for d in h.take_delivered() {
                let now_micros = epoch.elapsed().as_micros() as u64;
                if let Some((_seq, sent_micros)) = decode_payload(&d.message.payload) {
                    let lat_ms = (now_micros.saturating_sub(sent_micros)) as f64 / 1000.0;
                    let t_secs = now_micros as f64 / 1e6;
                    latency[i].record_at(t_secs, lat_ms);
                    throughput[i].record(t_secs);
                }
            }
        }
    };

    let mut next_send = Instant::now();
    for seq in 0..total_messages {
        let now = Instant::now();
        if next_send > now {
            std::thread::sleep(next_send - now);
        }
        cluster.publish_from_source(seq, payload_len);
        next_send += interval;
        drain_deliveries(&mut latency, &mut throughput, &cluster);
    }
    // The measurement window is the active send period (the paper's runs
    // are dominated by it); the drain below only collects stragglers.
    let send_duration_secs = epoch.elapsed().as_secs_f64();

    let drain_deadline = Instant::now() + drain;
    while Instant::now() < drain_deadline {
        drain_deliveries(&mut latency, &mut throughput, &cluster);
        std::thread::sleep(Duration::from_millis(5));
    }
    drain_deliveries(&mut latency, &mut throughput, &cluster);

    let duration_secs = send_duration_secs;
    let receivers = (1..correct)
        .map(|i| ReceiverReport {
            id: ProcessId(i as u64),
            attacked: i < config.attacked,
            throughput: throughput[i].paper_throughput(duration_secs),
            // §8: latency, like throughput, ignores the first and last 5%
            // of the experiment *duration* (not of the sample count).
            mean_latency_ms: latency[i].paper_mean_ms(duration_secs),
            received: latency[i].received(),
        })
        .collect();

    let stats = cluster.shutdown();
    Ok(ThroughputReport {
        receivers,
        duration_secs,
        published: total_messages,
        rounds: stats.iter().map(|s| s.rounds).sum(),
        delivered: stats.iter().map(|s| s.delivered).sum(),
        compress_calls: stats.iter().map(|s| s.compress_calls).sum(),
        sockets_opened: stats.iter().map(|s| s.sockets_opened).sum(),
        bind_failed: stats.iter().map(|s| s.bind_failed).sum(),
        shard_wakeups: config
            .net
            .tracer
            .registry()
            .counter(drum_trace::names::SHARD_WAKEUPS)
            .get(),
    })
}

/// One phase of a soak run (calm → flood → recovery).
#[derive(Debug, Clone)]
pub struct SoakPhase {
    /// Phase label: `"calm"`, `"flood"` or `"recovery"`.
    pub name: &'static str,
    /// Wall-clock length of the phase in seconds.
    pub duration_secs: f64,
    /// Messages published by the source during the phase.
    pub published: u64,
    /// Deliveries observed across all receivers during the phase.
    pub delivered: u64,
    /// Mean per-receiver delivery rate during the phase (msgs/s).
    pub throughput: f64,
}

/// Aggregate results of [`soak_experiment`]: sustained multi-message load
/// with the fabricated-message flood toggled on and off mid-run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Calm / flood / recovery phases in run order.
    pub phases: Vec<SoakPhase>,
    /// Delivery-latency CDF over the whole run: `(quantile, ms)`.
    pub latency_cdf_ms: Vec<(f64, f64)>,
    /// Total messages published by the source.
    pub published: u64,
    /// Deliveries observed across all receivers. The engine dedups
    /// redundant gossip copies, so this is unique per `(receiver,
    /// message)`; `published × (correct − 1)` is full coverage.
    pub delivered: u64,
    /// Highest per-process message-buffer high-water mark (payload bytes
    /// plus per-entry overhead). Bounded buffers keep this flat as the
    /// run gets longer.
    pub buffer_bytes_peak: u64,
    /// Stream-scheduler submissions queued past the pacing window —
    /// backpressure accounting, never silent drops — summed over
    /// processes.
    pub backpressure: u64,
    /// [`NetStats::frames_sent`] summed over processes: 0, now that every
    /// gossip message leaves as a bare datagram (the soak test pins it).
    pub frames_sent: u64,
    /// Wall-clock duration of the publish window in seconds.
    pub duration_secs: f64,
}

impl SoakReport {
    /// Fraction of the full `published × receivers` coverage delivered.
    pub fn delivery_fraction(&self, receivers: u64) -> f64 {
        let expected = self.published * receivers;
        if expected == 0 {
            0.0
        } else {
            self.delivered as f64 / expected as f64
        }
    }
}

/// Runs the sustained-load soak behind `ext_soak`: the source publishes a
/// paced stream for `duration`, the flood switches ON for the middle
/// third of the run and OFF again for the final third, and every
/// receiver's delivery latency and throughput are tracked per phase.
///
/// `config.x_per_round` is ignored (the flood strength during the middle
/// phase is `flood_x`); everything else — group size, attacked count,
/// stream pacing via `config.net.stream` — comes from the scenario.
///
/// # Errors
///
/// Propagates socket errors.
pub fn soak_experiment(
    mut config: ClusterConfig,
    duration: Duration,
    rate_per_sec: f64,
    payload_len: usize,
    flood_x: f64,
    drain: Duration,
) -> std::io::Result<SoakReport> {
    // The flood is toggled mid-run, not at startup.
    config.x_per_round = 0.0;
    let mut cluster = Cluster::start(config.clone())?;
    let epoch = cluster.epoch();
    let interval = Duration::from_secs_f64(1.0 / rate_per_sec);
    let correct = config.correct();
    let phase_len = duration / 3;

    let mut latencies: Vec<f64> = Vec::new();
    let mut published = [0u64; 3];
    let mut delivered = [0u64; 3];

    let start = Instant::now();
    let deadline = start + duration;
    let phase_of = |now: Instant| -> usize {
        let t = now.saturating_duration_since(start);
        if t < phase_len {
            0
        } else if t < phase_len * 2 {
            1
        } else {
            2
        }
    };

    let drain_deliveries =
        |cluster: &Cluster, delivered: &mut [u64; 3], latencies: &mut Vec<f64>| {
            let phase = phase_of(Instant::now());
            for h in cluster.handles()[1..].iter() {
                for d in h.take_delivered() {
                    let now_micros = epoch.elapsed().as_micros() as u64;
                    if let Some((_seq, sent_micros)) = decode_payload(&d.message.payload) {
                        delivered[phase] += 1;
                        latencies.push((now_micros.saturating_sub(sent_micros)) as f64 / 1000.0);
                    }
                }
            }
        };

    let mut next_send = start;
    let mut seq = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let phase = phase_of(now);
        // Figure 7 toggle: flood for the middle third only.
        if (phase == 1) != cluster.attack_running() {
            cluster.set_attack(if phase == 1 { flood_x } else { 0.0 })?;
        }
        if now >= next_send {
            cluster.publish_from_source(seq, payload_len);
            seq += 1;
            published[phase] += 1;
            next_send += interval;
        }
        drain_deliveries(&cluster, &mut delivered, &mut latencies);
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.set_attack(0.0)?;
    let duration_secs = start.elapsed().as_secs_f64();

    let drain_deadline = Instant::now() + drain;
    while Instant::now() < drain_deadline {
        drain_deliveries(&cluster, &mut delivered, &mut latencies);
        std::thread::sleep(Duration::from_millis(5));
    }
    drain_deliveries(&cluster, &mut delivered, &mut latencies);

    let stats = cluster.shutdown();
    let receivers = (correct - 1).max(1) as f64;
    let phase_secs = phase_len.as_secs_f64();
    let phases = ["calm", "flood", "recovery"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| SoakPhase {
            name,
            duration_secs: phase_secs,
            published: published[i],
            delivered: delivered[i],
            throughput: if phase_secs > 0.0 {
                delivered[i] as f64 / receivers / phase_secs
            } else {
                0.0
            },
        })
        .collect();
    let latency_cdf_ms = if latencies.is_empty() {
        Vec::new()
    } else {
        [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99]
            .into_iter()
            .map(|q| (q, quantile_in_place(&mut latencies, q)))
            .collect()
    };

    Ok(SoakReport {
        phases,
        latency_cdf_ms,
        published: published.iter().sum(),
        delivered: delivered.iter().sum(),
        buffer_bytes_peak: stats.iter().map(|s| s.buffer_bytes_peak).max().unwrap_or(0),
        backpressure: stats.iter().map(|s| s.stream_backpressure).sum(),
        frames_sent: stats.iter().map(|s| s.frames_sent).sum(),
        duration_secs,
    })
}

/// Result of a propagation-rounds experiment (Figure 9).
#[derive(Debug, Clone)]
pub struct PropagationReport {
    /// Per tracked message: the §8.1 round counter at the
    /// 99th-percentile receiver.
    pub rounds_to_99: RunningStats,
    /// Messages that failed to reach 99% of the correct processes in time.
    pub incomplete: usize,
}

/// Tracks individual messages through a running cluster and reports the
/// per-message round counter (§8.1) at the 99th-percentile receiver.
///
/// `messages` are published `gap_rounds` round-durations apart; each is
/// given `timeout` to arrive everywhere.
pub fn propagation_experiment(
    config: ClusterConfig,
    messages: usize,
    gap_rounds: u32,
    timeout: Duration,
) -> std::io::Result<PropagationReport> {
    // §8.1 tracks single messages under the simulation's assumptions: the
    // tracked message "is never purged from any process's message buffer".
    // (§8.2's throughput experiments keep the 10-round purge.)
    let mut config = config;
    config.net.gossip.buffer_rounds = 0;
    let cluster = Cluster::start(config.clone())?;
    let correct = config.correct();
    let need = (((correct - 1) as f64) * 0.99).ceil() as usize;

    let mut stats = RunningStats::new();
    let mut incomplete = 0;

    for m in 0..messages {
        cluster.publish_from_source(m as u64, 50);
        let deadline = Instant::now() + timeout;
        // hops value logged by each receiver for this message
        let mut hops: Vec<f64> = Vec::with_capacity(correct - 1);
        while Instant::now() < deadline && hops.len() < need {
            for h in cluster.handles()[1..].iter() {
                for d in h.take_delivered() {
                    if let Some((seq, _)) = decode_payload(&d.message.payload) {
                        if seq == m as u64 {
                            hops.push(d.message.hops as f64);
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if hops.len() >= need {
            stats.push(quantile_in_place(&mut hops, 0.99));
        } else {
            incomplete += 1;
        }
        std::thread::sleep(cluster.config().net.round * gap_rounds);
    }

    cluster.shutdown();
    Ok(PropagationReport {
        rounds_to_99: stats,
        incomplete,
    })
}

/// Convenience constructor matching the paper's §8 scenario shape:
/// `n` processes, 10% malicious, `attacked` correct processes flooded with
/// `x` messages per round.
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
        adversary: FloodStrategy::from_env(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(variant: ProtocolVariant, attacked: usize, x: f64) -> ClusterConfig {
        paper_cluster_config(variant, 8, attacked, x, Duration::from_millis(40), 7)
    }

    #[test]
    fn payload_round_trip() {
        let epoch = Instant::now();
        let payload = encode_payload(epoch, 42, 50);
        assert_eq!(payload.len(), 50);
        let (seq, micros) = decode_payload(&payload).unwrap();
        assert_eq!(seq, 42);
        assert!(micros < 1_000_000);
        assert_eq!(decode_payload(&[0u8; 3]), None);
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

    #[test]
    fn cluster_survives_attack() {
        let report = throughput_experiment(
            small_config(ProtocolVariant::Drum, 2, 64.0),
            15,
            50.0,
            50,
            Duration::from_millis(1500),
        )
        .unwrap();
        let total: u64 = report.receivers.iter().map(|r| r.received).sum();
        assert!(total > 0, "attack silenced the whole cluster");
    }

    #[test]
    fn cluster_stats_expose_syscall_accounting() {
        let cluster = Cluster::start(small_config(ProtocolVariant::Drum, 0, 0.0)).unwrap();
        cluster.publish_from_source(0, 50);
        std::thread::sleep(Duration::from_millis(400));
        let stats = cluster.shutdown();
        for s in &stats {
            // Every round probes the well-known sockets and gossips, so
            // both syscall totals must be live on either I/O path.
            assert!(s.rounds > 0);
            assert!(s.syscalls_recv > 0, "no recv syscalls recorded: {s:?}");
            assert!(s.syscalls_send > 0, "no send syscalls recorded: {s:?}");
            // Batched datagram accounting only moves on the recvmmsg path.
            if !crate::sys::available() {
                assert_eq!(s.batch_recv_datagrams, 0);
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
            let sink = std::sync::Arc::new(MemorySink::new());
            config.net.tracer = Tracer::new(sink.clone());
            let cluster = Cluster::start(config).unwrap();
            assert_eq!(cluster.shards.len(), shards);
            assert_eq!(cluster.handles().len(), 8);
            for (i, h) in cluster.handles().iter().enumerate() {
                assert_eq!(h.id(), ProcessId(i as u64));
            }

            cluster.publish_from_source(0, 50);
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut got = [false; 8];
            got[0] = true;
            while Instant::now() < deadline && got.iter().any(|g| !g) {
                for (i, h) in cluster.handles().iter().enumerate() {
                    got[i] |= !h.take_delivered().is_empty();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(got.iter().all(|g| *g), "undelivered receivers: {got:?}");

            // Entry i must be node i's: each node's `proc.stop` event
            // names the node and repeats its final counters.
            let stats = cluster.shutdown();
            assert_eq!(stats.len(), 8);
            let events = sink.take();
            for (i, s) in stats.iter().enumerate() {
                let me = Some(&Value::U64(i as u64));
                let stop = events
                    .iter()
                    .find(|e| e.name == "proc.stop" && e.field("me") == me)
                    .expect("one proc.stop per node");
                assert!(s.rounds > 0, "engine ran no rounds: {s:?}");
                assert_eq!(stop.field("rounds"), Some(&Value::U64(s.rounds)));
                assert_eq!(stop.field("sent"), Some(&Value::U64(s.sent)));
                assert_eq!(stop.field("received"), Some(&Value::U64(s.received)));
                // A shard accounts syscalls once and mirrors the totals
                // into every engine's stats at shutdown.
                assert!(s.syscalls_recv > 0, "no recv syscalls recorded: {s:?}");
                assert!(s.syscalls_send > 0, "no send syscalls recorded: {s:?}");
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

    #[test]
    fn soak_toggles_flood_and_reports_phases() {
        let mut config = small_config(ProtocolVariant::Drum, 2, 0.0);
        // Pace the source stream so the scheduler (and its backpressure
        // accounting) is actually on the path.
        config.net.stream = drum_core::stream::StreamConfig::paced(4);
        let report = soak_experiment(
            config,
            Duration::from_millis(1200),
            100.0,
            50,
            64.0,
            Duration::from_millis(1500),
        )
        .unwrap();
        assert_eq!(report.phases.len(), 3);
        assert!(report.published > 0);
        for p in &report.phases {
            assert!(p.published > 0, "phase {} published nothing", p.name);
        }
        assert!(report.delivered > 0, "soak delivered nothing");
        assert!(!report.latency_cdf_ms.is_empty());
        assert!(report.buffer_bytes_peak > 0, "buffer peak never observed");
        // One wire shape: the runtime sends bare datagrams only.
        assert_eq!(report.frames_sent, 0);
    }

    #[test]
    fn cluster_attack_toggle_is_idempotent_and_guarded() {
        // No attacked processes: set_attack is a no-op.
        let mut cluster = Cluster::start(small_config(ProtocolVariant::Drum, 0, 0.0)).unwrap();
        cluster.set_attack(64.0).unwrap();
        assert!(!cluster.attack_running());
        cluster.shutdown();

        // Attacked processes: toggles on, replaces, and off.
        let mut cluster = Cluster::start(small_config(ProtocolVariant::Drum, 2, 0.0)).unwrap();
        assert!(!cluster.attack_running());
        cluster.set_attack(32.0).unwrap();
        assert!(cluster.attack_running());
        cluster.set_attack(64.0).unwrap();
        assert!(cluster.attack_running());
        cluster.set_attack(0.0).unwrap();
        assert!(!cluster.attack_running());
        cluster.shutdown();
    }

    #[test]
    fn propagation_reports_round_counters() {
        let report = propagation_experiment(
            small_config(ProtocolVariant::Drum, 0, 0.0),
            3,
            1,
            Duration::from_secs(5),
        )
        .unwrap();
        assert!(report.rounds_to_99.count() + report.incomplete as u64 == 3);
        if report.rounds_to_99.count() > 0 {
            let mean = report.rounds_to_99.mean();
            assert!((1.0..30.0).contains(&mean), "mean rounds {mean}");
        }
    }
}
