//! The virtual-time driver: [`VirtualCluster`] steps `n` [`Node`]s — the
//! protocol half the shard steps over UDP — on one thread, on a virtual
//! clock and an in-memory network. Every datagram is encoded and decoded
//! by the codec, well-known arrivals go through the staged reservoirs, and
//! random ports are checked against their purpose, exactly as on UDP; only
//! the sockets are virtual. A run is a function of its seed.
//!
//! Each node ticks at its own jittered deadline. After every tick the
//! network is drained until it is quiet: ticking all nodes and then
//! draining would clear each engine's `offered_to` before any push-reply
//! arrived and silently kill the push path.
//!
//! The network offers what a protocol experiment needs: the nodes' own
//! per-datagram loss draw ([`NetConfig::loss`]), per-link cuts that heal,
//! malicious members that every view names but that run no engine, and
//! the paper's static flood, fabricated by the same [`Flood`] the
//! cluster's attacker thread sends, into the attacked nodes' well-known
//! channels, at a strength that may change mid-run. Its ports are random
//! ports only: the no-random-ports ablation needs fixed reply sockets, and
//! runs on UDP.
//!
//! A §8 source streams experiment payloads ([`encode_payload`]) through a
//! node's stream scheduler ([`VirtualCluster::submit`]) as the clock
//! advances ([`VirtualCluster::run_until`]); every delivery of one is
//! logged as the [`Arrival`] that [`Cluster::collect`] logs on UDP, at the
//! virtual instant its node delivered it.
//!
//! [`encode_payload`]: crate::experiment::encode_payload
//! [`Cluster::collect`]: crate::experiment::Cluster::collect
//!
//! # Examples
//!
//! ```
//! use drum_core::bytes::Bytes;
//! use drum_core::config::GossipConfig;
//! use drum_net::{NetConfig, VirtualCluster};
//!
//! let mut net = VirtualCluster::new(8, NetConfig::new(GossipConfig::drum()), 42);
//! let id = net.publish(0, Bytes::from_static(b"hello"));
//! net.run_rounds(10);
//! assert_eq!(net.holders(id), 8);
//! ```

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use drum_core::bytes::{Bytes, BytesMut};
use drum_core::config::{AdversaryKind, ProtocolVariant};
use drum_core::engine::{Outbound, PortOracle, PortPurpose, SendPort};
use drum_core::ids::{MessageId, ProcessId, Round};
use drum_core::message::MessageKind;
use drum_crypto::keys::KeyStore;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::attack::Flood;
use crate::codec;
use crate::node::{Channel, NetConfig, Node, Ports};
use crate::recorder::Arrival;
use crate::shard::TimerWheel;

/// The virtual random ports of every node: each live port's owner,
/// purpose and birth round.
struct PortTable {
    next: u16,
    live: HashMap<u16, (usize, PortPurpose, Round)>,
    lifetime: u64,
}

/// One node's view of the [`PortTable`].
struct PortsOf<'a>(&'a mut PortTable, usize);

impl PortOracle for PortsOf<'_> {
    fn allocate_port(&mut self, purpose: PortPurpose, round: Round) -> u16 {
        let r = &mut *self.0;
        // Port 0 means a failed allocation; a live port is never reissued.
        r.next = r.next.wrapping_add(1);
        while r.next == 0 || r.live.contains_key(&r.next) {
            r.next = r.next.wrapping_add(1);
        }
        r.live.insert(r.next, (self.1, purpose, round));
        r.next
    }
}

impl Ports for PortsOf<'_> {
    fn expire(&mut self, now: Round) {
        let (owner, lifetime) = (self.1, self.0.lifetime);
        self.0
            .live
            .retain(|_, &mut (o, _, born)| o != owner || now.since(born) < lifetime);
    }
}

/// The in-memory network: datagrams in flight, in send order.
#[derive(Default)]
struct Wire {
    /// Destination node, channel and byte range in `bytes`.
    queue: VecDeque<(usize, Channel, usize, usize)>,
    bytes: BytesMut,
    /// Severed links, as `(lower, higher)` node pairs.
    cuts: Vec<(usize, usize)>,
}

impl Wire {
    /// Puts one of node `from`'s outbounds on the wire, towards one of `n`
    /// correct nodes, encoded for itself; a malicious member (id `n` or
    /// above) drops it.
    fn send(&mut self, from: usize, n: usize, ports: &PortTable, out: &Outbound) {
        let (to, channel) = match out.port {
            SendPort::Port(p) => match ports.live.get(&p) {
                Some(&(owner, purpose, _)) => (owner, Channel::Port(purpose)),
                // A port no node holds (never allocated, or expired) eats
                // the datagram: what protects a reply port from guessing.
                None => return,
            },
            SendPort::WellKnownPull => (
                out.to.as_u64() as usize,
                Channel::Staged(MessageKind::PullRequest),
            ),
            SendPort::WellKnownPush => (
                out.to.as_u64() as usize,
                Channel::Staged(MessageKind::PushOffer),
            ),
        };
        if to < n && !self.cuts.contains(&(from.min(to), from.max(to))) {
            let start = self.bytes.len();
            codec::encode_append(&out.msg, &mut self.bytes);
            self.queue.push_back((to, channel, start, self.bytes.len()));
        }
    }
}

/// A deterministic cluster of [`Node`]s on a virtual clock.
pub struct VirtualCluster {
    nodes: Vec<Node>,
    ports: PortTable,
    wheel: TimerWheel,
    wire: Wire,
    /// Rounds each node has started.
    ticks: Vec<u64>,
    /// Every experiment payload delivered, in delivery order.
    log: Vec<Arrival>,
    round: Duration,
    /// The virtual clock's origin, and its instant at the last step.
    epoch: Instant,
    now: Instant,
    attacked: Vec<usize>,
    /// The flood of whichever victim's round starts: one target, one slice
    /// a round (none until [`VirtualCluster::with_attack`]).
    flood: Flood,
}

/// The paper's static flood of one victim: `x` fabricated messages a
/// round, in one slice.
fn static_flood(variant: ProtocolVariant, x: f64) -> Flood {
    Flood::new(AdversaryKind::Static, variant, x, 1, false, 1)
}

impl VirtualCluster {
    /// Builds `n` correct nodes with ids `0..n`; see
    /// [`VirtualCluster::with_malicious`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, config: NetConfig, seed: u64) -> Self {
        Self::with_malicious(n, 0, config, seed)
    }

    /// Builds a group of `n` members with ids `0..n`, the last `malicious`
    /// of them the paper's malicious members: in every view, but running
    /// no engine, so whatever is sent to them is lost (§7). The correct
    /// nodes share one key store and `config`; each one's seed is drawn
    /// from one stream seeded by `seed`, and node `i`'s first round starts
    /// `i/correct` of a round after the first node's.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two members are correct.
    pub fn with_malicious(n: usize, malicious: usize, config: NetConfig, seed: u64) -> Self {
        let correct = n.saturating_sub(malicious);
        assert!(correct >= 2, "need at least two correct nodes");
        let key_store = KeyStore::new(seed);
        let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
        let mut seeds = SmallRng::seed_from_u64(seed);
        let nodes = members[..correct]
            .iter()
            .map(|&m| {
                let (keys, key) = (key_store.clone(), key_store.register(m.as_u64()));
                Node::new(
                    m,
                    members.clone(),
                    keys,
                    key,
                    config.clone(),
                    seeds.next_u64(),
                )
            })
            .collect();
        let now = Instant::now();
        let mut wheel = TimerWheel::new();
        for i in 0..correct {
            wheel.push(now + config.round * i as u32 / correct as u32, i);
        }
        VirtualCluster {
            nodes,
            ports: PortTable {
                next: 0,
                live: HashMap::new(),
                lifetime: config.gossip.port_lifetime_rounds.max(1),
            },
            wheel,
            wire: Wire::default(),
            ticks: vec![0; correct],
            log: Vec::new(),
            round: config.round,
            epoch: now,
            now,
            attacked: Vec::new(),
            flood: static_flood(config.gossip.variant, 0.0),
        }
    }

    /// Floods each `attacked` node with the paper's static adversary: `x`
    /// fabricated messages per round, split between its well-known
    /// channels by [`AdversaryKind::rates`]. Each round's flood is staged
    /// as the round before it starts, and the first one here, so every
    /// round a victim starts from now on is flooded, its first included.
    ///
    /// # Panics
    ///
    /// Panics if an attacked index is out of range.
    pub fn with_attack(mut self, attacked: Vec<usize>, x: f64) -> Self {
        let n = self.nodes.len();
        assert!(
            attacked.iter().all(|&i| i < n),
            "attacked index out of range"
        );
        self.set_flood(x);
        attacked.iter().for_each(|&i| self.flood(i));
        self.attacked = attacked;
        self
    }

    /// Sets the attacked nodes' flood to `x` fabricated messages a round;
    /// 0 stops it. A victim stages each round's flood as the round before
    /// it starts, so the change reaches the rounds that start after the
    /// victim's next round start.
    pub fn set_flood(&mut self, x: f64) {
        self.flood = static_flood(self.nodes[0].engine().config().variant, x);
    }

    /// Node `i`.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Originates a message at node `i` at once; returns its id.
    pub fn publish(&mut self, i: usize, payload: Bytes) -> MessageId {
        self.nodes[i].publish(payload)
    }

    /// Queues a payload on node `i`'s stream, which releases it at a round
    /// start ([`Node::submit`]), as a UDP node's publishes are.
    pub fn submit(&mut self, i: usize, payload: Bytes) {
        self.nodes[i].submit(payload);
    }

    /// Number of correct nodes whose buffers have seen `id`.
    pub fn holders(&self, id: MessageId) -> usize {
        let seen = |n: &&Node| n.engine().buffer().seen(id);
        self.nodes.iter().filter(seen).count()
    }

    /// Every experiment payload the nodes delivered, in delivery order,
    /// each at the virtual instant its node delivered it; other payloads
    /// are not logged.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.log
    }

    /// Severs the link between nodes `a` and `b`, both directions.
    pub fn cut(&mut self, a: usize, b: usize) {
        self.heal(a, b);
        self.wire.cuts.push((a.min(b), a.max(b)));
    }

    /// Restores the link between nodes `a` and `b`.
    pub fn heal(&mut self, a: usize, b: usize) {
        self.wire.cuts.retain(|&p| p != (a.min(b), a.max(b)));
    }

    /// One virtual instant: the earliest deadline fires, that node finishes
    /// its round and starts the next, an attacked node takes its round's
    /// flood, and the network is drained until quiet.
    fn step(&mut self) {
        let now = self.wheel.next_deadline().expect("every node is armed");
        let (deadline, i) = self
            .wheel
            .pop_due(now)
            .expect("the earliest deadline is due");
        self.now = now;
        let next = self.nodes[i].next_deadline(deadline, now);
        self.wheel.push(next, i);
        self.nodes[i].round_tick(&mut PortsOf(&mut self.ports, i));
        self.ticks[i] += 1;
        self.collect(i);
        if self.attacked.contains(&i) {
            self.flood(i);
        }
        while let Some((to, channel, start, end)) = self.wire.queue.pop_front() {
            let node = &mut self.nodes[to];
            node.receive(channel, &self.wire.bytes[start..end]);
            if let Channel::Port(_) = channel {
                node.dispatch(&mut PortsOf(&mut self.ports, to));
                self.collect(to);
            }
        }
        self.wire.bytes.clear();
    }

    /// One round's flood into victim `i`, staged for its next round.
    fn flood(&mut self, i: usize) {
        let (node, flood) = (&mut self.nodes[i], &mut self.flood);
        let mut scratch = BytesMut::new();
        flood.next_slice(|_, msg| {
            codec::encode_into(msg, &mut scratch);
            node.receive(Channel::Staged(msg.kind()), &scratch);
        });
    }

    /// Moves node `i`'s outbox onto the wire and its deliveries into the log.
    fn collect(&mut self, i: usize) {
        let (n, node, wire, ports) = (
            self.nodes.len(),
            &mut self.nodes[i],
            &mut self.wire,
            &self.ports,
        );
        let mut sent = 0;
        node.send_outs(|out| {
            wire.send(i, n, ports, out);
            sent += 1;
        });
        node.record_sent(sent);
        let at = self.now - self.epoch;
        let delivered = node.take_delivered().into_iter();
        self.log
            .extend(delivered.filter_map(|m| Arrival::of(i, &m.payload, at)));
    }

    /// Steps every deadline before virtual time `t`, from the start.
    pub fn run_until(&mut self, t: Duration) {
        let until = self.epoch + t;
        while self.wheel.next_deadline().is_some_and(|d| d < until) {
            self.step();
        }
    }

    /// Steps through `k` nominal rounds of virtual time after the last
    /// deadline stepped.
    pub fn run_rounds(&mut self, k: u32) {
        self.run_until(self.now - self.epoch + self.round * k);
    }

    /// Steps until `id` reaches `fraction` of the correct nodes, or its
    /// source has started `max_rounds` rounds and finished the last.
    /// Returns how many rounds the source had started by then, or `None` —
    /// early, as soon as no node buffers `id` any more: between steps a
    /// data message exists only in buffers, so a purged one reaches nobody
    /// else.
    pub fn run_until_spread(
        &mut self,
        id: MessageId,
        fraction: f64,
        max_rounds: u32,
    ) -> Option<u32> {
        let need = (fraction * self.nodes.len() as f64).ceil() as usize;
        let source = id.source.as_u64() as usize;
        let start = self.ticks[source];
        loop {
            self.step();
            let rounds = self.ticks[source] - start;
            if rounds > u64::from(max_rounds) {
                return None;
            }
            if self.holders(id) >= need {
                return Some(rounds as u32);
            }
            if !self.nodes.iter().any(|n| n.engine().buffer().contains(id)) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::encode_payload;
    use crate::node::NetStats;
    use drum_core::config::GossipConfig;
    use drum_core::message::GossipMessage;

    fn drum(n: usize, seed: u64) -> VirtualCluster {
        VirtualCluster::new(n, NetConfig::new(GossipConfig::drum()), seed)
    }

    #[test]
    fn a_cut_node_hears_nothing_until_healed() {
        // Buffers must not purge, or the message would be gone before the
        // links heal.
        let config = NetConfig::new(GossipConfig::drum().with_buffer_rounds(0));
        let mut net = VirtualCluster::new(6, config, 9);
        let others = [0, 1, 2, 4, 5];
        for other in others {
            net.cut(3, other);
        }
        let id = net.publish(0, Bytes::from_static(b"m"));
        net.run_rounds(20);
        assert_eq!(net.holders(id), 5);
        assert!(!net.node(3).engine().buffer().seen(id));
        for other in others {
            net.heal(3, other);
        }
        net.run_rounds(10);
        assert_eq!(net.holders(id), 6, "the healed node catches up");
    }

    /// A datagram to a port that expired, or that was never allocated,
    /// reaches nobody: what protects a reply port from guessing. One to a
    /// live port reaches its owner.
    #[test]
    fn datagrams_to_dead_ports_are_dropped() {
        let mut net = drum(4, 13);
        let oldest_port_of_1 = |net: &VirtualCluster| {
            let ports = net.ports.live.iter().filter(|(_, p)| p.0 == 1);
            *ports
                .map(|(port, _)| port)
                .min()
                .expect("node 1 holds a port")
        };
        net.run_rounds(1);
        let stale = oldest_port_of_1(&net);
        net.run_rounds(10);
        let live = oldest_port_of_1(&net);
        assert!(!net.ports.live.contains_key(&stale), "expired");
        for port in [stale, u16::MAX, live] {
            let reply = Outbound {
                to: ProcessId(1),
                port: SendPort::Port(port),
                msg: GossipMessage::PullReply {
                    from: ProcessId(0),
                    messages: vec![],
                },
            };
            net.wire.send(0, 4, &net.ports, &reply);
        }
        let queued: Vec<usize> = net.wire.queue.iter().map(|d| d.0).collect();
        assert_eq!(queued, [1], "only the live port delivers");
    }

    /// Three of twelve members are malicious: they run no engine, yet every
    /// view names them, so the correct nodes lose what they send them. The
    /// message still reaches every correct node, and a datagram addressed
    /// to a malicious id never reaches the wire.
    #[test]
    fn malicious_members_run_no_engine_and_hear_nothing() {
        let config = NetConfig::new(GossipConfig::drum().with_buffer_rounds(0));
        let mut net = VirtualCluster::with_malicious(12, 3, config, 5);
        assert_eq!(net.nodes.len(), 9);
        let id = net.publish(0, Bytes::from_static(b"m"));
        assert!(net.run_until_spread(id, 1.0, 100).is_some());
        assert_eq!(net.holders(id), 9);
        for to in 9..12 {
            for port in [SendPort::WellKnownPull, SendPort::WellKnownPush] {
                let msg = GossipMessage::PullReply {
                    from: ProcessId(0),
                    messages: vec![],
                };
                let to = ProcessId(to);
                net.wire.send(0, 9, &net.ports, &Outbound { to, port, msg });
            }
        }
        assert!(
            net.wire.queue.is_empty(),
            "a malicious member heard a datagram"
        );
    }

    /// One seed's exact work, summed over the nodes: n = 18, nodes 0 and
    /// 1 flooded at x = 128, node 0 publishing one message a round for 100
    /// rounds. A change that moves any count moves the protocol's work on
    /// the hostile path and must say why.
    #[test]
    fn one_seeds_work_is_pinned() {
        let mut net = drum(18, 42).with_attack(vec![0, 1], 128.0);
        for seq in 0..100u64 {
            net.publish(0, Bytes::copy_from_slice(&seq.to_be_bytes()));
            net.run_rounds(1);
        }
        let t: NetStats = (0..18).map(|i| *net.node(i).stats()).sum();
        let work = [
            t.sent,
            t.received,
            t.budget_drops,
            t.decode_errors,
            t.delivered,
            t.compress_calls,
        ];
        assert_eq!(work, [11_640, 36_600, 26_008, 0, 1_659, 3_318]);
    }

    /// The same seed logs the same arrivals, and each at the virtual
    /// instant of the step in which its node delivered it.
    #[test]
    fn arrivals_replay_at_the_instant_of_delivery() {
        let run = |seed| {
            let mut net = drum(8, seed).with_attack(vec![0], 64.0);
            for seq in 0..4 {
                net.submit(0, encode_payload(Duration::ZERO, seq, 50));
            }
            for _ in 0..120 {
                let logged = net.log.len();
                net.step();
                let now = net.now - net.epoch;
                assert!(net.log[logged..].iter().all(|a| a.at == now));
            }
            net.log
        };
        let log = run(21);
        assert_eq!(log.len(), 4 * 7, "every payload reaches every receiver");
        assert_eq!(log, run(21));
    }

    /// A flood switched on mid-run reaches only the rounds that start
    /// after the victim's next round start; switched off, the victim's
    /// budget drops stop growing once the round staged before the change
    /// has run. Of two nodes, neither takes more than its budget from the
    /// other, so every budget drop is the flood's.
    #[test]
    fn the_flood_changes_strength_mid_run() {
        let mut net = drum(2, 4).with_attack(vec![0], 0.0);
        let rounds = |net: &VirtualCluster| net.node(0).stats().rounds;
        let drops = |net: &VirtualCluster| net.node(0).stats().budget_drops;
        let run_to = |net: &mut VirtualCluster, r: u64| {
            while rounds(net) < r {
                net.step();
            }
        };
        net.run_rounds(10);
        assert_eq!(drops(&net), 0, "a calm group drops nothing");
        net.set_flood(128.0);
        let changed = rounds(&net);
        run_to(&mut net, changed + 2);
        assert_eq!(drops(&net), 0, "a round staged before the change");
        run_to(&mut net, changed + 3);
        assert!(drops(&net) > 0, "the flood never arrived");
        net.set_flood(0.0);
        let changed = rounds(&net);
        run_to(&mut net, changed + 2);
        let flooded = drops(&net);
        net.run_rounds(10);
        assert_eq!(drops(&net), flooded, "the flood outlived its change");
    }

    #[test]
    #[should_panic(expected = "attacked index")]
    fn rejects_bad_attacked_index() {
        let _ = drum(4, 1).with_attack(vec![9], 8.0);
    }
}
