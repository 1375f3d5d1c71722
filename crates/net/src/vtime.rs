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
//! and the paper's flood of fabricated pull-requests and push-offers on
//! the attacked nodes' well-known channels. Its ports are random ports
//! only: the no-random-ports ablation needs fixed reply sockets, and runs
//! on UDP.
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
use drum_core::config::ProtocolVariant;
use drum_core::engine::{Outbound, PortOracle, PortPurpose, SendPort};
use drum_core::ids::{MessageId, ProcessId, Round};
use drum_core::message::{DataMessage, MessageKind};
use drum_crypto::keys::KeyStore;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::attack::{fabricated_pull_request, fabricated_push_offer};
use crate::codec;
use crate::node::{Channel, NetConfig, Node, Ports};
use crate::shard::TimerWheel;

/// The virtual random ports of every node: each live port's owner,
/// purpose and birth round.
struct Registry {
    next: u16,
    live: HashMap<u16, (usize, PortPurpose, Round)>,
    lifetime: u64,
}

/// One node's view of the [`Registry`].
struct PortsOf<'a>(&'a mut Registry, usize);

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
    /// The range of the last encoded message, shared by its repeats.
    last: (usize, usize),
    /// Severed links, as `(lower, higher)` node pairs.
    cuts: Vec<(usize, usize)>,
}

impl Wire {
    /// Puts one of node `from`'s outbounds on the wire, towards one of `n`
    /// nodes.
    fn send(&mut self, from: usize, n: usize, ports: &Registry, out: &Outbound, repeat: bool) {
        if !repeat {
            let start = self.bytes.len();
            codec::encode_append(&out.msg, &mut self.bytes);
            self.last = (start, self.bytes.len());
        }
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
            self.queue
                .push_back((to, channel, self.last.0, self.last.1));
        }
    }
}

/// A deterministic cluster of [`Node`]s on a virtual clock.
pub struct VirtualCluster {
    nodes: Vec<Node>,
    registry: Registry,
    wheel: TimerWheel,
    wire: Wire,
    /// Rounds each node has started.
    ticks: Vec<u64>,
    /// What each node delivered to its application, in order.
    delivered: Vec<Vec<DataMessage>>,
    round: Duration,
    now: Instant,
    attacked: Vec<usize>,
    /// Fabricated pull-requests and push-offers per victim round.
    flood: (f64, f64),
    flood_rng: SmallRng,
    flood_seq: u64,
}

impl VirtualCluster {
    /// Builds `n` nodes with ids `0..n`, one key store and `config`. Each
    /// node's seed is drawn from one stream seeded by `seed`; node `i`'s
    /// first round starts `i/n` of a round after the first node's.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, config: NetConfig, seed: u64) -> Self {
        assert!(n >= 2, "need at least two nodes");
        let key_store = KeyStore::new(seed);
        let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
        let mut seeds = SmallRng::seed_from_u64(seed);
        let nodes = members
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
        for i in 0..n {
            wheel.push(now + config.round * i as u32 / n as u32, i);
        }
        VirtualCluster {
            nodes,
            registry: Registry {
                next: 0,
                live: HashMap::new(),
                lifetime: config.gossip.port_lifetime_rounds.max(1),
            },
            wheel,
            wire: Wire::default(),
            ticks: vec![0; n],
            delivered: vec![Vec::new(); n],
            round: config.round,
            now,
            attacked: Vec::new(),
            flood: (0.0, 0.0),
            flood_rng: SmallRng::seed_from_u64(seeds.next_u64()),
            flood_seq: 0,
        }
    }

    /// Floods each `attacked` node with `x` fabricated messages per round,
    /// split between its well-known channels as the paper does: half each
    /// for Drum, all on the one channel for Push and for Pull.
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
        self.flood = match self.nodes[0].engine().config().variant {
            ProtocolVariant::Drum => (x / 2.0, x / 2.0),
            ProtocolVariant::Push => (0.0, x),
            ProtocolVariant::Pull => (x, 0.0),
        };
        self.attacked = attacked;
        self
    }

    /// Node `i`.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Originates a message at node `i` at once; returns its id.
    pub fn publish(&mut self, i: usize, payload: Bytes) -> MessageId {
        self.nodes[i].publish(payload)
    }

    /// Number of nodes whose buffers have seen `id`.
    pub fn holders(&self, id: MessageId) -> usize {
        let seen = |n: &&Node| n.engine().buffer().seen(id);
        self.nodes.iter().filter(seen).count()
    }

    /// The messages node `i` delivered to its application, in order.
    pub fn delivered(&self, i: usize) -> &[DataMessage] {
        &self.delivered[i]
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
        self.nodes[i].round_tick(&mut PortsOf(&mut self.registry, i));
        self.ticks[i] += 1;
        self.collect(i);
        if self.attacked.contains(&i) {
            self.flood(i);
        }
        while let Some((to, channel, start, end)) = self.wire.queue.pop_front() {
            let node = &mut self.nodes[to];
            node.receive(channel, &self.wire.bytes[start..end]);
            if let Channel::Port(_) = channel {
                node.dispatch(&mut PortsOf(&mut self.registry, to));
                self.collect(to);
            }
        }
        self.wire.bytes.clear();
    }

    /// One round's flood into victim `i`, staged for its next round: each
    /// rate rounded to a whole count, its fraction by a coin flip.
    fn flood(&mut self, i: usize) {
        let mut count = |rate: f64| {
            let frac = rate - rate.floor();
            rate.floor() as u64 + u64::from(frac > 0.0 && self.flood_rng.random_bool(frac))
        };
        let (pulls, pushes) = (count(self.flood.0), count(self.flood.1));
        let mut scratch = BytesMut::new();
        for k in 0..pulls + pushes {
            self.flood_seq += 1;
            let (msg, kind) = if k < pulls {
                (
                    fabricated_pull_request(self.flood_seq),
                    MessageKind::PullRequest,
                )
            } else {
                (
                    fabricated_push_offer(self.flood_seq),
                    MessageKind::PushOffer,
                )
            };
            codec::encode_into(&msg, &mut scratch);
            self.nodes[i].receive(Channel::Staged(kind), &scratch);
        }
    }

    /// Moves node `i`'s outbox onto the wire and its deliveries into the log.
    fn collect(&mut self, i: usize) {
        let (n, node, wire, registry) = (
            self.nodes.len(),
            &mut self.nodes[i],
            &mut self.wire,
            &self.registry,
        );
        let mut sent = 0;
        node.send_outs(|out, repeat| {
            wire.send(i, n, registry, out, repeat);
            sent += 1;
            true
        });
        node.record_sent(sent);
        self.delivered[i].extend(node.take_delivered());
    }

    /// Steps through `k` nominal rounds of virtual time.
    pub fn run_rounds(&mut self, k: u32) {
        let until = self.now + self.round * k;
        while self.wheel.next_deadline().is_some_and(|d| d < until) {
            self.step();
        }
    }

    /// Steps until `id` reaches `fraction` of the nodes, or its source has
    /// started `max_rounds` rounds and finished the last. Returns how many
    /// rounds the source had started by then, or `None` — early, as soon
    /// as no node buffers `id` any more: between steps a data message
    /// exists only in buffers, so a purged one reaches nobody else.
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
            let ports = net.registry.live.iter().filter(|(_, p)| p.0 == 1);
            *ports
                .map(|(port, _)| port)
                .min()
                .expect("node 1 holds a port")
        };
        net.run_rounds(1);
        let stale = oldest_port_of_1(&net);
        net.run_rounds(10);
        let live = oldest_port_of_1(&net);
        assert!(!net.registry.live.contains_key(&stale), "expired");
        for port in [stale, u16::MAX, live] {
            let reply = Outbound {
                to: ProcessId(1),
                port: SendPort::Port(port),
                msg: GossipMessage::PullReply {
                    from: ProcessId(0),
                    messages: vec![],
                },
            };
            net.wire.send(0, 4, &net.registry, &reply, false);
        }
        let queued: Vec<usize> = net.wire.queue.iter().map(|d| d.0).collect();
        assert_eq!(queued, [1], "only the live port delivers");
    }

    #[test]
    #[should_panic(expected = "attacked index")]
    fn rejects_bad_attacked_index() {
        let _ = drum(4, 1).with_attack(vec![9], 8.0);
    }
}
