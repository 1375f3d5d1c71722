//! The socket layer of one gossip node: [`NodeCore`].
//!
//! A [`NodeCore`] wraps the protocol half ([`crate::node::Node`]) with
//! everything that touches the kernel: the well-known sockets, the fixed
//! reply sockets of the no-random-ports ablation, the random-port
//! [`SocketPool`], the [`AddressBook`], the epoll registration and the
//! batched send and receive path. It has no loop or thread of its own: the
//! shard driver ([`crate::shard`]) steps any number of cores — one
//! included — from a timer wheel and a shared epoll.

use std::io;
use std::net::UdpSocket;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use drum_core::bytes::Bytes;
use drum_core::engine::SendPort;
use drum_core::ids::{ProcessId, Round};
use drum_core::message::{DataMessage, MessageKind};
use drum_crypto::keys::{KeyStore, SecretKey};
use drum_trace::names;

// `benchmark/` and the pool tests import `seed_of` from this module.
pub use crate::node::seed_of;
use crate::node::{Channel, NetConfig, NetStats, Node, Ports};
use crate::sys;
use crate::transport::{
    AblationSockets, AddressBook, BatchRx, BatchTx, SocketPool, WellKnownSockets,
};

/// A data message delivered to the application, with its arrival time.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The delivered message.
    pub message: DataMessage,
    /// Local arrival instant.
    pub at: Instant,
}

/// Everything needed to launch one process.
pub struct ProcessSpec {
    /// This process's id.
    pub me: ProcessId,
    /// Full member list (self included or not — normalized internally).
    pub members: Vec<ProcessId>,
    /// Cluster address book.
    pub book: AddressBook,
    /// Shared PKI.
    pub key_store: KeyStore,
    /// This process's secret key.
    pub my_key: SecretKey,
    /// Pre-bound well-known sockets (so the book could be built first).
    pub sockets: WellKnownSockets,
    /// Pre-bound fixed reply sockets for the no-random-ports ablation;
    /// must be `Some` exactly when `config.gossip.random_ports == false`.
    pub ablation: Option<AblationSockets>,
    /// Runtime configuration.
    pub config: NetConfig,
    /// RNG seed.
    pub seed: u64,
}

/// The receive channels a node owns. The discriminant (declaration order)
/// is packed into the low bits of a shard's epoll registration token (see
/// [`pack_token`]), so a shared event loop can route each readiness event
/// straight to the owning engine's drain for exactly that channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelClass {
    /// Well-known pull port (stages `PullRequest`s).
    WkPull,
    /// Well-known push port (stages `PushOffer`s).
    WkPush,
    /// The rotating random-port pool (processed immediately). One token
    /// covers the whole pool: it is the registration of the pool's inner
    /// readiness set, and the drain visits the sockets that set reports.
    Pool,
    /// Fixed pull-reply port (no-random-ports ablation only).
    AbPullReply,
    /// Fixed push-reply port (no-random-ports ablation only).
    AbPushReply,
    /// Fixed push-data port (no-random-ports ablation only).
    AbPushData,
}

impl ChannelClass {
    /// Every class.
    pub const ALL: [ChannelClass; 6] = [
        ChannelClass::WkPull,
        ChannelClass::WkPush,
        ChannelClass::AbPullReply,
        ChannelClass::AbPushReply,
        ChannelClass::AbPushData,
        ChannelClass::Pool,
    ];
}

/// Packs an engine index and a channel class into an epoll registration
/// token: `(engine << 3) | class`. 61 bits of engine index is far beyond
/// any realistic shard width.
pub fn pack_token(engine: usize, class: ChannelClass) -> u64 {
    ((engine as u64) << 3) | class as u64
}

/// Unpacks an epoll registration token back into `(engine index, class)`.
/// The class is `None` for a code no [`ChannelClass`] uses (a foreign
/// registration); shard loops skip those.
pub fn unpack_token(token: u64) -> (usize, Option<ChannelClass>) {
    let code = token & 0x7;
    let class = ChannelClass::ALL.into_iter().find(|&c| c as u64 == code);
    ((token >> 3) as usize, class)
}

/// The random-port pool as the protocol half sees it.
impl Ports for SocketPool {
    fn expire(&mut self, now: Round) {
        SocketPool::expire(self, now);
    }

    fn report(&self, stats: &mut NetStats) {
        stats.bind_failed = self.bind_failures();
        stats.ports_reused = self.ports_reused();
        stats.sockets_opened = self.sockets_opened();
        stats.ports_allocated = self.ports_allocated();
        stats.port_syscalls = self.port_syscalls();
    }
}

/// One gossip node on real UDP sockets: a [`Node`] plus its sockets.
///
/// Exposes the round loop as discrete steps — [`NodeCore::next_deadline`],
/// [`NodeCore::round_tick`], [`NodeCore::drain_class`] — so that a driver
/// can interleave many nodes on one thread: [`crate::shard`] steps its
/// cores from a timer wheel and a shared epoll instance.
pub struct NodeCore {
    node: Node,
    pool: SocketPool,
    sockets: WellKnownSockets,
    ablation: Option<AblationSockets>,
    book: AddressBook,
    publish_rx: Receiver<Bytes>,
    delivered_tx: Sender<Delivery>,
}

impl NodeCore {
    /// Builds the node from a spec and its application-facing channels,
    /// and emits the `proc.start` trace event.
    pub fn new(
        spec: ProcessSpec,
        publish_rx: Receiver<Bytes>,
        delivered_tx: Sender<Delivery>,
    ) -> NodeCore {
        let config = spec.config;
        let mut pool = SocketPool::new(config.gossip.port_lifetime_rounds.max(1));
        pool.set_rotation_counter(config.tracer.registry().counter(names::PORT_ROTATIONS));
        let mut node = Node::new(
            spec.me,
            spec.members,
            spec.key_store,
            spec.my_key,
            config,
            spec.seed,
        );
        if let Some(ab) = &spec.ablation {
            let port = |s: &UdpSocket| s.local_addr().map(|a| a.port()).unwrap_or(0);
            node.set_fixed_ports(
                port(&ab.pull_reply),
                port(&ab.push_reply),
                port(&ab.push_data),
            );
        }
        NodeCore {
            node,
            pool,
            sockets: spec.sockets,
            ablation: spec.ablation,
            book: spec.book,
            publish_rx,
            delivered_tx,
        }
    }

    /// Stats accumulated so far (finalized by [`NodeCore::finalize`]).
    pub fn stats(&self) -> &NetStats {
        self.node.stats()
    }

    /// Registers every receive socket with a *shared* shard epoll, tagging
    /// each registration with `pack_token(engine, class)` so the shard's
    /// event loop can dispatch readiness straight to this engine. The pool
    /// registers once, for every socket it will ever bind.
    ///
    /// # Errors
    ///
    /// Propagates the first failed registration. A partially registered
    /// node would sleep through live sockets, so its driver must not run.
    pub fn register(&mut self, ep: &sys::Epoll, engine: usize) -> io::Result<()> {
        let token = |class| pack_token(engine, class);
        ep.add_tagged(&self.sockets.pull, token(ChannelClass::WkPull))?;
        ep.add_tagged(&self.sockets.push, token(ChannelClass::WkPush))?;
        if let Some(ab) = &self.ablation {
            ep.add_tagged(&ab.pull_reply, token(ChannelClass::AbPullReply))?;
            ep.add_tagged(&ab.push_reply, token(ChannelClass::AbPushReply))?;
            ep.add_tagged(&ab.push_data, token(ChannelClass::AbPushData))?;
        }
        self.pool.set_epoll(ep, token(ChannelClass::Pool))
    }

    /// [`NodeCore::register`] as a success flag, the form `benchmark/`
    /// calls.
    pub fn register_tagged(&mut self, ep: &sys::Epoll, engine: usize) -> bool {
        self.register(ep, engine).is_ok()
    }

    /// Advances this node's round deadline on the fixed cadence, counting
    /// late rounds ([`Node::next_deadline`]).
    pub fn next_deadline(&mut self, prev: Instant, now: Instant) -> Instant {
        self.node.next_deadline(prev, now)
    }

    /// Drains one receive channel (for token-directed shard dispatch) until
    /// it would block, one `recvmmsg` per batch in kernel queue order,
    /// then sends any responses it generated and flushes deliveries.
    /// `_scratch` is unused; it stays because `benchmark/` passes it.
    pub fn drain_class(
        &mut self,
        class: ChannelClass,
        rx: &mut BatchRx,
        _scratch: &mut [u8],
        send_socket: &UdpSocket,
        tx: &mut BatchTx,
    ) {
        if class == ChannelClass::Pool {
            let node = &mut self.node;
            self.pool.drain(rx, |purpose, bytes| {
                node.receive(Channel::Port(purpose), bytes)
            });
            self.node.dispatch(&mut self.pool);
            self.send_out(send_socket, tx);
            self.deliver();
            return;
        }
        // Attackable channels only stage: nothing to send or deliver.
        let (socket, kind) = match (class, &self.ablation) {
            (ChannelClass::WkPull, _) => (&self.sockets.pull, MessageKind::PullRequest),
            (ChannelClass::WkPush, _) => (&self.sockets.push, MessageKind::PushOffer),
            (ChannelClass::AbPullReply, Some(ab)) => (&ab.pull_reply, MessageKind::PullReply),
            (ChannelClass::AbPushReply, Some(ab)) => (&ab.push_reply, MessageKind::PushReply),
            (ChannelClass::AbPushData, Some(ab)) => (&ab.push_data, MessageKind::PushData),
            _ => return,
        };
        let node = &mut self.node;
        rx.drain_socket(socket, &mut [], |bytes| {
            node.receive(Channel::Staged(kind), bytes)
        });
    }

    /// Sends the node's outbox through `tx`, the driver's shared sender:
    /// one bare datagram per outbound message, control and data alike,
    /// encoded straight into its send arena — the node keeps no encode
    /// buffer. A message equal to the one pushed before it is queued as a
    /// repeat sharing the arena bytes (encode-once fan-out). Datagrams
    /// leave in one sendmmsg per batch.
    fn send_out(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        let book = &self.book;
        self.node.send_outs(|out, repeat| {
            let addr = match out.port {
                SendPort::Port(p) => AddressBook::loopback(p),
                well_known => match book.addrs_of(out.to) {
                    Some(a) if well_known == SendPort::WellKnownPull => a.pull,
                    Some(a) => a.push,
                    None => return false,
                },
            };
            tx.push_message(send_socket, addr, &out.msg, repeat);
            true
        });
        self.node.record_sent(tx.finish(send_socket));
    }

    fn deliver(&mut self) {
        let delivered = self.node.take_delivered();
        if !delivered.is_empty() {
            let at = Instant::now();
            for message in delivered {
                let _ = self.delivered_tx.send(Delivery { message, at });
            }
        }
    }

    /// One timer-wheel tick ([`Node::round_tick`]) with the application's
    /// pending publishes: finish the running round (if any) and start the
    /// next. Everything the round start produces leaves in one flush,
    /// round-start messages first.
    pub fn round_tick(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        while let Ok(payload) = self.publish_rx.try_recv() {
            self.node.submit(payload);
        }
        self.node.round_tick(&mut self.pool);
        self.send_out(send_socket, tx);
        self.deliver();
    }

    /// Tears the node down: finishes a round still in flight, mirrors the
    /// driver's final shared syscall totals `(recv, send, batched
    /// datagrams)`, emits the `proc.stop` event and returns the final stats.
    pub fn finalize(mut self, sys_totals: Option<(u64, u64, u64)>) -> NetStats {
        let mut stats = self.node.finalize(&mut self.pool);
        if let Some((recv, send, batched)) = sys_totals {
            // The shard mirrors its shared batchers into the registry
            // itself; a node only reports them.
            stats.syscalls_recv = recv;
            stats.syscalls_send = send;
            stats.batch_recv_datagrams = batched;
        }
        stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec;
    use crate::node::advance_deadline;
    use crate::shard::{spawn_shard, EngineHandle, ShardHandle};
    use crate::transport::bind_ephemeral;
    use drum_core::config::GossipConfig;
    use drum_core::engine::PortPurpose;
    use drum_core::message::GossipMessage;
    use drum_crypto::seal::seal_port;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Duration;

    /// Specs for an `n`-member group on freshly bound well-known sockets,
    /// plus the book, so a test can aim traffic at a member's real ports.
    pub(crate) fn specs(
        n: u64,
        key_seed: u64,
        config: NetConfig,
    ) -> (Vec<ProcessSpec>, AddressBook) {
        let key_store = KeyStore::new(key_seed);
        let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let (socks, entries): (Vec<_>, Vec<_>) = members
            .iter()
            .map(|&m| {
                let (sockets, addrs) = WellKnownSockets::bind().unwrap();
                ((m, sockets), (m, addrs))
            })
            .unzip();
        let book = AddressBook::new(entries);
        let specs = socks
            .into_iter()
            .map(|(m, sockets)| ProcessSpec {
                me: m,
                members: members.clone(),
                book: book.clone(),
                key_store: key_store.clone(),
                my_key: key_store.register(m.as_u64()),
                sockets,
                ablation: None,
                config: config.clone(),
                seed: seed_of(m),
            })
            .collect();
        (specs, book)
    }

    fn drum(round_ms: u64) -> NetConfig {
        NetConfig::new(GossipConfig::drum()).with_round(Duration::from_millis(round_ms))
    }

    fn cluster(n: u64, key_seed: u64, config: NetConfig) -> (ShardHandle, Vec<EngineHandle>) {
        spawn_shard(specs(n, key_seed, config).0).unwrap()
    }

    /// Node 0 of a two-member group, to drive by hand, with its delivery
    /// channel and the peer — whose sockets stay bound but are never read.
    fn lone_core(seed: u64) -> (NodeCore, Receiver<Delivery>, ProcessSpec) {
        let (mut specs, _) = specs(2, 3, NetConfig::new(GossipConfig::drum()));
        let peer = specs.pop().unwrap();
        let mut spec = specs.pop().unwrap();
        spec.seed = seed;
        let (_publish_tx, publish_rx) = channel();
        let (delivered_tx, delivered_rx) = channel();
        (
            NodeCore::new(spec, publish_rx, delivered_tx),
            delivered_rx,
            peer,
        )
    }

    #[test]
    fn drum_disseminates_over_udp() {
        // One engine per shard: each node on a thread of its own.
        let (shards, engines): (Vec<ShardHandle>, Vec<EngineHandle>) = specs(6, 99, drum(40))
            .0
            .into_iter()
            .map(|spec| {
                let (shard, mut engine) = spawn_shard(vec![spec]).unwrap();
                (shard, engine.remove(0))
            })
            .unzip();
        engines[0].publish(Bytes::from_static(b"hello udp"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut received = [false; 6];
        received[0] = true;
        while Instant::now() < deadline && received.iter().any(|r| !r) {
            for (i, e) in engines.iter().enumerate() {
                for d in e.take_delivered() {
                    assert_eq!(d.message.payload, Bytes::from_static(b"hello udp"));
                    received[i] = true;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (i, r) in received.iter().enumerate() {
            assert!(*r, "process {i} never received the message");
        }
        for shard in shards {
            let stats = shard.shutdown();
            assert!(stats.len() == 1 && stats[0].rounds > 0);
        }
    }

    #[test]
    fn push_only_disseminates_over_udp() {
        let config = NetConfig::new(GossipConfig::push()).with_round(Duration::from_millis(40));
        let (shard, engines) = cluster(5, 99, config);
        engines[0].publish(Bytes::from_static(b"push"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = 0;
        while Instant::now() < deadline && got < 4 {
            got += engines[1..]
                .iter()
                .map(|e| e.take_delivered().len())
                .sum::<usize>();
            std::thread::sleep(Duration::from_millis(25));
        }
        // At least some processes must have it quickly; exact counts are
        // timing dependent.
        assert!(got > 0, "nobody received the pushed message");
        shard.shutdown();
    }

    #[test]
    fn with_loss_validates_range() {
        let cfg = NetConfig::new(GossipConfig::drum()).with_loss(0.25);
        assert_eq!(cfg.loss, 0.25);
        let result =
            std::panic::catch_unwind(|| NetConfig::new(GossipConfig::drum()).with_loss(1.0));
        assert!(result.is_err(), "loss = 1.0 must be rejected");
    }

    #[test]
    fn lossy_links_slow_but_do_not_stop_dissemination() {
        let (shard, engines) = cluster(5, 5, drum(40).with_loss(0.2));
        engines[0].publish(Bytes::from_static(b"lossy"));
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut reached = 0;
        let mut seen = [false; 5];
        seen[0] = true;
        while Instant::now() < deadline && reached < 5 {
            for (i, e) in engines.iter().enumerate() {
                if !e.take_delivered().is_empty() {
                    seen[i] = true;
                }
            }
            reached = seen.iter().filter(|s| **s).count();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(reached, 5, "20% loss must not stop dissemination");
        shard.shutdown();
    }

    #[test]
    fn tracer_counts_cluster_traffic() {
        use drum_trace::{names, MemorySink, Tracer};

        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let (shard, engines) = cluster(4, 7, drum(30).with_tracer(tracer.clone()));

        engines[0].publish(Bytes::from_static(b"traced"));
        std::thread::sleep(Duration::from_millis(400));
        let stats = shard.shutdown();

        // Registry counters aggregate across all four processes and must
        // agree with the per-process stats the runtime reports.
        let reg = tracer.registry();
        let total_sent: u64 = stats.iter().map(|s| s.sent).sum();
        assert!(reg.counter(names::MESSAGES_SENT).get() <= total_sent);
        assert!(reg.counter(names::MESSAGES_SENT).get() > 0);
        assert!(reg.counter(names::MESSAGES_RECEIVED).get() > 0);
        assert!(reg.counter(names::PORT_ROTATIONS).get() > 0);
        // The pools' own counters surface the same way: every descriptor
        // opened is counted (≥ 4 rounds' worth of ports per node before
        // the first one comes back), and exhaustion would be.
        let opened: u64 = stats.iter().map(|s| s.sockets_opened).sum();
        assert_eq!(reg.counter(names::NET_SOCKETS_OPENED).get(), opened);
        assert!(opened >= 4 * 4 * 4, "{opened} descriptors opened");
        assert_eq!(reg.counter(names::NET_BIND_FAILED).get(), 0);
        assert!(stats.iter().all(|s| s.bind_failed == 0));

        let events = sink.take();
        assert_eq!(
            events.iter().filter(|e| e.name == "proc.start").count(),
            4,
            "one proc.start per process"
        );
        assert!(events
            .iter()
            .any(|e| e.target == "net" && e.name == "round"));
        assert_eq!(
            events.iter().filter(|e| e.name == "proc.stop").count(),
            4,
            "one proc.stop per process"
        );
    }

    #[test]
    fn garbage_datagrams_counted_not_fatal() {
        let (specs, book) = specs(2, 99, drum(30));
        let p0 = book.addrs_of(ProcessId(0)).unwrap();
        let (shard, engines) = spawn_shard(specs).unwrap();

        // Blast malformed datagrams at p0's well-known ports while a real
        // multicast is in flight: empty, truncated, bad-tag, and oversized
        // junk must all be counted as decode errors, never crash the
        // process or stop dissemination.
        let sender = bind_ephemeral().unwrap();
        engines[0].publish(Bytes::from_static(b"still works"));
        let garbage: [&[u8]; 4] = [b"", b"\xFF", b"\x01\x02\x03", &[0xAAu8; 512]];
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut p1_got = false;
        while Instant::now() < deadline && !p1_got {
            for junk in garbage {
                let _ = sender.send_to(junk, p0.pull);
                let _ = sender.send_to(junk, p0.push);
            }
            p1_got = !engines[1].take_delivered().is_empty();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(p1_got, "dissemination must survive the garbage flood");

        let stats = shard.shutdown();
        assert!(stats[0].rounds > 0 && stats[1].rounds > 0);
        assert!(
            stats[0].decode_errors > 0,
            "p0 must have counted the malformed datagrams: {:?}",
            stats[0]
        );
    }

    #[test]
    fn fabricated_frame_on_a_pool_port_is_a_decode_error() {
        // The retired frame shape first, then — to show the port is live —
        // the same bogus pull-reply as a bare datagram.
        let (
            NodeCore {
                mut node, mut pool, ..
            },
            _delivered_rx,
            _peer,
        ) = lone_core(11);
        node.round_tick(&mut pool);
        let port = Channel::Port(PortPurpose::PullReply);
        node.receive(port, &crate::attack::fabricated_frame(7));
        assert_eq!((node.stats().decode_errors, node.stats().received), (1, 0));
        assert_eq!(node.engine().mac_compressions(), 0);

        node.receive(
            port,
            &codec::encode(&crate::attack::fabricated_pull_reply(7)),
        );
        node.dispatch(&mut pool);
        assert_eq!(node.stats().received, 1);
        assert!(node.take_delivered().is_empty(), "nothing may deliver");
        let stats = node.finalize(&mut pool);
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.delivered, 0);
        // The bare forgery reached the engine and failed authentication
        // (unknown source: rejected before any hashing).
        assert_eq!(stats.auth_drops, 1);
        assert_eq!(stats.compress_calls, 0);
        assert_eq!(
            (stats.frames_sent, stats.framed_msgs, stats.frames_rejected),
            (0, 0, 0)
        );
    }

    /// The round start's own messages and the replies to the previous
    /// round's staged requests leave together: one `sendmmsg` per tick.
    #[test]
    fn a_tick_with_staged_work_makes_one_sendmmsg() {
        use drum_core::digest::Digest;
        use drum_core::message::PortRef;

        let (mut core, _delivered_rx, peer) = lone_core(5);
        let epoll = sys::Epoll::new().unwrap();
        core.register(&epoll, 0).unwrap();
        let send_socket = bind_ephemeral().unwrap();
        let mut tx = BatchTx::new();
        let mut rx = BatchRx::new(codec::MAX_WIRE_LEN + 1);
        core.round_tick(&send_socket, &mut tx);
        core.node.publish(Bytes::from_static(b"served"));

        let requester = bind_ephemeral().unwrap();
        let reply_port = requester.local_addr().unwrap().port();
        let pull = core.book.addrs_of(ProcessId(0)).unwrap().pull;
        let key = peer.key_store.key_of(0).unwrap();
        for nonce in 0..2 {
            let req = codec::encode(&GossipMessage::PullRequest {
                from: ProcessId(1),
                digest: Digest::new(),
                reply_port: PortRef::Sealed(seal_port(&key, nonce, reply_port).unwrap()),
                nonce,
            });
            requester.send_to(&req, pull).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while core.node.staged[0].len() < 2 && Instant::now() < deadline {
            core.drain_class(
                ChannelClass::WkPull,
                &mut rx,
                &mut [],
                &send_socket,
                &mut tx,
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(core.node.staged[0].len(), 2, "both requests staged");

        let (syscalls, sent) = (tx.syscalls(), core.stats().sent);
        core.round_tick(&send_socket, &mut tx);
        assert_eq!(tx.syscalls() - syscalls, 1, "one flush per tick");
        // The round start's request and offer to the peer, then a
        // pull-reply per staged request (the budget admits F/2 = 2).
        assert_eq!(core.stats().sent - sent, 4);
        std::thread::sleep(Duration::from_millis(20));
        let mut buf = [0u8; 2048];
        requester.set_nonblocking(true).unwrap();
        let mut replies = 0;
        while let Ok(len) = requester.recv(&mut buf) {
            let msg = codec::decode(&buf[..len]).unwrap();
            assert_eq!(msg.kind(), MessageKind::PullReply);
            replies += 1;
        }
        assert_eq!(replies, 2);
    }

    #[test]
    fn same_seed_cores_draw_identical_jitter_streams() {
        // A node's RNG stream is a function of its seed alone: what fixed-
        // seed runs of any driver rest on.
        let gaps = |seed: u64| -> Vec<Duration> {
            let (mut core, _delivered_rx, _peer) = lone_core(seed);
            let t0 = Instant::now();
            let mut prev = t0;
            (0..32)
                .map(|_| {
                    let next = core.next_deadline(prev, t0);
                    let gap = next - prev;
                    prev = next;
                    gap
                })
                .collect()
        };
        let x = gaps(42);
        let y = gaps(42);
        let z = gaps(43);
        assert_eq!(x, y, "same seed must reproduce the jitter stream");
        assert_ne!(x, z, "different seeds must not share a jitter stream");
        // Jitter bounds: every gap within round × [1 − j, 1 + j].
        let round = Duration::from_millis(100);
        for gap in &x {
            assert!(
                *gap >= round.mul_f64(0.8) && *gap <= round.mul_f64(1.2),
                "gap {gap:?} outside jitter bounds"
            );
        }
    }

    #[test]
    fn deadline_advances_from_previous_deadline_not_now() {
        let mut rng = SmallRng::seed_from_u64(1);
        let round = Duration::from_millis(100);
        let t0 = Instant::now();

        // On time: next = prev + round, not late (jitter disabled so the
        // arithmetic is exact).
        let (d1, late) = advance_deadline(t0, t0, round, 0.0, &mut rng);
        assert_eq!(d1, t0 + round);
        assert!(!late);

        // Work finished inside the next window: still anchored, not late.
        let (d2, late) = advance_deadline(d1, d1 + Duration::from_millis(60), round, 0.0, &mut rng);
        assert_eq!(d2, d1 + round);
        assert!(!late);

        // Work overran past the next deadline (but by less than a full
        // round): keep the anchor — the next round is short, restoring the
        // cadence — and flag the lateness.
        let (d3, late) =
            advance_deadline(d2, d2 + Duration::from_millis(130), round, 0.0, &mut rng);
        assert_eq!(d3, d2 + round);
        assert!(late);

        // More than one full round behind the next deadline: skip forward
        // (re-anchor at now) instead of spinning zero-length rounds.
        let now = d3 + round + round + Duration::from_millis(5);
        let (d4, late) = advance_deadline(d3, now, round, 0.0, &mut rng);
        assert_eq!(d4, now + round);
        assert!(late);
    }

    #[test]
    fn cadence_holds_under_synthetic_overrun() {
        // Every simulated round's work overruns its deadline by a full
        // round-length. Under the old "deadline = now + jittered" rule the
        // effective period would be ~2× round (100 rounds take ~200
        // round-lengths); the fixed-cadence rule keeps the long-run rate
        // at ~1 round per round-length.
        let mut rng = SmallRng::seed_from_u64(7);
        let round = Duration::from_millis(50);
        let t0 = Instant::now();
        let mut deadline = t0;
        let mut now = t0;
        let mut late = 0u32;
        const ROUNDS: u32 = 100;
        for _ in 0..ROUNDS {
            let (d, l) = advance_deadline(deadline, now, round, 0.2, &mut rng);
            if l {
                late += 1;
            }
            deadline = d;
            now = deadline + round; // simulated overrun: one full round
        }
        let elapsed = deadline.duration_since(t0);
        let nominal = round * ROUNDS;
        assert!(
            elapsed >= nominal.mul_f64(0.8) && elapsed <= nominal.mul_f64(1.2),
            "cadence drifted: {ROUNDS} rounds spanned {elapsed:?}, nominal {nominal:?}"
        );
        assert!(late > 0, "a constant overrun must be flagged late");

        // When work is persistently slower than the round itself, the
        // skip-forward policy gives up on the unrunnable rounds instead of
        // spinning: every advance is late and re-anchored ahead of now.
        let mut deadline = Instant::now();
        let mut now = deadline;
        for _ in 0..20 {
            let (d, l) = advance_deadline(deadline, now, round, 0.2, &mut rng);
            assert!(l || d > now);
            deadline = d;
            now = deadline + round.mul_f64(2.5);
        }
        assert!(deadline > t0);
    }

    #[test]
    fn flooded_node_keeps_round_cadence() {
        // A 2-process cluster whose p0 well-known ports are flooded
        // continuously with well-formed pull-requests. The fixed-cadence
        // rule must keep p0's round count near elapsed/round even though
        // every round has flood-processing work; bounds are generous for
        // loaded CI machines.
        use drum_core::digest::Digest;
        use drum_core::message::PortRef;

        let (specs, book) = specs(2, 13, drum(40));
        let p0_pull = book.addrs_of(ProcessId(0)).unwrap().pull;
        let p0_key = specs[0].my_key.clone();
        let (shard, engines) = spawn_shard(specs).unwrap();

        engines[0].publish(Bytes::from_static(b"cadence"));
        // A dead socket keeps fabricated replies addressable without ICMP
        // noise; the flood itself is valid-looking pull-requests, their
        // reply port sealed for p0 so that every accepted one is answered.
        let dead = bind_ephemeral().unwrap();
        let dead_port = dead.local_addr().unwrap().port();
        let flood = codec::encode(&GossipMessage::PullRequest {
            from: ProcessId(1),
            digest: Digest::new(),
            reply_port: PortRef::Sealed(seal_port(&p0_key, 5, dead_port).unwrap()),
            nonce: 5,
        });
        let sender = bind_ephemeral().unwrap();
        let started = Instant::now();
        let run = Duration::from_millis(1200);
        while started.elapsed() < run {
            for _ in 0..32 {
                let _ = sender.send_to(&flood, p0_pull);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let elapsed = started.elapsed();
        let stats = shard.shutdown();
        let nominal = elapsed.as_millis() as u64 / 40;
        assert!(
            stats[0].received > 0,
            "the flood must have reached p0: {:?}",
            stats[0]
        );
        for s in &stats {
            assert!(
                s.rounds >= nominal * 55 / 100,
                "node fell behind cadence: {} rounds (+{} late) in {elapsed:?} (~{nominal} nominal)",
                s.rounds,
                s.rounds_late
            );
        }
    }

    #[test]
    fn failed_port_allocation_is_counted() {
        use drum_core::digest::Digest;
        use drum_core::message::PortRef;
        use drum_trace::{MemorySink, Tracer};

        // A peer advertises reply port 0 (what a node whose own random-port
        // allocation failed would send). The engine answers the pull
        // request, the runtime cannot address the reply — the drop must be
        // counted, in the per-node stats and the registry.
        let tracer = Tracer::new(Arc::new(MemorySink::new()));
        let (mut specs, book) = specs(2, 3, drum(20).with_tracer(tracer.clone()));
        let pull_addr = book.addrs_of(ProcessId(0)).unwrap().pull;
        let _silent_peer = specs.pop();
        let p0_key = specs[0].my_key.clone();
        let (shard, engines) = spawn_shard(specs).unwrap();

        // Give the node something to serve, then pull with reply port 0.
        engines[0].publish(Bytes::from_static(b"served"));
        let sender = bind_ephemeral().unwrap();
        let req = codec::encode(&GossipMessage::PullRequest {
            from: ProcessId(1),
            digest: Digest::new(),
            reply_port: PortRef::Sealed(seal_port(&p0_key, 9, 0).unwrap()),
            nonce: 9,
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut counted = false;
        while Instant::now() < deadline && !counted {
            let _ = sender.send_to(&req, pull_addr);
            std::thread::sleep(Duration::from_millis(10));
            counted = tracer.registry().counter(names::NET_ALLOC_FAILED).get() > 0;
        }
        let stats = shard.shutdown();
        assert!(
            counted && stats[0].alloc_failed > 0,
            "the dropped reply must be counted: {:?}",
            stats[0]
        );
    }
}
