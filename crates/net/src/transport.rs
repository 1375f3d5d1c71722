//! UDP socket management: well-known ports, random ephemeral ports and the
//! process address book.
//!
//! Every logical process owns two *well-known* sockets (pull-requests and
//! push-offers, §4) plus a pool of short-lived *random* ports allocated
//! round by round for pull-replies, push-replies and push data. The random
//! ports are the OS-assigned ephemeral ports that give Drum its
//! unpredictability; each one is tagged with the purpose it was allocated
//! for, and the runtime drops datagrams whose kind does not match the
//! port's purpose — an attacker cannot spend a data-channel budget through
//! a well-known port.
//!
//! A random port is short-lived; the descriptor under it is not. Per port
//! the pool makes `connect(AF_UNSPEC)` when it expires and `bind` +
//! `getsockname` when the descriptor takes its next port. The ports that
//! expire together share one readiness query (`epoll_pwait`, timeout 0),
//! and only a descriptor that query reports readable — one that still held
//! a datagram — pays discarding `recv`s; at ~5 ports a round that is ≈3.2
//! syscalls per port ([`SocketPool`] has the details and the one race this
//! leaves). `socket`, `bind`, `ioctl(FIONBIO)`, `getsockname`,
//! `epoll_ctl(ADD)` and `close` are paid per *descriptor*: while the pool
//! grows to its high-water of live sockets, and when the kernel refuses to
//! release or re-bind a port or to watch a fresh descriptor.
//!
//! Datagrams move in batches: [`BatchRx`] receives through `recvmmsg(2)`
//! and [`BatchTx`] sends through `sendmmsg(2)` ([`crate::sys`]).

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;

use drum_core::bytes::BytesMut;
use drum_core::engine::{PortOracle, PortPurpose};
use drum_core::ids::{ProcessId, Round};
use drum_core::message::GossipMessage;

use crate::codec;
use crate::sys;

/// Batched datagram receiver: one `recvmmsg(2)` call drains up to
/// [`sys::BATCH`] datagrams into a fixed arena, handed to the caller in
/// kernel queue order. The running totals expose the amortization.
#[derive(Debug)]
pub struct BatchRx {
    arena: sys::RecvArena,
    syscalls: u64,
    batched_datagrams: u64,
}

impl BatchRx {
    /// Creates a receiver whose arena slots hold `slot_len` bytes; a
    /// longer datagram is truncated to that.
    pub fn new(slot_len: usize) -> Self {
        BatchRx {
            arena: sys::RecvArena::new(slot_len),
            syscalls: 0,
            batched_datagrams: 0,
        }
    }

    /// Receive (`recvmmsg`) syscalls made so far, including a final empty
    /// call that observes the queue drained.
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Datagrams received so far. Together with [`BatchRx::syscalls`] this
    /// measures the amortization: mean batch fill =
    /// `batched_datagrams / syscalls`.
    pub fn batched_datagrams(&self) -> u64 {
        self.batched_datagrams
    }

    /// Drains `socket` until it would block, invoking `f` once per
    /// datagram in arrival order. Returns the number of datagrams drained.
    /// `_scratch` is unused; it stays because `benchmark/` passes it.
    pub fn drain_socket(
        &mut self,
        socket: &UdpSocket,
        _scratch: &mut [u8],
        mut f: impl FnMut(&[u8]),
    ) -> usize {
        let fd = sys::fd_of(socket);
        let mut count = 0;
        loop {
            self.syscalls += 1;
            let n = self.arena.recv(fd).unwrap_or(0);
            self.batched_datagrams += n as u64;
            count += n;
            for i in 0..n {
                f(self.arena.datagram(i));
            }
            // A short batch already proves the queue is empty; skip the
            // confirming syscall.
            if n < sys::BATCH {
                return count;
            }
        }
    }
}

/// Batched datagram sender: datagrams queue into a [`sys::SendArena`] and
/// flush through `sendmmsg(2)` (automatically when a batch fills,
/// explicitly via [`BatchTx::finish`]), so the kernel crossing is paid once
/// per [`sys::BATCH`]. Gossip messages are encoded straight into the arena,
/// each for itself, so a driver needs no encode buffer of its own.
/// Undeliverable datagrams are dropped silently (fire-and-forget UDP
/// semantics).
#[derive(Debug)]
pub struct BatchTx {
    arena: sys::SendArena,
    syscalls: u64,
    pending_sent: u64,
}

impl BatchTx {
    /// Creates a sender with an empty arena.
    pub fn new() -> Self {
        BatchTx {
            arena: sys::SendArena::new(),
            syscalls: 0,
            pending_sent: 0,
        }
    }

    /// Send syscalls made so far (`sendmmsg`, plus one per non-IPv4
    /// destination).
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Flushes the arena through `socket`, counting what the kernel took.
    fn flush(&mut self, socket: &UdpSocket) {
        let (sent, syscalls) = self.arena.flush(sys::fd_of(socket));
        self.pending_sent += sent as u64;
        self.syscalls += syscalls as u64;
    }

    /// Queues one datagram of `bytes` for `socket`. `_repeat` is ignored:
    /// every datagram is copied in for itself (the argument is kept for
    /// `benchmark/`).
    pub fn push(&mut self, socket: &UdpSocket, addr: SocketAddr, bytes: &[u8], _repeat: bool) {
        self.queue(socket, addr, |out| out.put_slice(bytes));
    }

    /// Queues `msg` as one datagram for `socket`, encoded straight into
    /// the arena: the one encode path of a driver's engines.
    pub(crate) fn push_message(
        &mut self,
        socket: &UdpSocket,
        addr: SocketAddr,
        msg: &GossipMessage,
    ) {
        self.queue(socket, addr, |out| codec::encode_append(msg, out));
    }

    fn queue(&mut self, socket: &UdpSocket, addr: SocketAddr, write: impl FnOnce(&mut BytesMut)) {
        if self.arena.is_full() {
            self.flush(socket);
        }
        match sys::SockAddrV4Raw::from_std(addr) {
            Some(dest) => self.arena.push_with(dest, write),
            None => {
                // The arena holds IPv4 destinations only; the runtime
                // never addresses anything else, but an IPv6 argument
                // is sent on its own rather than refused.
                let mut bytes = BytesMut::new();
                write(&mut bytes);
                self.syscalls += 1;
                if socket.send_to(&bytes, addr).is_ok() {
                    self.pending_sent += 1;
                }
            }
        }
    }

    /// Flushes anything still queued and returns the number of datagrams
    /// actually handed to the kernel since the previous `finish`.
    pub fn finish(&mut self, socket: &UdpSocket) -> u64 {
        if !self.arena.is_empty() {
            self.flush(socket);
        }
        std::mem::take(&mut self.pending_sent)
    }
}

impl Default for BatchTx {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps process ids to their well-known socket addresses (loopback).
///
/// Built once per cluster; cheap to clone (`Arc` inside).
#[derive(Debug, Clone)]
pub struct AddressBook {
    inner: Arc<HashMap<ProcessId, WellKnownAddrs>>,
}

/// The two well-known addresses of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WellKnownAddrs {
    /// Where pull-requests are received.
    pub pull: SocketAddr,
    /// Where push-offers are received.
    pub push: SocketAddr,
}

impl AddressBook {
    /// Builds a book from explicit entries.
    pub fn new(entries: impl IntoIterator<Item = (ProcessId, WellKnownAddrs)>) -> Self {
        AddressBook {
            inner: Arc::new(entries.into_iter().collect()),
        }
    }

    /// The well-known addresses of `p`, if registered.
    pub fn addrs_of(&self, p: ProcessId) -> Option<WellKnownAddrs> {
        self.inner.get(&p).copied()
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Loopback address for an explicit port (random-port replies).
    pub fn loopback(port: u16) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
    }
}

/// Binds a non-blocking UDP socket on an OS-assigned loopback port.
pub fn bind_ephemeral() -> io::Result<UdpSocket> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    socket.set_nonblocking(true)?;
    Ok(socket)
}

/// Fixed reply/data socket addresses of one process — only used by the
/// no-random-ports ablation (Figure 12(a)), where the reply channels sit on
/// attacker-knowable ports instead of fresh random ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationAddrs {
    /// Fixed pull-reply port.
    pub pull_reply: SocketAddr,
    /// Fixed push-reply port.
    pub push_reply: SocketAddr,
    /// Fixed push-data port.
    pub push_data: SocketAddr,
}

/// The bound sockets behind [`AblationAddrs`].
#[derive(Debug)]
pub struct AblationSockets {
    /// Fixed pull-reply receiver.
    pub pull_reply: UdpSocket,
    /// Fixed push-reply receiver.
    pub push_reply: UdpSocket,
    /// Fixed push-data receiver.
    pub push_data: UdpSocket,
}

impl AblationSockets {
    /// Binds the three fixed reply sockets on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures.
    pub fn bind() -> io::Result<(Self, AblationAddrs)> {
        let pull_reply = bind_ephemeral()?;
        let push_reply = bind_ephemeral()?;
        let push_data = bind_ephemeral()?;
        let addrs = AblationAddrs {
            pull_reply: pull_reply.local_addr()?,
            push_reply: push_reply.local_addr()?,
            push_data: push_data.local_addr()?,
        };
        Ok((
            AblationSockets {
                pull_reply,
                push_reply,
                push_data,
            },
            addrs,
        ))
    }
}

/// The well-known socket pair of one process.
#[derive(Debug)]
pub struct WellKnownSockets {
    /// Pull-request receiver.
    pub pull: UdpSocket,
    /// Push-offer receiver.
    pub push: UdpSocket,
}

impl WellKnownSockets {
    /// Binds both sockets on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures.
    pub fn bind() -> io::Result<(Self, WellKnownAddrs)> {
        let pull = bind_ephemeral()?;
        let push = bind_ephemeral()?;
        let addrs = WellKnownAddrs {
            pull: pull.local_addr()?,
            push: push.local_addr()?,
        };
        Ok((WellKnownSockets { pull, push }, addrs))
    }
}

/// One live random-port socket of a [`SocketPool`].
#[derive(Debug)]
struct PoolSocket {
    socket: UdpSocket,
    /// The kernel-chosen port `socket` is bound to.
    port: u16,
    purpose: PortPurpose,
    born: Round,
}

/// The readiness token of a pool descriptor: the descriptor itself, which
/// stays the same while the ports bound to it come and go.
fn key(socket: &UdpSocket) -> u64 {
    sys::fd_of(socket) as u64
}

/// Syscalls a fresh descriptor costs before any readiness registration:
/// `socket`, `bind`, `ioctl(FIONBIO)` and `getsockname`.
const OPEN_SYSCALLS: u64 = 4;

/// Syscalls one re-port of a parked descriptor costs: `bind` +
/// `getsockname` ([`sys::bind_loopback_port`]).
const REBIND_SYSCALLS: u64 = 2;

/// A fresh descriptor on a kernel-chosen loopback port, with that port.
fn open_ephemeral() -> io::Result<(UdpSocket, u16)> {
    let socket = bind_ephemeral()?;
    let port = socket.local_addr()?.port();
    Ok((socket, port))
}

/// A pool of random-port sockets implementing [`PortOracle`].
///
/// A port lives for `lifetime` rounds ("this thread is terminated after a
/// few rounds", §4), bounding the window an attacker would have even if a
/// port leaked. The *descriptor* under it lives on: [`SocketPool::expire`]
/// releases the port ([`sys::release_port`] — from that instant the kernel
/// refuses datagrams to it, exactly as after `close`) and parks the
/// descriptor, then asks the readiness set once which descriptors are
/// readable and empties the parked ones among them; the next allocation
/// binds a parked descriptor to a fresh kernel-chosen port
/// ([`sys::bind_loopback_port`]). A descriptor is opened only while the
/// pool grows — the free list is empty — or when the kernel refuses to
/// re-port one (the descriptor is then dropped), so a steady pool performs
/// no `socket`/`close`/`epoll_ctl` and holds exactly its high-water of live
/// sockets in descriptors. A parked descriptor owns no port.
///
/// One cross-thread race is left open, and nothing rests on it: a sender on
/// another CPU that looked the socket up just before the release can queue
/// a datagram just after the expiry's readiness query. While the
/// descriptor stays parked, that datagram makes it readable and the next
/// drain empties it; once the descriptor is re-ported — in the same tick,
/// when a round starts right after the expiry — it is an ordinary datagram
/// on the new port: decode, purpose check, per-channel budget, source MAC.
/// A query whose report is full ([`sys::EVENT_BATCH`] readable live
/// sockets) can miss a parked descriptor the same way.
///
/// The pool keeps its descriptors in a readiness set of its own — an inner
/// epoll, the one descriptor the driver's epoll watches
/// ([`SocketPool::set_epoll`]) — and [`SocketPool::drain`] receives only on
/// the sockets that set reports, so a drain costs one `epoll_pwait` plus
/// one `recvmmsg` per *readable* socket. A fresh descriptor the set cannot
/// take is closed, and its allocation fails like one that found no
/// descriptor.
#[derive(Debug)]
pub struct SocketPool {
    lifetime: u64,
    /// Live sockets in allocation order — the order drains visit them.
    sockets: Vec<PoolSocket>,
    /// Port-less descriptors awaiting their next port. Each joined the
    /// readiness set when it was opened and stays in it.
    parked: Vec<UdpSocket>,
    /// Allocations that found neither a descriptor nor a port.
    bind_failures: u64,
    /// Failed allocations that re-advertised an older port.
    ports_reused: u64,
    /// Descriptors opened for the pool so far.
    sockets_opened: u64,
    /// Ports handed out so far.
    ports_allocated: u64,
    /// Syscalls spent on ports so far (see [`SocketPool::port_syscalls`]).
    port_syscalls: u64,
    /// The readiness set: every descriptor the pool owns, under its
    /// [`key`]. `None` until [`SocketPool::set_epoll`] attaches the pool.
    ready_set: Option<sys::Epoll>,
    /// Scratch for one readiness query.
    ready: Vec<u64>,
}

impl SocketPool {
    /// Creates a pool whose ports live for `lifetime` rounds.
    pub fn new(lifetime: u64) -> Self {
        SocketPool {
            lifetime,
            sockets: Vec::new(),
            parked: Vec::new(),
            bind_failures: 0,
            ports_reused: 0,
            sockets_opened: 0,
            ports_allocated: 0,
            port_syscalls: 0,
            ready_set: None,
            ready: Vec::new(),
        }
    }

    /// Builds the pool's readiness set from every descriptor it owns and
    /// registers it in `epoll` — the driver's — under `token`, so the
    /// driver wakes whenever a current or future pool socket is readable.
    /// A shard passes `pack_token(engine, ChannelClass::Pool)` so the
    /// wakeup routes to the owning engine.
    ///
    /// # Errors
    ///
    /// Propagates the kernel error of creating or filling the set, or of
    /// registering it; the pool is then left unattached.
    pub fn set_epoll(&mut self, epoll: &sys::Epoll, token: u64) -> io::Result<()> {
        let inner = sys::Epoll::new()?;
        for socket in self.sockets.iter().map(|s| &s.socket).chain(&self.parked) {
            inner.add_tagged(socket, key(socket))?;
        }
        epoll.add_epoll_tagged(&inner, token)?;
        self.ready_set = Some(inner);
        Ok(())
    }

    /// Number of live (port-holding) random-port sockets.
    pub fn open_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Allocations that could neither re-port a parked descriptor nor open
    /// a fresh one the readiness set took, and fell back to an already
    /// advertised port (or 0).
    pub fn bind_failures(&self) -> u64 {
        self.bind_failures
    }

    /// The [`SocketPool::bind_failures`] that re-advertised an older port
    /// of the same purpose; the rest advertised 0.
    pub fn ports_reused(&self) -> u64 {
        self.ports_reused
    }

    /// Descriptors opened for the pool so far. Grows while the pool does,
    /// then stops: ports keep rotating
    /// ([`SocketPool::ports_allocated`]) on the descriptors already open.
    pub fn sockets_opened(&self) -> u64 {
        self.sockets_opened
    }

    /// Ports handed out so far: every allocation that bound a port, on a
    /// fresh descriptor or a parked one.
    pub fn ports_allocated(&self) -> u64 {
        self.ports_allocated
    }

    /// Syscalls spent on ports so far: releases, the expiry's readiness
    /// queries, discarding receives, `bind` + `getsockname` per re-port,
    /// and `socket`/`bind`/`ioctl`/`getsockname`/`epoll_ctl` per fresh
    /// descriptor. Divided by [`SocketPool::ports_allocated`], what one
    /// random port costs in kernel crossings.
    pub fn port_syscalls(&self) -> u64 {
        self.port_syscalls
    }

    /// Retires ports allocated more than `lifetime` rounds ago. Each
    /// descriptor releases its port and parks; should the kernel refuse
    /// the release, the descriptor closes, which releases the port too.
    /// Then one readiness query (timeout 0) names the descriptors that
    /// still hold datagrams, and the parked ones among them are emptied —
    /// left there, one stale datagram would keep a parked descriptor
    /// readable and the driver awake. A pool not attached to a readiness
    /// set asks nothing: no drain reads it either.
    pub fn expire(&mut self, now: Round) {
        let Self {
            lifetime,
            sockets,
            parked,
            ready_set,
            ready,
            port_syscalls,
            ..
        } = self;
        let parked_before = parked.len();
        for expired in sockets.extract_if(.., |s| now.since(s.born) >= *lifetime) {
            *port_syscalls += 1;
            if sys::release_port(&expired.socket).is_ok() {
                parked.push(expired.socket);
            }
        }
        if parked.len() == parked_before {
            return;
        }
        let Some(set) = ready_set else {
            return;
        };
        ready.clear();
        *port_syscalls += 1;
        // A failed query reports nothing; the drain empties what it missed.
        let _ = set.wait_tagged(0, ready);
        for &token in ready.iter() {
            if let Some(socket) = parked.iter().find(|p| key(p) == token) {
                *port_syscalls += sys::discard_queued(socket);
            }
        }
    }

    /// A parked descriptor under a fresh kernel-chosen port. Any error
    /// drops — closes — the descriptor.
    fn rebind_parked(&mut self) -> Option<(UdpSocket, u16)> {
        let socket = self.parked.pop()?;
        self.port_syscalls += REBIND_SYSCALLS;
        let port = sys::bind_loopback_port(&socket).ok()?;
        Some((socket, port))
    }

    /// A fresh descriptor on a kernel-chosen port, already in the readiness
    /// set of an attached pool. That is the one registration of the
    /// descriptor's life: it stays in place across every port it carries.
    /// A descriptor the set refuses is closed — it would hold a port no
    /// drain ever reads.
    fn open_watched(&mut self) -> Option<(UdpSocket, u16)> {
        self.port_syscalls += OPEN_SYSCALLS;
        let (socket, port) = open_ephemeral().ok()?;
        if let Some(set) = &self.ready_set {
            self.port_syscalls += 1;
            set.add_tagged(&socket, key(&socket)).ok()?;
        }
        self.sockets_opened += 1;
        Some((socket, port))
    }

    /// Receives all pending datagrams on the sockets the readiness set
    /// reports, invoking `f(purpose, payload)` for each: sockets in
    /// allocation order, datagrams of one socket in arrival order, each
    /// moved through `rx`. Returns the number received. A pool not yet
    /// attached ([`SocketPool::set_epoll`]) has nothing to report and
    /// receives nothing.
    ///
    /// A parked descriptor that turns up readable caught a datagram in
    /// flight as its port was released; it is emptied, never delivered.
    pub fn drain(&mut self, rx: &mut BatchRx, mut f: impl FnMut(PortPurpose, &[u8])) -> usize {
        let Self {
            sockets,
            parked,
            ready_set,
            ready,
            port_syscalls,
            ..
        } = self;
        let Some(set) = ready_set else {
            return 0;
        };
        let mut count = 0;
        loop {
            ready.clear();
            let reported = set.wait_tagged(0, ready).unwrap_or(0);
            // Descriptor keys → positions in `sockets`, whose order is
            // allocation order whatever descriptor a socket sits on.
            ready.retain_mut(
                |token| match sockets.iter().position(|s| key(&s.socket) == *token) {
                    Some(i) => {
                        *token = i as u64;
                        true
                    }
                    None => {
                        if let Some(socket) = parked.iter().find(|p| key(p) == *token) {
                            *port_syscalls += sys::discard_queued(socket);
                        }
                        false
                    }
                },
            );
            ready.sort_unstable();
            for &i in ready.iter() {
                let s = &sockets[i as usize];
                count += rx.drain_socket(&s.socket, &mut [], |b| f(s.purpose, b));
            }
            // A full report may have left readable sockets unreported.
            if reported < sys::EVENT_BATCH {
                return count;
            }
        }
    }
}

impl PortOracle for SocketPool {
    fn allocate_port(&mut self, purpose: PortPurpose, round: Round) -> u16 {
        let allocated = match self.rebind_parked() {
            Some(recycled) => Some(recycled),
            None => self.open_watched(),
        };
        let Some((socket, port)) = allocated else {
            // Out of descriptors, ports or readiness watches: degrade by
            // reusing the most recent port of the same purpose, or report
            // port 0 (the message will simply go unanswered — the gossip
            // redundancy absorbs it).
            self.bind_failures += 1;
            let reused = self.sockets.iter().rev().find(|s| s.purpose == purpose);
            self.ports_reused += u64::from(reused.is_some());
            return reused.map_or(0, |s| s.port);
        };
        self.sockets.push(PoolSocket {
            socket,
            port,
            purpose,
            born: round,
        });
        self.ports_allocated += 1;
        port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_book_lookup() {
        let (_s, addrs) = WellKnownSockets::bind().unwrap();
        let book = AddressBook::new([(ProcessId(1), addrs)]);
        assert_eq!(book.addrs_of(ProcessId(1)), Some(addrs));
        assert_eq!(book.addrs_of(ProcessId(2)), None);
        assert_eq!(book.len(), 1);
        assert!(!book.is_empty());
    }

    #[test]
    fn well_known_sockets_have_distinct_ports() {
        let (_s, addrs) = WellKnownSockets::bind().unwrap();
        assert_ne!(addrs.pull.port(), addrs.push.port());
        assert!(addrs.pull.ip().is_loopback());
    }

    #[test]
    fn pool_allocates_distinct_ports() {
        let mut pool = SocketPool::new(3);
        let p1 = pool.allocate_port(PortPurpose::PullReply, Round(1));
        let p2 = pool.allocate_port(PortPurpose::PushReply, Round(1));
        assert_ne!(p1, 0);
        assert_ne!(p2, 0);
        assert_ne!(p1, p2);
        assert_eq!(pool.open_sockets(), 2);
    }

    #[test]
    fn pool_counts_port_rotations() {
        let mut pool = SocketPool::new(3);
        pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.allocate_port(PortPurpose::PushData, Round(1));
        assert_eq!(pool.ports_allocated(), 2);
    }

    #[test]
    fn pool_expires_old_sockets() {
        let mut pool = SocketPool::new(2);
        pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.allocate_port(PortPurpose::PullReply, Round(2));
        pool.expire(Round(3));
        assert_eq!(pool.open_sockets(), 1);
        pool.expire(Round(10));
        assert_eq!(pool.open_sockets(), 0);
    }

    /// A pool attached to a fresh driver epoll under token 5.
    fn attached_pool(lifetime: u64) -> (SocketPool, sys::Epoll) {
        let outer = sys::Epoll::new().unwrap();
        let mut pool = SocketPool::new(lifetime);
        pool.set_epoll(&outer, 5).unwrap();
        (pool, outer)
    }

    fn send(port: u16, bytes: &[u8]) {
        let sender = bind_ephemeral().unwrap();
        sender.send_to(bytes, AddressBook::loopback(port)).unwrap();
    }

    fn drain_pool(pool: &mut SocketPool) -> Vec<(PortPurpose, Vec<u8>)> {
        let mut rx = BatchRx::new(2048);
        let mut got = Vec::new();
        pool.drain(&mut rx, |purpose, bytes| {
            got.push((purpose, bytes.to_vec()));
        });
        got
    }

    #[test]
    fn pool_receives_datagrams_with_purpose() {
        let (mut pool, _outer) = attached_pool(3);
        let port = pool.allocate_port(PortPurpose::PushData, Round(1));
        send(port, b"hello");
        // Give the loopback a moment.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut rx = BatchRx::new(2048);
        let mut got = Vec::new();
        let n = pool.drain(&mut rx, |purpose, bytes| {
            got.push((purpose, bytes.to_vec()));
        });
        assert_eq!(n, 1);
        assert_eq!(got[0].0, PortPurpose::PushData);
        assert_eq!(got[0].1, b"hello");
        assert!(rx.syscalls() > 0);
    }

    #[test]
    fn drain_on_empty_pool_is_zero() {
        let (mut pool, _outer) = attached_pool(3);
        let mut rx = BatchRx::new(64);
        assert_eq!(pool.drain(&mut rx, |_, _| panic!("no data expected")), 0);
    }

    #[test]
    fn a_pool_that_is_not_attached_receives_nothing() {
        let mut pool = SocketPool::new(3);
        let port = pool.allocate_port(PortPurpose::PushData, Round(1));
        send(port, b"unwatched");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(drain_pool(&mut pool), []);
        // A refused registration is reported, and leaves it unattached.
        let outer = sys::Epoll::new().unwrap();
        sys::fault::fail_registration_after(Some(0));
        let err = pool.set_epoll(&outer, 5).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
        assert_eq!(drain_pool(&mut pool), []);
        // Attaching takes in the descriptors opened before it.
        pool.set_epoll(&outer, 5).unwrap();
        assert_eq!(
            drain_pool(&mut pool),
            [(PortPurpose::PushData, b"unwatched".to_vec())]
        );
    }

    #[test]
    fn drain_receives_only_on_the_readable_socket() {
        let (mut pool, outer) = attached_pool(3);
        let ports: Vec<u16> = (0..16)
            .map(|i| {
                let purpose = if i == 9 {
                    PortPurpose::PushData
                } else {
                    PortPurpose::PullReply
                };
                pool.allocate_port(purpose, Round(1))
            })
            .collect();
        send(ports[9], b"only one");
        let mut tokens = Vec::new();
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        assert_eq!(tokens, [5], "sixteen sockets, one registration");

        let mut rx = BatchRx::new(2048);
        let mut got = Vec::new();
        let n = pool.drain(&mut rx, |purpose, bytes| {
            got.push((purpose, bytes.to_vec()));
        });
        assert_eq!(n, 1);
        assert_eq!(got, [(PortPurpose::PushData, b"only one".to_vec())]);
        assert!(
            rx.syscalls() <= 2,
            "a drain must not visit the 15 idle sockets: {} receive syscalls",
            rx.syscalls()
        );
        tokens.clear();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);
    }

    #[test]
    fn ready_sockets_drain_in_allocation_order() {
        let (mut pool, _outer) = attached_pool(3);
        let ports: Vec<u16> = (0..5)
            .map(|_| pool.allocate_port(PortPurpose::PullReply, Round(1)))
            .collect();
        // Arrival order is the reverse of allocation order.
        send(ports[3], b"later socket");
        send(ports[1], b"earlier socket");
        std::thread::sleep(std::time::Duration::from_millis(20));
        let got: Vec<Vec<u8>> = drain_pool(&mut pool).into_iter().map(|(_, b)| b).collect();
        assert_eq!(got, [b"earlier socket".to_vec(), b"later socket".to_vec()]);
    }

    #[test]
    fn expired_sockets_stop_reporting_and_an_idle_drain_receives_nothing() {
        let (mut pool, outer) = attached_pool(2);
        let old = pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.allocate_port(PortPurpose::PushReply, Round(2));
        send(old, b"too late");
        let mut tokens = Vec::new();
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);

        pool.expire(Round(3));
        assert_eq!(pool.open_sockets(), 1);
        tokens.clear();
        assert_eq!(
            outer.wait_tagged(0, &mut tokens).unwrap(),
            0,
            "a released port takes its queued datagram with it"
        );
        assert_eq!(pool.parked.len(), 1, "the descriptor is kept");
        // The port is gone from that instant: a datagram to it costs the
        // kernel a refusal and the pool nothing.
        send(old, b"later still");
        assert_eq!(
            outer.wait_tagged(50, &mut tokens).unwrap(),
            0,
            "a datagram to a released port must not wake the driver"
        );
        let mut rx = BatchRx::new(64);
        let n = pool.drain(&mut rx, |_, _| panic!("no data expected"));
        assert_eq!((n, rx.syscalls()), (0, 0), "an idle pool costs no receive");
    }

    #[test]
    fn a_datagram_queued_before_release_is_never_delivered_under_the_next_purpose() {
        let (mut pool, _outer) = attached_pool(1);
        let old = pool.allocate_port(PortPurpose::PullReply, Round(1));
        send(old, b"for the old purpose");
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.expire(Round(2));
        assert_eq!(pool.open_sockets(), 0);
        let new = pool.allocate_port(PortPurpose::PushData, Round(2));
        assert_ne!(new, 0);
        assert_eq!(pool.sockets_opened(), 1, "same descriptor, next port");
        assert_eq!(drain_pool(&mut pool), []);
        // The next port is live.
        send(new, b"for the new purpose");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            drain_pool(&mut pool),
            [(PortPurpose::PushData, b"for the new purpose".to_vec())]
        );
    }

    /// The cross-thread race, staged: a datagram sits on the descriptor
    /// when its port is released.
    #[test]
    fn a_raced_datagram_is_discarded_by_the_expiry_query_and_by_drain() {
        // Still queued at the release: the expiry's readiness query reports
        // the descriptor, and it is emptied before it can take a port.
        let (mut pool, outer) = attached_pool(1);
        let old = pool.allocate_port(PortPurpose::PullReply, Round(1));
        send(old, b"in flight");
        let mut tokens = Vec::new();
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        sys::tally::take();
        pool.expire(Round(2));
        let calls = sys::tally::take();
        assert_eq!((calls.release, calls.wait), (1, 1));
        assert_eq!(calls.discard, 2, "one datagram, one empty receive");
        tokens.clear();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);
        assert_ne!(pool.allocate_port(PortPurpose::PushData, Round(2)), 0);
        assert_eq!(pool.sockets_opened(), 1);
        assert_eq!(sys::tally::take().discard, 0, "the rebind discards nothing");
        assert_eq!(drain_pool(&mut pool), []);
        // Drained while parked: the drain discards it, and the driver,
        // which the stale datagram had woken, goes back to sleep.
        let (mut pool, outer) = attached_pool(3);
        let (socket, port) = open_ephemeral().unwrap();
        send(port, b"in flight");
        std::thread::sleep(std::time::Duration::from_millis(20));
        sys::release_port(&socket).unwrap();
        pool.ready_set
            .as_ref()
            .unwrap()
            .add_tagged(&socket, key(&socket))
            .unwrap();
        pool.parked.push(socket);
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        assert_eq!(drain_pool(&mut pool), []);
        tokens.clear();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);
        assert_eq!(pool.parked.len(), 1);
    }

    /// What a port costs in kernel crossings once the pool has grown:
    /// expiring `k` idle ports is `k` releases and one readiness query,
    /// re-porting them is `k` binds and `k` `getsockname`s, and only a
    /// descriptor that holds a datagram pays discarding receives.
    #[test]
    fn expiring_and_re_porting_k_ports_costs_k_releases_one_query_and_2k_binds() {
        const K: u64 = 6;
        let (mut pool, _outer) = attached_pool(1);
        sys::tally::take();
        let mut ports: Vec<u16> = (0..K)
            .map(|_| pool.allocate_port(PortPurpose::PullReply, Round(1)))
            .collect();
        assert_eq!(sys::tally::take().epoll_ctl, K, "growth registers each");
        let grown = pool.port_syscalls();
        assert_eq!(grown, K * (OPEN_SYSCALLS + 1));

        for round in 2..=4 {
            // The second pass finds a datagram on one expiring port.
            let loaded = round == 3;
            if loaded {
                send(ports[2], b"unread");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            let before = pool.port_syscalls();
            pool.expire(Round(round));
            ports = (0..K)
                .map(|_| pool.allocate_port(PortPurpose::PushReply, Round(round)))
                .collect();
            assert!(ports.iter().all(|&p| p != 0));
            let calls = sys::tally::take();
            let discards = if loaded { 2 } else { 0 };
            assert_eq!(
                calls,
                sys::tally::Calls {
                    release: K,
                    wait: 1,
                    discard: discards,
                    bind: K,
                    getsockname: K,
                    epoll_ctl: 0,
                },
                "round {round}"
            );
            assert_eq!(pool.port_syscalls() - before, 3 * K + 1 + discards);
        }
        assert_eq!(pool.sockets_opened(), K);
        assert_eq!(pool.ports_allocated(), 4 * K);
        // Nothing expired, nothing asked.
        pool.expire(Round(4));
        assert_eq!(sys::tally::take(), sys::tally::Calls::default());
    }

    #[test]
    fn a_re_ported_descriptor_gets_a_fresh_kernel_chosen_port_every_time() {
        let (mut pool, _outer) = attached_pool(1);
        let mut prev = pool.allocate_port(PortPurpose::PullReply, Round(1));
        let mut distinct = std::collections::HashSet::from([prev]);
        let mut stayed = 0;
        for round in 2..=1_001 {
            pool.expire(Round(round));
            assert_eq!((pool.open_sockets(), pool.parked.len()), (0, 1));
            let port = pool.allocate_port(PortPurpose::PullReply, Round(round));
            assert_ne!(port, 0);
            stayed += u32::from(port == prev);
            distinct.insert(port);
            prev = port;
        }
        assert_eq!(pool.sockets_opened(), 1, "1 000 ports on one descriptor");
        assert_eq!(pool.bind_failures(), 0);
        // Uniform draws from the ~28 000-port ephemeral range: ~18
        // collisions expected among 1 000, a repeat of the previous port
        // once in 28 runs.
        assert!(distinct.len() >= 900, "{} distinct ports", distinct.len());
        assert!(stayed <= 3, "the port stayed put {stayed} times");
        send(prev, b"still a socket");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(drain_pool(&mut pool).len(), 1);
    }

    #[test]
    fn recycled_descriptors_drain_in_allocation_order() {
        let (mut pool, _outer) = attached_pool(2);
        let first: Vec<u16> = (0..4)
            .map(|_| pool.allocate_port(PortPurpose::PullReply, Round(1)))
            .collect();
        let mut ports: Vec<u16> = (0..4)
            .map(|_| pool.allocate_port(PortPurpose::PushReply, Round(2)))
            .collect();
        pool.expire(Round(3));
        // These four sit on the round-1 descriptors — the lowest
        // descriptor numbers in the pool — but were allocated last.
        ports.extend((0..4).map(|_| pool.allocate_port(PortPurpose::PushData, Round(3))));
        assert!(first.iter().all(|&p| p != 0));
        assert_eq!(pool.sockets_opened(), 8);
        for (i, &port) in ports.iter().enumerate().rev() {
            send(port, &[i as u8]);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let order: Vec<u8> = drain_pool(&mut pool).iter().map(|(_, b)| b[0]).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn a_failed_rebind_closes_the_descriptor_and_falls_back_to_a_fresh_bind() {
        let (mut pool, _outer) = attached_pool(3);
        // A parked descriptor that still holds a port cannot be bound.
        let (stuck, stuck_port) = open_ephemeral().unwrap();
        pool.parked.push(stuck);
        let port = pool.allocate_port(PortPurpose::PushData, Round(1));
        // A confirmed port, so nothing is dropped as `NetStats::alloc_failed`.
        assert_ne!(port, 0);
        assert_eq!(pool.bind_failures(), 0);
        assert_eq!(pool.sockets_opened(), 1);
        assert!(pool.parked.is_empty(), "the stuck descriptor is closed");
        send(stuck_port, b"to the closed descriptor");
        send(port, b"to the fresh one");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            drain_pool(&mut pool),
            [(PortPurpose::PushData, b"to the fresh one".to_vec())]
        );
    }

    /// A fresh descriptor the readiness set refuses would hold a port no
    /// drain reads: it is closed, and the allocation fails like one that
    /// found no descriptor — counted, re-advertising the newest port of
    /// the same purpose, or 0 when the pool has none.
    #[test]
    fn a_descriptor_the_readiness_set_refuses_is_closed_and_its_allocation_fails() {
        let (mut pool, outer) = attached_pool(3);
        pool.allocate_port(PortPurpose::PullReply, Round(1));
        let newest = pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.allocate_port(PortPurpose::PushReply, Round(1));

        sys::fault::fail_registration_after(Some(0));
        let readvertised = pool.allocate_port(PortPurpose::PullReply, Round(2));
        sys::fault::fail_registration_after(Some(0));
        let none = pool.allocate_port(PortPurpose::PushData, Round(2));
        assert_eq!((readvertised, none), (newest, 0));
        assert_eq!(pool.bind_failures(), 2);
        assert_eq!(
            (pool.open_sockets(), pool.sockets_opened()),
            (3, 3),
            "the refused descriptors are not kept"
        );
        assert!(pool.parked.is_empty());

        // The re-advertised port is live: it wakes the driver and drains
        // under its purpose.
        send(newest, b"re-advertised");
        let mut tokens = Vec::new();
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        assert_eq!(tokens, [5]);
        assert_eq!(
            drain_pool(&mut pool),
            [(PortPurpose::PullReply, b"re-advertised".to_vec())]
        );
        // With the set accepting again, the pool grows again.
        assert_ne!(pool.allocate_port(PortPurpose::PushData, Round(2)), 0);
        assert_eq!((pool.sockets_opened(), pool.bind_failures()), (4, 2));
    }

    /// Every failed allocation counts in `bind_failures`; only one that
    /// re-advertises an older port of its purpose counts in `ports_reused`.
    #[test]
    fn only_a_failed_allocation_that_readvertises_counts_as_a_reused_port() {
        let (mut pool, _outer) = attached_pool(3);
        sys::fault::fail_registration_after(Some(0));
        assert_eq!(pool.allocate_port(PortPurpose::PullReply, Round(1)), 0);
        assert_eq!((pool.bind_failures(), pool.ports_reused()), (1, 0));

        let port = pool.allocate_port(PortPurpose::PullReply, Round(1));
        sys::fault::fail_registration_after(Some(0));
        assert_eq!(pool.allocate_port(PortPurpose::PullReply, Round(2)), port);
        sys::fault::fail_registration_after(Some(0));
        assert_eq!(pool.allocate_port(PortPurpose::PushData, Round(2)), 0);
        assert_eq!((pool.bind_failures(), pool.ports_reused()), (3, 1));
        assert_eq!(pool.ports_allocated(), 1);
    }

    /// A drain of `k` queued datagrams yields exactly the sent sequence and
    /// costs `k / BATCH + 1` `recvmmsg` calls: full batches, then the
    /// short one that proves the queue empty. For 100 datagrams that is
    /// one full batch of 64 and a short one of 36 — 2 calls, against the
    /// 101 a `recv_from` loop would make.
    #[test]
    fn batch_rx_drains_the_sent_sequence_in_two_recvmmsg_calls() {
        let socket = bind_ephemeral().unwrap();
        let dest = socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let sent: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i, 0xEE, i]).collect();
        for d in &sent {
            sender.send_to(d, dest).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut rx = BatchRx::new(2048);
        let mut got = Vec::new();
        let n = rx.drain_socket(&socket, &mut [], |bytes| got.push(bytes.to_vec()));
        assert_eq!(n, 100);
        assert_eq!(got, sent);
        assert_eq!((rx.syscalls(), rx.batched_datagrams()), (2, 100));
    }

    /// A receiver's header and iovec tables are built once and point into
    /// heap and mmap storage, not into the receiver: moved after its first
    /// receive — into a box, then onto another thread — it still returns
    /// the sent bytes in order. Each burst is more than one batch, so
    /// every move is followed by full and short `recvmmsg` calls.
    #[test]
    fn a_batch_rx_moved_after_its_first_receive_still_returns_the_sent_bytes() {
        let socket = bind_ephemeral().unwrap();
        let dest = socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let send = |burst: u8| -> Vec<Vec<u8>> {
            let sent: Vec<Vec<u8>> = (0..70u8).map(|i| vec![burst, i, 0xEE]).collect();
            for d in &sent {
                sender.send_to(d, dest).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            sent
        };
        let drain = |rx: &mut BatchRx| {
            let mut got = Vec::new();
            rx.drain_socket(&socket, &mut [], |bytes| got.push(bytes.to_vec()));
            got
        };

        let mut rx = BatchRx::new(2048);
        let sent = send(0);
        assert_eq!(drain(&mut rx), sent);
        let mut boxed = Box::new(rx);
        let sent = send(1);
        assert_eq!(drain(&mut boxed), sent);
        let sent = send(2);
        let (got, rx) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut rx = *boxed;
                (drain(&mut rx), rx)
            })
            .join()
            .unwrap()
        });
        assert_eq!(got, sent);
        assert_eq!((rx.syscalls(), rx.batched_datagrams()), (6, 210));
    }

    #[test]
    fn batch_tx_fanout_delivers_once_per_recipient() {
        let rx_socket = bind_ephemeral().unwrap();
        let dest = rx_socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let mut tx = BatchTx::new();
        for _ in 0..10 {
            tx.push(&sender, dest, b"first", false);
        }
        let sent = tx.finish(&sender);
        assert_eq!(sent, 10);
        assert_eq!(tx.syscalls(), 1, "fan-out must be one sendmmsg");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut buf = [0u8; 64];
        let mut got = 0;
        while let Ok((len, _)) = rx_socket.recv_from(&mut buf) {
            assert_eq!(&buf[..len], b"first");
            got += 1;
        }
        assert_eq!(got, 10);
    }

    /// A message pushed through the arena leaves as exactly its encoding,
    /// on either side of a flush.
    #[test]
    fn push_message_sends_the_encoding_across_a_flush() {
        let rx_socket = bind_ephemeral().unwrap();
        let dest = rx_socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let offer = crate::attack::fabricated_push_offer(7);
        let reply = crate::attack::fabricated_pull_reply(8);
        let mut tx = BatchTx::new();
        for _ in 0..crate::sys::BATCH + 5 {
            tx.push_message(&sender, dest, &offer);
        }
        tx.push_message(&sender, dest, &reply);
        tx.push_message(&sender, dest, &reply);
        assert_eq!(tx.finish(&sender), crate::sys::BATCH as u64 + 7);
        assert_eq!(tx.syscalls(), 2, "one full batch, then the rest");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut want = vec![codec::encode(&offer).to_vec(); crate::sys::BATCH + 5];
        want.extend(vec![codec::encode(&reply).to_vec(); 2]);
        let mut buf = [0u8; 2048];
        let mut got = Vec::new();
        while let Ok((len, _)) = rx_socket.recv_from(&mut buf) {
            got.push(buf[..len].to_vec());
        }
        assert_eq!(got, want);
    }

    /// A datagram to a non-IPv4 destination is sent on its own, one
    /// syscall, and leaves the arena's queue as it was.
    #[test]
    fn a_non_ipv4_push_is_sent_on_its_own() {
        let rx_socket = bind_ephemeral().unwrap();
        let dest = rx_socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let v6: SocketAddr = "[::1]:9".parse().unwrap();
        let mut tx = BatchTx::new();
        tx.push(&sender, dest, b"A", false);
        tx.push(&sender, v6, b"B", false);
        tx.push(&sender, dest, b"C", false);
        assert_eq!(tx.syscalls(), 1, "the IPv6 datagram, at once");
        tx.finish(&sender);
        assert_eq!(tx.syscalls(), 2, "then one sendmmsg for the rest");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        while let Ok(len) = rx_socket.recv(&mut buf) {
            got.push(buf[..len].to_vec());
        }
        assert_eq!(got, [b"A".to_vec(), b"C".to_vec()]);
    }

    #[test]
    fn batch_tx_flushes_when_full() {
        let rx_socket = bind_ephemeral().unwrap();
        let dest = rx_socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let mut tx = BatchTx::new();
        let total = crate::sys::BATCH + 10;
        for i in 0..total {
            tx.push(&sender, dest, &[i as u8], false);
        }
        assert_eq!(tx.finish(&sender), total as u64);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut buf = [0u8; 64];
        let mut got = 0;
        while rx_socket.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, total);
    }
}
