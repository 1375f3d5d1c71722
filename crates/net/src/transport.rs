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
//! the pool makes `connect(AF_UNSPEC)` + a discarding `recv` when it
//! expires and a discarding `recv` + `bind` + `getsockname` when the
//! descriptor takes its next port ([`SocketPool`] has the details and the
//! one race this leaves). `socket`, `ioctl(FIONBIO)`, `epoll_ctl(ADD)` and
//! `close` are paid per *descriptor*: while the pool grows to its
//! high-water of live sockets, and on the fallback when a port cannot be
//! released or re-bound (always, on targets without the raw shims).

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;

use drum_core::engine::{PortOracle, PortPurpose};
use drum_core::ids::{ProcessId, Round};

use crate::sys;

/// Batched datagram receiver with a per-datagram fallback.
///
/// In batched mode one `recvmmsg(2)` call drains up to [`sys::BATCH`]
/// datagrams into a fixed arena; in fallback mode (targets where
/// [`sys::available`] is false) the same API loops `recv_from` one datagram
/// per syscall. Both modes hand datagrams to the caller in kernel queue
/// order and stop at the first `WouldBlock`, so every downstream
/// accept/drop decision is identical — only the syscall count differs,
/// which is exactly what the running totals expose.
#[derive(Debug)]
pub struct BatchRx {
    arena: Option<sys::RecvArena>,
    slot_len: usize,
    syscalls: u64,
    batched_datagrams: u64,
}

impl BatchRx {
    /// Creates a receiver in the target's mode: batched where
    /// [`sys::available`]. `slot_len` bounds each received datagram, like
    /// the scratch buffer handed to `recv_from` on the fallback path.
    pub fn new(slot_len: usize) -> Self {
        Self::forced(slot_len, true)
    }

    /// Creates a receiver with an explicit mode — the hook the
    /// equivalence tests and benches use to pin both arms. Requesting
    /// batched mode on a target without support silently yields the
    /// fallback (callers check [`BatchRx::batched`] when it matters).
    pub fn forced(slot_len: usize, batched: bool) -> Self {
        BatchRx {
            arena: (batched && sys::available()).then(|| sys::RecvArena::new(slot_len)),
            slot_len,
            syscalls: 0,
            batched_datagrams: 0,
        }
    }

    /// Whether the batched path is in effect.
    pub fn batched(&self) -> bool {
        self.arena.is_some()
    }

    /// Receive syscalls made so far (`recvmmsg` + `recv_from`, including
    /// the final empty call that observes `WouldBlock`).
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Datagrams moved by batched (`recvmmsg`) calls so far. Together with
    /// [`BatchRx::syscalls`] this measures the amortization: mean batch
    /// fill = `batched_datagrams / syscalls`.
    pub fn batched_datagrams(&self) -> u64 {
        self.batched_datagrams
    }

    /// Drains `socket` until it would block, invoking `f` once per
    /// datagram in arrival order. `scratch` is used by the fallback path
    /// only and must be at least `slot_len` bytes. Returns the number of
    /// datagrams drained.
    pub fn drain_socket(
        &mut self,
        socket: &UdpSocket,
        scratch: &mut [u8],
        mut f: impl FnMut(&[u8]),
    ) -> usize {
        let mut count = 0;
        match &mut self.arena {
            Some(arena) => {
                let fd = sys::fd_of(socket);
                loop {
                    self.syscalls += 1;
                    match arena.recv(fd) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            self.batched_datagrams += n as u64;
                            count += n;
                            for i in 0..n {
                                f(arena.datagram(i));
                            }
                            if n < sys::BATCH {
                                // A short batch already proves the queue
                                // is empty; skip the confirming syscall.
                                break;
                            }
                        }
                    }
                }
            }
            None => {
                let take = self.slot_len.min(scratch.len());
                let scratch = &mut scratch[..take];
                loop {
                    self.syscalls += 1;
                    match socket.recv_from(scratch) {
                        Ok((len, _)) => {
                            count += 1;
                            f(&scratch[..len]);
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
        }
        count
    }
}

/// Batched datagram sender with a per-datagram fallback.
///
/// In batched mode datagrams queue into a [`sys::SendArena`] and flush
/// through `sendmmsg(2)` (automatically when a batch fills, explicitly via
/// [`BatchTx::finish`]); the encode-once fan-out queues repeated bytes as
/// arena ranges, so a message fanned to `k` recipients is copied once and
/// the kernel crossing is paid once per [`sys::BATCH`]. In fallback mode
/// each push is an immediate `send_to`. Both modes drop undeliverable
/// datagrams silently (fire-and-forget UDP semantics).
#[derive(Debug)]
pub struct BatchTx {
    arena: Option<sys::SendArena>,
    syscalls: u64,
    pending_sent: u64,
}

impl BatchTx {
    /// Creates a sender in the target's mode: batched where
    /// [`sys::available`].
    pub fn new() -> Self {
        Self::forced(true)
    }

    /// Creates a sender with an explicit mode (tests/benches); batched
    /// mode degrades to fallback on unsupported targets.
    pub fn forced(batched: bool) -> Self {
        BatchTx {
            arena: (batched && sys::available()).then(sys::SendArena::new),
            syscalls: 0,
            pending_sent: 0,
        }
    }

    /// Whether the batched path is in effect.
    pub fn batched(&self) -> bool {
        self.arena.is_some()
    }

    /// Send syscalls made so far (`sendmmsg` + `send_to`).
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Queues (batched) or sends (fallback) one datagram through
    /// `socket`. `repeat` declares that `bytes` are identical to the
    /// previous push since the last flush — the encode-once fan-out hint
    /// that lets the batched path share the arena range instead of
    /// copying.
    pub fn push(&mut self, socket: &UdpSocket, addr: SocketAddr, bytes: &[u8], repeat: bool) {
        match &mut self.arena {
            Some(arena) => {
                if arena.is_full() {
                    let (sent, syscalls) = arena.flush(sys::fd_of(socket));
                    self.pending_sent += sent as u64;
                    self.syscalls += syscalls as u64;
                }
                match sys::SockAddrV4Raw::from_std(addr) {
                    Some(dest) if repeat && !arena.is_empty() => arena.push_repeat(dest),
                    Some(dest) => arena.push(dest, bytes),
                    None => {
                        // Non-IPv4 destination: fall back for this one.
                        self.syscalls += 1;
                        if socket.send_to(bytes, addr).is_ok() {
                            self.pending_sent += 1;
                        }
                    }
                }
            }
            None => {
                self.syscalls += 1;
                if socket.send_to(bytes, addr).is_ok() {
                    self.pending_sent += 1;
                }
            }
        }
    }

    /// Flushes anything still queued and returns the number of datagrams
    /// actually handed to the kernel since the previous `finish`.
    pub fn finish(&mut self, socket: &UdpSocket) -> u64 {
        if let Some(arena) = &mut self.arena {
            if !arena.is_empty() {
                let (sent, syscalls) = arena.flush(sys::fd_of(socket));
                self.pending_sent += sent as u64;
                self.syscalls += syscalls as u64;
            }
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

/// Discards every datagram queued on `socket` (zero-length receives: UDP
/// drops the rest of a datagram that does not fit the buffer).
fn discard_queued(socket: &UdpSocket) {
    while socket.recv(&mut []).is_ok() {}
}

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
/// refuses datagrams to it, exactly as after `close`), discards what was
/// still queued and parks the descriptor; the next allocation binds a
/// parked descriptor to a fresh kernel-chosen port
/// ([`sys::bind_loopback_port`]). A descriptor is opened only while the
/// pool grows — the free list is empty — or when re-porting fails (other
/// targets, where `release_port` is unsupported and expiry closes; an
/// unexpected errno, where the descriptor is dropped), so a steady pool
/// performs no `socket`/`close`/`epoll_ctl` and holds exactly its
/// high-water of live sockets in descriptors. A parked descriptor owns no
/// port.
///
/// One cross-thread race is left open, and nothing rests on it: a sender on
/// another CPU that looked the socket up just before the release can queue
/// a datagram just after the discard. It is discarded when the descriptor
/// is re-ported or reported readable, whichever comes first; one that lands
/// in the sub-microsecond window between that second discard and the bind
/// is handled like any datagram on the new port — decode, purpose check,
/// per-channel budget, source MAC.
///
/// A pool attached to a driver's epoll ([`SocketPool::set_epoll`]) keeps
/// its descriptors in a readiness set of its own — an inner epoll, the one
/// descriptor the driver's epoll watches — and [`SocketPool::drain`]
/// receives only on the sockets that set reports, so a drain costs one
/// `epoll_pwait` plus one `recvmmsg` per *readable* socket instead of one
/// per *live* socket. Unattached (a shard without epoll), or if the
/// readiness set cannot be built, every drain scans every live socket.
#[derive(Debug)]
pub struct SocketPool {
    lifetime: u64,
    /// Live sockets in allocation order — the order drains visit them.
    sockets: Vec<PoolSocket>,
    /// Port-less descriptors awaiting their next port. Each was registered
    /// for readiness when it was opened and stays registered.
    parked: Vec<UdpSocket>,
    /// Allocations that found neither a descriptor nor a port.
    bind_failures: u64,
    /// Descriptors opened (fresh `socket()` calls) so far.
    sockets_opened: u64,
    /// Optional observability counter bumped per fresh port allocation.
    rotations: Option<drum_trace::Counter>,
    /// The driver's epoll and the token its pool wakeups carry.
    wake: Option<(Arc<sys::Epoll>, u64)>,
    /// The inner readiness set, registered in `wake` under its token;
    /// descriptor tokens are [`key`]s. `None` means full-scan drains, with
    /// every descriptor registered in `wake` directly.
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
            sockets_opened: 0,
            rotations: None,
            wake: None,
            ready_set: None,
            ready: Vec::new(),
        }
    }

    /// Attaches a counter (typically `names::PORT_ROTATIONS` from a
    /// [`drum_trace::Registry`]) incremented on every fresh port bind.
    pub fn set_rotation_counter(&mut self, counter: drum_trace::Counter) {
        self.rotations = Some(counter);
    }

    /// Makes `epoll` — the driver's — wake under `token` whenever a
    /// current or future pool socket is readable. A shard passes
    /// `pack_token(engine, ChannelClass::Pool)` so the wakeup routes to
    /// the owning engine.
    ///
    /// The pool registers one descriptor there, its inner readiness set.
    /// If that set cannot be created or filled, each descriptor registers
    /// in `epoll` directly instead and drains scan the whole pool.
    pub fn set_epoll(&mut self, epoll: Arc<sys::Epoll>, token: u64) {
        let nested = sys::Epoll::new().and_then(|inner| {
            for socket in self.descriptors() {
                inner.add_tagged(socket, key(socket))?;
            }
            epoll.add_epoll_tagged(&inner, token)?;
            Ok(inner)
        });
        self.wake = Some((epoll, token));
        match nested {
            Ok(inner) => self.ready_set = Some(inner),
            Err(_) => self.scan_from_now_on(),
        }
    }

    /// Every descriptor the pool owns, bound or parked.
    fn descriptors(&self) -> impl Iterator<Item = &UdpSocket> {
        self.sockets.iter().map(|s| &s.socket).chain(&self.parked)
    }

    /// Gives up the inner readiness set (dropping it removes it from the
    /// driver's epoll) and registers every descriptor — parked ones too,
    /// since re-porting never registers — with the driver directly:
    /// wakeups keep arriving, drains go back to the full scan.
    fn scan_from_now_on(&mut self) {
        self.ready_set = None;
        if let Some((epoll, token)) = &self.wake {
            for socket in self.descriptors() {
                let _ = epoll.add_tagged(socket, *token);
            }
        }
    }

    /// Registers the newest socket, a descriptor just opened, wherever
    /// readiness is being watched. This is the one registration of the
    /// descriptor's life: it stays in place across every port it carries.
    fn watch_newest(&mut self) {
        let Some(newest) = self.sockets.last() else {
            return;
        };
        match (&self.ready_set, &self.wake) {
            (Some(set), _) => {
                if set.add_tagged(&newest.socket, key(&newest.socket)).is_err() {
                    // A socket the readiness set cannot see would never be
                    // drained; the port it advertises stays valid.
                    self.scan_from_now_on();
                }
            }
            (None, Some((epoll, token))) => {
                let _ = epoll.add_tagged(&newest.socket, *token);
            }
            (None, None) => {}
        }
    }

    /// Number of live (port-holding) random-port sockets.
    pub fn open_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Allocations that could neither re-port a parked descriptor nor open
    /// a fresh one, and fell back to an already advertised port (or 0).
    pub fn bind_failures(&self) -> u64 {
        self.bind_failures
    }

    /// Descriptors opened so far. Grows while the pool does, then stops:
    /// ports keep rotating ([`SocketPool::set_rotation_counter`]) on the
    /// descriptors already open.
    pub fn sockets_opened(&self) -> u64 {
        self.sockets_opened
    }

    /// Retires ports allocated more than `lifetime` rounds ago. Each
    /// descriptor releases its port, drops what was queued for it — left
    /// there, one stale datagram would keep a parked descriptor readable
    /// and the driver awake — and parks; where the port cannot be released
    /// the descriptor closes, which releases it the old way.
    pub fn expire(&mut self, now: Round) {
        let Self {
            lifetime,
            sockets,
            parked,
            ..
        } = self;
        for expired in sockets.extract_if(.., |s| now.since(s.born) >= *lifetime) {
            if sys::release_port(&expired.socket).is_ok() {
                discard_queued(&expired.socket);
                parked.push(expired.socket);
            }
        }
    }

    /// A parked descriptor under a fresh kernel-chosen port. The second
    /// discard covers a datagram that was in flight to the old port when
    /// it was released. Any error drops — closes — the descriptor.
    fn rebind_parked(&mut self) -> Option<(UdpSocket, u16)> {
        let socket = self.parked.pop()?;
        discard_queued(&socket);
        let port = sys::bind_loopback_port(&socket).ok()?;
        Some((socket, port))
    }

    /// Receives all pending datagrams from the pool, invoking
    /// `f(purpose, payload)` for each: sockets in allocation order,
    /// datagrams of one socket in arrival order. Datagrams move through
    /// `rx` — batched `recvmmsg` or the per-datagram fallback; `scratch`
    /// backs the fallback path. Returns the number received.
    ///
    /// With a readiness set only the readable sockets are visited, still
    /// in allocation order — an idle socket yields nothing on a full scan
    /// either, so the datagram sequence `f` sees is the same. A parked
    /// descriptor that turns up readable caught a datagram in flight as
    /// its port was released; it is emptied, never delivered.
    pub fn drain(
        &mut self,
        rx: &mut BatchRx,
        scratch: &mut [u8],
        mut f: impl FnMut(PortPurpose, &[u8]),
    ) -> usize {
        let Self {
            sockets,
            parked,
            ready_set,
            ready,
            ..
        } = self;
        let mut recv = |s: &PoolSocket| rx.drain_socket(&s.socket, scratch, |b| f(s.purpose, b));
        let Some(set) = ready_set else {
            // Nothing says which descriptor woke the driver.
            parked.iter().for_each(discard_queued);
            return sockets.iter().map(recv).sum();
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
                            discard_queued(socket);
                        }
                        false
                    }
                },
            );
            ready.sort_unstable();
            for &i in ready.iter() {
                count += recv(&sockets[i as usize]);
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
        let recycled = self.rebind_parked();
        let fresh = recycled.is_none();
        let Some((socket, port)) = recycled.or_else(|| open_ephemeral().ok()) else {
            // Out of descriptors or ports: degrade by reusing the most
            // recent port of the same purpose, or report port 0 (the
            // message will simply go unanswered — the gossip redundancy
            // absorbs it).
            self.bind_failures += 1;
            return self
                .sockets
                .iter()
                .rev()
                .find(|s| s.purpose == purpose)
                .map_or(0, |s| s.port);
        };
        self.sockets.push(PoolSocket {
            socket,
            port,
            purpose,
            born: round,
        });
        if fresh {
            self.sockets_opened += 1;
            self.watch_newest();
        }
        if let Some(c) = &self.rotations {
            c.inc();
        }
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
        let reg = drum_trace::Registry::new();
        let mut pool = SocketPool::new(3);
        pool.set_rotation_counter(reg.counter(drum_trace::names::PORT_ROTATIONS));
        pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.allocate_port(PortPurpose::PushData, Round(1));
        assert_eq!(reg.counter(drum_trace::names::PORT_ROTATIONS).get(), 2);
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

    #[test]
    fn pool_receives_datagrams_with_purpose() {
        let mut pool = SocketPool::new(3);
        let port = pool.allocate_port(PortPurpose::PushData, Round(1));
        let sender = bind_ephemeral().unwrap();
        sender
            .send_to(b"hello", AddressBook::loopback(port))
            .unwrap();
        // Give the loopback a moment.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut scratch = [0u8; 2048];
        let mut rx = BatchRx::new(2048);
        let mut got = Vec::new();
        let n = pool.drain(&mut rx, &mut scratch, |purpose, bytes| {
            got.push((purpose, bytes.to_vec()));
        });
        assert_eq!(n, 1);
        assert_eq!(got[0].0, PortPurpose::PushData);
        assert_eq!(got[0].1, b"hello");
        assert!(rx.syscalls() > 0);
    }

    #[test]
    fn drain_on_empty_pool_is_zero() {
        let mut pool = SocketPool::new(3);
        let mut scratch = [0u8; 64];
        let mut rx = BatchRx::new(64);
        assert_eq!(
            pool.drain(&mut rx, &mut scratch, |_, _| panic!("no data expected")),
            0
        );
    }

    /// A pool attached to a fresh driver epoll under token 5; `None` where
    /// the target has no epoll (those pools always scan).
    fn attached_pool(lifetime: u64) -> Option<(SocketPool, Arc<sys::Epoll>)> {
        let outer = Arc::new(sys::Epoll::new().ok()?);
        let mut pool = SocketPool::new(lifetime);
        pool.set_epoll(outer.clone(), 5);
        assert!(pool.ready_set.is_some());
        Some((pool, outer))
    }

    fn send(port: u16, bytes: &[u8]) {
        let sender = bind_ephemeral().unwrap();
        sender.send_to(bytes, AddressBook::loopback(port)).unwrap();
    }

    #[test]
    fn drain_receives_only_on_the_readable_socket() {
        let Some((mut pool, outer)) = attached_pool(3) else {
            return;
        };
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

        let mut rx = BatchRx::forced(2048, true);
        let mut scratch = [0u8; 2048];
        let mut got = Vec::new();
        let n = pool.drain(&mut rx, &mut scratch, |purpose, bytes| {
            got.push((purpose, bytes.to_vec()));
        });
        assert_eq!(n, 1);
        assert_eq!(got, [(PortPurpose::PushData, b"only one".to_vec())]);
        assert!(
            rx.syscalls() <= 2,
            "a drain must not scan the 15 idle sockets: {} receive syscalls",
            rx.syscalls()
        );
        tokens.clear();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);
    }

    #[test]
    fn ready_sockets_drain_in_allocation_order() {
        let Some((mut pool, _outer)) = attached_pool(3) else {
            return;
        };
        let ports: Vec<u16> = (0..5)
            .map(|_| pool.allocate_port(PortPurpose::PullReply, Round(1)))
            .collect();
        // Arrival order is the reverse of allocation order.
        send(ports[3], b"later socket");
        send(ports[1], b"earlier socket");
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut rx = BatchRx::new(2048);
        let mut scratch = [0u8; 2048];
        let mut got = Vec::new();
        pool.drain(&mut rx, &mut scratch, |_, bytes| got.push(bytes.to_vec()));
        assert_eq!(
            got,
            [b"earlier socket".to_vec(), b"later socket".to_vec()],
            "the order a full scan would have produced"
        );
    }

    #[test]
    fn expired_sockets_stop_reporting_and_an_idle_drain_receives_nothing() {
        let Some((mut pool, outer)) = attached_pool(2) else {
            return;
        };
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
        if sys::available() {
            assert_eq!(pool.parked.len(), 1, "the descriptor is kept");
        }
        // The port is gone from that instant: a datagram to it costs the
        // kernel a refusal and the pool nothing, parked descriptor or not.
        send(old, b"later still");
        assert_eq!(
            outer.wait_tagged(50, &mut tokens).unwrap(),
            0,
            "a datagram to a released port must not wake the driver"
        );
        let mut rx = BatchRx::new(64);
        let mut scratch = [0u8; 64];
        let n = pool.drain(&mut rx, &mut scratch, |_, _| panic!("no data expected"));
        assert_eq!((n, rx.syscalls()), (0, 0), "an idle pool costs no receive");
    }

    /// An unattached pool (full-scan drains) and, where epoll exists, an
    /// attached one: re-porting must behave the same under both.
    fn both_pools(lifetime: u64) -> Vec<SocketPool> {
        let mut pools = vec![SocketPool::new(lifetime)];
        pools.extend(attached_pool(lifetime).map(|(pool, _outer)| pool));
        pools
    }

    fn drain_all(pool: &mut SocketPool) -> Vec<(PortPurpose, Vec<u8>)> {
        let mut rx = BatchRx::new(2048);
        let mut scratch = [0u8; 2048];
        let mut got = Vec::new();
        pool.drain(&mut rx, &mut scratch, |purpose, bytes| {
            got.push((purpose, bytes.to_vec()));
        });
        got
    }

    #[test]
    fn a_datagram_queued_before_release_is_never_delivered_under_the_next_purpose() {
        for mut pool in both_pools(1) {
            let old = pool.allocate_port(PortPurpose::PullReply, Round(1));
            send(old, b"for the old purpose");
            std::thread::sleep(std::time::Duration::from_millis(20));
            pool.expire(Round(2));
            assert_eq!(pool.open_sockets(), 0);
            let new = pool.allocate_port(PortPurpose::PushData, Round(2));
            assert_ne!(new, 0);
            if sys::available() {
                assert_eq!(pool.sockets_opened(), 1, "same descriptor, next port");
            }
            assert_eq!(drain_all(&mut pool), []);
            // The next port is live.
            send(new, b"for the new purpose");
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(
                drain_all(&mut pool),
                [(PortPurpose::PushData, b"for the new purpose".to_vec())]
            );
        }
    }

    /// The cross-thread race, staged: a datagram lands on the descriptor
    /// *after* the discard that follows the release.
    #[test]
    fn a_datagram_that_raced_the_release_is_discarded_by_rebind_and_by_drain() {
        if !sys::available() {
            return;
        }
        let raced = || {
            let (socket, port) = open_ephemeral().unwrap();
            send(port, b"in flight");
            std::thread::sleep(std::time::Duration::from_millis(20));
            sys::release_port(&socket).unwrap();
            socket
        };
        // Re-ported before any drain: the rebind discards it.
        for mut pool in both_pools(3) {
            pool.parked.push(raced());
            assert_ne!(pool.allocate_port(PortPurpose::PushData, Round(1)), 0);
            assert_eq!(pool.sockets_opened(), 0);
            assert_eq!(drain_all(&mut pool), []);
        }
        // Drained while parked: the drain discards it, and the driver,
        // which the stale datagram had woken, goes back to sleep.
        let (mut pool, outer) = attached_pool(3).unwrap();
        let socket = raced();
        pool.ready_set
            .as_ref()
            .unwrap()
            .add_tagged(&socket, key(&socket))
            .unwrap();
        pool.parked.push(socket);
        let mut tokens = Vec::new();
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        assert_eq!(drain_all(&mut pool), []);
        tokens.clear();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);
        assert_eq!(pool.parked.len(), 1);
    }

    #[test]
    fn a_re_ported_descriptor_gets_a_fresh_kernel_chosen_port_every_time() {
        if !sys::available() {
            return;
        }
        let mut pool = SocketPool::new(1);
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
        assert_eq!(drain_all(&mut pool).len(), 1);
    }

    #[test]
    fn recycled_descriptors_drain_in_allocation_order() {
        for mut pool in both_pools(2) {
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
            if sys::available() {
                assert_eq!(pool.sockets_opened(), 8);
            }
            for (i, &port) in ports.iter().enumerate().rev() {
                send(port, &[i as u8]);
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            let order: Vec<u8> = drain_all(&mut pool).iter().map(|(_, b)| b[0]).collect();
            assert_eq!(order, [0, 1, 2, 3, 4, 5, 6, 7]);
        }
    }

    #[test]
    fn a_failed_rebind_closes_the_descriptor_and_falls_back_to_a_fresh_bind() {
        for mut pool in both_pools(3) {
            // A parked descriptor that still holds a port cannot be bound.
            let (stuck, stuck_port) = open_ephemeral().unwrap();
            pool.parked.push(stuck);
            let port = pool.allocate_port(PortPurpose::PushData, Round(1));
            // A confirmed port, so nothing is dropped as `net.alloc_failed`.
            assert_ne!(port, 0);
            assert_eq!(pool.bind_failures(), 0);
            assert_eq!(pool.sockets_opened(), 1);
            assert!(pool.parked.is_empty(), "the stuck descriptor is closed");
            send(stuck_port, b"to the closed descriptor");
            send(port, b"to the fresh one");
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(
                drain_all(&mut pool),
                [(PortPurpose::PushData, b"to the fresh one".to_vec())]
            );
        }
    }

    #[test]
    fn a_pool_that_loses_its_readiness_set_scans_and_still_wakes_the_driver() {
        let Some((mut pool, outer)) = attached_pool(3) else {
            return;
        };
        let before = pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.scan_from_now_on();
        let after = pool.allocate_port(PortPurpose::PushData, Round(1));
        assert!(
            before != 0 && after != 0,
            "allocation itself never degrades"
        );
        for port in [before, after] {
            send(port, b"scanned");
            let mut tokens = Vec::new();
            assert!(outer.wait_tagged(5_000, &mut tokens).unwrap() >= 1);
            assert_eq!(tokens[0], 5);
            let mut rx = BatchRx::forced(64, true);
            let mut scratch = [0u8; 64];
            assert_eq!(pool.drain(&mut rx, &mut scratch, |_, _| ()), 1);
            assert_eq!(rx.syscalls(), 2, "one receive per live socket");
        }
    }

    #[test]
    fn a_descriptor_parked_when_the_readiness_set_is_lost_wakes_the_driver_under_its_next_port() {
        let Some((mut pool, outer)) = attached_pool(1) else {
            return;
        };
        pool.allocate_port(PortPurpose::PullReply, Round(1));
        pool.expire(Round(2));
        assert_eq!(pool.parked.len(), 1);
        pool.scan_from_now_on();
        let port = pool.allocate_port(PortPurpose::PushData, Round(2));
        assert_eq!(pool.sockets_opened(), 1, "re-ported, not re-opened");
        send(port, b"scanned");
        let mut tokens = Vec::new();
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        assert_eq!(tokens, [5], "registered with the driver once");
        assert_eq!(drain_all(&mut pool).len(), 1);
    }

    /// Both receive modes must observe the identical datagram sequence for
    /// the identical input, differing only in syscall count.
    #[test]
    fn batch_rx_modes_agree_on_datagram_sequence() {
        let run = |batched: bool| -> (Vec<Vec<u8>>, u64) {
            let socket = bind_ephemeral().unwrap();
            let dest = socket.local_addr().unwrap();
            let sender = bind_ephemeral().unwrap();
            for i in 0..100u8 {
                sender.send_to(&[i, 0xEE, i], dest).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut rx = BatchRx::forced(2048, batched);
            let mut scratch = [0u8; 2048];
            let mut got = Vec::new();
            rx.drain_socket(&socket, &mut scratch, |bytes| got.push(bytes.to_vec()));
            (got, rx.syscalls())
        };
        let (batched, batched_calls) = run(true);
        let (fallback, fallback_calls) = run(false);
        assert_eq!(batched, fallback);
        assert_eq!(batched.len(), 100);
        if crate::sys::available() {
            // 100 datagrams: two recvmmsg calls versus 101 recv_from.
            assert!(
                batched_calls < fallback_calls,
                "batched {batched_calls} vs fallback {fallback_calls}"
            );
        }
    }

    #[test]
    fn batch_tx_fanout_delivers_once_per_recipient() {
        let rx_socket = bind_ephemeral().unwrap();
        let dest = rx_socket.local_addr().unwrap();
        let sender = bind_ephemeral().unwrap();
        let mut tx = BatchTx::new();
        tx.push(&sender, dest, b"first", false);
        for _ in 0..9 {
            tx.push(&sender, dest, b"first", true);
        }
        let sent = tx.finish(&sender);
        assert_eq!(sent, 10);
        if crate::sys::available() {
            assert_eq!(tx.syscalls(), 1, "fan-out must be one sendmmsg");
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut buf = [0u8; 64];
        let mut got = 0;
        while let Ok((len, _)) = rx_socket.recv_from(&mut buf) {
            assert_eq!(&buf[..len], b"first");
            got += 1;
        }
        assert_eq!(got, 10);
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
