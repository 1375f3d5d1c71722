//! Batched UDP syscall I/O: raw Linux `recvmmsg`/`sendmmsg`/`epoll`
//! wrappers with a portable stub fallback.
//!
//! The paper's central argument (§4, §8–9) is that Drum survives floods
//! because excess datagrams are discarded *cheaply*, before they cost
//! protocol resources. With one `recv_from` per datagram the fixed syscall
//! overhead — not decoding or verification — dominates the receive budget
//! under a Figure-5-style flood. `recvmmsg(2)` moves up to [`BATCH`]
//! datagrams per kernel crossing and `sendmmsg(2)` does the same for the
//! encode-once fan-out, amortizing the fixed cost by ~64×; `epoll(7)` lets
//! quiet rounds block — to the nanosecond, through `epoll_pwait2(2)` —
//! until a datagram or the next round deadline, instead of spinning.
//!
//! Two smaller shims ride along. [`release_port`] / [`bind_loopback_port`]
//! (`connect(2)` to `AF_UNSPEC`, then `bind(2)` + `getsockname(2)`) move a
//! socket from one kernel-chosen port to the next without closing it —
//! this relies on Linux unhashing a UDP socket on disconnect unless its
//! port was requested explicitly (`SOCK_BINDPORT_LOCK`), which a bind to
//! port 0 never sets. And the receive arena's buffers are an anonymous
//! `mmap(2)`, so their pages commit only as datagrams are written into
//! them. On other targets the stubs report `Unsupported` and the socket
//! pool closes and re-opens its sockets, as it always did there; the stub
//! arena holds no buffer at all (its callers `recv_from` into their own
//! heap scratch).
//!
//! No libc is available in this hermetic workspace, so the syscalls are
//! issued through `asm!` shims (x86-64 and aarch64 Linux). Following the
//! pattern of `drum_crypto::sha256::shani`, this module is the **single
//! unsafe island of drum-net**: everything it exports is a safe API over
//! caller-owned arenas, `lib.rs` denies `unsafe_code` crate-wide and allows
//! it for this module alone, and every caller keeps a portable per-datagram
//! fallback (the one path of non-Linux targets) that makes the exact same
//! accept/drop decisions.
//!
//! Layout notes (see DESIGN.md §14): `mmsghdr`/`iovec`/`sockaddr_in` are
//! declared here with `#[repr(C)]` matching the Linux UAPI; the arenas own
//! fixed vectors of them plus the datagram buffers, and header pointers are
//! re-derived from those immediately before every syscall, so the
//! structures never hold dangling self-references across moves.

/// Maximum datagrams moved per `recvmmsg`/`sendmmsg` call.
pub const BATCH: usize = 64;

/// Maximum readiness tokens one [`Epoll::wait_tagged_for`] call surfaces.
/// A return of exactly this many means more descriptors may be ready;
/// level-triggered registration re-reports them on the next call.
pub const EVENT_BATCH: usize = 64;

/// Whether this build target has the batched syscall path (Linux on
/// x86-64 or aarch64) — a property of the platform, not a setting. Where
/// it is `false` the arenas and [`Epoll`] are inert stubs.
pub const fn available() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// [`available`], under the name `benchmark/` compiles against.
pub const fn enabled() -> bool {
    available()
}

pub use imp::{
    bind_loopback_port, fd_of, release_port, Epoll, RecvArena, SendArena, SockAddrV4Raw,
};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::{BATCH, EVENT_BATCH};
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    // ---------------------------------------------------------------
    // Syscall numbers and constants.
    // ---------------------------------------------------------------

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: usize = 3;
        pub const MMAP: usize = 9;
        pub const MUNMAP: usize = 11;
        pub const CONNECT: usize = 42;
        pub const BIND: usize = 49;
        pub const GETSOCKNAME: usize = 51;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
        pub const RECVMMSG: usize = 299;
        pub const SENDMMSG: usize = 307;
        pub const EPOLL_PWAIT2: usize = 441;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
        pub const BIND: usize = 200;
        pub const CONNECT: usize = 203;
        pub const GETSOCKNAME: usize = 204;
        pub const MUNMAP: usize = 215;
        pub const MMAP: usize = 222;
        pub const RECVMMSG: usize = 243;
        pub const SENDMMSG: usize = 269;
        pub const EPOLL_PWAIT2: usize = 441;
    }

    const AF_INET: u16 = 2;
    const MSG_DONTWAIT: u32 = 0x40;
    const EAGAIN: i32 = 11;
    const EINTR: i32 = 4;
    const ENOSYS: i32 = 38;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLLIN: u32 = 0x1;
    const PROT_READ_WRITE: usize = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: usize = 0x02 | 0x20;

    // ---------------------------------------------------------------
    // The asm shims. Raw syscalls return `-errno` in `[-4095, -1]`.
    // ---------------------------------------------------------------

    /// Issues a 6-argument raw syscall.
    ///
    /// # Safety
    ///
    /// The caller must uphold the kernel contract of syscall `n`: every
    /// pointer argument must be valid for the access the kernel performs,
    /// with lengths matching the buffers they describe.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    /// Issues a 6-argument raw syscall (aarch64 `svc 0` convention).
    ///
    /// # Safety
    ///
    /// Same contract as the x86-64 shim: arguments must satisfy the kernel
    /// API of syscall `n`.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }

    /// Folds a raw syscall return into `io::Result<usize>`.
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// `true` for errno values the drain loops treat as "no data now".
    fn is_soft(err: &io::Error) -> bool {
        matches!(err.raw_os_error(), Some(EAGAIN) | Some(EINTR))
    }

    // ---------------------------------------------------------------
    // Kernel ABI structures (Linux UAPI layout, x86-64 and aarch64).
    // ---------------------------------------------------------------

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct user_msghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut SockAddrV4Raw,
        namelen: i32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: u32,
    }

    impl MsgHdr {
        fn zeroed() -> Self {
            MsgHdr {
                name: core::ptr::null_mut(),
                namelen: 0,
                iov: core::ptr::null_mut(),
                iovlen: 0,
                control: core::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            }
        }
    }

    /// `struct mmsghdr`: one `msghdr` plus the kernel-filled datagram
    /// length.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// `struct sockaddr_in` (network byte order for port and address).
    #[repr(C)]
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SockAddrV4Raw {
        family: u16,
        port_be: [u8; 2],
        addr_be: [u8; 4],
        zero: [u8; 8],
    }

    impl SockAddrV4Raw {
        /// Converts a std socket address; `None` for IPv6 destinations
        /// (the runtime only ever targets loopback IPv4, but callers fall
        /// back to `send_to` rather than panic).
        pub fn from_std(addr: SocketAddr) -> Option<Self> {
            match addr {
                SocketAddr::V4(v4) => Some(SockAddrV4Raw {
                    family: AF_INET,
                    port_be: v4.port().to_be_bytes(),
                    addr_be: v4.ip().octets(),
                    zero: [0u8; 8],
                }),
                SocketAddr::V6(_) => None,
            }
        }

        fn unspecified() -> Self {
            SockAddrV4Raw {
                family: 0,
                port_be: [0; 2],
                addr_be: [0; 4],
                zero: [0u8; 8],
            }
        }
    }

    const SOCKADDR_LEN: usize = core::mem::size_of::<SockAddrV4Raw>();

    /// The raw file descriptor of a UDP socket, for the arena calls.
    pub fn fd_of(socket: &UdpSocket) -> i32 {
        socket.as_raw_fd()
    }

    // ---------------------------------------------------------------
    // Port rotation on a kept descriptor.
    // ---------------------------------------------------------------

    /// Gives up the port of a socket that was bound with port 0, keeping
    /// the descriptor: `connect(2)` to an `AF_UNSPEC` address. Linux marks
    /// only an *explicitly* requested port as locked to the socket
    /// (`SOCK_BINDPORT_LOCK`); a kernel-chosen one is unhashed by the
    /// disconnect, so from this call on a datagram to the old port finds
    /// no socket — refused by the kernel, exactly as after `close` — and
    /// the descriptor can be bound again.
    ///
    /// # Errors
    ///
    /// Propagates the kernel error; the port is then still held.
    pub fn release_port(socket: &UdpSocket) -> io::Result<()> {
        let unspec = SockAddrV4Raw::unspecified();
        // SAFETY: `unspec` is a valid sockaddr of SOCKADDR_LEN bytes alive
        // across the call; the kernel only reads it.
        let ret = unsafe {
            syscall6(
                nr::CONNECT,
                socket.as_raw_fd() as usize,
                core::ptr::addr_of!(unspec) as usize,
                SOCKADDR_LEN,
                0,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Binds a port-less socket (fresh, or after [`release_port`]) to
    /// `127.0.0.1:0` and returns the port the kernel chose for it, as
    /// `getsockname(2)` reports it — never a port the kernel did not
    /// confirm, never 0.
    ///
    /// # Errors
    ///
    /// Propagates the kernel error of either call (`EINVAL` if the socket
    /// still holds a port); a nonsensical `getsockname` answer is
    /// `InvalidData`.
    pub fn bind_loopback_port(socket: &UdpSocket) -> io::Result<u16> {
        let fd = socket.as_raw_fd() as usize;
        let loopback = SockAddrV4Raw {
            family: AF_INET,
            port_be: [0; 2],
            addr_be: [127, 0, 0, 1],
            zero: [0u8; 8],
        };
        // SAFETY: `loopback` is a valid sockaddr_in of SOCKADDR_LEN bytes
        // alive across the call; the kernel only reads it.
        let ret = unsafe {
            syscall6(
                nr::BIND,
                fd,
                core::ptr::addr_of!(loopback) as usize,
                SOCKADDR_LEN,
                0,
                0,
                0,
            )
        };
        check(ret)?;
        let mut bound = SockAddrV4Raw::unspecified();
        let mut len = SOCKADDR_LEN as u32;
        // SAFETY: `bound` is writable for the SOCKADDR_LEN bytes `len`
        // announces and both are alive across the call; the kernel writes
        // at most `len` bytes and the length it used.
        let ret = unsafe {
            syscall6(
                nr::GETSOCKNAME,
                fd,
                core::ptr::addr_of_mut!(bound) as usize,
                core::ptr::addr_of_mut!(len) as usize,
                0,
                0,
                0,
            )
        };
        check(ret)?;
        match u16::from_be_bytes(bound.port_be) {
            port if bound.family == AF_INET && port != 0 => Ok(port),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "getsockname reported no IPv4 port",
            )),
        }
    }

    // ---------------------------------------------------------------
    // Receive arena.
    // ---------------------------------------------------------------

    /// An anonymous private mapping: zero-filled memory whose pages commit
    /// only when first written, whatever the allocator's free lists hold.
    struct Pages {
        ptr: core::ptr::NonNull<u8>,
        len: usize,
    }

    impl Pages {
        /// Maps at least `len` bytes (`mmap` rejects an empty mapping).
        ///
        /// # Panics
        ///
        /// Panics if the kernel refuses the mapping — out of address
        /// space, as a failed heap allocation would abort.
        fn new(len: usize) -> Pages {
            let len = len.max(1);
            // SAFETY: an anonymous mapping at a kernel-chosen address
            // (addr 0, fd -1, offset 0) aliases no existing memory.
            let ret = unsafe {
                syscall6(
                    nr::MMAP,
                    0,
                    len,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    usize::MAX, // fd: -1
                    0,
                )
            };
            let addr = check(ret).unwrap_or_else(|e| panic!("mmap of {len} arena bytes: {e}"));
            let ptr = core::ptr::NonNull::new(addr as *mut u8).expect("mmap returned null");
            Pages { ptr, len }
        }

        fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` addresses `len` readable bytes (zero-filled by
            // the kernel, so initialized) owned by `self` until drop.
            unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }

        fn as_mut_slice(&mut self) -> &mut [u8] {
            // SAFETY: as `as_slice`, writable, and `&mut self` makes this
            // the only live reference into the mapping.
            unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Pages {
        fn drop(&mut self) {
            // SAFETY: unmapping exactly the region `new` mapped, which
            // nothing else references once `self` is being dropped.
            let _ =
                unsafe { syscall6(nr::MUNMAP, self.ptr.as_ptr() as usize, self.len, 0, 0, 0, 0) };
        }
    }

    /// Fixed scratch for `recvmmsg`: [`BATCH`] datagram buffers of
    /// `slot_len` bytes each, plus the `mmsghdr`/`iovec` vectors one call
    /// fills. Allocated once per runtime thread and reused for every
    /// batched receive. The buffers are an anonymous mapping, not heap: a
    /// page commits when the kernel first writes a datagram into it, so
    /// resident memory follows the bytes actually received (a 60 KiB slot
    /// that only ever sees 100-byte datagrams costs one page) instead of
    /// depending on whether the allocator zero-fills a recycled chunk.
    pub struct RecvArena {
        slot_len: usize,
        bufs: Pages,
        lens: [usize; BATCH],
        hdrs: Vec<MMsgHdr>,
        iovs: Vec<IoVec>,
        count: usize,
    }

    impl std::fmt::Debug for RecvArena {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("RecvArena")
                .field("slot_len", &self.slot_len)
                .field("count", &self.count)
                .finish_non_exhaustive()
        }
    }

    // SAFETY: the raw pointers the arena stores are the iovec/msghdr
    // scratch and the buffer mapping. The scratch is re-derived from the
    // owned, address-stable vectors and mapping immediately before every
    // syscall (see `recv`) — a value left over from before a move is never
    // read. The mapping is process-wide memory the arena alone owns and
    // unmaps on drop. Everything the pointers target is owned by the
    // arena, so it can move between threads (a shard is built on the
    // spawning thread and runs on its own).
    unsafe impl Send for RecvArena {}

    impl RecvArena {
        /// Creates an arena whose per-datagram slots hold `slot_len`
        /// bytes (callers pass the codec's maximum wire length, so
        /// truncation behavior matches a `recv_from` into the same-sized
        /// scratch buffer).
        pub fn new(slot_len: usize) -> Self {
            RecvArena {
                slot_len,
                bufs: Pages::new(slot_len * BATCH),
                lens: [0; BATCH],
                hdrs: vec![
                    MMsgHdr {
                        hdr: MsgHdr::zeroed(),
                        len: 0,
                    };
                    BATCH
                ],
                iovs: vec![
                    IoVec {
                        base: core::ptr::null_mut(),
                        len: 0,
                    };
                    BATCH
                ],
                count: 0,
            }
        }

        /// One `recvmmsg` on `fd`: receives up to [`BATCH`] datagrams
        /// without blocking. Returns the number received (`0` when the
        /// socket has nothing pending). Datagrams are then readable via
        /// [`RecvArena::datagram`] in kernel queue order — the same order a
        /// `recv_from` loop would have seen them.
        pub fn recv(&mut self, fd: i32) -> io::Result<usize> {
            self.count = 0;
            // Re-derive every pointer from the (address-stable) buffers
            // right before the call: the arena stays movable and the kernel
            // only ever sees addresses valid for this call.
            let bufs = self.bufs.as_mut_slice();
            for i in 0..BATCH {
                self.iovs[i] = IoVec {
                    base: bufs[i * self.slot_len..].as_mut_ptr(),
                    len: self.slot_len,
                };
                self.hdrs[i].hdr = MsgHdr::zeroed();
                self.hdrs[i].hdr.iov = &mut self.iovs[i];
                self.hdrs[i].hdr.iovlen = 1;
                self.hdrs[i].len = 0;
            }
            // SAFETY: `hdrs` holds BATCH initialized mmsghdrs whose iovecs
            // point at BATCH disjoint `slot_len` slices of `bufs`, all
            // owned by `self` and alive across the call; name/control are
            // null so the kernel writes datagram bytes and lengths only.
            let ret = unsafe {
                syscall6(
                    nr::RECVMMSG,
                    fd as usize,
                    self.hdrs.as_mut_ptr() as usize,
                    BATCH,
                    MSG_DONTWAIT as usize,
                    0, // timeout: NULL
                    0,
                )
            };
            match check(ret) {
                Ok(n) => {
                    let n = n.min(BATCH);
                    for i in 0..n {
                        self.lens[i] = (self.hdrs[i].len as usize).min(self.slot_len);
                    }
                    self.count = n;
                    Ok(n)
                }
                Err(e) if is_soft(&e) => Ok(0),
                Err(e) => Err(e),
            }
        }

        /// The bytes of datagram `i` from the last [`RecvArena::recv`].
        ///
        /// # Panics
        ///
        /// Panics if `i` is not below the last call's return value.
        pub fn datagram(&self, i: usize) -> &[u8] {
            assert!(i < self.count, "datagram index out of batch");
            &self.bufs.as_slice()[i * self.slot_len..i * self.slot_len + self.lens[i]]
        }
    }

    // ---------------------------------------------------------------
    // Send arena.
    // ---------------------------------------------------------------

    /// Fixed scratch for `sendmmsg`: queued datagrams share one grow-only
    /// byte arena, and the encode-once fan-out queues *ranges* — a message
    /// fanned to `k` recipients is copied once and referenced `k` times.
    pub struct SendArena {
        bytes: Vec<u8>,
        /// Queued datagrams: byte range in `bytes` + destination.
        msgs: Vec<(usize, usize, SockAddrV4Raw)>,
        addrs: Vec<SockAddrV4Raw>,
        hdrs: Vec<MMsgHdr>,
        iovs: Vec<IoVec>,
    }

    impl std::fmt::Debug for SendArena {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("SendArena")
                .field("queued", &self.msgs.len())
                .finish_non_exhaustive()
        }
    }

    // SAFETY: as for `RecvArena` — header/iovec pointers are re-derived
    // from owned vectors right before the `sendmmsg` call, never carried
    // across a move.
    unsafe impl Send for SendArena {}

    impl Default for SendArena {
        fn default() -> Self {
            Self::new()
        }
    }

    impl SendArena {
        /// Creates an empty send arena.
        pub fn new() -> Self {
            SendArena {
                bytes: Vec::new(),
                msgs: Vec::with_capacity(BATCH),
                addrs: vec![SockAddrV4Raw::unspecified(); BATCH],
                hdrs: vec![
                    MMsgHdr {
                        hdr: MsgHdr::zeroed(),
                        len: 0,
                    };
                    BATCH
                ],
                iovs: vec![
                    IoVec {
                        base: core::ptr::null_mut(),
                        len: 0,
                    };
                    BATCH
                ],
            }
        }

        /// Number of queued datagrams.
        pub fn len(&self) -> usize {
            self.msgs.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.msgs.is_empty()
        }

        /// Whether the arena holds a full batch (callers flush then).
        pub fn is_full(&self) -> bool {
            self.msgs.len() >= BATCH
        }

        /// Queues one datagram, copying `payload` into the arena.
        ///
        /// # Panics
        ///
        /// Panics if the arena [`is_full`](SendArena::is_full).
        pub fn push(&mut self, dest: SockAddrV4Raw, payload: &[u8]) {
            assert!(!self.is_full(), "push into a full SendArena");
            let start = self.bytes.len();
            self.bytes.extend_from_slice(payload);
            self.msgs.push((start, payload.len(), dest));
        }

        /// Queues one datagram whose bytes are identical to the previously
        /// queued one, sharing its arena range (the encode-once fan-out
        /// path: no copy).
        ///
        /// # Panics
        ///
        /// Panics if the arena is empty or full.
        pub fn push_repeat(&mut self, dest: SockAddrV4Raw) {
            assert!(!self.is_full(), "push into a full SendArena");
            let (start, len, _) = *self.msgs.last().expect("push_repeat on empty arena");
            self.msgs.push((start, len, dest));
        }

        /// Flushes everything queued through `sendmmsg`, looping over
        /// partial sends. Returns `(datagrams_sent, syscalls_made)`;
        /// datagrams the kernel refuses (buffer pressure, routing errors)
        /// are dropped, matching the fire-and-forget `send_to` semantics of
        /// the per-datagram path. The arena is empty afterwards.
        pub fn flush(&mut self, fd: i32) -> (usize, usize) {
            let total = self.msgs.len();
            if total == 0 {
                return (0, 0);
            }
            // Build headers after the byte arena is final (it may have
            // reallocated while queueing).
            for (i, &(start, len, dest)) in self.msgs.iter().enumerate() {
                self.addrs[i] = dest;
                self.iovs[i] = IoVec {
                    base: self.bytes[start..].as_mut_ptr(),
                    len,
                };
                self.hdrs[i].hdr = MsgHdr::zeroed();
                self.hdrs[i].hdr.name = &mut self.addrs[i];
                self.hdrs[i].hdr.namelen = SOCKADDR_LEN as i32;
                self.hdrs[i].hdr.iov = &mut self.iovs[i];
                self.hdrs[i].hdr.iovlen = 1;
                self.hdrs[i].len = 0;
            }
            let mut sent = 0usize;
            let mut syscalls = 0usize;
            while sent < total {
                // SAFETY: `hdrs[sent..total]` are initialized mmsghdrs
                // whose name/iovec pointers address `self.addrs`,
                // `self.iovs` and `self.bytes`, none of which are touched
                // while the kernel reads them.
                let ret = unsafe {
                    syscall6(
                        nr::SENDMMSG,
                        fd as usize,
                        self.hdrs[sent..].as_mut_ptr() as usize,
                        total - sent,
                        MSG_DONTWAIT as usize,
                        0,
                        0,
                    )
                };
                syscalls += 1;
                match check(ret) {
                    Ok(0) => break,
                    Ok(n) => sent += n.min(total - sent),
                    Err(_) => break,
                }
            }
            self.msgs.clear();
            self.bytes.clear();
            (sent, syscalls)
        }
    }

    // ---------------------------------------------------------------
    // Epoll.
    // ---------------------------------------------------------------

    /// `struct epoll_event`. Packed on x86-64 (the one ABI where the
    /// kernel declares it `__attribute__((packed))`), naturally aligned
    /// elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct __kernel_timespec`: the 64-bit timeout `epoll_pwait2` takes
    /// on every architecture.
    #[repr(C)]
    struct KernelTimespec {
        sec: i64,
        nsec: i64,
    }

    /// Set once `epoll_pwait2` has answered `ENOSYS` (kernel < 5.11), so
    /// the process pays the failed probe once and every later wait goes
    /// straight to `epoll_pwait`. A pure flag — it publishes no other data.
    static PWAIT2_MISSING: AtomicBool = AtomicBool::new(false);

    /// The whole-millisecond timeout the `epoll_pwait` fallback passes for
    /// `timeout`: rounded **up**, so it is `0` only for a zero duration and
    /// a sub-millisecond remainder blocks (at most 1 ms late) instead of
    /// degenerating into a non-blocking spin.
    pub(super) fn ceil_ms(timeout: Duration) -> i32 {
        timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    }

    /// A level-triggered epoll instance: the round loops' sleep, which
    /// ends the moment a registered descriptor becomes readable or the
    /// given timeout — the time to the next round deadline — elapses.
    ///
    /// Every registration carries a token. The sharded runtime packs an
    /// engine index and a channel class into it and drains exactly the
    /// channels [`Epoll::wait_tagged_for`] reports; a random-port pool
    /// keeps its sockets in an epoll of its own, nested in the driver's
    /// through [`Epoll::add_epoll_tagged`], and receives only on the
    /// sockets that one reports.
    #[derive(Debug)]
    pub struct Epoll {
        fd: i32,
    }

    impl Epoll {
        /// Creates an epoll instance (`epoll_create1(0)`).
        ///
        /// # Errors
        ///
        /// Propagates the kernel error.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let ret = unsafe { syscall6(nr::EPOLL_CREATE1, 0, 0, 0, 0, 0, 0) };
            check(ret).map(|fd| Epoll { fd: fd as i32 })
        }

        /// `epoll_ctl(EPOLL_CTL_ADD)` of `fd` for readability under `token`.
        fn ctl_add(&self, fd: i32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: token,
            };
            // SAFETY: `ev` is a valid epoll_event alive across the call.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.fd as usize,
                    EPOLL_CTL_ADD as usize,
                    fd as usize,
                    core::ptr::addr_of_mut!(ev) as usize,
                    0,
                    0,
                )
            };
            check(ret).map(|_| ())
        }

        /// Registers `socket` for readability wakeups under an event
        /// token. The sharded runtime packs an engine index and a channel
        /// class into the token so one wait can route each ready socket
        /// straight to the engine that owns it (see
        /// [`Epoll::wait_tagged_for`]). Sockets deregister themselves when
        /// closed (the kernel removes a closed descriptor from every epoll
        /// set), so there is no `del`.
        ///
        /// # Errors
        ///
        /// Propagates the kernel error.
        pub fn add_tagged(&self, socket: &UdpSocket, token: u64) -> io::Result<()> {
            self.ctl_add(socket.as_raw_fd(), token)
        }

        /// Nests `inner` in this instance under `token`: `inner` reads as
        /// readable exactly while one of *its* descriptors is, so a single
        /// registration here stands for a whole changing set there. Like a
        /// socket, `inner` deregisters itself when dropped.
        ///
        /// # Errors
        ///
        /// Propagates the kernel error.
        pub fn add_epoll_tagged(&self, inner: &Epoll, token: u64) -> io::Result<()> {
            self.ctl_add(inner.fd, token)
        }

        /// The one wait: fills `events` and returns how many are ready
        /// (`0` on timeout or interrupt). `epoll_pwait2` takes the timeout
        /// to the nanosecond; where the kernel lacks it (or a test sets
        /// `force_legacy`) `epoll_pwait` gets it rounded up by [`ceil_ms`].
        fn pwait(
            &self,
            events: &mut [EpollEvent],
            timeout: Duration,
            force_legacy: bool,
        ) -> io::Result<usize> {
            let soften = |ret: isize| match check(ret) {
                Err(e) if is_soft(&e) => Ok(0),
                other => other,
            };
            if !(force_legacy || PWAIT2_MISSING.load(Ordering::Relaxed)) {
                let ts = KernelTimespec {
                    sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
                    nsec: i64::from(timeout.subsec_nanos()),
                };
                // SAFETY: `events` is writable for `events.len()` entries
                // and `ts` is a valid __kernel_timespec, both alive across
                // the call; the null sigmask (arg 5) leaves the signal
                // mask alone.
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT2,
                        self.fd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        core::ptr::addr_of!(ts) as usize,
                        0,
                        0,
                    )
                };
                if ret != -(ENOSYS as isize) {
                    return soften(ret);
                }
                PWAIT2_MISSING.store(true, Ordering::Relaxed);
            }
            // SAFETY: `events` as above; the null sigmask makes
            // epoll_pwait behave as epoll_wait, which aarch64 does not
            // expose directly.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    ceil_ms(timeout) as usize,
                    0,
                    0,
                )
            };
            soften(ret)
        }

        /// Blocks until any registered descriptor is readable or `timeout`
        /// elapses — exactly, not to the millisecond, so a caller can hand
        /// it the time to its next deadline and never spin through a
        /// sub-millisecond remainder — and appends the registration token
        /// of every ready descriptor to `out`, so the caller can drain only
        /// what the kernel reported. One call surfaces at most
        /// [`EVENT_BATCH`] tokens; level-triggered semantics re-report
        /// anything still readable on the next call, so a shard serving
        /// thousands of sockets never misses one — it just takes another
        /// wakeup.
        ///
        /// Returns the number of tokens appended (`0` on timeout or
        /// interrupt).
        ///
        /// # Errors
        ///
        /// Propagates kernel errors other than `EINTR`.
        pub fn wait_tagged_for(&self, timeout: Duration, out: &mut Vec<u64>) -> io::Result<usize> {
            self.collect(timeout, out, false)
        }

        /// [`Epoll::wait_tagged_for`] pinned to the `epoll_pwait` fallback,
        /// so the old-kernel path is tested on kernels that never take it.
        #[cfg(test)]
        pub(super) fn wait_tagged_for_legacy(
            &self,
            timeout: Duration,
            out: &mut Vec<u64>,
        ) -> io::Result<usize> {
            self.collect(timeout, out, true)
        }

        fn collect(
            &self,
            timeout: Duration,
            out: &mut Vec<u64>,
            force_legacy: bool,
        ) -> io::Result<usize> {
            let mut events = [EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
            let n = self.pwait(&mut events, timeout, force_legacy)?;
            // By-value field copy: `data` may be unaligned in the packed
            // x86-64 layout, so never take a ref.
            out.extend(events.iter().take(n).map(|ev| { *ev }.data));
            Ok(n)
        }

        /// [`Epoll::wait_tagged_for`] with a whole-millisecond timeout
        /// (negative counts as zero).
        ///
        /// # Errors
        ///
        /// Propagates kernel errors other than `EINTR`.
        pub fn wait_tagged(&self, timeout_ms: i32, out: &mut Vec<u64>) -> io::Result<usize> {
            self.wait_tagged_for(Duration::from_millis(timeout_ms.max(0) as u64), out)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing the fd this struct exclusively owns.
            let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
        }
    }
}

/// Inert stand-ins for targets without the batched path. Constructing the
/// arenas is allowed (so callers need no `cfg`), but [`super::available`]
/// is `false` there, every gate routes to the per-datagram fallback, and
/// the operations themselves fail with `Unsupported` if reached anyway.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "batched syscall I/O is Linux-only",
        )
    }

    /// Raw IPv4 socket address (stub).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SockAddrV4Raw;

    impl SockAddrV4Raw {
        /// Always `None`: no batched destinations exist on this target.
        pub fn from_std(_addr: SocketAddr) -> Option<Self> {
            None
        }
    }

    /// Raw fd accessor (stub: the batched path never runs here).
    pub fn fd_of(_socket: &UdpSocket) -> i32 {
        -1
    }

    /// Always fails: this target gives a port up by closing its socket.
    pub fn release_port(_socket: &UdpSocket) -> io::Result<()> {
        Err(unsupported())
    }

    /// Always fails: unreachable while [`release_port`] does.
    pub fn bind_loopback_port(_socket: &UdpSocket) -> io::Result<u16> {
        Err(unsupported())
    }

    /// Receive arena (stub).
    #[derive(Debug)]
    pub struct RecvArena;

    impl RecvArena {
        /// Creates the inert arena.
        pub fn new(_slot_len: usize) -> Self {
            RecvArena
        }

        /// Always fails: the caller should have checked [`super::available`].
        pub fn recv(&mut self, _fd: i32) -> io::Result<usize> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn datagram(&self, _i: usize) -> &[u8] {
            &[]
        }
    }

    /// Send arena (stub).
    #[derive(Debug, Default)]
    pub struct SendArena;

    impl SendArena {
        /// Creates the inert arena.
        pub fn new() -> Self {
            SendArena
        }

        /// Always zero.
        pub fn len(&self) -> usize {
            0
        }

        /// Always empty.
        pub fn is_empty(&self) -> bool {
            true
        }

        /// Never full.
        pub fn is_full(&self) -> bool {
            false
        }

        /// Unreachable on this target (callers gate on [`super::available`]).
        pub fn push(&mut self, _dest: SockAddrV4Raw, _payload: &[u8]) {}

        /// Unreachable on this target.
        pub fn push_repeat(&mut self, _dest: SockAddrV4Raw) {}

        /// Nothing to flush.
        pub fn flush(&mut self, _fd: i32) -> (usize, usize) {
            (0, 0)
        }
    }

    /// Epoll (stub).
    #[derive(Debug)]
    pub struct Epoll;

    impl Epoll {
        /// Always fails on this target.
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn add_tagged(&self, _socket: &UdpSocket, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn add_epoll_tagged(&self, _inner: &Epoll, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn wait_tagged_for(
            &self,
            _timeout: Duration,
            _out: &mut Vec<u64>,
        ) -> io::Result<usize> {
            Err(unsupported())
        }

        /// Unreachable on this target.
        pub fn wait_tagged(&self, _timeout_ms: i32, _out: &mut Vec<u64>) -> io::Result<usize> {
            Err(unsupported())
        }
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, UdpSocket};
    use std::time::{Duration, Instant};

    fn pair() -> (UdpSocket, UdpSocket) {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        rx.set_nonblocking(true).unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        (rx, tx)
    }

    #[test]
    fn recvmmsg_returns_datagrams_in_order() {
        let (rx, tx) = pair();
        let dest = rx.local_addr().unwrap();
        for i in 0..10u8 {
            tx.send_to(&[i, i, i], dest).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let mut arena = RecvArena::new(64);
        let n = arena.recv(fd_of(&rx)).unwrap();
        assert_eq!(n, 10);
        for i in 0..10 {
            assert_eq!(arena.datagram(i), &[i as u8; 3]);
        }
        // Drained: next call reports nothing without blocking.
        assert_eq!(arena.recv(fd_of(&rx)).unwrap(), 0);
    }

    #[test]
    fn recvmmsg_truncates_to_slot_len_like_recv_from() {
        let (rx, tx) = pair();
        let dest = rx.local_addr().unwrap();
        tx.send_to(&[0xAB; 100], dest).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut arena = RecvArena::new(16);
        assert_eq!(arena.recv(fd_of(&rx)).unwrap(), 1);
        assert_eq!(arena.datagram(0), &[0xAB; 16]);
    }

    #[test]
    fn a_released_port_is_gone_and_the_descriptor_binds_the_next_one() {
        let (rx, tx) = pair();
        let old = rx.local_addr().unwrap();
        assert!(
            bind_loopback_port(&rx).is_err(),
            "a socket holding a port cannot take another"
        );
        release_port(&rx).unwrap();
        assert_eq!(rx.local_addr().unwrap().port(), 0);
        tx.send_to(b"nobody home", old).unwrap();

        let port = bind_loopback_port(&rx).unwrap();
        assert_eq!(rx.local_addr().unwrap(), (Ipv4Addr::LOCALHOST, port).into());
        tx.send_to(b"moved in", rx.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut arena = RecvArena::new(64);
        assert_eq!(arena.recv(fd_of(&rx)).unwrap(), 1);
        assert_eq!(arena.datagram(0), b"moved in");
    }

    #[test]
    fn sendmmsg_delivers_fanout_without_copies() {
        let (rx, tx) = pair();
        let dest = SockAddrV4Raw::from_std(rx.local_addr().unwrap()).unwrap();
        let mut arena = SendArena::new();
        arena.push(dest, b"fanned");
        for _ in 0..7 {
            arena.push_repeat(dest);
        }
        let (sent, syscalls) = arena.flush(fd_of(&tx));
        assert_eq!(sent, 8);
        assert_eq!(syscalls, 1);
        assert!(arena.is_empty());
        std::thread::sleep(Duration::from_millis(20));
        let mut got = 0;
        let mut buf = [0u8; 64];
        while let Ok((len, _)) = rx.recv_from(&mut buf) {
            assert_eq!(&buf[..len], b"fanned");
            got += 1;
        }
        assert_eq!(got, 8);
    }

    #[test]
    fn send_arena_handles_full_batches() {
        let (rx, tx) = pair();
        let dest = SockAddrV4Raw::from_std(rx.local_addr().unwrap()).unwrap();
        let mut arena = SendArena::new();
        for i in 0..BATCH {
            assert!(!arena.is_full());
            arena.push(dest, &[i as u8]);
        }
        assert!(arena.is_full());
        let (sent, syscalls) = arena.flush(fd_of(&tx));
        assert_eq!(sent, BATCH);
        assert!(syscalls >= 1);
    }

    #[test]
    fn epoll_wakes_on_datagram_and_times_out_when_quiet() {
        let (rx, tx) = pair();
        let ep = Epoll::new().unwrap();
        ep.add_tagged(&rx, 7).unwrap();
        let mut tokens = Vec::new();

        // Quiet socket: wait should time out (allow generous slack).
        let t0 = Instant::now();
        assert_eq!(ep.wait_tagged(30, &mut tokens).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));

        // Data pending: wait returns promptly with the ready token.
        tx.send_to(b"wake", rx.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        assert_eq!(ep.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        assert_eq!(tokens, [7]);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_tagged_for_blocks_a_sub_millisecond_timeout_exactly() {
        let (rx, _tx) = pair();
        let ep = Epoll::new().unwrap();
        ep.add_tagged(&rx, 7).unwrap();
        let want = Duration::from_micros(300);
        let mut tokens = Vec::new();
        let t0 = Instant::now();
        assert_eq!(ep.wait_tagged_for(want, &mut tokens).unwrap(), 0);
        let took = t0.elapsed();
        assert!(tokens.is_empty());
        assert!(took >= want, "returned early: {took:?}");
        assert!(took < Duration::from_millis(5), "overslept: {took:?}");
    }

    #[test]
    fn legacy_wait_rounds_the_timeout_up_never_to_zero() {
        for (nanos, ms) in [
            (0u64, 0),
            (1, 1),
            (300_000, 1),
            (1_000_000, 1),
            (1_000_001, 2),
            (24_999_999, 25),
        ] {
            assert_eq!(imp::ceil_ms(Duration::from_nanos(nanos)), ms, "{nanos} ns");
        }
        assert_eq!(imp::ceil_ms(Duration::MAX), i32::MAX);

        let (rx, tx) = pair();
        let ep = Epoll::new().unwrap();
        ep.add_tagged(&rx, 7).unwrap();
        let want = Duration::from_micros(300);
        let mut tokens = Vec::new();
        let t0 = Instant::now();
        assert_eq!(ep.wait_tagged_for_legacy(want, &mut tokens).unwrap(), 0);
        assert!(t0.elapsed() >= want, "the fallback must block, not spin");

        // Same readiness reporting as the precise path.
        tx.send_to(b"wake", rx.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            ep.wait_tagged_for_legacy(Duration::from_secs(5), &mut tokens)
                .unwrap(),
            1
        );
        assert_eq!(tokens, [7]);
    }

    #[test]
    fn nested_epoll_reports_the_outer_token_until_drained() {
        let (rx, tx) = pair();
        let (idle, _idle_tx) = pair();
        let inner = Epoll::new().unwrap();
        inner.add_tagged(&rx, 1).unwrap();
        inner.add_tagged(&idle, 2).unwrap();
        let outer = Epoll::new().unwrap();
        outer.add_epoll_tagged(&inner, 99).unwrap();

        let mut tokens = Vec::new();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);

        tx.send_to(b"x", rx.local_addr().unwrap()).unwrap();
        assert_eq!(outer.wait_tagged(5_000, &mut tokens).unwrap(), 1);
        assert_eq!(tokens, [99], "the outer set names the nested instance");
        tokens.clear();
        assert_eq!(inner.wait_tagged(0, &mut tokens).unwrap(), 1);
        assert_eq!(tokens, [1], "the inner set names the readable socket");

        // Level-triggered: still reported while the datagram is queued,
        // silent once it has been received.
        tokens.clear();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 1);
        let mut arena = RecvArena::new(64);
        assert_eq!(arena.recv(fd_of(&rx)).unwrap(), 1);
        tokens.clear();
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);
        assert_eq!(inner.wait_tagged(0, &mut tokens).unwrap(), 0);

        // Dropping the nested instance removes it from the outer set.
        tx.send_to(b"y", rx.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        drop(inner);
        assert_eq!(outer.wait_tagged(0, &mut tokens).unwrap(), 0);
    }
}
