//! What decoding a datagram allocates: nothing for flood traffic, for
//! garbage or for data messages the receiver skips, and for a kept data
//! message its own payload and nothing else of the datagram.
//!
//! These live in their own binary because it installs a counting global
//! allocator. The counts are kept per thread, since the test harness and
//! the neighbouring tests allocate on threads of their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drum_core::bytes::{Bytes, BytesMut};
use drum_core::digest::Digest;
use drum_core::ids::{MessageId, ProcessId};
use drum_core::message::{DataMessage, GossipMessage, PortRef};
use drum_crypto::auth::AuthTag;
use drum_crypto::keys::SecretKey;
use drum_crypto::seal::seal_port;
use drum_net::attack::{fabricated_frame, fabricated_pull_request, fabricated_push_offer};
use drum_net::codec::{decode, decode_skipping, encode};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE_ALLOCATIONS: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every call that obtains memory, the
/// bytes it asks for, and what is live (obtained and not yet returned).
struct Counting;

fn add(cell: &'static std::thread::LocalKey<Cell<i64>>, delta: i64) {
    // `try_with`: the allocator also serves a thread being torn down.
    let _ = cell.try_with(|n| n.set(n.get() + delta));
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s, which neither allocate nor need a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        add(&LIVE_ALLOCATIONS, 1);
        add(&LIVE_BYTES, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        add(&LIVE_ALLOCATIONS, 1);
        add(&LIVE_BYTES, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        add(&LIVE_BYTES, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&LIVE_ALLOCATIONS, -1);
        add(&LIVE_BYTES, -(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread, and the bytes it asks for.
fn allocations_in(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// What is live on this thread: allocations and bytes.
fn live() -> (i64, i64) {
    (LIVE_ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get))
}

/// Payload bytes per reply message: the paper's 50-byte messages.
const PAYLOAD: usize = 50;

/// An 80-message pull-reply (§8.2's per-partner cap), ≈ 8.5 KiB encoded.
fn full_reply() -> Vec<u8> {
    let messages = (0..80)
        .map(|seq| DataMessage {
            id: MessageId::new(ProcessId(3), seq),
            hops: 2,
            payload: Bytes::from(vec![seq as u8; PAYLOAD]),
            auth: AuthTag([7; 32]),
        })
        .collect();
    encode(&GossipMessage::PullReply {
        from: ProcessId(3),
        messages,
    })
    .to_vec()
}

/// The heap footprint of one decoded payload: the `Arc` header (two
/// reference counts) in front of the bytes, one allocation padded to the
/// counts' alignment.
const fn payload_allocation(len: usize) -> usize {
    (2 * std::mem::size_of::<usize>() + len).next_multiple_of(std::mem::align_of::<usize>())
}

/// Datagrams the decoder must reject: seeded random bytes of the flood's
/// length (what a garbage-injecting attacker sends), every proper prefix
/// of a full reply, a reply with a trailing byte, a reply claiming more
/// messages than a datagram may carry, unknown tags and the retired frame.
fn rejected_datagrams() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut x = 0x2004_0628_u64;
    let flood_len = encode(&fabricated_pull_request(1)).len();
    for _ in 0..2_000 {
        let bytes = (0..flood_len)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        out.push(bytes);
    }
    let reply = full_reply();
    out.extend((0..reply.len()).map(|len| reply[..len].to_vec()));
    let mut trailing = reply.clone();
    trailing.push(0);
    out.push(trailing);
    let mut too_many = BytesMut::new();
    too_many.put_u8(2);
    too_many.put_u64(1);
    too_many.put_u32(u32::MAX);
    out.push(too_many.to_vec());
    out.push(vec![200; 40]);
    out.push(fabricated_frame(5));
    out.retain(|bytes| decode(bytes).is_err());
    assert!(out.len() > 2_000, "the set must hold what it names");
    out
}

#[test]
fn flood_and_garbage_datagrams_decode_without_allocating() {
    let flood = [
        encode(&fabricated_pull_request(7)).to_vec(),
        encode(&fabricated_push_offer(7)).to_vec(),
    ];
    let garbage = rejected_datagrams();
    let (allocations, _) = allocations_in(|| {
        for bytes in &flood {
            assert!(decode(bytes).is_ok());
        }
        for bytes in &garbage {
            assert!(decode(bytes).is_err());
        }
    });
    assert_eq!(allocations, 0, "a flood or garbage decode allocated");
}

/// A member's control messages: the sealed reply port is an inline value,
/// so with an empty digest nothing is left to allocate.
#[test]
fn sealed_port_control_messages_decode_without_allocating() {
    let key = SecretKey::from_bytes([2; 32]);
    let reply_port = PortRef::Sealed(seal_port(&key, 77, 50_123).unwrap());
    let sent = [
        GossipMessage::PullRequest {
            from: ProcessId(5),
            digest: Digest::new(),
            reply_port,
            nonce: 77,
        },
        GossipMessage::PushOffer {
            from: ProcessId(5),
            reply_port,
            nonce: 78,
        },
    ];
    for msg in &sent {
        let bytes = encode(msg).to_vec();
        let (allocations, _) = allocations_in(|| {
            assert_eq!(&decode(&bytes).unwrap(), msg);
        });
        assert_eq!(allocations, 0, "decoding a {} allocated", msg.kind());
    }
}

#[test]
fn skipped_data_messages_are_never_built() {
    let reply = full_reply();
    let (allocations, _) = allocations_in(|| {
        let msg = decode_skipping(&reply, |_| true).unwrap();
        assert!(
            matches!(msg, GossipMessage::PullReply { ref messages, .. } if messages.is_empty())
        );
    });
    assert_eq!(allocations, 0, "an all-duplicate reply allocated");

    // One id kept: its payload and a one-slot vector, nothing else.
    let kept = MessageId::new(ProcessId(3), 41);
    let (allocations, bytes) = allocations_in(|| {
        let GossipMessage::PullReply { messages, .. } =
            decode_skipping(&reply, |id| id != kept).unwrap()
        else {
            panic!("a pull-reply decodes as one");
        };
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].id, kept);
        assert_eq!(messages[0].payload, &[41u8; PAYLOAD][..]);
    });
    assert_eq!(allocations, 2);
    assert_eq!(
        bytes as usize,
        payload_allocation(PAYLOAD) + std::mem::size_of::<DataMessage>()
    );
}

#[test]
fn a_kept_message_pins_only_its_own_payload() {
    let reply = full_reply();
    let before = live();
    let GossipMessage::PullReply { mut messages, .. } = decode(&reply).unwrap() else {
        panic!("a pull-reply decodes as one");
    };
    assert_eq!(messages.len(), 80);
    messages.truncate(1);
    let (allocations, bytes) = live();
    // The vector (still at its 80-slot capacity) and one payload: the
    // survivor holds no share of the 8.5 KiB datagram.
    assert!(
        allocations - before.0 <= 2,
        "{} allocations live",
        allocations - before.0
    );
    assert!(
        (bytes - before.1) as usize
            <= payload_allocation(PAYLOAD) + 80 * std::mem::size_of::<DataMessage>(),
        "{} bytes live for one kept message of a {}-byte datagram",
        bytes - before.1,
        reply.len()
    );
    drop(messages);
    assert_eq!(live(), before, "the decode leaked");
}
