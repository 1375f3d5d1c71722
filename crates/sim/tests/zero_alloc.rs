//! Warmed-up steady-state rounds allocate nothing: the message buffer's
//! round (insert the round's arrivals, purge, age, select a partner's
//! missing set) and the simulator's round at n = 10^6. The simulator's
//! first round, which sizes its scratch, stays under a byte bound.
//!
//! All live in this binary because it installs a counting global
//! allocator. The counts are kept per thread, since the test harness and
//! the neighbouring tests allocate on threads of their own; the simulator
//! steps on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drum_core::buffer::MessageBuffer;
use drum_core::bytes::Bytes;
use drum_core::digest::Digest;
use drum_core::ids::{MessageId, ProcessId, Round};
use drum_core::message::DataMessage;
use drum_core::ProtocolVariant;
use drum_crypto::auth::AuthTag;
use drum_sim::config::SimConfig;
use drum_sim::SimState;
use rand::rngs::SmallRng;
use rand::SeedableRng;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every call that obtains memory and
/// the bytes it asks for (a `realloc` counts its whole new size).
struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also serves a thread being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell<u64>`s, which neither allocate nor need a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Heap bytes `f` asks for on this thread.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// The heaviest ext_scale point: Drum under the Figure 7 flood at
/// n = 10^6.
fn million_member_flood() -> SimState {
    SimState::new(SimConfig::attack_alpha(
        ProtocolVariant::Drum,
        1_000_000,
        0.1,
        72.0,
    ))
}

#[test]
fn a_warmed_buffer_round_allocates_nothing() {
    // §8.2's retention (10 rounds) and per-partner cap (80), 64 arrivals a
    // round, and a seen window the warm-up runs well past.
    const PER_ROUND: usize = 64;
    const WARM: usize = 60;
    // Payloads are allocated here, outside the counted rounds; inserting a
    // clone only bumps a reference count.
    let msgs: Vec<DataMessage> = (0..(WARM + 2) * PER_ROUND)
        .map(|seq| DataMessage {
            id: MessageId::new(ProcessId(1), seq as u64),
            hops: 0,
            payload: Bytes::from(vec![0x5A; 32]),
            auth: AuthTag::zero(),
        })
        .collect();
    let theirs = Digest::new();
    let mut buf = MessageBuffer::with_seen_window(10, 40);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut selected = Vec::new();
    let mut round = |r: usize| {
        for m in &msgs[r * PER_ROUND..(r + 1) * PER_ROUND] {
            buf.insert(m.clone(), Round(r as u64));
        }
        buf.purge(Round(r as u64));
        buf.increment_hops();
        buf.select_missing_into(&theirs, 80, &mut rng, &mut selected);
        assert!(!selected.is_empty());
    };
    assert!(
        allocations_in(|| (0..WARM).for_each(&mut round)) > 0,
        "the counter must see the warm-up grow the buffer"
    );
    assert_eq!(
        allocations_in(|| (WARM..WARM + 2).for_each(&mut round)),
        0,
        "a steady-state buffer round allocated; ring buckets, index and \
         selection scratch must be grow-once"
    );
}

#[test]
fn a_warmed_million_member_round_allocates_nothing() {
    let mut state = million_member_flood();
    // The first round sizes the grow-once scratch.
    assert!(
        allocations_in(|| state.step(11)) > 0,
        "the counter must see the first round size the scratch"
    );
    let allocations = allocations_in(|| {
        state.step(11);
        state.step(11);
    });
    assert_eq!(
        allocations, 0,
        "a warmed round allocated; per-round scratch must be grow-once"
    );
}

#[test]
fn a_million_member_round_sizes_under_48_mib_of_scratch() {
    // One set of push tallies, one request list and one CSR index: about
    // 30 MiB at this point. A per-slice copy of the full-length tallies or
    // of the `new_m` bitset would show here.
    let mut state = million_member_flood();
    let bytes = bytes_in(|| state.step(11));
    assert!(
        bytes < 48 << 20,
        "the first round allocated {:.1} MiB of scratch",
        bytes as f64 / f64::from(1 << 20)
    );
}
