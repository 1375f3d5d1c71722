//! Warmed-up steady-state rounds allocate nothing: the message buffer's
//! round (insert the round's arrivals, purge, age, select a partner's
//! missing set) and the sharded simulator's round at n = 10^6.
//!
//! Both live in this binary because it installs a counting global
//! allocator. The count is kept per thread, since the test harness and
//! the neighbouring test allocate on threads of their own; the simulator
//! steps on one thread, which runs every shard inline on the calling
//! thread.

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
use drum_sim::{auto_shards, SimState};
use rand::rngs::SmallRng;
use rand::SeedableRng;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every call that obtains memory.
struct Counting;

fn count() {
    // `try_with`: the allocator also serves a thread being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell<u64>`, which neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    // The heaviest ext_scale point: Drum under the Figure 7 flood.
    let n = 1_000_000;
    let shards = auto_shards(n);
    let mut state = SimState::new(SimConfig::attack_alpha(ProtocolVariant::Drum, n, 0.1, 72.0));
    // The first round sizes the grow-once scratch.
    assert!(
        allocations_in(|| state.step_sharded(11, shards, 1)) > 0,
        "the counter must see the first round size the scratch"
    );
    let allocations = allocations_in(|| {
        state.step_sharded(11, shards, 1);
        state.step_sharded(11, shards, 1);
    });
    assert_eq!(
        allocations, 0,
        "a warmed sharded round allocated; per-round scratch must be grow-once"
    );
}
