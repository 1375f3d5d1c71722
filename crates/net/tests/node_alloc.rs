//! What a node's construction and its first round tick allocate: nothing
//! as large as a datagram buffer. A node encodes into its driver's shared
//! send arena, so it owns no encode buffer of `codec::MAX_WIRE_LEN` bytes.
//!
//! This lives in its own binary because it installs a counting global
//! allocator. The largest request is kept per thread, since the test
//! harness allocates on threads of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::mpsc::channel;

use drum_core::bytes::Bytes;
use drum_core::config::GossipConfig;
use drum_core::ids::ProcessId;
use drum_crypto::keys::KeyStore;
use drum_net::codec::MAX_WIRE_LEN;
use drum_net::runtime::seed_of;
use drum_net::transport::bind_ephemeral;
use drum_net::{AddressBook, BatchTx, NetConfig, NodeCore, ProcessSpec, WellKnownSockets};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`], remembering the largest size asked for.
struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator also serves a thread being torn down.
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, which neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest allocation `f` asks for on this thread.
fn largest_allocation_in(f: impl FnOnce()) -> usize {
    LARGEST.with(|n| n.set(0));
    f();
    LARGEST.with(Cell::get)
}

#[test]
fn a_node_and_its_first_tick_allocate_no_datagram_buffer() {
    let key_store = KeyStore::new(3);
    let members = vec![ProcessId(0), ProcessId(1)];
    // Ports are sealed for their recipient, so the peer needs a key too.
    key_store.register(1);
    let (mut bound, entries): (Vec<_>, Vec<_>) = members
        .iter()
        .map(|&m| {
            let (sockets, addrs) = WellKnownSockets::bind().unwrap();
            (sockets, (m, addrs))
        })
        .unzip();
    let spec = ProcessSpec {
        me: ProcessId(0),
        members: members.clone(),
        book: AddressBook::new(entries),
        key_store: key_store.clone(),
        my_key: key_store.register(0),
        sockets: bound.swap_remove(0),
        ablation: None,
        config: NetConfig::new(GossipConfig::drum()),
        seed: seed_of(ProcessId(0)),
    };
    let (publish_tx, publish_rx) = channel();
    publish_tx.send(Bytes::from_static(b"published")).unwrap();
    let (delivered_tx, _delivered_rx) = channel();
    let send_socket = bind_ephemeral().unwrap();
    let mut tx = BatchTx::new();

    let mut sent = 0;
    let largest = largest_allocation_in(|| {
        let mut core = NodeCore::new(spec, publish_rx, delivered_tx);
        core.round_tick(&send_socket, &mut tx);
        sent = core.stats().sent;
    });
    assert!(sent > 0, "the tick sent its round-start messages");
    drop(publish_tx);
    assert!(
        largest < MAX_WIRE_LEN,
        "largest allocation {largest} B, a datagram buffer is {MAX_WIRE_LEN} B"
    );
}
