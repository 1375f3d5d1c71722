//! Deterministic protocol exploration on the virtual-time driver: the
//! runtime's own nodes (full push-offer handshake, sealed ports, budgets,
//! codec) on an in-memory network with cut links, loss and a targeted
//! attack — fully reproducible.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p drum --example virtual_group
//! ```

use drum::core::config::GossipConfig;
use drum::net::{NetConfig, VirtualCluster};
use drum_core::bytes::Bytes;

fn main() {
    let drum = || NetConfig::new(GossipConfig::drum());

    // 1. Plain dissemination.
    println!("1) 20 nodes, no failures:");
    let mut net = VirtualCluster::new(20, drum(), 1);
    let id = net.publish(0, Bytes::from_static(b"hello"));
    let rounds = net.run_until_spread(id, 1.0, 50).expect("spread");
    println!("   message reached all 20 nodes in {rounds} rounds\n");

    // 2. Cut links heal.
    println!("2) node 5 cut off, then healed:");
    let config = NetConfig::new(GossipConfig::drum().with_buffer_rounds(0));
    let mut net = VirtualCluster::new(10, config, 2);
    let others: Vec<usize> = (0..10).filter(|&other| other != 5).collect();
    for &other in &others {
        net.cut(5, other);
    }
    let id = net.publish(0, Bytes::from_static(b"survivor"));
    net.run_rounds(12);
    println!(
        "   while cut off: {}/10 nodes have the message",
        net.holders(id)
    );
    for &other in &others {
        net.heal(5, other);
    }
    net.run_rounds(6);
    println!(
        "   after healing: {}/10 nodes have the message\n",
        net.holders(id)
    );

    // 3. The headline result with the REAL handshake: attack 10% hard.
    println!("3) targeted attack (3 of 30 nodes flooded), real push-offer handshake:");
    for (label, x) in [("x =  32", 32.0), ("x = 256", 256.0)] {
        let mut total = 0u32;
        let trials = 10;
        for seed in 0..trials {
            let config = drum().with_loss(0.01);
            let mut net = VirtualCluster::new(30, config, seed).with_attack(vec![0, 1, 2], x);
            let id = net.publish(0, Bytes::from_static(b"m"));
            total += net.run_until_spread(id, 0.99, 300).unwrap_or(300);
        }
        println!(
            "   Drum, {label}: {:.1} rounds to 99%",
            total as f64 / trials as f64
        );
    }
    println!("   (flat in x — the full handshake preserves the paper's result)");
}
