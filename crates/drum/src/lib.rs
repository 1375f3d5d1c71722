//! **Drum** — DoS-Resistant Unforgeable Multicast.
//!
//! A Rust implementation of the gossip-based multicast protocol of
//! *"Exposing and Eliminating Vulnerabilities to Denial of Service Attacks
//! in Secure Gossip-Based Multicast"* (Gal Badishi, Idit Keidar, Amir
//! Sasson — DSN 2004), together with the paper's entire evaluation stack.
//!
//! Drum resists targeted denial-of-service attacks through three measures:
//!
//! 1. **push + pull combined** — attacking a process's inbound channels
//!    cannot stop it from *sending* (pull keeps working), and attacking its
//!    outbound channels cannot stop it from *receiving* (push keeps
//!    working);
//! 2. **separate resource bounds** per operation — a flooded pull port
//!    cannot starve the push port;
//! 3. **random, encrypted ports** for replies and data — the attacker does
//!    not know where to aim.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `drum-core` | protocol engine, messages, digests, buffers, bounds |
//! | [`crypto`] | `drum-crypto` | SHA-256/HMAC, key store, sealed ports, source auth |
//! | [`net`] | `drum-net` | UDP runtime, virtual-time driver, attack emulation, measurements |
//! | [`sim`] | `drum-sim` | round-synchronized Monte-Carlo simulator |
//! | [`analysis`] | `drum-analysis` | closed-form math of appendices A–C and §6 |
//! | [`metrics`] | `drum-metrics` | statistics, quantiles, §8 recorders, tables, JSON |
//! | [`testkit`] | `drum-testkit` | property-based testing harness, seed averaging |
//! | [`trace`] | `drum-trace` | structured events, pluggable sinks, counter registry |
//!
//! # Quickstart
//!
//! ```
//! use std::time::{Duration, Instant};
//! use drum::core::config::ProtocolVariant;
//! use drum::net::experiment::{paper_cluster_config, Cluster};
//!
//! # fn main() -> std::io::Result<()> {
//! // A 5-process Drum group on loopback UDP, 30 ms rounds, no attack.
//! let config = paper_cluster_config(
//!     ProtocolVariant::Drum, 5, 0, 0.0, Duration::from_millis(30), 1);
//! let cluster = Cluster::start(config)?;
//!
//! cluster.publish_from_source(0, 50);
//!
//! // Wait for some deliveries.
//! let deadline = Instant::now() + Duration::from_secs(10);
//! let mut total = 0;
//! while Instant::now() < deadline && total == 0 {
//!     total = cluster.handles()[1..].iter()
//!         .map(|h| h.take_delivered().len()).sum();
//!     std::thread::sleep(Duration::from_millis(10));
//! }
//! assert!(total > 0);
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use drum_analysis as analysis;
pub use drum_core as core;
pub use drum_crypto as crypto;
pub use drum_metrics as metrics;
pub use drum_net as net;
pub use drum_sim as sim;
pub use drum_testkit as testkit;
pub use drum_trace as trace;
