//! # telemetry — deterministic observability for the simulation workspace
//!
//! The campaign engine's contract is that every result is a pure function of
//! the seed, never of the worker count. Instrumentation has to obey the same
//! law or it is useless for diagnosing cross-layer attack chains: a counter
//! that wobbles with thread scheduling cannot tell a regression from noise.
//! This crate provides the deterministic metrics every layer shares:
//! [`MetricsSnapshot`], a hierarchical registry of counters, gauges and
//! sim-time histograms keyed by `layer.subsystem.metric` names, with a
//! **commutative, associative [`merge`](MetricsSnapshot::merge)** (the same
//! laws as the campaign `Tally` trait). Per-shard snapshots folded in shard
//! order render byte-identically at any worker count.
//!
//! The per-run event stream (packet verdicts and attack-phase spans) lives
//! with the clock that stamps it: the simulator owns an optional flight
//! recorder (`netsim::flight`).
//!
//! Everything is plain data: no globals, no `std::time`, no I/O. Exports are
//! explicit reads of counters the code maintains anyway, so a run that
//! exports nothing pays nothing.
//!
//! ## Register → record → merge → render
//!
//! ```
//! use telemetry::prelude::*;
//!
//! // Each shard records into its own snapshot (register + record)...
//! let mut shard_a = MetricsSnapshot::new();
//! shard_a.incr("dns.cache.hits", 3);
//! shard_a.gauge_max("engine.wheel.level0.occupancy", 7);
//! shard_a.observe_ns("dns.resolve.latency_ns", 1_500_000);
//!
//! let mut shard_b = MetricsSnapshot::new();
//! shard_b.incr("dns.cache.hits", 2);
//! shard_b.gauge_max("engine.wheel.level0.occupancy", 4);
//! shard_b.observe_ns("dns.resolve.latency_ns", 900_000);
//!
//! // ...and the snapshots fold commutatively (merge).
//! let mut merged = MetricsSnapshot::new();
//! merged.merge(&shard_a);
//! merged.merge(&shard_b);
//! let mut other_order = MetricsSnapshot::new();
//! other_order.merge(&shard_b);
//! other_order.merge(&shard_a);
//! assert_eq!(merged, other_order);
//! assert_eq!(merged.counter("dns.cache.hits"), 5);
//! assert_eq!(merged.gauge("engine.wheel.level0.occupancy"), 7);
//!
//! // The render is stable text, one greppable line per metric (render).
//! let text = merged.render();
//! assert!(text.contains("dns.cache.hits 5"));
//! assert_eq!(merged.render(), other_order.render(), "byte-identical in any merge order");
//! ```
//!
//! ## Naming convention
//!
//! Metric names are `layer.subsystem.metric` in `snake_case` segments:
//! `engine.packets.delivered`, `dns.resolver.bogus_dropped`,
//! `attacks.sad_dns.probes_sent`, `ca.issuance.refused.quorum_not_met`.
//! The registry is a sorted map, so a rendered snapshot groups related
//! metrics automatically — no registration step, no schema to pre-declare.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;

pub use metrics::{MetricsSnapshot, SimTimeHistogram};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::metrics::{MetricsSnapshot, SimTimeHistogram};
}
