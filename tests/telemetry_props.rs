//! Property-based tests of the telemetry layer: snapshot merging is
//! commutative and associative (so shard-completion order can never leak
//! into a rendered snapshot), rendering is a pure function of the snapshot,
//! and exporting farm stats commutes with merging them. The end-to-end
//! worker sweep of the scenario-matrix snapshot lives in `tests/golden.rs`,
//! next to the telemetry golden it shares its grid runs with.

use cross_layer_attacks::dns::farm::FarmStats;
use cross_layer_attacks::telemetry::MetricsSnapshot;
use proptest::prelude::*;

/// A small closed name pool keeps collisions (the interesting case for
/// merging: both sides holding the same key) frequent.
const NAMES: &[&str] = &[
    "engine.events.popped",
    "engine.packets.delivered",
    "dns.cache.hits",
    "dns.resolver.bogus_dropped",
    "attacks.saddns.runs",
    "ca.issuance.orders",
];

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec((0usize..NAMES.len(), 0u64..1_000_000), 0..12),
        proptest::collection::vec((0usize..NAMES.len(), 0u64..1_000_000), 0..8),
        proptest::collection::vec((0usize..NAMES.len(), 0u64..1 << 40), 0..10),
    )
        .prop_map(|(counters, gauges, observations)| {
            let mut s = MetricsSnapshot::new();
            for (n, v) in counters {
                s.incr(NAMES[n], v);
            }
            for (n, v) in gauges {
                s.gauge_max(NAMES[n], v);
            }
            for (n, v) in observations {
                s.observe_ns(NAMES[n], v);
            }
            s
        })
}

fn arb_farm_stats() -> impl Strategy<Value = FarmStats> {
    // Bounded well below u64::MAX so merging two values never overflows.
    proptest::collection::vec(0u64..1 << 40, 11).prop_map(|v| FarmStats {
        clients: v[0],
        queries_sent: v[1],
        responses: v[2],
        error_responses: v[3],
        cache_answers: v[4],
        upstream_queries: v[5],
        servfails: v[6],
        cache_entries: v[7],
        packets_delivered: v[8],
        bytes_delivered: v[9],
        sim_end_ns: v[10],
    })
}

fn export(stats: &FarmStats) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new();
    stats.export_metrics(&mut m);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge(a, b) == merge(b, a): counters add, gauges max, histograms
    /// bucket-add — all commutative, so the whole snapshot is.
    #[test]
    fn snapshot_merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");
        prop_assert_eq!(ab.render(), ba.render(), "equal snapshots must render identically");
        prop_assert_eq!(ab.to_json(), ba.to_json(), "equal snapshots must serialise identically");
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)): the reduction tree's
    /// shape can never change the result.
    #[test]
    fn snapshot_merge_is_associative(a in arb_snapshot(), b in arb_snapshot(), c in arb_snapshot()) {
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");
    }

    /// Merging an empty snapshot changes nothing — the per-shard fold can
    /// safely start from `MetricsSnapshot::new()`.
    #[test]
    fn empty_snapshot_is_merge_identity(a in arb_snapshot()) {
        let mut left = MetricsSnapshot::new();
        left.merge(&a);
        prop_assert_eq!(&left, &a, "empty is a left identity");
        let mut right = a.clone();
        right.merge(&MetricsSnapshot::new());
        prop_assert_eq!(&right, &a, "empty is a right identity");
    }

    /// export(a ⊕ b) == export(a) ⊕ export(b): every farm counter adds and
    /// `sim_end_ns` max-merges on both sides, so a farm campaign's snapshot
    /// is one export of its merged stats — no per-shard export is needed.
    #[test]
    fn farm_export_commutes_with_merge(a in arb_farm_stats(), b in arb_farm_stats()) {
        let mut merged = a.clone();
        merged.merge(&b);
        let mut exports = export(&a);
        exports.merge(&export(&b));
        let exported = export(&merged);
        prop_assert_eq!(&exported, &exports, "export must commute with merge");
        prop_assert_eq!(exported.render(), exports.render(), "rendered bytes must agree");
        prop_assert_eq!(exported.to_json(), exports.to_json(), "JSON bytes must agree");
    }
}
