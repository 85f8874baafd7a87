//! The resolver-farm workloads. The benchmark runs its own shard loop over
//! the public farm API (`build_farm`, `Simulator::run`, `Farm::stats`) so
//! that set-up, simulation and collection are timed apart; a check asserts
//! that the loop merges to exactly what `run_farm_campaign` computes.

use crate::alloc::Allocs;
use crate::clock::Calibration;
use crate::host::digest;
use crate::trace::Tracer;
use crate::workload::{pass_seed, Check, WorkloadRun};
use dns::farm::{build_farm, FarmConfig, FarmStats};
use netsim::time::Duration;
use std::time::Instant;
use xlayer_core::farm::shard_clients;
use xlayer_core::prelude::*;

/// Shape of one farm workload.
#[derive(Debug, Clone, Copy)]
pub struct FarmShape {
    /// Workload name.
    pub name: &'static str,
    /// Stub clients across all shards.
    pub hosts: u32,
    /// Shard simulations per pass.
    pub shards: u32,
    /// Anycast frontends per shard, sharing one cache.
    pub resolvers: u32,
    /// Query-name pool (and zone) size.
    pub names: u32,
    /// Mean client think time, ms of simulated time.
    pub think_ms: u64,
    /// Simulated duration of the query stream, ms.
    pub duration_ms: u64,
    /// The cache-hit ratio the workload exists to have.
    pub hit_ratio_range: (f64, f64),
}

/// The farm of `BENCH_engine.json`: 99% of queries are answered from cache.
pub const FARM_HIT: FarmShape = FarmShape {
    name: "farm-hit",
    hosts: 100_000,
    shards: 8,
    resolvers: 4,
    names: 512,
    think_ms: 2000,
    duration_ms: 10_000,
    hit_ratio_range: (0.95, 1.0),
};

/// The same per-shard farm (3 125 clients per shard, same frontends, think
/// time and duration) with a pool of 20 000 names: each shard sends about
/// 15 600 queries, so roughly 70% of them go upstream.
pub const FARM_MISS: FarmShape = FarmShape {
    name: "farm-miss",
    hosts: 12_500,
    shards: 4,
    resolvers: 4,
    names: 20_000,
    think_ms: 2000,
    duration_ms: 10_000,
    hit_ratio_range: (0.0, 0.4),
};

impl FarmShape {
    /// The campaign configuration of this shape at `seed`, `workers` threads.
    pub fn campaign(&self, seed: u64, workers: usize) -> FarmCampaignConfig {
        FarmCampaignConfig {
            seed,
            hosts: self.hosts,
            shards: self.shards,
            workers,
            shard: FarmConfig {
                seed,
                resolvers: self.resolvers,
                clients: 0,
                names: self.names,
                mean_think: Duration::from_millis(self.think_ms),
                duration: Duration::from_millis(self.duration_ms),
            },
        }
    }

    /// The configuration of shard `shard` of the campaign at `seed`, derived
    /// exactly as `run_farm_campaign` derives it.
    pub fn shard_config(&self, seed: u64, shard: u32) -> FarmConfig {
        let c = self.campaign(seed, 1);
        FarmConfig {
            seed: derive_seed(seed, FARM_SALT, u64::from(shard)),
            clients: shard_clients(self.hosts, self.shards, shard),
            ..c.shard
        }
    }
}

/// Host time and counters of one shard simulation.
pub struct ShardRun {
    /// Deterministic statistics.
    pub stats: FarmStats,
    /// Engine counters (`engine.*`).
    pub engine: telemetry::MetricsSnapshot,
    /// Host seconds in `build_farm`.
    pub build_s: f64,
    /// Host seconds in `Simulator::run`.
    pub run_s: f64,
    /// Allocations made by `Simulator::run`.
    pub allocs: Allocs,
}

/// Builds, runs and summarises one shard inside spans.
pub fn run_shard(cfg: FarmConfig, tr: &mut Tracer) -> ShardRun {
    tr.span("shard", |tr| {
        let t0 = Instant::now();
        let (mut sim, farm) = tr.span("build_farm", |_| build_farm(cfg));
        let t1 = Instant::now();
        let a0 = Allocs::now();
        tr.span("Simulator::run", |_| sim.run());
        let allocs = a0.since();
        let t2 = Instant::now();
        let stats = tr.span("Farm::stats", |_| farm.stats(&sim));
        let mut engine = telemetry::MetricsSnapshot::new();
        sim.export_metrics(&mut engine);
        ShardRun { stats, engine, build_s: (t1 - t0).as_secs_f64(), run_s: (t2 - t1).as_secs_f64(), allocs }
    })
}

/// Runs the workload for `seconds` of wall time (whole passes, at least
/// three so that set-up is sampled several times). Pass `p` simulates the
/// whole farm at `pass_seed(seed, p)`. Returns the run, and pass 0's seed
/// and merged statistics.
pub fn run(
    shape: FarmShape,
    seed: u64,
    seconds: f64,
    trace: bool,
    cal: &mut Calibration,
) -> (WorkloadRun, (u64, FarmStats)) {
    let mut w = WorkloadRun::new(shape.name, "queries", trace);
    let started = Instant::now();
    let mut pass = 0u64;
    let mut pass0 = FarmStats::default();
    let (mut queries, mut hits) = (0u64, 0u64);
    while pass < 3 || started.elapsed().as_secs_f64() < seconds {
        let traced = w.begin_pass(pass);
        let mark = cal.mark();
        let pseed = pass_seed(seed, pass);
        let mut merged = FarmStats::default();
        let mut engine = telemetry::MetricsSnapshot::new();
        let (mut build_s, mut run_s) = (0.0, 0.0);
        let mut allocs = Allocs::default();
        w.tracer.span(shape.name, |tr| {
            for shard in 0..shape.shards {
                let r = run_shard(shape.shard_config(pseed, shard), tr);
                merged.merge(&r.stats);
                engine.merge(&r.engine);
                build_s += r.build_s;
                run_s += r.run_s;
                allocs.count += r.allocs.count;
                allocs.bytes += r.allocs.bytes;
                tr.span("calibrate", |_| cal.tick());
            }
        });
        let answered = merged.responses - merged.error_responses;
        let failed = merged.queries_sent.saturating_sub(answered);
        w.acct.record(merged.queries_sent, failed);
        w.add_pass(traced, merged.queries_sent, run_s);
        if !traced {
            w.setup_samples.push(build_s / cal.slowness_since(mark));
        }
        queries += merged.queries_sent;
        hits += merged.cache_answers;
        w.packets += merged.packets_delivered;
        if pass == 0 {
            w.pass0_allocs = allocs;
            w.pass0_ops = merged.queries_sent;
            w.digest = digest(&format!("{merged:?}\n{}", engine.render()));
            pass0 = merged.clone();
        }
        w.checks.push(Check::pass(
            pass,
            "every query answered without error (responses == queries_sent)",
            merged.responses == merged.queries_sent && merged.error_responses == 0 && merged.servfails == 0,
        ));
        pass += 1;
    }
    let hit_ratio = hits as f64 / queries.max(1) as f64;
    w.sizes.push(format!(
        "{}: {} hosts in {} shards x {} frontends, {} names, think {} ms, {} ms simulated; \
         {} passes, {:.0} queries and {:.0} packets per pass, cache_hit_ratio={hit_ratio:.4}",
        shape.name,
        shape.hosts,
        shape.shards,
        shape.resolvers,
        shape.names,
        shape.think_ms,
        shape.duration_ms,
        pass,
        queries as f64 / pass as f64,
        w.packets as f64 / pass as f64,
    ));
    let (lo, hi) = shape.hit_ratio_range;
    w.checks.push(Check::new(
        format!("workload property: cache_hit_ratio {hit_ratio:.4} within [{lo}, {hi}]"),
        (lo..=hi).contains(&hit_ratio),
    ));
    (w, (pass_seed(seed, 0), pass0))
}

/// Untimed check: the benchmark's shard loop merges to exactly what
/// `run_farm_campaign` computes at one and at two workers.
pub fn check_campaign_equivalence(shape: FarmShape, w: &mut WorkloadRun, seed: u64, reference: &FarmStats) {
    for workers in [1, 2] {
        let stats = run_farm_campaign(&shape.campaign(seed, workers));
        w.checks
            .push(Check::new(format!("shard loop equals run_farm_campaign at workers={workers}"), &stats == reference));
    }
}
