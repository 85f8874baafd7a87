//! The million-host farm campaign: sharded scale-out of `dns::farm` over the
//! campaign worker pool, and the SadDNS-under-load experiment.
//!
//! One farm shard is a complete simulation (frontends, nameserver, stub
//! clients) seeded purely from `(master seed, FARM_SALT, shard index)`. The
//! population is split evenly across shards, every shard runs independently
//! on whatever worker picks it up, and the per-shard [`FarmStats`] are merged
//! in shard order — so the merged result is byte-identical for any worker
//! count, the same contract as every other campaign in this crate.
//!
//! `BENCH_engine.json` is rendered from a [`FarmBench`]: the deterministic
//! counters plus the wall-clock packets/sec of the run that produced them.

use crate::campaign::{derive_seed, run_shards};
use attacks::env::addrs;
use attacks::prelude::{SadDnsAttack, SadDnsConfig};
use dns::farm::{run_farm_shard, FarmClientHandler, FarmConfig, FarmStats};
use dns::prelude::*;
use netsim::prelude::*;
use serde::{Deserialize, Serialize};

/// Stream salt separating farm shard seeds from every other campaign.
pub const FARM_SALT: u64 = 0xFA12_2021;

/// Configuration of a sharded farm run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FarmCampaignConfig {
    /// Master seed.
    pub seed: u64,
    /// Total stub clients across all shards.
    pub hosts: u32,
    /// Number of shard simulations to split them into.
    pub shards: u32,
    /// Worker threads.
    pub workers: usize,
    /// Per-shard template (resolvers, name pool, think time, duration); the
    /// `seed` and `clients` fields are overwritten per shard.
    pub shard: FarmConfig,
}

impl Default for FarmCampaignConfig {
    fn default() -> Self {
        FarmCampaignConfig { seed: 2021, hosts: 100_000, shards: 8, workers: 1, shard: FarmConfig::default() }
    }
}

/// Splits `hosts` clients over `shards` shards: the first `hosts % shards`
/// shards take one extra client, so any worker count sees the same split.
pub fn shard_clients(hosts: u32, shards: u32, shard: u32) -> u32 {
    let base = hosts / shards;
    let extra = u32::from(shard < hosts % shards);
    base + extra
}

/// Runs the farm population across the worker pool and merges the stats.
/// The result is a pure function of `(seed, hosts, shards, shard template)` —
/// the worker count only changes the wall-clock, never a counter.
pub fn run_farm_campaign(cfg: &FarmCampaignConfig) -> FarmStats {
    let shards = cfg.shards.max(1) as usize;
    let parts = run_shards(shards, cfg.workers, |shard| {
        let shard_cfg = FarmConfig {
            seed: derive_seed(cfg.seed, FARM_SALT, shard as u64),
            clients: shard_clients(cfg.hosts, shards as u32, shard as u32),
            ..cfg.shard.clone()
        };
        run_farm_shard(shard_cfg)
    });
    let mut merged = FarmStats::default();
    for p in &parts {
        merged.merge(p);
    }
    merged
}

/// The committed benchmark record: deterministic counters plus the measured
/// throughput of the machine that produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FarmBench {
    /// The configuration benchmarked.
    pub config: FarmCampaignConfig,
    /// The merged deterministic counters.
    pub stats: FarmStats,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Delivered packets per wall-clock second.
    pub packets_per_sec: f64,
}

/// Renders a [`FarmBench`] as the `BENCH_engine.json` document. Hand-rolled:
/// the workspace has no JSON serialiser and the schema is a dozen scalars.
pub fn render_bench_json(b: &FarmBench) -> String {
    let c = &b.config;
    let s = &b.stats;
    format!(
        "{{\n  \"bench\": \"engine_farm\",\n  \"seed\": {},\n  \"hosts\": {},\n  \"shards\": {},\n  \"workers\": {},\n  \
         \"resolvers_per_shard\": {},\n  \"name_pool\": {},\n  \"mean_think_ms\": {},\n  \"sim_duration_ms\": {},\n  \
         \"queries_sent\": {},\n  \"responses\": {},\n  \"cache_answers\": {},\n  \"upstream_queries\": {},\n  \
         \"servfails\": {},\n  \"cache_entries\": {},\n  \"packets_delivered\": {},\n  \"bytes_delivered\": {},\n  \
         \"sim_end_ns\": {},\n  \"wall_seconds\": {:.3},\n  \"packets_per_sec\": {:.0}\n}}\n",
        c.seed,
        c.hosts,
        c.shards,
        c.workers,
        c.shard.resolvers,
        c.shard.names,
        c.shard.mean_think.as_nanos() / 1_000_000,
        c.shard.duration.as_nanos() / 1_000_000,
        s.queries_sent,
        s.responses,
        s.cache_answers,
        s.upstream_queries,
        s.servfails,
        s.cache_entries,
        s.packets_delivered,
        s.bytes_delivered,
        s.sim_end_ns,
        b.wall_seconds,
        b.packets_per_sec,
    )
}

/// Outcome of a SadDNS run against a resolver serving background load.
#[derive(Debug, Clone)]
pub struct LoadedSadDnsReport {
    /// The attack report itself.
    pub report: attacks::outcome::AttackReport,
    /// Background clients simulated.
    pub background_clients: u32,
    /// Background queries the resolver answered during the attack.
    pub background_queries: u64,
    /// Background queries answered from cache.
    pub background_cache_answers: u64,
    /// Ephemeral-port noise: upstream queries the background load opened
    /// while the attacker was scanning.
    pub background_upstream: u64,
    /// Total packets delivered in the simulation.
    pub packets_delivered: u64,
    /// Flight-recorder dump of the last 64 events (the attack's phase spans
    /// and the packets around them), present only when the attack chain
    /// failed: the post-mortem of what the attack was doing, in sim time,
    /// when it died.
    pub flight_log: Option<String>,
    /// Telemetry of the loaded run: resolver counters (`dns.*`), engine
    /// counters (`engine.*`) and — because this experiment is single-threaded
    /// on one simulator — the thread-local buffer-pool delta
    /// (`engine.pool.*`) accumulated between build and teardown.
    pub metrics: telemetry::MetricsSnapshot,
}

/// Runs SadDNS against the standard victim environment while `clients`
/// arena-hosted stubs keep querying the same resolver — the paper's attacks
/// measured under production-shaped load instead of against an idle host.
///
/// The background clients query real `vict.im` names, so after warm-up most
/// of their traffic is served from cache; TTL expiries and the name mix keep
/// a trickle of upstream queries (and thus extra open ephemeral ports) alive,
/// which is precisely the noise floor a real scan contends with.
pub fn saddns_under_load(seed: u64, clients: u32) -> LoadedSadDnsReport {
    saddns_under_load_with_warmup(seed, clients, Duration::from_secs(5))
}

/// [`saddns_under_load`] with an explicit warm-up. A zero warm-up starts the
/// attack against a cold cache: background misses race the attacker's own
/// trigger for ephemeral ports, and the scan's 1-bit oracle cannot tell them
/// apart — the scale-dependent noise floor the paper's threat model implies.
pub fn saddns_under_load_with_warmup(seed: u64, clients: u32, warmup: Duration) -> LoadedSadDnsReport {
    let mut cfg = attacks::env::VictimEnvConfig {
        seed,
        resolver: ResolverConfig::new(addrs::RESOLVER).with_delegation("vict.im", vec![addrs::NAMESERVER], false),
        nameserver: NameserverConfig::new(addrs::NAMESERVER).with_rrl(10),
        ..Default::default()
    };
    // Same scaling knobs as the attacks crate's own SadDNS experiments: a
    // 256-port ephemeral range and a generous timeout keep the full machinery
    // (mute, scan, divide and conquer, TXID spray) inside a short sim.
    cfg.resolver.port_range = (40000, 40255);
    cfg.resolver.query_timeout = Duration::from_secs(30);
    cfg.resolver.max_retries = 0;
    // Pool counters are thread-local; this experiment runs one simulator on
    // one thread, so a reset-before/read-after delta is well-defined here
    // (unlike in sharded campaigns, where shards share worker threads).
    netsim::pool::reset_counters();
    let (mut sim, env) = cfg.build();

    // The background population: stub clients querying the victim zone's real
    // names through the same resolver the attacker is racing. The attack's
    // target (`www.vict.im`) is deliberately absent — if the background had
    // already cached it, the trigger query would be a cache hit and never
    // open the ephemeral port the attack races for.
    let names: Vec<DomainName> = ["vict.im", "login.vict.im", "ntp.vict.im", "rpki.vict.im"]
        .iter()
        .map(|n| n.parse().expect("valid name"))
        .collect();
    let first = sim.add_stub_block("bg", "100.64.0.0".parse().expect("addr"), clients);
    // Keep load flowing through the whole attack window.
    let end = SimTime::ZERO + Duration::from_secs(600);
    sim.set_stub_handler(FarmClientHandler::new(vec![addrs::RESOLVER], &names, Duration::from_millis(800), end));

    // Warm-up: let the background population prime the cache before the
    // attack begins. Without it, clients whose names miss *while the
    // nameserver is muted* keep ephemeral ports open for the full query
    // timeout, and the port scan isolates a background port instead of the
    // attacker-triggered one (the spray then dies on a question mismatch).
    sim.run_for(warmup);

    let mut attack_cfg = SadDnsConfig::new(addrs::ATTACKER);
    attack_cfg.scan_range = (40000, 40255);
    attack_cfg.max_iterations = 2;
    let baseline = env.resolver(&sim).stats.clone();
    sim.install_recorder(FlightRecorder::new(256));
    let report = SadDnsAttack::new(attack_cfg).run(&mut sim, &env);
    let flight_log = (!report.success).then(|| sim.recorder().expect("installed").dump_last(64, &sim));

    let mut metrics = telemetry::MetricsSnapshot::new();
    env.resolver(&sim).export_metrics(&mut metrics);
    sim.export_metrics(&mut metrics);
    let pool = netsim::pool::counters();
    metrics.incr("engine.pool.hits", pool.hits);
    metrics.incr("engine.pool.misses", pool.misses);
    metrics.incr("engine.pool.returned", pool.returned);
    metrics.incr("engine.pool.dropped", pool.dropped);

    let rs = env.resolver(&sim).stats.clone();
    let block = sim.stub_block_stats(first).clone();
    let packets_delivered = sim.stats(env.resolver).packets_received
        + sim.stats(env.nameserver).packets_received
        + sim.stats(env.attacker).packets_received
        + sim.stats(env.client).packets_received
        + block.packets_received;
    LoadedSadDnsReport {
        report,
        background_clients: clients,
        background_queries: rs.client_queries - baseline.client_queries,
        background_cache_answers: rs.cache_answers - baseline.cache_answers,
        background_upstream: rs.upstream_queries - baseline.upstream_queries,
        packets_delivered,
        flight_log,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FarmCampaignConfig {
        FarmCampaignConfig {
            seed: 7,
            hosts: 600,
            shards: 4,
            workers: 1,
            shard: FarmConfig {
                resolvers: 2,
                names: 16,
                mean_think: netsim::time::Duration::from_millis(400),
                duration: netsim::time::Duration::from_secs(2),
                ..FarmConfig::default()
            },
        }
    }

    #[test]
    fn shard_split_covers_every_host_exactly_once() {
        for (hosts, shards) in [(10u32, 3u32), (600, 4), (7, 8), (4096, 16)] {
            let total: u32 = (0..shards).map(|s| shard_clients(hosts, shards, s)).sum();
            assert_eq!(total, hosts);
        }
    }

    #[test]
    fn farm_campaign_worker_count_invariant() {
        let one = run_farm_campaign(&tiny());
        let four = run_farm_campaign(&FarmCampaignConfig { workers: 4, ..tiny() });
        assert_eq!(one, four, "worker count must never change a counter");
        assert_eq!(one.clients, 600);
        assert!(one.queries_sent > 0);
        // The campaign snapshot is one export of the merged stats: exporting
        // commutes with `FarmStats::merge` (property-tested in
        // tests/telemetry_props.rs), so it equals the merge of the per-shard
        // exports and is worker-invariant because the stats are.
        let mut metrics = telemetry::MetricsSnapshot::new();
        four.export_metrics(&mut metrics);
        assert_eq!(metrics.counter("dns.farm.queries_sent"), one.queries_sent);
        assert_eq!(metrics.counter("dns.farm.clients"), one.clients);
        assert_eq!(metrics.gauge("dns.farm.sim_end_ns"), one.sim_end_ns);
    }

    #[test]
    fn bench_json_is_wellformed_enough() {
        let stats = run_farm_campaign(&tiny());
        let bench = FarmBench { config: tiny(), stats, wall_seconds: 1.5, packets_per_sec: 12345.0 };
        let json = render_bench_json(&bench);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"bench\": \"engine_farm\""));
        assert!(json.contains("\"packets_per_sec\": 12345"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn cold_cache_background_misses_share_the_port_space() {
        // No warm-up: background cache misses race the attacker's trigger,
        // and the muted nameserver pins their ephemeral ports open for the
        // full query timeout. Whether the 1-bit oracle's divide and conquer
        // lands on the attacker's port or a background one is seed luck, but
        // the noise itself — upstream queries with open ports during the scan
        // window — must be present, unlike in the warmed run.
        let loaded = saddns_under_load_with_warmup(21, 300, Duration::ZERO);
        assert!(loaded.background_upstream > 0, "background cache misses open competing ephemeral ports");
        assert_eq!(
            loaded.flight_log.is_some(),
            !loaded.report.success,
            "the flight recorder dumps exactly when the chain fails"
        );
    }

    #[test]
    fn saddns_still_succeeds_under_background_load() {
        let loaded = saddns_under_load(21, 300);
        assert!(loaded.report.success, "SadDNS under load failed: {:?}", loaded.report.notes);
        assert!(loaded.background_queries > 0, "the resolver actually served load");
        assert!(loaded.background_cache_answers > 0, "warm cache serves the background stream");
        assert!(loaded.packets_delivered > loaded.report.attacker_packets, "load adds traffic beyond the attack");
        assert!(loaded.flight_log.is_none(), "a successful chain leaves no post-mortem dump");
        assert!(loaded.metrics.counter("engine.events.popped") > 0, "engine counters exported");
        assert!(loaded.metrics.counter("dns.resolver.client_queries") > 0, "resolver counters exported");
        assert!(
            loaded.metrics.counter("engine.pool.hits") + loaded.metrics.counter("engine.pool.misses") > 0,
            "the pool delta of the single-threaded run is exported"
        );
    }
}
