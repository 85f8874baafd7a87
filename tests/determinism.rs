//! Deterministic-seed regression tests: two runs of each poisoning
//! methodology against identically-configured victim environments must
//! produce byte-for-byte identical [`AttackReport`]s — packet counts,
//! success, duration, iteration counts and notes. The paper's tables are
//! regenerated from exactly these simulations, so any nondeterminism here
//! silently invalidates every downstream number. The scenario grid's worker
//! sweep lives in `tests/golden.rs`, which shares one full-grid run per
//! worker count between the goldens and the determinism checks.

use cross_layer_attacks::apps::prelude::*;
use cross_layer_attacks::attacks::prelude::*;
use cross_layer_attacks::ca::prelude::*;
use cross_layer_attacks::dns::prelude::*;
use cross_layer_attacks::netsim::prelude::*;
use cross_layer_attacks::xlayer_core::prelude::*;

/// The standard victim environment of `VictimEnvConfig::default()`, pinned
/// to a seed.
fn standard_env(seed: u64) -> (Simulator, VictimEnv) {
    VictimEnvConfig { seed, ..Default::default() }.build()
}

/// The SadDNS-friendly environment used throughout the attack tests: a
/// 256-port ephemeral range (documented scaling knob), a generous timeout
/// and a rate-limited nameserver so muting works.
fn saddns_env(seed: u64) -> (Simulator, VictimEnv) {
    let mut cfg = VictimEnvConfig {
        seed,
        nameserver: NameserverConfig::new(addrs::NAMESERVER).with_rrl(10),
        ..Default::default()
    };
    cfg.resolver.port_range = (40000, 40255);
    cfg.resolver.query_timeout = Duration::from_secs(30);
    cfg.resolver.max_retries = 0;
    cfg.build()
}

fn run_hijackdns(seed: u64) -> AttackReport {
    let (mut sim, env) = standard_env(seed);
    HijackDnsAttack::new(HijackDnsConfig::new(env.attacker_addr)).run(&mut sim, &env)
}

fn run_saddns(seed: u64) -> AttackReport {
    let (mut sim, env) = saddns_env(seed);
    let mut cfg = SadDnsConfig::new(env.attacker_addr);
    cfg.scan_range = (40000, 40255);
    cfg.max_iterations = 2;
    SadDnsAttack::new(cfg).run(&mut sim, &env)
}

fn run_fragdns(seed: u64) -> AttackReport {
    let (mut sim, env) = standard_env(seed);
    FragDnsAttack::new(FragDnsConfig::new(env.attacker_addr)).run(&mut sim, &env)
}

#[test]
fn hijackdns_reports_are_identical_across_runs() {
    let a = run_hijackdns(2021);
    let b = run_hijackdns(2021);
    assert!(a.success, "HijackDNS must succeed in the standard environment: {:?}", a.notes);
    assert_eq!(a, b, "same seed + same config must reproduce the exact report");
}

#[test]
fn saddns_reports_are_identical_across_runs() {
    let a = run_saddns(2021);
    let b = run_saddns(2021);
    assert!(a.success, "SadDNS must succeed in the tuned environment: {:?}", a.notes);
    assert_eq!(a, b, "same seed + same config must reproduce the exact report");
    assert!(a.attacker_packets > 0);
    assert!(a.duration > Duration::ZERO);
}

#[test]
fn fragdns_reports_are_identical_across_runs() {
    let a = run_fragdns(2021);
    let b = run_fragdns(2021);
    assert!(a.success, "FragDNS must succeed in the standard environment: {:?}", a.notes);
    assert_eq!(a, b, "same seed + same config must reproduce the exact report");
}

#[test]
fn environment_build_is_deterministic() {
    // The environment builder itself (addresses, zone contents, resolver
    // state) must not depend on anything but the config.
    let (sim_a, env_a) = standard_env(7);
    let (sim_b, env_b) = standard_env(7);
    assert_eq!(env_a.resolver_addr, env_b.resolver_addr);
    assert_eq!(env_a.nameserver_addr, env_b.nameserver_addr);
    assert_eq!(env_a.attacker_addr, env_b.attacker_addr);
    assert_eq!(sim_a.now(), sim_b.now());
}

/// Campaign configs for the thread-count-invariance cases: same seed and
/// cap, swept over worker counts. The cap spans multiple shards so the
/// sweep actually exercises cross-shard merging.
fn campaign_cfgs() -> Vec<CampaignConfig> {
    [1usize, 2, 8].iter().map(|&w| CampaignConfig::new(2021, 3 * SHARD_SIZE as u64 + 500).with_workers(w)).collect()
}

#[test]
fn table3_is_thread_count_invariant() {
    let cfgs = campaign_cfgs();
    let reference = run_table3_with(&cfgs[0]);
    for cfg in &cfgs[1..] {
        assert_eq!(run_table3_with(cfg), reference, "workers={} changed Table 3", cfg.workers);
    }
    // The rendered artifact is byte-identical too, not merely approximately equal.
    assert_eq!(render_table3(&run_table3_with(&cfgs[2])), render_table3(&reference));
}

#[test]
fn table4_is_thread_count_invariant() {
    let cfgs = campaign_cfgs();
    let reference = run_table4_with(&cfgs[0]);
    for cfg in &cfgs[1..] {
        assert_eq!(run_table4_with(cfg), reference, "workers={} changed Table 4", cfg.workers);
    }
    assert_eq!(render_table4(&run_table4_with(&cfgs[2])), render_table4(&reference));
}

#[test]
fn figure3_is_thread_count_invariant() {
    let cfgs = campaign_cfgs();
    let reference = figure3_prefix_distributions_with(&cfgs[0]);
    for cfg in &cfgs[1..] {
        assert_eq!(figure3_prefix_distributions_with(cfg), reference, "workers={} changed Figure 3", cfg.workers);
    }
}

#[test]
fn figure4_is_thread_count_invariant() {
    let cfgs = campaign_cfgs();
    let reference = figure4_edns_vs_fragment_with(&cfgs[0]);
    for cfg in &cfgs[1..] {
        assert_eq!(figure4_edns_vs_fragment_with(cfg), reference, "workers={} changed Figure 4", cfg.workers);
    }
}

#[test]
fn figure5_and_table6_are_thread_count_invariant() {
    let cfgs = campaign_cfgs();
    let small: Vec<CampaignConfig> =
        cfgs.iter().map(|c| CampaignConfig::new(c.seed, 2_000).with_workers(c.workers)).collect();
    let venn_ref = (figure5_resolver_overlap_with(&small[0]), figure5_domain_overlap_with(&small[0]));
    let t6_ref = run_table6_with(&small[0], 1);
    for cfg in &small[1..] {
        assert_eq!(figure5_resolver_overlap_with(cfg), venn_ref.0, "workers={} changed Figure 5a", cfg.workers);
        assert_eq!(figure5_domain_overlap_with(cfg), venn_ref.1, "workers={} changed Figure 5b", cfg.workers);
        assert_eq!(run_table6_with(cfg, 1), t6_ref, "workers={} changed Table 6", cfg.workers);
    }
}

#[test]
fn generated_populations_are_thread_count_invariant() {
    // Profile-level identity, not just tally-level: element i is the same
    // struct at any worker count.
    let specs = table3_datasets();
    let dspecs = table4_datasets();
    let base = CampaignConfig::new(7, SHARD_SIZE as u64 + 123);
    let resolvers = generate_resolvers_with(&specs[7], &base);
    let domains = generate_domains_with(&dspecs[1], &base);
    for workers in [2usize, 8] {
        let cfg = base.clone().with_workers(workers);
        assert_eq!(generate_resolvers_with(&specs[7], &cfg), resolvers);
        assert_eq!(generate_domains_with(&dspecs[1], &cfg), domains);
    }
}

#[test]
fn scenario_outcomes_are_identical_across_runs() {
    // The full pipeline — vector preparation, defences, baseline exploit
    // observation, poisoning, post-attack observation — replays exactly for
    // the same seed, including the application verdicts.
    let run = || {
        Scenario::new(VictimEnvConfig { seed: 2021, ..Default::default() })
            .vector(vectors::quick_for(PoisonMethod::FragDns))
            .defences(&[Defence::None])
            .exploit(WebRedirectExploit::new("vict.im", addrs::SERVICE))
            .run()
    };
    let a = run();
    let b = run();
    assert!(a.report.success, "FragDNS must succeed undefended: {:?}", a.report.notes);
    // FragDNS appends malicious records to the genuine ANY response (the
    // first fragment, carrying the genuine A record, is untouched), so the
    // application still observes the genuine site — the interesting part
    // here is that the *whole* outcome replays exactly, verdicts included.
    assert_eq!(a.before, Some(ExploitVerdict::Web(WebAccess::Genuine)));
    assert!(a.exploit.is_some());
    assert_eq!(a, b, "same seed + same pipeline must reproduce the exact ScenarioOutcome");
}

/// Runs one full DNS-over-TCP resolution (client query → TCP handshake →
/// framed query → framed answer → teardown) and returns the rendered flight
/// recorder dump of its packets plus the resolver's stats — everything an
/// interleaving could leak into.
fn run_tcp_resolution(seed: u64) -> (String, u64, u64) {
    let mut cfg = VictimEnvConfig { seed, ..Default::default() };
    cfg.resolver = cfg.resolver.with_transport(UpstreamTransport::TcpOnly);
    let (mut sim, env) = cfg.build();
    sim.install_recorder(FlightRecorder::default());
    env.trigger_query(&mut sim, QueryTrigger::InternalClient, &"www.vict.im".parse().unwrap(), RecordType::A, 9);
    sim.run();
    let resolver = env.resolver(&sim);
    assert_eq!(resolver.stats.responses_accepted, 1, "TCP resolution must complete");
    let rec = sim.recorder().expect("installed");
    assert_eq!(rec.dropped(), 0, "the dump holds the whole resolution");
    let trace = rec.dump_last(usize::MAX, &sim);
    assert!(trace.contains("[SYN] seq="), "TCP segments render their seq and ack numbers: {trace}");
    (trace, sim.stats(env.resolver).tcp_sent, sim.stats(env.resolver).tcp_received)
}

#[test]
fn tcp_connections_are_byte_identical_for_the_same_seed() {
    // Seeded ISNs, handshake interleavings, segment boundaries, teardown:
    // the whole packet trace of a DNS-over-TCP resolution replays exactly.
    let a = run_tcp_resolution(2021);
    let b = run_tcp_resolution(2021);
    assert_eq!(a, b, "same seed must reproduce the exact TCP packet trace");
    assert!(a.1 >= 3, "handshake + query + teardown segments on the wire: {}", a.1);
    // A different seed draws different ISNs, so the trace differs (the seq
    // numbers are in the rendered summaries) while resolution still works.
    let c = run_tcp_resolution(2022);
    assert_ne!(a.0, c.0, "different seeds must draw different ISNs");
}

#[test]
fn ca_issuance_replays_for_the_same_seed() {
    // The whole issuance pipeline — nested validation simulation, vantage
    // interleavings, HTTP-01 TCP exchanges, packet/byte accounting — is a
    // pure function of (seed, order). Both the genuine path and the full
    // attack chain must replay byte-for-byte.
    let genuine = |seed: u64| {
        let mut cfg = CaConfig::standard(seed);
        cfg.vantage_quorum = Some(2);
        let mut authority = CertificateAuthority::new(cfg);
        let owner = AcmeAccount::new("owner@vict.im");
        let order = authority.order(&owner, &"www.vict.im".parse().unwrap(), ChallengeType::Http01);
        authority.provision_http01(&order);
        authority.issue(&order, &[])
    };
    let a = genuine(2021);
    let b = genuine(2021);
    assert!(a.outcome.issued(), "{a:?}");
    assert_eq!(a, b, "same seed must replay the exact IssuanceReport, flows and accounting included");
    let c = genuine(2022);
    assert!(c.outcome.issued(), "a different seed still issues");

    let chain = |seed: u64| run_issuance_cell(PoisonMethod::HijackDns, Defence::multi_vantage(), seed);
    let a = chain(2021);
    let b = chain(2021);
    assert!(a.issued, "the interception chain defeats the quorum: {a:?}");
    assert_eq!(a, b, "same seed must replay the exact issuance chain");
}

#[test]
fn issuance_matrix_is_thread_count_invariant() {
    // The CA grid rides the same engine contract as the scenario grid: the
    // matrix — including the MultiVantageValidation row — is byte-equal
    // for workers ∈ {1, 2, 8}.
    let campaign = IssuanceCampaign {
        base_seed: 2021,
        methods: PoisonMethod::all().to_vec(),
        defences: vec![Defence::None, Defence::multi_vantage()],
        runs_per_cell: 2,
    };
    let reference = campaign.run(1);
    for workers in [2usize, 8] {
        let matrix = campaign.run(workers);
        assert_eq!(matrix, reference, "workers={workers} changed the issuance matrix");
        assert_eq!(render_issuance_matrix(&matrix), render_issuance_matrix(&reference), "the rendering too");
    }
    // And the rows mean what the CA ablation says: the quorum refuses the
    // off-path chains on every seed, never the interception hijack.
    let mvv = Defence::multi_vantage();
    for method in [PoisonMethod::SadDns, PoisonMethod::FragDns] {
        let cell = reference.cell(method, mvv).unwrap();
        assert_eq!((cell.runs, cell.issued), (2, 0), "{method} must be refused by the quorum");
        assert_eq!(cell.poisoned, 2, "{method} still poisons the resolver");
    }
    let hijack = reference.cell(PoisonMethod::HijackDns, mvv).unwrap();
    assert_eq!((hijack.runs, hijack.issued), (2, 2));
}

#[test]
fn different_seeds_still_converge_on_success() {
    // Determinism must not come from ignoring the seed: distinct seeds may
    // take different paths (port draws, IPID draws) yet the methodology
    // still succeeds in its reference environment.
    for seed in [1u64, 2, 3] {
        assert!(run_hijackdns(seed).success, "HijackDNS failed for seed {seed}");
        assert!(run_fragdns(seed).success, "FragDNS failed for seed {seed}");
    }
}
