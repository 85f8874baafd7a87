//! Per-layer measurements: host time and exact allocation counts from
//! calling the public functions of each layer on inputs shaped like the
//! workloads, plus exact work counters from one probe shard of each farm and
//! a few passes of the matrix. Every traced run measures all of them, so the
//! per-layer report is the same set whichever workload is traced.

use crate::alloc::Allocs;
use crate::clock::{Calibration, Kernel};
use crate::farm::{FarmShape, FARM_HIT, FARM_MISS};
use crate::matrix;
use crate::stats::{percentile, tail_level, Summary};
use crate::trace::Tracer;
use dns::cache::Cache;
use dns::dnssec::verify::rrsig_verifies;
use dns::dnssec::{KeyManager, Signer, SigningPolicy};
use dns::farm::{build_farm, load_zone};
use dns::prelude::*;
use netsim::checksum::checksum;
use netsim::frag::{fragment_packet, ReassemblyBuffer, ReassemblyResult};
use netsim::ipv4::{Ipv4Header, Ipv4Packet, Protocol};
use netsim::prelude::{Ipv4Addr, UdpDatagram};
use netsim::stack::HostStack;
use netsim::time::{Duration, SimTime};
use netsim::wheel::TimeWheel;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::hint::black_box;
use std::time::Instant;
use xlayer_core::prelude::*;

/// One per-layer metric. Host times are converted to calibrated time by the
/// caller; counts are exact.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value (host time for timings).
    pub value: f64,
    /// For a host time, the kernel whose calibration converts it.
    pub time: Option<Kernel>,
}

#[derive(Default)]
struct Out(Vec<LayerMetric>);

impl Out {
    /// A host time of network or DNS code, calibrated by [`Kernel::Scatter`].
    fn time(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(LayerMetric { name: name.into(), unit, value, time: Some(Kernel::Scatter) });
    }
    /// A host time of population code, calibrated by [`Kernel::Stream`].
    fn stream_time(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(LayerMetric { name: name.into(), unit, value, time: Some(Kernel::Stream) });
    }
    fn exact(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(LayerMetric { name: name.into(), unit, value, time: None });
    }
}

/// Median host ns per call of `op`, timed in batches of `batch` calls for at
/// least 15 batches or 40 ms, after one warm-up batch.
fn ns_per_call(cal: &mut Calibration, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    for i in 0..batch {
        op(i);
    }
    let mut per = Vec::new();
    let start = Instant::now();
    let mut i = batch;
    while per.len() < 15 || (start.elapsed().as_millis() < 40 && per.len() < 400) {
        let t = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        per.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    cal.tick();
    Summary::of(&per).map_or(0.0, |s| s.median)
}

/// Exact allocations per call over `calls` calls of `op`.
fn allocs_per_call(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let a0 = Allocs::now();
    for i in 0..calls {
        op(i);
    }
    a0.since().count as f64 / calls as f64
}

fn pool_name(i: usize) -> DomainName {
    format!("q{i}.load.test").parse().expect("synthetic name is valid")
}

fn a_record(i: usize) -> ResourceRecord {
    ResourceRecord::new(pool_name(i), 300, RData::A(Ipv4Addr::from(0x0a63_0000 + i as u32)))
}

/// Work counters and host time of one probe shard.
struct FarmProbe {
    run_s: f64,
    packets: u64,
    events: u64,
    queries: u64,
    cache_answers: u64,
    cache_entries: u64,
    pending_mid: u64,
    allocs: u64,
}

/// Shard 0 of `shape` at `seed`: runs half the simulated duration, reads the
/// pending-event count, then runs to quiescence.
fn farm_probe(shape: FarmShape, seed: u64) -> FarmProbe {
    let (mut sim, farm) = build_farm(shape.shard_config(seed, 0));
    let a0 = Allocs::now();
    let t0 = Instant::now();
    sim.run_for(Duration::from_millis(shape.duration_ms / 2));
    let mut mid = telemetry::MetricsSnapshot::new();
    let t_mid = t0.elapsed();
    sim.export_metrics(&mut mid);
    let t1 = Instant::now();
    sim.run();
    let run_s = (t_mid + t1.elapsed()).as_secs_f64();
    let allocs = a0.since().count;
    let stats = farm.stats(&sim);
    let mut m = telemetry::MetricsSnapshot::new();
    sim.export_metrics(&mut m);
    FarmProbe {
        run_s,
        packets: m.counter("engine.packets.delivered"),
        events: m.counter("engine.events.popped"),
        queries: stats.queries_sent,
        cache_answers: stats.cache_answers,
        cache_entries: stats.cache_entries,
        pending_mid: mid.gauge("engine.events.pending"),
        allocs,
    }
}

/// Passes of the matrix the suite runs: enough for ten samples beyond the
/// 90th percentile of every vector's run time.
const MATRIX_PROBE_PASSES: u64 = 4;

/// Measures every per-layer metric at `seed`. The simulation layers sample
/// `cal` (a [`Kernel::Scatter`] calibration); the population and
/// measurement layers sample a [`Kernel::Stream`] calibration of their own,
/// as the workloads that drive them do. Returns the metrics and that second
/// calibration.
pub fn measure(seed: u64, cal: &mut Calibration) -> (Vec<LayerMetric>, Calibration) {
    let mut out = Out::default();
    let hit = farm_probe(FARM_HIT, seed);
    let miss = farm_probe(FARM_MISS, seed);
    cal.tick();
    engine(&mut out, &hit, &miss, cal);
    wire(&mut out, cal);
    dns_layers(&mut out, &hit, &miss, seed, cal);
    scenario(&mut out, seed, cal);
    let mut pop = Calibration::new(Kernel::Stream);
    population(&mut out, seed, &mut pop);
    (out.0, pop)
}

fn engine(out: &mut Out, hit: &FarmProbe, miss: &FarmProbe, cal: &mut Calibration) {
    out.time("netsim.engine.ns_per_packet", "ns", hit.run_s * 1e9 / hit.packets as f64);
    out.exact("netsim.engine.events_per_packet", "count", hit.events as f64 / hit.packets as f64);
    out.exact("netsim.engine.pending_events", "count", hit.pending_mid as f64);
    out.exact("dns.farm.allocs_per_query.hit", "count", hit.allocs as f64 / hit.queries as f64);
    out.exact("dns.farm.allocs_per_query.miss", "count", miss.allocs as f64 / miss.queries as f64);
    out.exact("dns.farm.cache_hit_ratio.hit", "ratio", hit.cache_answers as f64 / hit.queries as f64);
    out.exact("dns.farm.cache_hit_ratio.miss", "ratio", miss.cache_answers as f64 / miss.queries as f64);

    // The wheel at the farm's mid-run occupancy: pop the earliest event and
    // schedule a successor one exponential think time later.
    let mut rng = ChaCha20Rng::seed_from_u64(1);
    let mut wheel: TimeWheel<u64> = TimeWheel::new();
    let mean = Duration::from_millis(FARM_HIT.think_ms);
    let mut seq = 0u64;
    for _ in 0..hit.pending_mid.max(1) {
        wheel.push(SimTime::ZERO + dns::farm::exp_sample(&mut rng, mean), seq, seq);
        seq += 1;
    }
    let ns = ns_per_call(cal, 10_000, |_| {
        let (t, _, v) = wheel.pop().expect("wheel stays full");
        wheel.push(t + dns::farm::exp_sample(&mut rng, mean), seq, v);
        seq += 1;
    });
    out.time("netsim.wheel.push_pop_ns", "ns", ns);
}

fn udp_packet(payload: usize) -> Ipv4Packet {
    UdpDatagram::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 5353, 53, vec![0xa5; payload])
        .into_packet(7, 64)
}

fn wire(out: &mut Out, cal: &mut Calibration) {
    for size in [60usize, 1500] {
        let header =
            Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), Protocol::Udp, size, 7, 64);
        let pkt = Ipv4Packet::new(header, vec![0x5a; size]);
        let bytes = pkt.encode();
        let enc = ns_per_call(cal, 2000, |_| {
            black_box(black_box(&pkt).encode());
        });
        let dec = ns_per_call(cal, 2000, |_| {
            black_box(Ipv4Packet::decode(black_box(&bytes)).expect("valid packet"));
        });
        out.time(&format!("netsim.ipv4.encode_ns.{size}b"), "ns", enc);
        out.time(&format!("netsim.ipv4.decode_ns.{size}b"), "ns", dec);
    }
    let kb = vec![0x3cu8; 1024];
    out.time(
        "netsim.checksum.ns_per_kb",
        "ns",
        ns_per_call(cal, 2000, |_| {
            black_box(checksum(black_box(&kb)));
        }),
    );

    // A FragDNS-sized response: 2 900 bytes of UDP payload over a 1 280-byte
    // path MTU, three fragments.
    let big = udp_packet(2900);
    let frags = fragment_packet(&big, 1280);
    assert_eq!(frags.len(), 3, "the probe datagram fragments in three");
    out.time(
        "netsim.frag.fragment_ns",
        "ns",
        ns_per_call(cal, 500, |_| {
            black_box(fragment_packet(black_box(&big), 1280));
        }),
    );
    let mut buf = ReassemblyBuffer::default();
    let reassemble = ns_per_call(cal, 500, |_| {
        let mut done = false;
        for f in &frags {
            done = matches!(buf.push(f, SimTime::ZERO), ReassemblyResult::Complete(_));
        }
        assert!(done, "the last fragment completes the datagram");
    });
    out.time("netsim.frag.reassemble_ns", "ns", reassemble);

    // The host stack receiving a farm-sized DNS query on an open port.
    let query = Message::query(7, pool_name(7), RecordType::A).encode();
    let pkt =
        UdpDatagram::new(Ipv4Addr::new(100, 64, 0, 9), Ipv4Addr::new(30, 0, 1, 1), 5353, 53, query).into_packet(11, 64);
    let mut stack = HostStack::with_defaults(vec![Ipv4Addr::new(30, 0, 1, 1)]);
    stack.open_port(53);
    let mut rng = ChaCha20Rng::seed_from_u64(2);
    let ns = ns_per_call(cal, 2000, |_| {
        black_box(stack.handle_packet(black_box(&pkt), SimTime::ZERO, &mut rng));
    });
    out.time("netsim.stack.udp_handle_ns", "ns", ns);
}

fn dns_layers(out: &mut Out, hit: &FarmProbe, miss: &FarmProbe, seed: u64, cal: &mut Calibration) {
    // The farm's cache-hit answer: question plus one A record, as the
    // resolver encodes it for the client.
    let mut answer = Message::query(0x4242, pool_name(7), RecordType::A);
    answer.header.is_response = true;
    answer.header.recursion_available = true;
    answer.answers = vec![a_record(7)];
    let bytes = answer.encode();
    out.time(
        "dns.message.encode_ns",
        "ns",
        ns_per_call(cal, 2000, |_| {
            black_box(black_box(&answer).encode());
        }),
    );
    out.time(
        "dns.message.decode_ns",
        "ns",
        ns_per_call(cal, 2000, |_| {
            black_box(Message::decode(black_box(&bytes)).expect("valid message"));
        }),
    );
    out.exact("dns.message.encode_allocs", "count", allocs_per_call(1000, |_| drop(answer.encode())));
    out.exact("dns.message.answer_bytes", "B", bytes.len() as f64);

    // The shared cache at each farm's final size.
    let now = SimTime::ZERO;
    let filled = |entries: u64| {
        let mut c = Cache::new();
        for i in 0..entries as usize {
            c.insert_records(&[a_record(i)], now, false);
        }
        c
    };
    let hit_entries = (hit.cache_entries as usize).max(1);
    let mut cache = filled(hit.cache_entries);
    let names: Vec<DomainName> = (0..hit_entries).map(pool_name).collect();
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let order: Vec<usize> = (0..4096).map(|_| rand::Rng::gen_range(&mut rng, 0..hit_entries)).collect();
    let ns = ns_per_call(cal, 2000, |i| {
        black_box(cache.lookup(&names[order[i % order.len()]], RecordType::A, now).expect("cached"));
    });
    out.time("dns.cache.lookup_ns", "ns", ns);
    out.exact(
        "dns.cache.lookup_allocs",
        "count",
        allocs_per_call(1000, |i| drop(cache.lookup(&names[order[i % order.len()]], RecordType::A, now))),
    );
    let base = filled(miss.cache_entries);
    let fresh: Vec<ResourceRecord> = (0..2000).map(|i| a_record(1_000_000 + i)).collect();
    let mut insert_ns = Vec::new();
    for _ in 0..15 {
        let mut c = base.clone();
        let t = Instant::now();
        for rr in &fresh {
            c.insert_records(std::slice::from_ref(rr), now, false);
        }
        insert_ns.push(t.elapsed().as_nanos() as f64 / fresh.len() as f64);
        black_box(&c);
        cal.tick();
    }
    out.time("dns.cache.insert_ns", "ns", Summary::of(&insert_ns).map_or(0.0, |s| s.median));
    let mut c = base.clone();
    out.exact(
        "dns.cache.insert_allocs",
        "count",
        allocs_per_call(fresh.len(), |i| c.insert_records(std::slice::from_ref(&fresh[i]), now, false)),
    );

    // Names, as the zone's ordered map compares them.
    let texts: Vec<String> = (0..4096).map(|i| format!("q{}.load.test", i * 7)).collect();
    out.time(
        "dns.name.parse_ns",
        "ns",
        ns_per_call(cal, 2000, |i| {
            black_box(texts[i % texts.len()].parse::<DomainName>().expect("valid"));
        }),
    );
    let parsed: Vec<DomainName> = texts.iter().map(|t| t.parse().expect("valid")).collect();
    let cmp = |i: usize| black_box(parsed[i % 4095].cmp(&parsed[i % 4095 + 1]));
    out.time("dns.name.cmp_ns", "ns", ns_per_call(cal, 5000, |i| _ = cmp(i)));
    out.exact("dns.name.cmp_allocs", "count", allocs_per_call(1000, |i| _ = cmp(i)));

    // The farm-miss zone: built as the nameserver's zone is, then queried.
    let mut build = Vec::new();
    let mut zone = load_zone(1);
    for _ in 0..3 {
        let t = Instant::now();
        zone = load_zone(FARM_MISS.names);
        build.push(t.elapsed().as_nanos() as f64 / f64::from(FARM_MISS.names));
        cal.tick();
    }
    out.time("dns.zone.insert_ns_per_record", "ns", Summary::of(&build).map_or(0.0, |s| s.median));
    let qnames: Vec<DomainName> =
        (0..4096).map(|_| pool_name(rand::Rng::gen_range(&mut rng, 0..FARM_MISS.names as usize))).collect();
    let ns = ns_per_call(cal, 1000, |i| {
        black_box(zone.lookup(&qnames[i % qnames.len()], RecordType::A));
    });
    out.time("dns.zone.lookup_ns", "ns", ns);

    // DNSSEC: sign and verify one A RRset with the zone-signing key.
    let keys = KeyManager::new(seed);
    let policy = SigningPolicy::default();
    let signer = Signer::new(&keys, &policy, "load.test".parse().expect("valid origin"));
    let rrset = vec![a_record(7)];
    let at = SimTime::from_secs(1_000);
    let rrsig = signer.sign_rrset(&rrset, at);
    let dnskey = keys.active_zsk().dnskey();
    let secs = dns::dnssec::sim_secs(at);
    assert!(rrsig_verifies(&rrsig, &rrset, &dnskey, secs), "the probe signature verifies");
    out.time(
        "dns.dnssec.sign_ns",
        "ns",
        ns_per_call(cal, 500, |_| {
            black_box(signer.sign_rrset(black_box(&rrset), at));
        }),
    );
    out.time(
        "dns.dnssec.verify_ns",
        "ns",
        ns_per_call(cal, 500, |_| {
            black_box(rrsig_verifies(black_box(&rrsig), &rrset, &dnskey, secs));
        }),
    );
}

fn scenario(out: &mut Out, seed: u64, cal: &mut Calibration) {
    let mut tr = Tracer::new(true, 0);
    let cells = matrix::prepare_all(&mut tr);
    let prepare: Vec<f64> =
        tr.spans().iter().filter(|s| s.name == "PreparedCell::new").map(|s| (s.end - s.start) as f64 / 1e6).collect();
    out.time("core.scenario.prepare_ms", "ms", Summary::of(&prepare).map_or(0.0, |s| s.median));
    cal.tick();

    let mut times: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut packets: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    let mut off = Tracer::new(false, 0);
    for pass in 0..MATRIX_PROBE_PASSES {
        let res = matrix::run_pass(&cells, crate::workload::pass_seed(seed, 1000 + pass), &mut off, cal);
        for (v, ts) in res.times {
            times.entry(v).or_default().extend(ts.iter().map(|s| s * 1e3));
        }
        for (ci, _, o) in &res.outcomes {
            let e = packets.entry(cells[*ci].vector()).or_default();
            e.0 += o.attacker_packets();
            e.1 += 1;
        }
    }
    let total: f64 = times.values().flatten().sum();
    for (v, ts) in &times {
        if *v == "ca" {
            out.time("ca.issuance.run_ms", "ms", percentile(ts, 50.0).unwrap_or(0.0));
            continue;
        }
        assert!(tail_level(ts.len()).is_some_and(|p| p >= 90.0), "{v}: {} samples do not support p90", ts.len());
        out.time(&format!("core.scenario.run_ms.{v}.p50"), "ms", percentile(ts, 50.0).unwrap_or(0.0));
        out.time(&format!("core.scenario.run_ms.{v}.p90"), "ms", percentile(ts, 90.0).unwrap_or(0.0));
    }
    for (v, (pk, n)) in &packets {
        out.exact(&format!("attacks.packets_per_sim.{v}"), "count", *pk as f64 / *n as f64);
    }
    let saddns: f64 = times.get("saddns").map_or(0.0, |t| t.iter().sum());
    out.exact("core.scenario.saddns_time_share", "ratio", saddns / total);
}

fn population(out: &mut Out, seed: u64, cal: &mut Calibration) {
    // One campaign shard of the largest dataset of each table.
    let largest = |specs: Vec<DatasetSpec>| specs.into_iter().max_by_key(|s| s.reported_size).expect("datasets");
    let r = largest(table3_datasets());
    let d = largest(table4_datasets());
    let n = SHARD_SIZE;
    let mut rng = shard_rng(seed, r.resolver_stream_salt(), 0);
    let fill_r = ns_per_call(cal, 1, |_| {
        let mut b = ResolverBlock::with_capacity(n);
        fill_resolver_block(&r, &mut rng, n, &mut b);
        black_box(b);
    });
    let mut rng = shard_rng(seed, d.domain_stream_salt(), 0);
    let fill_d = ns_per_call(cal, 1, |_| {
        let mut b = DomainBlock::with_capacity(n);
        fill_domain_block(&d, &mut rng, n, &mut b);
        black_box(b);
    });
    out.stream_time("core.population.fill_ns_per_profile.resolver", "ns", fill_r / n as f64);
    out.stream_time("core.population.fill_ns_per_profile.domain", "ns", fill_d / n as f64);

    let mut rb = ResolverBlock::with_capacity(n);
    fill_resolver_block(&r, &mut shard_rng(seed, r.resolver_stream_salt(), 1), n, &mut rb);
    let mut db = DomainBlock::with_capacity(n);
    fill_domain_block(&d, &mut shard_rng(seed, d.domain_stream_salt(), 1), n, &mut db);
    let cls_r = ns_per_call(cal, 8, |_| {
        let mut t = ResolverClassCounts::default();
        t.observe_block(black_box(&rb));
        black_box(t);
    });
    let cls_d = ns_per_call(cal, 8, |_| {
        let mut t = DomainClassCounts::default();
        t.observe_block(black_box(&db));
        black_box(t);
    });
    out.stream_time("core.measurements.classify_ns_per_profile.resolver", "ns", cls_r / n as f64);
    out.stream_time("core.measurements.classify_ns_per_profile.domain", "ns", cls_d / n as f64);
}

/// Names of every metric [`measure`] reports, in order: the per-layer
/// declaration of `BENCHMARK.json` lists these.
pub const NAMES: &[&str] = &[
    "netsim.engine.ns_per_packet",
    "netsim.engine.events_per_packet",
    "netsim.engine.pending_events",
    "dns.farm.allocs_per_query.hit",
    "dns.farm.allocs_per_query.miss",
    "dns.farm.cache_hit_ratio.hit",
    "dns.farm.cache_hit_ratio.miss",
    "netsim.wheel.push_pop_ns",
    "netsim.ipv4.encode_ns.60b",
    "netsim.ipv4.decode_ns.60b",
    "netsim.ipv4.encode_ns.1500b",
    "netsim.ipv4.decode_ns.1500b",
    "netsim.checksum.ns_per_kb",
    "netsim.frag.fragment_ns",
    "netsim.frag.reassemble_ns",
    "netsim.stack.udp_handle_ns",
    "dns.message.encode_ns",
    "dns.message.decode_ns",
    "dns.message.encode_allocs",
    "dns.message.answer_bytes",
    "dns.cache.lookup_ns",
    "dns.cache.lookup_allocs",
    "dns.cache.insert_ns",
    "dns.cache.insert_allocs",
    "dns.name.parse_ns",
    "dns.name.cmp_ns",
    "dns.name.cmp_allocs",
    "dns.zone.insert_ns_per_record",
    "dns.zone.lookup_ns",
    "dns.dnssec.sign_ns",
    "dns.dnssec.verify_ns",
    "core.scenario.prepare_ms",
    "ca.issuance.run_ms",
    "core.scenario.run_ms.dnssec.p50",
    "core.scenario.run_ms.dnssec.p90",
    "core.scenario.run_ms.fragdns.p50",
    "core.scenario.run_ms.fragdns.p90",
    "core.scenario.run_ms.hijackdns.p50",
    "core.scenario.run_ms.hijackdns.p90",
    "core.scenario.run_ms.saddns.p50",
    "core.scenario.run_ms.saddns.p90",
    "attacks.packets_per_sim.ca",
    "attacks.packets_per_sim.dnssec",
    "attacks.packets_per_sim.fragdns",
    "attacks.packets_per_sim.hijackdns",
    "attacks.packets_per_sim.saddns",
    "core.scenario.saddns_time_share",
    "core.population.fill_ns_per_profile.resolver",
    "core.population.fill_ns_per_profile.domain",
    "core.measurements.classify_ns_per_profile.resolver",
    "core.measurements.classify_ns_per_profile.domain",
];
