//! Equivalence locks for the resolver's wire-form answer path.
//!
//! A resolver reply is a header, the client's question and an answer
//! section copied from the cache entry (hit) or encoded once per finished
//! lookup (miss). These properties check that the bytes a client receives
//! are exactly the `Message::encode` of the response the resolver means:
//! the client's question verbatim (0x20 casing included) and the answer
//! records, on both paths, for random RRsets with and without RRSIGs,
//! ANY-derived entries under both caching policies and random casings.
//!
//! They also lock `DomainName`'s allocation-free `Ord` and `Hash` to the
//! lowercased `Vec<String>` reference they replace.

use cross_layer_attacks::dns::prelude::*;
use cross_layer_attacks::netsim::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash, Hasher};
use std::net::Ipv4Addr;

const RESOLVER: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);
const UPSTREAM: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 53);
const CLIENT: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 25);

/// An upstream that answers every query with its script: the echoed
/// question and header ID, then `records` in the answer section.
struct ScriptedUpstream {
    records: Vec<ResourceRecord>,
}

impl Node for ScriptedUpstream {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        let Ok(dgram) = UdpDatagram::from_packet(&pkt) else { return };
        let Ok(query) = Message::decode(&dgram.payload) else { return };
        let mut response = Message::response_for(&query);
        response.answers = self.records.clone();
        let reply = UdpDatagram::new(UPSTREAM, dgram.src, 53, dgram.src_port, response.encode());
        ctx.send(reply.into_packet(query.header.id, 64));
    }
}

/// A client host that keeps every UDP payload it receives.
#[derive(Default)]
struct Capture {
    payloads: Vec<Vec<u8>>,
}

impl Node for Capture {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if let Ok(dgram) = UdpDatagram::from_packet(&pkt) {
            self.payloads.push(dgram.payload);
        }
    }
}

fn name(s: &str) -> DomainName {
    s.parse().expect("valid name")
}

fn random_case(name: &DomainName, rng: &mut ChaCha20Rng) -> DomainName {
    let labels = name.labels().iter().map(|l| {
        l.chars().map(|c| if rng.gen::<bool>() { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() }).collect()
    });
    DomainName::from_labels(labels.collect::<Vec<String>>()).expect("same labels")
}

fn random_name(rng: &mut ChaCha20Rng) -> DomainName {
    const LABELS: [&str; 5] = ["www", "mail", "a", "ns1", "x-1"];
    let label = |rng: &mut ChaCha20Rng| LABELS[rng.gen_range(0..LABELS.len())].to_string();
    let mut labels: Vec<String> = (0..rng.gen_range(0..3)).map(|_| label(rng)).collect();
    labels.extend(["vict".to_string(), "im".to_string()]);
    DomainName::from_labels(labels).expect("valid labels")
}

const TYPES: [RecordType; 6] =
    [RecordType::A, RecordType::AAAA, RecordType::TXT, RecordType::MX, RecordType::CNAME, RecordType::NS];

fn random_rdata(rtype: RecordType, rng: &mut ChaCha20Rng) -> RData {
    match rtype {
        RecordType::A => RData::A(Ipv4Addr::from(rng.gen::<u32>())),
        RecordType::AAAA => RData::Aaaa(std::array::from_fn(|_| rng.gen())),
        RecordType::TXT => RData::Txt(format!("v=spf1 ip4:{} -all", rng.gen::<u16>())),
        RecordType::MX => RData::Mx { preference: rng.gen(), exchange: random_name(rng) },
        RecordType::CNAME => RData::Cname(random_name(rng)),
        _ => RData::Ns(random_name(rng)),
    }
}

/// A random RRset of `rtype` at `owner` (owner casing varies per record),
/// optionally followed by an RRSIG covering it.
fn random_rrset(owner: &DomainName, rtype: RecordType, rng: &mut ChaCha20Rng) -> Vec<ResourceRecord> {
    let ttl = rng.gen_range(60..86_400);
    let mut set: Vec<ResourceRecord> = (0..rng.gen_range(1..4))
        .map(|_| ResourceRecord::new(random_case(owner, rng), ttl, random_rdata(rtype, rng)))
        .collect();
    if rng.gen::<bool>() {
        let rdata = RData::Rrsig {
            type_covered: rtype,
            algorithm: 253,
            labels: owner.label_count() as u8,
            original_ttl: ttl,
            expiration: 1_000_000,
            inception: 0,
            key_tag: rng.gen(),
            signer: name("vict.im"),
            signature: (0..rng.gen_range(8..24)).map(|_| rng.gen()).collect(),
        };
        set.push(ResourceRecord::new(random_case(owner, rng), ttl, rdata));
    }
    set
}

/// The response the resolver means: RD, RA, the client's question, the
/// answer records, NXDOMAIN when there are none.
fn reference_reply(txid: u16, question: &Question, answers: Vec<ResourceRecord>) -> Vec<u8> {
    let mut response = Message::query(txid, question.name.clone(), question.qtype);
    response.header.is_response = true;
    response.header.recursion_available = true;
    if answers.is_empty() {
        response.header.rcode = Rcode::NxDomain;
    }
    response.answers = answers;
    response.encode()
}

struct Bench {
    sim: Simulator,
    resolver: NodeId,
    client: NodeId,
    upstream_records: Vec<ResourceRecord>,
    policy: AnyCachingPolicy,
}

impl Bench {
    fn new(seed: u64, policy: AnyCachingPolicy, use_0x20: bool, upstream_records: Vec<ResourceRecord>) -> Self {
        let mut config = ResolverConfig::new(RESOLVER);
        config.upstream = Some(UPSTREAM);
        config.any_caching = policy;
        config.use_0x20 = use_0x20;
        let mut sim = Simulator::new(seed);
        let resolver = sim.add_node("resolver", vec![RESOLVER], Resolver::new(config));
        let upstream = sim.add_node("upstream", vec![UPSTREAM], ScriptedUpstream { records: upstream_records.clone() });
        let client = sim.add_node("client", vec![CLIENT], Capture::default());
        sim.connect(resolver, upstream, Link::with_latency(Duration::from_millis(20)));
        sim.connect(resolver, client, Link::with_latency(Duration::from_millis(1)));
        Bench { sim, resolver, client, upstream_records, policy }
    }

    /// Sends one client query and returns the reply bytes and whether the
    /// resolver answered it from cache.
    fn ask(&mut self, question: &Question, txid: u16) -> (Vec<u8>, bool) {
        let hits_before = self.sim.node_ref::<Resolver>(self.resolver).expect("resolver").stats.cache_answers;
        let query = Message::query(txid, question.name.clone(), question.qtype).encode();
        self.sim.inject(self.client, UdpDatagram::new(CLIENT, RESOLVER, 5353, 53, query).into_packet(txid, 64));
        self.sim.run();
        let hit = self.sim.node_ref::<Resolver>(self.resolver).expect("resolver").stats.cache_answers > hits_before;
        let capture = self.sim.node_mut::<Capture>(self.client).expect("client");
        assert_eq!(capture.payloads.len(), 1, "exactly one reply per query");
        (capture.payloads.pop().expect("one reply"), hit)
    }

    /// What the reply must be: the cached set on a hit, the upstream's
    /// records filtered to the question on a miss.
    fn expected(&self, question: &Question, txid: u16, hit: bool) -> Vec<u8> {
        let answers = if hit {
            let resolver = self.sim.node_ref::<Resolver>(self.resolver).expect("resolver");
            let cache = resolver.cache();
            cache.peek(&question.name, question.qtype, self.sim.now()).expect("hit entry is cached").records.clone()
        } else {
            self.upstream_records
                .iter()
                .filter(|r| {
                    question.qtype == RecordType::ANY || r.rtype() == question.qtype || r.rtype() == RecordType::CNAME
                })
                .cloned()
                .collect()
        };
        reference_reply(txid, question, answers)
    }

    /// Whether the cache may answer `question` under the bench's policy.
    fn cache_may_answer(&self, question: &Question) -> bool {
        let resolver = self.sim.node_ref::<Resolver>(self.resolver).expect("resolver");
        let cache = resolver.cache();
        cache
            .peek(&question.name, question.qtype, self.sim.now())
            .is_some_and(|e| !e.from_any || self.policy == AnyCachingPolicy::CacheAndUse)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two client queries per case, each in a random casing: the first
    /// always misses (filling the cache from the scripted upstream), the
    /// second hits whenever the cache may answer it. Every reply equals the
    /// reference encoding byte for byte.
    #[test]
    fn replies_equal_the_reference_encoding_on_hit_and_miss(seed in any::<u64>()) {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let qname = random_name(&mut rng);
        let rtype = TYPES[rng.gen_range(0..TYPES.len())];
        // The queried RRset, another type at the same name, and an RRset at
        // another name (exercising compression of foreign owners on a miss).
        let mut records = random_rrset(&qname, rtype, &mut rng);
        let other_type = TYPES[rng.gen_range(0..TYPES.len())];
        if other_type != rtype {
            records.extend(random_rrset(&qname, other_type, &mut rng));
        }
        let other = random_name(&mut rng);
        if other != qname {
            records.extend(random_rrset(&other, TYPES[rng.gen_range(0..TYPES.len())], &mut rng));
        }
        let policy = if rng.gen::<bool>() { AnyCachingPolicy::CacheAndUse } else { AnyCachingPolicy::NotCached };
        let mut bench = Bench::new(seed, policy, rng.gen::<bool>(), records);

        let first = if rng.gen_range(0..4) == 0 { RecordType::ANY } else { rtype };
        let second = [rtype, other_type, RecordType::A][rng.gen_range(0..3usize)];
        for (i, qtype) in [first, second].into_iter().enumerate() {
            let question = Question { name: random_case(&qname, &mut rng), qtype };
            let txid: u16 = rng.gen();
            let may_hit = bench.cache_may_answer(&question);
            let (reply, hit) = bench.ask(&question, txid);
            prop_assert_eq!(hit, may_hit, "query {} hit/miss follows the cache and the ANY policy", i);
            prop_assert_eq!(reply, bench.expected(&question, txid, hit), "query {} ({:?}, hit {})", i, qtype, hit);
        }
    }
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    // A small alphabet of short labels so equal labels, shared prefixes and
    // case variants of each other are common.
    proptest::collection::vec("[aAbB_]{1,3}", 0..4).prop_map(|labels| DomainName::from_labels(labels).expect("valid"))
}

fn reference_cmp(a: &DomainName, b: &DomainName) -> Ordering {
    let lower = |n: &DomainName| n.labels().iter().map(|l| l.to_ascii_lowercase()).collect::<Vec<String>>();
    lower(a).cmp(&lower(b))
}

fn reference_hash(n: &DomainName, state: &mut impl Hasher) {
    for l in n.labels() {
        l.to_ascii_lowercase().hash(state);
    }
}

fn hash_with<B: BuildHasher>(build: &B, f: impl FnOnce(&mut B::Hasher)) -> u64 {
    let mut h = build.build_hasher();
    f(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Ord` is the lowercased `Vec<String>` order, so zone and `BTreeMap`
    /// orders are unchanged; equality agrees with it.
    #[test]
    fn name_order_is_the_lowercase_label_vector_order(a in arb_name(), b in arb_name()) {
        prop_assert_eq!(a.cmp(&b), reference_cmp(&a, &b));
        prop_assert_eq!(a == b, reference_cmp(&a, &b) == Ordering::Equal);
    }

    /// Case variants hash equal, and every hash is the one of the lowercased
    /// label strings, under both the std and the deterministic hasher.
    #[test]
    fn case_variants_hash_equal_and_hashes_are_unchanged(a in arb_name(), seed in any::<u64>()) {
        let variant = random_case(&a, &mut ChaCha20Rng::seed_from_u64(seed));
        let std = std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
        let fast = std::hash::BuildHasherDefault::<cross_layer_attacks::netsim::fasthash::FastHasher>::default();
        let new_std = hash_with(&std, |h| a.hash(h));
        prop_assert_eq!(new_std, hash_with(&std, |h| variant.hash(h)));
        prop_assert_eq!(new_std, hash_with(&std, |h| reference_hash(&a, h)));
        let new_fast = hash_with(&fast, |h| a.hash(h));
        prop_assert_eq!(new_fast, hash_with(&fast, |h| variant.hash(h)));
        prop_assert_eq!(new_fast, hash_with(&fast, |h| reference_hash(&a, h)));
    }
}
