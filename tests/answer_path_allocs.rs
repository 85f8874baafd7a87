//! Exact allocation gates on the cache-hit answer path and on packet
//! recording.
//!
//! This binary installs its own counting `#[global_allocator]` (per thread,
//! so the test harness's other threads never pollute a count) and asserts
//! that, once warm, the operations a cache hit is made of allocate nothing:
//! the cache lookup, name comparison and hashing, and writing the reply into
//! a pooled packet buffer. It also asserts that a flight recorder adds no
//! allocation to a packet exchange. Allocation counts do not depend on the
//! host, so this locks the gains exactly where a timing could only hint at
//! them.

use cross_layer_attacks::dns::message::encode_reply;
use cross_layer_attacks::dns::prelude::*;
use cross_layer_attacks::netsim::fasthash::FastHasher;
use cross_layer_attacks::netsim::pool;
use cross_layer_attacks::netsim::prelude::{FlightRecorder, Simulator, SinkNode, UdpDatagram};
use cross_layer_attacks::netsim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::hint::black_box;
use std::net::Ipv4Addr;

struct Counting;

thread_local! {
    // Const-initialised without a destructor: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping only
// touches a thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `op` on this thread.
fn allocs(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

fn name(s: &str) -> DomainName {
    s.parse().expect("valid name")
}

/// A cache shaped like the farm's: one A record per pool name.
fn farm_cache(names: usize) -> Cache {
    let mut cache = Cache::new();
    for i in 0..names {
        let rr = ResourceRecord::new(name(&format!("q{i}.load.test")), 300, RData::A(Ipv4Addr::from(i as u32)));
        cache.insert_records(&[rr], SimTime::ZERO, false);
    }
    cache
}

#[test]
fn cache_lookup_of_a_cached_name_allocates_nothing() {
    let mut cache = farm_cache(512);
    let qname = name("Q7.Load.TEST");
    assert!(cache.lookup(&qname, RecordType::A, SimTime::ZERO).is_some(), "warm-up hit");
    let n = allocs(|| {
        for _ in 0..100 {
            black_box(cache.lookup(black_box(&qname), RecordType::A, SimTime::ZERO));
        }
    });
    assert_eq!(n, 0, "Cache::lookup allocated {n} times over 100 hits");
    // Misses (absent name, absent type) build the same stack key.
    let absent = name("absent.load.test");
    let n = allocs(|| {
        black_box(cache.lookup(&absent, RecordType::A, SimTime::ZERO));
        black_box(cache.lookup_with_policy(&qname, RecordType::AAAA, SimTime::ZERO, false));
    });
    assert_eq!(n, 0, "a cache miss allocated {n} times");
}

#[test]
fn name_comparison_and_hashing_allocate_nothing() {
    let a = name("q17.Load.test");
    let b = name("Q18.load.TEST");
    let n = allocs(|| {
        for _ in 0..100 {
            black_box(black_box(&a).cmp(black_box(&b)));
            black_box(black_box(&a) == black_box(&b));
        }
    });
    assert_eq!(n, 0, "DomainName cmp/eq allocated {n} times");
    let n = allocs(|| {
        for _ in 0..100 {
            black_box(BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(&a));
            black_box(BuildHasherDefault::<FastHasher>::default().hash_one(&b));
        }
    });
    assert_eq!(n, 0, "DomainName hash allocated {n} times");
}

#[test]
fn writing_a_hit_reply_into_a_pooled_buffer_allocates_nothing() {
    let mut cache = farm_cache(64);
    let question = Question { name: name("q7.LOAD.test"), qtype: RecordType::A };
    // Warm the pool: one buffer taken and given back.
    pool::give(pool::take(512));
    let entry = cache.lookup(&question.name, RecordType::A, SimTime::ZERO).expect("cached");
    let mut reply = Vec::with_capacity(512);
    let n = allocs(|| {
        for txid in 0..100u16 {
            let mut payload = pool::take(512);
            let answers = entry.records.len() as u16;
            encode_reply(&mut payload, txid, Rcode::NoError, false, &question, answers, &entry.answer_wire);
            if txid == 99 {
                reply.extend_from_slice(&payload);
            }
            pool::give(payload);
        }
    });
    assert_eq!(n, 0, "writing 100 hit replies allocated {n} times");
    let decoded = Message::decode(&reply).expect("the reply decodes");
    assert_eq!(decoded.header.id, 99);
    assert!(decoded.question().expect("question").name.eq_case_sensitive(&question.name), "0x20 casing echoed");
    assert_eq!(decoded.answers, entry.records);
}

/// Allocations of one small UDP exchange (three DNS queries to a nameserver
/// and its answers), measured after a warm-up exchange on a fresh thread, so
/// both calls start from the same empty packet pool.
fn udp_exchange_allocs(recorder: Option<FlightRecorder>) -> u64 {
    std::thread::spawn(move || {
        let (ns_addr, client_addr) = (Ipv4Addr::new(10, 0, 0, 53), Ipv4Addr::new(10, 0, 0, 1));
        let mut zone = Zone::new(name("load.test"));
        zone.add_a("q0.load.test", Ipv4Addr::new(10, 99, 0, 0));
        let mut sim = Simulator::new(7);
        sim.add_node("ns", vec![ns_addr], Nameserver::new(NameserverConfig::new(ns_addr), vec![zone]));
        let client = sim.add_node("client", vec![client_addr], SinkNode::default());
        if let Some(rec) = recorder {
            sim.install_recorder(rec);
        }
        let exchange = |sim: &mut Simulator| {
            for id in 0..3u16 {
                let query = Message::query(id, name("q0.load.test"), RecordType::A).encode();
                sim.inject(client, UdpDatagram::new(client_addr, ns_addr, 5353, 53, query).into_packet(id, 64));
            }
            sim.run();
        };
        exchange(&mut sim);
        if let Some(rec) = sim.recorder() {
            assert!(rec.dropped() > 0, "the warm-up filled the ring");
        }
        allocs(|| exchange(&mut sim))
    })
    .join()
    .expect("exchange thread")
}

#[test]
fn recording_packets_into_a_full_ring_allocates_nothing() {
    let plain = udp_exchange_allocs(None);
    let recorded = udp_exchange_allocs(Some(FlightRecorder::new(4)));
    assert_eq!(recorded, plain, "a full recorder added {} allocations", recorded.abs_diff(plain));
}
