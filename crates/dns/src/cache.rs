//! The resolver cache — the asset every attack in the paper targets.
//!
//! A single poisoned entry here redirects *all* applications sharing the
//! resolver (Section 4.3.2, "cross-application DNS caches"), which is why the
//! cache exposes inspection helpers used throughout the workspace to decide
//! whether an attack succeeded and which applications are affected.
//!
//! The `ANY`-caching policy knob reproduces Table 5: three of the five
//! popular resolver implementations answer later `A` queries straight from a
//! cached `ANY` response, which lets an attacker poison with an inflated
//! (fragmentable) `ANY` response and still hit ordinary `A` lookups.
//!
//! # Wire-form entries
//!
//! Every [`CacheEntry`] holds its records twice: as [`ResourceRecord`]s for
//! inspection and as the answer section of a reply, encoded once at insert
//! by [`encode_answer_section`]. The wire form is valid for every later
//! question that hits the entry because:
//!
//! * records are grouped by `(owner, type)`, so every owner equals the
//!   question name and compresses to a pointer to it (`C0 0C`) whatever the
//!   question's 0x20 casing;
//! * RDATA is encoded without compression, so nothing else in the section
//!   depends on its position;
//! * cached TTLs are served as inserted, never decremented, so no byte needs
//!   patching.
//!
//! A cache-hit reply is therefore a header, the client's question and a copy
//! of [`CacheEntry::answer_wire`]. Entries are keyed by the lowercase
//! uncompressed wire name plus the type, and lookups build that key on the
//! stack: [`Cache::lookup`] allocates nothing.

use crate::message::encode_answer_section;
use crate::name::{DomainName, MAX_NAME_LEN};
use crate::rdata::{RData, RecordType, ResourceRecord};
use netsim::fasthash::FastHashMap;
use netsim::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// How a resolver caches and reuses the contents of `ANY` responses
/// (Table 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnyCachingPolicy {
    /// The records from an `ANY` response are cached and used to answer
    /// subsequent specific queries without re-querying (BIND 9.14,
    /// PowerDNS Recursor 4.3, systemd-resolved 245 — *vulnerable*).
    CacheAndUse,
    /// `ANY` responses are forwarded to the client but their contents are not
    /// used for subsequent specific queries (dnsmasq 2.79).
    NotCached,
    /// The resolver refuses/does not support `ANY` queries at all
    /// (Unbound 1.9).
    Unsupported,
}

/// One cached record set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The cached records.
    pub records: Vec<ResourceRecord>,
    /// `records` as the answer section of a reply to a question for their
    /// owner name (see the [module docs](self)).
    pub answer_wire: Box<[u8]>,
    /// Absolute expiry time.
    pub expires: SimTime,
    /// When the entry was inserted.
    pub inserted: SimTime,
    /// Whether the entry was inserted from an `ANY` response.
    pub from_any: bool,
}

/// Longest cache key: a maximal wire name plus the two type bytes.
const MAX_KEY_LEN: usize = MAX_NAME_LEN + 2;

/// Calls `f` with the cache key of `(name, rtype)`: the lowercase
/// uncompressed wire name, then the type in network order, built in a stack
/// buffer (a name's wire form never exceeds [`MAX_NAME_LEN`]).
fn with_key<R>(name: &DomainName, rtype: RecordType, f: impl FnOnce(&[u8]) -> R) -> R {
    let mut key = [0u8; MAX_KEY_LEN];
    let mut len = 0;
    for label in name.labels() {
        key[len] = label.len() as u8;
        let lower = &mut key[len + 1..len + 1 + label.len()];
        lower.copy_from_slice(label.as_bytes());
        lower.make_ascii_lowercase();
        len += 1 + label.len();
    }
    key[len] = 0;
    key[len + 1..len + 3].copy_from_slice(&rtype.number().to_be_bytes());
    f(&key[..len + 3])
}

/// A positive-only resolver cache keyed by `(name, type)`.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    entries: FastHashMap<Box<[u8]>, CacheEntry>,
    /// Total number of insertions (metrics).
    pub insertions: u64,
    /// Total number of cache hits (metrics).
    pub hits: u64,
    /// Total number of cache misses (metrics).
    pub misses: u64,
    /// Misses caused by an entry that was present but past its expiry
    /// (a subset of `misses`).
    pub expired: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Cache::default()
    }

    /// Inserts records grouped by `(owner name, type)` with their TTLs.
    ///
    /// `from_any` marks entries that came from an `ANY` response so the
    /// ANY-caching policy can decide whether later specific queries may use
    /// them.
    pub fn insert_records(&mut self, records: &[ResourceRecord], now: SimTime, from_any: bool) {
        let mut grouped: FastHashMap<Box<[u8]>, Vec<ResourceRecord>> = FastHashMap::default();
        for rr in records {
            // RRSIGs ride along with the set they cover.
            let key: Box<[u8]> = with_key(&rr.name, rr.rdata.covered_type(), |key| key.into());
            grouped.entry(key).or_default().push(rr.clone());
        }
        for (key, set) in grouped {
            let min_ttl = set.iter().map(|r| r.ttl).min().unwrap_or(0);
            let mut expires = now + Duration::from_secs(u64::from(min_ttl));
            // RFC 4035 §5.3.3: a signed set must not be served past its
            // signature's expiration, whatever the record TTLs claim.
            for rr in &set {
                if let RData::Rrsig { expiration, .. } = &rr.rdata {
                    let sig_expires = SimTime::from_secs(u64::from(*expiration));
                    if sig_expires < expires {
                        expires = sig_expires;
                    }
                }
            }
            let answer_wire = encode_answer_section(&set[0].name, &set).into_boxed_slice();
            let entry = CacheEntry { records: set, answer_wire, expires, inserted: now, from_any };
            self.entries.insert(key, entry);
            self.insertions += 1;
        }
    }

    /// Looks up a record set. `allow_any_derived` controls whether entries
    /// that were inserted from an `ANY` response may satisfy the lookup.
    pub fn lookup_with_policy(
        &mut self,
        name: &DomainName,
        rtype: RecordType,
        now: SimTime,
        allow_any_derived: bool,
    ) -> Option<&CacheEntry> {
        match with_key(name, rtype, |key| self.entries.get(key)) {
            Some(entry) if entry.expires > now && (allow_any_derived || !entry.from_any) => {
                self.hits += 1;
                Some(entry)
            }
            Some(entry) if entry.expires <= now => {
                self.expired += 1;
                self.misses += 1;
                None
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a record set, allowing ANY-derived entries (the common case).
    pub fn lookup(&mut self, name: &DomainName, rtype: RecordType, now: SimTime) -> Option<&CacheEntry> {
        self.lookup_with_policy(name, rtype, now, true)
    }

    /// Non-mutating peek that ignores hit/miss accounting.
    pub fn peek(&self, name: &DomainName, rtype: RecordType, now: SimTime) -> Option<&CacheEntry> {
        with_key(name, rtype, |key| self.entries.get(key)).filter(|e| e.expires > now)
    }

    /// Convenience used everywhere in the attack evaluations: the first `A`
    /// address cached for `name`, if any.
    pub fn cached_a(&self, name: &DomainName, now: SimTime) -> Option<Ipv4Addr> {
        self.peek(name, RecordType::A, now).and_then(|e| e.records.iter().find_map(|r| r.rdata.as_ipv4()))
    }

    /// Whether the cache currently maps `name`'s `A` record to `addr` — the
    /// "is the cache poisoned with the attacker's address?" check.
    pub fn is_poisoned_with(&self, name: &DomainName, addr: Ipv4Addr, now: SimTime) -> bool {
        self.cached_a(name, now) == Some(addr)
    }

    /// Removes expired entries.
    pub fn evict_expired(&mut self, now: SimTime) {
        self.entries.retain(|_, e| e.expires > now);
    }

    /// Removes everything (the operator's "flush the cache" remediation).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of live entries at `now`.
    pub fn len_at(&self, now: SimTime) -> usize {
        self.entries.values().filter(|e| e.expires > now).count()
    }

    /// Total number of entries including expired ones not yet evicted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all entries (measurement tooling: "which applications'
    /// well-known domains are present in this cache?", Section 4.3.2).
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.values()
    }
}

/// A cache handle shareable between several resolvers.
///
/// This models an anycast resolver fleet (or a multi-process resolver with a
/// shared memory cache): every frontend answers from — and poisons — the same
/// store, which is exactly the blast-radius multiplier studied by
/// `core::anycache`. Cloning the handle is cheap and aliases the same cache.
///
/// Single-threaded by design (`Rc<RefCell<_>>`): a simulation runs on one
/// thread, and campaign workers each build their own simulations.
#[derive(Debug, Clone, Default)]
pub struct SharedCache(std::rc::Rc<std::cell::RefCell<Cache>>);

impl SharedCache {
    /// Creates a handle to a fresh empty cache.
    pub fn new() -> Self {
        SharedCache::default()
    }

    /// Shared read access. Panics if a mutable borrow is live (callbacks
    /// never hold borrows across resolver re-entry, so this cannot happen in
    /// simulation code).
    pub fn borrow(&self) -> std::cell::Ref<'_, Cache> {
        self.0.borrow()
    }

    /// Exclusive access through the shared handle.
    pub fn borrow_mut(&self) -> std::cell::RefMut<'_, Cache> {
        self.0.borrow_mut()
    }

    /// Number of frontends sharing this cache (including this handle).
    pub fn handles(&self) -> usize {
        std::rc::Rc::strong_count(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn a(name: &str, ttl: u32, addr: &str) -> ResourceRecord {
        ResourceRecord::new(n(name), ttl, RData::A(addr.parse().unwrap()))
    }

    #[test]
    fn shared_cache_aliases_one_store() {
        let h1 = SharedCache::new();
        let h2 = h1.clone();
        assert_eq!(h1.handles(), 2);
        h1.borrow_mut().insert_records(&[a("vict.im", 300, "30.0.0.25")], SimTime::ZERO, false);
        // The sibling handle sees the insertion: one store, two frontends.
        assert_eq!(h2.borrow().cached_a(&n("vict.im"), SimTime::ZERO), Some("30.0.0.25".parse().unwrap()));
        h2.borrow_mut().flush();
        assert!(h1.borrow().is_empty());
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 300, "30.0.0.25")], SimTime::ZERO, false);
        let got = c.lookup(&n("vict.im"), RecordType::A, SimTime::ZERO).unwrap();
        assert_eq!(got.records.len(), 1);
        assert_eq!(c.hits, 1);
        assert_eq!(c.cached_a(&n("vict.im"), SimTime::ZERO), Some("30.0.0.25".parse().unwrap()));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut c = Cache::new();
        c.insert_records(&[a("VICT.IM", 300, "30.0.0.25")], SimTime::ZERO, false);
        assert!(c.lookup(&n("vict.im"), RecordType::A, SimTime::ZERO).is_some());
    }

    #[test]
    fn entries_hold_their_answer_section_in_wire_form() {
        let mut c = Cache::new();
        c.insert_records(&[a("Vict.IM", 300, "30.0.0.25"), a("vict.im", 60, "30.0.0.26")], SimTime::ZERO, false);
        let entry = c.lookup(&n("VICT.im"), RecordType::A, SimTime::ZERO).unwrap();
        let rr = |ttl: u32, last: u8| {
            // Owner pointer to the question, type A, class IN, TTL, RDLENGTH 4.
            let mut w = vec![0xC0, 0x0C, 0, 1, 0, 1];
            w.extend_from_slice(&ttl.to_be_bytes());
            w.extend_from_slice(&[0, 4, 30, 0, 0, last]);
            w
        };
        let expected = [rr(300, 25), rr(60, 26)].concat();
        assert_eq!(&*entry.answer_wire, &expected[..]);
    }

    #[test]
    fn ttl_expiry() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 60, "30.0.0.25")], SimTime::ZERO, false);
        let before = SimTime::ZERO + Duration::from_secs(59);
        let after = SimTime::ZERO + Duration::from_secs(61);
        assert!(c.lookup(&n("vict.im"), RecordType::A, before).is_some());
        assert!(c.lookup(&n("vict.im"), RecordType::A, after).is_none());
        assert_eq!(c.expired, 1, "the stale entry counts as an expired miss");
        assert_eq!(c.misses, 1);
        assert!(c.lookup(&n("other.example"), RecordType::A, after).is_none());
        assert_eq!(c.expired, 1, "a plain absent-key miss is not an expired miss");
        assert_eq!(c.misses, 2);
        assert_eq!(c.len_at(after), 0);
        c.evict_expired(after);
        assert!(c.is_empty());
    }

    #[test]
    fn poisoning_check() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 300, "6.6.6.6")], SimTime::ZERO, false);
        assert!(c.is_poisoned_with(&n("vict.im"), "6.6.6.6".parse().unwrap(), SimTime::ZERO));
        assert!(!c.is_poisoned_with(&n("vict.im"), "30.0.0.25".parse().unwrap(), SimTime::ZERO));
    }

    #[test]
    fn later_insert_overwrites() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 300, "30.0.0.25")], SimTime::ZERO, false);
        c.insert_records(&[a("vict.im", 300, "6.6.6.6")], SimTime::ZERO, false);
        assert_eq!(c.cached_a(&n("vict.im"), SimTime::ZERO), Some("6.6.6.6".parse().unwrap()));
        assert_eq!(c.insertions, 2);
    }

    #[test]
    fn any_derived_entries_respect_policy() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 300, "6.6.6.6")], SimTime::ZERO, true);
        // Policy CacheAndUse: hit.
        assert!(c.lookup_with_policy(&n("vict.im"), RecordType::A, SimTime::ZERO, true).is_some());
        // Policy NotCached: the ANY-derived entry may not answer an A query.
        assert!(c.lookup_with_policy(&n("vict.im"), RecordType::A, SimTime::ZERO, false).is_none());
    }

    #[test]
    fn different_types_are_distinct() {
        let mut c = Cache::new();
        c.insert_records(
            &[a("vict.im", 300, "30.0.0.25"), ResourceRecord::new(n("vict.im"), 300, RData::Txt("v=spf1 -all".into()))],
            SimTime::ZERO,
            false,
        );
        assert!(c.lookup(&n("vict.im"), RecordType::A, SimTime::ZERO).is_some());
        assert!(c.lookup(&n("vict.im"), RecordType::TXT, SimTime::ZERO).is_some());
        assert!(c.lookup(&n("vict.im"), RecordType::MX, SimTime::ZERO).is_none());
        assert_eq!(c.len(), 2);
    }

    fn rrsig(covered: RecordType, expiration: u32) -> ResourceRecord {
        ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Rrsig {
                type_covered: covered,
                algorithm: crate::dnssec::SIM_ALGORITHM,
                labels: 2,
                original_ttl: 300,
                expiration,
                inception: 0,
                key_tag: 1,
                signer: n("vict.im"),
                signature: vec![0; 16],
            },
        )
    }

    #[test]
    fn rrsig_files_under_covered_type() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 300, "30.0.0.25"), rrsig(RecordType::A, 900)], SimTime::ZERO, false);
        let set = c.lookup(&n("vict.im"), RecordType::A, SimTime::ZERO).unwrap();
        assert_eq!(set.records.len(), 2, "A record and its RRSIG cached together");
    }

    #[test]
    fn signature_expiration_caps_the_entry_ttl() {
        let mut c = Cache::new();
        // The record's TTL says 300s, but its signature dies at t=60s: the
        // cache must not serve the set past the signature window.
        c.insert_records(&[a("vict.im", 300, "30.0.0.25"), rrsig(RecordType::A, 60)], SimTime::ZERO, false);
        assert!(c.lookup(&n("vict.im"), RecordType::A, SimTime::from_secs(59)).is_some());
        assert!(c.lookup(&n("vict.im"), RecordType::A, SimTime::from_secs(61)).is_none());
        // A far-future expiration leaves the TTL alone.
        c.insert_records(&[a("vict.im", 300, "30.0.0.25"), rrsig(RecordType::A, 1_000_000)], SimTime::ZERO, false);
        assert!(c.lookup(&n("vict.im"), RecordType::A, SimTime::from_secs(299)).is_some());
        assert!(c.lookup(&n("vict.im"), RecordType::A, SimTime::from_secs(301)).is_none());
    }

    #[test]
    fn minimum_ttl_of_set_is_used() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 10, "30.0.0.25"), a("vict.im", 300, "30.0.0.26")], SimTime::ZERO, false);
        let after = SimTime::ZERO + Duration::from_secs(11);
        assert!(c.lookup(&n("vict.im"), RecordType::A, after).is_none());
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = Cache::new();
        c.insert_records(&[a("vict.im", 300, "30.0.0.25")], SimTime::ZERO, false);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }
}
