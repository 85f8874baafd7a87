//! Resource record types and RDATA encoding.
//!
//! The record types implemented here are exactly those Table 1 of the paper
//! lists as attack vectors: `A` (address hijack), `NS` (application-agnostic
//! cache poisoning), `CNAME` (used by the FragDNS vulnerability probe), `MX`
//! (email interception and bounce-triggered queries), `TXT` (SPF / DKIM /
//! DMARC downgrade), `SRV` and `NAPTR` (XMPP and Radius/eduroam peer
//! discovery), `IPSECKEY` (opportunistic IPsec hijack), plus `SOA`, `OPT`
//! (EDNS buffer sizes, Figure 4) and the `ANY` query type used to inflate
//! response sizes past the fragmentation threshold.

use crate::name::{DomainName, NameError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// DNS record/query types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordType {
    /// IPv4 address record.
    A,
    /// Authoritative nameserver.
    NS,
    /// Canonical name (alias).
    CNAME,
    /// Start of authority.
    SOA,
    /// Mail exchanger.
    MX,
    /// Free-form text (SPF/DKIM/DMARC policies).
    TXT,
    /// IPv6 address record (carried as opaque 16 bytes).
    AAAA,
    /// Service locator (XMPP, SIP, ...).
    SRV,
    /// Naming authority pointer (Radius/eduroam dynamic discovery).
    NAPTR,
    /// IPsec keying material for opportunistic encryption.
    IPSECKEY,
    /// EDNS(0) pseudo-record.
    OPT,
    /// DNSSEC: delegation signer digest, the parent-side link of the chain
    /// of trust (RFC 4034 §5).
    DS,
    /// DNSSEC: zone signing key (RFC 4034 §2).
    DNSKEY,
    /// DNSSEC: signature over a canonical RRset (RFC 4034 §3).
    RRSIG,
    /// DNSSEC: authenticated denial of existence (RFC 4034 §4).
    NSEC,
    /// DNSSEC: hashed authenticated denial of existence (RFC 5155).
    NSEC3,
    /// Query-only meta type matching every record at a name.
    ANY,
    /// Any other type, carried by its numeric value.
    Unknown(u16),
}

impl RecordType {
    /// Wire value of the type.
    pub fn number(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::NS => 2,
            RecordType::CNAME => 5,
            RecordType::SOA => 6,
            RecordType::MX => 15,
            RecordType::TXT => 16,
            RecordType::AAAA => 28,
            RecordType::SRV => 33,
            RecordType::NAPTR => 35,
            RecordType::OPT => 41,
            RecordType::DS => 43,
            RecordType::IPSECKEY => 45,
            RecordType::RRSIG => 46,
            RecordType::NSEC => 47,
            RecordType::DNSKEY => 48,
            RecordType::NSEC3 => 50,
            RecordType::ANY => 255,
            RecordType::Unknown(n) => n,
        }
    }

    /// Parses a wire type value.
    pub fn from_number(n: u16) -> Self {
        match n {
            1 => RecordType::A,
            2 => RecordType::NS,
            5 => RecordType::CNAME,
            6 => RecordType::SOA,
            15 => RecordType::MX,
            16 => RecordType::TXT,
            28 => RecordType::AAAA,
            33 => RecordType::SRV,
            35 => RecordType::NAPTR,
            41 => RecordType::OPT,
            43 => RecordType::DS,
            45 => RecordType::IPSECKEY,
            46 => RecordType::RRSIG,
            47 => RecordType::NSEC,
            48 => RecordType::DNSKEY,
            50 => RecordType::NSEC3,
            255 => RecordType::ANY,
            other => RecordType::Unknown(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::Unknown(n) => write!(f, "TYPE{n}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// Record data, one variant per supported type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Nameserver host name.
    Ns(DomainName),
    /// Alias target.
    Cname(DomainName),
    /// Start of authority.
    Soa {
        /// Primary nameserver.
        mname: DomainName,
        /// Responsible mailbox.
        rname: DomainName,
        /// Zone serial number.
        serial: u32,
        /// Refresh interval (seconds).
        refresh: u32,
        /// Retry interval (seconds).
        retry: u32,
        /// Expire interval (seconds).
        expire: u32,
        /// Negative-caching TTL (seconds).
        minimum: u32,
    },
    /// Mail exchanger.
    Mx {
        /// Preference (lower is preferred).
        preference: u16,
        /// Mail server host name.
        exchange: DomainName,
    },
    /// Text record (one or more character strings, joined).
    Txt(String),
    /// IPv6 address (opaque 16 bytes).
    Aaaa([u8; 16]),
    /// Service record.
    Srv {
        /// Priority (lower is preferred).
        priority: u16,
        /// Weight for equal-priority selection.
        weight: u16,
        /// Service port.
        port: u16,
        /// Target host name.
        target: DomainName,
    },
    /// Naming authority pointer.
    Naptr {
        /// Order.
        order: u16,
        /// Preference.
        preference: u16,
        /// Flags string.
        flags: String,
        /// Service string (e.g. "aaa+auth:radius.tls.tcp").
        service: String,
        /// Regexp string.
        regexp: String,
        /// Replacement domain.
        replacement: DomainName,
    },
    /// IPsec key (simplified: gateway plus opaque key bytes).
    IpsecKey {
        /// Gateway precedence.
        precedence: u8,
        /// Gateway address.
        gateway: Ipv4Addr,
        /// Public key bytes.
        public_key: Vec<u8>,
    },
    /// DNSSEC zone key (RFC 4034 §2). The `public_key` bytes are the keyed-
    /// hash verification key of the simulation's crypto stand-in.
    Dnskey {
        /// Key flags: 256 = zone key (ZSK), 257 = zone key + SEP bit (KSK).
        flags: u16,
        /// Signing algorithm number (the simulation uses 253, PRIVATEDNS).
        algorithm: u8,
        /// Verification key bytes.
        public_key: Vec<u8>,
    },
    /// Delegation signer (RFC 4034 §5): a digest of the child zone's KSK,
    /// published at the parent. Resolver trust anchors are DS records.
    Ds {
        /// Key tag of the DNSKEY this digest commits to.
        key_tag: u16,
        /// Signing algorithm of that key.
        algorithm: u8,
        /// Digest algorithm number.
        digest_type: u8,
        /// The digest bytes.
        digest: Vec<u8>,
    },
    /// DNSSEC signature over one canonical RRset (RFC 4034 §3).
    Rrsig {
        /// The record type this signature covers.
        type_covered: RecordType,
        /// Signing algorithm number.
        algorithm: u8,
        /// Label count of the owner name (no wildcard expansion modelled).
        labels: u8,
        /// Original TTL of the covered RRset (part of the signed data).
        original_ttl: u32,
        /// Expiration of the signature, in seconds of simulation time.
        expiration: u32,
        /// Inception of the signature, in seconds of simulation time.
        inception: u32,
        /// Key tag of the DNSKEY that produced the signature.
        key_tag: u16,
        /// The zone that produced the signature.
        signer: DomainName,
        /// The signature bytes (keyed hash over the canonical RRset).
        signature: Vec<u8>,
    },
    /// Authenticated denial of existence (RFC 4034 §4): the next owner name
    /// in canonical zone order and the types present at this owner.
    Nsec {
        /// Next owner name in the canonical chain (wraps to the apex).
        next: DomainName,
        /// Types present at this owner name.
        types: Vec<RecordType>,
    },
    /// Hashed authenticated denial of existence (RFC 5155).
    Nsec3 {
        /// Hash algorithm number.
        hash_algorithm: u8,
        /// Flags; bit 0 is opt-out (spans may cover unsigned delegations).
        flags: u8,
        /// Extra hash iterations.
        iterations: u16,
        /// Hash salt.
        salt: Vec<u8>,
        /// Next hashed owner in hash order (wraps around).
        next_hashed: Vec<u8>,
        /// Types present at the owner this hash commits to.
        types: Vec<RecordType>,
    },
    /// EDNS(0) OPT pseudo-record payload: requestor's UDP payload size.
    Opt {
        /// Advertised maximum UDP payload size.
        udp_payload_size: u16,
    },
    /// Unknown type: raw RDATA bytes.
    Raw(Vec<u8>),
}

impl RData {
    /// The record type this data belongs to.
    pub fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Ns(_) => RecordType::NS,
            RData::Cname(_) => RecordType::CNAME,
            RData::Soa { .. } => RecordType::SOA,
            RData::Mx { .. } => RecordType::MX,
            RData::Txt(_) => RecordType::TXT,
            RData::Aaaa(_) => RecordType::AAAA,
            RData::Srv { .. } => RecordType::SRV,
            RData::Naptr { .. } => RecordType::NAPTR,
            RData::IpsecKey { .. } => RecordType::IPSECKEY,
            RData::Dnskey { .. } => RecordType::DNSKEY,
            RData::Ds { .. } => RecordType::DS,
            RData::Rrsig { .. } => RecordType::RRSIG,
            RData::Nsec { .. } => RecordType::NSEC,
            RData::Nsec3 { .. } => RecordType::NSEC3,
            RData::Opt { .. } => RecordType::OPT,
            RData::Raw(_) => RecordType::Unknown(0),
        }
    }

    /// Encodes the RDATA (without the length prefix). Name compression is
    /// deliberately *not* used inside RDATA so record sizes are predictable —
    /// which also matches the "randomise/minimise responses" discussion.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RData::A(addr) => buf.extend_from_slice(&addr.octets()),
            RData::Ns(name) | RData::Cname(name) => name.encode(buf, None),
            RData::Soa { mname, rname, serial, refresh, retry, expire, minimum } => {
                mname.encode(buf, None);
                rname.encode(buf, None);
                for v in [serial, refresh, retry, expire, minimum] {
                    buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            RData::Mx { preference, exchange } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode(buf, None);
            }
            RData::Txt(text) => {
                // Split into 255-byte character strings.
                let bytes = text.as_bytes();
                if bytes.is_empty() {
                    buf.push(0);
                }
                for chunk in bytes.chunks(255) {
                    buf.push(chunk.len() as u8);
                    buf.extend_from_slice(chunk);
                }
            }
            RData::Aaaa(bytes) => buf.extend_from_slice(bytes),
            RData::Srv { priority, weight, port, target } => {
                buf.extend_from_slice(&priority.to_be_bytes());
                buf.extend_from_slice(&weight.to_be_bytes());
                buf.extend_from_slice(&port.to_be_bytes());
                target.encode(buf, None);
            }
            RData::Naptr { order, preference, flags, service, regexp, replacement } => {
                buf.extend_from_slice(&order.to_be_bytes());
                buf.extend_from_slice(&preference.to_be_bytes());
                for s in [flags, service, regexp] {
                    buf.push(s.len() as u8);
                    buf.extend_from_slice(s.as_bytes());
                }
                replacement.encode(buf, None);
            }
            RData::IpsecKey { precedence, gateway, public_key } => {
                buf.push(*precedence);
                buf.push(1); // gateway type: IPv4
                buf.push(2); // algorithm: RSA (nominal)
                buf.extend_from_slice(&gateway.octets());
                buf.extend_from_slice(public_key);
            }
            RData::Dnskey { flags, algorithm, public_key } => {
                buf.extend_from_slice(&flags.to_be_bytes());
                buf.push(3); // protocol: always 3 (RFC 4034 §2.1.2)
                buf.push(*algorithm);
                buf.extend_from_slice(public_key);
            }
            RData::Ds { key_tag, algorithm, digest_type, digest } => {
                buf.extend_from_slice(&key_tag.to_be_bytes());
                buf.push(*algorithm);
                buf.push(*digest_type);
                buf.extend_from_slice(digest);
            }
            RData::Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer,
                signature,
            } => {
                buf.extend_from_slice(&type_covered.number().to_be_bytes());
                buf.push(*algorithm);
                buf.push(*labels);
                buf.extend_from_slice(&original_ttl.to_be_bytes());
                buf.extend_from_slice(&expiration.to_be_bytes());
                buf.extend_from_slice(&inception.to_be_bytes());
                buf.extend_from_slice(&key_tag.to_be_bytes());
                signer.encode(buf, None);
                buf.extend_from_slice(signature);
            }
            RData::Nsec { next, types } => {
                next.encode(buf, None);
                encode_type_bitmap(types, buf);
            }
            RData::Nsec3 { hash_algorithm, flags, iterations, salt, next_hashed, types } => {
                buf.push(*hash_algorithm);
                buf.push(*flags);
                buf.extend_from_slice(&iterations.to_be_bytes());
                buf.push(salt.len() as u8);
                buf.extend_from_slice(salt);
                buf.push(next_hashed.len() as u8);
                buf.extend_from_slice(next_hashed);
                encode_type_bitmap(types, buf);
            }
            RData::Opt { udp_payload_size } => {
                // OPT carries its payload size in the CLASS field; the RDATA
                // itself is empty in our model. Encode the size here only so
                // raw storage round-trips.
                buf.extend_from_slice(&udp_payload_size.to_be_bytes());
            }
            RData::Raw(bytes) => buf.extend_from_slice(bytes),
        }
    }

    /// Decodes RDATA of the given type from `msg[offset..offset+len]`.
    ///
    /// Every read is confined to the claimed RDLENGTH window: names and
    /// strings inside RDATA may *point* backwards (compression) but their
    /// inline bytes must lie within `offset..offset+len`, and for typed
    /// records the content must fill the window exactly. A record whose
    /// RDLENGTH disagrees with its content is rejected instead of silently
    /// reading its neighbours' bytes and resyncing — two parsers must never
    /// disagree about where a record ends.
    /// Regression (fuzz: dns_rr/rdlen_escape.bin, dns_rr/rdlen_slack.bin).
    pub fn decode(rtype: RecordType, msg: &[u8], offset: usize, len: usize) -> Result<RData, NameError> {
        let end = offset.checked_add(len).ok_or(NameError::Truncated)?;
        let slice = msg.get(offset..end).ok_or(NameError::Truncated)?;
        // Names inside RDATA decode against the message clipped at the
        // window's end: backward compression pointers still resolve, but
        // inline labels cannot escape the RDLENGTH.
        let view = &msg[..end];
        let (out, consumed) = match rtype {
            RecordType::A => {
                if slice.len() < 4 {
                    return Err(NameError::Truncated);
                }
                (RData::A(Ipv4Addr::new(slice[0], slice[1], slice[2], slice[3])), 4)
            }
            RecordType::NS => {
                let (name, pos) = DomainName::decode(view, offset)?;
                (RData::Ns(name), pos - offset)
            }
            RecordType::CNAME => {
                let (name, pos) = DomainName::decode(view, offset)?;
                (RData::Cname(name), pos - offset)
            }
            RecordType::SOA => {
                let (mname, pos) = DomainName::decode(view, offset)?;
                let (rname, pos) = DomainName::decode(view, pos)?;
                let ints = view.get(pos..pos + 20).ok_or(NameError::Truncated)?;
                let g = |i: usize| u32::from_be_bytes([ints[i], ints[i + 1], ints[i + 2], ints[i + 3]]);
                (
                    RData::Soa {
                        mname,
                        rname,
                        serial: g(0),
                        refresh: g(4),
                        retry: g(8),
                        expire: g(12),
                        minimum: g(16),
                    },
                    pos + 20 - offset,
                )
            }
            RecordType::MX => {
                if slice.len() < 2 {
                    return Err(NameError::Truncated);
                }
                let preference = u16::from_be_bytes([slice[0], slice[1]]);
                let (exchange, pos) = DomainName::decode(view, offset + 2)?;
                (RData::Mx { preference, exchange }, pos - offset)
            }
            RecordType::TXT => {
                let mut text = String::new();
                let mut pos = 0usize;
                while pos < slice.len() {
                    let l = slice[pos] as usize;
                    let chunk = slice.get(pos + 1..pos + 1 + l).ok_or(NameError::Truncated)?;
                    text.push_str(&String::from_utf8_lossy(chunk));
                    pos += 1 + l;
                }
                (RData::Txt(text), pos)
            }
            RecordType::AAAA => {
                let bytes: [u8; 16] = slice.try_into().map_err(|_| NameError::Truncated)?;
                (RData::Aaaa(bytes), 16)
            }
            RecordType::SRV => {
                if slice.len() < 6 {
                    return Err(NameError::Truncated);
                }
                let priority = u16::from_be_bytes([slice[0], slice[1]]);
                let weight = u16::from_be_bytes([slice[2], slice[3]]);
                let port = u16::from_be_bytes([slice[4], slice[5]]);
                let (target, pos) = DomainName::decode(view, offset + 6)?;
                (RData::Srv { priority, weight, port, target }, pos - offset)
            }
            RecordType::NAPTR => {
                if slice.len() < 4 {
                    return Err(NameError::Truncated);
                }
                let order = u16::from_be_bytes([slice[0], slice[1]]);
                let preference = u16::from_be_bytes([slice[2], slice[3]]);
                let mut pos = offset + 4;
                let mut strings = Vec::new();
                for _ in 0..3 {
                    let l = *view.get(pos).ok_or(NameError::Truncated)? as usize;
                    let s = view.get(pos + 1..pos + 1 + l).ok_or(NameError::Truncated)?;
                    strings.push(String::from_utf8_lossy(s).to_string());
                    pos += 1 + l;
                }
                let (replacement, pos) = DomainName::decode(view, pos)?;
                (
                    RData::Naptr {
                        order,
                        preference,
                        flags: strings[0].clone(),
                        service: strings[1].clone(),
                        regexp: strings[2].clone(),
                        replacement,
                    },
                    pos - offset,
                )
            }
            RecordType::IPSECKEY => {
                if slice.len() < 7 {
                    return Err(NameError::Truncated);
                }
                let precedence = slice[0];
                let gateway = Ipv4Addr::new(slice[3], slice[4], slice[5], slice[6]);
                (RData::IpsecKey { precedence, gateway, public_key: slice[7..].to_vec() }, slice.len())
            }
            RecordType::DNSKEY => {
                if slice.len() < 4 {
                    return Err(NameError::Truncated);
                }
                let flags = u16::from_be_bytes([slice[0], slice[1]]);
                // slice[2] is the protocol octet; RFC 4034 fixes it at 3 and
                // the canonical encoder always writes 3.
                let algorithm = slice[3];
                (RData::Dnskey { flags, algorithm, public_key: slice[4..].to_vec() }, slice.len())
            }
            RecordType::DS => {
                if slice.len() < 4 {
                    return Err(NameError::Truncated);
                }
                let key_tag = u16::from_be_bytes([slice[0], slice[1]]);
                (
                    RData::Ds { key_tag, algorithm: slice[2], digest_type: slice[3], digest: slice[4..].to_vec() },
                    slice.len(),
                )
            }
            RecordType::RRSIG => {
                if slice.len() < 18 {
                    return Err(NameError::Truncated);
                }
                let type_covered = RecordType::from_number(u16::from_be_bytes([slice[0], slice[1]]));
                let g = |i: usize| u32::from_be_bytes([slice[i], slice[i + 1], slice[i + 2], slice[i + 3]]);
                let (signer, pos) = DomainName::decode(view, offset + 18)?;
                (
                    RData::Rrsig {
                        type_covered,
                        algorithm: slice[2],
                        labels: slice[3],
                        original_ttl: g(4),
                        expiration: g(8),
                        inception: g(12),
                        key_tag: u16::from_be_bytes([slice[16], slice[17]]),
                        signer,
                        signature: view[pos..end].to_vec(),
                    },
                    end - offset,
                )
            }
            RecordType::NSEC => {
                let (next, pos) = DomainName::decode(view, offset)?;
                let types = decode_type_bitmap(&view[pos..end])?;
                (RData::Nsec { next, types }, end - offset)
            }
            RecordType::NSEC3 => {
                if slice.len() < 5 {
                    return Err(NameError::Truncated);
                }
                let salt_len = slice[4] as usize;
                let salt = slice.get(5..5 + salt_len).ok_or(NameError::Truncated)?.to_vec();
                let hash_pos = 5 + salt_len;
                let hash_len = *slice.get(hash_pos).ok_or(NameError::Truncated)? as usize;
                let next_hashed =
                    slice.get(hash_pos + 1..hash_pos + 1 + hash_len).ok_or(NameError::Truncated)?.to_vec();
                let types = decode_type_bitmap(&slice[hash_pos + 1 + hash_len..])?;
                (
                    RData::Nsec3 {
                        hash_algorithm: slice[0],
                        flags: slice[1],
                        iterations: u16::from_be_bytes([slice[2], slice[3]]),
                        salt,
                        next_hashed,
                        types,
                    },
                    slice.len(),
                )
            }
            RecordType::OPT => {
                let size = if slice.len() >= 2 { u16::from_be_bytes([slice[0], slice[1]]) } else { 512 };
                (RData::Opt { udp_payload_size: size }, slice.len())
            }
            _ => (RData::Raw(slice.to_vec()), slice.len()),
        };
        if consumed != len {
            return Err(NameError::RdataLengthMismatch);
        }
        Ok(out)
    }

    /// For an RRSIG, the type it covers; otherwise the record's own type.
    /// This is the key the cache files records under, so signatures travel
    /// with the RRset they authenticate.
    pub fn covered_type(&self) -> RecordType {
        match self {
            RData::Rrsig { type_covered, .. } => *type_covered,
            other => other.record_type(),
        }
    }

    /// The IPv4 address carried by this record, when it has one.
    pub fn as_ipv4(&self) -> Option<Ipv4Addr> {
        match self {
            RData::A(a) => Some(*a),
            RData::IpsecKey { gateway, .. } => Some(*gateway),
            _ => None,
        }
    }
}

/// Encodes an NSEC/NSEC3 type bitmap (RFC 4034 §4.1.2): window blocks of up
/// to 32 octets, one bit per type, high bit of the first octet = type 0.
fn encode_type_bitmap(types: &[RecordType], buf: &mut Vec<u8>) {
    let mut numbers: Vec<u16> = types.iter().map(|t| t.number()).collect();
    numbers.sort_unstable();
    numbers.dedup();
    let mut i = 0;
    while i < numbers.len() {
        let window = (numbers[i] >> 8) as u8;
        let mut octets = [0u8; 32];
        let mut max_octet = 0usize;
        while i < numbers.len() && (numbers[i] >> 8) as u8 == window {
            let low = (numbers[i] & 0xff) as usize;
            octets[low / 8] |= 0x80 >> (low % 8);
            max_octet = max_octet.max(low / 8);
            i += 1;
        }
        buf.push(window);
        buf.push((max_octet + 1) as u8);
        buf.extend_from_slice(&octets[..=max_octet]);
    }
}

/// Decodes an NSEC/NSEC3 type bitmap. Lenient about window ordering and
/// non-minimal octet counts (the result is re-encoded canonically), strict
/// about structure: each block must declare 1..=32 octets and contain them.
fn decode_type_bitmap(bytes: &[u8]) -> Result<Vec<RecordType>, NameError> {
    let mut numbers = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let window = u16::from(bytes[pos]);
        let count = *bytes.get(pos + 1).ok_or(NameError::Truncated)? as usize;
        if count == 0 || count > 32 {
            return Err(NameError::Truncated);
        }
        let octets = bytes.get(pos + 2..pos + 2 + count).ok_or(NameError::Truncated)?;
        for (i, octet) in octets.iter().enumerate() {
            for bit in 0..8u16 {
                if octet & (0x80 >> bit) != 0 {
                    numbers.push((window << 8) | (i as u16 * 8) | bit);
                }
            }
        }
        pos += 2 + count;
    }
    numbers.sort_unstable();
    numbers.dedup();
    Ok(numbers.into_iter().map(RecordType::from_number).collect())
}

/// A resource record: owner name, class/TTL and typed data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DomainName,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Creates a record.
    pub fn new(name: DomainName, ttl: u32, rdata: RData) -> Self {
        ResourceRecord { name, ttl, rdata }
    }

    /// The record type.
    pub fn rtype(&self) -> RecordType {
        self.rdata.record_type()
    }

    /// Encodes the record (name, type, class, TTL, RDLENGTH, RDATA).
    pub fn encode(&self, buf: &mut Vec<u8>, compression: Option<&mut HashMap<String, u16>>) {
        self.name.encode(buf, compression);
        self.encode_after_owner(buf);
    }

    /// Encodes everything after the owner name: type, class, TTL, RDLENGTH
    /// and RDATA.
    pub(crate) fn encode_after_owner(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.rtype().number().to_be_bytes());
        // OPT abuses the class field for the UDP payload size (RFC 6891).
        let class: u16 = match &self.rdata {
            RData::Opt { udp_payload_size } => *udp_payload_size,
            _ => 1, // IN
        };
        buf.extend_from_slice(&class.to_be_bytes());
        buf.extend_from_slice(&self.ttl.to_be_bytes());
        // RDATA is written in place behind a placeholder RDLENGTH that is
        // patched once its size is known.
        let len_at = buf.len();
        buf.extend_from_slice(&[0, 0]);
        match &self.rdata {
            // OPT RDATA is empty on the wire in our model.
            RData::Opt { .. } => {}
            other => other.encode(buf),
        }
        let rdlen = (buf.len() - len_at - 2) as u16;
        buf[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Decodes a record starting at `offset`; returns it and the next offset.
    pub fn decode(msg: &[u8], offset: usize) -> Result<(ResourceRecord, usize), NameError> {
        let (name, pos) = DomainName::decode(msg, offset)?;
        let fixed = msg.get(pos..pos + 10).ok_or(NameError::Truncated)?;
        let rtype = RecordType::from_number(u16::from_be_bytes([fixed[0], fixed[1]]));
        let class = u16::from_be_bytes([fixed[2], fixed[3]]);
        let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
        let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
        let rdata_start = pos + 10;
        if msg.len() < rdata_start + rdlen {
            return Err(NameError::Truncated);
        }
        let rdata = if rtype == RecordType::OPT {
            RData::Opt { udp_payload_size: class }
        } else {
            RData::decode(rtype, msg, rdata_start, rdlen)?
        };
        Ok((ResourceRecord { name, ttl, rdata }, rdata_start + rdlen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn roundtrip(rr: ResourceRecord) {
        let mut buf = Vec::new();
        rr.encode(&mut buf, None);
        let (decoded, end) = ResourceRecord::decode(&buf, 0).unwrap();
        assert_eq!(decoded, rr);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn a_record_roundtrip() {
        roundtrip(ResourceRecord::new(n("vict.im"), 300, RData::A("6.6.6.6".parse().unwrap())));
    }

    #[test]
    fn ns_cname_roundtrip() {
        roundtrip(ResourceRecord::new(n("vict.im"), 300, RData::Ns(n("ns1.vict.im"))));
        roundtrip(ResourceRecord::new(n("www.vict.im"), 60, RData::Cname(n("cdn.provider.example"))));
    }

    #[test]
    fn soa_roundtrip() {
        roundtrip(ResourceRecord::new(
            n("vict.im"),
            3600,
            RData::Soa {
                mname: n("ns1.vict.im"),
                rname: n("hostmaster.vict.im"),
                serial: 2021082301,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            },
        ));
    }

    #[test]
    fn mx_txt_roundtrip() {
        roundtrip(ResourceRecord::new(n("vict.im"), 300, RData::Mx { preference: 10, exchange: n("mail.vict.im") }));
        roundtrip(ResourceRecord::new(n("vict.im"), 300, RData::Txt("v=spf1 ip4:30.0.0.0/24 -all".into())));
    }

    #[test]
    fn long_txt_roundtrip() {
        // TXT longer than one character-string (e.g. a DKIM key).
        let long = "k=rsa; p=".to_string() + &"A".repeat(600);
        roundtrip(ResourceRecord::new(n("sel._domainkey.vict.im"), 300, RData::Txt(long)));
    }

    #[test]
    fn srv_naptr_roundtrip() {
        roundtrip(ResourceRecord::new(
            n("_xmpp-server._tcp.vict.im"),
            300,
            RData::Srv { priority: 5, weight: 0, port: 5269, target: n("xmpp.vict.im") },
        ));
        roundtrip(ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Naptr {
                order: 100,
                preference: 10,
                flags: "s".into(),
                service: "aaa+auth:radius.tls.tcp".into(),
                regexp: String::new(),
                replacement: n("_radiustls._tcp.vict.im"),
            },
        ));
    }

    #[test]
    fn ipseckey_dnssec_roundtrip() {
        roundtrip(ResourceRecord::new(
            n("vpn.vict.im"),
            300,
            RData::IpsecKey { precedence: 10, gateway: "30.0.0.99".parse().unwrap(), public_key: vec![1, 2, 3, 4] },
        ));
        roundtrip(ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Dnskey { flags: 257, algorithm: 253, public_key: vec![9, 8, 7, 6, 5, 4, 3, 2] },
        ));
        roundtrip(ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Ds { key_tag: 12345, algorithm: 253, digest_type: 1, digest: vec![0xde, 0xad, 0xbe, 0xef] },
        ));
        roundtrip(ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Rrsig {
                type_covered: RecordType::A,
                algorithm: 253,
                labels: 2,
                original_ttl: 300,
                expiration: 86_400,
                inception: 0,
                key_tag: 12345,
                signer: n("vict.im"),
                signature: vec![1; 16],
            },
        ));
    }

    #[test]
    fn nsec_roundtrip_and_bitmap_windows() {
        roundtrip(ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Nsec {
                next: n("www.vict.im"),
                // ANY (255) forces a second bitmap window block.
                types: vec![RecordType::A, RecordType::SOA, RecordType::RRSIG, RecordType::NSEC, RecordType::ANY],
            },
        ));
        roundtrip(ResourceRecord::new(
            n("deadbeef.vict.im"),
            300,
            RData::Nsec3 {
                hash_algorithm: 1,
                flags: 1,
                iterations: 2,
                salt: vec![0xab, 0xcd],
                next_hashed: vec![7; 16],
                types: vec![RecordType::A, RecordType::TXT],
            },
        ));
        // An empty bitmap (opt-out span with no types) round-trips too.
        roundtrip(ResourceRecord::new(
            n("deadbeef.vict.im"),
            300,
            RData::Nsec3 {
                hash_algorithm: 1,
                flags: 1,
                iterations: 0,
                salt: Vec::new(),
                next_hashed: vec![9; 16],
                types: Vec::new(),
            },
        ));
    }

    #[test]
    fn malformed_type_bitmap_rejected() {
        // NSEC with a bitmap block claiming 0 octets: structurally invalid.
        let mut buf = Vec::new();
        n("x").encode(&mut buf, None);
        buf.extend_from_slice(&RecordType::NSEC.number().to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&300u32.to_be_bytes());
        let mut rdata = Vec::new();
        n("y").encode(&mut rdata, None);
        rdata.extend_from_slice(&[0x00, 0x00]); // window 0, count 0
        buf.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        buf.extend_from_slice(&rdata);
        assert!(ResourceRecord::decode(&buf, 0).is_err());
    }

    #[test]
    fn nsec3_length_octets_cannot_escape_rdlength() {
        // Regression locks (fuzz: dns_rr_dnssec/nsec3_salt_escape.bin and
        // dns_rr_dnssec/nsec3_hash_escape.bin): the salt and next-hash
        // length octets are attacker bytes; a claim running past RDLENGTH
        // must be a typed error, never a read into the neighbouring record.
        let salt_escape = [1u8, 0, 0, 0, 200, 1, 2, 3, 4]; // salt claims 200, 4 present
        assert_eq!(RData::decode(RecordType::NSEC3, &salt_escape, 0, salt_escape.len()), Err(NameError::Truncated));
        let hash_escape = [1u8, 1, 0, 0, 2, 0xab, 0xcd, 30, 1, 2, 3, 4]; // hash claims 30, 4 present
        assert_eq!(RData::decode(RecordType::NSEC3, &hash_escape, 0, hash_escape.len()), Err(NameError::Truncated));
    }

    #[test]
    fn nsec_bitmap_disorder_is_canonicalised() {
        // Regression lock (fuzz: dns_rr_dnssec/bitmap_window_disorder.bin):
        // the decoder tolerates out-of-order windows and non-minimal octet
        // counts, but must canonicalise on re-encode so the cache, the
        // signer and the wire all agree on one form per value — the NSEC
        // bitmap is signed data, and a second accepted spelling of the same
        // RRset would split it from its RRSIG.
        let mut rdata = Vec::new();
        n("y").encode(&mut rdata, None);
        rdata.extend_from_slice(&[0x01, 0x01, 0x40]); // window 1 first: type 257
        rdata.extend_from_slice(&[0x00, 0x04, 0x40, 0x00, 0x00, 0x00]); // window 0, padded: type A
        let decoded = RData::decode(RecordType::NSEC, &rdata, 0, rdata.len()).unwrap();
        assert_eq!(decoded, RData::Nsec { next: n("y"), types: vec![RecordType::A, RecordType::Unknown(257)] });
        let mut reencoded = Vec::new();
        decoded.encode(&mut reencoded);
        assert!(reencoded.len() < rdata.len(), "re-encoding drops the padding octets");
        assert_eq!(RData::decode(RecordType::NSEC, &reencoded, 0, reencoded.len()).unwrap(), decoded);
    }

    #[test]
    fn rrsig_signer_name_cannot_escape_rdlength() {
        // Regression lock (fuzz: dns_rr_dnssec/rrsig_truncated_signer.bin):
        // the signer name starts 18 bytes into the RRSIG rdata; when its
        // inline labels run past the RDLENGTH window the decode must fail
        // even though the buffer holds more bytes just past the window.
        let mut buf = Vec::new();
        n("x").encode(&mut buf, None);
        buf.extend_from_slice(&RecordType::RRSIG.number().to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&300u32.to_be_bytes());
        buf.extend_from_slice(&20u16.to_be_bytes()); // 18 fixed bytes + 2 of the name
        buf.extend_from_slice(&[0, 1, 253, 1]); // type covered A, alg, labels
        buf.extend_from_slice(&300u32.to_be_bytes()); // original ttl
        buf.extend_from_slice(&86_400u32.to_be_bytes()); // expiration
        buf.extend_from_slice(&0u32.to_be_bytes()); // inception
        buf.extend_from_slice(&0x1234u16.to_be_bytes()); // key tag
        buf.extend_from_slice(&[3, b'a']); // label claims 3 bytes, window ends
        buf.extend_from_slice(&[b'b', b'c', 0]); // the rest lies outside RDLENGTH
        assert_eq!(ResourceRecord::decode(&buf, 0), Err(NameError::Truncated));
    }

    #[test]
    fn aaaa_and_unknown_roundtrip() {
        roundtrip(ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Aaaa([0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
        ));
    }

    #[test]
    fn opt_record_carries_payload_size_in_class() {
        let rr = ResourceRecord::new(DomainName::root(), 0, RData::Opt { udp_payload_size: 4096 });
        let mut buf = Vec::new();
        rr.encode(&mut buf, None);
        let (decoded, _) = ResourceRecord::decode(&buf, 0).unwrap();
        assert_eq!(decoded.rdata, RData::Opt { udp_payload_size: 4096 });
    }

    #[test]
    fn record_type_numbers_roundtrip() {
        for t in [
            RecordType::A,
            RecordType::NS,
            RecordType::CNAME,
            RecordType::SOA,
            RecordType::MX,
            RecordType::TXT,
            RecordType::AAAA,
            RecordType::SRV,
            RecordType::NAPTR,
            RecordType::IPSECKEY,
            RecordType::OPT,
            RecordType::DS,
            RecordType::DNSKEY,
            RecordType::RRSIG,
            RecordType::NSEC,
            RecordType::NSEC3,
            RecordType::ANY,
        ] {
            assert_eq!(RecordType::from_number(t.number()), t);
        }
        assert_eq!(RecordType::from_number(9999), RecordType::Unknown(9999));
    }

    #[test]
    fn as_ipv4_extracts_addresses() {
        assert_eq!(RData::A("1.2.3.4".parse().unwrap()).as_ipv4(), Some("1.2.3.4".parse().unwrap()));
        assert_eq!(RData::Txt("x".into()).as_ipv4(), None);
    }

    #[test]
    fn rdata_cannot_escape_its_rdlength() {
        // Regression (fuzz: dns_rr/rdlen_escape.bin): an NS record claiming
        // RDLENGTH=1 whose name bytes continue past the window used to
        // decode "successfully" by reading its neighbours' bytes, then
        // resync at rdata_start+1 — a parser-desync smuggling primitive.
        let mut buf = Vec::new();
        n("x").encode(&mut buf, None); // owner
        buf.extend_from_slice(&RecordType::NS.number().to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&300u32.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes()); // RDLENGTH = 1 (lie)
        n("abc").encode(&mut buf, None); // 5 bytes of actual name
        assert_eq!(ResourceRecord::decode(&buf, 0), Err(NameError::Truncated));
    }

    #[test]
    fn rdata_slack_after_content_rejected() {
        // Regression (fuzz: dns_rr/rdlen_slack.bin): RDLENGTH larger than
        // the content it frames left unaccounted bytes inside the record.
        let mut buf = Vec::new();
        n("x").encode(&mut buf, None);
        buf.extend_from_slice(&RecordType::NS.number().to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&300u32.to_be_bytes());
        let mut rdata = Vec::new();
        n("abc").encode(&mut rdata, None);
        rdata.push(0xAA); // one stray byte inside the claimed RDLENGTH
        buf.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        buf.extend_from_slice(&rdata);
        assert_eq!(ResourceRecord::decode(&buf, 0), Err(NameError::RdataLengthMismatch));
    }

    #[test]
    fn compressed_name_inside_rdata_still_decodes() {
        // A backward compression pointer in RDATA is legal RFC 1035: the
        // inline bytes (the 2-byte pointer) fill the RDLENGTH exactly while
        // the labels live earlier in the message.
        let mut buf = Vec::new();
        n("ns1.vict.im").encode(&mut buf, None); // owner at offset 0
        buf.extend_from_slice(&RecordType::NS.number().to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&300u32.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes()); // RDLENGTH = pointer
        buf.extend_from_slice(&0xC000u16.to_be_bytes()); // -> offset 0
        let (rr, end) = ResourceRecord::decode(&buf, 0).unwrap();
        assert_eq!(rr.rdata, RData::Ns(n("ns1.vict.im")));
        assert_eq!(end, buf.len());
    }

    #[test]
    fn truncated_rdata_rejected() {
        let rr = ResourceRecord::new(n("vict.im"), 300, RData::A("1.2.3.4".parse().unwrap()));
        let mut buf = Vec::new();
        rr.encode(&mut buf, None);
        buf.truncate(buf.len() - 2);
        assert!(ResourceRecord::decode(&buf, 0).is_err());
    }
}
