//! Domain names: label handling, wire encoding with message compression, and
//! **0x20 encoding** (Dagon et al., CCS 2008).
//!
//! 0x20 encoding is one of the countermeasures evaluated in Section 6 of the
//! paper: the resolver randomises the case of each letter in the query name
//! and requires the response to echo the exact casing, adding up to one bit
//! of entropy per letter. It defeats SadDNS-style response forgery (the
//! attacker must guess the casing) but **not** FragDNS, because the question
//! section travels in the first, genuine fragment.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label (RFC 1035).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total length of a domain name on the wire (RFC 1035).
pub const MAX_NAME_LEN: usize = 255;

/// The label alphabet this workspace accepts: LDH (RFC 1035 §2.3.1) plus
/// `_` (service labels like `_acme-challenge`) and `*` (wildcards). Both
/// [`DomainName::from_labels`] and [`DomainName::decode`] enforce it, so a
/// name can never enter the system through the wire that the builder API
/// would have rejected.
fn is_label_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*'
}

/// A fully-qualified domain name, stored as a sequence of labels without the
/// trailing root label.
///
/// Case is preserved (for 0x20 encoding) but comparisons and hashing are
/// case-insensitive, as required by RFC 1035 / RFC 4343.
#[derive(Debug, Clone, Eq, Serialize, Deserialize)]
pub struct DomainName {
    labels: Vec<String>,
}

impl DomainName {
    /// The DNS root (empty name).
    pub fn root() -> Self {
        DomainName { labels: Vec::new() }
    }

    /// Builds a name from labels; returns an error for invalid labels.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        let name = DomainName { labels };
        name.validate()?;
        Ok(name)
    }

    fn validate(&self) -> Result<(), NameError> {
        let mut total = 0usize;
        for label in &self.labels {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(label.len()));
            }
            if !label.bytes().all(is_label_byte) {
                return Err(NameError::InvalidCharacter);
            }
            total += label.len() + 1;
        }
        if total + 1 > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(total + 1));
        }
        Ok(())
    }

    /// The labels of this name, most specific first.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Length of the wire representation (labels + length octets + root).
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Whether `self` equals `ancestor` or is a subdomain of it
    /// (case-insensitive). This is the **bailiwick** test resolvers apply to
    /// records in responses.
    pub fn is_subdomain_of(&self, ancestor: &DomainName) -> bool {
        if ancestor.labels.len() > self.labels.len() {
            return false;
        }
        self.labels.iter().rev().zip(ancestor.labels.iter().rev()).all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    /// The parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<DomainName> {
        if self.labels.is_empty() {
            None
        } else {
            Some(DomainName { labels: self.labels[1..].to_vec() })
        }
    }

    /// Prepends a label, producing `label.self`.
    pub fn prepend(&self, label: &str) -> Result<DomainName, NameError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.to_string());
        labels.extend(self.labels.iter().cloned());
        let name = DomainName { labels };
        name.validate()?;
        Ok(name)
    }

    /// Returns this name with every alphabetic character's case randomised —
    /// the 0x20 transformation applied by a protecting resolver.
    pub fn randomize_case<R: Rng>(&self, rng: &mut R) -> DomainName {
        let labels = self
            .labels
            .iter()
            .map(|l| {
                l.chars()
                    .map(|c| {
                        if c.is_ascii_alphabetic() && rng.gen::<bool>() {
                            c.to_ascii_uppercase()
                        } else {
                            c.to_ascii_lowercase()
                        }
                    })
                    .collect()
            })
            .collect();
        DomainName { labels }
    }

    /// Case-*sensitive* equality — what a 0x20-validating resolver checks
    /// between the question it sent and the question echoed in the response.
    pub fn eq_case_sensitive(&self, other: &DomainName) -> bool {
        self.labels == other.labels
    }

    /// The number of 0x20 entropy bits this name provides (one per ASCII letter).
    pub fn entropy_0x20_bits(&self) -> u32 {
        self.labels.iter().flat_map(|l| l.chars()).filter(|c| c.is_ascii_alphabetic()).count() as u32
    }

    /// Returns a lowercased copy (canonical form).
    pub fn to_lowercase(&self) -> DomainName {
        DomainName { labels: self.labels.iter().map(|l| l.to_ascii_lowercase()).collect() }
    }

    /// Encodes the name to wire format, appending to `buf`.
    ///
    /// When `compression` is provided, suffixes already present in the map
    /// are replaced by compression pointers and new suffix offsets are
    /// recorded (offsets must fit in 14 bits).
    pub fn encode(&self, buf: &mut Vec<u8>, compression: Option<&mut std::collections::HashMap<String, u16>>) {
        self.encode_at(buf, compression, 0);
    }

    /// [`encode`](DomainName::encode) into a buffer that starts `base` bytes
    /// into the message: recorded suffix offsets are `base + buf.len()`, so
    /// a message section can be built on its own and spliced in later.
    pub(crate) fn encode_at(
        &self,
        buf: &mut Vec<u8>,
        compression: Option<&mut std::collections::HashMap<String, u16>>,
        base: usize,
    ) {
        let Some(map) = compression else {
            // No compression map: the name is straight label copies.
            for label in &self.labels {
                buf.push(label.len() as u8);
                buf.extend_from_slice(label.as_bytes());
            }
            buf.push(0);
            return;
        };
        // One lowercase pass over the whole name: every candidate suffix is
        // a slice of `full` (label lengths are byte lengths, separators one
        // byte), so lookups allocate nothing and only suffixes newly
        // recorded in the map are copied out.
        let mut full = self.labels.join(".");
        full.make_ascii_lowercase();
        let mut off = 0;
        for label in &self.labels {
            let suffix = &full[off..];
            if let Some(&offset) = map.get(suffix) {
                buf.extend_from_slice(&(0xC000u16 | offset).to_be_bytes());
                return;
            }
            let here = base + buf.len();
            if here <= 0x3FFF {
                map.insert(suffix.to_owned(), here as u16);
            }
            buf.push(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
            off += label.len() + 1;
        }
        buf.push(0);
    }

    /// Decodes a name starting at `offset` within `msg`, following
    /// compression pointers. Returns the name and the offset just past it.
    pub fn decode(msg: &[u8], offset: usize) -> Result<(DomainName, usize), NameError> {
        let mut labels = Vec::new();
        let mut pos = offset;
        let mut jumped = false;
        let mut end = offset;
        let mut hops = 0;
        loop {
            let len = *msg.get(pos).ok_or(NameError::Truncated)? as usize;
            if len & 0xC0 == 0xC0 {
                // Compression pointer.
                let second = *msg.get(pos + 1).ok_or(NameError::Truncated)? as usize;
                let target = ((len & 0x3F) << 8) | second;
                if !jumped {
                    end = pos + 2;
                    jumped = true;
                }
                hops += 1;
                if hops > 32 {
                    return Err(NameError::PointerLoop);
                }
                if target >= pos {
                    return Err(NameError::ForwardPointer);
                }
                pos = target;
                continue;
            }
            if len == 0 {
                if !jumped {
                    end = pos + 1;
                }
                break;
            }
            if len > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(len));
            }
            let bytes = msg.get(pos + 1..pos + 1 + len).ok_or(NameError::Truncated)?;
            // Same alphabet as `validate`: wire decoding must not smuggle in
            // labels (embedded dots, control bytes, non-ASCII) that the
            // builder API rejects — they would corrupt display/parse
            // roundtrips and compression-map suffix keys.
            if !bytes.iter().copied().all(is_label_byte) {
                return Err(NameError::InvalidCharacter);
            }
            let label = String::from_utf8(bytes.to_vec()).map_err(|_| NameError::InvalidCharacter)?;
            labels.push(label);
            pos += len + 1;
        }
        let name = DomainName { labels };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(name.wire_len()));
        }
        Ok((name, end))
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self.labels.iter().zip(&other.labels).all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl std::hash::Hash for DomainName {
    /// Hashes each label exactly as its lowercased `String` would hash (the
    /// bytes, then a `0xff` terminator), lowercasing through a stack buffer
    /// so hashing allocates nothing.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut lower = [0u8; MAX_LABEL_LEN];
        for label in &self.labels {
            let lower = &mut lower[..label.len()];
            lower.copy_from_slice(label.as_bytes());
            lower.make_ascii_lowercase();
            state.write(lower);
            state.write_u8(0xff);
        }
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    /// Label by label, most specific first, each label compared bytewise
    /// after ASCII lowercasing: the order of the lowercased `Vec<String>`
    /// of labels, computed without allocating.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn lower(label: &str) -> impl Iterator<Item = u8> + '_ {
            label.bytes().map(|b| b.to_ascii_lowercase())
        }
        for (a, b) in self.labels.iter().zip(&other.labels) {
            match lower(a).cmp(lower(b)) {
                std::cmp::Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        self.labels.len().cmp(&other.labels.len())
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        write!(f, "{}", self.labels.join("."))
    }
}

impl FromStr for DomainName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim_end_matches('.');
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        DomainName::from_labels(trimmed.split('.'))
    }
}

/// Errors produced when building or decoding a domain name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty.
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(usize),
    /// The whole name exceeded 255 octets.
    NameTooLong(usize),
    /// A label contained a character outside the supported set.
    InvalidCharacter,
    /// The buffer ended in the middle of a name.
    Truncated,
    /// Compression pointers formed a loop.
    PointerLoop,
    /// A compression pointer pointed forward.
    ForwardPointer,
    /// A message carried bytes past its last counted record.
    TrailingBytes(usize),
    /// A record's RDATA content did not fill its claimed RDLENGTH exactly.
    RdataLengthMismatch,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label too long ({n} bytes)"),
            NameError::NameTooLong(n) => write!(f, "name too long ({n} bytes)"),
            NameError::InvalidCharacter => write!(f, "invalid character in label"),
            NameError::Truncated => write!(f, "truncated name"),
            NameError::PointerLoop => write!(f, "compression pointer loop"),
            NameError::ForwardPointer => write!(f, "forward compression pointer"),
            NameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            NameError::RdataLengthMismatch => write!(f, "RDATA does not fill its RDLENGTH"),
        }
    }
}

impl std::error::Error for NameError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.vict.im").to_string(), "www.vict.im");
        assert_eq!(n("vict.im.").to_string(), "vict.im");
        assert_eq!(DomainName::root().to_string(), ".");
        assert_eq!(n("vict.im").label_count(), 2);
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        assert_eq!(n("WWW.Vict.IM"), n("www.vict.im"));
        let mut set = HashSet::new();
        set.insert(n("WWW.Vict.IM"));
        assert!(set.contains(&n("www.vict.im")));
    }

    #[test]
    fn subdomain_relation() {
        assert!(n("ns1.vict.im").is_subdomain_of(&n("vict.im")));
        assert!(n("vict.im").is_subdomain_of(&n("vict.im")));
        assert!(n("a.b.vict.im").is_subdomain_of(&n("im")));
        assert!(!n("vict.im").is_subdomain_of(&n("attacker.com")));
        assert!(!n("notvict.im").is_subdomain_of(&n("vict.im")));
        assert!(n("anything.example").is_subdomain_of(&DomainName::root()));
    }

    #[test]
    fn parent_and_prepend() {
        assert_eq!(n("www.vict.im").parent().unwrap(), n("vict.im"));
        assert_eq!(n("vict.im").prepend("mail").unwrap(), n("mail.vict.im"));
        assert!(DomainName::root().parent().is_none());
    }

    #[test]
    fn label_validation() {
        assert!(DomainName::from_labels(vec![""]).is_err());
        let long = "a".repeat(64);
        assert!(DomainName::from_labels(vec![long.as_str()]).is_err());
        assert!("bad name.example".parse::<DomainName>().is_err());
        // A maximally bloated name (attacker "bloat query" technique) is
        // valid as long as it stays within 255 octets.
        let l63 = "a".repeat(63);
        let bloated = format!("{l63}.{l63}.{l63}.vict.im");
        assert!(bloated.parse::<DomainName>().is_ok());
    }

    #[test]
    fn wire_roundtrip_without_compression() {
        let name = n("abc.vict.im");
        let mut buf = Vec::new();
        name.encode(&mut buf, None);
        assert_eq!(buf.len(), name.wire_len());
        let (decoded, end) = DomainName::decode(&buf, 0).unwrap();
        assert_eq!(decoded, name);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn wire_roundtrip_with_compression() {
        let mut buf = Vec::new();
        let mut map = std::collections::HashMap::new();
        let first = n("ns1.vict.im");
        let second = n("mail.vict.im");
        first.encode(&mut buf, Some(&mut map));
        let second_start = buf.len();
        second.encode(&mut buf, Some(&mut map));
        // The second encoding must be shorter than an uncompressed encoding.
        assert!(buf.len() - second_start < second.wire_len());
        let (d1, _) = DomainName::decode(&buf, 0).unwrap();
        let (d2, _) = DomainName::decode(&buf, second_start).unwrap();
        assert_eq!(d1, first);
        assert_eq!(d2, second);
    }

    #[test]
    fn wire_labels_outside_the_alphabet_rejected() {
        // Regression (fuzz: dns_name/label_with_dot.bin): a wire label
        // containing '.' used to decode successfully, producing a name whose
        // display form re-parses as a *different* name and whose lowercased
        // "a.b" compression-suffix key collides with the two-label name
        // ["a","b"].
        let buf = vec![3, b'a', b'.', b'b', 0];
        assert_eq!(DomainName::decode(&buf, 0), Err(NameError::InvalidCharacter));
        // Control bytes and non-ASCII (fuzz: dns_name/label_ctrl_byte.bin).
        assert_eq!(DomainName::decode(&[1, 0x07, 0], 0), Err(NameError::InvalidCharacter));
        assert_eq!(DomainName::decode(&[2, 0xC3, 0xA9, 0], 0), Err(NameError::InvalidCharacter));
        // The accepted alphabet still decodes.
        let buf = vec![4, b'x', b'-', b'_', b'9', 0];
        assert_eq!(DomainName::decode(&buf, 0).unwrap().0, DomainName::from_labels(vec!["x-_9"]).unwrap());
    }

    #[test]
    fn rejects_pointer_loops_and_truncation() {
        // Pointer to itself.
        let buf = vec![0xC0, 0x00];
        assert!(DomainName::decode(&buf, 0).is_err());
        // Truncated label.
        let buf = vec![5, b'a', b'b'];
        assert_eq!(DomainName::decode(&buf, 0), Err(NameError::Truncated));
    }

    #[test]
    fn randomize_case_preserves_identity_and_adds_entropy() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let name = n("verylongdomainname.example.com");
        let cased = name.randomize_case(&mut rng);
        assert_eq!(cased, name, "case-insensitive equality preserved");
        assert!(!cased.eq_case_sensitive(&name.to_lowercase()) || cased.eq_case_sensitive(&name.to_lowercase()));
        assert_eq!(name.entropy_0x20_bits(), 28);
        // With 28 letters the probability of the identity transform is 2^-28;
        // with this seed the casing must differ.
        assert!(!cased.eq_case_sensitive(&name));
    }

    #[test]
    fn case_sensitive_comparison_detects_wrong_case() {
        let a = n("vict.im");
        let b = DomainName::from_labels(vec!["VICT", "im"]).unwrap();
        assert_eq!(a, b);
        assert!(!a.eq_case_sensitive(&b));
    }

    #[test]
    fn ordering_is_case_insensitive() {
        let mut names = [n("b.example"), n("A.example"), n("c.example")];
        names.sort();
        assert_eq!(names[0], n("a.example"));
    }
}
