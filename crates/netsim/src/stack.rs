//! A minimal OS network-stack model shared by all simulated hosts.
//!
//! [`HostStack`] bundles the operating-system behaviours the paper's attacks
//! interact with: UDP and TCP port state, ICMP port-unreachable generation
//! (with the configurable rate-limit policy SadDNS probes), TCP RST
//! generation for closed ports, the IPv4 defragmentation cache FragDNS
//! poisons, path-MTU discovery, and the IP identification assignment policy
//! whose predictability decides the FragDNS hit rate. DNS resolvers,
//! nameservers, application servers and attacker hosts in the higher-level
//! crates all embed a `HostStack` and feed packets through
//! [`HostStack::handle_packet`]; transport state above the port table lives
//! in the sockets of [`crate::transport`] and [`crate::tcp`].

use crate::fasthash::{FastHashMap, FastHashSet};
use crate::frag::fragment_packet;
use crate::frag::{ReassemblyBuffer, ReassemblyConfig, ReassemblyResult};
use crate::icmp::{IcmpMessage, Unreachable};
use crate::ipv4::{Ipv4Packet, Protocol, DEFAULT_MTU, MIN_IPV4_MTU};
use crate::pmtud::PathMtuCache;
use crate::ratelimit::{IcmpRateLimitPolicy, IcmpRateLimiter};
use crate::tcp::{rst_reply, TcpSegment, TCP_HEADER_LEN};
use crate::time::SimTime;
use crate::udp::UdpDatagram;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// How a host assigns IPv4 identification values to outgoing packets.
///
/// The paper (Section 4.4.3 / 5.3.2) distinguishes nameservers with a single
/// **global incremental** counter (predictable: the attacker samples it and
/// extrapolates — median hit rate ≈ 20 %), **per-destination** counters
/// (predictable only with an on-path vantage) and **random** IPIDs
/// (hit rate ≈ 1/1024 with a 64-entry defragmentation cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IpIdPolicy {
    /// One counter shared by all destinations, incremented per packet.
    GlobalCounter,
    /// One counter per destination address.
    PerDestination,
    /// Uniformly random identification values.
    Random,
}

/// Configuration for a [`HostStack`].
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// TTL placed in outgoing packets.
    pub ttl: u8,
    /// ICMP error rate-limiting policy (the SadDNS side channel lives here).
    pub icmp_rate_limit: IcmpRateLimitPolicy,
    /// IP identification assignment policy.
    pub ipid_policy: IpIdPolicy,
    /// Defragmentation cache configuration.
    pub reassembly: ReassemblyConfig,
    /// Whether the host answers ICMP echo requests.
    pub respond_to_ping: bool,
    /// Whether the host honours ICMP fragmentation-needed (PMTUD) at all.
    pub pmtud_enabled: bool,
    /// Minimum path MTU the host will accept from a fragmentation-needed
    /// message (hardened hosts refuse tiny values).
    pub min_accepted_mtu: u16,
    /// Whether incoming IP fragments are accepted at all. Resolver operators
    /// that "block fragmented responses in firewalls" (Section 6) set this to
    /// `false`, defeating FragDNS.
    pub accept_fragments: bool,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            ttl: 64,
            icmp_rate_limit: IcmpRateLimitPolicy::linux_default(),
            ipid_policy: IpIdPolicy::GlobalCounter,
            reassembly: ReassemblyConfig::default(),
            respond_to_ping: true,
            pmtud_enabled: true,
            min_accepted_mtu: MIN_IPV4_MTU,
            accept_fragments: true,
        }
    }
}

/// Events surfaced to the application layer by [`HostStack::handle_packet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEvent {
    /// A (reassembled, checksum-valid) UDP datagram addressed to an open port.
    Udp(UdpDatagram),
    /// A checksum-valid TCP segment addressed to an open TCP port; connection
    /// state is kept by the [`TcpSocket`](crate::tcp::TcpSocket) bound there.
    Tcp(TcpSegment),
    /// A TCP segment arrived at a closed port (the stack answered with RST).
    TcpClosedPort {
        /// Source of the segment.
        from: Ipv4Addr,
        /// The closed destination port.
        port: u16,
        /// Whether an RST was emitted (never for incoming RSTs).
        rst_sent: bool,
    },
    /// An ICMP destination-unreachable error was received; `quoted_ports` are
    /// the (src, dst) UDP ports of the quoted offending datagram, if any.
    IcmpError {
        /// Sender of the ICMP error.
        from: Ipv4Addr,
        /// Which unreachable condition was reported.
        kind: Unreachable,
        /// Ports quoted from the offending datagram.
        quoted_ports: Option<(u16, u16)>,
    },
    /// An ICMP echo reply was received (used by liveness probes).
    EchoReply {
        /// Responder address.
        from: Ipv4Addr,
        /// Echo identifier.
        id: u16,
        /// Echo sequence number.
        seq: u16,
    },
    /// An ICMP echo request was received and (if configured) answered.
    EchoRequest {
        /// Requester address.
        from: Ipv4Addr,
    },
    /// The path MTU towards `dst` was lowered to `mtu` by a
    /// fragmentation-needed message.
    PmtuUpdate {
        /// Destination whose path MTU changed.
        dst: Ipv4Addr,
        /// New path MTU.
        mtu: u16,
    },
    /// A UDP datagram arrived at a closed port (the stack may have generated
    /// an ICMP port-unreachable, subject to rate limiting).
    ClosedPort {
        /// Source of the datagram.
        from: Ipv4Addr,
        /// The closed destination port.
        port: u16,
        /// Whether an ICMP error was actually emitted (rate limit permitting).
        icmp_sent: bool,
    },
    /// A datagram or fragment was dropped (bad checksum, fragment rejected...).
    Dropped(&'static str),
}

/// The result of feeding one packet into the stack: zero or more application
/// events plus zero or more reply packets that must be transmitted.
#[derive(Debug, Clone, Default)]
pub struct StackOutput {
    /// Events for the application layer.
    pub events: Vec<StackEvent>,
    /// Packets the stack wants to send in response (ICMP errors, echo replies).
    pub replies: Vec<Ipv4Packet>,
}

/// The per-host stack state.
///
/// Besides UDP and ICMP it owns the TCP port table and the TCP
/// packetisation path, with connection state living in
/// [`crate::tcp::TcpSocket`].
#[derive(Debug)]
pub struct HostStack {
    /// Addresses owned by this host.
    pub addresses: Vec<Ipv4Addr>,
    config: StackConfig,
    open_ports: FastHashSet<u16>,
    open_tcp_ports: FastHashSet<u16>,
    reassembly: ReassemblyBuffer,
    icmp_limiter: IcmpRateLimiter,
    pmtu: PathMtuCache,
    global_ipid: u16,
    per_dest_ipid: FastHashMap<Ipv4Addr, u16>,
}

impl HostStack {
    /// Creates a stack owning the given addresses.
    pub fn new(addresses: Vec<Ipv4Addr>, config: StackConfig) -> Self {
        let mut pmtu = PathMtuCache::with_min_accepted(config.min_accepted_mtu.max(MIN_IPV4_MTU));
        pmtu.default_mtu = DEFAULT_MTU;
        HostStack {
            addresses,
            icmp_limiter: IcmpRateLimiter::new(config.icmp_rate_limit),
            reassembly: ReassemblyBuffer::new(config.reassembly),
            pmtu,
            open_ports: FastHashSet::default(),
            open_tcp_ports: FastHashSet::default(),
            global_ipid: 1,
            per_dest_ipid: FastHashMap::default(),
            config,
        }
    }

    /// Creates a stack with default configuration.
    pub fn with_defaults(addresses: Vec<Ipv4Addr>) -> Self {
        HostStack::new(addresses, StackConfig::default())
    }

    /// The primary (first) address of this host.
    pub fn primary_addr(&self) -> Ipv4Addr {
        self.addresses.first().copied().unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Whether `addr` is owned by this host.
    pub fn owns(&self, addr: Ipv4Addr) -> bool {
        self.addresses.contains(&addr)
    }

    /// Opens a UDP port (e.g. 53 on a nameserver, an ephemeral port on a
    /// resolver while a query is outstanding).
    pub fn open_port(&mut self, port: u16) {
        self.open_ports.insert(port);
    }

    /// Closes a UDP port.
    pub fn close_port(&mut self, port: u16) {
        self.open_ports.remove(&port);
    }

    /// Whether a port is currently open.
    pub fn is_port_open(&self, port: u16) -> bool {
        self.open_ports.contains(&port)
    }

    /// Number of currently open ports.
    pub fn open_port_count(&self) -> usize {
        self.open_ports.len()
    }

    /// Opens a TCP port (53 on a nameserver, the client port of a resolver's
    /// upstream connections). The TCP and UDP port spaces are independent.
    pub fn open_tcp_port(&mut self, port: u16) {
        self.open_tcp_ports.insert(port);
    }

    /// Closes a TCP port.
    pub fn close_tcp_port(&mut self, port: u16) {
        self.open_tcp_ports.remove(&port);
    }

    /// Whether a TCP port is currently open.
    pub fn is_tcp_port_open(&self, port: u16) -> bool {
        self.open_tcp_ports.contains(&port)
    }

    /// Read access to the stack configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Read access to the path-MTU cache.
    pub fn pmtu(&self) -> &PathMtuCache {
        &self.pmtu
    }

    /// Read access to the ICMP rate limiter (for measurement instrumentation).
    pub fn icmp_limiter(&self) -> &IcmpRateLimiter {
        &self.icmp_limiter
    }

    /// Read access to the defragmentation cache.
    pub fn reassembly(&self) -> &ReassemblyBuffer {
        &self.reassembly
    }

    /// Allocates the IP identification for a packet towards `dst` according
    /// to the configured policy.
    pub fn next_ipid<R: Rng>(&mut self, dst: Ipv4Addr, rng: &mut R) -> u16 {
        match self.config.ipid_policy {
            IpIdPolicy::GlobalCounter => {
                let id = self.global_ipid;
                self.global_ipid = self.global_ipid.wrapping_add(1);
                id
            }
            IpIdPolicy::PerDestination => {
                let counter = self.per_dest_ipid.entry(dst).or_insert(1);
                let id = *counter;
                *counter = counter.wrapping_add(1);
                id
            }
            IpIdPolicy::Random => rng.gen(),
        }
    }

    /// Peeks at the value the *next* global-counter IPID would have — used by
    /// the FragDNS measurement probe that samples a nameserver's counter.
    pub fn peek_global_ipid(&self) -> u16 {
        self.global_ipid
    }

    /// Builds (and, if the path MTU towards the destination requires it,
    /// fragments) a UDP datagram originating from this host.
    pub fn send_udp<R: Rng>(&mut self, dgram: UdpDatagram, now: SimTime, rng: &mut R) -> Vec<Ipv4Packet> {
        let dst = dgram.dst;
        let ipid = self.next_ipid(dst, rng);
        let pkt = dgram.into_packet(ipid, self.config.ttl);
        let mtu = if self.config.pmtud_enabled { self.pmtu.mtu_for(dst, now) } else { DEFAULT_MTU };
        if pkt.wire_len() > usize::from(mtu) {
            fragment_packet(&pkt, mtu)
        } else {
            vec![pkt]
        }
    }

    /// The maximum TCP segment size towards `dst`: the current path MTU
    /// minus the IPv4 and TCP headers. TCP sets DF, so sizing segments to
    /// the path MTU is what keeps the stream unfragmentable — the structural
    /// reason DNS over TCP defeats fragmentation-based poisoning.
    pub fn tcp_mss_for(&self, dst: Ipv4Addr, now: SimTime) -> u16 {
        let mtu = if self.config.pmtud_enabled { self.pmtu.mtu_for(dst, now) } else { DEFAULT_MTU };
        mtu.saturating_sub((crate::ipv4::IPV4_HEADER_LEN + TCP_HEADER_LEN) as u16).max(1)
    }

    /// Builds the IPv4 packet for a TCP segment originating from this host
    /// (IP-ID per policy, DF always set).
    pub fn send_tcp<R: Rng>(&mut self, seg: TcpSegment, _now: SimTime, rng: &mut R) -> Ipv4Packet {
        let dst = seg.dst;
        let ipid = self.next_ipid(dst, rng);
        seg.into_packet(ipid, self.config.ttl)
    }

    /// Builds an ICMP echo request towards `dst`.
    pub fn send_ping<R: Rng>(&mut self, src: Ipv4Addr, dst: Ipv4Addr, id: u16, seq: u16, rng: &mut R) -> Ipv4Packet {
        let ipid = self.next_ipid(dst, rng);
        IcmpMessage::EchoRequest { id, seq, payload: vec![] }.into_packet(src, dst, ipid, self.config.ttl)
    }

    /// Feeds one received IPv4 packet through the stack.
    pub fn handle_packet<R: Rng>(&mut self, pkt: &Ipv4Packet, now: SimTime, rng: &mut R) -> StackOutput {
        let mut out = StackOutput::default();
        if !self.owns(pkt.header.dst) {
            out.events.push(StackEvent::Dropped("not addressed to this host"));
            return out;
        }

        // 1. Reassembly of fragments. Whole packets are processed in place —
        // cloning a borrowed packet per delivery is exactly the per-packet
        // churn the buffer pool exists to avoid.
        let reassembled;
        let full: &Ipv4Packet = if pkt.header.is_fragment() {
            if !self.config.accept_fragments {
                out.events.push(StackEvent::Dropped("fragments filtered"));
                return out;
            }
            match self.reassembly.push(pkt, now) {
                ReassemblyResult::Complete(p) => {
                    reassembled = p;
                    &reassembled
                }
                ReassemblyResult::Pending => return out,
                ReassemblyResult::Dropped(_) => {
                    out.events.push(StackEvent::Dropped("fragment dropped"));
                    return out;
                }
            }
        } else {
            pkt
        };

        match full.header.protocol {
            Protocol::Udp => self.handle_udp(full, now, rng, &mut out),
            Protocol::Tcp => self.handle_tcp(full, rng, &mut out),
            Protocol::Icmp => self.handle_icmp(full, now, rng, &mut out),
            _ => out.events.push(StackEvent::Dropped("unsupported protocol")),
        }
        out
    }

    fn handle_tcp<R: Rng>(&mut self, pkt: &Ipv4Packet, rng: &mut R, out: &mut StackOutput) {
        match TcpSegment::from_packet(pkt) {
            Ok(seg) => {
                if self.open_tcp_ports.contains(&seg.dst_port) {
                    out.events.push(StackEvent::Tcp(seg));
                } else {
                    // RFC 793 §3.4: segments to closed ports are reset (RSTs
                    // are not subject to the ICMP error rate limit — one
                    // reason the TCP path has no SadDNS-style muting oracle).
                    let rst = rst_reply(&seg);
                    let rst_sent = rst.is_some();
                    if let Some(rst) = rst {
                        let ipid = self.next_ipid(rst.dst, rng);
                        out.replies.push(rst.into_packet(ipid, self.config.ttl));
                    }
                    out.events.push(StackEvent::TcpClosedPort { from: seg.src, port: seg.dst_port, rst_sent });
                }
            }
            Err(_) => out.events.push(StackEvent::Dropped("tcp checksum/format error")),
        }
    }

    fn handle_udp<R: Rng>(&mut self, pkt: &Ipv4Packet, now: SimTime, rng: &mut R, out: &mut StackOutput) {
        match UdpDatagram::from_packet(pkt) {
            Ok(dgram) => {
                if self.open_ports.contains(&dgram.dst_port) {
                    out.events.push(StackEvent::Udp(dgram));
                } else {
                    let allowed = self.icmp_limiter.allow(dgram.src, now);
                    if allowed {
                        let ipid = self.next_ipid(dgram.src, rng);
                        let reply = IcmpMessage::port_unreachable(pkt).into_packet(
                            pkt.header.dst,
                            pkt.header.src,
                            ipid,
                            self.config.ttl,
                        );
                        out.replies.push(reply);
                    }
                    out.events.push(StackEvent::ClosedPort {
                        from: dgram.src,
                        port: dgram.dst_port,
                        icmp_sent: allowed,
                    });
                }
            }
            Err(_) => out.events.push(StackEvent::Dropped("udp checksum/format error")),
        }
    }

    fn handle_icmp<R: Rng>(&mut self, pkt: &Ipv4Packet, now: SimTime, rng: &mut R, out: &mut StackOutput) {
        let Ok(msg) = IcmpMessage::decode(&pkt.payload) else {
            out.events.push(StackEvent::Dropped("icmp format error"));
            return;
        };
        match msg {
            IcmpMessage::EchoRequest { id, seq, payload } => {
                out.events.push(StackEvent::EchoRequest { from: pkt.header.src });
                if self.config.respond_to_ping {
                    let ipid = self.next_ipid(pkt.header.src, rng);
                    let reply = IcmpMessage::EchoReply { id, seq, payload }.into_packet(
                        pkt.header.dst,
                        pkt.header.src,
                        ipid,
                        self.config.ttl,
                    );
                    out.replies.push(reply);
                }
            }
            IcmpMessage::EchoReply { id, seq, .. } => {
                out.events.push(StackEvent::EchoReply { from: pkt.header.src, id, seq });
            }
            IcmpMessage::DestinationUnreachable { kind, .. } => {
                let quoted_ports = msg_quoted_ports(&pkt.payload);
                if let Unreachable::FragmentationNeeded { mtu } = kind {
                    // PMTUD: only honour errors that quote a packet we could
                    // actually have sent (destination of the quoted header).
                    if self.config.pmtud_enabled {
                        if let Some(quoted) = IcmpMessage::decode(&pkt.payload).ok().and_then(|m| m.quoted_header()) {
                            if self.owns(quoted.src) && self.pmtu.on_fragmentation_needed(quoted.dst, mtu, now) {
                                out.events.push(StackEvent::PmtuUpdate { dst: quoted.dst, mtu: mtu.max(MIN_IPV4_MTU) });
                            }
                        }
                    }
                }
                out.events.push(StackEvent::IcmpError { from: pkt.header.src, kind, quoted_ports });
            }
        }
    }
}

fn msg_quoted_ports(payload: &[u8]) -> Option<(u16, u16)> {
    IcmpMessage::decode(payload).ok().and_then(|m| m.quoted_udp_ports())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    const HOST: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);
    const PEER: Ipv4Addr = Ipv4Addr::new(123, 0, 0, 53);

    fn rng() -> ChaCha20Rng {
        ChaCha20Rng::seed_from_u64(1)
    }

    fn stack() -> HostStack {
        HostStack::with_defaults(vec![HOST])
    }

    fn udp_to(stack_addr: Ipv4Addr, port: u16, payload: &[u8], id: u16) -> Ipv4Packet {
        UdpDatagram::new(PEER, stack_addr, 53, port, payload.to_vec()).into_packet(id, 64)
    }

    #[test]
    fn delivers_to_open_port() {
        let mut s = stack();
        s.open_port(4444);
        let out = s.handle_packet(&udp_to(HOST, 4444, b"hi", 1), SimTime::ZERO, &mut rng());
        assert!(matches!(&out.events[0], StackEvent::Udp(d) if d.payload == b"hi"));
        assert!(out.replies.is_empty());
    }

    #[test]
    fn closed_port_generates_rate_limited_icmp() {
        let mut s = stack();
        let mut r = rng();
        let mut icmp_replies = 0;
        for i in 0..60 {
            let out = s.handle_packet(&udp_to(HOST, 5555, b"probe", i), SimTime::ZERO, &mut r);
            icmp_replies += out.replies.len();
        }
        // Linux default: only 50 ICMP errors in the same instant.
        assert_eq!(icmp_replies, 50);
        assert_eq!(s.icmp_limiter().suppressed, 10);
    }

    #[test]
    fn ignores_packets_for_other_hosts() {
        let mut s = stack();
        let other: Ipv4Addr = "9.9.9.9".parse().unwrap();
        let out = s.handle_packet(&udp_to(other, 53, b"x", 3), SimTime::ZERO, &mut rng());
        assert!(matches!(out.events[0], StackEvent::Dropped(_)));
    }

    #[test]
    fn answers_ping_when_configured() {
        let mut s = stack();
        let ping = IcmpMessage::EchoRequest { id: 9, seq: 1, payload: vec![] }.into_packet(PEER, HOST, 7, 64);
        let out = s.handle_packet(&ping, SimTime::ZERO, &mut rng());
        assert_eq!(out.replies.len(), 1);
        assert!(matches!(out.events[0], StackEvent::EchoRequest { .. }));
        let mut silent = HostStack::new(vec![HOST], StackConfig { respond_to_ping: false, ..Default::default() });
        let ping2 = IcmpMessage::EchoRequest { id: 9, seq: 1, payload: vec![] }.into_packet(PEER, HOST, 7, 64);
        assert!(silent.handle_packet(&ping2, SimTime::ZERO, &mut rng()).replies.is_empty());
    }

    #[test]
    fn pmtud_lowers_mtu_and_fragments_subsequent_sends() {
        let mut s = stack();
        let mut r = rng();
        // Host sends a large response; initially unfragmented (1500 MTU).
        let pkts = s.send_udp(UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), SimTime::ZERO, &mut r);
        assert_eq!(pkts.len(), 1);
        // Attacker spoofs an ICMP frag-needed quoting that packet with MTU 68.
        let ptb = IcmpMessage::fragmentation_needed(&pkts[0], 68).into_packet(PEER, HOST, 9, 64);
        let out = s.handle_packet(&ptb, SimTime::ZERO, &mut r);
        assert!(out.events.iter().any(|e| matches!(e, StackEvent::PmtuUpdate { mtu: 68, .. })));
        // The next large response is now fragmented down to the minimum MTU.
        let pkts2 = s.send_udp(UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), SimTime::ZERO, &mut r);
        assert!(pkts2.len() > 1);
        assert!(pkts2.iter().all(|p| p.wire_len() <= 68));
    }

    #[test]
    fn hardened_stack_ignores_tiny_ptb() {
        let cfg = StackConfig { min_accepted_mtu: 1280, ..Default::default() };
        let mut s = HostStack::new(vec![HOST], cfg);
        let mut r = rng();
        let pkts = s.send_udp(UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), SimTime::ZERO, &mut r);
        let ptb = IcmpMessage::fragmentation_needed(&pkts[0], 68).into_packet(PEER, HOST, 9, 64);
        let out = s.handle_packet(&ptb, SimTime::ZERO, &mut r);
        assert!(!out.events.iter().any(|e| matches!(e, StackEvent::PmtuUpdate { .. })));
        let pkts2 = s.send_udp(UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), SimTime::ZERO, &mut r);
        assert_eq!(pkts2.len(), 1);
    }

    #[test]
    fn ipid_policies_behave_as_documented() {
        let mut r = rng();
        let mut global =
            HostStack::new(vec![HOST], StackConfig { ipid_policy: IpIdPolicy::GlobalCounter, ..Default::default() });
        let a: Ipv4Addr = "1.1.1.1".parse().unwrap();
        let b: Ipv4Addr = "2.2.2.2".parse().unwrap();
        let id1 = global.next_ipid(a, &mut r);
        let id2 = global.next_ipid(b, &mut r);
        assert_eq!(id2, id1.wrapping_add(1), "global counter shared across destinations");

        let mut per_dest =
            HostStack::new(vec![HOST], StackConfig { ipid_policy: IpIdPolicy::PerDestination, ..Default::default() });
        let a1 = per_dest.next_ipid(a, &mut r);
        let _b1 = per_dest.next_ipid(b, &mut r);
        let a2 = per_dest.next_ipid(a, &mut r);
        assert_eq!(a2, a1.wrapping_add(1));

        let mut random =
            HostStack::new(vec![HOST], StackConfig { ipid_policy: IpIdPolicy::Random, ..Default::default() });
        let vals: Vec<u16> = (0..8).map(|_| random.next_ipid(a, &mut r)).collect();
        let increments = vals.windows(2).filter(|w| w[1] == w[0].wrapping_add(1)).count();
        assert!(increments < 7, "random IPIDs must not look like a counter");
    }

    #[test]
    fn fragment_filtering_countermeasure() {
        let cfg = StackConfig { accept_fragments: false, ..Default::default() };
        let mut s = HostStack::new(vec![HOST], cfg);
        s.open_port(1000);
        let big = UdpDatagram::new(PEER, HOST, 53, 1000, vec![0u8; 1200]).into_packet(5, 64);
        let frags = fragment_packet(&big, 576);
        let mut r = rng();
        for f in &frags {
            let out = s.handle_packet(f, SimTime::ZERO, &mut r);
            assert!(out.events.iter().all(|e| matches!(e, StackEvent::Dropped(_))));
        }
    }

    #[test]
    fn fragmented_udp_delivered_after_reassembly() {
        let mut s = stack();
        s.open_port(1000);
        let big = UdpDatagram::new(PEER, HOST, 53, 1000, vec![0xAB; 1200]).into_packet(5, 64);
        let frags = fragment_packet(&big, 576);
        let mut r = rng();
        let mut delivered = false;
        for f in &frags {
            let out = s.handle_packet(f, SimTime::ZERO, &mut r);
            for e in out.events {
                if let StackEvent::Udp(d) = e {
                    assert_eq!(d.payload.len(), 1200);
                    delivered = true;
                }
            }
        }
        assert!(delivered);
    }

    #[test]
    fn icmp_error_reports_quoted_ports() {
        let mut s = stack();
        let probe = UdpDatagram::new(HOST, PEER, 40000, 53, b"q".to_vec()).into_packet(3, 64);
        let err = IcmpMessage::port_unreachable(&probe).into_packet(PEER, HOST, 4, 64);
        let out = s.handle_packet(&err, SimTime::ZERO, &mut rng());
        assert!(out.events.iter().any(|e| matches!(
            e,
            StackEvent::IcmpError { kind: Unreachable::Port, quoted_ports: Some((40000, 53)), .. }
        )));
    }

    #[test]
    fn tcp_delivered_to_open_port_and_rst_for_closed() {
        use crate::tcp::{TcpFlags, TcpSegment};
        let mut s = stack();
        s.open_tcp_port(53);
        let syn = TcpSegment {
            src: PEER,
            dst: HOST,
            src_port: 40000,
            dst_port: 53,
            seq: 100,
            ack: 0,
            flags: TcpFlags::syn(),
            window: 512,
            payload: vec![],
        };
        let out = s.handle_packet(&syn.clone().into_packet(1, 64), SimTime::ZERO, &mut rng());
        assert!(matches!(&out.events[0], StackEvent::Tcp(seg) if seg.dst_port == 53 && seg.flags.syn));
        assert!(out.replies.is_empty(), "connection state lives in the socket, not the stack");

        // Closed port: RST, not ICMP — and not rate limited.
        let mut probe = syn;
        probe.dst_port = 9999;
        let out = s.handle_packet(&probe.into_packet(2, 64), SimTime::ZERO, &mut rng());
        assert!(matches!(out.events[0], StackEvent::TcpClosedPort { port: 9999, rst_sent: true, .. }));
        assert_eq!(out.replies.len(), 1);
        let rst = crate::tcp::TcpSegment::from_packet(&out.replies[0]).unwrap();
        assert!(rst.flags.rst);
    }

    #[test]
    fn corrupt_tcp_segment_dropped() {
        use crate::tcp::{TcpFlags, TcpSegment};
        let mut s = stack();
        s.open_tcp_port(53);
        let seg = TcpSegment {
            src: PEER,
            dst: HOST,
            src_port: 40000,
            dst_port: 53,
            seq: 1,
            ack: 0,
            flags: TcpFlags::syn(),
            window: 512,
            payload: vec![],
        };
        let mut pkt = seg.into_packet(1, 64);
        pkt.payload[16] = 0; // zero the checksum: illegal for TCP
        pkt.payload[17] = 0;
        let out = s.handle_packet(&pkt, SimTime::ZERO, &mut rng());
        assert!(matches!(out.events[0], StackEvent::Dropped("tcp checksum/format error")));
    }

    #[test]
    fn tcp_mss_follows_path_mtu() {
        let mut s = stack();
        let mut r = rng();
        assert_eq!(s.tcp_mss_for(PEER, SimTime::ZERO), 1460);
        // A fragmentation-needed message lowers the path MTU and the MSS.
        let pkts = s.send_udp(UdpDatagram::new(HOST, PEER, 53, 3333, vec![0u8; 1300]), SimTime::ZERO, &mut r);
        let ptb = IcmpMessage::fragmentation_needed(&pkts[0], 576).into_packet(PEER, HOST, 9, 64);
        s.handle_packet(&ptb, SimTime::ZERO, &mut r);
        assert_eq!(s.tcp_mss_for(PEER, SimTime::ZERO), 536);
    }

    #[test]
    fn tcp_port_space_is_independent_of_udp() {
        let mut s = stack();
        s.open_port(53);
        assert!(!s.is_tcp_port_open(53));
        s.open_tcp_port(53);
        assert!(s.is_tcp_port_open(53));
        s.close_tcp_port(53);
        assert!(!s.is_tcp_port_open(53));
        assert!(s.is_port_open(53), "closing the TCP port leaves UDP open");
    }

    #[test]
    fn port_management() {
        let mut s = stack();
        assert!(!s.is_port_open(53));
        s.open_port(53);
        assert!(s.is_port_open(53));
        assert_eq!(s.open_port_count(), 1);
        s.close_port(53);
        assert!(!s.is_port_open(53));
    }
}
