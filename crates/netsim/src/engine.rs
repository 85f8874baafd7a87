//! The discrete-event simulation engine.
//!
//! The engine owns all simulated hosts ([`Node`] implementations), delivers
//! IPv4 packets between them over [`Link`]s, enforces **egress filtering** of
//! spoofed source addresses, honours **route overrides** (the data-plane
//! effect of a successful BGP prefix hijack: traffic for a prefix is handed
//! to the hijacker instead of the legitimate owner), performs router-side MTU
//! handling (ICMP fragmentation-needed or in-transit fragmentation) and keeps
//! per-node [`TrafficStats`]. An installed [`FlightRecorder`] (none by
//! default) records every packet verdict and every phase span.
//!
//! Determinism: all randomness is drawn from a single seeded ChaCha20 RNG and
//! ties between simultaneous events are broken by insertion order, so a given
//! seed always reproduces the same packet interleaving.
//!
//! ## Scale: the arena host table and the time wheel
//!
//! Full [`Node`]s are boxed trait objects with their own stacks — ideal for
//! resolvers and attackers, far too heavy for a million background clients.
//! **Stub blocks** ([`Simulator::add_stub_block`]) register a contiguous
//! IPv4 range whose hosts live as plain [`StubState`] entries in one flat
//! arena, all driven by a single shared [`StubHandler`]. Address lookup for a
//! stub is arithmetic on the block base rather than a hash probe, stub
//! timers carry a typed [`StubTimer`] token namespaced by [`StubId`] (two
//! clients can never alias each other's retransmit timers), and delivered
//! packet buffers are recycled through [`crate::pool`]. The event queue
//! itself is a hierarchical [`TimeWheel`] keyed by
//! `(SimTime, seq)` — identical pop order to the old binary heap, `O(1)`
//! scheduling.

use crate::fasthash::FastHashMap;
use crate::flight::{FlightRecorder, PacketEvent, TraceVerdict};
use crate::ipv4::{Ipv4Packet, Protocol};
use crate::link::Link;
use crate::pool;
use crate::prefix::Prefix;
use crate::stats::TrafficStats;
use crate::time::{Duration, SimTime};
use crate::wheel::TimeWheel;
use crate::{frag, icmp::IcmpMessage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::any::Any;
use std::net::Ipv4Addr;

/// Identifier of a node registered with a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a stub client in the arena host table: a flat index across
/// all stub blocks, in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StubId(pub u32);

/// Object-safe downcasting support, blanket-implemented for every node type.
pub trait AsAny {
    /// `&self` as `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// `&mut self` as `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated host (or middlebox, or attacker machine).
///
/// Nodes react to delivered packets and to timers they scheduled earlier; all
/// side effects (sending packets, scheduling more timers) go through the
/// [`Ctx`] handed to each callback.
pub trait Node: AsAny + 'static {
    /// Called when a packet addressed (or routed) to this node is delivered.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet);

    /// Called when a timer previously scheduled via [`Ctx::set_timer`] fires.
    ///
    /// Timer tokens are namespaced per node: the engine carries the owning
    /// [`NodeId`] in the event, so two nodes using the same `u64` token can
    /// never receive each other's timers.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called once when the simulation starts (before any packet delivery),
    /// allowing nodes to arm initial timers.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

/// Side-effect collector handed to [`Node`] callbacks.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: NodeId,
    addrs: &'a [Ipv4Addr],
    rng: &'a mut ChaCha20Rng,
    outgoing: Vec<Ipv4Packet>,
    timers: Vec<(Duration, u64)>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node's own identifier.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Addresses owned by this node.
    pub fn addrs(&self) -> &[Ipv4Addr] {
        self.addrs
    }

    /// The node's primary address.
    pub fn primary_addr(&self) -> Ipv4Addr {
        self.addrs.first().copied().unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Queues a packet for transmission from this node.
    ///
    /// Spoofed source addresses are permitted here; whether they survive
    /// depends on the node's egress-filtering setting in the engine.
    pub fn send(&mut self, pkt: Ipv4Packet) {
        self.outgoing.push(pkt);
    }

    /// Schedules a timer `delay` from now with an opaque token. The token
    /// space is private to this node (see [`Node::on_timer`]).
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.timers.push((delay, token));
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut ChaCha20Rng {
        self.rng
    }
}

/// A typed timer token for stub clients.
///
/// The flat `u64` tokens of [`Ctx::set_timer`] are safe for full nodes
/// because the engine namespaces them by [`NodeId`]; a farm of 10⁶ stub
/// clients gets the same guarantee structurally: every stub timer event
/// carries the owning [`StubId`] plus this typed token, so clients cannot
/// alias each other's retransmit timers no matter what `kind`/`data` values
/// the shared handler picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StubTimer {
    /// Handler-defined timer class (e.g. "next query", "retransmit").
    pub kind: u8,
    /// Handler-defined payload (e.g. a transaction id or name index).
    pub data: u32,
}

/// Per-stub-client state: one flat arena entry, no allocation, no `Box`.
#[derive(Debug, Clone, Copy)]
pub struct StubState {
    /// The client's IPv4 address (block base + index).
    pub addr: Ipv4Addr,
    /// Packets this stub has sent.
    pub sent: u32,
    /// Packets delivered to this stub.
    pub received: u32,
    /// Handler-defined failure counter (timeouts, SERVFAILs...).
    pub failed: u32,
    /// Handler-defined scratch word (e.g. outstanding query txid/state).
    pub data: u64,
}

/// The single behaviour shared by every stub client in a simulation.
///
/// Unlike [`Node`], a handler is registered once per simulator and invoked
/// with the per-client [`StubState`] — a million clients cost a million arena
/// entries, not a million boxed trait objects.
pub trait StubHandler: 'static {
    /// Called once per stub when the simulation starts (after all full
    /// nodes' [`Node::on_start`], in arena order).
    fn on_start(&mut self, ctx: &mut StubCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a timer scheduled via [`StubCtx::set_timer`] fires for
    /// this stub.
    fn on_timer(&mut self, ctx: &mut StubCtx<'_>, timer: StubTimer) {
        let _ = (ctx, timer);
    }

    /// Called when a packet is delivered to this stub. The packet is
    /// borrowed: its buffers are recycled by the engine afterwards.
    fn on_packet(&mut self, ctx: &mut StubCtx<'_>, pkt: &Ipv4Packet);
}

/// Side-effect collector handed to [`StubHandler`] callbacks.
pub struct StubCtx<'a> {
    now: SimTime,
    id: StubId,
    state: &'a mut StubState,
    rng: &'a mut ChaCha20Rng,
    outgoing: &'a mut Vec<Ipv4Packet>,
    timers: &'a mut Vec<(Duration, StubTimer)>,
}

impl<'a> StubCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This stub's identifier.
    pub fn id(&self) -> StubId {
        self.id
    }

    /// This stub's IPv4 address.
    pub fn addr(&self) -> Ipv4Addr {
        self.state.addr
    }

    /// This stub's state.
    pub fn state(&self) -> &StubState {
        self.state
    }

    /// Mutable access to this stub's state.
    pub fn state_mut(&mut self) -> &mut StubState {
        self.state
    }

    /// Queues a packet for transmission from this stub.
    pub fn send(&mut self, pkt: Ipv4Packet) {
        self.outgoing.push(pkt);
    }

    /// Schedules a typed timer `delay` from now for this stub.
    pub fn set_timer(&mut self, delay: Duration, timer: StubTimer) {
        self.timers.push((delay, timer));
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut ChaCha20Rng {
        self.rng
    }
}

/// A trivial node that answers ICMP echo requests and otherwise ignores
/// traffic. Useful as a placeholder destination in examples and tests.
#[derive(Debug, Default)]
pub struct EchoNode {
    /// Number of UDP datagrams this node has seen.
    pub udp_seen: u64,
    /// Number of echo requests answered.
    pub pings_answered: u64,
}

impl Node for EchoNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        match pkt.header.protocol {
            Protocol::Udp => self.udp_seen += 1,
            Protocol::Icmp => {
                if let Ok(IcmpMessage::EchoRequest { id, seq, payload }) = IcmpMessage::decode(&pkt.payload) {
                    self.pings_answered += 1;
                    let reply = IcmpMessage::EchoReply { id, seq, payload }.into_packet(
                        pkt.header.dst,
                        pkt.header.src,
                        ctx.rng().gen(),
                        64,
                    );
                    ctx.send(reply);
                }
            }
            _ => {}
        }
    }
}

/// A node that swallows every packet (a blackhole).
#[derive(Debug, Default)]
pub struct SinkNode {
    /// Packets swallowed.
    pub received: u64,
}

impl Node for SinkNode {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Ipv4Packet) {
        self.received += 1;
    }
}

struct NodeSlot {
    name: String,
    node: Box<dyn Node>,
    addrs: Vec<Ipv4Addr>,
    egress_filtering: bool,
    stats: TrafficStats,
}

/// A contiguous range of arena-hosted stub clients.
struct StubBlock {
    name: String,
    /// Block base address as a big-endian u32.
    base: u32,
    /// Number of clients in the block.
    count: u32,
    /// Arena index of the first client.
    first: u32,
    /// Aggregate traffic counters for the whole block.
    stats: TrafficStats,
}

/// A host that sends or receives packets: the sender in stats, egress
/// filtering and recorded packet events, the receiver in recorded events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Host {
    /// A full node.
    Node(NodeId),
    /// An arena-hosted stub client.
    Stub(StubId),
    /// The network itself: ICMP errors a link router originates (PTB).
    Router,
}

enum EventKind {
    Deliver { to: Host, from: Host, pkt: Ipv4Packet },
    Timer { node: NodeId, token: u64 },
    StubTimer { stub: StubId, timer: StubTimer },
}

/// Engine-level event and packet-verdict counters, updated on the same code
/// paths that decide each [`TraceVerdict`]. Unlike the [`FlightRecorder`]
/// these are always on (a handful of integer adds per packet) and unlike the pool
/// counters they live on the simulator itself, so they are deterministic per
/// seed and safe to fold into shard-merged telemetry snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events popped from the time wheel by [`Simulator::step`].
    pub events_popped: u64,
    /// Packets delivered to a node or stub client.
    pub delivered: u64,
    /// Packets dropped because no host owns the destination address.
    pub no_route: u64,
    /// Packets dropped by link loss.
    pub link_loss: u64,
    /// Spoofed packets dropped by egress filtering.
    pub egress_filtered: u64,
    /// Packets dropped for exceeding the link MTU with DF set.
    pub mtu_exceeded: u64,
}

/// The simulation engine. See the [module documentation](self) for an overview.
pub struct Simulator {
    nodes: Vec<NodeSlot>,
    addr_map: FastHashMap<Ipv4Addr, NodeId>,
    route_overrides: Vec<(Prefix, NodeId)>,
    links: FastHashMap<(NodeId, NodeId), Link>,
    default_link: Link,
    stub_link: Link,
    stub_blocks: Vec<StubBlock>,
    stubs: Vec<StubState>,
    stub_handler: Option<Box<dyn StubHandler>>,
    stub_out_scratch: Vec<Ipv4Packet>,
    stub_timer_scratch: Vec<(Duration, StubTimer)>,
    events: TimeWheel<EventKind>,
    now: SimTime,
    seq: u64,
    rng: ChaCha20Rng,
    recorder: Option<FlightRecorder>,
    counters: EngineCounters,
    started: bool,
}

impl Simulator {
    /// Creates an empty simulator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            addr_map: FastHashMap::default(),
            route_overrides: Vec::new(),
            links: FastHashMap::default(),
            default_link: Link::default(),
            stub_link: Link::default(),
            stub_blocks: Vec::new(),
            stubs: Vec::new(),
            stub_handler: None,
            stub_out_scratch: Vec::new(),
            stub_timer_scratch: Vec::new(),
            events: TimeWheel::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: ChaCha20Rng::seed_from_u64(seed),
            recorder: None,
            counters: EngineCounters::default(),
            started: false,
        }
    }

    /// Registers a node owning the given addresses. Egress filtering is
    /// disabled by default (the attacker model assumes a non-filtering
    /// network; victims can enable it via [`Simulator::set_egress_filtering`]).
    ///
    /// # Panics
    ///
    /// Panics when an address is already owned by another node or falls
    /// inside a registered stub block — a silently stolen address misroutes
    /// traffic with no diagnostic, so duplicate registration is a bug in the
    /// scenario, not a tolerable condition.
    pub fn add_node(&mut self, name: &str, addrs: Vec<Ipv4Addr>, node: impl Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        for &a in &addrs {
            if let Some(owner) = self.addr_map.get(&a) {
                panic!(
                    "duplicate address registration: {a} is owned by node {:?} but {name:?} also claims it",
                    self.nodes[owner.0].name
                );
            }
            if let Some(stub) = self.stub_lookup(a) {
                let block = &self.stub_blocks[self.block_of_stub(stub)];
                panic!(
                    "duplicate address registration: {a} belongs to stub block {:?} but node {name:?} also claims it",
                    block.name
                );
            }
            self.addr_map.insert(a, id);
        }
        self.nodes.push(NodeSlot {
            name: name.to_string(),
            node: Box::new(node),
            addrs,
            egress_filtering: false,
            stats: TrafficStats::default(),
        });
        id
    }

    /// Registers a contiguous block of `count` stub clients with addresses
    /// `base .. base + count`, returning the [`StubId`] of the first. The
    /// clients share the simulator-wide [`StubHandler`] (see
    /// [`Simulator::set_stub_handler`]).
    ///
    /// # Panics
    ///
    /// Panics when the range wraps the IPv4 address space, overlaps an
    /// existing stub block, or contains an address already owned by a node.
    pub fn add_stub_block(&mut self, name: &str, base: Ipv4Addr, count: u32) -> StubId {
        assert!(count > 0, "stub block {name:?} must hold at least one client");
        let base_u = u32::from(base);
        assert!(base_u.checked_add(count - 1).is_some(), "stub block {name:?} wraps the IPv4 address space");
        for block in &self.stub_blocks {
            let overlaps = base_u < block.base.saturating_add(block.count) && block.base < base_u.saturating_add(count);
            if overlaps {
                panic!("stub block {name:?} overlaps existing stub block {:?}", block.name);
            }
        }
        for (&addr, owner) in &self.addr_map {
            let a = u32::from(addr);
            if a >= base_u && a - base_u < count {
                panic!(
                    "duplicate address registration: {addr} is owned by node {:?} but stub block {name:?} covers it",
                    self.nodes[owner.0].name
                );
            }
        }
        let first = self.stubs.len() as u32;
        self.stubs.reserve(count as usize);
        for i in 0..count {
            self.stubs.push(StubState { addr: Ipv4Addr::from(base_u + i), sent: 0, received: 0, failed: 0, data: 0 });
        }
        self.stub_blocks.push(StubBlock {
            name: name.to_string(),
            base: base_u,
            count,
            first,
            stats: TrafficStats::default(),
        });
        StubId(first)
    }

    /// Installs the behaviour shared by every stub client.
    pub fn set_stub_handler(&mut self, handler: impl StubHandler) {
        self.stub_handler = Some(Box::new(handler));
    }

    /// Sets the link parameters used for all traffic to or from stub clients.
    pub fn set_stub_link(&mut self, link: Link) {
        self.stub_link = link;
    }

    /// Number of stub clients across all blocks.
    pub fn stub_count(&self) -> usize {
        self.stubs.len()
    }

    /// State of one stub client.
    pub fn stub_state(&self, id: StubId) -> &StubState {
        &self.stubs[id.0 as usize]
    }

    /// All stub states, in arena order.
    pub fn stub_states(&self) -> &[StubState] {
        &self.stubs
    }

    /// Aggregate traffic counters of the stub block containing `id`.
    pub fn stub_block_stats(&self, id: StubId) -> &TrafficStats {
        &self.stub_blocks[self.block_of_stub(id)].stats
    }

    /// The stub client owning `addr`, if any.
    pub fn stub_lookup(&self, addr: Ipv4Addr) -> Option<StubId> {
        let a = u32::from(addr);
        // A simulation holds a handful of blocks at most: a linear scan beats
        // a hash probe and needs no ordering invariant.
        for block in &self.stub_blocks {
            if a >= block.base && a - block.base < block.count {
                return Some(StubId(block.first + (a - block.base)));
            }
        }
        None
    }

    fn block_of_stub(&self, id: StubId) -> usize {
        self.stub_blocks.iter().position(|b| id.0 >= b.first && id.0 - b.first < b.count).expect("stub id out of range")
    }

    /// Enables or disables egress filtering (BCP 38) for a node: when enabled,
    /// packets whose source address the node does not own are dropped.
    pub fn set_egress_filtering(&mut self, id: NodeId, enabled: bool) {
        self.nodes[id.0].egress_filtering = enabled;
    }

    /// Sets the default link used between nodes with no explicit link.
    pub fn set_default_link(&mut self, link: Link) {
        self.default_link = link;
    }

    /// Installs a (bidirectional) link between two nodes.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        self.links.insert((a, b), link);
        self.links.insert((b, a), link);
    }

    /// Installs an asymmetric link from `a` to `b` only.
    pub fn connect_directed(&mut self, a: NodeId, b: NodeId, link: Link) {
        self.links.insert((a, b), link);
    }

    /// Installs a data-plane route override: traffic destined to `prefix` is
    /// delivered to `node` regardless of address ownership. This is how a
    /// successful BGP (sub-)prefix hijack manifests to the hosts. More
    /// specific prefixes win; equal-length prefixes favour the most recently
    /// installed override.
    pub fn set_route_override(&mut self, prefix: Prefix, node: NodeId) {
        self.route_overrides.push((prefix, node));
    }

    /// Removes all route overrides covering the given prefix exactly.
    pub fn clear_route_override(&mut self, prefix: Prefix) {
        self.route_overrides.retain(|(p, _)| *p != prefix);
    }

    /// Removes every route override (hijack withdrawn).
    pub fn clear_all_route_overrides(&mut self) {
        self.route_overrides.clear();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The name a node was registered with.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Traffic counters of a node.
    pub fn stats(&self, id: NodeId) -> &TrafficStats {
        &self.nodes[id.0].stats
    }

    /// Engine-wide event and packet-verdict counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Exports the engine's deterministic counters into a telemetry snapshot
    /// under `engine.*` (see the naming convention in the [`telemetry`]
    /// crate). Counters add across shards; queue/wheel occupancy export as
    /// max-merged gauges. The thread-local [`pool`] counters are deliberately
    /// **not** exported here: campaign workers share threads across shards,
    /// so raw pool counts depend on worker count and would break the
    /// byte-identical-merge contract.
    pub fn export_metrics(&self, m: &mut telemetry::MetricsSnapshot) {
        m.incr("engine.events.popped", self.counters.events_popped);
        m.gauge_max("engine.events.pending", self.events.len() as u64);
        for (level, occ) in self.events.level_occupancy().iter().enumerate() {
            m.gauge_max(&format!("engine.wheel.level{level}.occupancy"), u64::from(*occ));
        }
        m.incr("engine.packets.delivered", self.counters.delivered);
        m.incr("engine.packets.no_route", self.counters.no_route);
        m.incr("engine.packets.link_loss", self.counters.link_loss);
        m.incr("engine.packets.egress_filtered", self.counters.egress_filtered);
        m.incr("engine.packets.mtu_exceeded", self.counters.mtu_exceeded);
        m.incr("engine.trace.dropped", self.recorder.as_ref().map_or(0, FlightRecorder::dropped));
    }

    /// Installs a flight recorder, replacing any installed one. From then on
    /// every packet the engine delivers or drops is recorded into it, beside
    /// the phase spans drivers open with [`span!`](crate::span).
    pub fn install_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(recorder);
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Opens a span at the current sim time in the installed recorder; a
    /// no-op, `detail` unformatted, when none is. Use the [`span!`](crate::span)
    /// macro, which builds `detail`.
    pub fn enter_span(&mut self, name: &'static str, detail: std::fmt::Arguments<'_>) {
        if let Some(rec) = &mut self.recorder {
            rec.enter(self.now, name, detail.to_string());
        }
    }

    /// Closes the span `name` at the current sim time in the installed
    /// recorder, if any.
    pub fn exit_span(&mut self, name: &'static str) {
        if let Some(rec) = &mut self.recorder {
            rec.exit(self.now, name);
        }
    }

    /// The name a host was registered under: the node name, the stub block
    /// name plus the client's index in its block, or `router`.
    pub fn host_name(&self, host: Host) -> String {
        match host {
            Host::Node(id) => self.nodes[id.0].name.clone(),
            Host::Stub(id) => {
                let b = &self.stub_blocks[self.block_of_stub(id)];
                format!("{}{}", b.name, id.0 - b.first)
            }
            Host::Router => "router".to_string(),
        }
    }

    /// Typed shared access to a node.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        // Go through `as_ref()` so the blanket `AsAny` impl resolves on the
        // concrete node type rather than on the `Box<dyn Node>` wrapper.
        self.nodes[id.0].node.as_ref().as_any().downcast_ref::<T>()
    }

    /// Typed exclusive access to a node.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0].node.as_mut().as_any_mut().downcast_mut::<T>()
    }

    /// Which node currently receives traffic for `addr`, considering route
    /// overrides first and address ownership second. Stub clients are not
    /// visible here; use [`Simulator::stub_lookup`] for them.
    pub fn route_lookup(&self, addr: Ipv4Addr) -> Option<NodeId> {
        let mut best: Option<(u8, usize, NodeId)> = None;
        for (idx, (prefix, node)) in self.route_overrides.iter().enumerate() {
            if prefix.contains(addr) {
                let candidate = (prefix.len, idx, *node);
                if best.is_none_or(|b| (candidate.0, candidate.1) >= (b.0, b.1)) {
                    best = Some(candidate);
                }
            }
        }
        if let Some((_, _, node)) = best {
            return Some(node);
        }
        self.addr_map.get(&addr).copied()
    }

    /// Full routing including the stub arena: overrides, then node address
    /// ownership, then stub blocks.
    fn host_lookup(&self, addr: Ipv4Addr) -> Option<Host> {
        if let Some(node) = self.route_lookup(addr) {
            return Some(Host::Node(node));
        }
        self.stub_lookup(addr).map(Host::Stub)
    }

    /// Schedules a timer for a node, from outside the node itself.
    pub fn schedule_timer(&mut self, node: NodeId, delay: Duration, token: u64) {
        let time = self.now + delay;
        self.push_event(time, EventKind::Timer { node, token });
    }

    /// Schedules a typed timer for a stub client, from outside the handler.
    pub fn schedule_stub_timer(&mut self, stub: StubId, delay: Duration, timer: StubTimer) {
        let time = self.now + delay;
        self.push_event(time, EventKind::StubTimer { stub, timer });
    }

    /// Injects a packet as if `from` had sent it right now.
    pub fn inject(&mut self, from: NodeId, pkt: Ipv4Packet) {
        self.dispatch(from, pkt);
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(time, seq, kind);
    }

    /// Routes and schedules one packet sent by a full node.
    fn dispatch(&mut self, from: NodeId, pkt: Ipv4Packet) {
        self.dispatch_from(Host::Node(from), pkt);
    }

    /// Routes and schedules one packet from any origin.
    fn dispatch_from(&mut self, from: Host, pkt: Ipv4Packet) {
        let wire_len = pkt.wire_len();
        let protocol = pkt.header.protocol;
        match from {
            Host::Node(id) => {
                self.nodes[id.0].stats.record_sent(protocol, wire_len);
                // Egress filtering of spoofed sources (BCP 38).
                if self.nodes[id.0].egress_filtering && !self.nodes[id.0].addrs.contains(&pkt.header.src) {
                    self.nodes[id.0].stats.spoofed_filtered += 1;
                    self.counters.egress_filtered += 1;
                    self.record(from, None, &pkt, TraceVerdict::EgressFiltered);
                    pool::give(pkt.payload);
                    return;
                }
            }
            Host::Stub(id) => {
                let b = self.block_of_stub(id);
                self.stub_blocks[b].stats.record_sent(protocol, wire_len);
                self.stubs[id.0 as usize].sent += 1;
            }
            Host::Router => {}
        }

        // Routing (route overrides model hijacked prefixes).
        let Some(to) = self.host_lookup(pkt.header.dst) else {
            self.count_transit_drop(from, TraceVerdict::NoRoute);
            self.record(from, None, &pkt, TraceVerdict::NoRoute);
            pool::give(pkt.payload);
            return;
        };
        let link = self.link_between(from, to);

        // Random loss.
        if link.loss > 0.0 && self.rng.gen::<f64>() < link.loss {
            self.count_transit_drop(from, TraceVerdict::LinkLoss);
            self.record(from, Some(to), &pkt, TraceVerdict::LinkLoss);
            pool::give(pkt.payload);
            return;
        }

        // MTU handling by the "router" on the link.
        if pkt.wire_len() > usize::from(link.mtu) {
            if pkt.header.dont_fragment || !link.fragment_in_transit {
                self.count_transit_drop(from, TraceVerdict::MtuExceeded);
                self.record(from, Some(to), &pkt, TraceVerdict::MtuExceeded);
                // Generate an ICMP fragmentation-needed back to the sender,
                // originated "by the network" (source = destination address of
                // the oversized packet, a common real-world pattern for
                // unnumbered router interfaces).
                let ptb = IcmpMessage::fragmentation_needed(&pkt, link.mtu).into_packet(
                    pkt.header.dst,
                    pkt.header.src,
                    self.rng.gen(),
                    64,
                );
                pool::give(pkt.payload);
                let time = self.now + link.latency;
                if from != Host::Router {
                    self.push_event(time, EventKind::Deliver { to: from, from: Host::Router, pkt: ptb });
                }
                return;
            }
            // Fragment in transit.
            for frag in frag::fragment_packet(&pkt, link.mtu) {
                let time = self.now + link.latency;
                self.push_event(time, EventKind::Deliver { to, from, pkt: frag });
            }
            pool::give(pkt.payload);
            return;
        }

        let time = self.now + link.latency;
        self.push_event(time, EventKind::Deliver { to, from, pkt });
    }

    /// Records the packet's verdict into the installed recorder, if any.
    fn record(&mut self, from: Host, to: Option<Host>, pkt: &Ipv4Packet, verdict: TraceVerdict) {
        if let Some(rec) = &mut self.recorder {
            rec.record_packet(PacketEvent::new(self.now, from, to, pkt, verdict));
        }
    }

    /// Attributes a transit drop to the sender's stats, broken down by the
    /// verdict that caused it, and bumps the engine-wide verdict counter.
    fn count_transit_drop(&mut self, from: Host, verdict: TraceVerdict) {
        match verdict {
            TraceVerdict::NoRoute => self.counters.no_route += 1,
            TraceVerdict::LinkLoss => self.counters.link_loss += 1,
            TraceVerdict::MtuExceeded => self.counters.mtu_exceeded += 1,
            TraceVerdict::Delivered | TraceVerdict::EgressFiltered => {
                debug_assert!(false, "not a transit-drop verdict: {verdict}");
            }
        }
        let stats = match from {
            Host::Node(id) => &mut self.nodes[id.0].stats,
            Host::Stub(id) => {
                let b = self.block_of_stub(id);
                &mut self.stub_blocks[b].stats
            }
            Host::Router => return,
        };
        stats.dropped_in_transit += 1;
        match verdict {
            TraceVerdict::NoRoute => stats.no_route += 1,
            TraceVerdict::LinkLoss => stats.link_loss += 1,
            TraceVerdict::MtuExceeded => stats.mtu_exceeded += 1,
            _ => {}
        }
    }

    /// Attributes a delivered packet to the sender's verdict breakdown.
    fn count_delivered(&mut self, from: Host) {
        self.counters.delivered += 1;
        match from {
            Host::Node(id) => self.nodes[id.0].stats.delivered += 1,
            Host::Stub(id) => {
                let b = self.block_of_stub(id);
                self.stub_blocks[b].stats.delivered += 1;
            }
            Host::Router => {}
        }
    }

    /// The link governing a flow. Node-to-node flows use the configured link
    /// table; any flow touching a stub client uses the stub link.
    fn link_between(&self, from: Host, to: Host) -> Link {
        match (from, to) {
            (Host::Node(a), Host::Node(b)) => *self.links.get(&(a, b)).unwrap_or(&self.default_link),
            (Host::Router, Host::Node(_)) => self.default_link,
            _ => self.stub_link,
        }
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            let id = NodeId(idx);
            self.with_node_ctx(id, |node, ctx| node.on_start(ctx));
        }
        if self.stub_handler.is_some() {
            for idx in 0..self.stubs.len() {
                self.with_stub_ctx(StubId(idx as u32), |handler, ctx| handler.on_start(ctx));
            }
        }
    }

    /// Runs a node callback with a freshly built [`Ctx`], then dispatches the
    /// side effects it produced.
    fn with_node_ctx(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        let (outgoing, timers) = {
            let Simulator { nodes, rng, now, .. } = self;
            let slot = &mut nodes[id.0];
            let mut ctx =
                Ctx { now: *now, self_id: id, addrs: &slot.addrs, rng, outgoing: Vec::new(), timers: Vec::new() };
            f(slot.node.as_mut(), &mut ctx);
            (ctx.outgoing, ctx.timers)
        };
        for pkt in outgoing {
            self.dispatch(id, pkt);
        }
        for (delay, token) in timers {
            let time = self.now + delay;
            self.push_event(time, EventKind::Timer { node: id, token });
        }
    }

    /// Runs a stub-handler callback with a freshly built [`StubCtx`], then
    /// dispatches the side effects. The outgoing/timer scratch vectors are
    /// reused across calls, so a quiescent farm schedules with zero
    /// steady-state allocation.
    fn with_stub_ctx(&mut self, id: StubId, f: impl FnOnce(&mut dyn StubHandler, &mut StubCtx<'_>)) {
        let mut outgoing = std::mem::take(&mut self.stub_out_scratch);
        let mut timers = std::mem::take(&mut self.stub_timer_scratch);
        {
            let Simulator { stub_handler, stubs, rng, now, .. } = self;
            let handler = stub_handler.as_mut().expect("stub block registered without a StubHandler");
            let mut ctx = StubCtx {
                now: *now,
                id,
                state: &mut stubs[id.0 as usize],
                rng,
                outgoing: &mut outgoing,
                timers: &mut timers,
            };
            f(handler.as_mut(), &mut ctx);
        }
        for pkt in outgoing.drain(..) {
            self.dispatch_from(Host::Stub(id), pkt);
        }
        for (delay, timer) in timers.drain(..) {
            let time = self.now + delay;
            self.push_event(time, EventKind::StubTimer { stub: id, timer });
        }
        self.stub_out_scratch = outgoing;
        self.stub_timer_scratch = timers;
    }

    fn deliver(&mut self, to: Host, from: Host, pkt: Ipv4Packet) {
        self.count_delivered(from);
        self.record(from, Some(to), &pkt, TraceVerdict::Delivered);
        match to {
            Host::Node(id) => {
                self.nodes[id.0].stats.record_received(pkt.header.protocol, pkt.wire_len());
                self.with_node_ctx(id, |node, ctx| node.on_packet(ctx, pkt));
            }
            Host::Stub(id) => {
                let b = self.block_of_stub(id);
                self.stub_blocks[b].stats.record_received(pkt.header.protocol, pkt.wire_len());
                self.stubs[id.0 as usize].received += 1;
                self.with_stub_ctx(id, |handler, ctx| handler.on_packet(ctx, &pkt));
                // Stub deliveries borrow the packet, so the engine still owns
                // the buffer here and can recycle it.
                pool::give(pkt.payload);
            }
            Host::Router => unreachable!("the network originates packets but never receives them"),
        }
    }

    /// Processes a single event. Returns `false` when the event queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_nodes();
        let Some((time, _seq, kind)) = self.events.pop() else {
            return false;
        };
        self.counters.events_popped += 1;
        self.now = time;
        match kind {
            EventKind::Deliver { to, from, pkt } => self.deliver(to, from, pkt),
            EventKind::Timer { node, token } => {
                self.with_node_ctx(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::StubTimer { stub, timer } => {
                self.with_stub_ctx(stub, |h, ctx| h.on_timer(ctx, timer));
            }
        }
        true
    }

    /// Runs until the event queue is exhausted.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the event queue is exhausted or the clock passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_nodes();
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` of simulated time from the current clock.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::UdpDatagram;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    fn udp(src: Ipv4Addr, dst: Ipv4Addr, len: usize) -> Ipv4Packet {
        UdpDatagram::new(src, dst, 1111, 2222, vec![0u8; len]).into_packet(1, 64)
    }

    #[test]
    fn delivers_between_nodes() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", vec![A], EchoNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        sim.connect(a, b, Link::with_latency(Duration::from_millis(7)));
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
        assert_eq!(sim.stats(a).udp_sent, 1);
        assert_eq!(sim.now(), SimTime::ZERO + Duration::from_millis(7));
        assert_eq!(sim.node_ref::<EchoNode>(b).unwrap().udp_seen, 1);
    }

    #[test]
    fn echo_node_answers_ping() {
        let mut sim = Simulator::new(2);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        sim.connect(a, b, Link::default());
        let ping = IcmpMessage::EchoRequest { id: 1, seq: 1, payload: vec![] }.into_packet(A, B, 5, 64);
        sim.inject(a, ping);
        sim.run();
        assert_eq!(sim.node_ref::<EchoNode>(b).unwrap().pings_answered, 1);
        assert_eq!(sim.node_ref::<SinkNode>(a).unwrap().received, 1, "echo reply came back");
        assert_eq!(sim.stats(a).icmp_received, 1);
    }

    #[test]
    fn no_route_packets_are_dropped() {
        let mut sim = Simulator::new(3);
        sim.install_recorder(FlightRecorder::default());
        let a = sim.add_node("a", vec![A], EchoNode::default());
        sim.inject(a, udp(A, "99.99.99.99".parse().unwrap(), 10));
        sim.run();
        assert_eq!(sim.stats(a).dropped_in_transit, 1);
        assert_eq!(sim.stats(a).no_route, 1);
        assert_eq!(sim.counters().no_route, 1);
        let recorded: Vec<_> =
            sim.recorder().unwrap().packets().map(|p| (p.from, p.to, p.verdict, p.header.protocol)).collect();
        assert_eq!(recorded, vec![(Host::Node(a), None, TraceVerdict::NoRoute, Protocol::Udp)]);
    }

    #[test]
    fn counters_track_verdicts_and_export() {
        let mut sim = Simulator::new(30);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().mtu(576));
        sim.set_egress_filtering(a, true);
        sim.inject(a, udp(A, B, 10)); // delivered
        sim.inject(a, udp(C, B, 10)); // egress-filtered (spoofed)
        sim.inject(a, udp(A, "99.99.99.99".parse().unwrap(), 10)); // no-route
        let mut big = udp(A, B, 1000);
        big.header.dont_fragment = true;
        sim.inject(a, big); // mtu-exceeded (+ ICMP PTB delivered back)
        sim.run();
        let c = sim.counters();
        assert_eq!(c.delivered, 2, "the UDP datagram and the PTB error");
        assert_eq!(c.egress_filtered, 1);
        assert_eq!(c.no_route, 1);
        assert_eq!(c.mtu_exceeded, 1);
        assert_eq!(c.link_loss, 0);
        assert!(c.events_popped >= 2);
        assert_eq!(sim.stats(a).delivered, 1, "PTB comes from the router, not node a");
        assert_eq!(sim.stats(a).mtu_exceeded, 1);

        let mut m = telemetry::MetricsSnapshot::new();
        sim.export_metrics(&mut m);
        assert_eq!(m.counter("engine.packets.delivered"), 2);
        assert_eq!(m.counter("engine.packets.egress_filtered"), 1);
        assert_eq!(m.counter("engine.packets.no_route"), 1);
        assert_eq!(m.counter("engine.packets.mtu_exceeded"), 1);
        assert_eq!(m.counter("engine.events.popped"), c.events_popped);
        assert_eq!(m.gauge("engine.events.pending"), 0);
        assert!(m.counter("engine.packets.link_loss") == 0);
        assert!(m.render().contains("engine.wheel.level0.occupancy"));
    }

    #[test]
    fn new_simulators_record_nothing() {
        // Off unless asked: a run on a fresh simulator leaves no recorder,
        // and the span calls of the attack drivers are no-ops.
        let mut sim = Simulator::new(4);
        let a = sim.add_node("a", vec![A], EchoNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        sim.connect(a, b, Link::default());
        crate::span!(sim, "test.phase", "detail {}", 1);
        sim.inject(a, udp(A, B, 10));
        sim.run();
        sim.exit_span("test.phase");
        assert_eq!(sim.counters().delivered, 1);
        assert!(sim.recorder().is_none());
    }

    #[test]
    fn recorder_sees_every_verdict_and_exports_its_drops() {
        fn run(recorder: Option<FlightRecorder>) -> (Simulator, NodeId, NodeId) {
            let mut sim = Simulator::new(30);
            if let Some(rec) = recorder {
                sim.install_recorder(rec);
            }
            let a = sim.add_node("a", vec![A], SinkNode::default());
            let b = sim.add_node("b", vec![B], SinkNode::default());
            sim.connect(a, b, Link::default().mtu(576));
            sim.set_egress_filtering(a, true);
            sim.inject(a, udp(A, B, 10));
            sim.inject(a, udp(C, B, 10));
            sim.inject(a, udp(A, "99.99.99.99".parse().unwrap(), 10));
            let mut big = udp(A, B, 1000);
            big.header.dont_fragment = true;
            sim.inject(a, big);
            sim.run();
            (sim, a, b)
        }
        let (sim, a, b) = run(Some(FlightRecorder::default()));
        let seen: Vec<_> = sim.recorder().unwrap().packets().map(|p| (p.from, p.to, p.verdict)).collect();
        let (na, nb) = (Host::Node(a), Host::Node(b));
        assert_eq!(
            seen,
            vec![
                (na, None, TraceVerdict::EgressFiltered),
                (na, None, TraceVerdict::NoRoute),
                (na, Some(nb), TraceVerdict::MtuExceeded),
                (na, Some(nb), TraceVerdict::Delivered),
                (Host::Router, Some(na), TraceVerdict::Delivered),
            ]
        );
        assert_eq!(sim.host_name(Host::Router), "router");

        let dropped = |sim: &Simulator| {
            let mut m = telemetry::MetricsSnapshot::new();
            sim.export_metrics(&mut m);
            m.counter("engine.trace.dropped")
        };
        assert_eq!(dropped(&run(None).0), 0, "no recorder, nothing dropped");
        assert_eq!(dropped(&sim), 0);
        let (small, ..) = run(Some(FlightRecorder::new(2)));
        assert_eq!(dropped(&small), 3, "a 2-event ring dropped three of five packets");
        assert_eq!(small.counters(), sim.counters(), "recording does not change the run");
    }

    #[test]
    #[should_panic(expected = "duplicate address registration")]
    fn duplicate_address_registration_panics() {
        let mut sim = Simulator::new(3);
        sim.add_node("first-owner", vec![A], EchoNode::default());
        sim.add_node("second-owner", vec![A], EchoNode::default());
    }

    #[test]
    #[should_panic(expected = "stub block")]
    fn node_address_inside_stub_block_panics() {
        let mut sim = Simulator::new(3);
        sim.add_stub_block("farm", "100.64.0.0".parse().unwrap(), 16);
        sim.add_node("squatter", vec!["100.64.0.5".parse().unwrap()], EchoNode::default());
    }

    #[test]
    #[should_panic(expected = "overlaps existing stub block")]
    fn overlapping_stub_blocks_panic() {
        let mut sim = Simulator::new(3);
        sim.add_stub_block("farm-a", "100.64.0.0".parse().unwrap(), 16);
        sim.add_stub_block("farm-b", "100.64.0.8".parse().unwrap(), 16);
    }

    #[test]
    fn egress_filtering_drops_spoofed_sources() {
        let mut sim = Simulator::new(4);
        let a = sim.add_node("attacker", vec![A], EchoNode::default());
        let b = sim.add_node("victim", vec![B], EchoNode::default());
        sim.connect(a, b, Link::default());
        sim.set_egress_filtering(a, true);
        // Spoofed packet (source C not owned by attacker) is filtered...
        sim.inject(a, udp(C, B, 10));
        // ...but a non-spoofed one passes.
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(a).spoofed_filtered, 1);
        assert_eq!(sim.stats(b).udp_received, 1);
    }

    #[test]
    fn spoofing_allowed_without_egress_filtering() {
        let mut sim = Simulator::new(5);
        let a = sim.add_node("attacker", vec![A], EchoNode::default());
        let b = sim.add_node("victim", vec![B], EchoNode::default());
        sim.connect(a, b, Link::default());
        sim.inject(a, udp(C, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
        assert_eq!(sim.stats(a).spoofed_filtered, 0);
    }

    #[test]
    fn route_override_hijacks_traffic() {
        let mut sim = Simulator::new(6);
        let a = sim.add_node("client", vec![A], EchoNode::default());
        let b = sim.add_node("victim-ns", vec![B], EchoNode::default());
        let h = sim.add_node("hijacker", vec![C], EchoNode::default());
        sim.connect(a, b, Link::default());
        sim.connect(a, h, Link::default());
        // Sub-prefix hijack of the /32 covering B.
        sim.set_route_override(Prefix::host(B), h);
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(h).udp_received, 1, "traffic goes to the hijacker");
        assert_eq!(sim.stats(b).udp_received, 0);
        // Withdraw the hijack: traffic flows normally again.
        sim.clear_route_override(Prefix::host(B));
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
    }

    #[test]
    fn more_specific_override_wins() {
        let mut sim = Simulator::new(7);
        let a = sim.add_node("a", vec![A], EchoNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        let h1 = sim.add_node("h1", vec![Ipv4Addr::new(9, 0, 0, 1)], EchoNode::default());
        let h2 = sim.add_node("h2", vec![Ipv4Addr::new(9, 0, 0, 2)], EchoNode::default());
        let _ = b;
        sim.set_route_override("10.0.0.0/8".parse().unwrap(), h1);
        sim.set_route_override("10.0.0.0/24".parse().unwrap(), h2);
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(h2).udp_received, 1);
        assert_eq!(sim.stats(h1).udp_received, 0);
    }

    #[test]
    fn oversized_df_packet_triggers_icmp_ptb() {
        let mut sim = Simulator::new(8);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().mtu(576));
        let mut pkt = udp(A, B, 1000);
        pkt.header.dont_fragment = true;
        sim.inject(a, pkt);
        sim.run();
        // The oversized packet never reaches b; a receives an ICMP PTB.
        assert_eq!(sim.stats(b).packets_received, 0);
        assert_eq!(sim.stats(a).icmp_received, 1);
        assert_eq!(sim.stats(a).dropped_in_transit, 1);
    }

    #[test]
    fn oversized_packet_without_df_fragmented_in_transit() {
        let mut sim = Simulator::new(9);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().mtu(576));
        sim.inject(a, udp(A, B, 1400));
        sim.run();
        assert!(sim.stats(b).packets_received >= 3, "fragments delivered separately");
    }

    #[test]
    fn lossy_link_drops_packets_deterministically() {
        let mut sim = Simulator::new(10);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().loss(1.0));
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).packets_received, 0);
        assert_eq!(sim.stats(a).dropped_in_transit, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Default)]
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Ipv4Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(11);
        let n = sim.add_node("t", vec![A], TimerNode::default());
        sim.schedule_timer(n, Duration::from_millis(20), 2);
        sim.schedule_timer(n, Duration::from_millis(10), 1);
        sim.schedule_timer(n, Duration::from_millis(30), 3);
        sim.run();
        assert_eq!(sim.node_ref::<TimerNode>(n).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn on_start_runs_before_first_delivery() {
        struct Starter {
            started_at: Option<SimTime>,
        }
        impl Node for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.started_at = Some(ctx.now());
                ctx.set_timer(Duration::from_millis(1), 99);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Ipv4Packet) {}
        }
        let mut sim = Simulator::new(12);
        let n = sim.add_node("s", vec![A], Starter { started_at: None });
        sim.run();
        assert_eq!(sim.node_ref::<Starter>(n).unwrap().started_at, Some(SimTime::ZERO));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(13);
        let a = sim.add_node("a", vec![A], EchoNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        sim.connect(a, b, Link::with_latency(Duration::from_secs(10)));
        sim.inject(a, udp(A, B, 10));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats(b).udp_received, 0);
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> Vec<String> {
            let mut sim = Simulator::new(seed);
            sim.install_recorder(FlightRecorder::default());
            let a = sim.add_node("a", vec![A], EchoNode::default());
            let b = sim.add_node("b", vec![B], EchoNode::default());
            sim.connect(a, b, Link::default().loss(0.5));
            for i in 0..20 {
                sim.inject(a, udp(A, B, 10 + i));
            }
            sim.run();
            sim.recorder().unwrap().dump_last(usize::MAX, &sim).lines().map(str::to_string).collect()
        }
        assert_eq!(run_once(42), run_once(42));
        assert_ne!(run_once(42), run_once(43));
    }

    /// A handler that makes every stub ping-pong one UDP datagram with a
    /// sink node: on start each stub arms a timer, on fire it sends a query,
    /// and deliveries are counted in the arena entry.
    struct PingHandler {
        target: Ipv4Addr,
    }
    impl StubHandler for PingHandler {
        fn on_start(&mut self, ctx: &mut StubCtx<'_>) {
            let jitter = ctx.id().0 as u64;
            ctx.set_timer(Duration::from_micros(10 + jitter), StubTimer { kind: 1, data: ctx.id().0 });
        }
        fn on_timer(&mut self, ctx: &mut StubCtx<'_>, timer: StubTimer) {
            assert_eq!(timer.kind, 1);
            assert_eq!(timer.data, ctx.id().0, "timer token must come back to its owner");
            let pkt = UdpDatagram::new(ctx.addr(), self.target, 5353, 53, vec![0xAB; 8]).into_packet(1, 64);
            ctx.send(pkt);
        }
        fn on_packet(&mut self, ctx: &mut StubCtx<'_>, pkt: &Ipv4Packet) {
            assert_eq!(pkt.header.dst, ctx.addr());
            ctx.state_mut().data += 1;
        }
    }

    /// Echoes every UDP datagram back to its sender.
    #[derive(Default)]
    struct UdpEchoServer;
    impl Node for UdpEchoServer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
            if pkt.header.protocol == Protocol::Udp {
                if let Ok(d) = UdpDatagram::from_packet(&pkt) {
                    let reply = UdpDatagram::new(d.dst, d.src, d.dst_port, d.src_port, d.payload);
                    let ipid = ctx.rng().gen();
                    ctx.send(reply.into_packet(ipid, 64));
                }
            }
        }
    }

    #[test]
    fn stub_block_round_trips_traffic() {
        let mut sim = Simulator::new(77);
        let server_addr: Ipv4Addr = "10.9.9.9".parse().unwrap();
        let server = sim.add_node("server", vec![server_addr], UdpEchoServer);
        let first = sim.add_stub_block("client", "100.64.0.0".parse().unwrap(), 100);
        sim.set_stub_handler(PingHandler { target: server_addr });
        sim.run();
        assert_eq!(sim.stats(server).udp_received, 100);
        assert_eq!(sim.stats(server).udp_sent, 100);
        // Every stub sent one query and got one reply back.
        for i in 0..100 {
            let st = sim.stub_state(StubId(first.0 + i));
            assert_eq!((st.sent, st.received, st.data), (1, 1, 1), "stub {i}");
        }
        assert_eq!(sim.stub_block_stats(first).udp_sent, 100);
        assert_eq!(sim.stub_block_stats(first).udp_received, 100);
    }

    #[test]
    fn stub_lookup_is_arithmetic_on_the_block() {
        let mut sim = Simulator::new(1);
        let first = sim.add_stub_block("farm", "100.64.1.0".parse().unwrap(), 512);
        let a = sim.add_stub_block("other", "100.70.0.0".parse().unwrap(), 4);
        assert_eq!(sim.stub_lookup("100.64.1.0".parse().unwrap()), Some(first));
        assert_eq!(sim.stub_lookup("100.64.2.255".parse().unwrap()), Some(StubId(first.0 + 511)));
        assert_eq!(sim.stub_lookup("100.64.3.0".parse().unwrap()), None);
        assert_eq!(sim.stub_lookup("100.70.0.3".parse().unwrap()), Some(StubId(a.0 + 3)));
        assert_eq!(sim.stub_count(), 516);
    }

    #[test]
    fn stub_timers_never_alias_across_clients() {
        // Two stubs schedule timers with identical (kind, data): each fire
        // must reach its own stub. The PingHandler asserts ownership.
        struct SameToken;
        impl StubHandler for SameToken {
            fn on_start(&mut self, ctx: &mut StubCtx<'_>) {
                ctx.set_timer(Duration::from_millis(1), StubTimer { kind: 7, data: 42 });
            }
            fn on_timer(&mut self, ctx: &mut StubCtx<'_>, timer: StubTimer) {
                assert_eq!(timer, StubTimer { kind: 7, data: 42 });
                ctx.state_mut().data += 1;
            }
            fn on_packet(&mut self, _ctx: &mut StubCtx<'_>, _pkt: &Ipv4Packet) {}
        }
        let mut sim = Simulator::new(5);
        let first = sim.add_stub_block("c", "100.64.0.0".parse().unwrap(), 8);
        sim.set_stub_handler(SameToken);
        sim.run();
        for i in 0..8 {
            assert_eq!(sim.stub_state(StubId(first.0 + i)).data, 1, "stub {i} got exactly its own timer");
        }
    }
}
