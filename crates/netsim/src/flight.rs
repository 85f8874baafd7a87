//! The flight recorder: one bounded, time-ordered ring of simulation events.
//!
//! Figures 1 and 2 of the paper are message-sequence diagrams of the SadDNS
//! and FragDNS attacks. A [`FlightRecorder`] installed on a [`Simulator`]
//! (see [`Simulator::install_recorder`]) captures that sequence as typed
//! events: every packet the engine delivers or drops ([`PacketEvent`]) and
//! the phase spans attack drivers open with [`span!`](crate::span) and close
//! with [`Simulator::exit_span`] ([`SpanEvent`]).
//!
//! Recording is off unless asked: [`Simulator::new`] installs no recorder,
//! and without one a packet costs a single `Option` check. A packet event
//! holds host ids, the IPv4 header and the TCP fields, never a formatted
//! string, so recording it does not allocate; host names are looked up and
//! lines formatted only when a dump is rendered. Every event carries the
//! simulated clock, never wall time, so two runs of the same seed render
//! byte-identical dumps.

use crate::engine::{Host, Simulator};
use crate::ipv4::{write_summary, Ipv4Header, Ipv4Packet, TcpBrief};
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};

/// The fate of a recorded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The packet was delivered to its destination node.
    Delivered,
    /// The packet was dropped: no node owns the destination address.
    NoRoute,
    /// The packet was dropped by link loss.
    LinkLoss,
    /// The packet was dropped by egress filtering of a spoofed source.
    EgressFiltered,
    /// The packet exceeded the link MTU with DF set and was dropped
    /// (an ICMP fragmentation-needed error was generated).
    MtuExceeded,
}

impl fmt::Display for TraceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceVerdict::Delivered => "delivered",
            TraceVerdict::NoRoute => "no-route",
            TraceVerdict::LinkLoss => "link-loss",
            TraceVerdict::EgressFiltered => "egress-filtered",
            TraceVerdict::MtuExceeded => "mtu-exceeded",
        };
        f.write_str(s)
    }
}

/// One packet the engine delivered or dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketEvent {
    /// When the engine processed the packet.
    pub time: SimTime,
    /// The sending host.
    pub from: Host,
    /// The receiving host; `None` when the packet never reached one (no
    /// route, or filtered at egress).
    pub to: Option<Host>,
    /// What happened to the packet.
    pub verdict: TraceVerdict,
    /// The packet's IPv4 header.
    pub header: Ipv4Header,
    /// Wire length in bytes.
    pub wire_len: usize,
    /// Flags, sequence and acknowledgment numbers of a TCP segment.
    pub tcp: Option<TcpBrief>,
}

impl PacketEvent {
    /// The event of `pkt` meeting `verdict` at `time`.
    pub(crate) fn new(time: SimTime, from: Host, to: Option<Host>, pkt: &Ipv4Packet, verdict: TraceVerdict) -> Self {
        PacketEvent { time, from, to, verdict, header: pkt.header, wire_len: pkt.wire_len(), tcp: pkt.tcp_brief() }
    }

    /// The event as one line, `from -> to [verdict] summary`, with host
    /// names looked up in `sim` (`-` when no host received the packet).
    pub fn display<'a>(&'a self, sim: &'a Simulator) -> impl fmt::Display + 'a {
        PacketLine { event: self, sim }
    }
}

struct PacketLine<'a> {
    event: &'a PacketEvent,
    sim: &'a Simulator,
}

impl fmt::Display for PacketLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.event;
        let to = e.to.map_or_else(|| "-".to_string(), |h| self.sim.host_name(h));
        write!(f, "{:>16} -> {to:<16} [{}] ", self.sim.host_name(e.from), e.verdict)?;
        write_summary(f, &e.header, e.wire_len, e.tcp)
    }
}

/// Whether a span event marks the beginning or the end of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The phase began.
    Enter,
    /// The phase ended.
    Exit,
}

/// One recorded span boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulated time of the event.
    pub time: SimTime,
    /// Enter or exit.
    pub kind: SpanKind,
    /// Static span name (`layer.phase`, e.g. `"saddns.scan"`).
    pub name: &'static str,
    /// Free-form detail formatted at record time (empty when none).
    pub detail: String,
    /// Nesting depth at the time of the event (enter events count their own
    /// level, so a top-level span enters at depth 1).
    pub depth: u32,
}

/// One entry of the recorder's ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A phase span boundary.
    Span(SpanEvent),
    /// A packet the engine delivered or dropped.
    Packet(PacketEvent),
}

impl FlightEvent {
    fn render_into(&self, out: &mut String, sim: &Simulator) -> fmt::Result {
        match self {
            FlightEvent::Span(s) => {
                let marker = match s.kind {
                    SpanKind::Enter => '>',
                    SpanKind::Exit => '<',
                };
                let indent = (s.depth.saturating_sub(1) as usize).min(16) * 2;
                write!(out, "  [{:>14} ns] {:indent$}{marker} {}", s.time.as_nanos(), "", s.name)?;
                if !s.detail.is_empty() {
                    write!(out, " {}", s.detail)?;
                }
                writeln!(out)
            }
            FlightEvent::Packet(p) => writeln!(out, "  [{:>14} ns] {}", p.time.as_nanos(), p.display(sim)),
        }
    }
}

/// A bounded ring buffer of [`FlightEvent`]s. When the bound is reached the
/// oldest event is discarded and counted in [`dropped`](Self::dropped): the
/// recorder never reallocates past its capacity and never truncates
/// silently.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
    depth: u32,
    total: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder { events: VecDeque::with_capacity(capacity), capacity, dropped: 0, depth: 0, total: 0 }
    }

    fn push(&mut self, event: FlightEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.total += 1;
    }

    /// Records a span entry at `time`. Drivers holding a simulator use the
    /// [`span!`](crate::span) macro instead, which reads the sim clock and
    /// formats the detail only when a recorder is installed.
    pub fn enter(&mut self, time: SimTime, name: &'static str, detail: String) {
        self.depth += 1;
        let depth = self.depth;
        self.push(FlightEvent::Span(SpanEvent { time, kind: SpanKind::Enter, name, detail, depth }));
    }

    /// Records the matching span exit at `time`.
    pub fn exit(&mut self, time: SimTime, name: &'static str) {
        let depth = self.depth.max(1);
        self.push(FlightEvent::Span(SpanEvent { time, kind: SpanKind::Exit, name, detail: String::new(), depth }));
        self.depth = self.depth.saturating_sub(1);
    }

    /// Records one packet event.
    pub(crate) fn record_packet(&mut self, event: PacketEvent) {
        self.push(FlightEvent::Packet(event));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// The retained span events, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter_map(|e| match e {
            FlightEvent::Span(s) => Some(s),
            FlightEvent::Packet(_) => None,
        })
    }

    /// The retained packet events, oldest first.
    pub fn packets(&self) -> impl Iterator<Item = &PacketEvent> {
        self.events.iter().filter_map(|e| match e {
            FlightEvent::Packet(p) => Some(p),
            FlightEvent::Span(_) => None,
        })
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Discards all retained events and resets the counters.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.depth = 0;
        self.total = 0;
    }

    /// Renders the last `n` retained events (all of them when fewer) as a
    /// post-mortem dump: a summary header, then one line per event with the
    /// simulated timestamp. Spans are indented by nesting depth; packets
    /// name their hosts as registered in `sim`.
    pub fn dump_last(&self, n: usize, sim: &Simulator) -> String {
        let keep = n.min(self.events.len());
        let mut out = format!(
            "flight recorder: last {keep} of {} events ({} dropped at the {}-event bound)\n",
            self.total, self.dropped, self.capacity
        );
        for event in self.events.iter().skip(self.events.len() - keep) {
            let _ = event.render_into(&mut out, sim);
        }
        out
    }
}

impl Default for FlightRecorder {
    /// A recorder with a 256-event ring: every phase span of a single attack
    /// run plus its last packets, in a few tens of KiB.
    fn default() -> Self {
        FlightRecorder::new(256)
    }
}

/// Opens a span in the simulator's flight recorder at the current sim time:
/// `span!(sim, "name")` or `span!(sim, "name", "detail {x}")`. The detail is
/// formatted only when a recorder is installed, so the call costs one
/// `Option` check while recording is off. Close it with
/// [`Simulator::exit_span`].
#[macro_export]
macro_rules! span {
    ($sim:expr, $name:expr) => {
        $sim.enter_span($name, format_args!(""))
    };
    ($sim:expr, $name:expr, $($arg:tt)+) => {
        $sim.enter_span($name, format_args!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::UdpDatagram;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn packet(ns: u64) -> PacketEvent {
        let pkt =
            UdpDatagram::new("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 1, 2, vec![]).into_packet(1, 64);
        PacketEvent::new(t(ns), Host::Router, None, &pkt, TraceVerdict::NoRoute)
    }

    #[test]
    fn records_nested_spans_in_order() {
        let mut rec = FlightRecorder::new(16);
        rec.enter(t(10), "outer", "run 1".into());
        rec.enter(t(20), "inner", String::new());
        rec.exit(t(30), "inner");
        rec.exit(t(40), "outer");
        let depths: Vec<u32> = rec.spans().map(|e| e.depth).collect();
        assert_eq!(depths, vec![1, 2, 2, 1]);
        let dump = rec.dump_last(10, &Simulator::new(0));
        assert!(dump.contains("> outer run 1"));
        assert!(dump.contains("  < inner"), "inner exit is indented one level");
        assert!(dump.contains("[            10 ns]"));
    }

    #[test]
    fn ring_bound_counts_drops() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.enter(t(i), "e", String::new());
            rec.exit(t(i), "e");
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 16);
        assert_eq!(rec.total_recorded(), 20);
        let sim = Simulator::new(0);
        let dump = rec.dump_last(64, &sim);
        assert!(dump.starts_with("flight recorder: last 4 of 20 events (16 dropped at the 4-event bound)"));

        // Packet events share the ring: the oldest go first, counted.
        let mut rec = FlightRecorder::new(3);
        for i in 0..10 {
            rec.record_packet(packet(i));
        }
        let kept: Vec<u64> = rec.packets().map(|p| p.time.as_nanos()).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(rec.dropped(), 7);
        assert!(rec
            .dump_last(64, &sim)
            .starts_with("flight recorder: last 3 of 10 events (7 dropped at the 3-event bound)"));

        // A ring that never fills never drops.
        let mut rec = FlightRecorder::new(100);
        for i in 0..100 {
            rec.record_packet(packet(i));
        }
        assert_eq!(rec.dropped(), 0);
        assert!(rec.dump_last(100, &sim).contains("(0 dropped"));
    }

    #[test]
    fn packet_lines_share_the_packet_summary() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node("a", vec!["10.0.0.1".parse().unwrap()], crate::engine::SinkNode::default());
        let pkt =
            UdpDatagram::new("10.0.0.1".parse().unwrap(), "10.0.0.9".parse().unwrap(), 1, 2, vec![]).into_packet(1, 64);
        let mut rec = FlightRecorder::new(4);
        rec.record_packet(PacketEvent::new(t(5), Host::Node(a), None, &pkt, TraceVerdict::NoRoute));
        let line = rec.packets().next().unwrap().display(&sim).to_string();
        assert_eq!(line, format!("{:>16} -> {:<16} [no-route] {}", "a", "-", pkt.summary()));
        assert!(rec.dump_last(1, &sim).ends_with(&format!("  [             5 ns] {line}\n")));
    }

    #[test]
    fn dump_last_takes_the_tail() {
        let mut rec = FlightRecorder::new(16);
        for i in 0..6u64 {
            rec.enter(t(i), "phase", format!("{i}"));
        }
        let dump = rec.dump_last(2, &Simulator::new(0));
        assert!(dump.contains("phase 4"));
        assert!(dump.contains("phase 5"));
        assert!(!dump.contains("phase 3"));
    }

    #[test]
    fn span_macro_formats_details() {
        let mut sim = Simulator::new(0);
        let port = 40123;
        sim.install_recorder(FlightRecorder::new(8));
        span!(sim, "saddns.spray", "port {port}");
        span!(sim, "saddns.verify");
        sim.exit_span("saddns.verify");
        sim.exit_span("saddns.spray");
        let rec = sim.recorder().unwrap();
        assert_eq!(rec.spans().next().unwrap().detail, "port 40123");
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn clear_resets_everything() {
        let mut rec = FlightRecorder::new(2);
        rec.enter(t(1), "a", String::new());
        rec.enter(t(2), "b", String::new());
        rec.record_packet(packet(3));
        assert_eq!(rec.dropped(), 1);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.total_recorded(), 0);
    }
}
