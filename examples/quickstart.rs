//! Quickstart: poison a resolver cache with FragDNS in a tiny simulated
//! Internet (the message flow of Figure 2).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cross_layer_attacks::attacks::prelude::*;
use cross_layer_attacks::dns::prelude::*;
use cross_layer_attacks::netsim::prelude::{FlightRecorder, PacketEvent};

fn main() {
    // Build the standard victim environment of the paper's Section 3 setup:
    // a victim AS (resolver + client), the target domain's nameserver, and an
    // off-path attacker that can spoof source addresses.
    let (mut sim, env) = VictimEnvConfig::default().build();
    // Record the attack's packets (Figure 2's message flow).
    sim.install_recorder(FlightRecorder::default());

    println!("victim resolver : {}", env.resolver_addr);
    println!("nameserver      : {} (announces {})", env.nameserver_addr, env.nameserver_prefix);
    println!("attacker        : {}", env.attacker_addr);
    println!();

    // Run the FragDNS attack: spoofed ICMP 'fragmentation needed', planted
    // second fragments with a checksum-compensated malicious tail, then a
    // triggered ANY query.
    let attack = FragDnsAttack::new(FragDnsConfig::new(env.attacker_addr));
    let report = attack.run(&mut sim, &env);

    println!("== FragDNS attack report ==");
    println!("success          : {}", report.success);
    println!("queries triggered: {}", report.queries_triggered);
    println!("attacker packets : {}", report.attacker_packets);
    println!("simulated time   : {}", report.duration);
    for note in &report.notes {
        println!("note: {note}");
    }
    println!();

    // Show the poisoned cache entry.
    let ns_glue: DomainName = "ns1.vict.im".parse().unwrap();
    let poisoned = env.resolver(&sim).cache().cached_a(&ns_glue, sim.now());
    println!("cache entry for {ns_glue}: {poisoned:?} (attacker is {})", env.attacker_addr);

    // And the last packets of the attack, from the flight recorder.
    println!();
    println!("== last packets of the attack (flight recorder excerpt) ==");
    let packets: Vec<&PacketEvent> = sim.recorder().expect("installed above").packets().collect();
    for event in &packets[packets.len().saturating_sub(12)..] {
        println!("{} {}", event.time, event.display(&sim));
    }
}
