//! Regenerates Table 6 — the comparative analysis of the three poisoning
//! methodologies (applicability, effectiveness, stealth). The SadDNS
//! effectiveness row is backed by a full packet-level attack simulation, so
//! this bench prints the table once and times only the cheaper HijackDNS and
//! FragDNS attack runs.

use attacks::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use xl_bench::{emit, BENCH_SEED};
use xlayer_core::prelude::*;

fn bench(c: &mut Criterion) {
    let report = run_table6_with(&CampaignConfig::new(BENCH_SEED, 5_000), 1);
    emit(&render_table6(&report));
    let sad = saddns_effectiveness(1, BENCH_SEED);
    println!(
        "SadDNS simulated run: success_rate={:.2} avg_duration={:.1}s avg_packets={:.0} (×{:.0} port-space scale ⇒ ≈{:.0} packets full-space)",
        sad.success_rate, sad.avg_duration_secs, sad.avg_packets, sad.port_space_scale, sad.extrapolated_packets
    );

    let mut group = c.benchmark_group("table6_attacks");
    group.sample_size(10);
    group.bench_function("hijackdns_full_attack", |b| {
        b.iter(|| {
            let (mut sim, env) = VictimEnvConfig::default().build();
            HijackDnsAttack::new(HijackDnsConfig::new(env.attacker_addr)).run(&mut sim, &env).success
        })
    });
    group.bench_function("fragdns_full_attack", |b| {
        b.iter(|| {
            let (mut sim, env) = VictimEnvConfig::default().build();
            FragDnsAttack::new(FragDnsConfig::new(env.attacker_addr)).run(&mut sim, &env).success
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
