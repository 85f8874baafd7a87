//! Regenerates Figure 5 — the overlap (Venn regions) of resolvers and domains
//! vulnerable to each poisoning methodology.

use criterion::{criterion_group, criterion_main, Criterion};
use xl_bench::{emit, BENCH_SEED};
use xlayer_core::prelude::*;

fn bench(c: &mut Criterion) {
    emit(&render_venn(
        "Figure 5a — vulnerable resolvers (overlap)",
        &figure5_resolver_overlap_with(&CampaignConfig::new(BENCH_SEED, 10_000)),
    ));
    emit(&render_venn(
        "Figure 5b — vulnerable domains (overlap)",
        &figure5_domain_overlap_with(&CampaignConfig::new(BENCH_SEED, 10_000)),
    ));
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("resolver_overlap", |b| {
        b.iter(|| figure5_resolver_overlap_with(&CampaignConfig::new(BENCH_SEED, 2_000)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
