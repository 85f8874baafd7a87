//! Regenerates Figure 3 — CDF of announced prefix lengths for open resolvers,
//! ad-net resolvers and Alexa nameservers.

use criterion::{criterion_group, criterion_main, Criterion};
use xl_bench::{emit, BENCH_SAMPLE_CAP, BENCH_SEED};
use xlayer_core::prelude::*;

fn bench(c: &mut Criterion) {
    let cdfs = figure3_prefix_distributions_with(&CampaignConfig::new(BENCH_SEED, BENCH_SAMPLE_CAP));
    emit(&render_cdfs("Figure 3 — announced prefix lengths (CDF)", &cdfs));
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("prefix_cdf", |b| {
        b.iter(|| figure3_prefix_distributions_with(&CampaignConfig::new(BENCH_SEED, 2_000)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
