//! Regenerates Table 4 — vulnerable domains per dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use xl_bench::{emit, BENCH_SAMPLE_CAP, BENCH_SEED};
use xlayer_core::prelude::*;

fn bench(c: &mut Criterion) {
    let rows = run_table4_with(&CampaignConfig::new(BENCH_SEED, BENCH_SAMPLE_CAP));
    emit(&render_table4(&rows));
    let mut group = c.benchmark_group("table4");
    group.sample_size(10);
    group.bench_function("campaign_small_cap", |b| b.iter(|| run_table4_with(&CampaignConfig::new(BENCH_SEED, 1_000))));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
