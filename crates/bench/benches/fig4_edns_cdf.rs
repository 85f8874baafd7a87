//! Regenerates Figure 4 — CDF of resolver EDNS UDP sizes vs. the minimum
//! fragment size emitted by nameservers.

use criterion::{criterion_group, criterion_main, Criterion};
use xl_bench::{emit, BENCH_SAMPLE_CAP, BENCH_SEED};
use xlayer_core::prelude::*;

fn bench(c: &mut Criterion) {
    let (edns, frag) = figure4_edns_vs_fragment_with(&CampaignConfig::new(BENCH_SEED, BENCH_SAMPLE_CAP));
    emit(&render_cdfs("Figure 4 — resolver EDNS size vs nameserver minimum fragment size (CDF)", &[edns, frag]));
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("edns_vs_fragment_cdf", |b| {
        b.iter(|| figure4_edns_vs_fragment_with(&CampaignConfig::new(BENCH_SEED, 2_000)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
