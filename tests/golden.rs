//! Golden-snapshot coverage for every rendered artifact of the evaluation:
//! Tables 1–6 and the Figure 3/4 CDFs are rendered and compared byte-for-
//! byte against committed fixtures under `tests/golden/`. Any refactor that
//! silently changes a paper number — a reordered RNG draw, a sharding
//! change, a float-formatting tweak — fails here instead of shipping.
//!
//! Regenerate the fixtures intentionally with:
//!
//! ```text
//! BLESS=1 cargo test --test golden
//! ```
//!
//! The artifacts are rendered through the sharded campaign engine at
//! `workers = 3`, while the fixtures were blessed from a sequential run —
//! so this suite doubles as an end-to-end lock on thread-count invariance.
//!
//! The full scenario grid is the most expensive artifact, so it is simulated
//! once per worker count in {1, 3, 8} and shared: the matrix and telemetry
//! goldens and every grid-level determinism check read from those runs.

use cross_layer_attacks::attacks::prelude::PoisonMethod;
use cross_layer_attacks::telemetry::MetricsSnapshot;
use cross_layer_attacks::xlayer_core::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Seed and cap the fixtures were blessed with. Changing either requires
/// re-blessing (and reviewing the diff!).
const GOLDEN_SEED: u64 = 2021;
const GOLDEN_CAP: u64 = 5_000;

fn blessing() -> bool {
    std::env::var_os("BLESS").is_some_and(|v| v == "1")
}

/// Blessing renders on the **sequential** reference path (`workers = 1`);
/// checking renders at `workers = 3`. A parallel-path bug that is merely
/// self-consistent therefore cannot bless itself into the fixtures — the
/// cross-lock on thread-count invariance is real, not assumed.
fn golden_workers() -> usize {
    if blessing() {
        1
    } else {
        3
    }
}

/// The worker counts the shared full-grid runs are simulated at.
const GRID_WORKERS: [usize; 3] = [1, 3, 8];

/// `ScenarioCampaign::full_grid(GOLDEN_SEED, 2).run_with_metrics(workers)`,
/// simulated at most once per worker count in [`GRID_WORKERS`] and shared by
/// every test in this binary.
fn full_grid_run(workers: usize) -> &'static (ScenarioMatrix, MetricsSnapshot) {
    static RUNS: [OnceLock<(ScenarioMatrix, MetricsSnapshot)>; GRID_WORKERS.len()] =
        [const { OnceLock::new() }; GRID_WORKERS.len()];
    let slot = GRID_WORKERS.iter().position(|&w| w == workers).expect("a shared grid worker count");
    RUNS[slot].get_or_init(|| ScenarioCampaign::full_grid(GOLDEN_SEED, 2).run_with_metrics(workers))
}

fn golden_cfg() -> CampaignConfig {
    CampaignConfig::new(GOLDEN_SEED, GOLDEN_CAP).with_workers(golden_workers())
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

/// Compares `rendered` against the committed fixture, or rewrites the
/// fixture when `BLESS=1` is set.
fn check(name: &str, rendered: &str) {
    let path = fixture_path(name);
    if blessing() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create tests/golden");
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("blessing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); run `BLESS=1 cargo test --test golden` and commit it", path.display())
    });
    if rendered != expected {
        let mut msg = format!("rendered {name} diverges from tests/golden/{name}.txt\n");
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            if got != want {
                let _ = writeln!(msg, "first differing line {}:\n  expected: {want}\n  rendered: {got}", i + 1);
                break;
            }
        }
        let _ = writeln!(
            msg,
            "(line counts: rendered {}, expected {})",
            rendered.lines().count(),
            expected.lines().count()
        );
        let _ = writeln!(msg, "if the change is intentional, re-bless with BLESS=1 and review the diff");
        panic!("{msg}");
    }
}

#[test]
fn golden_table1_taxonomy() {
    check("table1", &render_table1());
}

#[test]
fn golden_table2_middleboxes() {
    check("table2", &render_table2());
}

#[test]
fn golden_table3_resolvers() {
    check("table3", &render_table3(&run_table3_with(&golden_cfg())));
}

#[test]
fn golden_table4_domains() {
    check("table4", &render_table4(&run_table4_with(&golden_cfg())));
}

#[test]
fn golden_table5_any_caching() {
    check("table5", &render_table5(&run_table5(GOLDEN_SEED)));
}

#[test]
fn golden_table6_comparison() {
    let cfg = CampaignConfig::new(GOLDEN_SEED, 2_000).with_workers(golden_workers());
    check("table6", &render_table6(&run_table6_with(&cfg, 1)));
}

#[test]
fn golden_figure3_prefix_cdfs() {
    let cdfs = figure3_prefix_distributions_with(&golden_cfg());
    check("figure3", &render_cdfs("Figure 3 — announced prefix lengths (CDF)", &cdfs));
}

#[test]
fn golden_figure4_edns_vs_fragment_cdfs() {
    let (edns, frag) = figure4_edns_vs_fragment_with(&golden_cfg());
    check(
        "figure4",
        &render_cdfs("Figure 4 — resolver EDNS size vs nameserver minimum fragment size (CDF)", &[edns, frag]),
    );
}

#[test]
fn golden_ablation_countermeasures() {
    check("ablation", &render_ablation(&run_ablation(&Defence::all(), GOLDEN_SEED)));
}

#[test]
fn golden_crosslayer_scenarios() {
    // Debug-formatted outcomes of the three headline cross-layer scenarios at
    // the seeds the unit tests pin. These fixtures were blessed *before* the
    // scenarios were ported onto the `Scenario`/`AttackVector` pipeline, so
    // they prove the port is byte-identical, not merely similar.
    let mut out = String::new();
    let _ = writeln!(out, "{:#?}", rpki_downgrade_scenario(21));
    let _ = writeln!(out, "{:#?}", password_recovery_scenario(22));
    let _ = writeln!(out, "{:#?}", spf_downgrade_scenario(23));
    check("crosslayer", &out);
}

#[test]
fn golden_scenario_matrix() {
    // The full (vector × defence × seed) grid at 2 seeds per cell, followed
    // by the CA issuance grid (fraudulent certificates per vector ×
    // defence). Blessing renders at workers=1, checking at workers=3 —
    // same cross-lock on thread-count invariance as the campaign tables.
    // Cell seeds derive from cell *coordinates*, so the CA rows appended
    // here left every pre-existing cell of the fixture byte-identical.
    let (matrix, _) = full_grid_run(golden_workers());
    let mut out = render_scenario_matrix(matrix);
    out.push('\n');
    let issuance = cross_layer_attacks::ca::IssuanceCampaign::standard(GOLDEN_SEED, 2).run(golden_workers());
    out.push_str(&cross_layer_attacks::ca::render_issuance_matrix(&issuance));
    out.push('\n');
    // The DNSSEC deployment matrix rides in the same fixture: the four
    // attacks against the DNSSEC pipeline itself across the four deployment
    // profiles, on their own seed stream (DNSSEC_GRID_SALT) so appending
    // this section could not reseed the grids above.
    let dnssec = ScenarioCampaign::dnssec_grid(GOLDEN_SEED, 2).run(golden_workers());
    out.push_str(&render_dnssec_matrix(&dnssec));
    check("scenario_matrix", &out);
}

#[test]
fn golden_telemetry_snapshot() {
    // The merged telemetry snapshot of the full scenario grid (the same grid
    // golden_scenario_matrix locks): every run's resolver and engine
    // counters plus the per-methodology attack aggregates, rendered through
    // `MetricsSnapshot::render`. Blessing at workers=1 and checking at
    // workers=3 locks the snapshot's thread-count invariance byte-for-byte.
    let (_, snapshot) = full_grid_run(golden_workers());
    check("telemetry", &snapshot.render());
}

#[test]
fn scenario_matrix_is_thread_count_invariant() {
    // Every vector against every defence (including the ones that block
    // each vector), 2 seeds per cell: the matrix, per-cell aggregates
    // included, and its rendering are byte-equal at every shared worker
    // count.
    let (reference, _) = full_grid_run(1);
    for workers in &GRID_WORKERS[1..] {
        let (matrix, _) = full_grid_run(*workers);
        assert_eq!(matrix, reference, "workers={workers} changed the scenario matrix");
        assert_eq!(
            render_scenario_matrix(matrix),
            render_scenario_matrix(reference),
            "the rendered artifact is byte-identical too"
        );
    }
}

#[test]
fn scenario_matrix_snapshot_is_worker_invariant() {
    // The telemetry layer inherits the campaign engine's determinism
    // contract: the merged snapshot of the full grid is byte-identical at
    // every shared worker count.
    let (_, reference) = full_grid_run(1);
    assert!(reference.counter("dns.resolver.client_queries") > 0, "resolver telemetry folded in");
    assert!(reference.counter("engine.events.popped") > 0, "engine telemetry folded in");
    assert!(reference.counter("attacks.saddns.runs") > 0, "attack aggregates exported");
    for workers in &GRID_WORKERS[1..] {
        let (_, snapshot) = full_grid_run(*workers);
        assert_eq!(snapshot, reference, "workers={workers} changed the snapshot");
        assert_eq!(snapshot.render(), reference.render(), "workers={workers} changed the rendered bytes");
        assert_eq!(snapshot.to_json(), reference.to_json(), "workers={workers} changed the JSON bytes");
    }
}

#[test]
fn tcp_scenario_grid_is_thread_count_invariant() {
    // The acceptance lock for the DnsOverTcp row (its worker invariance is
    // the whole-grid check above): TCP blocks the two off-path vectors on
    // every seed, but not interception.
    let (matrix, _) = full_grid_run(1);
    let tcp_hijack = matrix.cell(PoisonMethod::HijackDns, Defence::DnsOverTcp).unwrap();
    assert_eq!((tcp_hijack.runs, tcp_hijack.successes), (2, 2));
    let tcp_saddns = matrix.cell(PoisonMethod::SadDns, Defence::DnsOverTcp).unwrap();
    assert_eq!((tcp_saddns.runs, tcp_saddns.successes), (2, 0));
    let tcp_fragdns = matrix.cell(PoisonMethod::FragDns, Defence::DnsOverTcp).unwrap();
    assert_eq!((tcp_fragdns.runs, tcp_fragdns.successes), (2, 0));
}

#[test]
fn appending_a_defence_does_not_reseed_existing_cells() {
    // The per-cell seed derivation is a function of the cell coordinates,
    // not the grid shape: the same (method, defence) cell produces the same
    // aggregate whether or not more defences ride along in the grid.
    let small = ScenarioCampaign {
        base_seed: GOLDEN_SEED,
        methods: PoisonMethod::all().to_vec(),
        defences: vec![Defence::None],
        runs_per_cell: 2,
        salt: SCENARIO_GRID_SALT,
    };
    let small_matrix = small.run(2);
    let (grown_matrix, _) = full_grid_run(1);
    for method in PoisonMethod::all() {
        assert_eq!(
            small_matrix.cell(method, Defence::None),
            grown_matrix.cell(method, Defence::None),
            "growing the grid must not change the {method} baseline cell"
        );
    }
}

#[test]
fn golden_ca_ablation() {
    // The CA-layer acceptance rows: multi-vantage validation refuses the
    // off-path chains but not the interception hijack; DNSSEC (with the
    // CA's validating re-fetch) refuses all three.
    use cross_layer_attacks::ca::{ca_defences, render_issuance_ablation, run_issuance_ablation};
    check("ca_ablation", &render_issuance_ablation(&run_issuance_ablation(&ca_defences(), GOLDEN_SEED)));
}

#[test]
fn golden_figure5_overlaps() {
    let cfg = golden_cfg();
    let mut both = render_venn("Figure 5a — vulnerable resolvers (overlap)", &figure5_resolver_overlap_with(&cfg));
    both.push('\n');
    both.push_str(&render_venn("Figure 5b — vulnerable domains (overlap)", &figure5_domain_overlap_with(&cfg)));
    check("figure5", &both);
}
