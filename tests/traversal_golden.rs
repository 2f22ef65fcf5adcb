//! Golden traversal fingerprints: every search entry point, hashed over
//! fixed corpora, compared to constants recorded before the traversal-core
//! refactor. A fingerprint covers the returned ids, the distance *bits* and
//! the work counters (ndc, hops, skipped) of every query — and, for the
//! collect variant, the evaluation log in emission order — so any change of
//! visit order, tie-break or accounting shows up as a mismatch.
//!
//! A mismatch prints the value the code produced; the constants may only
//! change together with a deliberate, documented change of behaviour.

use ann_suite::ann_graph::{
    beam_search_collect_dyn, beam_search_dyn, beam_search_sq8_rerank, greedy_descent_dyn,
    AcceptAll, FnFilter, GraphView, QueryResult, Scratch, SearchStats,
};
use ann_suite::ann_knng::brute_force_knn_graph;
use ann_suite::ann_service::{AttrValue, FilterExpr, IndexWriter, Metrics};
use ann_suite::ann_vectors::kernel::{set_kernel_path, KernelPath};
use ann_suite::ann_vectors::synthetic::{mean_nn_distance, Recipe};
use ann_suite::ann_vectors::{Metric, Sq8Store, VecStore};
use ann_suite::tau_mg::{
    build_tau_mng, tau_search, tau_search_filtered, tau_search_with_beam, TauIndex, TauMngParams,
    TauSearchOptions,
};
use std::sync::{Arc, Once, OnceLock};

const K: usize = 10;
/// Narrow enough that the pool fills early and QEO's bound bites.
const L: usize = 16;

/// Builds must not depend on the machine: one thread, the default kernel.
/// Every test calls this before touching the engine, and `Once` blocks the
/// others until the environment is set.
fn pin_environment() {
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        std::env::set_var("ANN_THREADS", "1");
        set_kernel_path(KernelPath::Simd);
    });
}

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: SearchStats) {
        self.word(s.ndc);
        self.word(s.hops);
        self.word(s.skipped);
    }

    fn hits(&mut self, ids: impl IntoIterator<Item = u64>, dists: &[f32], stats: SearchStats) {
        let before = self.0;
        for id in ids {
            self.word(id);
        }
        assert_ne!(before, self.0, "an empty answer fingerprints nothing");
        for d in dists {
            self.word(u64::from(d.to_bits()));
        }
        self.stats(stats);
    }

    fn result(&mut self, r: &QueryResult) {
        self.hits(r.ids.iter().map(|&i| u64::from(i)), &r.dists, r.stats);
    }
}

struct Corpus {
    base: Arc<VecStore>,
    queries: VecStore,
    index: TauIndex,
    params: TauMngParams,
}

fn corpus(recipe: Recipe, n: usize, seed: u64) -> Corpus {
    pin_environment();
    let ds = recipe.build(n, 24, seed);
    let base = Arc::new(ds.base);
    let knn = brute_force_knn_graph(ds.metric, &base, 16).unwrap();
    let params = TauMngParams { tau: mean_nn_distance(&base, 100, 0) * 0.05, ..Default::default() };
    let index = build_tau_mng(base.clone(), ds.metric, &knn, params).unwrap();
    Corpus { base, queries: ds.queries, index, params }
}

/// A corpus of its own, for the tests that mutate or consume the index.
fn fresh_sift() -> Corpus {
    corpus(Recipe::SiftLike, 1200, 4242)
}

/// The shared corpora, built once per test binary (debug builds are slow).
fn sift() -> &'static Corpus {
    static SIFT: OnceLock<Corpus> = OnceLock::new();
    SIFT.get_or_init(fresh_sift)
}

fn glove() -> &'static Corpus {
    static GLOVE: OnceLock<Corpus> = OnceLock::new();
    GLOVE.get_or_init(|| corpus(Recipe::GloveLike, 1000, 777))
}

/// Fingerprint of `f` run over every query of `c`.
fn over_queries(c: &Corpus, mut f: impl FnMut(&[f32], &mut Scratch, &mut Fingerprint)) -> u64 {
    let mut fp = Fingerprint::new();
    let mut scratch = Scratch::new(c.base.len());
    for q in 0..c.queries.len() as u32 {
        f(c.queries.get(q), &mut scratch, &mut fp);
    }
    fp.0
}

/// Collects `(case, got, want)` and fails once, listing every mismatch.
#[derive(Default)]
struct Golden(Vec<String>);

impl Golden {
    fn check(&mut self, case: &str, got: u64, want: u64) {
        if got != want {
            self.0.push(format!("{case}: got {got:#018x}, recorded {want:#018x}"));
        }
    }

    fn finish(self) {
        assert!(self.0.is_empty(), "traversal changed:\n  {}", self.0.join("\n  "));
    }
}

fn plain_beam<G: GraphView>(c: &Corpus, metric: Metric, graph: &G, entry: u32) -> u64 {
    over_queries(c, |q, scratch, fp| {
        let stats = beam_search_dyn(metric, &c.base, graph, &[entry], q, L, scratch);
        let (ids, dists) = scratch.pool.top_k(K);
        fp.result(&QueryResult { ids, dists, stats });
    })
}

#[test]
fn plain_beam_over_flat_and_var_graphs() {
    let (s, g) = (sift(), glove());
    let mut golden = Golden::default();
    let flat = plain_beam(s, Metric::L2, s.index.graph(), s.index.entry_point());
    golden.check("beam/flat/l2", flat, 0xee9c_aed8_5444_0981);
    let knn = brute_force_knn_graph(Metric::L2, &s.base, 16).unwrap().to_var_graph();
    golden.check("beam/var/l2", plain_beam(s, Metric::L2, &knn, 0), 0xfa30_2b6f_e237_d1cc);
    let cos = plain_beam(g, Metric::Cosine, g.index.graph(), g.index.entry_point());
    golden.check("beam/flat/cosine", cos, 0x801f_9132_18d1_8fa8);
    let ip = plain_beam(s, Metric::Ip, s.index.graph(), s.index.entry_point());
    golden.check("beam/flat/ip", ip, 0x974f_9e4c_4348_fd16);
    golden.finish();
}

#[test]
fn collect_logs_every_evaluation_in_emission_order() {
    let (s, g) = (sift(), glove());
    let mut golden = Golden::default();
    for (case, c, metric, want) in [
        ("collect/l2", s, Metric::L2, 0x037d_427b_f0ec_9217u64),
        ("collect/cosine", g, Metric::Cosine, 0x7f67_aa89_466e_ae24),
        ("collect/ip", s, Metric::Ip, 0xa478_f90a_2543_2283),
    ] {
        let (graph, entry) = (c.index.graph(), c.index.entry_point());
        let mut log = Vec::new();
        let got = over_queries(c, |q, scratch, fp| {
            log.clear();
            let stats =
                beam_search_collect_dyn(metric, &c.base, graph, &[entry], q, L, scratch, &mut log);
            assert_eq!(log.len() as u64, stats.ndc, "{case}: one log entry per paid distance");
            for &(d, id) in &log {
                fp.word(u64::from(id));
                fp.word(u64::from(d.to_bits()));
            }
            let (ids, dists) = scratch.pool.top_k(K);
            fp.result(&QueryResult { ids, dists, stats });
        });
        golden.check(case, got, want);
    }
    golden.finish();
}

#[test]
fn sq8_traversal_with_exact_rerank() {
    let (s, g) = (sift(), glove());
    let mut golden = Golden::default();
    for (case, c, metric, want) in [
        ("sq8/l2", s, Metric::L2, 0xa835_d5cb_2905_67adu64),
        ("sq8/cosine", g, Metric::Cosine, 0xe08d_8835_d460_a2a3),
        ("sq8/ip", s, Metric::Ip, 0x5b97_5ccd_6c5c_2eef),
    ] {
        let sq8 = Sq8Store::quantize(&c.base);
        let (graph, entry) = (c.index.graph(), c.index.entry_point());
        let got = over_queries(c, |q, scratch, fp| {
            fp.result(&beam_search_sq8_rerank(
                metric,
                &c.base,
                &sq8,
                graph,
                &[entry],
                q,
                K,
                L,
                scratch,
            ));
        });
        golden.check(case, got, want);
    }
    // The same path as serving would take it: τ-search over an index with
    // the side-car enabled (greedy descent first, counters merged).
    let mut s = fresh_sift();
    s.index.enable_sq8();
    let got = over_queries(&s, |q, scratch, fp| {
        fp.result(&tau_search(&s.index, q, K, L, TauSearchOptions::default(), scratch));
    });
    golden.check("sq8/tau_search", got, 0x6023_4770_3420_4ae2);
    golden.finish();
}

#[test]
fn greedy_descent_endpoints_and_cost() {
    let (s, g) = (sift(), glove());
    let mut golden = Golden::default();
    for (case, c, metric, want) in [
        ("greedy/l2", s, Metric::L2, 0xf30f_454a_68e8_9fcfu64),
        ("greedy/cosine", g, Metric::Cosine, 0xb844_bf95_e44b_2c00),
        ("greedy/ip", s, Metric::Ip, 0x032b_3dd9_b32b_c233),
    ] {
        let (graph, entry) = (c.index.graph(), c.index.entry_point());
        let got = over_queries(c, |q, _, fp| {
            let mut stats = SearchStats::default();
            let (node, d) = greedy_descent_dyn(metric, &c.base, graph, entry, q, &mut stats);
            fp.hits([u64::from(node)], &[d], stats);
        });
        golden.check(case, got, want);
    }
    golden.finish();
}

const OPTION_GRID: [(&str, TauSearchOptions); 4] = [
    ("two_phase+qeo", TauSearchOptions { two_phase: true, qeo: true }),
    ("two_phase", TauSearchOptions { two_phase: true, qeo: false }),
    ("qeo", TauSearchOptions { two_phase: false, qeo: true }),
    ("plain", TauSearchOptions { two_phase: false, qeo: false }),
];

/// `tau_search` on the whole option grid; and `tau_search_filtered` under
/// `AcceptAll` (selectivity 1, so no widening) must be the *same* traversal:
/// same ids, distance bits and counters, with the answer read from the
/// result pool instead of the traversal pool.
#[test]
fn tau_search_option_grid_and_accept_all_identity() {
    let (s, g) = (sift(), glove());
    let mut golden = Golden::default();
    let recorded: [(&str, &Corpus, [u64; 4]); 2] = [
        (
            "sift",
            s,
            [
                0x4f5d_f125_652a_d8e7,
                0xd7c5_f1be_c493_d030,
                0x722f_c312_0acc_5058,
                0xee9c_aed8_5444_0981,
            ],
        ),
        (
            "glove",
            g,
            [
                0xc41a_8059_a66b_52d5,
                0x6e18_a290_1166_fc02,
                0x31c9_1d70_e9ba_441c,
                0x801f_9132_18d1_8fa8,
            ],
        ),
    ];
    for (name, c, wants) in recorded {
        for ((opt_name, opts), want) in OPTION_GRID.into_iter().zip(wants) {
            let mut skipped = 0;
            let plain = over_queries(c, |q, scratch, fp| {
                let r = tau_search(&c.index, q, K, L, opts, scratch);
                skipped += r.stats.skipped;
                fp.result(&r);
            });
            assert_eq!(skipped > 0, opts.qeo, "{name}/{opt_name}: QEO must skip iff enabled");
            golden.check(&format!("tau_search/{name}/{opt_name}"), plain, want);
            let accept_all = over_queries(c, |q, scratch, fp| {
                fp.result(&tau_search_filtered(&c.index, q, K, L, opts, &AcceptAll, scratch));
            });
            assert_eq!(plain, accept_all, "{name}/{opt_name}: AcceptAll is not the plain walk");
        }
    }
    golden.finish();
}

#[test]
fn tau_search_filtered_ten_percent_and_exhaustive_backstop() {
    let (s, g) = (sift(), glove());
    let mut golden = Golden::default();
    for (name, c, want_filtered, want_exhaustive) in [
        ("sift", s, 0x0427_f300_c1d2_b7f9u64, 0xd7d0_a0a9_ee96_14f2u64),
        ("glove", g, 0x6b38_bea0_20e7_ac87, 0xf838_c652_a031_0f27),
    ] {
        let opts = TauSearchOptions::default();
        let filter = FnFilter::new(|id| id % 10 == 3, 0.1);
        let filtered = over_queries(c, |q, scratch, fp| {
            let r = tau_search_filtered(&c.index, q, K, L, opts, &filter, scratch);
            assert!(r.ids.iter().all(|id| id % 10 == 3), "{name}: a filtered-out id surfaced");
            fp.result(&r);
        });
        golden.check(&format!("tau_search_filtered/{name}/10%"), filtered, want_filtered);
        // The exhaustive beam: a beam as wide as the graph never fills, so
        // nothing is pruned or QEO-skipped.
        let n = c.base.len();
        let exhaustive = over_queries(c, |q, scratch, fp| {
            let r = tau_search_with_beam(&c.index, q, K, L, n, opts, Some(&filter), scratch);
            assert_eq!(r.stats.skipped, 0, "{name}: an unfilled beam has no QEO bound");
            fp.result(&r);
        });
        golden.check(&format!("tau_search_filtered/{name}/l_beam=n"), exhaustive, want_exhaustive);
    }
    golden.finish();
}

#[test]
fn snapshot_search_filtered_into_with_and_without_tombstones() {
    let (c, served) = (sift(), fresh_sift());
    let n = c.base.len() as u64;
    let mut golden = Golden::default();
    let (mut writer, cell) = IndexWriter::attach(served.index, c.params, Arc::new(Metrics::new()));
    for ext in 0..n {
        writer
            .set_attrs(ext, vec![("bucket".into(), AttrValue::U64(ext % 10))])
            .unwrap();
    }
    writer.publish_tombstones().unwrap();
    let expr = FilterExpr::eq("bucket", AttrValue::U64(3));

    let run = |expr: Option<&FilterExpr>| {
        let snap = cell.load();
        let (mut ids, mut dists) = (Vec::new(), Vec::new());
        over_queries(c, |q, scratch, fp| {
            let stats = snap.search_filtered_into(q, K, L, expr, scratch, &mut ids, &mut dists);
            fp.hits(ids.iter().copied(), &dists, stats);
        })
    };
    assert_eq!(cell.load().tombstone_count(), 0);
    golden.check("snapshot/clean/none", run(None), 0x4f5d_f125_652a_d8e7);
    golden.check("snapshot/clean/bucket=3", run(Some(&expr)), 0xcc1e_478a_dc0d_9afc);

    for ext in (0..n).filter(|e| e % 7 == 0) {
        writer.delete(ext).unwrap();
    }
    writer.publish_tombstones().unwrap();
    assert!(cell.load().tombstone_count() > 0);
    golden.check("snapshot/tombstones/none", run(None), 0x1d03_56e9_0296_5891);
    golden.check("snapshot/tombstones/bucket=3", run(Some(&expr)), 0xedcc_1686_a63e_6e73);
    golden.finish();
}
