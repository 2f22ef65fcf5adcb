//! Golden bytes for every on-disk format: the FNV-1a of each encoder's
//! output on fixed inputs, compared to constants recorded before the codec
//! refactor, plus a decode-of-encode round trip per format.
//!
//! | format | encoder |
//! |---|---|
//! | `VST0` | `vstore_to_bytes` × {L2, Ip, Cosine} |
//! | `GRF1` | `graph_to_bytes`: τ-MNG, NSG, SSG, Vamana, a dynamically inserted τ-MNG and the empty graph |
//! | `TMG1` | `TauIndex::to_bytes`, τ-MNG and exact τ-MG |
//! | `HNW1` | `Hnsw::to_bytes` |
//! | `SNP1` | `SnapshotStore::persist`, v3 with attributes |
//! | `WAL1` | one segment: an insert, a delete and a set-attrs record |
//!
//! Builds run at `ANN_THREADS=1`, so every input is the same on any
//! machine. A mismatch prints the value the code produced; the constants may
//! only change together with a deliberate, documented format change.

use ann_suite::ann_graph::serialize::{graph_from_bytes, graph_to_bytes};
use ann_suite::ann_graph::{FlatGraph, VarGraph};
use ann_suite::ann_hnsw::{Hnsw, HnswParams};
use ann_suite::ann_knng::brute_force_knn_graph;
use ann_suite::ann_nsg::{build_nsg, build_ssg, NsgParams, SsgParams};
use ann_suite::ann_service::{
    normalize_attrs, read_wal_dir, AttrValue, DurabilityMode, IndexWriter, Metrics, RealFs,
    ShardWal, SnapshotFs, SnapshotStore, SnapshotStoreConfig, WalOp,
};
use ann_suite::ann_vamana::{build_vamana, VamanaParams};
use ann_suite::ann_vectors::io::{fnv1a, vstore_from_bytes, vstore_to_bytes};
use ann_suite::ann_vectors::synthetic::uniform;
use ann_suite::ann_vectors::{Metric, VecStore};
use ann_suite::tau_mg::{
    build_tau_mg, build_tau_mng, DynamicTauMng, TauIndex, TauMgParams, TauMngParams,
};
use std::path::PathBuf;
use std::sync::{Arc, Once};

const PARAMS: TauMngParams = TauMngParams { tau: 0.1, r: 12, l: 40, c: 120 };

fn pin_environment() {
    static PIN: Once = Once::new();
    PIN.call_once(|| std::env::set_var("ANN_THREADS", "1"));
}

fn base() -> Arc<VecStore> {
    pin_environment();
    Arc::new(uniform(6, 90, 29))
}

fn tau_mng(base: &Arc<VecStore>) -> TauIndex {
    let knn = brute_force_knn_graph(Metric::L2, base, 8).unwrap();
    build_tau_mng(Arc::clone(base), Metric::L2, &knn, PARAMS).unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("ann_suite_codec_golden")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn golden(name: &str, bytes: &[u8], want: u64) {
    let got = fnv1a(bytes);
    assert_eq!(got, want, "{name}: encoder output changed, fnv1a is {got:#018x}");
}

#[test]
fn vst0_per_metric() {
    let store = base();
    for (metric, want) in [
        (Metric::L2, 0x6068_8775_6646_e9b4),
        (Metric::Ip, 0x8c07_9c94_6d82_ace3),
        (Metric::Cosine, 0xc862_3395_35c8_2d1b),
    ] {
        let bytes = vstore_to_bytes(&store, metric);
        golden(&format!("VST0 {metric:?}"), &bytes, want);
        let (back, m) = vstore_from_bytes(&bytes).unwrap();
        assert_eq!(back, *store);
        assert_eq!(m, metric);
    }
}

/// Every point of `store` inserted one at a time into a `DynamicTauMng`
/// whose degree cap (6) is far below what the τ rule keeps on this corpus,
/// so many reverse-edge offers overflow a full list and re-prune it — the
/// serving write path — then compacted into a frozen index.
fn dynamic_tau_mng(store: &VecStore) -> TauIndex {
    let params = TauMngParams { r: 6, ..PARAMS };
    let mut dynamic = DynamicTauMng::new(store.dim(), Metric::L2, params).unwrap();
    for i in 0..store.len() as u32 {
        dynamic.insert(store.get(i)).unwrap();
    }
    dynamic.compact().unwrap().0
}

#[test]
fn grf1_tau_graph_and_empty_graph() {
    let store = base();
    let index = tau_mng(&store);
    let knn = brute_force_knn_graph(Metric::L2, &store, 8).unwrap();
    let nsg = build_nsg(
        Arc::clone(&store),
        Metric::L2,
        &knn,
        NsgParams { r: PARAMS.r, l: PARAMS.l, c: PARAMS.c },
    )
    .unwrap();
    let ssg = build_ssg(
        Arc::clone(&store),
        Metric::L2,
        &knn,
        SsgParams { r: PARAMS.r, c: PARAMS.c, l: PARAMS.l, ..Default::default() },
    )
    .unwrap();
    let vamana = build_vamana(
        Arc::clone(&store),
        Metric::L2,
        VamanaParams { r: 8, l: PARAMS.l, ..Default::default() },
    )
    .unwrap();
    let dynamic = dynamic_tau_mng(&store);
    let empty = FlatGraph::freeze(&VarGraph::new(0), None);
    for (name, g, want) in [
        ("GRF1 tau-MNG", index.graph(), 0x4de5_cdb7_c341_92b5),
        ("GRF1 NSG", nsg.graph(), 0x167b_0183_07cc_6ff4),
        ("GRF1 SSG", ssg.graph(), 0x15a6_4a68_0b3c_4078),
        ("GRF1 Vamana", vamana.graph(), 0x2ccd_6bca_5717_8945),
        ("GRF1 dynamic tau-MNG", dynamic.graph(), 0xd582_9af6_150d_0d04),
        ("GRF1 empty", &empty, 0x4ccb_da4e_024c_f5bb),
    ] {
        let bytes = graph_to_bytes(g);
        golden(name, &bytes, want);
        assert_eq!(graph_from_bytes(&bytes).unwrap(), *g);
    }
}

#[test]
fn tmg1_tau_mng_and_tau_mg() {
    let store = base();
    let exact = build_tau_mg(
        Arc::clone(&store),
        Metric::L2,
        TauMgParams { tau: 0.1, degree_cap: Some(10) },
    )
    .unwrap();
    for (name, index, want) in [
        ("TMG1 tau-MNG", tau_mng(&store), 0x704a_c03e_1d0e_7890),
        ("TMG1 tau-MG", exact, 0x6da2_d0b6_0dd9_8fc6),
    ] {
        let bytes = index.to_bytes();
        golden(name, &bytes, want);
        let back = TauIndex::from_bytes(&bytes, Arc::clone(&store), Metric::L2).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.graph(), index.graph());
        assert_eq!(
            (back.entry_point(), back.tau().to_bits()),
            (index.entry_point(), index.tau().to_bits())
        );
    }
}

#[test]
fn hnw1() {
    let store = base();
    let params = HnswParams { m: 6, ef_construction: 40, ..Default::default() };
    let index = Hnsw::build(Arc::clone(&store), Metric::L2, params).unwrap();
    let bytes = index.to_bytes();
    golden("HNW1", &bytes, 0xf439_a616_c4a2_7613);
    let back = Hnsw::from_bytes(&bytes, store, Metric::L2).unwrap();
    assert_eq!(back.to_bytes(), bytes);
    assert_eq!(back.bottom_layer(), index.bottom_layer());
    assert_eq!(back.entry_point(), index.entry_point());
}

#[test]
fn snp1_v3_with_attributes() {
    let store = base();
    let (mut writer, cell) = IndexWriter::attach(tau_mng(&store), PARAMS, Arc::new(Metrics::new()));
    for ext in (0..90u64).step_by(11) {
        let attrs = vec![
            ("band".to_string(), AttrValue::U64(ext % 4)),
            ("hot".to_string(), AttrValue::Bool(ext % 2 == 0)),
            ("label".to_string(), AttrValue::Str(format!("row-{ext}"))),
        ];
        writer.set_attrs(ext, attrs).unwrap();
    }
    writer.publish().unwrap();
    let snap = cell.load();
    let dir = scratch_dir("snp1");
    let disk = SnapshotStore::open_with_fs(
        &dir,
        Arc::new(RealFs),
        SnapshotStoreConfig { audit_on_recover: false, ..Default::default() },
    )
    .unwrap();
    let path = disk.persist(&snap, PARAMS, 17).unwrap();
    golden("SNP1 v3", &std::fs::read(path).unwrap(), 0x2390_7f39_5392_ac1d);

    let back = disk.load_generation(snap.generation()).unwrap();
    assert_eq!(back.generation, snap.generation());
    assert_eq!(back.covered_lsn, 17);
    assert_eq!(back.external_ids, snap.external_ids());
    assert_eq!(back.index.to_bytes(), snap.index().to_bytes());
    assert_eq!(**back.index.store(), **snap.index().store());
    let p = back.params;
    assert_eq!(
        (p.tau.to_bits(), p.r, p.l, p.c),
        (PARAMS.tau.to_bits(), PARAMS.r, PARAMS.l, PARAMS.c)
    );
    assert_eq!(back.attrs.len(), snap.attr_count());
    for (ext, rec) in &back.attrs {
        assert_eq!(Some(rec), snap.attrs_of(*ext), "id {ext}");
    }
}

#[test]
fn wal1_segment_insert_delete_set_attrs() {
    let dir = scratch_dir("wal1");
    let fs: Arc<dyn SnapshotFs> = Arc::new(RealFs);
    let mut wal =
        ShardWal::fresh(&dir, 3, Arc::clone(&fs), DurabilityMode::Strict, Arc::new(Metrics::new()));
    let attrs = normalize_attrs(vec![
        ("tenant".to_string(), AttrValue::Str("acme".into())),
        ("tier".to_string(), AttrValue::U64(2)),
        ("hot".to_string(), AttrValue::Bool(true)),
    ])
    .unwrap();
    let ops = vec![
        WalOp::Insert { external: 40, vector: vec![0.5, -1.25, 3.0, 0.0] },
        WalOp::Delete { external: 7 },
        WalOp::SetAttrs { external: 40, attrs: attrs.clone() },
    ];
    wal.append_insert(40, &[0.5, -1.25, 3.0, 0.0]).unwrap();
    wal.append_delete(7).unwrap();
    wal.append_set_attrs(40, &attrs).unwrap();
    let segment = std::fs::read(dir.join("wal-00000000000000000001.wal")).unwrap();
    golden("WAL1 segment", &segment, 0x3f16_7064_657f_0a67);

    let replay = read_wal_dir(&fs, &dir, 0).unwrap();
    assert!(replay.damaged.is_empty(), "{:?}", replay.damaged);
    assert_eq!(replay.last_lsn, 3);
    let got: Vec<(u64, u32, WalOp)> =
        replay.records.into_iter().map(|r| (r.lsn, r.shard, r.op)).collect();
    let want: Vec<(u64, u32, WalOp)> =
        ops.into_iter().zip(1..).map(|(op, lsn)| (lsn, 3, op)).collect();
    assert_eq!(got, want);
}
