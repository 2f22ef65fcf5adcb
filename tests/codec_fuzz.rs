//! Fail-closed decoding: every on-disk decoder returns `Ok` or a typed error
//! on damaged input, never a panic.
//!
//! Two parts:
//!
//! * **Regressions** for three crafted inputs whose checksum is valid but
//!   whose length fields overflow `usize` arithmetic (a `VST0` store with
//!   `dim = 2^62`, a `TMG1` index with graph length `u64::MAX`, an `SNP1`
//!   envelope with store length `u64::MAX − 7`).
//! * **A seeded byte-mutation loop per format** (`VST0`, `GRF1`, `TMG1`,
//!   `HNW1`, `SNP1`, `WAL1`): truncation at every length, with and without
//!   re-sealing; random bit flips, re-sealed; and every offset overwritten
//!   with a boundary value (`0`, `MAX`, `MAX − 7`) at widths 1, 2, 4 and 8,
//!   which hits every length and count field. Re-sealing rewrites the
//!   FNV-1a trailer of every frame around the mutation, nested frames
//!   first, so the damage reaches the field decoders instead of stopping
//!   at a checksum.
//!
//! A decoder that trusted a damaged count would allocate from it; the
//! boundary values make such an allocation large enough to abort the test.

use ann_suite::ann_graph::serialize::{graph_from_bytes, graph_to_bytes};
use ann_suite::ann_hnsw::{Hnsw, HnswParams};
use ann_suite::ann_knng::brute_force_knn_graph;
use ann_suite::ann_service::{
    normalize_attrs, read_wal_dir, AttrValue, DurabilityMode, IndexWriter, Metrics, RealFs,
    ShardWal, SnapshotFs, SnapshotStore, SnapshotStoreConfig,
};
use ann_suite::ann_vectors::error::AnnError;
use ann_suite::ann_vectors::io::{fnv1a, vstore_from_bytes, vstore_to_bytes};
use ann_suite::ann_vectors::synthetic::uniform;
use ann_suite::ann_vectors::{Metric, VecStore};
use ann_suite::tau_mg::{build_tau_mng, TauIndex, TauMngParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Once};

const PARAMS: TauMngParams = TauMngParams { tau: 0.1, r: 4, l: 16, c: 40 };
const BIT_FLIPS: usize = 1500;

fn pin_environment() {
    static PIN: Once = Once::new();
    PIN.call_once(|| std::env::set_var("ANN_THREADS", "1"));
}

fn small_base() -> Arc<VecStore> {
    pin_environment();
    Arc::new(uniform(3, 12, 5))
}

fn small_index(base: &Arc<VecStore>) -> TauIndex {
    let knn = brute_force_knn_graph(Metric::L2, base, 4).unwrap();
    build_tau_mng(Arc::clone(base), Metric::L2, &knn, PARAMS).unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("ann_suite_codec_fuzz")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn u64_at(b: &[u8], at: usize) -> usize {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize
}

fn u32_at(b: &[u8], at: usize) -> usize {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize
}

/// Rewrite the 8-byte FNV-1a trailer that follows `body`.
fn reseal(buf: &mut [u8], body: Range<usize>) {
    let sum = fnv1a(&buf[body.clone()]);
    buf[body.end..body.end + 8].copy_from_slice(&sum.to_le_bytes());
}

/// `body ++ fnv1a(body)`.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out
}

/// An encoded file plus the bodies of the sealed frames inside it, each
/// followed by its trailer, listed inner before outer.
struct Sample {
    bytes: Vec<u8>,
    frames: Vec<Range<usize>>,
}

impl Sample {
    fn single(bytes: Vec<u8>) -> Sample {
        let body = 0..bytes.len() - 8;
        Sample { bytes, frames: vec![body] }
    }

    fn resealed(&self, mut buf: Vec<u8>) -> Vec<u8> {
        for f in &self.frames {
            reseal(&mut buf, f.clone());
        }
        buf
    }
}

/// Run `decode` on every mutation of `sample`; a panic fails the test with
/// the mutation that caused it. Returns how many mutants decoded `Ok`.
fn fuzz(name: &str, sample: &Sample, seed: u64, decode: impl Fn(&[u8]) -> bool) -> usize {
    let bytes = &sample.bytes;
    let mut accepted = 0;
    let mut run =
        |what: String, input: &[u8]| match catch_unwind(AssertUnwindSafe(|| decode(input))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("{name}: decoder panicked on {what}"),
        };
    assert!(decode(bytes), "{name}: the undamaged sample must decode");
    let body_len = bytes.len() - 8;
    for cut in 0..bytes.len() {
        run(format!("truncation at {cut}"), &bytes[..cut]);
        if cut <= body_len {
            run(format!("re-sealed truncation at {cut}"), &sealed(&bytes[..cut]));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..BIT_FLIPS {
        let pos = rng.random_range(0..body_len);
        let bit = rng.random_range(0..8u32);
        let mut m = bytes.clone();
        m[pos] ^= 1 << bit;
        run(format!("re-sealed flip of bit {bit} at {pos}"), &sample.resealed(m));
    }
    for width in [1usize, 2, 4, 8] {
        let max = u64::MAX >> (64 - 8 * width);
        for value in [0, max, max - 7] {
            for pos in 0..=body_len - width {
                let mut m = bytes.clone();
                m[pos..pos + width].copy_from_slice(&value.to_le_bytes()[..width]);
                run(format!("{width}-byte {value:#x} at {pos}"), &sample.resealed(m));
            }
        }
    }
    accepted
}

/// A one-file filesystem: decoders read whatever bytes the test put there.
#[derive(Debug)]
struct MemFs {
    path: PathBuf,
    bytes: Mutex<Vec<u8>>,
}

impl MemFs {
    fn new(path: &str) -> Arc<MemFs> {
        Arc::new(MemFs { path: PathBuf::from(path), bytes: Mutex::new(Vec::new()) })
    }

    fn set(&self, data: &[u8]) {
        *self.bytes.lock().unwrap() = data.to_vec();
    }
}

impl SnapshotFs for MemFs {
    fn write_file(&self, _: &Path, _: &[u8]) -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
    fn rename(&self, _: &Path, _: &Path) -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
    fn sync_dir(&self, _: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        assert_eq!(path, self.path);
        Ok(self.bytes.lock().unwrap().clone())
    }
    fn list_dir(&self, _: &Path) -> std::io::Result<Vec<PathBuf>> {
        Ok(vec![self.path.clone()])
    }
    fn remove_file(&self, _: &Path) -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
    fn create_dir_all(&self, _: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn append_file(&self, _: &Path, _: &[u8]) -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
    fn sync_file(&self, _: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn read_suffix(&self, _: &Path, _: u64) -> std::io::Result<Vec<u8>> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

/// A persisted `SNP1` v3 envelope: 12 points, three of them with
/// attributes.
fn snp1_bytes() -> Vec<u8> {
    let base = small_base();
    let (mut writer, cell) =
        IndexWriter::attach(small_index(&base), PARAMS, Arc::new(Metrics::new()));
    for ext in [1u64, 5, 9] {
        let attrs = vec![
            ("k".to_string(), AttrValue::Str(format!("v{ext}"))),
            ("n".to_string(), AttrValue::U64(ext)),
            ("b".to_string(), AttrValue::Bool(ext > 4)),
        ];
        writer.set_attrs(ext, attrs).unwrap();
    }
    writer.publish().unwrap();
    let dir = scratch_dir("snp1-sample");
    let disk = SnapshotStore::open(&dir).unwrap();
    std::fs::read(disk.persist(&cell.load(), PARAMS, 3).unwrap()).unwrap()
}

fn generation_of(snp1: &[u8]) -> u64 {
    u64_at(snp1, 8) as u64
}

fn snap_name(generation: u64) -> String {
    format!("gen-{generation:020}.snap")
}

// ---------------------------------------------------------------------------
// Regressions: checksum-valid inputs whose length fields overflow.
// ---------------------------------------------------------------------------

#[test]
fn vstore_with_overflowing_dims_is_refused() {
    let mut body = Vec::new();
    body.extend_from_slice(&0x5653_5430u32.to_le_bytes()); // "VST0"
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(&[0, 0]); // L2, reserved
    body.extend_from_slice(&(1u64 << 62).to_le_bytes()); // dim
    body.extend_from_slice(&1u64.to_le_bytes()); // n
    assert!(vstore_from_bytes(&sealed(&body)).is_err());
}

#[test]
fn tau_index_with_u64_max_graph_length_is_refused() {
    let base = small_base();
    let mut bytes = small_index(&base).to_bytes();
    // Header: magic 4 | version 2 | metric 1 | algo 1 | tau 4 | entry 4 |
    // n 8 | dim 8 | graph length 8.
    bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
    let body = 0..bytes.len() - 8;
    reseal(&mut bytes, body);
    assert!(TauIndex::from_bytes(&bytes, base, Metric::L2).is_err());
}

#[test]
fn recover_quarantines_snapshot_with_overflowing_store_length() {
    let dir = scratch_dir("store-len");
    let bytes = snp1_bytes();
    let older = generation_of(&bytes);
    std::fs::write(dir.join(snap_name(older)), &bytes).unwrap();
    // A newer generation whose only defect is the store length: the
    // 60-byte header (generation at 8, n at 52), the external-id table,
    // then the store length.
    let at = 60 + 8 * u64_at(&bytes, 52);
    let mut forged = bytes;
    forged[8..16].copy_from_slice(&(older + 1).to_le_bytes());
    forged[at..at + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
    let body = 0..forged.len() - 8;
    reseal(&mut forged, body);
    let newer = dir.join(snap_name(older + 1));
    std::fs::write(&newer, &forged).unwrap();

    let report = SnapshotStore::open(&dir).unwrap().recover().unwrap();
    assert_eq!(report.recovered.expect("older generation served").generation, older);
    assert_eq!(report.quarantined.len(), 1);
    assert!(matches!(report.quarantined[0].1, AnnError::CorruptFile(_)));
    assert!(!newer.exists());
    assert!(dir.join(format!("{}.corrupt", snap_name(older + 1))).exists());
}

// ---------------------------------------------------------------------------
// One seeded mutation loop per format.
// ---------------------------------------------------------------------------

#[test]
fn vst0_mutations_fail_closed() {
    let bytes = vstore_to_bytes(&small_base(), Metric::Cosine);
    fuzz("VST0", &Sample::single(bytes), 1, |b| vstore_from_bytes(b).is_ok());
}

#[test]
fn grf1_mutations_fail_closed() {
    let bytes = graph_to_bytes(small_index(&small_base()).graph());
    fuzz("GRF1", &Sample::single(bytes), 2, |b| graph_from_bytes(b).is_ok());
}

#[test]
fn tmg1_mutations_fail_closed() {
    let base = small_base();
    let bytes = small_index(&base).to_bytes();
    // The graph frame starts after the 40-byte header and its length.
    let graph = 40..40 + u64_at(&bytes, 32) - 8;
    let sample = Sample { frames: vec![graph, 0..bytes.len() - 8], bytes };
    fuzz("TMG1", &sample, 3, |b| {
        TauIndex::from_bytes(b, Arc::clone(&base), Metric::L2).is_ok()
    });
}

#[test]
fn hnw1_mutations_fail_closed() {
    let base = small_base();
    let params = HnswParams { m: 3, ef_construction: 16, ..Default::default() };
    let index = Hnsw::build(Arc::clone(&base), Metric::L2, params).unwrap();
    let bytes = index.to_bytes();
    // The layer-0 graph frame ends the body.
    let glen = graph_to_bytes(index.bottom_layer()).len();
    let end = bytes.len() - 8;
    let sample = Sample { frames: vec![end - glen..end - 8, 0..end], bytes };
    fuzz("HNW1", &sample, 4, |b| {
        Hnsw::from_bytes(b, Arc::clone(&base), Metric::L2).is_ok()
    });
}

#[test]
fn snp1_mutations_fail_closed() {
    let bytes = snp1_bytes();
    // Walk the v3 layout to find the nested frames: the vector store, the
    // index (and the graph inside it), and the attribute section.
    let store_at = 60 + 8 * u64_at(&bytes, 52) + 8;
    let store_len = u64_at(&bytes, store_at - 8);
    let index_at = store_at + store_len + 8;
    let index_len = u64_at(&bytes, index_at - 8);
    let graph_at = index_at + 40;
    let graph_len = u64_at(&bytes, graph_at - 8);
    let attrs_at = index_at + index_len + 8;
    let attrs_len = u64_at(&bytes, attrs_at - 8);
    let sample = Sample {
        frames: vec![
            store_at..store_at + store_len - 8,
            graph_at..graph_at + graph_len - 8,
            index_at..index_at + index_len - 8,
            attrs_at..attrs_at + attrs_len,
            0..bytes.len() - 8,
        ],
        bytes,
    };
    let generation = generation_of(&sample.bytes);
    let fs = MemFs::new(&format!("/mem/{}", snap_name(generation)));
    let disk =
        SnapshotStore::open_with_fs("/mem", fs.clone(), SnapshotStoreConfig::default()).unwrap();
    let accepted = fuzz("SNP1", &sample, 5, |b| {
        fs.set(b);
        match disk.load_generation(generation) {
            Ok(_) => true,
            Err(AnnError::CorruptFile(_)) => false,
            Err(other) => panic!("untyped snapshot error: {other}"),
        }
    });
    assert!(accepted > 0, "some mutants (vector payload bits) are valid snapshots");
}

#[test]
fn wal1_mutations_fail_closed() {
    let dir = scratch_dir("wal1-sample");
    let mut wal =
        ShardWal::fresh(&dir, 2, Arc::new(RealFs), DurabilityMode::None, Arc::new(Metrics::new()));
    let attrs = normalize_attrs(vec![
        ("tenant".to_string(), AttrValue::Str("acme".into())),
        ("tier".to_string(), AttrValue::U64(2)),
        ("hot".to_string(), AttrValue::Bool(true)),
    ])
    .unwrap();
    wal.append_insert(40, &[0.5, -1.25, 3.0]).unwrap();
    wal.append_delete(7).unwrap();
    wal.append_set_attrs(40, &attrs).unwrap();
    let bytes = std::fs::read(dir.join("wal-00000000000000000001.wal")).unwrap();
    // The header frame, then one `len ++ body` frame per record.
    let mut frames = Vec::new();
    frames.push(0..24);
    let mut at = 32;
    while at < bytes.len() {
        let end = at + 4 + u32_at(&bytes, at);
        frames.push(at..end);
        at = end + 8;
    }
    assert_eq!(frames.len(), 4);
    let fs = MemFs::new("/mem/wal-00000000000000000001.wal");
    let dyn_fs: Arc<dyn SnapshotFs> = fs.clone();
    let sample = Sample { bytes, frames };
    fuzz("WAL1", &sample, 6, |b| {
        fs.set(b);
        let replay = read_wal_dir(&dyn_fs, Path::new("/mem"), 0).unwrap();
        for (_, e) in &replay.damaged {
            assert!(matches!(e, AnnError::CorruptWal(_)), "untyped journal damage: {e}");
        }
        replay.damaged.is_empty()
    });
}
