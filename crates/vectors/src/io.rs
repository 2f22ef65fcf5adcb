//! Vector file formats.
//!
//! * **fvecs / ivecs** — the TEXMEX interchange format used by SIFT/GIST and
//!   by the paper's evaluation pipeline: each row is a little-endian `i32`
//!   dimension followed by `dim` payload elements (`f32` or `i32`). Supported
//!   so the suite can run on the real corpora when they are available.
//! * **vstore** (`VST0`) — this workspace's own binary snapshot of a
//!   [`VecStore`] (+ metric), one [`crate::codec`] frame.

use crate::codec::{self, Format};
use crate::error::{AnnError, IntegrityCheck, Result};
use crate::metric::Metric;
use crate::store::VecStore;
use std::io::{BufReader, Read, Write};
use std::path::Path;

pub use crate::codec::fnv1a;

const VSTORE: Format =
    Format { name: "vstore", magic: 0x5653_5430, version: 1, oldest: 1, min_len: 32 };

/// Uniquifies temp-file names when several threads write through
/// [`write_atomic`] into the same directory.
// ordering: monotone uniqueness counter; no data is published through it.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Durably replace `path` with `data`.
///
/// The crash-safety contract: readers of `path` see either the old file or
/// the new one, never a torn mix, even across power loss. Implemented as
/// temp file in the same directory → `write_all` → `sync_all` → atomic
/// `rename` over `path` → parent-directory fsync (so the rename itself is
/// durable). On any failure the temp file is removed best-effort and `path`
/// is untouched.
pub fn write_atomic(path: &Path, data: &[u8]) -> Result<()> {
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed); // ordering: uniqueness counter
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    sync_parent_dir(path)
}

/// Fsync the directory containing `path`, making a just-completed rename
/// durable. A no-op on platforms without directory handles (Windows).
pub fn sync_parent_dir(path: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = parent {
            std::fs::File::open(dir)?.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// Read an entire `.fvecs` file into a store.
///
/// # Errors
/// `CorruptIndex` on malformed rows (non-positive or inconsistent dims,
/// truncated payload); `Io` on filesystem errors.
pub fn read_fvecs(path: &Path) -> Result<VecStore> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut dim: Option<usize> = None;
    let mut data: Vec<f32> = Vec::new();
    let mut head = [0u8; 4];
    loop {
        match r.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let d = i32::from_le_bytes(head);
        if d <= 0 {
            return Err(AnnError::CorruptIndex(format!("fvecs row with dim {d}")));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(expected) if expected != d => {
                return Err(AnnError::CorruptIndex(format!(
                    "fvecs dim changed from {expected} to {d}"
                )));
            }
            _ => {}
        }
        let mut row = vec![0u8; d * 4];
        r.read_exact(&mut row)
            .map_err(|_| AnnError::CorruptIndex("fvecs row payload truncated".into()))?;
        for c in row.chunks_exact(4) {
            data.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
    }
    let dim = dim.ok_or(AnnError::EmptyDataset)?;
    VecStore::from_flat(dim, data)
}

/// Write a store as `.fvecs`, atomically (temp file + fsync + rename).
pub fn write_fvecs(path: &Path, store: &VecStore) -> Result<()> {
    let dim = store.dim() as i32;
    let mut data = Vec::with_capacity(store.len() * (store.dim() + 1) * 4);
    for i in 0..store.len() as u32 {
        data.extend_from_slice(&dim.to_le_bytes());
        for x in store.get(i) {
            data.extend_from_slice(&x.to_le_bytes());
        }
    }
    write_atomic(path, &data)
}

/// Read an `.ivecs` file (e.g. ground-truth id lists) as rows of `u32`.
pub fn read_ivecs(path: &Path) -> Result<Vec<Vec<u32>>> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut rows = Vec::new();
    let mut head = [0u8; 4];
    loop {
        match r.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let d = i32::from_le_bytes(head);
        if d < 0 {
            return Err(AnnError::CorruptIndex(format!("ivecs row with dim {d}")));
        }
        let mut row = vec![0u8; d as usize * 4];
        r.read_exact(&mut row)
            .map_err(|_| AnnError::CorruptIndex("ivecs row payload truncated".into()))?;
        rows.push(
            row.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        );
    }
    Ok(rows)
}

/// Write rows of ids as `.ivecs`, atomically (temp file + fsync + rename).
pub fn write_ivecs(path: &Path, rows: &[Vec<u32>]) -> Result<()> {
    let mut data = Vec::with_capacity(rows.iter().map(|r| (r.len() + 1) * 4).sum());
    for row in rows {
        data.extend_from_slice(&(row.len() as i32).to_le_bytes());
        for id in row {
            data.extend_from_slice(&id.to_le_bytes());
        }
    }
    write_atomic(path, &data)
}

/// Serialize a store (with its metric) to the versioned `vstore` format:
/// `VST0` header | metric tag (u8) | reserved (u8) | dim (u64) | n (u64) |
/// `n × dim` f32, sealed.
pub fn vstore_to_bytes(store: &VecStore, metric: Metric) -> Vec<u8> {
    let mut w = VSTORE.writer(18 + store.as_flat().len() * 4);
    w.u8(metric.tag()).u8(0).u64(store.dim() as u64).u64(store.len() as u64);
    w.f32s(store.as_flat()).seal()
}

/// Deserialize a `vstore` buffer, validating checksum, magic, version and
/// the header's promise about the payload.
///
/// # Errors
/// The failing [`IntegrityCheck`] with a detail.
pub fn vstore_from_bytes(buf: &[u8]) -> codec::Result<(VecStore, Metric)> {
    let (_, mut r) = codec::open(buf, &VSTORE)?;
    let metric = Metric::from_tag(r.u8()?)
        .ok_or((IntegrityCheck::Bounds, "vstore unknown metric tag".to_string()))?;
    r.u8()?; // reserved
    let (dim, n) = (r.count()?, r.count()?);
    let data = r.f32s(dim.saturating_mul(n))?;
    r.finish()?;
    let store = VecStore::from_flat(dim, data)
        .map_err(|e| (IntegrityCheck::Payload, format!("vstore payload rejected: {e}")))?;
    Ok((store, metric))
}

/// Save a store to disk in `vstore` format, atomically.
pub fn save_vstore(path: &Path, store: &VecStore, metric: Metric) -> Result<()> {
    write_atomic(path, &vstore_to_bytes(store, metric))
}

/// Load a store saved by [`save_vstore`].
///
/// # Errors
/// [`AnnError::CorruptFile`] with path and failed-check context on any
/// validation failure; `Io` on filesystem errors.
pub fn load_vstore(path: &Path) -> Result<(VecStore, Metric)> {
    let buf = std::fs::read(path)?;
    vstore_from_bytes(&buf)
        .map_err(|(check, detail)| AnnError::corrupt_file(path, None, check, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ann_vectors_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_store() -> VecStore {
        VecStore::from_rows(&[vec![1.0, -2.0, 3.5], vec![0.0, 0.25, -9.0]]).unwrap()
    }

    #[test]
    fn fvecs_roundtrip() {
        let p = tmp("roundtrip.fvecs");
        let s = sample_store();
        write_fvecs(&p, &s).unwrap();
        let s2 = read_fvecs(&p).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn fvecs_rejects_truncated_payload() {
        let p = tmp("truncated.fvecs");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3i32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes()); // only 1 of 3 floats
        std::fs::write(&p, bytes).unwrap();
        assert!(matches!(read_fvecs(&p), Err(AnnError::CorruptIndex(_))));
    }

    #[test]
    fn fvecs_rejects_inconsistent_dim() {
        let p = tmp("baddim.fvecs");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1i32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&2i32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&2.0f32.to_le_bytes());
        std::fs::write(&p, bytes).unwrap();
        assert!(matches!(read_fvecs(&p), Err(AnnError::CorruptIndex(_))));
    }

    #[test]
    fn ivecs_roundtrip() {
        let p = tmp("roundtrip.ivecs");
        let rows = vec![vec![1, 2, 3], vec![], vec![9]];
        write_ivecs(&p, &rows).unwrap();
        assert_eq!(read_ivecs(&p).unwrap(), rows);
    }

    #[test]
    fn vstore_roundtrip() {
        let s = sample_store();
        let b = vstore_to_bytes(&s, Metric::Cosine);
        let (s2, m) = vstore_from_bytes(&b).unwrap();
        assert_eq!(s, s2);
        assert_eq!(m, Metric::Cosine);
    }

    #[test]
    fn vstore_detects_bitflip() {
        let s = sample_store();
        let mut b = vstore_to_bytes(&s, Metric::L2);
        let mid = b.len() / 2;
        b[mid] ^= 0x40;
        assert!(matches!(vstore_from_bytes(&b), Err((IntegrityCheck::Checksum, _))));
    }

    #[test]
    fn vstore_rejects_short_buffer() {
        assert!(matches!(vstore_from_bytes(&[0u8; 5]), Err((IntegrityCheck::Truncated, _))));
    }

    #[test]
    fn vstore_file_roundtrip() {
        let p = tmp("store.vstore");
        let s = sample_store();
        save_vstore(&p, &s, Metric::Ip).unwrap();
        let (s2, m) = load_vstore(&p).unwrap();
        assert_eq!(s, s2);
        assert_eq!(m, Metric::Ip);
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let p = tmp("atomic.bin");
        write_atomic(&p, b"first").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"first");
        write_atomic(&p, b"second").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"second");
        // No temp litter left behind in the directory.
        let dir = p.parent().unwrap();
        let litter: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(litter.is_empty(), "{litter:?}");
    }

    #[test]
    fn load_vstore_errors_carry_path_and_check() {
        let p = tmp("ctx.vstore");
        let s = sample_store();
        save_vstore(&p, &s, Metric::L2).unwrap();
        let mut b = std::fs::read(&p).unwrap();
        let mid = b.len() / 2;
        b[mid] ^= 0x10;
        std::fs::write(&p, b).unwrap();
        match load_vstore(&p) {
            Err(AnnError::CorruptFile(ctx)) => {
                assert_eq!(ctx.path, p);
                assert_eq!(ctx.check, crate::error::IntegrityCheck::Checksum);
                assert_eq!(ctx.generation, None);
            }
            other => panic!("expected CorruptFile, got {other:?}"),
        }
    }
}
