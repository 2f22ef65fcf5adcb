//! Binary persistence for frozen graphs.
//!
//! Format (`GRF1`, one [`ann_vectors::codec`] frame): header | reserved
//! (u16) | cap (u32) | n (u64) | `n` row lengths (u32) | `n × cap`
//! neighbor slots (u32). Index crates embed this inside their own envelopes
//! (which add entry points, metric, τ, edge lengths, …).

use crate::adjacency::FlatGraph;
use ann_vectors::codec::{self, Format};
use ann_vectors::error::{AnnError, IntegrityCheck, Result};
use ann_vectors::io::write_atomic;

const GRAPH: Format =
    Format { name: "graph", magic: 0x4752_4631, version: 1, oldest: 1, min_len: 28 };

/// Serialize a frozen graph.
pub fn graph_to_bytes(g: &FlatGraph) -> Vec<u8> {
    let (cap, lens, data) = g.raw_parts();
    let mut w = GRAPH.writer(14 + lens.len() * 4 + data.len() * 4);
    w.u16(0).u32(cap).u64(lens.len() as u64).u32s(lens).u32s(data).seal()
}

/// Deserialize a graph written by [`graph_to_bytes`], validating checksum,
/// magic, version, per-node lengths and neighbor-id ranges.
///
/// # Errors
/// The failing [`IntegrityCheck`] with a detail.
pub fn graph_from_bytes(buf: &[u8]) -> codec::Result<FlatGraph> {
    let (_, mut r) = codec::open(buf, &GRAPH)?;
    r.u16()?; // reserved
    let cap = r.u32()?;
    let n = r.count()?;
    let lens = r.u32s(n)?;
    let data = r.u32s(n.saturating_mul(cap as usize))?;
    r.finish()?;
    if let Some(l) = lens.iter().find(|&&l| l > cap) {
        return Err((IntegrityCheck::Bounds, format!("node length {l} exceeds cap {cap}")));
    }
    for (u, (&l, row)) in lens.iter().zip(data.chunks(cap.max(1) as usize)).enumerate() {
        if let Some(bad) = row.iter().take(l as usize).find(|&&v| v as usize >= n) {
            let detail = format!("node {u} references out-of-range neighbor {bad}");
            return Err((IntegrityCheck::Bounds, detail));
        }
    }
    Ok(FlatGraph::from_raw_parts(cap, lens, data))
}

/// Save a graph to disk, atomically (temp file + fsync + rename).
pub fn save_graph(path: &std::path::Path, g: &FlatGraph) -> Result<()> {
    write_atomic(path, &graph_to_bytes(g))
}

/// Load a graph saved by [`save_graph`].
///
/// # Errors
/// [`AnnError::CorruptFile`] with path and failed-check context on any
/// validation failure; `Io` on filesystem errors.
pub fn load_graph(path: &std::path::Path) -> Result<FlatGraph> {
    let buf = std::fs::read(path)?;
    graph_from_bytes(&buf)
        .map_err(|(check, detail)| AnnError::corrupt_file(path, None, check, detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::{GraphView, VarGraph};

    fn sample() -> FlatGraph {
        let mut g = VarGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 3);
        g.add_edge(2, 0);
        FlatGraph::freeze(&g, Some(3))
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let g2 = graph_from_bytes(&graph_to_bytes(&g)).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.neighbors(0), &[1, 3]);
        assert!(g2.neighbors(1).is_empty());
    }

    #[test]
    fn detects_corruption() {
        let mut b = graph_to_bytes(&sample());
        b[12] ^= 1;
        assert!(matches!(graph_from_bytes(&b), Err((IntegrityCheck::Checksum, _))));
    }

    #[test]
    fn detects_truncation() {
        let b = graph_to_bytes(&sample());
        assert!(graph_from_bytes(&b[..b.len() - 4]).is_err());
        assert!(graph_from_bytes(&[]).is_err());
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        // Hand-craft a graph whose neighbor id exceeds n, with a valid
        // checksum, to prove semantic validation is separate from integrity.
        let mut g = VarGraph::new(2);
        g.add_edge(0, 1);
        let f = FlatGraph::freeze(&g, Some(1));
        let mut raw = graph_to_bytes(&f);
        // Body layout: magic(4) ver(2) res(2) cap(4) n(8) lens(2*4) data...
        let data_off = 4 + 2 + 2 + 4 + 8 + 2 * 4;
        raw[data_off..data_off + 4].copy_from_slice(&9u32.to_le_bytes());
        // Re-seal checksum.
        let body_len = raw.len() - 8;
        let sum = ann_vectors::io::fnv1a(&raw[..body_len]);
        raw[body_len..].copy_from_slice(&sum.to_le_bytes());
        let (check, detail) = graph_from_bytes(&raw).unwrap_err();
        assert_eq!(check, IntegrityCheck::Bounds);
        assert!(detail.contains("out-of-range"));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ann_graph_ser_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.bin");
        let g = sample();
        save_graph(&p, &g).unwrap();
        assert_eq!(load_graph(&p).unwrap(), g);
    }

    #[test]
    fn load_graph_errors_carry_path_and_check() {
        let dir = std::env::temp_dir().join("ann_graph_ser_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("garbled.bin");
        let mut raw = graph_to_bytes(&sample());
        let last = raw.len() - 1;
        raw[last] ^= 0xFF; // breaks the checksum trailer
        std::fs::write(&p, raw).unwrap();
        match load_graph(&p) {
            Err(AnnError::CorruptFile(ctx)) => {
                assert_eq!(ctx.path, p);
                assert_eq!(ctx.check, IntegrityCheck::Checksum);
            }
            other => panic!("expected CorruptFile, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = FlatGraph::freeze(&VarGraph::new(0), None);
        let g2 = graph_from_bytes(&graph_to_bytes(&g)).unwrap();
        assert_eq!(g2.num_nodes(), 0);
    }
}
