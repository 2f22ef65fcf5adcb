//! HNSW construction parameters.

/// Parameters of HNSW construction (Malkov & Yashunin, TPAMI'20).
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Target out-degree `M` for layers ≥ 1; layer 0 allows `2M`.
    pub m: usize,
    /// Candidate-list size during insertion (`efConstruction`).
    pub ef_construction: usize,
    /// Seed for level assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams { m: 16, ef_construction: 200, seed: 0x4A53 }
    }
}

impl HnswParams {
    /// Max out-degree at layer 0.
    pub fn max_m0(&self) -> usize {
        self.m * 2
    }

    /// Max out-degree at layers ≥ 1.
    pub fn max_m(&self) -> usize {
        self.m
    }

    /// Level-assignment normalization factor `mL = 1/ln(M)`.
    pub fn ml(&self) -> f64 {
        1.0 / (self.m as f64).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_caps() {
        let p = HnswParams { m: 12, ..Default::default() };
        assert_eq!(p.max_m0(), 24);
        assert_eq!(p.max_m(), 12);
        assert!((p.ml() - 1.0 / 12f64.ln()).abs() < 1e-12);
    }
}
