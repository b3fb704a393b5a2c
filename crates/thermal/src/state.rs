//! The thermal state: per-cell temperatures plus the distance and summary
//! metrics every experiment reports.

use crate::floorplan::Floorplan;
use crate::lanes::{LANES, W8};

/// Temperatures (Kelvin) of every floorplan cell at one point in time.
///
/// This is the dataflow *fact* of the paper's analysis — "a discrete set
/// of points" approximating the continuous thermal field (§3).
///
/// # Examples
///
/// ```
/// use tadfa_thermal::ThermalState;
/// let mut s = ThermalState::uniform(4, 318.15);
/// s.set(2, 330.0);
/// assert_eq!(s.peak(), 330.0);
/// assert!(s.mean() > 318.0);
/// ```
#[derive(PartialEq, Debug)]
pub struct ThermalState {
    temps: Vec<f64>,
}

// Manual impl so `clone_from` reuses the destination's allocation
// (`Vec::clone_from` keeps the buffer; the trait default would drop and
// reallocate). The DFA's steady-state sweeps lean on this: every
// per-sweep `clone_from` into walker/entry/merge destinations must be
// a copy, not an allocation.
impl Clone for ThermalState {
    fn clone(&self) -> ThermalState {
        ThermalState {
            temps: self.temps.clone(),
        }
    }

    fn clone_from(&mut self, source: &ThermalState) {
        self.temps.clone_from(&source.temps);
    }
}

impl ThermalState {
    /// All cells at the same temperature.
    pub fn uniform(num_cells: usize, temp: f64) -> ThermalState {
        ThermalState {
            temps: vec![temp; num_cells],
        }
    }

    /// Wraps an explicit temperature vector.
    pub fn from_vec(temps: Vec<f64>) -> ThermalState {
        ThermalState { temps }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.temps.len()
    }

    /// Whether the state has no cells.
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }

    /// Temperature of cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> f64 {
        self.temps[i]
    }

    /// Sets the temperature of cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, t: f64) {
        self.temps[i] = t;
    }

    /// The raw temperature slice.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Mutable access to the raw temperatures (used by solvers).
    pub fn temps_mut(&mut self) -> &mut [f64] {
        &mut self.temps
    }

    /// Resets to `num_cells` cells all at `temp`, reusing the existing
    /// allocation when possible (the compiled steady-state solver's
    /// re-initialization path).
    pub fn reset_uniform(&mut self, num_cells: usize, temp: f64) {
        self.temps.clear();
        self.temps.resize(num_cells, temp);
    }

    /// Swaps the temperature vector with a caller-owned buffer — the
    /// compiled transient solver's zero-copy double-buffering.
    pub(crate) fn swap_buffer(&mut self, buf: &mut Vec<f64>) {
        std::mem::swap(&mut self.temps, buf);
    }

    /// Hottest cell temperature.
    pub fn peak(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Coolest cell temperature.
    pub fn min(&self) -> f64 {
        self.temps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Hottest cell temperature inside `[start, end)` — the per-tile
    /// sensor a multi-core scheduler's DTM controller reads (each core
    /// is a contiguous cell range of the die state).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn peak_in(&self, start: usize, end: usize) -> f64 {
        self.temps[start..end]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index of the hottest cell (first if tied).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &t) in self.temps.iter().enumerate() {
            if t > self.temps[best] {
                best = i;
            }
        }
        best
    }

    /// Mean temperature.
    pub fn mean(&self) -> f64 {
        if self.temps.is_empty() {
            return f64::NAN;
        }
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }

    /// Population standard deviation — the spatial-uniformity metric
    /// (chessboard should minimise it).
    pub fn stddev(&self) -> f64 {
        if self.temps.is_empty() {
            return f64::NAN;
        }
        let m = self.mean();
        (self.temps.iter().map(|t| (t - m) * (t - m)).sum::<f64>() / self.temps.len() as f64).sqrt()
    }

    /// Steepest temperature difference between 4-connected neighbour
    /// cells — the paper's "steep thermal gradients" reliability metric.
    ///
    /// # Panics
    ///
    /// Panics if `fp` has a different number of cells.
    pub fn max_gradient(&self, fp: &Floorplan) -> f64 {
        assert_eq!(
            fp.num_cells(),
            self.temps.len(),
            "floorplan/state size mismatch"
        );
        let mut g: f64 = 0.0;
        for i in 0..self.temps.len() {
            for j in fp.neighbors(i) {
                g = g.max((self.temps[i] - self.temps[j]).abs());
            }
        }
        g
    }

    /// L∞ distance to another state — the per-instruction "change in
    /// thermal state" compared against δ in Fig. 2.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn linf_distance(&self, other: &ThermalState) -> f64 {
        assert_eq!(self.temps.len(), other.temps.len(), "state size mismatch");
        self.temps
            .iter()
            .zip(&other.temps)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Fused [`linf_distance`](ThermalState::linf_distance) +
    /// `clone_from`: returns the L∞ distance to `other` while copying
    /// `other`'s temperatures into `self`, in one pass and without
    /// allocating. The fixpoint's per-instruction bookkeeping
    /// (compare-against-previous, then remember) runs through this.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn linf_update_from(&mut self, other: &ThermalState) -> f64 {
        ThermalState::linf_update_slices(&mut self.temps, &other.temps)
    }

    /// [`linf_update_from`](ThermalState::linf_update_from) over raw
    /// slices — the one implementation of the fixpoint's fused
    /// compare-and-copy, shared by every state store (including the
    /// DFA's flat per-instruction matrix) so the bit-identity-critical
    /// fold exists exactly once.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn linf_update_slices(prev: &mut [f64], new: &[f64]) -> f64 {
        assert_eq!(prev.len(), new.len(), "state size mismatch");
        // Explicit 8-wide lanes break the serial `max` dependency chain
        // (the fixpoint's single hottest non-solver pass). `f64::max`
        // is exactly associative and commutative on the non-NaN values
        // it keeps, so the lane split cannot change the result; the
        // per-lane `(a − b).abs()` is the scalar expression verbatim
        // (negation and sign-clear are exact).
        let mut acc = W8::splat(0.0);
        let mut scalar = 0.0f64;
        let n = prev.len();
        let mut i = 0;
        while i + LANES <= n {
            let nv = W8::read(&new[i..]);
            let pv = W8::read(&prev[i..]);
            acc = acc.max(nv.sub(pv).abs());
            nv.write(&mut prev[i..]);
            i += LANES;
        }
        for (a, &b) in prev[i..].iter_mut().zip(&new[i..]) {
            scalar = scalar.max((*a - b).abs());
            *a = b;
        }
        acc.reduce_max().max(scalar)
    }

    /// Root-mean-square distance to another state (accuracy metric for
    /// prediction-vs-simulation comparisons).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn rms_distance(&self, other: &ThermalState) -> f64 {
        assert_eq!(self.temps.len(), other.temps.len(), "state size mismatch");
        if self.temps.is_empty() {
            return 0.0;
        }
        (self
            .temps
            .iter()
            .zip(&other.temps)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / self.temps.len() as f64)
            .sqrt()
    }

    /// Pearson correlation with another state (shape-similarity metric;
    /// `NaN` if either state is spatially constant).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn pearson(&self, other: &ThermalState) -> f64 {
        assert_eq!(self.temps.len(), other.temps.len(), "state size mismatch");
        let n = self.temps.len() as f64;
        let ma = self.mean();
        let mb = other.mean();
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (a, b) in self.temps.iter().zip(&other.temps) {
            cov += (a - ma) * (b - mb);
            va += (a - ma) * (a - ma);
            vb += (b - mb) * (b - mb);
        }
        cov / n / ((va / n).sqrt() * (vb / n).sqrt())
    }

    /// Element-wise maximum with another state (the conservative merge of
    /// the thermal DFA).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn max_with(&mut self, other: &ThermalState) {
        assert_eq!(self.temps.len(), other.temps.len(), "state size mismatch");
        for (a, b) in self.temps.iter_mut().zip(&other.temps) {
            *a = a.max(*b);
        }
    }

    /// Accumulates `other * weight` into `self` (used by averaging
    /// merges).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn add_scaled(&mut self, other: &ThermalState, weight: f64) {
        assert_eq!(self.temps.len(), other.temps.len(), "state size mismatch");
        for (a, b) in self.temps.iter_mut().zip(&other.temps) {
            *a += b * weight;
        }
    }

    /// Multiplies every cell by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for t in &mut self.temps {
            *t *= factor;
        }
    }
}

/// Summary statistics of one thermal map — the row format of every
/// experiment table.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MapStats {
    /// Hottest cell, K.
    pub peak: f64,
    /// Coolest cell, K.
    pub min: f64,
    /// Mean temperature, K.
    pub mean: f64,
    /// Spatial standard deviation, K.
    pub stddev: f64,
    /// Steepest neighbour-to-neighbour difference, K.
    pub max_gradient: f64,
}

impl MapStats {
    /// Computes all summary statistics of `state` over `fp`.
    pub fn of(state: &ThermalState, fp: &Floorplan) -> MapStats {
        MapStats {
            peak: state.peak(),
            min: state.min(),
            mean: state.mean(),
            stddev: state.stddev(),
            max_gradient: state.max_gradient(fp),
        }
    }

    /// Peak-to-valley spread, K.
    pub fn range(&self) -> f64 {
        self.peak - self.min
    }
}

impl std::fmt::Display for MapStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peak {:.2} K  min {:.2} K  mean {:.2} K  σ {:.3} K  ∇max {:.3} K",
            self.peak, self.min, self.mean, self.stddev, self.max_gradient
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_state_stats() {
        let s = ThermalState::uniform(16, 300.0);
        assert_eq!(s.peak(), 300.0);
        assert_eq!(s.min(), 300.0);
        assert_eq!(s.mean(), 300.0);
        assert_eq!(s.stddev(), 0.0);
        let fp = Floorplan::grid(4, 4);
        assert_eq!(s.max_gradient(&fp), 0.0);
    }

    #[test]
    fn hotspot_metrics() {
        let fp = Floorplan::grid(2, 2);
        let mut s = ThermalState::uniform(4, 300.0);
        s.set(3, 310.0);
        assert_eq!(s.peak(), 310.0);
        assert_eq!(s.argmax(), 3);
        assert_eq!(s.max_gradient(&fp), 10.0);
        assert!((s.mean() - 302.5).abs() < 1e-12);
        let stats = MapStats::of(&s, &fp);
        assert_eq!(stats.range(), 10.0);
        assert!(stats.stddev > 4.0 && stats.stddev < 4.5);
    }

    #[test]
    fn peak_in_reads_only_the_requested_tile() {
        let mut s = ThermalState::uniform(8, 300.0);
        s.set(1, 330.0); // core 0 hotspot
        s.set(6, 311.0); // core 1 hotspot
        assert_eq!(s.peak_in(0, 4), 330.0);
        assert_eq!(s.peak_in(4, 8), 311.0);
        assert_eq!(s.peak_in(0, 8), s.peak());
    }

    #[test]
    fn distances() {
        let a = ThermalState::from_vec(vec![300.0, 301.0, 302.0]);
        let b = ThermalState::from_vec(vec![300.0, 303.0, 302.5]);
        assert_eq!(a.linf_distance(&b), 2.0);
        assert!((a.rms_distance(&b) - ((0.0 + 4.0 + 0.25f64) / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(a.linf_distance(&a), 0.0);
    }

    #[test]
    fn linf_update_from_measures_then_copies() {
        let mut a = ThermalState::from_vec(vec![300.0, 301.0, 302.0]);
        let b = ThermalState::from_vec(vec![300.0, 303.0, 302.5]);
        let d = a.linf_update_from(&b);
        assert_eq!(d, 2.0, "matches linf_distance");
        assert_eq!(a.temps(), b.temps(), "and copies");
        assert_eq!(a.linf_update_from(&b), 0.0);
    }

    #[test]
    fn pearson_correlation_detects_shape() {
        let a = ThermalState::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let mut b = a.clone();
        b.scale(2.0);
        assert!((a.pearson(&b) - 1.0).abs() < 1e-12);
        let inv = ThermalState::from_vec(vec![4.0, 3.0, 2.0, 1.0]);
        assert!((a.pearson(&inv) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_operations() {
        let mut a = ThermalState::from_vec(vec![300.0, 310.0]);
        let b = ThermalState::from_vec(vec![305.0, 305.0]);
        a.max_with(&b);
        assert_eq!(a.temps(), &[305.0, 310.0]);

        let mut acc = ThermalState::uniform(2, 0.0);
        acc.add_scaled(&b, 0.5);
        acc.add_scaled(&b, 0.5);
        assert_eq!(acc.temps(), &[305.0, 305.0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn distance_size_mismatch_panics() {
        let a = ThermalState::uniform(2, 300.0);
        let b = ThermalState::uniform(3, 300.0);
        let _ = a.linf_distance(&b);
    }

    #[test]
    fn display_stats() {
        let fp = Floorplan::grid(1, 2);
        let s = ThermalState::from_vec(vec![300.0, 310.0]);
        let text = MapStats::of(&s, &fp).to_string();
        assert!(text.contains("peak 310.00"));
    }
}
