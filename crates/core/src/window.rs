//! Pose windows: multi-dimensional rectangles around characteristic
//! points (§3.3, Fig. 4).
//!
//! A pose is "a spatial region where involved skeleton joints are
//! located", expressed as a centre point plus a half-width per dimension
//! so it maps directly onto the range predicates
//! `abs(center - coord) < width` of §3.3.4.

use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle in gesture feature space (dimensions =
/// selected joints × {x, y, z}).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoseWindow {
    /// Centre per dimension.
    pub center: Vec<f64>,
    /// Half-width per dimension (the `width` of the paper's predicates).
    pub width: Vec<f64>,
}

impl PoseWindow {
    /// A zero-width window at `center`.
    pub fn point(center: Vec<f64>) -> Self {
        let width = vec![0.0; center.len()];
        Self { center, width }
    }

    /// A window from explicit centre and half-widths.
    pub fn new(center: Vec<f64>, width: Vec<f64>) -> Self {
        assert_eq!(center.len(), width.len(), "center/width dimension mismatch");
        Self { center, width }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.center.len()
    }

    /// Lower bound per dimension.
    pub fn min(&self, d: usize) -> f64 {
        self.center[d] - self.width[d]
    }

    /// Upper bound per dimension.
    pub fn max(&self, d: usize) -> f64 {
        self.center[d] + self.width[d]
    }

    /// True when the point lies inside (closed) bounds.
    pub fn contains(&self, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dims());
        self.center
            .iter()
            .zip(&self.width)
            .zip(point)
            .all(|((c, w), p)| (p - c).abs() <= *w)
    }

    /// Grows the window minimally so it contains `point` (MBR update).
    #[allow(clippy::needless_range_loop)]
    pub fn extend_to(&mut self, point: &[f64]) {
        debug_assert_eq!(point.len(), self.dims());
        for d in 0..self.dims() {
            let lo = self.min(d).min(point[d]);
            let hi = self.max(d).max(point[d]);
            self.center[d] = (lo + hi) / 2.0;
            // Guard against the midpoint rounding towards one bound: the
            // half-width must reach the new point exactly.
            self.width[d] = ((hi - lo) / 2.0).max((point[d] - self.center[d]).abs());
        }
    }

    /// Minimal bounding rectangle of two windows.
    pub fn union(&self, other: &PoseWindow) -> PoseWindow {
        assert_eq!(self.dims(), other.dims());
        let mut center = Vec::with_capacity(self.dims());
        let mut width = Vec::with_capacity(self.dims());
        for d in 0..self.dims() {
            let lo = self.min(d).min(other.min(d));
            let hi = self.max(d).max(other.max(d));
            center.push((lo + hi) / 2.0);
            width.push((hi - lo) / 2.0);
        }
        PoseWindow { center, width }
    }

    /// True when the closed rectangles intersect in every dimension.
    pub fn intersects(&self, other: &PoseWindow) -> bool {
        assert_eq!(self.dims(), other.dims());
        (0..self.dims()).all(|d| self.min(d) <= other.max(d) && self.max(d) >= other.min(d))
    }

    /// Intersection rectangle, if any.
    pub fn intersection(&self, other: &PoseWindow) -> Option<PoseWindow> {
        if !self.intersects(other) {
            return None;
        }
        let mut center = Vec::with_capacity(self.dims());
        let mut width = Vec::with_capacity(self.dims());
        for d in 0..self.dims() {
            let lo = self.min(d).max(other.min(d));
            let hi = self.max(d).min(other.max(d));
            center.push((lo + hi) / 2.0);
            width.push((hi - lo) / 2.0);
        }
        Some(PoseWindow { center, width })
    }

    /// Volume (product of edge lengths); 0 for degenerate windows.
    pub fn volume(&self) -> f64 {
        self.width.iter().map(|w| 2.0 * w).product()
    }

    /// Volume treating degenerate dimensions as `floor` wide (useful to
    /// compare near-degenerate windows).
    pub fn volume_with_floor(&self, floor: f64) -> f64 {
        self.width.iter().map(|w| 2.0 * w.max(floor)).product()
    }

    /// Scales every half-width by `factor` (the §3.3.2 generalisation
    /// step).
    pub fn scale_widths(&mut self, factor: f64) {
        for w in &mut self.width {
            *w *= factor;
        }
    }

    /// Raises every half-width to at least `min_width`.
    pub fn floor_widths(&mut self, min_width: f64) {
        for w in &mut self.width {
            *w = w.max(min_width);
        }
    }

    /// Largest per-dimension overshoot of `point` beyond the bounds
    /// (0 when inside) — the outlier measure of the merge step.
    pub fn max_overshoot(&self, point: &[f64]) -> f64 {
        self.center
            .iter()
            .zip(&self.width)
            .zip(point)
            .map(|((c, w), p)| ((p - c).abs() - w).max(0.0))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(center: &[f64], width: &[f64]) -> PoseWindow {
        PoseWindow::new(center.to_vec(), width.to_vec())
    }

    #[test]
    fn point_window_contains_only_itself() {
        let p = PoseWindow::point(vec![1.0, 2.0]);
        assert!(p.contains(&[1.0, 2.0]));
        assert!(!p.contains(&[1.0, 2.1]));
        assert_eq!(p.volume(), 0.0);
    }

    #[test]
    fn extend_to_grows_minimally() {
        let mut win = PoseWindow::point(vec![0.0, 0.0]);
        win.extend_to(&[10.0, -4.0]);
        assert_eq!(win.center, vec![5.0, -2.0]);
        assert_eq!(win.width, vec![5.0, 2.0]);
        assert!(win.contains(&[0.0, 0.0]));
        assert!(win.contains(&[10.0, -4.0]));
        // Extending to an interior point changes nothing.
        let before = win.clone();
        win.extend_to(&[5.0, -2.0]);
        assert_eq!(win, before);
    }

    #[test]
    fn union_is_mbr() {
        let a = w(&[0.0], &[1.0]);
        let b = w(&[10.0], &[2.0]);
        let u = a.union(&b);
        assert_eq!(u.min(0), -1.0);
        assert_eq!(u.max(0), 12.0);
        // Commutative.
        assert_eq!(u, b.union(&a));
        // Contains both.
        assert!(u.contains(&[0.9]) && u.contains(&[11.9]));
    }

    #[test]
    fn intersection_cases() {
        let a = w(&[0.0, 0.0], &[2.0, 2.0]);
        let b = w(&[3.0, 0.0], &[2.0, 2.0]);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.min(0), 1.0);
        assert_eq!(i.max(0), 2.0);
        let far = w(&[10.0, 10.0], &[1.0, 1.0]);
        assert!(!a.intersects(&far));
        assert!(a.intersection(&far).is_none());
        // Touching edges count as intersecting (closed rectangles).
        let touch = w(&[4.0, 0.0], &[2.0, 2.0]);
        assert!(a.intersects(&touch));
    }

    #[test]
    fn volume_and_floor() {
        let a = w(&[0.0, 0.0, 0.0], &[1.0, 2.0, 0.0]);
        assert_eq!(a.volume(), 0.0);
        assert_eq!(a.volume_with_floor(0.5), 2.0 * 4.0 * 1.0);
    }

    #[test]
    fn scaling_and_flooring() {
        let mut a = w(&[0.0, 0.0], &[10.0, 1.0]);
        a.scale_widths(1.5);
        assert_eq!(a.width, vec![15.0, 1.5]);
        a.floor_widths(5.0);
        assert_eq!(a.width, vec![15.0, 5.0]);
    }

    #[test]
    fn overshoot_measure() {
        let a = w(&[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(a.max_overshoot(&[0.5, -0.5]), 0.0);
        assert_eq!(a.max_overshoot(&[3.0, 0.0]), 2.0);
        assert_eq!(a.max_overshoot(&[3.0, -4.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        PoseWindow::new(vec![0.0], vec![1.0, 2.0]);
    }
}
