//! Dense double-precision vectors.

use std::iter::FromIterator;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::error::LinalgError;

/// A dense vector of `f64` entries.
///
/// ```
/// use vamor_linalg::Vector;
/// let a = Vector::from_slice(&[1.0, 2.0, 2.0]);
/// assert_eq!(a.norm2(), 3.0);
/// assert_eq!(a.dot(&a), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector from a generating function of the index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// The `i`-th standard basis vector of dimension `len`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn unit(len: usize, i: usize) -> Self {
        assert!(i < len, "unit index {i} out of range for dimension {len}");
        let mut v = Vector::zeros(len);
        v[i] = 1.0;
        v
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the entries as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterates mutably over the entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot (inner) product.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (infinity norm). Zero for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of absolute entries (1-norm).
    #[cfg(test)]
    fn norm1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// Returns `self * k` as a new vector.
    pub fn scaled(&self, k: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale_mut(&mut self, k: f64) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Overwrites `self` with the entries of `other` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &Vector) {
        self.data.copy_from_slice(&other.data);
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Normalizes the vector to unit Euclidean norm, returning the original
    /// norm.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the norm is zero or not
    /// finite.
    pub fn normalize_mut(&mut self) -> Result<f64, LinalgError> {
        let n = self.norm2();
        if n == 0.0 || !n.is_finite() {
            return Err(LinalgError::InvalidArgument(format!(
                "cannot normalize vector with norm {n}"
            )));
        }
        self.scale_mut(1.0 / n);
        Ok(n)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[cfg(test)]
    fn hadamard(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "hadamard: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Returns the maximum entry, or `None` for an empty vector.
    pub fn max(&self) -> Option<f64> {
        self.data
            .iter()
            .cloned()
            .fold(None, |m, x| Some(m.map_or(x, |m: f64| m.max(x))))
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Concatenates two vectors.
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Vector { data }
    }

    /// Returns the sub-vector `self[start..end]`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> Vector {
        Vector {
            data: self.data[start..end].to_vec(),
        }
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        Vector {
            data: self.iter().zip(rhs.iter()).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        Vector {
            data: self.iter().zip(rhs.iter()).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let v = Vector::from_fn(4, |i| i as f64);
        assert_eq!(v.len(), 4);
        assert_eq!(v[3], 3.0);
        let u = Vector::unit(3, 1);
        assert_eq!(u.as_slice(), &[0.0, 1.0, 0.0]);
        let z = Vector::zeros(2);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn norms_and_dot() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm1(), 7.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(v.dot(&v), 25.0);
    }

    #[test]
    fn axpy_and_arithmetic() {
        let mut a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        let c = &a - &b;
        assert_eq!(c.as_slice(), &[-4.0, -8.0]);
        let d = &c * 2.0;
        assert_eq!(d.as_slice(), &[-8.0, -16.0]);
        let e = -&d;
        assert_eq!(e.as_slice(), &[8.0, 16.0]);
    }

    #[test]
    fn normalize_rejects_zero() {
        let mut z = Vector::zeros(3);
        assert!(z.normalize_mut().is_err());
        let mut v = Vector::from_slice(&[0.0, 3.0, 4.0]);
        let n = v.normalize_mut().unwrap();
        assert_eq!(n, 5.0);
        assert!((v.norm2() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn concat_slice_hadamard() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.slice(1, 3).as_slice(), &[2.0, 3.0]);
        let h = a.hadamard(&Vector::from_slice(&[4.0, 5.0]));
        assert_eq!(h.as_slice(), &[4.0, 10.0]);
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f64 * 2.0).collect();
        assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0]);
    }
}
