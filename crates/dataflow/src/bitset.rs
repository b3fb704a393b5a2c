//! A dense, fixed-capacity bit set used as the fact domain of the classic
//! bit-vector analyses (liveness, reaching definitions, available
//! expressions).

use std::fmt;

/// A fixed-capacity set of small integers backed by `u64` words.
///
/// All binary operations panic if the operands have different capacities;
/// analyses always build their sets from one capacity, so a mismatch is a
/// programming error.
///
/// # Examples
///
/// ```
/// use tadfa_dataflow::DenseBitSet;
/// let mut s = DenseBitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DenseBitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl DenseBitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> DenseBitSet {
        DenseBitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> DenseBitSet {
        let mut s = DenseBitSet::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Inserts `value`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(
            value < self.capacity,
            "bit {value} out of capacity {}",
            self.capacity
        );
        let (w, b) = (value / 64, value % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / 64, value % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Whether `value` is in the set.
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.words[value / 64] & (1 << (value % 64)) != 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self |= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &DenseBitSet) -> bool {
        self.check(other);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self &= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &DenseBitSet) -> bool {
        self.check(other);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self -= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn subtract(&mut self, other: &DenseBitSet) -> bool {
        self.check(other);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & !b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Whether `self` and `other` share no elements.
    pub fn is_disjoint(&self, other: &DenseBitSet) -> bool {
        self.check(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &DenseBitSet) -> bool {
        self.check(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    fn check(&self, other: &DenseBitSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "bit set capacity mismatch: {} vs {}",
            self.capacity, other.capacity
        );
    }
}

impl fmt::Debug for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for DenseBitSet {
    /// Collects values into a set sized one past the maximum value.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |m| m + 1);
        let mut s = DenseBitSet::new(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for DenseBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Ascending iterator over a [`DenseBitSet`], produced by
/// [`DenseBitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a DenseBitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = DenseBitSet::new(130);
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn full_and_clear() {
        let mut s = DenseBitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let mut a = DenseBitSet::new(10);
        a.extend([1, 3, 5]);
        let mut b = DenseBitSet::new(10);
        b.extend([3, 4]);

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        assert!(!u.union_with(&b)); // idempotent

        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);

        let mut d = a.clone();
        assert!(d.subtract(&b));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a: DenseBitSet = [1usize, 2].into_iter().collect();
        let mut big = DenseBitSet::new(a.capacity());
        big.extend([1, 2]);
        assert!(a.is_subset(&big));
        let mut other = DenseBitSet::new(a.capacity());
        other.insert(0);
        assert!(a.is_disjoint(&other));
        assert!(!a.is_disjoint(&big));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = DenseBitSet::new(200);
        s.extend([0, 63, 64, 127, 128, 199]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        DenseBitSet::new(4).insert(4);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let mut a = DenseBitSet::new(4);
        let b = DenseBitSet::new(5);
        a.union_with(&b);
    }

    #[test]
    fn debug_shows_elements() {
        let s: DenseBitSet = [2usize, 7].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 7}");
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = DenseBitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let f = DenseBitSet::full(0);
        assert_eq!(f.count(), 0);
    }
}
