use rand::RngCore;

/// A fixed-length bit string, the chromosome representation of both GRA and
/// AGRA.
///
/// Bits are stored in 64-bit words. Indexing is little-endian within words;
/// callers only see flat bit indices `0..len`.
///
/// # Examples
///
/// ```
/// use drp_ga::BitString;
///
/// let mut c = BitString::zeros(10);
/// c.set(3, true);
/// c.flip(9);
/// assert!(c.get(3) && c.get(9) && !c.get(0));
/// assert_eq!(c.count_ones(), 2);
/// assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![3, 9]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitString {
    len: usize,
    words: Vec<u64>,
}

impl BitString {
    /// An all-zero string of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64).max(1)],
        }
    }

    /// A uniformly random string of `len` bits.
    pub fn random<R: RngCore + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut s = Self::zeros(len);
        for w in &mut s.words {
            *w = rng.next_u64();
        }
        s.mask_tail();
        s
    }

    /// Builds a string from a predicate over bit indices.
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, mut f: F) -> Self {
        let mut s = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                s.set(i, true);
            }
        }
        s
    }

    fn mask_tail(&mut self) {
        let used = self.len % 64;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if self.len == 0 {
            self.words.iter_mut().for_each(|w| *w = 0);
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index out of range");
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Inverts bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index out of range");
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing little-endian words; bits past `len` are zero.
    ///
    /// Exposed so word-granular consumers (popcount scans, SoA decoders)
    /// can stream the chromosome 64 genes at a time without per-bit
    /// [`get`](Self::get) probes.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits within the half-open range `[start, end)` —
    /// a masked popcount, O(range/64).
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or `end > len`.
    pub fn count_ones_in(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len, "bad bit range");
        if start == end {
            return 0;
        }
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        let (first, last) = (start / 64, (end - 1) / 64);
        if first == last {
            return (self.words[first] & head & tail).count_ones() as usize;
        }
        let mut total = (self.words[first] & head).count_ones() as usize;
        for &w in &self.words[first + 1..last] {
            total += w.count_ones() as usize;
        }
        total + (self.words[last] & tail).count_ones() as usize
    }

    /// Iterator over the indices of set bits within `[start, end)`,
    /// ascending. Word-wise: zero words are skipped 64 bits at a time.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or `end > len`.
    pub fn iter_ones_in(&self, start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(start <= end && end <= self.len, "bad bit range");
        let first_word = start / 64;
        let end_word = end.div_ceil(64).max(first_word);
        self.words[first_word..end_word]
            .iter()
            .enumerate()
            .flat_map(move |(wi, &word)| {
                let base = (first_word + wi) * 64;
                let mut bits = word;
                if base < start {
                    bits &= u64::MAX << (start - base);
                }
                if base + 64 > end {
                    bits &= u64::MAX.checked_shr((base + 64 - end) as u32).unwrap_or(0);
                }
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(base + tz)
                })
            })
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Copies bits `[start, end)` from `other` into `self`; both strings
    /// must have the same length. This is the primitive behind crossover
    /// operators and GRA's gene donation. Word-wise: whole words are copied
    /// and only the head and tail words are merged under a mask.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or an out-of-range window.
    pub fn copy_range_from(&mut self, other: &BitString, start: usize, end: usize) {
        assert_eq!(self.len, other.len, "length mismatch");
        assert!(start <= end && end <= self.len, "bad range");
        if start == end {
            return;
        }
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        let (first, last) = (start / 64, (end - 1) / 64);
        let merge = |dst: &mut u64, src: u64, mask: u64| *dst = (*dst & !mask) | (src & mask);
        if first == last {
            merge(&mut self.words[first], other.words[first], head & tail);
            return;
        }
        merge(&mut self.words[first], other.words[first], head);
        self.words[first + 1..last].copy_from_slice(&other.words[first + 1..last]);
        merge(&mut self.words[last], other.words[last], tail);
    }

    /// Hamming distance to another string of the same length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn hamming(&self, other: &BitString) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_set_get() {
        let mut s = BitString::zeros(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.count_ones(), 0);
        s.set(0, true);
        s.set(63, true);
        s.set(64, true);
        s.set(99, true);
        assert_eq!(s.count_ones(), 4);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 99]);
        s.set(63, false);
        assert!(!s.get(63));
    }

    #[test]
    fn random_masks_tail_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1, 63, 64, 65, 130] {
            let s = BitString::random(len, &mut rng);
            assert!(s.iter_ones().all(|i| i < len), "len {len}");
        }
    }

    #[test]
    fn from_fn_matches_predicate() {
        let s = BitString::from_fn(10, |i| i % 3 == 0);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 3, 6, 9]);
    }

    #[test]
    fn flip_toggles() {
        let mut s = BitString::zeros(5);
        s.flip(2);
        assert!(s.get(2));
        s.flip(2);
        assert!(!s.get(2));
    }

    #[test]
    fn copy_range() {
        let a = BitString::from_fn(8, |_| true);
        let mut b = BitString::zeros(8);
        b.copy_range_from(&a, 2, 5);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn hamming_distance() {
        let a = BitString::from_fn(8, |i| i < 4);
        let b = BitString::from_fn(8, |i| i >= 4);
        assert_eq!(a.hamming(&b), 8);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn out_of_range_get_panics() {
        BitString::zeros(4).get(4);
    }

    #[test]
    fn ranged_scans_match_per_bit_probes() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1, 63, 64, 65, 130, 200] {
            let s = BitString::random(len, &mut rng);
            for start in [0, 1, len / 3, len / 2, len.saturating_sub(1), len] {
                for end in [start, (start + 7).min(len), (start + 64).min(len), len] {
                    let probe: Vec<usize> = (start..end).filter(|&i| s.get(i)).collect();
                    assert_eq!(
                        s.iter_ones_in(start, end).collect::<Vec<_>>(),
                        probe,
                        "len {len} range [{start}, {end})"
                    );
                    assert_eq!(
                        s.count_ones_in(start, end),
                        probe.len(),
                        "len {len} range [{start}, {end})"
                    );
                }
            }
            assert_eq!(s.count_ones_in(0, len), s.count_ones());
            assert_eq!(
                s.iter_ones_in(0, len).collect::<Vec<_>>(),
                s.iter_ones().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn words_expose_clean_tail() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = BitString::random(70, &mut rng);
        let popcnt: usize = s.words().iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(popcnt, s.count_ones(), "tail bits must be zero");
        assert_eq!(s.words().len(), 2);
    }

    #[test]
    fn empty_string_is_consistent() {
        let s = BitString::zeros(0);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.iter_ones().count(), 0);
    }
}
