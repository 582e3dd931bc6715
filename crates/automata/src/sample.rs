//! Per-length word counting, enumeration, and sampling.
//!
//! The experiments need, for each language and ring size `n`, words that
//! are *in* the language (to measure accepting executions) and words that
//! are *not* (to measure rejecting ones). For regular workloads this module
//! does it with a dynamic program over the DFA that counts the words of
//! each length per state, which yields sampling and full enumeration.

use rand::Rng;

use crate::{Dfa, StateId, Symbol, Word};

/// Counts, enumerates, and samples the words of a fixed length accepted by
/// a [`Dfa`].
///
/// Construction runs the counting DP up to `max_len` once, keeping every
/// `⌈√(max_len+1)⌉`-th row; a query recomputes the rows it needs one
/// block at a time from the nearest kept row below. Memory is therefore
/// O(√max_len · |Q|) rather than a full (max_len+1) × |Q| table, and every
/// count is bit-for-bit the full table's.
///
/// Counts saturate at `u128::MAX`. Below saturation
/// [`sample`](WordSampler::sample) is uniform over the accepted words;
/// once counts saturate (lengths beyond about 128 on a binary alphabet)
/// it is not. A saturated suffix count stands for 2¹²⁸ − 1 words however
/// many there really are, so the walk almost always takes the first
/// symbol whose count saturates, until the suffix is short enough to be
/// counted exactly. At n = 4096 over `{a, b}` a sample's first `b` sits
/// near position n − 128, and `b` makes up under 2% of the letters.
///
/// # Examples
///
/// ```rust
/// # use ringleader_automata::{Alphabet, Regex, WordSampler};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sigma = Alphabet::from_chars("ab")?;
/// let dfa = Regex::parse("(ab)*", &sigma)?.compile();
/// let sampler = WordSampler::new(&dfa, 8);
/// assert_eq!(sampler.count(4), 1); // only "abab"
/// assert_eq!(sampler.count(5), 0);
/// let words = sampler.enumerate(6);
/// assert_eq!(words.len(), 1);
/// assert_eq!(words[0].render(&sigma), "ababab");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WordSampler {
    dfa: Dfa,
    max_len: usize,
    /// Distance between kept rows.
    stride: usize,
    /// `delta[state·|Σ| + s]` = `δ(state, s)`: the transition table,
    /// flattened for the DP's inner loop.
    delta: Vec<u32>,
    /// Rows `0, stride, 2·stride, …` of the DP, flattened: kept row `k`
    /// occupies `kept[k·|Q|..(k+1)·|Q|]`, and its entry for `state` is the
    /// number of words of length `k·stride` leading from `state` to an
    /// accepting state.
    kept: Vec<u128>,
}

impl WordSampler {
    /// Builds the counting tables for word lengths `0..=max_len`.
    #[must_use]
    pub fn new(dfa: &Dfa, max_len: usize) -> Self {
        let q = dfa.state_count();
        let delta = (0..q)
            .flat_map(|state| {
                dfa.alphabet().symbols().map(move |s| dfa.step(StateId(state as u32), s).0)
            })
            .collect();
        let stride = ceil_sqrt(max_len + 1);
        let mut sampler = Self {
            dfa: dfa.clone(),
            max_len,
            stride,
            delta,
            kept: Vec::with_capacity((max_len / stride + 1) * q),
        };
        let mut row: Vec<u128> =
            (0..q).map(|state| u128::from(dfa.is_accepting(StateId(state as u32)))).collect();
        let mut next = vec![0u128; q];
        sampler.kept.extend_from_slice(&row);
        // Whole blocks only: a partial last block ends below the next
        // multiple of the stride, so no row of it is kept.
        for _ in 0..max_len / stride {
            for _ in 0..stride {
                sampler.step_row(&row, &mut next);
                std::mem::swap(&mut row, &mut next);
            }
            sampler.kept.extend_from_slice(&row);
        }
        sampler
    }

    /// The automaton the sampler was built from.
    #[must_use]
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// Highest length the tables cover.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of accepted words of exactly length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > max_len`.
    #[must_use]
    pub fn count(&self, len: usize) -> u128 {
        let base = self.block_base(len);
        let mut rows = Vec::new();
        self.fill_rows(base, len, &mut rows);
        rows[(len - base) * self.dfa.state_count() + self.dfa.start().index()]
    }

    /// Samples a random accepted word of length `len`, or `None` if no
    /// such word exists. Uniform while `count(len)` is below saturation;
    /// see the type-level docs for longer lengths.
    ///
    /// # Panics
    ///
    /// Panics if `len > max_len`.
    pub fn sample<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Option<Word> {
        let q = self.dfa.state_count();
        let mut base = self.block_base(len);
        let mut rows = Vec::with_capacity(self.stride * q);
        self.fill_rows(base, len, &mut rows);
        let total = rows[(len - base) * q + self.dfa.start().index()];
        if total == 0 {
            return None;
        }
        let mut target = random_u128_below(rng, total);
        let sigma = self.dfa.alphabet().len();
        let mut symbols = Vec::with_capacity(len);
        let mut state = self.dfa.start().index();
        for remaining in (0..len).rev() {
            if remaining < base {
                // Walked below this block: recompute the one beneath it.
                base -= self.stride;
                self.fill_rows(base, remaining, &mut rows);
            }
            let row = &rows[(remaining - base) * q..][..q];
            for (s, &next) in self.delta[state * sigma..][..sigma].iter().enumerate() {
                let ways = row[next as usize];
                if target < ways {
                    symbols.push(Symbol(s as u16));
                    state = next as usize;
                    break;
                }
                target -= ways;
            }
        }
        let word = Word::from_symbols(symbols);
        debug_assert_eq!(word.len(), len);
        debug_assert!(self.dfa.accepts(&word));
        Some(word)
    }

    /// Enumerates every accepted word of length `len`, in symbol order.
    ///
    /// Intended for exhaustive small-`n` verification; the result can be
    /// astronomically large for permissive automata at big lengths, so
    /// callers should gate on [`count`](WordSampler::count) first.
    ///
    /// # Panics
    ///
    /// Panics if `len > max_len`.
    #[must_use]
    pub fn enumerate(&self, len: usize) -> Vec<Word> {
        assert!(len <= self.max_len, "length {len} exceeds max_len {}", self.max_len);
        // Every output word is `len` symbols long, so one full table of
        // rows 0..len costs no more than the output it prunes for.
        let mut rows = Vec::new();
        self.fill_rows(0, len.saturating_sub(1), &mut rows);
        let mut out = Vec::new();
        let mut prefix = Vec::with_capacity(len);
        self.enumerate_rec(&rows, self.dfa.start(), len, &mut prefix, &mut out);
        out
    }

    fn enumerate_rec(
        &self,
        rows: &[u128],
        state: StateId,
        remaining: usize,
        prefix: &mut Vec<Symbol>,
        out: &mut Vec<Word>,
    ) {
        if remaining == 0 {
            if self.dfa.is_accepting(state) {
                out.push(Word::from_symbols(prefix.clone()));
            }
            return;
        }
        let q = self.dfa.state_count();
        for s in self.dfa.alphabet().symbols() {
            let next = self.dfa.step(state, s);
            if rows[(remaining - 1) * q + next.index()] == 0 {
                continue; // prune dead branches
            }
            prefix.push(s);
            self.enumerate_rec(rows, next, remaining - 1, prefix, out);
            prefix.pop();
        }
    }

    /// The kept row at or below `len`.
    fn block_base(&self, len: usize) -> usize {
        assert!(len <= self.max_len, "length {len} exceeds max_len {}", self.max_len);
        len - len % self.stride
    }

    /// Replaces `rows` with DP rows `base..=top`, flattened (row
    /// `base + i` at `[i·|Q|..]`), recomputed from the kept row `base`,
    /// which must be a multiple of the stride.
    fn fill_rows(&self, base: usize, top: usize, rows: &mut Vec<u128>) {
        let q = self.dfa.state_count();
        let k = base / self.stride;
        rows.clear();
        rows.extend_from_slice(&self.kept[k * q..(k + 1) * q]);
        for _ in base..top {
            let end = rows.len();
            rows.resize(end + q, 0);
            let (prev, next) = rows.split_at_mut(end);
            self.step_row(&prev[end - q..], next);
        }
    }

    /// One DP step: `next[state]` = Σ over symbols `s` of
    /// `prev[δ(state, s)]`, saturating, summed in symbol order.
    fn step_row(&self, prev: &[u128], next: &mut [u128]) {
        let sigma = self.dfa.alphabet().len();
        for (slot, targets) in next.iter_mut().zip(self.delta.chunks_exact(sigma)) {
            *slot = targets.iter().map(|&t| prev[t as usize]).fold(0u128, u128::saturating_add);
        }
    }
}

/// Smallest `b` with `b² ≥ x`.
fn ceil_sqrt(x: usize) -> usize {
    let b = x.isqrt();
    if b * b < x {
        b + 1
    } else {
        b
    }
}

/// Uniform value in `0..bound` (bound > 0) built from two `u64` draws.
fn random_u128_below<R: Rng + ?Sized>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    if let Ok(small) = u64::try_from(bound) {
        return u128::from(rng.gen_range(0..small));
    }
    // Rejection sampling on the full 128-bit range.
    loop {
        let hi = u128::from(rng.gen::<u64>());
        let lo = u128::from(rng.gen::<u64>());
        let v = (hi << 64) | lo;
        // Accept if within the largest multiple of `bound`.
        let limit = u128::MAX - (u128::MAX % bound);
        if v < limit {
            return v % bound;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Regex};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compile(pattern: &str) -> Dfa {
        let sigma = Alphabet::from_chars("ab").unwrap();
        Regex::parse(pattern, &sigma).unwrap().compile()
    }

    #[test]
    fn counts_match_brute_force() {
        let sigma = Alphabet::from_chars("ab").unwrap();
        for pattern in ["(ab)*", "a*b*", "(a|b)*abb", ".?.?.?"] {
            let dfa = compile(pattern);
            let sampler = WordSampler::new(&dfa, 10);
            for len in 0..=10usize {
                let brute = (0..(1usize << len))
                    .filter(|idx| {
                        let text: String =
                            (0..len).map(|i| if (idx >> i) & 1 == 0 { 'a' } else { 'b' }).collect();
                        dfa.accepts(&Word::from_str(&text, &sigma).unwrap())
                    })
                    .count() as u128;
                assert_eq!(sampler.count(len), brute, "{pattern} at len {len}");
            }
        }
    }

    #[test]
    fn enumerate_matches_count_and_accepts() {
        let dfa = compile("a*b*");
        let sampler = WordSampler::new(&dfa, 9);
        for len in 0..=9usize {
            let words = sampler.enumerate(len);
            assert_eq!(words.len() as u128, sampler.count(len));
            for w in &words {
                assert_eq!(w.len(), len);
                assert!(dfa.accepts(w));
            }
            // Distinct.
            let set: std::collections::BTreeSet<_> = words.iter().collect();
            assert_eq!(set.len(), words.len());
        }
    }

    #[test]
    fn sample_returns_accepted_words_of_right_length() {
        let dfa = compile("(a|b)*abb");
        let sampler = WordSampler::new(&dfa, 32);
        let mut rng = StdRng::seed_from_u64(7);
        for len in [3usize, 4, 10, 32] {
            for _ in 0..50 {
                let w = sampler.sample(len, &mut rng).unwrap();
                assert_eq!(w.len(), len);
                assert!(dfa.accepts(&w));
            }
        }
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // a*b* has length-3 words: aaa aab abb bbb → 4 words.
        let dfa = compile("a*b*");
        let sampler = WordSampler::new(&dfa, 3);
        assert_eq!(sampler.count(3), 4);
        let mut rng = StdRng::seed_from_u64(42);
        let mut histogram = std::collections::BTreeMap::new();
        let draws = 4000;
        for _ in 0..draws {
            let w = sampler.sample(3, &mut rng).unwrap();
            *histogram.entry(w.render(dfa.alphabet())).or_insert(0usize) += 1;
        }
        assert_eq!(histogram.len(), 4);
        for (word, n) in histogram {
            let expected = draws / 4;
            assert!(
                n > expected / 2 && n < expected * 2,
                "{word} drawn {n} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn empty_lengths_return_none() {
        let dfa = compile("(ab)*");
        let sampler = WordSampler::new(&dfa, 7);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sampler.count(3), 0);
        assert!(sampler.sample(3, &mut rng).is_none());
        assert!(sampler.enumerate(5).is_empty());
    }

    #[test]
    fn length_zero_is_the_empty_word() {
        let dfa = compile("a*");
        let sampler = WordSampler::new(&dfa, 4);
        assert_eq!(sampler.count(0), 1);
        let words = sampler.enumerate(0);
        assert_eq!(words.len(), 1);
        assert!(words[0].is_empty());
    }

    #[test]
    fn complement_sampler_gives_negative_examples() {
        let dfa = compile("(ab)*");
        let negative = WordSampler::new(&dfa.complement(), 8);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            let w = negative.sample(8, &mut rng).unwrap();
            assert!(!dfa.accepts(&w));
        }
    }

    #[test]
    fn max_len_reports_table_size() {
        let dfa = compile("a*");
        assert_eq!(WordSampler::new(&dfa, 13).max_len(), 13);
    }
}
