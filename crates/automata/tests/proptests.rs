//! Property-based tests for the automata toolkit.
//!
//! The core invariants: minimization and determinization preserve the
//! language; product constructions implement their boolean semantics;
//! sampling only produces members. [`WordSampler`] keeps only every
//! ⌈√(max_len+1)⌉-th row of its counting DP, so its counts, samples and
//! enumerations are also checked against the full-table DP kept here as
//! the reference, including at lengths where the counts saturate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringleader_automata::{Alphabet, Dfa, Regex, StateId, Symbol, Word, WordSampler};

/// Strategy: a random complete DFA over {a,b} with up to 8 states.
fn random_dfa() -> impl Strategy<Value = Dfa> {
    (1usize..=8).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0..n, n * 2),
            proptest::collection::vec(any::<bool>(), n),
            0..n,
        )
            .prop_map(|(n, targets, accepting, start)| {
                let sigma = Alphabet::from_chars("ab").unwrap();
                Dfa::from_fn(sigma, n, start, |q| accepting[q], |q, s| targets[q * 2 + s.index()])
                    .expect("targets are in range by construction")
            })
    })
}

/// The full counting table: `table[len][state]` = number of words of
/// length `len` leading from `state` to an accepting state, saturating at
/// `u128::MAX`, summed in symbol order.
fn full_table(dfa: &Dfa, max_len: usize) -> Vec<Vec<u128>> {
    let q = dfa.state_count();
    let mut table = vec![(0..q).map(|s| u128::from(dfa.is_accepting(StateId(s as u32)))).collect()];
    for len in 1..=max_len {
        let prev: &Vec<u128> = &table[len - 1];
        let row = (0..q)
            .map(|s| {
                dfa.alphabet()
                    .symbols()
                    .map(|sym| prev[dfa.step(StateId(s as u32), sym).index()])
                    .fold(0u128, u128::saturating_add)
            })
            .collect();
        table.push(row);
    }
    table
}

/// The full-table sampler: one draw below the total (one `gen_range` when
/// it fits in a `u64`, otherwise rejection on pairs of `u64`s), then a
/// walk that picks each letter by the table's suffix counts.
fn reference_sample(dfa: &Dfa, table: &[Vec<u128>], len: usize, rng: &mut StdRng) -> Option<Word> {
    let total = table[len][dfa.start().index()];
    if total == 0 {
        return None;
    }
    let mut target = match u64::try_from(total) {
        Ok(small) => u128::from(rng.gen_range(0..small)),
        Err(_) => loop {
            let v = (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>());
            if v < u128::MAX - (u128::MAX % total) {
                break v % total;
            }
        },
    };
    let mut word = Word::new();
    let mut state = dfa.start();
    for remaining in (0..len).rev() {
        for s in dfa.alphabet().symbols() {
            let next = dfa.step(state, s);
            let ways = table[remaining][next.index()];
            if target < ways {
                word.push(s);
                state = next;
                break;
            }
            target -= ways;
        }
    }
    Some(word)
}

/// Every accepted word of length `len` in symbol order, pruned by the
/// full table.
fn reference_enumerate(dfa: &Dfa, table: &[Vec<u128>], len: usize) -> Vec<Word> {
    fn walk(
        dfa: &Dfa,
        table: &[Vec<u128>],
        state: StateId,
        remaining: usize,
        prefix: &mut Vec<Symbol>,
        out: &mut Vec<Word>,
    ) {
        if remaining == 0 {
            if dfa.is_accepting(state) {
                out.push(Word::from_symbols(prefix.clone()));
            }
            return;
        }
        for s in dfa.alphabet().symbols() {
            let next = dfa.step(state, s);
            if table[remaining - 1][next.index()] > 0 {
                prefix.push(s);
                walk(dfa, table, next, remaining - 1, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    walk(dfa, table, dfa.start(), len, &mut Vec::new(), &mut out);
    out
}

/// The sampler's block edges for `max_len`: with `B = ⌈√(max_len+1)⌉`,
/// lengths 0, 1, B−1, B, B+1, 2B−1, 2B, B², B²+1 and `max_len` itself,
/// where they do not exceed `max_len`.
fn block_edges(max_len: usize) -> Vec<usize> {
    let mut b = 1;
    while b * b < max_len + 1 {
        b += 1;
    }
    let mut lens = vec![0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b, b * b, b * b + 1, max_len];
    lens.retain(|&len| len <= max_len);
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// Asserts `count` at every length up to `max_len`, and `sample` (same
/// seed, same word, same draws) and, where the language is small enough,
/// `enumerate` at every length in `lens`, agree with the full table.
fn assert_matches_full_table(dfa: &Dfa, max_len: usize, lens: &[usize], seed: u64) {
    let sampler = WordSampler::new(dfa, max_len);
    let table = full_table(dfa, max_len);
    for (len, row) in table.iter().enumerate() {
        assert_eq!(sampler.count(len), row[dfa.start().index()], "count({len}), max_len {max_len}");
    }
    for &len in lens {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let word = sampler.sample(len, &mut rng);
        let expected = reference_sample(dfa, &table, len, &mut reference_rng);
        assert_eq!(word, expected, "sample({len}), max_len {max_len}, seed {seed}");
        assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "draws diverged");
        if table[len][dfa.start().index()] <= 256 {
            assert_eq!(sampler.enumerate(len), reference_enumerate(dfa, &table, len));
        }
    }
}

/// Strategy: a random word over {a,b} up to length 12.
fn random_word() -> impl Strategy<Value = Word> {
    proptest::collection::vec(0u16..2, 0..12)
        .prop_map(|v| Word::from_symbols(v.into_iter().map(Symbol).collect()))
}

proptest! {
    #[test]
    fn minimization_preserves_language(dfa in random_dfa(), words in proptest::collection::vec(random_word(), 1..30)) {
        let m = dfa.minimized();
        prop_assert!(m.state_count() <= dfa.state_count().max(1));
        for w in &words {
            prop_assert_eq!(dfa.accepts(w), m.accepts(w));
        }
        prop_assert!(m.equivalent(&dfa).unwrap());
    }

    #[test]
    fn minimized_is_canonical_for_equivalent_automata(dfa in random_dfa()) {
        // Minimizing an automaton and its trimmed copy yields identical
        // (not just equivalent) DFAs thanks to BFS renumbering.
        let m1 = dfa.minimized();
        let m2 = dfa.trimmed().minimized();
        prop_assert_eq!(m1, m2);
    }

    #[test]
    fn complement_is_involutive_and_disjoint(dfa in random_dfa(), w in random_word()) {
        let c = dfa.complement();
        prop_assert_eq!(dfa.accepts(&w), !c.accepts(&w));
        prop_assert_eq!(c.complement().accepts(&w), dfa.accepts(&w));
    }

    #[test]
    fn product_semantics(a in random_dfa(), b in random_dfa(), w in random_word()) {
        let inter = a.intersect(&b).unwrap();
        let uni = a.union(&b).unwrap();
        let sym = a.symmetric_difference(&b).unwrap();
        prop_assert_eq!(inter.accepts(&w), a.accepts(&w) && b.accepts(&w));
        prop_assert_eq!(uni.accepts(&w), a.accepts(&w) || b.accepts(&w));
        prop_assert_eq!(sym.accepts(&w), a.accepts(&w) != b.accepts(&w));
    }

    #[test]
    fn equivalence_is_reflexive_and_respects_complement(dfa in random_dfa()) {
        prop_assert!(dfa.equivalent(&dfa).unwrap());
        prop_assert!(dfa.equivalent(&dfa.minimized()).unwrap());
        // A DFA equals its complement only if... never (some word differs,
        // since every word is in exactly one of the two).
        prop_assert!(!dfa.equivalent(&dfa.complement()).unwrap());
    }

    #[test]
    fn shortest_accepted_is_shortest(dfa in random_dfa()) {
        if let Some(w) = dfa.shortest_accepted() {
            prop_assert!(dfa.accepts(&w));
            // No strictly shorter accepted word exists: check exhaustively.
            let sampler = WordSampler::new(&dfa, w.len().saturating_sub(1));
            for len in 0..w.len() {
                prop_assert_eq!(sampler.count(len), 0, "found shorter word at length {}", len);
            }
        } else {
            // Empty language: no accepted word up to a healthy bound.
            let sampler = WordSampler::new(&dfa, 16);
            for len in 0..=16usize {
                prop_assert_eq!(sampler.count(len), 0);
            }
        }
    }

    #[test]
    fn sampler_counts_sum_over_first_letter(dfa in random_dfa(), len in 1usize..10) {
        // count(len, q0) = Σ_σ count(len-1, δ(q0,σ)) — the DP invariant,
        // verified against an independent sampler built per successor.
        let sampler = WordSampler::new(&dfa, len);
        let total = sampler.count(len);
        let mut sum = 0u128;
        for s in dfa.alphabet().symbols() {
            let mut word = Word::new();
            word.push(s);
            // Build a DFA that starts at δ(q0, σ).
            let shifted = Dfa::from_fn(
                dfa.alphabet().clone(),
                dfa.state_count(),
                dfa.step(dfa.start(), s).index(),
                |q| dfa.is_accepting(ringleader_automata::StateId(q as u32)),
                |q, sym| dfa.step(ringleader_automata::StateId(q as u32), sym).index(),
            )
            .unwrap();
            sum = sum.saturating_add(WordSampler::new(&shifted, len - 1).count(len - 1));
        }
        prop_assert_eq!(total, sum);
        prop_assert_eq!(total, full_table(&dfa, len)[len][dfa.start().index()]);
    }

    #[test]
    fn samples_are_members(dfa in random_dfa(), len in 0usize..14, seed: u64) {
        let sampler = WordSampler::new(&dfa, len);
        let mut rng = StdRng::seed_from_u64(seed);
        let sampled = sampler.sample(len, &mut rng);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let expected = reference_sample(&dfa, &full_table(&dfa, len), len, &mut reference_rng);
        prop_assert_eq!(&sampled, &expected);
        match sampled {
            Some(w) => {
                prop_assert_eq!(w.len(), len);
                prop_assert!(dfa.accepts(&w));
            }
            None => prop_assert_eq!(sampler.count(len), 0),
        }
    }

    #[test]
    fn sampler_matches_full_table_at_block_edges(
        dfa in random_dfa(),
        max_len in 0usize..300,
        seed: u64,
    ) {
        assert_matches_full_table(&dfa, max_len, &block_edges(max_len), seed);
    }

    #[test]
    fn run_decomposes_over_concat(dfa in random_dfa(), u in random_word(), v in random_word()) {
        // δ*(q0, uv) = δ*(δ*(q0,u), v): the exact property Theorem 1's
        // state-forwarding protocol relies on.
        let mid = dfa.run(&u);
        let direct = dfa.run(&u.concat(&v));
        let composed = dfa.run_from(mid, &v);
        prop_assert_eq!(direct, composed);
    }
}

/// Block edges for several `max_len` (perfect squares and their
/// neighbours among them), on languages whose binary counts saturate
/// beyond length 128: the kept-row sampler must reproduce the full
/// table's saturated counts, and the words they steer, bit for bit.
#[test]
fn sampler_matches_full_table_including_saturation() {
    let sigma = Alphabet::from_chars("ab").unwrap();
    let max_lens =
        [0usize, 1, 2, 3, 8, 15, 16, 17, 24, 63, 64, 127, 128, 129, 143, 144, 145, 200, 300];
    for pattern in ["(a|b)*abb", "(ab)*", "a*b*", "(a|b)*", "(a|b)*a(a|b)(a|b)"] {
        let dfa = Regex::parse(pattern, &sigma).unwrap().compile().minimized();
        for max_len in max_lens {
            for seed in [1u64, 0xC0FFEE] {
                assert_matches_full_table(&dfa, max_len, &block_edges(max_len), seed);
                assert_matches_full_table(&dfa.complement(), max_len, &block_edges(max_len), seed);
            }
        }
    }
    // The saturation the comparison above covers is real: 2^200 words.
    let universal = Regex::parse("(a|b)*", &sigma).unwrap().compile();
    let sampler = WordSampler::new(&universal, 200);
    assert_eq!(sampler.count(200), u128::MAX);
    assert_eq!(sampler.count(127), 1u128 << 127);
}
