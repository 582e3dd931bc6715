//! Note 7.1: recognizing `{wcw}` in `Θ(n²)` bits.
//!
//! "Every letter in `w` should be compared with the corresponding letter in
//! `w'`, which implies the lower bound of `Ω(n²)` bits." This protocol is
//! the matching upper bound, written so its wire cost is visibly the
//! transport of `w` across the ring:
//!
//! * Processors **before** the separator append their letter to the
//!   message — it accumulates `w` (`Θ(n)` bits per hop).
//! * The separator processor freezes the accumulated `w` and starts a
//!   match cursor.
//! * Processors **after** the separator compare their letter against
//!   `w[cursor]` and advance the cursor, still carrying all of `w` (the
//!   remaining comparisons need it).
//! * Back at the leader: accept iff the structure was well-formed and the
//!   cursor consumed exactly `|w|` letters.
//!
//! Message size stays `Θ(|w|) = Θ(n)` for `Θ(n)` hops ⇒ `Θ(n²)` bits. The
//! leader does *not* rebuild arbitrary ring contents (contrast
//! [`CollectAll`](crate::CollectAll)): only `w` travels.

use ringleader_automata::Symbol;
use ringleader_bitio::{BitReader, BitString, BitWriter};
use ringleader_langs::{Language, WcW};
use ringleader_sim::{
    Context, Direction, Process, ProcessError, ProcessResult, Protocol, Topology,
};

/// The prefix-forwarding `wcw` recognizer (`Θ(n²)` bits, unidirectional).
///
/// # Examples
///
/// ```rust
/// # use ringleader_core::WcWPrefixForward;
/// # use ringleader_langs::Language;
/// # use ringleader_automata::Word;
/// # use ringleader_sim::RingRunner;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let proto = WcWPrefixForward::new();
/// let w = Word::from_str("abcab", proto.language().alphabet())?;
/// assert!(RingRunner::new().run(&proto, &w)?.accepted());
/// let w = Word::from_str("abcaa", proto.language().alphabet())?;
/// assert!(!RingRunner::new().run(&proto, &w)?.accepted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct WcWPrefixForward {
    language: WcW,
}

/// Scan phases of the in-flight token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Still accumulating `w` (no separator seen).
    Before,
    /// Separator seen; matching the second copy.
    After,
}

/// The in-flight token.
#[derive(Debug, Clone)]
struct Token {
    valid: bool,
    phase: Phase,
    /// The first copy of `w` (letters only, 1 bit each: a=0, b=1).
    prefix: BitString,
    /// How many second-copy letters matched so far.
    cursor: u64,
}

impl Token {
    fn encode(&self) -> BitString {
        let mut w = BitWriter::new();
        w.write_bit(self.valid);
        w.write_bit(matches!(self.phase, Phase::After));
        w.write_elias_delta(self.prefix.len() as u64 + 1);
        w.write_bitstring(&self.prefix);
        w.write_elias_delta(self.cursor + 1);
        w.finish()
    }

    fn decode(msg: &BitString) -> Result<Self, ProcessError> {
        let mut r = BitReader::new(msg);
        let valid = r.read_bit()?;
        let phase = if r.read_bit()? { Phase::After } else { Phase::Before };
        let len = r.read_elias_delta()? - 1;
        // read_bitstring checks the claimed length against the bits that
        // are actually there before allocating anything.
        let prefix = r.read_bitstring(usize::try_from(len).unwrap_or(usize::MAX))?;
        let cursor = r.read_elias_delta()? - 1;
        Ok(Self { valid, phase, prefix, cursor })
    }

    /// Folds one letter into the scan. `sep` is the separator symbol.
    fn absorb(mut self, letter: Symbol, sep: Symbol) -> Self {
        if !self.valid {
            return self;
        }
        match (self.phase, letter == sep) {
            (Phase::Before, true) => self.phase = Phase::After,
            (Phase::Before, false) => self.prefix.push(letter.index() == 1),
            (Phase::After, true) => self.valid = false, // second separator
            (Phase::After, false) => {
                let idx = usize::try_from(self.cursor).unwrap_or(usize::MAX);
                if self.prefix.get(idx) == Some(letter.index() == 1) {
                    self.cursor += 1;
                } else {
                    self.valid = false;
                }
            }
        }
        self
    }

    fn accepts(&self) -> bool {
        self.valid && self.phase == Phase::After && self.cursor as usize == self.prefix.len()
    }
}

impl WcWPrefixForward {
    /// Creates the protocol over the `{a, b, c}` alphabet of [`WcW`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The language being recognized.
    #[must_use]
    pub fn language(&self) -> &WcW {
        &self.language
    }
}

impl crate::graph::OnePassRule for WcWPrefixForward {
    fn alphabet(&self) -> ringleader_automata::Alphabet {
        self.language.alphabet().clone()
    }

    fn initial(&self, letter: Symbol) -> BitString {
        Token { valid: true, phase: Phase::Before, prefix: BitString::new(), cursor: 0 }
            .absorb(letter, self.language.separator())
            .encode()
    }

    fn next(&self, incoming: &BitString, letter: Symbol) -> BitString {
        Token::decode(incoming)
            .expect("explorer feeds back our own encodings")
            .absorb(letter, self.language.separator())
            .encode()
    }

    fn accept(&self, final_message: &BitString) -> bool {
        Token::decode(final_message).expect("explorer feeds back our own encodings").accepts()
    }
}

impl Protocol for WcWPrefixForward {
    fn name(&self) -> &'static str {
        "wcw-prefix-forward"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(LeaderProcess { input, sep: self.language.separator() })
    }

    fn follower(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(FollowerProcess { input, sep: self.language.separator() })
    }
}

struct LeaderProcess {
    input: Symbol,
    sep: Symbol,
}

impl Process for LeaderProcess {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        let token =
            Token { valid: true, phase: Phase::Before, prefix: BitString::new(), cursor: 0 }
                .absorb(self.input, self.sep);
        ctx.send(Direction::Clockwise, token.encode());
        Ok(())
    }

    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let token = Token::decode(msg)?;
        ctx.decide(token.accepts());
        Ok(())
    }
}

struct FollowerProcess {
    input: Symbol,
    sep: Symbol,
}

impl Process for FollowerProcess {
    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let token = Token::decode(msg)?.absorb(self.input, self.sep);
        ctx.send(Direction::Clockwise, token.encode());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ringleader_automata::Word;
    use ringleader_sim::RingRunner;

    fn run(text: &str) -> bool {
        let proto = WcWPrefixForward::new();
        let w = Word::from_str(text, proto.language().alphabet()).unwrap();
        RingRunner::new().run(&proto, &w).unwrap().accepted()
    }

    #[test]
    fn accepts_members() {
        assert!(run("c"));
        assert!(run("aca"));
        assert!(run("bcb"));
        assert!(run("abcab"));
        assert!(run("babcbab"));
    }

    #[test]
    fn rejects_non_members() {
        assert!(!run("a"));
        assert!(!run("ac"));
        assert!(!run("acb"));
        assert!(!run("abcba")); // reversed copy
        assert!(!run("abcabc")); // trailing separator
        assert!(!run("ccc"));
        assert!(!run("abcaba")); // too long on the right
        assert!(!run("abca")); // too short on the right
    }

    #[test]
    fn exhaustive_small_n_matches_language() {
        let proto = WcWPrefixForward::new();
        let lang = proto.language().clone();
        let sigma = lang.alphabet().clone();
        for len in 1..=7usize {
            for idx in 0..3usize.pow(len as u32) {
                let mut x = idx;
                let text: String = (0..len)
                    .map(|_| {
                        let c = ['a', 'b', 'c'][x % 3];
                        x /= 3;
                        c
                    })
                    .collect();
                let w = Word::from_str(&text, &sigma).unwrap();
                let outcome = RingRunner::new().run(&proto, &w).unwrap();
                assert_eq!(outcome.accepted(), lang.contains(&w), "{text}");
            }
        }
    }

    #[test]
    fn bit_complexity_is_quadratic() {
        let proto = WcWPrefixForward::new();
        let lang = proto.language().clone();
        let mut rng = StdRng::seed_from_u64(8);
        let bits = |n: usize, rng: &mut StdRng| {
            let w = lang.positive_example(n, rng).unwrap();
            RingRunner::new().run(&proto, &w).unwrap().stats.total_bits as f64
        };
        let b = bits(41, &mut rng);
        let b4 = bits(161, &mut rng);
        let ratio = b4 / b;
        // Quadratic: ~16×; n log n would be < 6.
        assert!(ratio > 10.0 && ratio < 22.0, "ratio {ratio}");
    }

    #[test]
    fn message_size_is_linear_in_n() {
        let proto = WcWPrefixForward::new();
        let lang = proto.language().clone();
        let mut rng = StdRng::seed_from_u64(8);
        let w = lang.positive_example(101, &mut rng).unwrap();
        let outcome = RingRunner::new().run(&proto, &w).unwrap();
        // Carries the 50-letter prefix plus O(log n) framing.
        assert!(outcome.stats.max_message_bits >= 50);
        assert!(outcome.stats.max_message_bits < 80);
    }

    #[test]
    fn near_miss_negatives_rejected() {
        let proto = WcWPrefixForward::new();
        let lang = proto.language().clone();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            let neg = lang.negative_example(15, &mut rng).unwrap();
            assert!(
                !RingRunner::new().run(&proto, &neg).unwrap().accepted(),
                "{}",
                neg.render(lang.alphabet())
            );
        }
    }
}
