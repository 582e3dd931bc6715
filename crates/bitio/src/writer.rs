//! Cursor-style bit encoding.

use crate::bitstring::reverse_low_bits;
use crate::BitString;

/// Builds a [`BitString`] field by field.
///
/// The writer offers both raw primitives ([`write_bit`](BitWriter::write_bit),
/// [`write_bits`](BitWriter::write_bits)) and the universal codes from
/// [`codes`](crate::codes) as convenience methods, so protocol code reads
/// like a message grammar.
///
/// # Examples
///
/// ```rust
/// # use ringleader_bitio::BitWriter;
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_unary(3);
/// w.write_elias_gamma(9);
/// let s = w.finish();
/// assert_eq!(s.to_string(), "1" /* bit */.to_owned() + "0001" /* unary 3 */ + "0001001" /* gamma 9 */);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    out: BitString,
}

impl BitWriter {
    /// Creates a writer with an empty output.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Returns `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) -> &mut Self {
        self.out.push(bit);
        self
    }

    /// Appends the low `width` bits of `value`, most-significant first.
    ///
    /// A `width` of 0 writes nothing (useful for `⌈log 1⌉ = 0`-bit state
    /// fields of single-state automata).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) -> &mut Self {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        self.out.push_word(reverse_low_bits(value, width), width as usize);
        self
    }

    /// Appends `value` in unary: `value` zeros followed by a one.
    ///
    /// Costs `value + 1` bits. See [`codes::unary_len`](crate::codes::unary_len).
    pub fn write_unary(&mut self, value: u64) -> &mut Self {
        crate::codes::write_unary(self, value);
        self
    }

    /// Appends `value >= 1` in Elias gamma code.
    ///
    /// Costs `2⌊log₂ value⌋ + 1` bits.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0` (gamma codes start at 1).
    pub fn write_elias_gamma(&mut self, value: u64) -> &mut Self {
        crate::codes::write_elias_gamma(self, value);
        self
    }

    /// Appends `value >= 1` in Elias delta code.
    ///
    /// Costs `⌊log₂ value⌋ + 2⌊log₂(⌊log₂ value⌋+1)⌋ + 1` bits — the
    /// asymptotically tight `log n + O(log log n)` code used by the
    /// counting protocols.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0` (delta codes start at 1).
    pub fn write_elias_delta(&mut self, value: u64) -> &mut Self {
        crate::codes::write_elias_delta(self, value);
        self
    }

    /// Appends `count` zero bits. The output's backing store past its end
    /// is already zero, so this only grows the length.
    pub(crate) fn write_zeros(&mut self, count: usize) -> &mut Self {
        self.out.push_zeros(count);
        self
    }

    /// Appends every bit of `bits`: a bulk copy at any bit offset (see
    /// [`BitString::extend_from`]).
    pub fn write_bitstring(&mut self, bits: &BitString) -> &mut Self {
        self.out.extend_from(bits);
        self
    }

    /// Consumes the writer and returns the accumulated bit string.
    #[must_use]
    pub fn finish(self) -> BitString {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_bits_is_msb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        assert_eq!(w.finish().to_string(), "1011");
    }

    #[test]
    fn zero_width_writes_nothing() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert!(w.is_empty());
        assert_eq!(w.finish().len(), 0);
    }

    #[test]
    fn full_width_64() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let s = w.finish();
        assert_eq!(s.len(), 64);
        assert_eq!(s.count_ones(), 64);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn value_too_wide_panics() {
        let mut w = BitWriter::new();
        w.write_bits(4, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn width_over_64_panics() {
        let mut w = BitWriter::new();
        w.write_bits(0, 65);
    }

    #[test]
    fn chained_fields_concatenate() {
        let mut w = BitWriter::new();
        w.write_bit(true).write_bits(0b01, 2).write_unary(2);
        assert_eq!(w.finish().to_string(), "101001");
    }

    #[test]
    fn write_bitstring_appends() {
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bitstring(&BitString::parse("111").unwrap());
        assert_eq!(w.finish().to_string(), "0111");
    }

    #[test]
    fn len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.len(), 0);
        w.write_bit(true);
        assert_eq!(w.len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.len(), 8);
        w.write_elias_gamma(1);
        assert_eq!(w.len(), 9); // gamma(1) = "1"
    }
}
