//! Cursor-style bit decoding.

use crate::bitstring::reverse_low_bits;
use crate::{BitString, DecodeError};

/// Reads a [`BitString`] field by field, tracking a cursor position.
///
/// Mirrors [`BitWriter`](crate::BitWriter): every `write_*` has a matching
/// `read_*`, and a message encoded with the writer decodes to the same
/// values in the same order.
///
/// # Examples
///
/// ```rust
/// # use ringleader_bitio::{BitWriter, BitReader, DecodeError};
/// # fn main() -> Result<(), DecodeError> {
/// let mut w = BitWriter::new();
/// w.write_bits(5, 3).write_elias_gamma(7);
/// let s = w.finish();
/// let mut r = BitReader::new(&s);
/// assert_eq!(r.read_bits(3)?, 5);
/// assert_eq!(r.read_elias_gamma()?, 7);
/// assert!(r.is_at_end());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    src: &'a BitString,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `src`.
    #[must_use]
    pub fn new(src: &'a BitString) -> Self {
        Self { src, pos: 0 }
    }

    /// Current cursor position in bits from the start.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of unread bits.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.src.len() - self.pos
    }

    /// Returns `true` once every bit has been consumed.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.src.len()
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] at the end of the string.
    pub fn read_bit(&mut self) -> Result<bool, DecodeError> {
        let bit =
            self.src.get(self.pos).ok_or(DecodeError::UnexpectedEnd { at: self.pos, needed: 1 })?;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `width` bits as a most-significant-bit-first integer.
    ///
    /// A `width` of 0 reads nothing and returns 0.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than `width` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
        assert!(width <= 64, "width {width} exceeds 64");
        if self.remaining() < width as usize {
            return Err(DecodeError::UnexpectedEnd {
                at: self.pos,
                needed: width as usize - self.remaining(),
            });
        }
        let wire = self.src.word_at(self.pos, width as usize);
        self.pos += width as usize;
        Ok(reverse_low_bits(wire, width))
    }

    /// Advances past the run of zero bits at the cursor, a 64-bit word at
    /// a time, and returns its length. Stops on the first one bit (left
    /// unread) or at the end of the string.
    pub(crate) fn skip_zeros(&mut self) -> u64 {
        let start = self.pos;
        while self.pos < self.src.len() {
            let take = self.remaining().min(64);
            let word = self.src.word_at(self.pos, take);
            if word != 0 {
                self.pos += word.trailing_zeros() as usize;
                break;
            }
            self.pos += take;
        }
        (self.pos - start) as u64
    }

    /// Reads a unary-coded value (zeros terminated by a one).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if the string ends before the
    /// terminating one.
    pub fn read_unary(&mut self) -> Result<u64, DecodeError> {
        crate::codes::read_unary(self)
    }

    /// Reads an Elias-gamma-coded value (always `>= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] on truncation and
    /// [`DecodeError::Malformed`] if the length prefix exceeds 64 bits.
    pub fn read_elias_gamma(&mut self) -> Result<u64, DecodeError> {
        crate::codes::read_elias_gamma(self)
    }

    /// Reads an Elias-delta-coded value (always `>= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] on truncation and
    /// [`DecodeError::Malformed`] if the inner length exceeds 64 bits.
    pub fn read_elias_delta(&mut self) -> Result<u64, DecodeError> {
        crate::codes::read_elias_delta(self)
    }

    /// Reads `count` raw bits into a new [`BitString`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than `count` bits
    /// remain.
    pub fn read_bitstring(&mut self, count: usize) -> Result<BitString, DecodeError> {
        if self.remaining() < count {
            return Err(DecodeError::UnexpectedEnd {
                at: self.pos,
                needed: count - self.remaining(),
            });
        }
        let out = self.src.slice(self.pos..self.pos + count);
        self.pos += count;
        Ok(out)
    }

    /// Reads all remaining bits into a new [`BitString`].
    pub fn read_rest(&mut self) -> BitString {
        let out = self.src.slice(self.pos..self.src.len());
        self.pos = self.src.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn read_bits_msb_first() {
        let s = BitString::parse("1011").unwrap();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert!(r.is_at_end());
    }

    #[test]
    fn zero_width_read_returns_zero() {
        let s = BitString::new();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert!(r.is_at_end());
    }

    #[test]
    fn truncated_read_reports_position_and_need() {
        let s = BitString::parse("10").unwrap();
        let mut r = BitReader::new(&s);
        let err = r.read_bits(5).unwrap_err();
        assert_eq!(err, DecodeError::UnexpectedEnd { at: 0, needed: 3 });
    }

    #[test]
    fn read_bit_sequence() {
        let s = BitString::parse("101").unwrap();
        let mut r = BitReader::new(&s);
        assert!(r.read_bit().unwrap());
        assert!(!r.read_bit().unwrap());
        assert!(r.read_bit().unwrap());
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn position_and_remaining_track_cursor() {
        let s = BitString::parse("111000").unwrap();
        let mut r = BitReader::new(&s);
        assert_eq!((r.position(), r.remaining()), (0, 6));
        r.read_bits(2).unwrap();
        assert_eq!((r.position(), r.remaining()), (2, 4));
        r.read_rest();
        assert_eq!((r.position(), r.remaining()), (6, 0));
    }

    #[test]
    fn read_bitstring_slices() {
        let s = BitString::parse("110010").unwrap();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bitstring(3).unwrap().to_string(), "110");
        assert_eq!(r.read_bitstring(3).unwrap().to_string(), "010");
        assert!(r.read_bitstring(1).is_err());
    }

    #[test]
    fn writer_reader_roundtrip_mixed_fields() {
        let mut w = BitWriter::new();
        w.write_bit(true)
            .write_bits(42, 7)
            .write_unary(5)
            .write_elias_gamma(33)
            .write_elias_delta(1_000_000);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(7).unwrap(), 42);
        assert_eq!(r.read_unary().unwrap(), 5);
        assert_eq!(r.read_elias_gamma().unwrap(), 33);
        assert_eq!(r.read_elias_delta().unwrap(), 1_000_000);
        assert!(r.is_at_end());
    }

    #[test]
    fn read_rest_consumes_everything() {
        let s = BitString::parse("10110").unwrap();
        let mut r = BitReader::new(&s);
        r.read_bit().unwrap();
        assert_eq!(r.read_rest().to_string(), "0110");
        assert!(r.is_at_end());
        assert_eq!(r.read_rest().len(), 0);
    }
}
