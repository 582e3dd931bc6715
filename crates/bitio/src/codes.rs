//! Self-delimiting universal integer codes.
//!
//! The counter-based protocols of the paper (ring-size counting, the
//! three-counter `0ⁿ1ⁿ2ⁿ` recognizer, the `L_g` hierarchy recognizer) need
//! an encoding whose cost for the value `i` is `Θ(log i)` *and* that can be
//! concatenated with other fields without separators. Elias codes provide
//! exactly this; unary is used for tiny fields and as the length prefix
//! inside gamma.
//!
//! | code | cost for `v` | range |
//! |------|--------------|-------|
//! | unary | `v + 1` | `v ≥ 0` |
//! | Elias gamma | `2⌊log₂ v⌋ + 1` | `v ≥ 1` |
//! | Elias delta | `⌊log₂ v⌋ + O(log log v)` | `v ≥ 1` |
//!
//! All functions here are also exposed as methods on
//! [`BitWriter`] and [`BitReader`].

use crate::{BitReader, BitWriter, DecodeError};

/// Cost in bits of the unary code for `value`.
///
/// # Examples
///
/// ```rust
/// # use ringleader_bitio::codes::unary_len;
/// assert_eq!(unary_len(0), 1);
/// assert_eq!(unary_len(4), 5);
/// ```
#[must_use]
pub fn unary_len(value: u64) -> usize {
    value as usize + 1
}

/// Cost in bits of the Elias gamma code for `value >= 1`.
///
/// # Panics
///
/// Panics if `value == 0`.
///
/// # Examples
///
/// ```rust
/// # use ringleader_bitio::codes::elias_gamma_len;
/// assert_eq!(elias_gamma_len(1), 1);
/// assert_eq!(elias_gamma_len(2), 3);
/// assert_eq!(elias_gamma_len(9), 7);
/// ```
#[must_use]
pub fn elias_gamma_len(value: u64) -> usize {
    assert!(value >= 1, "gamma codes start at 1");
    let n = 63 - value.leading_zeros() as usize; // floor(log2 value)
    2 * n + 1
}

/// Cost in bits of the Elias delta code for `value >= 1`.
///
/// # Panics
///
/// Panics if `value == 0`.
///
/// # Examples
///
/// ```rust
/// # use ringleader_bitio::codes::elias_delta_len;
/// assert_eq!(elias_delta_len(1), 1);
/// assert_eq!(elias_delta_len(2), 4);
/// assert_eq!(elias_delta_len(17), 9);
/// ```
#[must_use]
pub fn elias_delta_len(value: u64) -> usize {
    assert!(value >= 1, "delta codes start at 1");
    let n = 63 - value.leading_zeros() as usize; // floor(log2 value)
    elias_gamma_len(n as u64 + 1) + n
}

/// Writes `value` in unary: `value` zeros then a one.
pub fn write_unary(w: &mut BitWriter, value: u64) {
    w.write_zeros(value as usize).write_bit(true);
}

/// Reads a unary-coded value.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] if the terminating one never
/// arrives.
pub fn read_unary(r: &mut BitReader<'_>) -> Result<u64, DecodeError> {
    let count = r.skip_zeros();
    r.read_bit()?; // the terminating one, or the end of the string
    Ok(count)
}

/// Writes `value >= 1` in Elias gamma code: the unary length of the binary
/// representation, then its bits below the leading one.
///
/// # Panics
///
/// Panics if `value == 0`.
pub fn write_elias_gamma(w: &mut BitWriter, value: u64) {
    assert!(value >= 1, "gamma codes start at 1");
    let n = 63 - value.leading_zeros(); // floor(log2 value)
    write_unary(w, u64::from(n));
    if n > 0 {
        w.write_bits(value & ((1u64 << n) - 1), n);
    }
}

/// Reads an Elias-gamma-coded value.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] on truncation and
/// [`DecodeError::Malformed`] if the unary prefix claims 64 or more payload
/// bits (which a writer can never produce for `u64`).
pub fn read_elias_gamma(r: &mut BitReader<'_>) -> Result<u64, DecodeError> {
    let at = r.position();
    let n = read_unary(r)?;
    if n >= 64 {
        return Err(DecodeError::Malformed { at, code: "elias-gamma" });
    }
    let low = r.read_bits(n as u32)?;
    Ok((1u64 << n) | low)
}

/// Writes `value >= 1` in Elias delta code: gamma-code the bit length, then
/// the bits below the leading one.
///
/// # Panics
///
/// Panics if `value == 0`.
pub fn write_elias_delta(w: &mut BitWriter, value: u64) {
    assert!(value >= 1, "delta codes start at 1");
    let n = 63 - value.leading_zeros(); // floor(log2 value)
    write_elias_gamma(w, u64::from(n) + 1);
    if n > 0 {
        w.write_bits(value & ((1u64 << n) - 1), n);
    }
}

/// Reads an Elias-delta-coded value.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] on truncation and
/// [`DecodeError::Malformed`] if the decoded length exceeds 64 bits.
pub fn read_elias_delta(r: &mut BitReader<'_>) -> Result<u64, DecodeError> {
    let at = r.position();
    let n_plus_1 = read_elias_gamma(r)?;
    let n = n_plus_1 - 1;
    if n >= 64 {
        return Err(DecodeError::Malformed { at, code: "elias-delta" });
    }
    let low = r.read_bits(n as u32)?;
    Ok((1u64 << n) | low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitString;

    fn gamma(v: u64) -> BitString {
        let mut w = BitWriter::new();
        write_elias_gamma(&mut w, v);
        w.finish()
    }

    fn delta(v: u64) -> BitString {
        let mut w = BitWriter::new();
        write_elias_delta(&mut w, v);
        w.finish()
    }

    #[test]
    fn gamma_known_codewords() {
        // Classic table: 1→1, 2→010, 3→011, 4→00100, ...
        assert_eq!(gamma(1).to_string(), "1");
        assert_eq!(gamma(2).to_string(), "010");
        assert_eq!(gamma(3).to_string(), "011");
        assert_eq!(gamma(4).to_string(), "00100");
        assert_eq!(gamma(9).to_string(), "0001001");
    }

    #[test]
    fn delta_known_codewords() {
        // Classic table: 1→1, 2→0100, 3→0101, 4→01100, 9→00100001, 17→001010001.
        assert_eq!(delta(1).to_string(), "1");
        assert_eq!(delta(2).to_string(), "0100");
        assert_eq!(delta(3).to_string(), "0101");
        assert_eq!(delta(4).to_string(), "01100");
        assert_eq!(delta(9).to_string(), "00100001");
        assert_eq!(delta(17).to_string(), "001010001");
    }

    #[test]
    fn lens_match_actual_encodings() {
        for v in 1..2000u64 {
            assert_eq!(gamma(v).len(), elias_gamma_len(v), "gamma {v}");
            assert_eq!(delta(v).len(), elias_delta_len(v), "delta {v}");
        }
        for v in [u64::MAX, u64::MAX / 2, 1 << 40, (1 << 40) + 17] {
            assert_eq!(gamma(v).len(), elias_gamma_len(v), "gamma {v}");
            assert_eq!(delta(v).len(), elias_delta_len(v), "delta {v}");
        }
    }

    #[test]
    fn unary_roundtrip() {
        for v in 0..200u64 {
            let mut w = BitWriter::new();
            write_unary(&mut w, v);
            let s = w.finish();
            assert_eq!(s.len(), unary_len(v));
            let mut r = BitReader::new(&s);
            assert_eq!(read_unary(&mut r).unwrap(), v);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn gamma_roundtrip_exhaustive_small() {
        for v in 1..5000u64 {
            let s = gamma(v);
            let mut r = BitReader::new(&s);
            assert_eq!(read_elias_gamma(&mut r).unwrap(), v);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn delta_roundtrip_exhaustive_small() {
        for v in 1..5000u64 {
            let s = delta(v);
            let mut r = BitReader::new(&s);
            assert_eq!(read_elias_delta(&mut r).unwrap(), v);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn extreme_values_roundtrip() {
        for v in [1u64, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            let s = gamma(v);
            let mut r = BitReader::new(&s);
            assert_eq!(read_elias_gamma(&mut r).unwrap(), v, "gamma {v}");
            let s = delta(v);
            let mut r = BitReader::new(&s);
            assert_eq!(read_elias_delta(&mut r).unwrap(), v, "delta {v}");
        }
    }

    #[test]
    fn truncated_codes_error() {
        let s = BitString::parse("000").unwrap(); // unary never terminates
        assert!(read_unary(&mut BitReader::new(&s)).is_err());
        let s = BitString::parse("0001").unwrap(); // gamma: prefix says 3 payload bits, none present
        assert!(read_elias_gamma(&mut BitReader::new(&s)).is_err());
        let s = BitString::parse("01100").unwrap(); // delta(4) minus nothing is fine...
        assert_eq!(read_elias_delta(&mut BitReader::new(&s)).unwrap(), 4);
        let s = BitString::parse("0110").unwrap(); // ...but truncated payload errors
        assert!(read_elias_delta(&mut BitReader::new(&s)).is_err());
    }

    #[test]
    fn malformed_gamma_prefix_rejected() {
        // 64 zeros then a one: claims a 64-bit payload — impossible from our writer.
        let mut text = "0".repeat(64);
        text.push('1');
        text.push_str(&"0".repeat(64));
        let s = BitString::parse(&text).unwrap();
        let err = read_elias_gamma(&mut BitReader::new(&s)).unwrap_err();
        assert_eq!(err, DecodeError::Malformed { at: 0, code: "elias-gamma" });
    }

    #[test]
    #[should_panic(expected = "gamma codes start at 1")]
    fn gamma_zero_panics() {
        let mut w = BitWriter::new();
        write_elias_gamma(&mut w, 0);
    }

    #[test]
    #[should_panic(expected = "delta codes start at 1")]
    fn delta_zero_panics() {
        let mut w = BitWriter::new();
        write_elias_delta(&mut w, 0);
    }

    #[test]
    fn concatenated_codes_self_delimit() {
        // Pack many values back to back with no separators; decode must
        // recover all of them — this is the property the protocols rely on.
        let values: Vec<u64> = (1..100).chain([1000, 65535, 1 << 33]).collect();
        let mut w = BitWriter::new();
        for &v in &values {
            write_elias_delta(&mut w, v);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for &v in &values {
            assert_eq!(read_elias_delta(&mut r).unwrap(), v);
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn delta_beats_gamma_asymptotically() {
        // delta is shorter than gamma for large values (log n + o(log n)
        // vs 2 log n) — this gap is why the counting protocols use delta.
        for shift in 10..60 {
            let v = 1u64 << shift;
            assert!(elias_delta_len(v) < elias_gamma_len(v), "v = 2^{shift}");
        }
    }
}
