//! Differential tests for the word-level bulk paths: `extend_from`,
//! `slice`, `read_bits`, `write_bits`, `read_bitstring` and the unary
//! code, each checked against a per-bit reference model (`Vec<bool>`) at
//! every source and destination bit offset `0..=63`.
//!
//! Lengths straddle the 64-bit word size and the 184-bit inline/heap
//! boundary, and run up to the largest message the paper-scale sweeps
//! send (8277 bits). Every result is compared with
//! `BitString::from_bits` of the expected bits under both `==` and
//! `Hash`: both read the raw bytes, so agreement pins the zero-tail repr
//! invariant as well as the bits themselves.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ringleader_bitio::{BitReader, BitString, BitWriter, DecodeError};

const LENGTHS: [usize; 10] = [0, 1, 63, 64, 65, 183, 184, 185, 1000, 8277];

/// A fixed pseudo-random bit pattern (xorshift64), so failures reproduce.
fn pattern(len: usize, seed: u64) -> Vec<bool> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        })
        .collect()
}

fn digest(s: &BitString) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// `got` holds exactly `want`: same bits, same length, and the same
/// bytes (zero tail) as the reference built one push at a time.
fn assert_bits(got: &BitString, want: &[bool], what: &str) {
    let reference = BitString::from_bits(want.iter().copied());
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, &b) in want.iter().enumerate() {
        assert_eq!(got.get(i), Some(b), "{what}: bit {i}");
    }
    assert_eq!(got, &reference, "{what}: == against from_bits");
    assert_eq!(digest(got), digest(&reference), "{what}: Hash against from_bits");
}

/// The MSB-first integer the reference bits spell out.
fn msb_first(bits: &[bool]) -> u64 {
    bits.iter().fold(0u64, |acc, &b| (acc << 1) | u64::from(b))
}

#[test]
fn extend_from_matches_reference_at_every_destination_offset() {
    for &len in &LENGTHS {
        let tail = pattern(len, 0xA11CE ^ len as u64);
        let src = BitString::from_bits(tail.iter().copied());
        for offset in 0..=63usize {
            // An inline destination at the offset, and a heap one at the
            // same offset within its last word.
            for dst_len in [offset, offset + 256] {
                let head = pattern(dst_len, 0xBEEF ^ dst_len as u64);
                let mut dst = BitString::from_bits(head.iter().copied());
                dst.extend_from(&src);
                let want: Vec<bool> = head.iter().chain(&tail).copied().collect();
                assert_bits(&dst, &want, &format!("extend {dst_len} + {len}"));
            }
        }
    }
}

#[test]
fn slice_matches_reference_at_every_source_offset() {
    for &len in &LENGTHS {
        for offset in 0..=63usize {
            // Trailing bits past the slice must not leak into it.
            let bits = pattern(offset + len + 71, 0x511CE ^ (offset * 31 + len) as u64);
            let s = BitString::from_bits(bits.iter().copied());
            let sliced = s.slice(offset..offset + len);
            assert_bits(&sliced, &bits[offset..offset + len], &format!("slice {offset}+{len}"));
        }
    }
}

#[test]
fn read_bitstring_matches_reference_at_every_source_offset() {
    for &len in &LENGTHS {
        for offset in 0..=63usize {
            let bits = pattern(offset + len + 5, 0x4EAD ^ (offset * 17 + len) as u64);
            let s = BitString::from_bits(bits.iter().copied());
            let mut r = BitReader::new(&s);
            let skipped = r.read_bitstring(offset).expect("offset bits exist");
            assert_bits(&skipped, &bits[..offset], "read_bitstring head");
            let got = r.read_bitstring(len).expect("len bits exist");
            assert_bits(
                &got,
                &bits[offset..offset + len],
                &format!("read_bitstring {offset}+{len}"),
            );
            assert_eq!(r.position(), offset + len);
            assert_eq!(
                r.read_bitstring(6),
                Err(DecodeError::UnexpectedEnd { at: offset + len, needed: 1 })
            );
            // A length no message could hold is refused before any
            // allocation, and leaves the cursor where it was.
            assert!(r.read_bitstring(usize::MAX).is_err());
            assert_eq!(r.read_rest().len(), 5);
        }
    }
}

#[test]
fn read_bits_matches_reference_at_every_offset_and_width() {
    // Offsets near 0 read inline strings; offsets past 150 straddle the
    // inline/heap boundary and the end of the backing store.
    for base in [0usize, 150] {
        for offset in base..=base + 63 {
            let bits = pattern(offset + 64, 0x4B17 ^ offset as u64);
            let s = BitString::from_bits(bits.iter().copied());
            for width in 0..=64u32 {
                let mut r = BitReader::new(&s);
                r.read_bitstring(offset).expect("offset bits exist");
                let want = &bits[offset..offset + width as usize];
                assert_eq!(
                    r.read_bits(width).expect("width bits exist"),
                    msb_first(want),
                    "read_bits offset {offset} width {width}"
                );
                assert_eq!(r.position(), offset + width as usize);
            }
        }
    }
}

#[test]
fn write_bits_matches_reference_at_every_offset_and_width() {
    for base in [0usize, 150] {
        for offset in base..=base + 63 {
            let head = pattern(offset, 0x3417E ^ offset as u64);
            for width in 0..=64u32 {
                let value_bits = pattern(width as usize, 0x7A1 ^ u64::from(width) ^ offset as u64);
                let mut w = BitWriter::new();
                w.write_bitstring(&BitString::from_bits(head.iter().copied()));
                w.write_bits(msb_first(&value_bits), width);
                let want: Vec<bool> = head.iter().chain(&value_bits).copied().collect();
                assert_bits(
                    &w.finish(),
                    &want,
                    &format!("write_bits offset {offset} width {width}"),
                );
            }
        }
    }
}

#[test]
fn unary_matches_reference_at_every_offset() {
    for &value in &LENGTHS {
        for offset in 0..=63usize {
            let head = pattern(offset, 0x0111 ^ offset as u64);
            let mut w = BitWriter::new();
            w.write_bitstring(&BitString::from_bits(head.iter().copied()));
            w.write_unary(value as u64);
            let s = w.finish();
            let mut want = head.clone();
            want.extend(std::iter::repeat_n(false, value));
            want.push(true);
            assert_bits(&s, &want, &format!("write_unary offset {offset} value {value}"));

            let mut r = BitReader::new(&s);
            r.read_bitstring(offset).expect("offset bits exist");
            assert_eq!(r.read_unary(), Ok(value as u64), "read_unary offset {offset}");
            assert!(r.is_at_end());

            // Without its terminating one the code is truncated at the end.
            let cut = s.slice(0..s.len() - 1);
            let mut r = BitReader::new(&cut);
            r.read_bitstring(offset).expect("offset bits exist");
            assert_eq!(
                r.read_unary(),
                Err(DecodeError::UnexpectedEnd { at: cut.len(), needed: 1 })
            );
        }
    }
}
