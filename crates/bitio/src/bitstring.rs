//! A compact, ordered sequence of bits — the wire format of every message.

use std::fmt;

use serde::{Content, Deserialize, Error as SerdeError, Serialize};

/// Payloads of at most this many bytes are stored inline, with no heap
/// allocation. 23 bytes = 184 bits covers every O(log n)-bit message the
/// protocol suite sends (an Elias-delta counter for n = 2⁶⁴ is 77 bits);
/// only history-carrying payloads (collect-all, stateless replay, wcw
/// prefixes) spill to the heap.
const INLINE_BYTES: usize = 23;

/// The inline capacity in bits: 184.
const INLINE_BITS: usize = INLINE_BYTES * 8;

/// The backing store: a fixed inline buffer or a heap vector.
///
/// Invariants (upheld by every constructor and mutator):
/// * `Heap(v)` always holds exactly `len.div_ceil(8)` bytes;
/// * `Inline` bytes at positions ≥ `len.div_ceil(8)`, and bits of the
///   last partial byte at positions ≥ `len`, are zero — so equality and
///   hashing can compare raw bytes.
#[derive(Clone)]
enum Repr {
    Inline([u8; INLINE_BYTES]),
    Heap(Vec<u8>),
}

/// An immutable-by-convention, append-friendly sequence of bits.
///
/// `BitString` is the payload type of every message exchanged in the ring
/// simulator. Its [`len`](BitString::len) is the quantity the bit-complexity
/// accounting sums up, so the representation is exact: pushing one bit grows
/// the logical length by exactly one.
///
/// Bits are stored packed, eight to a byte, least-significant-bit first
/// within each byte. Bit `0` is the first bit written and the first bit a
/// [`BitReader`](crate::BitReader) yields. Strings of at most 184 bits
/// (23 bytes) are stored inline on the stack — every O(log n)-bit message
/// in the protocol suite stays allocation-free; longer strings spill to a
/// heap buffer transparently.
///
/// # Examples
///
/// ```rust
/// # use ringleader_bitio::BitString;
/// let mut s = BitString::new();
/// s.push(true);
/// s.push(false);
/// s.push(true);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.get(0), Some(true));
/// assert_eq!(s.get(1), Some(false));
/// assert_eq!(s.to_string(), "101");
/// ```
#[derive(Clone)]
pub struct BitString {
    repr: Repr,
    len: usize,
}

impl Default for BitString {
    fn default() -> Self {
        Self { repr: Repr::Inline([0; INLINE_BYTES]), len: 0 }
    }
}

impl BitString {
    /// Creates an empty bit string (inline: no allocation).
    ///
    /// # Examples
    ///
    /// ```rust
    /// # use ringleader_bitio::BitString;
    /// let s = BitString::new();
    /// assert!(s.is_empty());
    /// ```
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit string with capacity for `bits` bits. Requests
    /// within the inline capacity allocate nothing.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        if bits <= INLINE_BITS {
            Self::default()
        } else {
            Self { repr: Repr::Heap(Vec::with_capacity(bits.div_ceil(8))), len: 0 }
        }
    }

    /// Builds a bit string from an iterator of bools, first bit first.
    ///
    /// # Examples
    ///
    /// ```rust
    /// # use ringleader_bitio::BitString;
    /// let s = BitString::from_bits([true, true, false]);
    /// assert_eq!(s.to_string(), "110");
    /// ```
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut s = Self::new();
        for b in bits {
            s.push(b);
        }
        s
    }

    /// Parses a bit string from ASCII `'0'`/`'1'` characters.
    ///
    /// Returns `None` if any character is not `0` or `1`.
    ///
    /// # Examples
    ///
    /// ```rust
    /// # use ringleader_bitio::BitString;
    /// let s = BitString::parse("0110").unwrap();
    /// assert_eq!(s.len(), 4);
    /// assert!(BitString::parse("01x0").is_none());
    /// ```
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let mut s = Self::with_capacity(text.len());
        for c in text.chars() {
            match c {
                '0' => s.push(false),
                '1' => s.push(true),
                _ => return None,
            }
        }
        Some(s)
    }

    /// Number of bits in the string. This is the wire cost of a message.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the string contains no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the bits currently live in the inline (stack) buffer.
    ///
    /// Strings never move back inline once spilled, so this is a pure
    /// function of the construction history, not of `len` alone.
    #[doc(hidden)]
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// The packed bytes holding the bits: exactly `len.div_ceil(8)` bytes,
    /// least-significant-bit first within each byte, unused high bits of
    /// the last byte zero.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        let nbytes = self.len.div_ceil(8);
        match &self.repr {
            Repr::Inline(buf) => &buf[..nbytes],
            Repr::Heap(v) => &v[..nbytes],
        }
    }

    /// Mutable view of the full backing store (inline buffer or heap
    /// vector contents).
    fn data_mut(&mut self) -> &mut [u8] {
        match &mut self.repr {
            Repr::Inline(buf) => &mut buf[..],
            Repr::Heap(v) => &mut v[..],
        }
    }

    /// Moves the bits to the heap, reserving room for `extra_bits` more.
    fn spill(&mut self, extra_bits: usize) {
        if let Repr::Inline(buf) = self.repr {
            let nbytes = self.len.div_ceil(8);
            let mut v =
                Vec::with_capacity((self.len + extra_bits).div_ceil(8).max(2 * INLINE_BYTES));
            v.extend_from_slice(&buf[..nbytes]);
            self.repr = Repr::Heap(v);
        }
    }

    /// Grows the backing store to hold `nbytes` zeroed bytes (logical
    /// length is unchanged; callers set `len` afterwards).
    fn grow_bytes(&mut self, nbytes: usize) {
        debug_assert!(nbytes >= self.len.div_ceil(8));
        if nbytes > INLINE_BYTES {
            self.spill(nbytes * 8 - self.len);
        }
        match &mut self.repr {
            Repr::Inline(_) => {} // already zeroed to full capacity
            Repr::Heap(v) => v.resize(nbytes, 0),
        }
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let byte_idx = self.len / 8;
        let bit_idx = self.len % 8;
        if bit_idx == 0 {
            match &mut self.repr {
                Repr::Inline(_) if byte_idx < INLINE_BYTES => {} // pre-zeroed
                Repr::Inline(_) => {
                    self.spill(1);
                    if let Repr::Heap(v) = &mut self.repr {
                        v.push(0);
                    }
                }
                Repr::Heap(v) => v.push(0),
            }
        }
        if bit {
            self.data_mut()[byte_idx] |= 1 << bit_idx;
        }
        self.len += 1;
    }

    /// Returns bit `index`, or `None` past the end.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        let byte = match &self.repr {
            Repr::Inline(buf) => buf[index / 8],
            Repr::Heap(v) => v[index / 8],
        };
        Some((byte >> (index % 8)) & 1 == 1)
    }

    /// Appends all bits of `other` after the bits of `self`.
    ///
    /// A bulk copy at any destination offset: byte-aligned appends are a
    /// single byte copy, unaligned ones shift `other` in a 64-bit word at
    /// a time. Either way the cost is `O(other.len() / 64)` word operations
    /// (plus amortized growth), never a loop over bits.
    ///
    /// # Examples
    ///
    /// ```rust
    /// # use ringleader_bitio::BitString;
    /// let mut a = BitString::parse("10").unwrap();
    /// let b = BitString::parse("011").unwrap();
    /// a.extend_from(&b);
    /// assert_eq!(a.to_string(), "10011");
    /// ```
    pub fn extend_from(&mut self, other: &BitString) {
        let start = self.len;
        let end = (start + other.len).div_ceil(8);
        self.grow_bytes(end);
        let src = other.as_bytes();
        let dst = &mut self.data_mut()[start / 8..end];
        if start % 8 == 0 {
            dst.copy_from_slice(src);
        } else {
            shift_up_into(dst, src, (start % 8) as u32);
        }
        self.len = start + other.len;
    }

    /// Appends `count` zero bits without touching the bits themselves:
    /// the backing store past `len` is already zero (repr invariant).
    pub(crate) fn push_zeros(&mut self, count: usize) {
        self.grow_bytes((self.len + count).div_ceil(8));
        self.len += count;
    }

    /// Appends the low `count <= 64` bits of `word`, bit 0 first. Bits of
    /// `word` at positions `>= count` must be zero.
    pub(crate) fn push_word(&mut self, word: u64, count: usize) {
        debug_assert!(count <= 64 && word & !low_mask(count) == 0);
        let start = self.len;
        self.grow_bytes((start + count).div_ceil(8));
        or_word(self.data_mut(), start, word, count);
        self.len = start + count;
    }

    /// The `count <= 64` bits starting at bit `pos` as a word, bit `pos`
    /// in bit 0. Bits past the end of the string read as zero.
    pub(crate) fn word_at(&self, pos: usize, count: usize) -> u64 {
        read_word(self.as_bytes(), pos, count)
    }

    /// Returns a new string holding bits `range.start..range.end`.
    ///
    /// Like [`extend_from`](BitString::extend_from), a bulk copy: one byte
    /// copy when `range.start` is byte-aligned, 64-bit shift-and-mask
    /// words otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> BitString {
        assert!(range.start <= range.end && range.end <= self.len, "slice out of bounds");
        let len = range.len();
        let mut out = BitString::with_capacity(len);
        if len == 0 {
            return out;
        }
        let src = self.as_bytes();
        let first = range.start / 8;
        let shift = range.start % 8;
        let nbytes = len.div_ceil(8);
        out.grow_bytes(nbytes);
        let dst = out.data_mut();
        if shift == 0 {
            dst[..nbytes].copy_from_slice(&src[first..first + nbytes]);
        } else {
            shift_down_into(&mut dst[..nbytes], &src[first..], shift as u32);
        }
        // Zero the copied-in bits past the logical end (repr invariant).
        let rem = len % 8;
        if rem > 0 {
            dst[nbytes - 1] &= (1u8 << rem) - 1;
        }
        out.len = len;
        out
    }

    /// Iterates over the bits, first bit first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { s: self, idx: 0 }
    }

    /// Counts the `true` bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.as_bytes().iter().map(|b| b.count_ones() as usize).sum()
    }
}

/// The low `count` bits set (`count <= 64`).
fn low_mask(count: usize) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// The 8 bytes at `bytes[at..]` as a little-endian word; bytes past the
/// end read as zero.
fn load_le(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(chunk) => le_word(chunk),
        None => {
            let mut buf = [0u8; 8];
            let tail = bytes.get(at..).unwrap_or_default();
            buf[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(buf)
        }
    }
}

/// ORs `word` little-endian into the 8 bytes at `bytes[at..]`. Bytes past
/// the end are dropped; callers only ever place zero bits there.
fn or_le(bytes: &mut [u8], at: usize, word: u64) {
    match bytes.get_mut(at..at + 8) {
        Some(chunk) => {
            let cur = le_word(chunk);
            chunk.copy_from_slice(&(cur | word).to_le_bytes());
        }
        None => {
            let tail = bytes.get_mut(at..).unwrap_or_default();
            for (b, w) in tail.iter_mut().zip(word.to_le_bytes()) {
                *b |= w;
            }
        }
    }
}

/// The `count <= 64` bits at bit offset `pos` of an LSB-first packed
/// buffer, bit `pos` in bit 0 of the result; bits past the end read as
/// zero.
fn read_word(bytes: &[u8], pos: usize, count: usize) -> u64 {
    if count == 0 {
        return 0;
    }
    let (at, shift) = (pos / 8, pos % 8);
    let mut word = load_le(bytes, at) >> shift;
    if shift + count > 64 {
        word |= u64::from(bytes.get(at + 8).copied().unwrap_or(0)) << (64 - shift);
    }
    word & low_mask(count)
}

/// ORs the low `count <= 64` bits of `word` (higher bits zero) into an
/// LSB-first packed buffer at bit offset `pos`. Bits outside
/// `pos..pos + count` are left unchanged.
fn or_word(bytes: &mut [u8], pos: usize, word: u64, count: usize) {
    let (at, shift) = (pos / 8, pos % 8);
    or_le(bytes, at, word << shift);
    if shift + count > 64 {
        if let Some(b) = bytes.get_mut(at + 8) {
            *b |= (word >> (64 - shift)) as u8;
        }
    }
}

/// One little-endian word from an 8-byte chunk.
fn le_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"))
}

/// Fills `dst` with the bits of `src` shifted down by `shift` (1..=7):
/// bit `i` of `dst` is bit `i + shift` of `src`. Whole 64-bit words
/// first, then the last few bytes; `src` must hold at least `dst.len()`
/// bytes, and bits it lacks read as zero.
fn shift_down_into(dst: &mut [u8], src: &[u8], shift: u32) {
    // Word k needs source bytes 8k..8k + 16 (its own word and the next).
    let words = (dst.len() / 8).min(src.len().saturating_sub(8) / 8);
    let lo = src.chunks_exact(8);
    let hi = src.get(8..).unwrap_or_default().chunks_exact(8);
    for ((out, lo), hi) in dst[..8 * words].chunks_exact_mut(8).zip(lo).zip(hi) {
        let word = (le_word(lo) >> shift) | (le_word(hi) << (64 - shift));
        out.copy_from_slice(&word.to_le_bytes());
    }
    for i in 8 * words..dst.len() {
        dst[i] = (src[i] >> shift) | src.get(i + 1).map_or(0, |b| b << (8 - shift));
    }
}

/// Appends the bits of `src` to `dst` at bit offset `shift` (1..=7) of
/// `dst[0]`: bit `i` of `src` lands at bit `i + shift` of `dst`. The low
/// `shift` bits of `dst[0]` are kept and every other bit of `dst` must be
/// zero (repr invariant); `dst` holds `(shift + 8·src.len()).div_ceil(8)`
/// bytes or fewer, in which case the dropped high bits of `src` are zero.
fn shift_up_into(dst: &mut [u8], src: &[u8], shift: u32) {
    // Word k is source word k shifted up, plus the top bits of word k - 1.
    let words = (dst.len() / 8).min(src.len() / 8);
    if words > 0 {
        let head = le_word(&dst[..8]) | (le_word(&src[..8]) << shift);
        dst[..8].copy_from_slice(&head.to_le_bytes());
        let cur = src[8..].chunks_exact(8);
        let prev = src.chunks_exact(8);
        for ((out, cur), prev) in dst[8..8 * words].chunks_exact_mut(8).zip(cur).zip(prev) {
            let word = (le_word(cur) << shift) | (le_word(prev) >> (64 - shift));
            out.copy_from_slice(&word.to_le_bytes());
        }
    }
    for i in 8 * words..dst.len() {
        let cur = src.get(i).map_or(0, |b| b << shift);
        let prev = if i == 0 { 0 } else { src[i - 1] >> (8 - shift) };
        dst[i] |= cur | prev;
    }
}

/// Reverses the order of the low `width` bits of `word` (`width <= 64`):
/// converts between the MSB-first integer fields of
/// [`BitWriter::write_bits`](crate::BitWriter::write_bits) and the
/// LSB-first wire order.
pub(crate) fn reverse_low_bits(word: u64, width: u32) -> u64 {
    if width == 0 {
        0
    } else {
        word.reverse_bits() >> (64 - width)
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl PartialEq for BitString {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.as_bytes() == other.as_bytes()
    }
}

impl Eq for BitString {}

impl std::hash::Hash for BitString {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Same recipe the derived (Vec<u8>, usize) impl used, so hashes
        // are value-based and identical across inline/heap storage.
        self.as_bytes().hash(state);
        self.len.hash(state);
    }
}

// Wire-compatible with the historical derived impls for
// `struct BitString { bytes: Vec<u8>, len: usize }`: a map with the byte
// sequence under "bytes" and the bit count under "len". The storage split
// is invisible on the wire.
impl Serialize for BitString {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (
                "bytes".to_string(),
                Content::Seq(self.as_bytes().iter().map(|&b| Content::U64(u64::from(b))).collect()),
            ),
            ("len".to_string(), Content::U64(self.len as u64)),
        ])
    }
}

impl Deserialize for BitString {
    fn from_content(content: &Content) -> Result<Self, SerdeError> {
        let bytes_content = content
            .map_get("bytes")
            .ok_or_else(|| SerdeError::missing_field("BitString", "bytes"))?;
        let bytes: Vec<u8> = Deserialize::from_content(bytes_content)?;
        let len: usize = match content.map_get("len") {
            Some(c) => Deserialize::from_content(c)?,
            None => return Err(SerdeError::missing_field("BitString", "len")),
        };
        if bytes.len() != len.div_ceil(8) {
            return Err(SerdeError::custom(format!(
                "BitString: {} bytes cannot hold exactly {len} bits",
                bytes.len()
            )));
        }
        let mut s = BitString::with_capacity(len);
        s.grow_bytes(bytes.len());
        s.data_mut()[..bytes.len()].copy_from_slice(&bytes);
        s.len = len;
        // Preserve the zero-tail invariant even for hand-written input.
        let rem = len % 8;
        if rem > 0 {
            s.data_mut()[bytes.len() - 1] &= (1u8 << rem) - 1;
        }
        Ok(s)
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

impl Extend<bool> for BitString {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitString {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitString`], first bit first.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    s: &'a BitString,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.s.get(self.idx)?;
        self.idx += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.s.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string() {
        let s = BitString::new();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.get(0), None);
        assert_eq!(s.to_string(), "");
        assert_eq!(format!("{s:?}"), "BitString(\"\")");
        assert!(s.is_inline());
    }

    #[test]
    fn push_and_get() {
        let mut s = BitString::new();
        let pattern = [true, false, false, true, true, false, true, false, true, true];
        for &b in &pattern {
            s.push(b);
        }
        assert_eq!(s.len(), pattern.len());
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(s.get(i), Some(b), "bit {i}");
        }
        assert_eq!(s.get(pattern.len()), None);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for text in ["", "0", "1", "0101", "11110000", "101010101010101"] {
            let s = BitString::parse(text).unwrap();
            assert_eq!(s.to_string(), text);
        }
        assert!(BitString::parse("012").is_none());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = BitString::parse("101").unwrap();
        let b = BitString::parse("0011").unwrap();
        a.extend_from(&b);
        assert_eq!(a.to_string(), "1010011");
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn slice_extracts_subrange() {
        let s = BitString::parse("1100110011").unwrap();
        assert_eq!(s.slice(0..4).to_string(), "1100");
        assert_eq!(s.slice(4..8).to_string(), "1100");
        assert_eq!(s.slice(2..2).to_string(), "");
        assert_eq!(s.slice(0..10).to_string(), "1100110011");
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_past_end_panics() {
        let s = BitString::parse("10").unwrap();
        let _ = s.slice(0..3);
    }

    #[test]
    fn iterator_matches_gets() {
        let s = BitString::parse("100101110").unwrap();
        let collected: Vec<bool> = s.iter().collect();
        assert_eq!(collected.len(), s.len());
        for (i, &b) in collected.iter().enumerate() {
            assert_eq!(Some(b), s.get(i));
        }
        assert_eq!(s.iter().len(), 9);
    }

    #[test]
    fn count_ones_counts() {
        assert_eq!(BitString::parse("").unwrap().count_ones(), 0);
        assert_eq!(BitString::parse("0000").unwrap().count_ones(), 0);
        assert_eq!(BitString::parse("1111").unwrap().count_ones(), 4);
        assert_eq!(BitString::parse("1010100").unwrap().count_ones(), 3);
    }

    #[test]
    fn from_iterator_and_extend_trait() {
        let s: BitString = [true, false, true].into_iter().collect();
        assert_eq!(s.to_string(), "101");
        let mut t = s.clone();
        t.extend([false, false]);
        assert_eq!(t.to_string(), "10100");
    }

    #[test]
    fn equality_and_hash_are_value_based() {
        use std::collections::HashSet;
        let a = BitString::parse("1010").unwrap();
        let b = BitString::from_bits([true, false, true, false]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn long_strings_cross_byte_boundaries() {
        let text: String = (0..1000).map(|i| if i % 3 == 0 { '1' } else { '0' }).collect();
        let s = BitString::parse(&text).unwrap();
        assert_eq!(s.len(), 1000);
        assert_eq!(s.to_string(), text);
        assert_eq!(s.count_ones(), 334);
    }

    #[test]
    fn spills_exactly_past_inline_capacity() {
        let mut s = BitString::new();
        for i in 0..INLINE_BITS {
            s.push(i % 2 == 0);
            assert!(s.is_inline(), "bit {i} still fits inline");
        }
        assert_eq!(s.len(), 184);
        s.push(true);
        assert!(!s.is_inline(), "bit 185 forces the spill");
        assert_eq!(s.len(), 185);
        assert_eq!(s.get(184), Some(true));
        for i in 0..INLINE_BITS {
            assert_eq!(s.get(i), Some(i % 2 == 0), "bit {i} preserved across spill");
        }
    }

    #[test]
    fn equality_and_hash_cross_the_repr_boundary() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Same value, different storage: inline via push, heap via
        // with_capacity past the inline limit.
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let inline = BitString::from_bits(bits.iter().copied());
        let mut heap = BitString::with_capacity(1000);
        heap.extend(bits.iter().copied());
        assert!(inline.is_inline());
        assert!(!heap.is_inline());
        assert_eq!(inline, heap);
        let digest = |s: &BitString| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&inline), digest(&heap));
    }

    #[test]
    fn as_bytes_is_lsb_first_packed() {
        let s = BitString::parse("10110001").unwrap();
        assert_eq!(s.as_bytes(), &[0b1000_1101]);
        let s = BitString::parse("111").unwrap();
        assert_eq!(s.as_bytes(), &[0b0000_0111]);
    }

    #[test]
    fn serde_format_is_bytes_plus_len() {
        let s = BitString::parse("10110").unwrap();
        let content = s.to_content();
        let map = content.as_map().unwrap();
        assert_eq!(map[0].0, "bytes");
        assert_eq!(map[1].0, "len");
        assert_eq!(map[0].1.as_seq().unwrap().len(), 1);
        let back = BitString::from_content(&content).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn serde_rejects_inconsistent_len() {
        let content = Content::Map(vec![
            ("bytes".to_string(), Content::Seq(vec![Content::U64(7)])),
            ("len".to_string(), Content::U64(100)),
        ]);
        assert!(BitString::from_content(&content).is_err());
    }
}
