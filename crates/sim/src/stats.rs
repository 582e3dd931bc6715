//! Bit-complexity accounting.

use crate::Direction;

/// Exact accounting of one execution's communication.
///
/// `total_bits` is the paper's `Σᵢ |mᵢ|` over every message *sent* during
/// the execution (messages still in flight when the leader decides have
/// been sent and therefore count). All other fields are derived views used
/// by the experiments: per-link loads locate the minimum-traffic link for
/// the Theorem 5 cut argument, and `max_message_bits` exhibits the
/// `Ω(log n)` message-width growth of Theorem 4.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total bits sent — the execution's bit complexity.
    pub total_bits: usize,
    /// Number of messages sent.
    pub message_count: usize,
    /// Size of the largest single message, in bits.
    pub max_message_bits: usize,
    /// Number of deliveries performed (≤ `message_count`; smaller when the
    /// leader decided with messages still in flight).
    pub deliveries: usize,
    /// Bits sent clockwise over each link: entry `i` is the link
    /// `pᵢ → pᵢ₊₁` (indices mod `n`).
    pub clockwise_link_bits: Vec<usize>,
    /// Bits sent counter-clockwise over each link: entry `i` is the link
    /// `pᵢ₊₁ → pᵢ` (indices mod `n`).
    pub counter_clockwise_link_bits: Vec<usize>,
}

impl ExecStats {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            clockwise_link_bits: vec![0; n],
            counter_clockwise_link_bits: vec![0; n],
            ..Self::default()
        }
    }

    /// Records a send of `bits` bits from `position` in `direction`.
    pub(crate) fn record_send(&mut self, position: usize, direction: Direction, bits: usize) {
        self.total_bits += bits;
        self.message_count += 1;
        self.max_message_bits = self.max_message_bits.max(bits);
        let n = self.clockwise_link_bits.len();
        match direction {
            Direction::Clockwise => self.clockwise_link_bits[position] += bits,
            // p_{i} sending counter-clockwise uses the link between p_{i-1} and p_i.
            Direction::CounterClockwise => {
                self.counter_clockwise_link_bits[(position + n - 1) % n] += bits;
            }
        }
    }

    /// Total bits crossing link `i` (between `pᵢ` and `pᵢ₊₁`), both ways.
    #[must_use]
    pub fn link_bits(&self, link: usize) -> usize {
        self.clockwise_link_bits[link] + self.counter_clockwise_link_bits[link]
    }

    /// Index of the link carrying the fewest bits — the link the Theorem 5
    /// transformation disconnects.
    #[must_use]
    pub fn min_traffic_link(&self) -> usize {
        (0..self.clockwise_link_bits.len()).min_by_key(|&i| self.link_bits(i)).unwrap_or(0)
    }

    /// Mean message size in bits (0 for an execution with no messages).
    #[must_use]
    pub fn mean_message_bits(&self) -> f64 {
        if self.message_count == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.message_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut s = ExecStats::new(4);
        s.record_send(0, Direction::Clockwise, 3);
        s.record_send(1, Direction::Clockwise, 5);
        s.record_send(0, Direction::CounterClockwise, 2);
        assert_eq!(s.total_bits, 10);
        assert_eq!(s.message_count, 3);
        assert_eq!(s.max_message_bits, 5);
        assert_eq!(s.clockwise_link_bits, vec![3, 5, 0, 0]);
        // p0 sending counter-clockwise crosses the p3↔p0 link (index 3).
        assert_eq!(s.counter_clockwise_link_bits, vec![0, 0, 0, 2]);
    }

    #[test]
    fn link_totals_and_min_link() {
        let mut s = ExecStats::new(3);
        s.record_send(0, Direction::Clockwise, 10); // link 0
        s.record_send(1, Direction::Clockwise, 1); // link 1
        s.record_send(2, Direction::CounterClockwise, 2); // link 1 (p2->p1)
        assert_eq!(s.link_bits(0), 10);
        assert_eq!(s.link_bits(1), 3);
        assert_eq!(s.link_bits(2), 0);
        assert_eq!(s.min_traffic_link(), 2);
    }

    #[test]
    fn mean_message_bits_handles_empty() {
        let s = ExecStats::new(2);
        assert_eq!(s.mean_message_bits(), 0.0);
        let mut s = ExecStats::new(2);
        s.record_send(0, Direction::Clockwise, 4);
        s.record_send(1, Direction::Clockwise, 2);
        assert!((s.mean_message_bits() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bit_messages_count_as_messages() {
        // A 0-bit message is legal (a pure "signal"); it must bump the
        // message count without affecting bit totals.
        let mut s = ExecStats::new(2);
        s.record_send(0, Direction::Clockwise, 0);
        assert_eq!(s.total_bits, 0);
        assert_eq!(s.message_count, 1);
    }
}
