//! Request serial numbers (paper §3.5).
//!
//! Every request and response in FtDirCMP carries a small serial number.
//! Reissued requests get a *sequentially incremented* serial, so a stale
//! response to an earlier attempt can be told apart from the response to the
//! current attempt and discarded — preventing the incoherence of the paper's
//! Figure 2. The *initial* serial of a fresh request does not matter and is
//! drawn from a per-node wrapping counter.

use ftdircmp_sim::DetRng;

/// An `n`-bit request serial number.
///
/// Serial numbers wrap modulo `2^bits`; the paper notes a request would have
/// to be reissued `2^n` times before a stale response could be confused with
/// a current one. [`crate::config::FtConfig::serial_bits`] controls `n`
/// (8 in the paper's Table 4); the ablation bench sweeps it.
///
/// # Example
///
/// ```
/// use ftdircmp_core::SerialNum;
///
/// let s = SerialNum::new(255, 8);
/// assert_eq!(s.next(8), SerialNum::new(0, 8)); // wraps at 2^8
/// assert_ne!(s, s.next(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SerialNum(u16);

impl SerialNum {
    /// Creates a serial number, truncated to `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn new(value: u16, bits: u8) -> Self {
        SerialNum(value & Self::mask(bits))
    }

    /// The serial used by the non-fault-tolerant DirCMP protocol, which
    /// ignores serials entirely.
    pub(crate) const ZERO: SerialNum = SerialNum(0);

    /// The sequentially next serial (used when reissuing a request),
    /// wrapping modulo `2^bits` (paper §3.5).
    pub fn next(self, bits: u8) -> SerialNum {
        SerialNum(self.0.wrapping_add(1) & Self::mask(bits))
    }

    fn mask(bits: u8) -> u16 {
        assert!((1..=16).contains(&bits), "serial bits must be in 1..=16");
        if bits == 16 {
            u16::MAX
        } else {
            (1u16 << bits) - 1
        }
    }
}

impl std::fmt::Display for SerialNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Per-node allocator for *initial* serial numbers: a wrapping counter
/// seeded randomly, exactly as the paper describes ("each node has a
/// wrapping counter which is used to choose serial numbers for new
/// requests").
#[derive(Debug, Clone, Hash)]
pub struct SerialAllocator {
    counter: u16,
    bits: u8,
}

impl SerialAllocator {
    /// Creates an allocator with a random starting point.
    pub(crate) fn new(bits: u8, rng: &mut DetRng) -> Self {
        let start = (rng.next_u64() & 0xFFFF) as u16;
        SerialAllocator {
            counter: start,
            bits,
        }
    }

    /// Serial number for a brand-new request.
    pub(crate) fn fresh(&mut self) -> SerialNum {
        let s = SerialNum::new(self.counter, self.bits);
        self.counter = self.counter.wrapping_add(1);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncates_to_width() {
        assert_eq!(SerialNum::new(0x1FF, 8).0, 0xFF);
        assert_eq!(SerialNum::new(0x1FF, 4).0, 0xF);
        assert_eq!(SerialNum::new(7, 3).0, 7);
    }

    #[test]
    fn next_wraps_at_width() {
        assert_eq!(SerialNum::new(3, 2).next(2).0, 0);
        assert_eq!(SerialNum::new(254, 8).next(8).0, 255);
        assert_eq!(SerialNum::new(255, 8).next(8).0, 0);
    }

    #[test]
    fn reissue_chain_revisits_after_2n() {
        let bits = 3;
        let start = SerialNum::new(5, bits);
        let mut s = start;
        for _ in 0..(1 << bits) {
            s = s.next(bits);
        }
        assert_eq!(s, start, "serials must wrap after 2^n reissues");
        // And never collide before that.
        let mut s = start;
        for i in 1..(1 << bits) {
            s = s.next(bits);
            assert_ne!(s, start, "collision after only {i} reissues");
        }
    }

    #[test]
    fn allocator_is_sequential_and_seeded() {
        let mut rng = DetRng::from_seed(1);
        let mut a = SerialAllocator::new(8, &mut rng);
        let s1 = a.fresh();
        let s2 = a.fresh();
        assert_eq!(s1.next(8), s2);
        assert_eq!(a.bits, 8);

        let mut rng2 = DetRng::from_seed(1);
        let mut b = SerialAllocator::new(8, &mut rng2);
        assert_eq!(b.fresh(), s1, "same seed gives same initial serial");
    }

    #[test]
    #[should_panic(expected = "serial bits must be in 1..=16")]
    fn zero_width_panics() {
        SerialNum::new(0, 0);
    }

    #[test]
    fn display_is_hashlike() {
        assert_eq!(SerialNum::new(12, 8).to_string(), "#12");
    }
}
