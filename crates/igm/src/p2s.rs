//! The parallel-to-serial converter between the TA and the IVG.
//!
//! "Since the incoming 32-bit input can be decoded into four branch
//! addresses in the worst case, we install the parallel-to-serial
//! converter (P2S) between TA and input vector generator" (§III-A).
//! Up to four addresses completing in one TA cycle are serialized toward
//! the IVG at one address per MLPU cycle through a small hardware FIFO.
//!
//! The FIFO empties between bursts, so its depth only bounds how many
//! addresses of one burst survive; the decode core
//! ([`crate::streaming`]) applies that bound. This type keeps the
//! P2S's Table I area and its departure schedule.

use rtad_sim::{AreaEstimate, ClockDomain, Picos};

/// The P2S converter's departure schedule: one address per MLPU cycle.
///
/// # Examples
///
/// ```
/// use rtad_igm::P2sConverter;
/// use rtad_sim::{ClockDomain, Picos};
///
/// let clock = ClockDomain::rtad_mlpu();
/// let period = clock.freq().period();
/// let mut p2s = P2sConverter::new(clock);
/// // Four addresses that completed in the same TA cycle leave on four
/// // consecutive cycles.
/// let t = Picos::from_nanos(8);
/// let first = p2s.depart_first(t);
/// let rest: Vec<Picos> = (0..3).map(|_| p2s.depart_next()).collect();
/// assert_eq!(first, t);
/// assert_eq!(rest, [t + period, t + period * 2, t + period * 3]);
/// ```
#[derive(Debug, Clone)]
pub struct P2sConverter {
    clock: ClockDomain,
    /// Next cycle edge at which an output slot is free.
    next_free: Picos,
}

impl P2sConverter {
    /// Creates an idle P2S.
    pub fn new(clock: ClockDomain) -> Self {
        P2sConverter {
            clock,
            next_free: Picos::ZERO,
        }
    }

    /// Table I synthesis result for the P2S.
    pub fn area() -> AreaEstimate {
        AreaEstimate::new(686, 1_074, 0, 14_363)
    }

    /// Departure of a burst's first survivor, whose address left the TA
    /// at `ta_at`: the first edge at or after both `ta_at` and the
    /// port's next free slot.
    pub fn depart_first(&mut self, ta_at: Picos) -> Picos {
        let t = self.clock.next_edge_at_or_after(self.next_free.max(ta_at));
        self.next_free = t;
        self.depart_next()
    }

    /// Departure of the burst's next survivor: one cycle after the one
    /// before. Departures count from the burst's first address, even
    /// when later ones complete in later TA words.
    pub fn depart_next(&mut self) -> Picos {
        let t = self.next_free;
        self.next_free = t + self.clock.freq().period();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_one_per_cycle() {
        let clock = ClockDomain::rtad_mlpu();
        let period = clock.freq().period();
        let mut p2s = P2sConverter::new(clock);
        let t0 = Picos::from_nanos(16);
        assert_eq!(p2s.depart_first(t0), t0);
        assert_eq!(p2s.depart_next(), t0 + period);
        assert_eq!(p2s.depart_next(), t0 + period * 2);
    }

    #[test]
    fn back_to_back_bursts_queue_behind_each_other() {
        let clock = ClockDomain::rtad_mlpu();
        let period = clock.freq().period();
        let mut p2s = P2sConverter::new(clock);
        let t0 = Picos::ZERO;
        p2s.depart_first(t0);
        let last = (0..3).map(|_| p2s.depart_next()).last().unwrap();
        // Second burst arrives one cycle later but the port is busy.
        assert_eq!(p2s.depart_first(t0 + period), last + period);
    }

    #[test]
    fn idle_gap_resets_to_arrival_time() {
        let clock = ClockDomain::rtad_mlpu();
        let mut p2s = P2sConverter::new(clock);
        p2s.depart_first(Picos::from_nanos(8));
        let late = Picos::from_micros(5);
        assert_eq!(p2s.depart_first(late), late);
    }

    #[test]
    fn overflow_drops_and_counts() {
        use crate::{IgmConfig, StreamingIgm};
        use rtad_trace::ptm::{Packet, PacketEncoder};
        use rtad_trace::tpiu::TpiuFormatter;
        use rtad_trace::{IsetMode, TraceId, VirtAddr};

        // A-sync (6 bytes) and eight one-byte branches: the frame's
        // burst completes six addresses, the two carried bytes two more
        // at end of stream.
        let mut enc = PacketEncoder::new();
        let mut fmt = TpiuFormatter::new();
        fmt.push_slice(TraceId::PTM, &enc.encode(&Packet::Async));
        for _ in 0..8 {
            let branch = Packet::branch(VirtAddr::new(0x40), IsetMode::Arm);
            fmt.push_slice(TraceId::PTM, &enc.encode(&branch));
        }
        let mut config = IgmConfig::token_stream(&[VirtAddr::new(0x40)]);
        config.p2s_depth = 2;
        let mut igm = StreamingIgm::new(&config);
        let mut out = Vec::new();
        igm.push_bytes(&fmt.flush().concat(), &mut out);
        igm.finish(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(igm.stats().p2s_dropped, 4);
    }

    #[test]
    fn departures_start_on_a_clock_edge() {
        let mut p2s = P2sConverter::new(ClockDomain::rtad_mlpu());
        assert_eq!(
            p2s.depart_first(Picos::from_nanos(9)),
            Picos::from_nanos(16)
        );
    }

    #[test]
    fn area_matches_table_i() {
        let a = P2sConverter::area();
        assert_eq!((a.luts, a.ffs, a.gates), (686, 1_074, 14_363));
    }
}
