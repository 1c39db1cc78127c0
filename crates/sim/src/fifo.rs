//! Bounded hardware FIFOs with overflow accounting.
//!
//! FIFOs appear at three places in RTAD: inside the CoreSight PTM (whose
//! batching behaviour dominates step (1) of the RTAD path in Fig. 7),
//! between the P2S converter and the Input Vector Generator, and as the
//! *internal FIFO* of the MCM. The paper's §IV-C observes that with the
//! original MIAOW engine the MCM FIFO "would overflow and lose newly sent
//! data" on branch-heavy benchmarks such as `471.omnetpp`; [`HwFifo`]
//! records exactly that drop count so the experiment harnesses can
//! reproduce the observation.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

/// What a full FIFO does with an arriving element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// The incoming element is discarded (hardware FIFOs with no
    /// back-pressure — the PTM/MCM behaviour described in the paper:
    /// "the buffer would overflow and lose newly sent data").
    DropNewest,
    /// The oldest element is discarded to make room.
    DropOldest,
    /// The producer is stalled; [`HwFifo::push`] reports
    /// [`PushOutcome::WouldBlock`] and the element is *not* enqueued.
    Backpressure,
}

/// Result of a [`HwFifo::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PushOutcome {
    /// The element was enqueued.
    Stored,
    /// The FIFO was full and the element was dropped
    /// ([`OverflowPolicy::DropNewest`]).
    DroppedNewest,
    /// The FIFO was full and the *oldest* element was evicted to make room
    /// ([`OverflowPolicy::DropOldest`]).
    EvictedOldest,
    /// The FIFO was full and the producer must retry
    /// ([`OverflowPolicy::Backpressure`]).
    WouldBlock,
}

/// Lifetime statistics of a [`HwFifo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FifoStats {
    /// Elements offered via `push`.
    pub offered: u64,
    /// Elements accepted into the queue.
    pub stored: u64,
    /// Elements removed via `pop`.
    pub popped: u64,
    /// Elements lost to overflow (either the newcomer or an evicted elder).
    pub dropped: u64,
    /// Push attempts rejected with back-pressure.
    pub blocked: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
}

impl FifoStats {
    /// Fraction of offered elements that were lost, in `[0, 1]`.
    /// Zero when nothing was offered.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Whether any element was ever lost.
    pub fn overflowed(&self) -> bool {
        self.dropped > 0
    }
}

impl fmt::Display for FifoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered={} stored={} popped={} dropped={} blocked={} high-water={}",
            self.offered, self.stored, self.popped, self.dropped, self.blocked, self.max_occupancy
        )
    }
}

/// A bounded hardware FIFO with an explicit overflow policy.
///
/// # Examples
///
/// ```
/// use rtad_sim::{HwFifo, OverflowPolicy, PushOutcome};
///
/// let mut fifo = HwFifo::new(2, OverflowPolicy::DropNewest);
/// assert_eq!(fifo.push('a'), PushOutcome::Stored);
/// assert_eq!(fifo.push('b'), PushOutcome::Stored);
/// // Full: hardware with no back-pressure loses the newcomer.
/// assert_eq!(fifo.push('c'), PushOutcome::DroppedNewest);
/// assert_eq!(fifo.pop(), Some('a'));
/// assert!(fifo.stats().overflowed());
/// ```
#[derive(Debug, Clone)]
pub struct HwFifo<T> {
    queue: VecDeque<T>,
    depth: usize,
    policy: OverflowPolicy,
    stats: FifoStats,
}

impl<T> HwFifo<T> {
    /// Creates a FIFO holding at most `depth` elements.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize, policy: OverflowPolicy) -> Self {
        assert!(depth > 0, "FIFO depth must be non-zero");
        HwFifo {
            queue: VecDeque::with_capacity(depth),
            depth,
            policy,
            stats: FifoStats::default(),
        }
    }

    /// Offers an element; the outcome depends on occupancy and policy.
    pub fn push(&mut self, value: T) -> PushOutcome {
        self.stats.offered += 1;
        if self.queue.len() < self.depth {
            self.queue.push_back(value);
            self.stats.stored += 1;
            self.stats.max_occupancy = self.stats.max_occupancy.max(self.queue.len());
            return PushOutcome::Stored;
        }
        match self.policy {
            OverflowPolicy::DropNewest => {
                self.stats.dropped += 1;
                PushOutcome::DroppedNewest
            }
            OverflowPolicy::DropOldest => {
                self.queue.pop_front();
                self.queue.push_back(value);
                self.stats.dropped += 1;
                self.stats.stored += 1;
                PushOutcome::EvictedOldest
            }
            OverflowPolicy::Backpressure => {
                self.stats.blocked += 1;
                PushOutcome::WouldBlock
            }
        }
    }

    /// Removes and returns the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.queue.pop_front();
        if v.is_some() {
            self.stats.popped += 1;
        }
        v
    }

    /// Peeks at the oldest element without removing it.
    pub fn front(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.queue.len() == self.depth
    }

    /// Configured capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> FifoStats {
        self.stats
    }

    /// Clears contents (statistics are preserved; they are lifetime
    /// counters, not occupancy).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Drains all queued elements in FIFO order, counting them as popped.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.stats.popped += self.queue.len() as u64;
        self.queue.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_until_full_then_drops_newest() {
        let mut f = HwFifo::new(3, OverflowPolicy::DropNewest);
        for i in 0..3 {
            assert_eq!(f.push(i), PushOutcome::Stored);
        }
        assert!(f.is_full());
        assert_eq!(f.push(99), PushOutcome::DroppedNewest);
        assert_eq!(f.drain_all(), vec![0, 1, 2]);
        let s = f.stats();
        assert_eq!(s.offered, 4);
        assert_eq!(s.stored, 3);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.popped, 3);
        assert!((s.drop_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let mut f = HwFifo::new(2, OverflowPolicy::DropOldest);
        f.push(1);
        f.push(2);
        assert_eq!(f.push(3), PushOutcome::EvictedOldest);
        assert_eq!(f.drain_all(), vec![2, 3]);
        assert_eq!(f.stats().dropped, 1);
    }

    #[test]
    fn backpressure_rejects_without_losing() {
        let mut f = HwFifo::new(1, OverflowPolicy::Backpressure);
        assert_eq!(f.push('x'), PushOutcome::Stored);
        assert_eq!(f.push('y'), PushOutcome::WouldBlock);
        assert_eq!(f.stats().blocked, 1);
        assert_eq!(f.stats().dropped, 0);
        assert_eq!(f.pop(), Some('x'));
        assert_eq!(f.push('y'), PushOutcome::Stored);
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let mut f = HwFifo::new(8, OverflowPolicy::DropNewest);
        f.push(1);
        f.push(2);
        f.push(3);
        f.pop();
        f.pop();
        f.push(4);
        assert_eq!(f.stats().max_occupancy, 3);
    }

    #[test]
    fn pop_on_empty_is_none_and_uncounted() {
        let mut f: HwFifo<u8> = HwFifo::new(1, OverflowPolicy::DropNewest);
        assert_eq!(f.pop(), None);
        assert_eq!(f.stats().popped, 0);
    }

    #[test]
    #[should_panic(expected = "depth must be non-zero")]
    fn zero_depth_rejected() {
        let _: HwFifo<u8> = HwFifo::new(0, OverflowPolicy::DropNewest);
    }

    #[test]
    fn drop_rate_zero_when_unused() {
        let f: HwFifo<u8> = HwFifo::new(1, OverflowPolicy::DropNewest);
        assert_eq!(f.stats().drop_rate(), 0.0);
        assert!(!f.stats().overflowed());
    }
}
