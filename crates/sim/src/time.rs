//! Simulation time, frequencies and clock domains.
//!
//! All RTAD latencies are derived from cycle counts in one of the three
//! clock domains of the FPGA prototype (CPU 250 MHz, IGM/MCM 125 MHz,
//! ML-MIAOW 50 MHz). [`Picos`] is the common currency: a picosecond
//! tick is fine enough that every period of interest (4 ns, 8 ns, 20 ns)
//! is an exact integer, so cross-domain conversions stay exact.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in (or span of) simulation time, in picoseconds.
///
/// `u64` picoseconds cover roughly 213 days of simulated time, far beyond
/// any RTAD experiment (the longest SPEC-like runs we model span seconds).
///
/// # Examples
///
/// ```
/// use rtad_sim::Picos;
///
/// let t = Picos::from_nanos(16);
/// assert_eq!(t.as_picos(), 16_000);
/// assert_eq!(format!("{t}"), "16.000ns");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Picos(u64);

impl Picos {
    /// Zero time; the simulation epoch.
    pub const ZERO: Picos = Picos(0);
    /// The maximum representable instant, used as an "infinitely far" sentinel.
    pub const MAX: Picos = Picos(u64::MAX);

    /// Creates a time span from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a time span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a time span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Creates a time span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Picos(ms * 1_000_000_000)
    }

    /// Creates a time span from a (non-negative, finite) number of microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative, NaN or too large for the representation.
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "microsecond value must be finite and non-negative, got {us}"
        );
        let ps = us * 1e6;
        assert!(ps <= u64::MAX as f64, "time span overflows Picos: {us}us");
        Picos(ps.round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This span expressed in (truncated) whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// This span as fractional nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span as fractional microseconds (the unit of Figs. 7 and 8).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    pub fn max(self, rhs: Picos) -> Picos {
        Picos(self.0.max(rhs.0))
    }

    /// The earlier of two instants.
    pub fn min(self, rhs: Picos) -> Picos {
        Picos(self.0.min(rhs.0))
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A cycle count within one clock domain.
///
/// Cycles are domain-relative; convert through [`ClockDomain`] to compare
/// across domains. The newtype prevents accidentally mixing, say, 50 MHz
/// ML-MIAOW cycles with 250 MHz CPU cycles.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Raw count.
    pub const fn count(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock frequency.
///
/// # Examples
///
/// ```
/// use rtad_sim::Hertz;
///
/// let f = Hertz::from_mhz(125);
/// assert_eq!(f.period().as_picos(), 8_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hertz(u64);

impl Hertz {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero; a zero-frequency clock never ticks and
    /// every conversion through it would be undefined.
    pub fn new(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be non-zero");
        Hertz(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Hertz::new(mhz * 1_000_000)
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The clock period.
    ///
    /// Exact for every frequency that divides 1 THz; the RTAD domains
    /// (250/125/50 MHz) all do.
    pub fn period(self) -> Picos {
        Picos::from_picos(1_000_000_000_000 / self.0)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

/// A named clock domain: a frequency plus conversion helpers.
///
/// The RTAD prototype has three: see [`ClockDomain::rtad_cpu`],
/// [`ClockDomain::rtad_mlpu`] and [`ClockDomain::rtad_miaow`].
///
/// # Examples
///
/// ```
/// use rtad_sim::ClockDomain;
///
/// let cpu = ClockDomain::rtad_cpu();
/// // Fig. 7: RTAD drives MCM 16.4us earlier than SW, "4,100 cycles in
/// // processor frequency".
/// let lead = rtad_sim::Picos::from_nanos(16_400);
/// assert_eq!(cpu.picos_to_cycles_floor(lead).count(), 4_100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClockDomain {
    name: String,
    freq: Hertz,
}

impl ClockDomain {
    /// Creates a clock domain.
    pub fn new(name: impl Into<String>, freq: Hertz) -> Self {
        ClockDomain {
            name: name.into(),
            freq,
        }
    }

    /// The host ARM Cortex-A9 domain of the prototype: 250 MHz
    /// ("the CPU clock is lowered to 250 MHz to emulate the performance
    /// ratio between the host and the coprocessors").
    pub fn rtad_cpu() -> Self {
        ClockDomain::new("cpu", Hertz::from_mhz(250))
    }

    /// The IGM/MCM logic domain: 125 MHz.
    pub fn rtad_mlpu() -> Self {
        ClockDomain::new("mlpu", Hertz::from_mhz(125))
    }

    /// The ML-MIAOW engine domain: 50 MHz (the only module that could not
    /// close timing at 125 MHz on the ZC706 FPGA).
    pub fn rtad_miaow() -> Self {
        ClockDomain::new("miaow", Hertz::from_mhz(50))
    }

    /// The domain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain's frequency.
    pub fn freq(&self) -> Hertz {
        self.freq
    }

    /// Duration of `n` cycles in this domain.
    pub fn cycles_to_picos(&self, n: u64) -> Picos {
        self.freq.period() * n
    }

    /// Duration of a cycle count in this domain.
    pub fn cycles(&self, n: Cycles) -> Picos {
        self.cycles_to_picos(n.0)
    }

    /// How many *complete* cycles of this domain fit in `span`.
    pub fn picos_to_cycles_floor(&self, span: Picos) -> Cycles {
        Cycles(span.as_picos() / self.freq.period().as_picos())
    }

    /// How many cycles of this domain are needed to *cover* `span`
    /// (rounds up; the usual direction for latency budgeting).
    pub fn picos_to_cycles_ceil(&self, span: Picos) -> Cycles {
        let p = self.freq.period().as_picos();
        Cycles(span.as_picos().div_ceil(p))
    }

    /// The first clock edge of this domain at or after `t` — the classic
    /// synchronizer alignment cost when crossing into this domain.
    pub fn next_edge_at_or_after(&self, t: Picos) -> Picos {
        let p = self.freq.period().as_picos();
        Picos::from_picos(t.as_picos().div_ceil(p) * p)
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.name, self.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picos_constructors_agree() {
        assert_eq!(Picos::from_nanos(1), Picos::from_picos(1_000));
        assert_eq!(Picos::from_micros(1), Picos::from_nanos(1_000));
        assert_eq!(Picos::from_millis(1), Picos::from_micros(1_000));
    }

    #[test]
    fn picos_from_micros_f64_rounds() {
        assert_eq!(Picos::from_micros_f64(3.62).as_picos(), 3_620_000);
        assert_eq!(Picos::from_micros_f64(0.0), Picos::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn picos_from_micros_f64_rejects_negative() {
        let _ = Picos::from_micros_f64(-1.0);
    }

    #[test]
    fn picos_display_picks_unit() {
        assert_eq!(format!("{}", Picos::from_picos(5)), "5ps");
        assert_eq!(format!("{}", Picos::from_nanos(16)), "16.000ns");
        assert_eq!(format!("{}", Picos::from_micros_f64(3.62)), "3.620us");
        assert_eq!(format!("{}", Picos::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Picos::from_millis(1500)), "1.500s");
    }

    #[test]
    fn picos_saturating_sub() {
        let a = Picos::from_nanos(5);
        let b = Picos::from_nanos(9);
        assert_eq!(b.saturating_sub(a), Picos::from_nanos(4));
        assert_eq!(a.saturating_sub(b), Picos::ZERO);
    }

    #[test]
    fn rtad_domain_periods() {
        assert_eq!(ClockDomain::rtad_cpu().freq().period().as_picos(), 4_000);
        assert_eq!(ClockDomain::rtad_mlpu().freq().period().as_picos(), 8_000);
        assert_eq!(ClockDomain::rtad_miaow().freq().period().as_picos(), 20_000);
    }

    #[test]
    fn igm_two_cycles_is_sixteen_ns() {
        // Paper Fig. 7 discussion: IVG "requires only 2 cycles (16ns)".
        let mlpu = ClockDomain::rtad_mlpu();
        assert_eq!(mlpu.cycles_to_picos(2), Picos::from_nanos(16));
    }

    #[test]
    fn cycle_conversion_floor_and_ceil() {
        let d = ClockDomain::new("d", Hertz::from_mhz(100)); // 10ns period
        assert_eq!(d.picos_to_cycles_floor(Picos::from_nanos(25)).count(), 2);
        assert_eq!(d.picos_to_cycles_ceil(Picos::from_nanos(25)).count(), 3);
        assert_eq!(d.picos_to_cycles_ceil(Picos::from_nanos(30)).count(), 3);
    }

    #[test]
    fn next_edge_alignment() {
        let d = ClockDomain::new("d", Hertz::from_mhz(125)); // 8ns
        assert_eq!(
            d.next_edge_at_or_after(Picos::from_nanos(9)),
            Picos::from_nanos(16)
        );
        assert_eq!(
            d.next_edge_at_or_after(Picos::from_nanos(16)),
            Picos::from_nanos(16)
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_rejected() {
        let _ = Hertz::new(0);
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }
}
