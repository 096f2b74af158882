//! Simulated time: milliseconds since the simulation epoch.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in milliseconds since the epoch (which
/// experiments conventionally set to the paper's first scan date,
/// Jan 31, 2014).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// One millisecond, in clock units.
    pub const MILLISECOND: u64 = 1;
    /// One second, in clock units.
    pub const SECOND: u64 = 1_000;
    /// One minute, in clock units.
    pub const MINUTE: u64 = 60 * Self::SECOND;
    /// One hour, in clock units.
    pub const HOUR: u64 = 60 * Self::MINUTE;
    /// One day, in clock units.
    pub const DAY: u64 = 24 * Self::HOUR;
    /// One week, in clock units.
    pub const WEEK: u64 = 7 * Self::DAY;

    /// `s` seconds after the epoch.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * Self::SECOND)
    }

    /// `h` hours after the epoch.
    pub fn from_hours(h: u64) -> Self {
        SimTime(h * Self::HOUR)
    }

    /// `d` days after the epoch.
    pub fn from_days(d: u64) -> Self {
        SimTime(d * Self::DAY)
    }

    /// `w` weeks after the epoch.
    pub fn from_weeks(w: u64) -> Self {
        SimTime(w * Self::WEEK)
    }

    /// Milliseconds since epoch.
    pub fn millis(self) -> u64 {
        self.0
    }

    /// Whole weeks since epoch.
    pub fn weeks(self) -> u64 {
        self.0 / Self::WEEK
    }

    /// Whole days since epoch.
    pub fn days(self) -> u64 {
        self.0 / Self::DAY
    }

    /// Saturating difference in milliseconds.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ms: u64) -> SimTime {
        SimTime(self.0 + ms)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ms: u64) {
        self.0 += ms;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1000;
        let d = total_secs / 86_400;
        let h = (total_secs % 86_400) / 3600;
        let m = (total_secs % 3600) / 60;
        let s = total_secs % 60;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}.{:03}", self.0 % 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_weeks(2).days(), 14);
        assert_eq!(SimTime::from_days(3).millis(), 3 * 24 * 3600 * 1000);
        assert_eq!(SimTime::from_hours(25).days(), 1);
        assert_eq!(SimTime::from_secs(90).millis(), 90_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_days(1) + SimTime::HOUR;
        assert_eq!(t.since(SimTime::from_days(1)), SimTime::HOUR);
        assert_eq!(SimTime::ZERO.since(t), 0, "saturating");
        assert_eq!(t - SimTime::from_days(1), SimTime::HOUR);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_days(2)
            + 3 * SimTime::HOUR
            + 4 * SimTime::MINUTE
            + 5 * SimTime::SECOND
            + 6;
        assert_eq!(t.to_string(), "d2+03:04:05.006");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_weeks(1) > SimTime::from_days(6));
    }
}
