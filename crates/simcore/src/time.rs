//! Virtual time.
//!
//! The simulation epoch (`SimTime::EPOCH`, i.e. `t = 0`) is pinned to
//! **2020-11-01 00:00:00 UTC**, the first instant of the paper's 17-month
//! analysis interval (November 1, 2020 – March 31, 2022). All feeds and
//! measurements are aggregated into 5-minute tumbling windows ([`Window`]),
//! the granularity shared by the RSDoS feed and the OpenINTEL aggregation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds per minute.
pub const MINUTE: u64 = 60;
/// Seconds per hour.
pub const HOUR: u64 = 3_600;
/// Seconds per day.
pub const DAY: u64 = 86_400;
/// Length of one tumbling aggregation window (5 minutes), matching the
/// granularity of the RSDoS feed and the paper's NSSet aggregation (§4.1).
pub const WINDOW_SECS: u64 = 5 * MINUTE;
/// Number of 5-minute windows in a day.
pub const WINDOWS_PER_DAY: u64 = DAY / WINDOW_SECS;

/// Civil date (proleptic Gregorian) of the simulation epoch.
pub const EPOCH_DATE: CivilDate = CivilDate { year: 2020, month: 11, day: 1 };

/// An instant of virtual time, in whole seconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in whole seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// Index of a 5-minute tumbling window since the epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Window(pub u64);

impl SimTime {
    /// The start of the measurement interval: 2020-11-01 00:00:00 UTC.
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from a number of whole days plus a second-of-day offset.
    pub fn from_days(days: u64) -> SimTime {
        SimTime(days * DAY)
    }

    /// Construct from a civil date + time-of-day. Panics if the date is
    /// before the epoch.
    pub fn from_civil(date: CivilDate, hour: u32, minute: u32, second: u32) -> SimTime {
        let days = date.days_since_epoch();
        assert!(days >= 0, "date {date} precedes simulation epoch {EPOCH_DATE}");
        SimTime(days as u64 * DAY + hour as u64 * HOUR + minute as u64 * MINUTE + second as u64)
    }

    /// Whole days since the epoch.
    pub fn day(self) -> u64 {
        self.0 / DAY
    }

    /// Seconds into the current day.
    pub fn second_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// The 5-minute window containing this instant.
    pub fn window(self) -> Window {
        Window(self.0 / WINDOW_SECS)
    }

    /// The civil date of this instant.
    pub fn civil(self) -> CivilDate {
        CivilDate::from_days_since_epoch(self.day() as i64)
    }

    /// The calendar month of this instant.
    pub fn month(self) -> Month {
        let c = self.civil();
        Month { year: c.year, month: c.month }
    }

    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Seconds since the epoch.
    pub fn secs(self) -> u64 {
        self.0
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_secs(s: u64) -> SimDuration {
        SimDuration(s)
    }
    pub fn from_mins(m: u64) -> SimDuration {
        SimDuration(m * MINUTE)
    }
    pub fn from_hours(h: u64) -> SimDuration {
        SimDuration(h * HOUR)
    }
    pub fn from_days(d: u64) -> SimDuration {
        SimDuration(d * DAY)
    }
    pub fn secs(self) -> u64 {
        self.0
    }
    /// Number of whole 5-minute windows this span covers (rounded up).
    pub fn windows_ceil(self) -> u64 {
        self.0.div_ceil(WINDOW_SECS)
    }
}

impl Window {
    /// First instant of the window.
    pub fn start(self) -> SimTime {
        SimTime(self.0 * WINDOW_SECS)
    }
    /// One past the last instant of the window.
    pub fn end(self) -> SimTime {
        SimTime((self.0 + 1) * WINDOW_SECS)
    }
    /// Day index the window belongs to.
    pub fn day(self) -> u64 {
        self.0 / WINDOWS_PER_DAY
    }
    pub fn next(self) -> Window {
        Window(self.0 + 1)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.civil();
        let s = self.second_of_day();
        write!(
            f,
            "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
            c.year,
            c.month,
            c.day,
            s / HOUR,
            (s % HOUR) / MINUTE,
            s % MINUTE
        )
    }
}
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(DAY) && self.0 > 0 {
            write!(f, "{}d", self.0 / DAY)
        } else if self.0.is_multiple_of(HOUR) && self.0 > 0 {
            write!(f, "{}h", self.0 / HOUR)
        } else if self.0.is_multiple_of(MINUTE) {
            write!(f, "{}m", self.0 / MINUTE)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}
impl fmt::Debug for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}[{}]", self.0, self.start())
    }
}

/// A proleptic-Gregorian civil date.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    pub year: i32,
    /// 1-based month.
    pub month: u32,
    /// 1-based day of month.
    pub day: u32,
}

impl CivilDate {
    pub fn new(year: i32, month: u32, day: u32) -> CivilDate {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(day >= 1 && day <= days_in_month(year, month), "day out of range: {day}");
        CivilDate { year, month, day }
    }

    /// Days since 1970-01-01 (can be negative), via the classic civil
    /// calendar algorithm (era/year-of-era decomposition).
    pub fn days_since_unix(self) -> i64 {
        let y = self.year as i64 - if self.month <= 2 { 1 } else { 0 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// Days since the simulation epoch (2020-11-01); negative if earlier.
    pub fn days_since_epoch(self) -> i64 {
        self.days_since_unix() - EPOCH_DATE.days_since_unix()
    }

    /// Inverse of [`CivilDate::days_since_epoch`].
    pub fn from_days_since_epoch(days: i64) -> CivilDate {
        Self::from_days_since_unix(days + EPOCH_DATE.days_since_unix())
    }

    /// Inverse of [`CivilDate::days_since_unix`].
    pub fn from_days_since_unix(z: i64) -> CivilDate {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        CivilDate { year: (y + if m <= 2 { 1 } else { 0 }) as i32, month: m, day: d }
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}
impl fmt::Debug for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A calendar month, used to bucket the longitudinal analysis (Table 3,
/// Figure 5 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Month {
    pub year: i32,
    /// 1-based month.
    pub month: u32,
}

impl Month {
    pub fn new(year: i32, month: u32) -> Month {
        assert!((1..=12).contains(&month));
        Month { year, month }
    }

    /// First instant of this month as simulation time. Panics before epoch.
    pub fn start(self) -> SimTime {
        SimTime::from_civil(CivilDate::new(self.year, self.month, 1), 0, 0, 0)
    }

    /// First instant of the following month.
    pub fn end(self) -> SimTime {
        self.succ().start()
    }

    pub fn succ(self) -> Month {
        if self.month == 12 {
            Month { year: self.year + 1, month: 1 }
        } else {
            Month { year: self.year, month: self.month + 1 }
        }
    }

    /// Months `[self, last]` inclusive.
    pub fn through(self, last: Month) -> Vec<Month> {
        let mut out = Vec::new();
        let mut m = self;
        while m <= last {
            out.push(m);
            m = m.succ();
        }
        out
    }

    /// The 17 months of the paper's analysis interval.
    pub fn paper_interval() -> Vec<Month> {
        Month::new(2020, 11).through(Month::new(2022, 3))
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year, self.month)
    }
}
impl fmt::Debug for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Number of days in a civil month.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => panic!("invalid month {month}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_2020_11_01() {
        assert_eq!(SimTime::EPOCH.civil(), CivilDate::new(2020, 11, 1));
        assert_eq!(format!("{}", SimTime::EPOCH), "2020-11-01 00:00:00");
    }

    #[test]
    fn civil_roundtrip_across_interval() {
        for d in 0..600 {
            let c = CivilDate::from_days_since_epoch(d);
            assert_eq!(c.days_since_epoch(), d, "roundtrip failed at day {d} ({c})");
        }
    }

    #[test]
    fn unix_anchor() {
        assert_eq!(CivilDate::new(1970, 1, 1).days_since_unix(), 0);
        assert_eq!(CivilDate::new(1970, 1, 2).days_since_unix(), 1);
        assert_eq!(CivilDate::new(1969, 12, 31).days_since_unix(), -1);
        // 2020-11-01 is a known anchor: 18567 days after the Unix epoch.
        assert_eq!(EPOCH_DATE.days_since_unix(), 18_567);
    }

    #[test]
    fn leap_year_2020_and_2022() {
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2021, 2), 28);
        assert_eq!(days_in_month(2022, 2), 28);
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28);
    }

    #[test]
    fn windows_tile_days() {
        assert_eq!(WINDOWS_PER_DAY, 288);
        let t = SimTime::from_civil(CivilDate::new(2020, 12, 1), 0, 0, 0);
        assert_eq!(t.window().start(), t);
        assert_eq!(t.window().day(), t.day());
    }

    #[test]
    fn paper_interval_has_17_months() {
        let months = Month::paper_interval();
        assert_eq!(months.len(), 17);
        assert_eq!(months[0], Month::new(2020, 11));
        assert_eq!(*months.last().unwrap(), Month::new(2022, 3));
    }

    #[test]
    fn month_bounds() {
        let m = Month::new(2021, 2);
        assert_eq!(m.start().civil(), CivilDate::new(2021, 2, 1));
        assert_eq!(m.end().civil(), CivilDate::new(2021, 3, 1));
        assert_eq!((m.end() - m.start()).secs(), 28 * DAY);
    }

    #[test]
    fn from_civil_time_of_day() {
        let t = SimTime::from_civil(CivilDate::new(2020, 11, 30), 22, 0, 0);
        assert_eq!(format!("{t}"), "2020-11-30 22:00:00");
        assert_eq!(t.second_of_day(), 22 * HOUR);
    }

    #[test]
    fn duration_display() {
        assert_eq!(format!("{:?}", SimDuration::from_days(2)), "2d");
        assert_eq!(format!("{:?}", SimDuration::from_hours(3)), "3h");
        assert_eq!(format!("{:?}", SimDuration::from_mins(15)), "15m");
        assert_eq!(format!("{:?}", SimDuration::from_secs(61)), "61s");
    }

    #[test]
    fn windows_ceil() {
        assert_eq!(SimDuration::from_secs(1).windows_ceil(), 1);
        assert_eq!(SimDuration::from_mins(5).windows_ceil(), 1);
        assert_eq!(SimDuration::from_mins(6).windows_ceil(), 2);
        assert_eq!(SimDuration::from_hours(1).windows_ceil(), 12);
    }

    #[test]
    #[should_panic]
    fn from_civil_before_epoch_panics() {
        SimTime::from_civil(CivilDate::new(2020, 10, 31), 0, 0, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Civil-date conversion roundtrips over four millennia.
        #[test]
        fn civil_roundtrip_wide(z in -400_000i64..600_000) {
            let c = CivilDate::from_days_since_unix(z);
            prop_assert_eq!(c.days_since_unix(), z);
            prop_assert!((1..=12).contains(&c.month));
            prop_assert!(c.day >= 1 && c.day <= days_in_month(c.year, c.month));
        }

        /// Window/day/second decomposition is consistent for any instant.
        #[test]
        fn window_day_consistency(t in 0u64..(600 * DAY)) {
            let st = SimTime(t);
            prop_assert_eq!(st.window().day(), st.day());
            prop_assert!(st.window().start() <= st);
            prop_assert!(st < st.window().end());
            prop_assert_eq!(st.day() * DAY + st.second_of_day(), t);
            // Month bounds contain the instant.
            let m = st.month();
            prop_assert!(m.start() <= st && st < m.end());
        }

        /// Consecutive months tile time with no gaps.
        #[test]
        fn months_tile(y in 2020i32..2026, m in 1u32..=12) {
            let month = Month::new(y, m);
            if month >= Month::new(2020, 11) {
                prop_assert_eq!(month.end(), month.succ().start());
            }
        }
    }
}
