//! The resource monitor (§3.2).
//!
//! *"A table is used to keep track of the current load level for the
//! resources, where an entry is allocated to each resource to save its
//! current usage level."* The scalar engine tracks one resource, the
//! LLC, so [`ResourceMonitor`] is that table's one row: the nominal
//! capacity and the summed demand of all active progress periods,
//! updated on every period entry/exit, holding the usage Algorithm 1's
//! fit test ([`crate::rules::fits`]) reads.

//! Beyond the paper, the row carries a second, **overflow** bucket: the
//! summed demand of periods force-admitted by waitlist aging. It is
//! deliberately excluded from [`ResourceMonitor::usage`] (and therefore
//! from the fit test) — degraded admissions must not be
//! able to wedge the nominal books shut for well-behaved periods.

/// Real-time estimation of LLC usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceMonitor {
    capacity: u64,
    usage: u64,
    /// Demand admitted under degraded (aged / force-admitted)
    /// accounting; tracked separately so it never blocks admission.
    overflow: u64,
}

impl ResourceMonitor {
    /// Build a monitor with the given capacity.
    pub fn new(capacity: u64) -> Self {
        ResourceMonitor {
            capacity,
            usage: 0,
            overflow: 0,
        }
    }

    /// Nominal capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current summed demand of active periods admitted under nominal
    /// accounting (excludes the overflow bucket).
    pub fn usage(&self) -> u64 {
        self.usage
    }

    /// Summed demand of periods force-admitted under degraded
    /// (overflow) accounting.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Account a newly admitted period's demand.
    pub fn increment_load(&mut self, demand: u64) {
        self.usage += demand;
    }

    /// Release a completed period's demand.
    ///
    /// Panics if the release exceeds the tracked usage — that would mean
    /// the registry double-released a period, which is a scheduler bug.
    pub fn decrement_load(&mut self, demand: u64) {
        assert!(
            self.usage >= demand,
            "releasing {demand} with only {} in use",
            self.usage
        );
        self.usage -= demand;
    }

    /// Account a period force-admitted by waitlist aging, or degraded
    /// at the waitlist gate, in the overflow bucket. Returns `false`,
    /// with nothing accounted, when the bucket would wrap.
    #[must_use]
    pub fn increment_overflow(&mut self, demand: u64) -> bool {
        match self.overflow.checked_add(demand) {
            Some(sum) => {
                self.overflow = sum;
                true
            }
            None => false,
        }
    }

    /// Release a completed overflow-admitted period's demand.
    ///
    /// Panics if the release exceeds the tracked overflow usage — that
    /// would mean a double release, which is a scheduler bug (the typed
    /// error paths in [`crate::extension`] make it unreachable).
    pub fn decrement_overflow(&mut self, demand: u64) {
        assert!(
            self.overflow >= demand,
            "releasing {demand} overflow with only {} in the bucket",
            self.overflow
        );
        self.overflow -= demand;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon() -> ResourceMonitor {
        ResourceMonitor::new(1000)
    }

    #[test]
    fn starts_idle() {
        let m = mon();
        assert_eq!(m.usage(), 0);
        assert_eq!(m.overflow(), 0);
        assert_eq!(m.capacity(), 1000);
    }

    #[test]
    fn increments_and_decrements_are_exact() {
        let mut m = mon();
        m.increment_load(400);
        m.increment_load(300);
        assert_eq!(m.usage(), 700);
        m.decrement_load(400);
        assert_eq!(m.usage(), 300);
    }

    #[test]
    fn oversubscription_makes_remaining_negative() {
        let mut m = mon();
        m.increment_load(1500);
        // Capacity minus usage is -500: the row holds usage above
        // capacity, where only zero and oversized components fit.
        assert_eq!(m.usage() - m.capacity(), 500);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn double_release_is_a_bug() {
        let mut m = mon();
        m.increment_load(10);
        m.decrement_load(11);
    }

    #[test]
    fn overflow_bucket_is_invisible_to_the_predicate_view() {
        let mut m = mon();
        m.increment_load(300);
        assert!(m.increment_overflow(900));
        // Nominal accounting is untouched by degraded admissions…
        assert_eq!(m.usage(), 300);
        // …but the degraded bucket is visible for reporting.
        assert_eq!(m.overflow(), 900);
        m.decrement_overflow(900);
        assert_eq!(m.overflow(), 0);
        assert_eq!(m.usage(), 300);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_double_release_is_a_bug() {
        let mut m = mon();
        assert!(m.increment_overflow(10));
        m.decrement_overflow(11);
    }
}
