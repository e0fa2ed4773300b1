//! Property-based tests for the simulation core.

use proptest::prelude::*;
use rda_simcore::{EventQueue, SimDuration, SimTime, Xoshiro256};

proptest! {
    /// Events always pop in non-decreasing time order, and equal-time
    /// events pop in insertion order.
    #[test]
    fn event_queue_is_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_cycles(t), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time.cycles(), ev.payload));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Time arithmetic: (t + d) - d == t and since() inverts addition.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_cycles(t);
        let dur = SimDuration::from_cycles(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur).since(time), dur);
    }

    /// RNG determinism: identical seeds yield identical streams.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>()) {
        let mut a = Xoshiro256::new(seed);
        let mut b = Xoshiro256::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Bounded sampling never exceeds the bound.
    #[test]
    fn rng_bounded(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = Xoshiro256::new(seed);
        for _ in 0..100 {
            prop_assert!(r.next_below(bound) < bound);
        }
    }
}
