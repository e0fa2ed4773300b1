//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses.
//!
//! The real proptest crate pulls a dozen transitive dependencies; this
//! build environment is fully offline, so the workspace vendors a small
//! deterministic reimplementation instead. Semantics:
//!
//! * Every `#[test]` inside [`proptest!`] runs `Config::cases` times
//!   with values drawn from a [`TestRng`](test_runner::TestRng) seeded
//!   by the *test name*, so failures reproduce exactly on every run and
//!   every machine.
//! * `prop_assert*` are plain `assert*` — a failing case panics with the
//!   case number in the test RNG state rather than shrinking. The
//!   deterministic seed makes shrinking unnecessary for debugging: rerun
//!   the single test and it fails identically.
//!
//! Supported surface: range strategies over primitive ints and `f64`,
//! tuples up to 6, `Just`, `any::<bool|integers|f64>()`,
//! `prop::collection::vec`, `Strategy::prop_map`/`boxed`, weighted
//! [`prop_oneof!`], and `#![proptest_config(...)]`.

pub mod test_runner {
    /// Per-test configuration (`cases` = iterations per property).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each property is checked against.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` iterations.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic generator behind every strategy: SplitMix64 seeded
    /// from the test's name, so each property has an independent,
    /// reproducible stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name (FNV-1a over the bytes).
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit value (SplitMix64 step).
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be positive.
        #[inline]
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform `f64` in `[0, 1)`.
        #[inline]
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A value generator. Unlike real proptest there is no shrinking
    /// tree; `generate` draws one value.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draw one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erase into a [`BoxedStrategy`].
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// `prop_map` adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! uint_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    uint_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// Weighted union of strategies, built by [`crate::prop_oneof!`].
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Union over `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total = arms.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! needs positive total weight");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights exhausted")
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite doubles spanning a broad magnitude range.
            let mag = rng.unit_f64() * 600.0 - 300.0;
            let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
            sign * mag.exp2() * rng.unit_f64()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// `prop::` namespace mirroring real proptest's module layout.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::ops::Range;

        /// `Vec` strategy with length drawn from `len`.
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        /// Generate vectors of `element` values with length in `len`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            assert!(len.start < len.end, "empty length range");
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.len.end - self.len.start) as u64;
                let n = self.len.start + rng.below(span) as usize;
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

pub mod prelude {
    //! Everything a property test needs, mirroring `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define deterministic property tests. Each `fn name(pat in strategy, ...)`
/// becomes a `#[test]` that draws `cases` inputs from a name-seeded RNG.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__cfg.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
    )*};
}

/// `prop_assert!` — panics (no shrinking), reproducible via the seed.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `prop_assert_eq!` — panics (no shrinking), reproducible via the seed.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `prop_assert_ne!` — panics (no shrinking), reproducible via the seed.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Weighted (`w => strat`) or uniform union of strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("ranges");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn same_name_same_stream() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_loops(xs in prop::collection::vec(0u64..100, 1..20), b in any::<bool>()) {
            prop_assert!(xs.len() < 20 && !xs.is_empty());
            prop_assert!(xs.iter().all(|&x| x < 100));
            let _ = b;
        }

        #[test]
        fn oneof_picks_every_arm(picks in prop::collection::vec(
            prop_oneof![2 => Just(1u8), 1 => Just(2u8), 1 => 3u8..5], 200..201)) {
            prop_assert!(picks.iter().all(|&p| (1..5).contains(&p)));
            for arm in 1u8..4 {
                prop_assert!(picks.contains(&arm), "arm {arm} never chosen");
            }
        }
    }
}
