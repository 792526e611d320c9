//! In-tree stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the proptest API subset its test suites use: the [`proptest!`] macro
//! with `arg in strategy` bindings and an optional
//! `#![proptest_config(...)]` header, `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!`, range / tuple / [`collection::vec`] / [`any`]
//! strategies, and [`ProptestConfig`].
//!
//! Differences from upstream: cases are generated from a deterministic
//! per-test seed (no `PROPTEST_*` env handling) and failing inputs are
//! reported but **not shrunk** — rerun with the printed case number to
//! reproduce; generation is deterministic so every run explores the same
//! inputs.

use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Re-exports matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Test-runner configuration (subset: `cases`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to generate per test.
    pub cases: u32,
    /// Reserved so `..ProptestConfig::default()` struct update works after
    /// future field additions, as with upstream's non-exhaustive config.
    #[doc(hidden)]
    pub _shim: (),
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, _shim: () }
    }
}

/// Why a generated case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// A `prop_assert*!` failed.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Build a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Build a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// The deterministic generator driving a test case.
#[derive(Clone, Debug)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// Seeded from a test-name hash and the case index, so every `cargo
    /// test` run explores the identical sequence of inputs.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(SmallRng::seed_from_u64(h ^ (u64::from(case) << 32 | u64::from(case))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A value generator: the heart of property testing.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
    )*};
}

impl_strategy_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_float_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty float range");
                // 53 uniform mantissa bits scaled into [start, end).
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let span = f64::from(self.end) - f64::from(self.start);
                (f64::from(self.start) + unit * span) as $t
            }
        }
    )*};
}

impl_strategy_float_ranges!(f32, f64);

macro_rules! impl_strategy_tuples {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_strategy_tuples! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Always yields a clone of the given value (upstream `Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (upstream `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The whole-domain strategy for `T` (upstream `any::<T>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (subset: `vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// A number-of-elements range for collection strategies.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// `Vec<T>` strategy with sizes drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.0.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                left,
                right,
                file!(),
                line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` (both {:?}) ({}:{})",
                stringify!($left),
                stringify!($right),
                left,
                file!(),
                line!()
            )));
        }
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

/// Define property tests. Each function runs `config.cases` deterministic
/// cases; arguments are drawn from the strategies after `in`.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, ",)+ ""),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {case} of {} failed: {msg}\n  inputs: {}",
                            stringify!($name),
                            inputs
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_vecs_generate_in_bounds(
            x in 3usize..17,
            pair in (0u64..4, any::<bool>()),
            v in crate::collection::vec(1i32..=5, 0..8),
        ) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(pair.0 < 4);
            prop_assert!(v.len() < 8);
            for item in &v {
                prop_assert!((1..=5).contains(item), "item {} out of range", item);
            }
        }

        #[test]
        fn assume_skips_cases(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..8).map(|case| TestRng::for_case("t", case).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|case| TestRng::for_case("t", case).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], TestRng::for_case("u", 0).next_u64());
    }
}
