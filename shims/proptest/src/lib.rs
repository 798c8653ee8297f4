//! Offline stand-in for the `proptest` crate.
//!
//! The workspace's property tests are written against the real `proptest`
//! API, but the build must work with no network access, so this shim
//! implements the subset those tests use:
//!
//! * the [`Strategy`] trait with [`Strategy::prop_map`] and
//!   [`Strategy::boxed`], implemented for numeric ranges, tuples, and
//!   [`Just`];
//! * [`any`] for primitives, [`collection::vec`], and the
//!   [`prop_oneof!`] weighted-union macro;
//! * the [`proptest!`] test-runner macro with `#![proptest_config(..)]`
//!   support, plus [`prop_assert!`], [`prop_assert_eq!`] and
//!   [`prop_assume!`].
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failure reports the generated input as-is;
//! * the run is **deterministic**: the seed is derived from the test name
//!   (override with the `PROPTEST_SEED` environment variable to explore
//!   other inputs);
//! * `PROPTEST_CASES`, when set, replaces the case count of **every**
//!   property, also one fixed through `#![proptest_config(..)]` (the real
//!   crate applies it to the default configuration only) — CI uses it to
//!   run a cheap model test longer than a developer's `cargo test` does.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRunner,
    };
}

/// The random source handed to strategies.
pub type TestRng = StdRng;

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { base: self, f }
    }

    /// Discard generated values for which `f` is false (the test case is
    /// rejected and regenerated).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            base: self,
            whence,
            f,
        }
    }

    /// Erase the strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(self),
        }
    }
}

// Strategies are usable through references (the runner macro keeps the
// strategy tuple by value, but helpers may pass references around).
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

/// Map combinator returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn new_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.new_value(rng))
    }
}

/// Filter combinator returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    base: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.base.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 values in a row: {}", self.whence);
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: Box<dyn Strategy<Value = T>>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        self.inner.new_value(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uniform {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.random::<$t>()
            }
        }
    )*};
}

arbitrary_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T` (for primitives: uniform).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: PhantomData,
    }
}

macro_rules! strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

strategy_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! strategy_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}

strategy_for_tuple!(A: 0);
strategy_for_tuple!(A: 0, B: 1);
strategy_for_tuple!(A: 0, B: 1, C: 2);
strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);
strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::RngExt;
    use std::ops::Range;

    /// Strategy for `Vec`s whose length is drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generate a `Vec` of values of `element`, with `size` elements.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.random_range(self.size.clone());
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// A weighted union of strategies, built by [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Build a union; weights must not all be zero.
    #[must_use]
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = options.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs at least one nonzero weight");
        Self { options, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.random_range(0..self.total);
        for (weight, strat) in &self.options {
            if pick < *weight {
                return strat.new_value(rng);
            }
            pick -= weight;
        }
        unreachable!("weights sum to total")
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property failed; the runner panics with this message.
    Fail(String),
    /// The inputs were unsuitable (`prop_assume!`); the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failed property.
    pub fn fail(reason: impl fmt::Display) -> Self {
        Self::Fail(reason.to_string())
    }

    /// A rejected (skipped) test case.
    pub fn reject(reason: impl fmt::Display) -> Self {
        Self::Reject(reason.to_string())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fail(r) => write!(f, "test case failed: {r}"),
            Self::Reject(r) => write!(f, "test case rejected: {r}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// The outcome a property body produces.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration, accepted via `#![proptest_config(..)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of test cases to run per property.
    pub cases: u32,
    /// Maximum rejected cases (via `prop_assume!`) before giving up.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

/// Drives one property: generates inputs and evaluates the body.
///
/// Used by the [`proptest!`] macro; rarely constructed by hand.
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
}

impl TestRunner {
    /// A runner for `test_name`, seeded deterministically from the name (or
    /// from `PROPTEST_SEED` if set), running `config.cases` cases (or
    /// `PROPTEST_CASES` if set).
    #[must_use]
    pub fn new(mut config: ProptestConfig, test_name: &str) -> Self {
        if let Some(cases) = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            config.cases = cases;
        }
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0xb0b5u64)
            ^ fnv1a(test_name.as_bytes());
        Self {
            config,
            rng: TestRng::seed_from_u64(seed),
        }
    }

    /// Run `body` against `config.cases` generated inputs; panics on the
    /// first failure, printing the offending input.
    pub fn run<S, F>(&mut self, strategy: &S, body: F)
    where
        S: Strategy,
        S::Value: fmt::Debug + Clone,
        F: Fn(S::Value) -> TestCaseResult,
    {
        let mut rejects = 0u32;
        let mut case = 0u32;
        while case < self.config.cases {
            let input = strategy.new_value(&mut self.rng);
            match body(input.clone()) {
                Ok(()) => case += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejects += 1;
                    assert!(
                        rejects <= self.config.max_global_rejects,
                        "too many rejected test cases ({rejects})"
                    );
                }
                Err(TestCaseError::Fail(reason)) => {
                    panic!(
                        "proptest case {case} failed: {reason}\n  input: {input:?}\n  \
                         (no shrinking in the offline proptest shim; \
                         set PROPTEST_SEED to vary inputs)"
                    );
                }
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

// `num` module kept API-compatible for code that names `proptest::num::...`.
/// Numeric strategies (ranges implement [`Strategy`] directly).
pub mod num {}

/// Fail the property unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fail the property unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Fail the property unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// Weighted choice between strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight as u32, $crate::Strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1u32, $crate::Strategy::boxed($strat))),+])
    };
}

/// Define `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the subset of real-proptest syntax used in this workspace:
/// an optional leading `#![proptest_config(expr)]`, then any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strategy = ($($strat,)+);
                let mut runner = $crate::TestRunner::new($config, stringify!($name));
                runner.run(&strategy, |($($arg,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::cell::Cell;

    #[test]
    fn union_respects_weights_roughly() {
        let strat = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut runner = TestRunner::new(ProptestConfig::with_cases(1_000), "weights");
        let trues = Cell::new(0u32);
        runner.run(&(&strat,), |(v,)| {
            if v {
                trues.set(trues.get() + 1);
            }
            Ok(())
        });
        assert!(
            (800..1000).contains(&trues.get()),
            "got {} trues",
            trues.get()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 0.0f32..1.0, n in 3usize..10, b in any::<bool>()) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((3..10).contains(&n));
            prop_assert!(usize::from(b) <= 1);
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0u8..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            for e in v {
                prop_assert!(e < 5);
            }
        }

        #[test]
        fn assume_rejects(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        #[should_panic(expected = "proptest case")]
        fn failure_panics_with_input(x in 0u32..10) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }
}
