//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of proptest 1.x this workspace uses:
//!
//! * the [`proptest!`] macro (optional `#![proptest_config(...)]` inner
//!   attribute, `arg in strategy` parameters),
//! * [`Strategy`] with an associated `Value` type and `prop_map`,
//! * strategies: integer ranges (`Range`/`RangeInclusive`), tuples,
//!   [`any`], [`collection::vec`], [`collection::hash_set`],
//!   [`option::of`],
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`,
//! * [`ProptestConfig::with_cases`].
//!
//! There is **no shrinking**: a failing case panics immediately with the
//! assertion message. Generation is deterministic per test function and
//! case index, so failures reproduce.

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; tree + simulator tests here are costly
        // per case, so the shim defaults lower. Explicit configs override.
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic generation RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Deterministic RNG for (test identity, case index).
    pub fn for_case(test_hash: u64, case: u64) -> Self {
        TestRng {
            state: test_hash ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator. The shim generates one value per call; there is no
/// shrinking tree.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                (self.start as u128).wrapping_add((rng.next_u64() as u128) % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128) - (lo as u128) + 1;
                (lo as u128 + (rng.next_u64() as u128) % span) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}
impl_signed_range_strategy!(i32, i64);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:ident $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// Types with a canonical "anything" strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
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
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The "any value of `T`" strategy.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// Collection size specification: an exact size or a size range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// exclusive
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        if self.lo + 1 >= self.hi {
            self.lo
        } else {
            rng.usize_in(self.lo, self.hi)
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::*;

    /// Strategy for `Vec<S::Value>` of a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `HashSet<S::Value>` of a size drawn from `size`.
    ///
    /// Duplicate draws are retried a bounded number of times; if the value
    /// space is too small the set may come out smaller than requested.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// See [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = self.size.pick(rng);
            let mut out = HashSet::with_capacity(n);
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 20 + 100 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Option strategies (subset of `proptest::option`).
pub mod option {
    use super::*;

    /// `Some(value)` half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Assert inside a proptest body (panics on failure — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// The main entry point: wraps test functions whose arguments are drawn
/// from strategies.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        cfg = ($cfg:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                // Stable per-function hash: file + line + name length.
                let __hash: u64 = {
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for b in concat!(file!(), "::", stringify!($name)).bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
                    }
                    h
                };
                for __case in 0..__cfg.cases as u64 {
                    let mut __rng = $crate::TestRng::for_case(__hash, __case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };

    /// The `prop` namespace (`prop::collection`, `prop::option`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism_per_case() {
        let s = prop::collection::vec(0u8..=255, 3..10);
        let mut a = crate::TestRng::for_case(1, 2);
        let mut b = crate::TestRng::for_case(1, 2);
        assert_eq!(
            crate::Strategy::generate(&s, &mut a),
            crate::Strategy::generate(&s, &mut b)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn generated_values_respect_strategies(
            v in prop::collection::vec((0usize..10, prop::option::of(5u64..9)), 1..20),
            flag in any::<bool>(),
            byte in 0u8..=0xFE,
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, b) in &v {
                prop_assert!(*a < 10);
                if let Some(b) = b {
                    prop_assert!((5..9).contains(b));
                }
            }
            prop_assert!(byte <= 0xFE);
            let _ = flag;
        }
    }

    proptest! {
        #[test]
        fn hash_sets_are_unique_and_sized(
            s in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 6), 5..50)
        ) {
            prop_assert!(s.len() >= 5 && s.len() < 50);
            for v in &s {
                prop_assert_eq!(v.len(), 6);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_map_applies(
            doubled in (1u32..100).prop_map(|x| x * 2)
        ) {
            prop_assert!(doubled % 2 == 0);
            prop_assert_ne!(doubled, 0);
        }
    }
}
