//! Offline stand-in for `proptest` covering exactly the API surface this
//! workspace uses. Unlike the real crate there is no shrinking and no
//! failure persistence, but properties really execute: each `proptest!`
//! test derives a deterministic RNG from its own module path + name and
//! runs the body on `cases` generated inputs (default 16, overridable via
//! the `PROPTEST_CASES` environment variable, as with real proptest).

use core::marker::PhantomData;
use core::ops::{Range, RangeInclusive};
use rand::{Rng as _, RngCore};

pub trait Strategy {
    type Value;

    /// Draw one value. The stub equivalent of a proptest `ValueTree`
    /// without the shrinking lattice.
    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map(self, f)
    }
}

pub struct Map<S, F>(S, F);

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> O {
        (self.1)(self.0.generate(rng))
    }
}

pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate<R: RngCore + ?Sized>(&self, _rng: &mut R) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                self.start + rng.random::<$t>() * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                lo + rng.random::<$t>() * (hi - lo)
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($name:ident, $idx:tt)),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!((A, 0));
tuple_strategy!((A, 0), (B, 1));
tuple_strategy!((A, 0), (B, 1), (C, 2));
tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3));
tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4));
tuple_strategy!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5));

/// Types [`any`] can draw: `bool` and the integer types, each uniform
/// over its whole domain (real proptest also biases toward edge values;
/// the stub does not).
pub trait Arbitrary: Sized {
    fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy [`any`] returns.
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Length specification accepted by [`collection::vec`].
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn sample_len<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        rng.random_range(self.lo..=self.hi_inclusive)
    }
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        SizeRange {
            lo: len,
            hi_inclusive: len,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

pub mod collection {
    use super::{RngCore, SizeRange, Strategy};

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        ProptestConfig { cases }
    }
}

/// Deterministic per-test RNG: same test name ⇒ same input stream,
/// independent of how many other tests run or in what order.
#[doc(hidden)]
pub fn __rng_for(test_name: &str) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    rand::rngs::StdRng::seed_from_u64(h)
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            (<$crate::ProptestConfig as ::core::default::Default>::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (($cfg:expr) $($(#[$attr:meta])* fn $name:ident($($p:pat in $s:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::__rng_for(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| {
                            $(let $p = $crate::Strategy::generate(&$s, &mut __rng);)*
                            $body
                        }),
                    );
                    if let ::std::result::Result::Err(__payload) = __outcome {
                        eprintln!(
                            "proptest (offline stub): {} failed on case {}/{}; \
                             inputs derive from the test name, so a rerun reproduces this",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                        );
                        ::std::panic::resume_unwind(__payload);
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return;
        }
    };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };

    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_draws_both_bools_and_spans_the_integer_domain() {
        let mut rng = __rng_for("any");
        let bools: Vec<bool> = (0..64).map(|_| any::<bool>().generate(&mut rng)).collect();
        assert!(bools.contains(&true) && bools.contains(&false));
        let wide = (0..64)
            .map(|_| any::<u64>().generate(&mut rng))
            .max()
            .unwrap();
        assert!(wide > u64::from(u32::MAX), "u64 draws use the high bits");
        let signed: Vec<i8> = (0..256).map(|_| any::<i8>().generate(&mut rng)).collect();
        assert!(signed.iter().any(|&x| x < 0) && signed.iter().any(|&x| x > 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// `any` strategies draw (rather than panic) inside `proptest!`.
        #[test]
        fn any_strategies_draw_inside_the_macro(flag in any::<bool>(), x in any::<u16>()) {
            prop_assert!(usize::from(flag) + usize::from(x) <= usize::from(u16::MAX) + 1);
        }
    }
}
