//! A self-contained stand-in for the `proptest` crate, implementing the
//! subset this workspace uses: the [`Strategy`] trait over integer/float
//! ranges, tuples, `prop_map`, `collection::vec`, `any::<T>()`, `Just`,
//! and the `proptest!` / `prop_assert!` macros.
//!
//! Differences from upstream: cases are drawn from a deterministic
//! per-test seed (derived from the test's name), there is **no
//! shrinking** — a failure reports the exact inputs that triggered it —
//! and the default case count is 64. A block may set its own count with
//! `ProptestConfig::with_cases`; the `PROPTEST_CASES` environment
//! variable, when set to a number, overrides both for every block.

#![forbid(unsafe_code)]

/// Deterministic generator used to drive strategies (SplitMix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from an arbitrary byte string (test name).
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }
}

/// `own` cases, unless `env` (the value of `PROPTEST_CASES`) is a number.
fn cases_with_override(env: Option<&str>, own: u32) -> u32 {
    env.and_then(|v| v.parse().ok()).unwrap_or(own)
}

/// `own` cases, unless the `PROPTEST_CASES` environment variable
/// overrides them.
fn cases_or(own: u32) -> u32 {
    cases_with_override(std::env::var("PROPTEST_CASES").ok().as_deref(), own)
}

/// Number of cases a block without its own count runs: 64, unless
/// `PROPTEST_CASES` overrides it.
pub fn default_cases() -> u32 {
    cases_or(64)
}

/// Per-block configuration (accepted via `#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: default_cases(),
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases, unless `PROPTEST_CASES` is set:
    /// the environment overrides every block's own count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: cases_or(cases),
        }
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn pick(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn pick(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.pick(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn pick(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn pick(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.unit_f64() * (self.end - self.start);
        if x >= self.end {
            self.start
        } else {
            x
        }
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn pick(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.pick(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
    (A, B, C, D, E, F, G);
    (A, B, C, D, E, F, G, H);
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

/// Strategy for any value of `T` (see [`any`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn pick(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of arbitrary values of `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Strategy for `Vec`s with lengths drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min_len: usize,
        max_len: usize, // exclusive
    }

    /// `vec(element, min..max)`: a vector of `min..max` elements.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy {
            element,
            min_len: len.start,
            max_len: len.end,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max_len - self.min_len) as u64;
            let len = self.min_len + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.pick(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a property test needs in scope.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

/// Assert a condition inside a `proptest!` body; on failure the harness
/// reports the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {}",
                ::core::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// `prop_assert!(a == b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::core::result::Result::Err(::std::format!(
                "{} ({:?} != {:?})",
                ::std::format!($($fmt)+),
                a,
                b
            ));
        }
    }};
}

/// `prop_assert!(a != b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: both sides are {:?}", a);
    }};
}

/// Declare property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over random cases.
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])+
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::for_test(concat!(
                ::core::module_path!(),
                "::",
                ::core::stringify!($name)
            ));
            let __strats = ($($strat,)+);
            for __case in 0..__config.cases {
                let ($($arg,)+) = $crate::Strategy::pick(&__strats, &mut __rng);
                let __inputs = ::std::format!(
                    ::core::concat!($(::core::stringify!($arg), " = {:?} ",)+),
                    $(&$arg),+
                );
                let __result: ::core::result::Result<(), ::std::string::String> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(__msg) = __result {
                    ::core::panic!(
                        "property failed at case {}/{}: {}\n  inputs: {}",
                        __case + 1,
                        __config.cases,
                        __msg,
                        __inputs
                    );
                }
            }
        }
    )*};
    // With a config header.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    // Without: use the default config.
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_seed() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        let s = (0u64..100, 0.0f64..1.0);
        for _ in 0..50 {
            assert_eq!(s.pick(&mut a).0, s.pick(&mut b).0);
        }
    }

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in -5i64..=5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec((0u8..4, any::<bool>()), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            for (x, _) in &v {
                prop_assert!(*x < 4);
            }
        }

        #[test]
        fn prop_map_applies(n in (1u32..5).prop_map(|v| v * 10)) {
            prop_assert!((10..50).contains(&n));
            prop_assert_eq!(n % 10, 0);
            prop_assert_ne!(n, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn config_header_accepted(x in 0u8..2) {
            prop_assert!(x < 2);
        }
    }

    #[test]
    fn env_count_overrides_every_block() {
        assert_eq!(crate::cases_with_override(None, 256), 256);
        assert_eq!(crate::cases_with_override(Some("2000"), 256), 2000);
        assert_eq!(crate::cases_with_override(Some("2000"), 64), 2000);
        assert_eq!(crate::cases_with_override(Some("many"), 256), 256);
    }

    #[test]
    #[should_panic(expected = "property failed")]
    #[allow(unnameable_test_items)] // the nested proptest! emits an inner #[test]
    fn failures_report_inputs() {
        proptest! {
            #[test]
            fn inner(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        inner();
    }
}
