//! Value-generation strategies (no shrinking).

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// Generates random values of an associated type.
///
/// The real proptest `Strategy` produces shrinkable value *trees*; this
/// stand-in generates plain values. All combinators used by the workspace
/// are provided.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then draws from the strategy `f` builds from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Randomly permutes generated collections.
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self: Sized,
        Self::Value: Shuffleable,
    {
        Shuffle { inner: self }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Collections that [`Strategy::prop_shuffle`] can permute.
pub trait Shuffleable {
    /// Permutes the collection in place.
    fn shuffle(&mut self, rng: &mut TestRng);
}

impl<T> Shuffleable for Vec<T> {
    fn shuffle(&mut self, rng: &mut TestRng) {
        rng.shuffle(self);
    }
}

/// See [`Strategy::prop_shuffle`].
pub struct Shuffle<S> {
    inner: S,
}

impl<S> Strategy for Shuffle<S>
where
    S: Strategy,
    S::Value: Shuffleable,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let mut v = self.inner.generate(rng);
        v.shuffle(rng);
        v
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The `any::<T>()` strategy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// An unconstrained value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        })*
    };
}

arbitrary_uint!(u8, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! range_strategy_int {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*
    };
}

range_strategy_int!(u8, u32, usize);

// u64 needs its own impl: `end - start` can be the full span.
impl Strategy for Range<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below(self.end - self.start)
    }
}

impl Strategy for RangeInclusive<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.below(span + 1)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {
        $(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*
    };
}

tuple_strategy! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
}
