//! The ordering kernel behind every "descending weight, ties by
//! position" order in the crate: MnemoT's `accesses / size` key order,
//! the cache-correction density order, the instrumented profilers'
//! orders and the shared-budget candidate fill.
//!
//! A comparator sort recomputes both weights (two float divisions) on
//! every comparison. The kernel computes each weight once, maps it to a
//! `u64` whose unsigned order is [`f64::total_cmp`]'s, packs the
//! inverted key above the position in a `u128`, and sorts those
//! integers. Positions are unique, so no two packed values are equal
//! and the unstable sort returns exactly the order the stable
//! comparator sort `wb.total_cmp(&wa).then(a.cmp(&b))` returned.

/// Map `x` to a `u64` whose unsigned order is `f64::total_cmp`'s.
///
/// Positive floats (sign bit clear) already order by their bit
/// patterns; setting the sign bit lifts them above every negative.
/// Negative floats order backwards by their bit patterns; flipping
/// every bit reverses that and clears the sign bit. NaNs land at the
/// ends exactly where `total_cmp` puts them.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Positions of `weights` in descending-weight order (by
/// `f64::total_cmp`), ties ascending by position.
pub(crate) fn descending<I>(weights: I) -> Vec<u64>
where
    I: IntoIterator<Item = f64>,
{
    let mut packed: Vec<u128> = weights
        .into_iter()
        .enumerate()
        .map(|(pos, w)| (u128::from(!total_order_key(w)) << 64) | pos as u128)
        .collect();
    packed.sort_unstable();
    // The low 64 bits are the position.
    packed.into_iter().map(|p| p as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparator sort the kernel replaces, kept as the reference.
    fn reference(weights: &[f64]) -> Vec<u64> {
        let mut order: Vec<u64> = (0..weights.len() as u64).collect();
        order.sort_by(|&a, &b| {
            let wa = weights[a as usize];
            let wb = weights[b as usize];
            wb.total_cmp(&wa).then(a.cmp(&b))
        });
        order
    }

    /// Weights drawn from a small pool of awkward values (so ties are
    /// common) or from wide magnitude and bit-pattern ranges.
    fn arb_weight() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop_oneof![
                Just(0.0f64),
                Just(-0.0f64),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MIN_POSITIVE),
                Just(-f64::MIN_POSITIVE),
                Just(f64::from_bits(1)),
                Just(-f64::from_bits(1)),
                Just(f64::MAX),
                Just(f64::MIN),
                Just(1.0f64),
                Just(0.5f64),
            ],
            (0u64..8, 1u64..4).prop_map(|(a, s)| a as f64 / s as f64),
            (0u64..1 << 52).prop_map(f64::from_bits),
            -1e300f64..1e300f64,
            (0u64..u64::MAX).prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn descending_equals_the_comparator_sort(
            weights in proptest::collection::vec(arb_weight(), 0..300),
        ) {
            prop_assert_eq!(descending(weights.iter().copied()), reference(&weights));
        }

        #[test]
        fn key_order_is_total_cmp(a in arb_weight(), b in arb_weight()) {
            prop_assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
        }
    }

    #[test]
    fn signed_zeros_subnormals_and_infinities_order_like_total_cmp() {
        let weights = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e308,
            0.0,
            f64::from_bits(1),
        ];
        assert_eq!(descending(weights), vec![4, 6, 2, 9, 0, 8, 1, 3, 7, 5]);
        assert_eq!(descending(weights), reference(&weights));
    }

    #[test]
    fn empty_input_gives_an_empty_order() {
        assert!(descending(std::iter::empty()).is_empty());
    }
}
