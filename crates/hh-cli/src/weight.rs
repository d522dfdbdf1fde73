//! `--weighted` weights as fixed-point counts: a weight is read as a whole
//! number of thousandths, so the engine adds weights exactly in `u64`
//! through `update_by` and the largest total is `u64::MAX` thousandths,
//! about 1.8·10^16. Only this module and the renderers know the scale.

/// Decimals a weight keeps: one unit is a weight of 0.001.
const DECIMALS: usize = 3;

/// Units in a weight of 1.
const SCALE: u64 = 1000;

/// Why a weight was refused, completing "weight \"…\" ".
const NOT_A_NUMBER: &str = "is not a decimal number";
const NEGATIVE: &str = "is negative";
const TOO_PRECISE: &str = "has more than 3 decimals";
const TOO_LARGE: &str = "is above the largest total weight, 18446744073709551.615";

/// Parses a decimal weight into thousandths, exactly. The syntax is that
/// of a finite `f64` literal: an optional sign, digits with an optional
/// point (`.5` and `5.` included) and an optional exponent (`1E3`,
/// `25e-3`). Zero with any sign is 0; any other value must be a
/// non-negative multiple of 0.001 whose thousandths fit in `u64`.
///
/// # Errors
///
/// A phrase saying why the weight was refused: not a number, negative,
/// finer than 0.001, or too large. Nothing is rounded.
pub fn parse(text: &str) -> Result<u64, &'static str> {
    let (negative, unsigned) = match text.as_bytes().first() {
        Some(b'-') => (true, &text[1..]),
        Some(b'+') => (false, &text[1..]),
        _ => (false, text),
    };
    let (mantissa, exponent) = match unsigned.split_once(['e', 'E']) {
        Some((mantissa, exponent)) => (mantissa, parse_exponent(exponent)?),
        None => (unsigned, 0),
    };
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let digits = || int.bytes().chain(frac.bytes());
    if int.len() + frac.len() == 0 || !digits().all(|b| b.is_ascii_digit()) {
        return Err(NOT_A_NUMBER);
    }
    // value = significant × 10^shift units, `significant` without its
    // leading and trailing zeros
    let lead = digits().take_while(|&b| b == b'0').count();
    let significant: Vec<u8> = digits().skip(lead).collect();
    let Some(last) = significant.iter().rposition(|&b| b != b'0') else {
        return Ok(0);
    };
    if negative {
        return Err(NEGATIVE);
    }
    let trailing = (significant.len() - last - 1) as i64;
    let shift = exponent + trailing + DECIMALS as i64 - frac.len() as i64;
    if shift < 0 {
        return Err(TOO_PRECISE);
    }
    let mut units = 0u64;
    for &digit in &significant[..=last] {
        units = (units.checked_mul(10))
            .and_then(|u| u.checked_add(u64::from(digit - b'0')))
            .ok_or(TOO_LARGE)?;
    }
    for _ in 0..shift {
        units = units.checked_mul(10).ok_or(TOO_LARGE)?;
    }
    Ok(units)
}

/// An exponent's value, saturated far beyond any weight that fits, so an
/// absurd exponent is refused by size, not by overflow.
fn parse_exponent(text: &str) -> Result<i64, &'static str> {
    let (sign, digits) = match text.as_bytes().first() {
        Some(b'-') => (-1, &text[1..]),
        Some(b'+') => (1, &text[1..]),
        _ => (1, text),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(NOT_A_NUMBER);
    }
    let magnitude = digits
        .bytes()
        .fold(0i64, |n, b| (n * 10 + i64::from(b - b'0')).min(1 << 40));
    Ok(sign * magnitude)
}

/// `units` thousandths with exactly three decimals (`0.300`), for text.
pub fn text(units: u64) -> String {
    format!("{}.{:03}", units / SCALE, units % SCALE)
}

/// `units` thousandths as the shortest exact decimal (`0.3`, `10`), for
/// JSON: what `f64`'s `Display` prints for the same weight whenever the
/// weight is a representable `f64`.
pub fn json(units: u64) -> String {
    let (whole, frac) = (units / SCALE, units % SCALE);
    if frac == 0 {
        return whole.to_string();
    }
    let frac = format!("{frac:03}");
    format!("{whole}.{}", frac.trim_end_matches('0'))
}

/// `units` thousandths as an `f64` weight (heavy-hitter thresholds).
pub fn value(units: u64) -> f64 {
    units as f64 / SCALE as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_f64_literal_form_parses_exactly() {
        for (text, units) in [
            ("0", 0),
            ("-0", 0),
            ("-0.000", 0),
            ("0e999999999999999999", 0),
            ("1", 1000),
            ("+2", 2000),
            (".5", 500),
            ("5.", 5000),
            ("+.5", 500),
            ("1E3", 1_000_000),
            ("25e-3", 25),
            ("0.001", 1),
            ("0.1000", 100),
            ("1.5e1", 15_000),
            ("000123.4560", 123_456),
            ("1e16", 10_000_000_000_000_000_000),
            ("18446744073709551.615", u64::MAX),
        ] {
            assert_eq!(parse(text), Ok(units), "{text}");
        }
    }

    #[test]
    fn anything_else_is_refused() {
        for (text, why) in [
            ("", NOT_A_NUMBER),
            (".", NOT_A_NUMBER),
            ("e3", NOT_A_NUMBER),
            ("1e", NOT_A_NUMBER),
            ("1e+", NOT_A_NUMBER),
            ("1.2.3", NOT_A_NUMBER),
            ("0x10", NOT_A_NUMBER),
            ("inf", NOT_A_NUMBER),
            ("NaN", NOT_A_NUMBER),
            ("1_000", NOT_A_NUMBER),
            ("-1", NEGATIVE),
            ("-0.001", NEGATIVE),
            ("0.0001", TOO_PRECISE),
            ("1e-4", TOO_PRECISE),
            ("1e-400", TOO_PRECISE),
            ("1e308", TOO_LARGE),
            ("18446744073709551.616", TOO_LARGE),
            ("1e99999999999999999999", TOO_LARGE),
        ] {
            assert_eq!(parse(text), Err(why), "{text:?}");
        }
    }

    #[test]
    fn renders_three_decimals_in_text_and_the_shortest_exact_json() {
        assert_eq!(text(300), "0.300");
        assert_eq!(text(u64::MAX), "18446744073709551.615");
        assert_eq!(
            (json(300), json(10_000), json(0), json(125)),
            (
                "0.3".to_string(),
                "10".to_string(),
                "0".to_string(),
                "0.125".to_string()
            )
        );
        assert_eq!(json(u64::MAX), "18446744073709551.615");
    }

    proptest! {
        /// parse ∘ format = identity on any count of thousandths, in
        /// both renderings (shifted, so every magnitude comes up).
        #[test]
        fn parse_inverts_both_renderings(bits in 0u64..=u64::MAX, shift in 0u32..64) {
            let units = bits >> shift;
            prop_assert_eq!(parse(&text(units)), Ok(units));
            prop_assert_eq!(parse(&json(units)), Ok(units));
        }

        /// Where an `f64` holds the weight exactly, the JSON rendering is
        /// the `f64`'s `Display`.
        #[test]
        fn json_matches_f64_display_on_half_units(halves in 0u64..1 << 40) {
            let units = halves * 500;
            prop_assert_eq!(json(units), format!("{}", halves as f64 / 2.0));
        }
    }
}
