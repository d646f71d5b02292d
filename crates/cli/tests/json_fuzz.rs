//! Fuzz coverage for the hardened JSON codec: arbitrary input never
//! panics (it parses or returns a truthful error), structured documents
//! round-trip exactly, and nesting bombs are rejected instead of
//! overflowing the stack.

use proptest::prelude::*;
use tempart_cli::json::{self, Value};
use tempart_lp::JsonObject;

/// Tokens biased toward *almost*-JSON: the parser's worst inputs are the
/// ones that get deep into a production before failing.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "true", "false", "null", "tru", "nul", "-", ".", "0",
    "1", "9", "e", "E", "+", "1e999", "\\u", "\\uD800", "\"a\"", " ", "\n", "\u{1}", "😀", "-.",
    "0.", "{\"", "\":", "[[", "]]",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn garbage_bytes_never_panic(raw in prop::collection::vec(0u16..=255, 0..256)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        // Must return Ok or Err — any panic fails the test by aborting it.
        let _ = json::parse(&text);
    }

    #[test]
    fn near_json_token_soup_never_panics(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..64),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = json::parse(&text);
    }

    #[test]
    fn nesting_bombs_error_instead_of_overflowing(
        depth in 1usize..4096,
        opener in 0usize..3,
    ) {
        let unit = ["[", "{\"k\":[", "[{\"x\":"][opener];
        let text = unit.repeat(depth);
        let result = json::parse(&text);
        // Never panics; beyond the cap it must be the truthful depth error.
        if depth * unit.matches(['[', '{']).count() > json::MAX_DEPTH {
            let err = result.unwrap_err();
            prop_assert!(
                err.contains("nesting too deep") || err.contains("expected"),
                "unexpected error: {err}"
            );
        } else {
            prop_assert!(result.is_err(), "unclosed containers cannot parse");
        }
    }

    #[test]
    fn documents_round_trip_through_the_writer(
        nums in prop::collection::vec(-1_000_000_000i64..1_000_000_000, 0..12),
        denom in 1i64..1000,
        flags in prop::collection::vec(any::<bool>(), 0..8),
        key_picks in prop::collection::vec(0usize..TOKENS.len(), 1..6),
    ) {
        // Assemble a document from exactly-representable numbers (i64 /
        // small denominator stays exact in f64), adversarial string keys,
        // bools, and nulls.
        let keys: Vec<String> = key_picks
            .iter()
            .enumerate()
            .map(|(i, &p)| format!("{i}-{}", TOKENS[p]))
            .collect();
        let nums: Vec<f64> = nums.iter().map(|&n| n as f64 / denom as f64).collect();
        let mut o = JsonObject::new();
        o.nums("nums", &nums);
        let arr = Value::Arr(nums.into_iter().map(Value::Num).collect());
        let mut fields: Vec<(String, Value)> = vec![("nums".to_string(), arr)];
        for (i, k) in keys.iter().enumerate() {
            // Write each field as it is chosen (`null` from a NaN).
            let v = match flags.get(i % flags.len().max(1)) {
                Some(true) => {
                    o.bool(k, true);
                    Value::Bool(true)
                }
                Some(false) => {
                    o.str(k, k);
                    Value::Str(k.clone())
                }
                None => {
                    o.num(k, f64::NAN);
                    Value::Null
                }
            };
            fields.push((k.clone(), v));
        }
        let doc = Value::Obj(fields);
        let text = o.finish();
        let back = json::parse(&text);
        prop_assert_eq!(back.ok().as_ref(), Some(&doc), "{}", text);
    }
}
