//! `Json::parse` reads manifests and live records from disk and the
//! network: on any input it returns a document or an error, never
//! panics, and nesting past `MAX_DEPTH` is an error, not a stack
//! overflow.

use gscalar_metrics::json::{Json, MAX_DEPTH};
use proptest::prelude::*;

/// Characters that reach every branch of the parser: structure,
/// literals, numbers, strings and escapes (`\u` included).
const ALPHABET: &[u8] = b"{}[]:,\"\\ \n-+.0123456789eEtrufalsnu/bx";

/// One level of nesting per pick: an array or an object value.
const OPENERS: [(&str, &str); 2] = [("[", "]"), ("{\"k\":", "}")];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_shaped_text_never_panics(
        picks in proptest::collection::vec(0..ALPHABET.len(), 0..256),
    ) {
        let text: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        let _ = Json::parse(&text);
    }

    #[test]
    fn deep_nesting_is_capped(
        kinds in proptest::collection::vec(0usize..2, 1..2 * MAX_DEPTH),
        balanced in any::<bool>(),
    ) {
        let mut text: String = kinds.iter().map(|&k| OPENERS[k].0).collect();
        text.push('1');
        if balanced {
            text.extend(kinds.iter().rev().map(|&k| OPENERS[k].1));
        }
        let parsed = Json::parse(&text);
        prop_assert_eq!(parsed.is_ok(), balanced && kinds.len() <= MAX_DEPTH);
    }
}

#[test]
fn far_past_the_cap_is_an_error() {
    let deep = format!("{}{}", "[".repeat(1 << 16), "]".repeat(1 << 16));
    assert!(Json::parse(&deep).is_err());
}
