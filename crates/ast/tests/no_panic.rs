//! Robustness: `parse_vql_str` must never panic or overflow the stack,
//! whatever it is fed — decoded model output is arbitrary token soup.
//!
//! Nesting (parenthesized predicates plus subqueries) is capped at 64
//! levels; the cap is checked at its edge and far past the depth where
//! unbounded recursion would abort the process. Two generators attack from
//! different angles: raw character soup (tokenizer edge cases: unterminated
//! quotes, non-ASCII) and VQL token soup (parser edge cases: truncations,
//! misplaced keywords, unbalanced parens).

use nv_ast::tokens::parse_vql_str;
use proptest::prelude::*;

/// `levels` nested `( … and … )` predicates under one root query.
fn nested_parens(levels: usize) -> String {
    format!(
        "select t.a from t where {}t.a = 1{}",
        "( ".repeat(levels),
        " and t.a = 1 )".repeat(levels)
    )
}

/// `levels` nested `in ( select … )` subqueries under one root query.
fn nested_subqueries(levels: usize) -> String {
    format!(
        "{}select t.a from t{}",
        "select t.a from t where t.a in ( ".repeat(levels),
        " )".repeat(levels)
    )
}

#[test]
fn nesting_is_capped_at_64_levels() {
    // The root query is one level, so 63 nested levels fit.
    for nested in [nested_parens, nested_subqueries] {
        let ok = nested(63);
        assert_eq!(parse_vql_str(&ok).unwrap().to_vql(), ok);
        let e = parse_vql_str(&nested(64)).unwrap_err();
        assert!(e.message.contains("nesting deeper than 64"), "{e}");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for nested in [nested_parens, nested_subqueries] {
        let e = parse_vql_str(&nested(100_000)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
    }
}

proptest! {
    #[test]
    fn arbitrary_chars_never_panic(chars in prop::collection::vec(any::<char>(), 0..200)) {
        let s: String = chars.into_iter().collect();
        let _ = parse_vql_str(&s);
    }

    #[test]
    fn vql_token_soup_never_panics(
        toks in prop::collection::vec(
            prop::sample::select(vec![
                "visualize", "bar", "pie", "line", "scatter", "stacked_bar",
                "select", "from", "where", "join", "on", "group", "by", "bin",
                "order", "asc", "desc", "top", "bottom", "and", "or", "not",
                "in", "like", "between", "intersect", "union", "except",
                "distinct", "count", "avg", "year", "t", "t.a", "t.b", "t.*",
                "(", ")", ",", "=", ">", "<", ">=", "!=", "'txt", "'txt'",
                "42", "3.5", "null", "true", ".",
            ]),
            0..40,
        ),
    ) {
        let s = toks.join(" ");
        let _ = parse_vql_str(&s);
    }
}
