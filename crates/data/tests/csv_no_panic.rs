//! Robustness: the CSV loader must never panic, whatever text it is fed.
//!
//! Two generators: raw character soup, and token soup over the characters
//! that steer the record splitter and the field typer (quotes, delimiters,
//! line breaks, multi-byte text, number- and date-like tokens). Whatever
//! loads must be rectangular.

use nv_data::{table_from_csv, Table};
use proptest::prelude::*;

const DELIMS: [char; 4] = [',', ';', '\t', '|'];

fn check_shape(t: &Table) -> Result<(), TestCaseError> {
    for row in &t.rows {
        prop_assert_eq!(row.len(), t.n_cols());
    }
    Ok(())
}

fn load_all_ways(s: &str) -> Result<(), TestCaseError> {
    for delim in DELIMS {
        if let Ok(t) = table_from_csv("t", s, delim) {
            check_shape(&t)?;
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_chars_never_panic(chars in prop::collection::vec(any::<char>(), 0..200)) {
        let s: String = chars.into_iter().collect();
        load_all_ways(&s)?;
    }

    #[test]
    fn csvish_token_soup_never_panics(
        toks in prop::collection::vec(
            prop::sample::select(vec![
                "\"", "\"\"", ",", ";", "\t", "|", "\n", "\r\n", "\r", " ", "a", "name",
                "é", "日本", "🙂", "\u{0}", "0", "-7", "3.5", "1e9", "NaN", "inf", "null",
                "NA", "true", "2020-01-05", "2020-13-45", "12:30", "2021-06-30 08:15:00",
                "1999", "Q3", "Jan",
            ]),
            0..60,
        ),
    ) {
        load_all_ways(&toks.concat())?;
    }
}
