//! Value masking and the heuristic V-slot filler (paper §4.2).
//!
//! seq2vis does not predict literal values. Target VQL sequences have every
//! literal replaced by `<value>`; after decoding, a heuristic extracts
//! candidate values from the NL question and fills the slots back in. The
//! paper reports ~92.3% filling accuracy; `exp_values` measures ours.

use nv_ast::tokens::parse_literal;
use nv_ast::Literal;

/// Replace literal tokens in a VQL token sequence with `<value>`; returns
/// the masked sequence and the extracted literals in order.
pub fn mask_values(tokens: &[String]) -> (Vec<String>, Vec<Literal>) {
    let mut masked = Vec::with_capacity(tokens.len());
    let mut values = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let maskable = match parse_literal(tok) {
            // null/true/false are grammar keywords, not V-slots.
            Some(Literal::Null) | Some(Literal::Bool(_)) | None => false,
            Some(lit) => {
                // A number immediately after top/bottom is the superlative k
                // — still a V in the grammar, mask it too. Everything else
                // that parses as a literal *is* an operand position in VQL.
                values.push(lit);
                let _ = i;
                true
            }
        };
        masked.push(if maskable { "<value>".to_string() } else { tok.clone() });
    }
    (masked, values)
}

/// A candidate value mined from the NL question.
#[derive(Debug, Clone, PartialEq)]
pub enum Candidate {
    Number(f64),
    Text(String),
}

/// Extract value candidates from the raw NL string, in order of appearance:
/// quoted spans become text candidates; number-shaped words become numeric
/// candidates (date-like strings stay text).
pub fn extract_candidates(nl: &str) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut chars = nl.chars().peekable();
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut Vec<Candidate>| {
        if word.is_empty() {
            return;
        }
        let w = std::mem::take(word);
        let trimmed = w.trim_matches(|c: char| !c.is_alphanumeric() && c != '-' && c != '.');
        if trimmed.is_empty() {
            return;
        }
        if looks_like_date(trimmed) {
            out.push(Candidate::Text(trimmed.to_string()));
        } else if let Ok(n) = trimmed.trim_end_matches('.').parse::<f64>() {
            out.push(Candidate::Number(n));
        }
    };
    while let Some(c) = chars.next() {
        if c == '\'' {
            flush(&mut word, &mut out);
            // Quoted span; a doubled quote is an escaped literal quote, so
            // `'O''Hare'` yields the candidate `O'Hare`.
            let mut quoted = String::new();
            while let Some(&n) = chars.peek() {
                chars.next();
                if n == '\'' {
                    if chars.peek() == Some(&'\'') {
                        chars.next();
                        quoted.push('\'');
                    } else {
                        break;
                    }
                } else {
                    quoted.push(n);
                }
            }
            if !quoted.is_empty() {
                out.push(Candidate::Text(quoted));
            }
        } else if c.is_whitespace() {
            flush(&mut word, &mut out);
        } else {
            word.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

fn looks_like_date(s: &str) -> bool {
    let parts: Vec<&str> = s.split('-').collect();
    parts.len() == 3 && parts.iter().all(|p| p.chars().all(|c| c.is_ascii_digit()))
}

/// Fill `<value>` slots in a decoded VQL token sequence from NL candidates.
///
/// Strategy: consume candidates in order, matching slot type when
/// inferable from the preceding context (a `like` slot wants text; `top`/
/// `bottom` want a small integer; comparison against a *quoted* candidate
/// prefers text). Unfilled slots fall back to `0` so the sequence still
/// parses — a wrong value is scored by result matching, not a crash.
pub fn fill_values(tokens: &[String], nl: &str) -> Vec<String> {
    let mut candidates = extract_candidates(nl);
    let mut out = Vec::with_capacity(tokens.len());
    for i in 0..tokens.len() {
        if tokens[i] != "<value>" {
            out.push(tokens[i].clone());
            continue;
        }
        let prev = if i > 0 { tokens[i - 1].as_str() } else { "" };
        // `like` and `not like` both put the value right after `like`.
        let want_text = prev == "like";
        let want_small_int = prev == "top" || prev == "bottom";
        let pick = if want_text {
            take_first(&mut candidates, |c| matches!(c, Candidate::Text(_)))
        } else if want_small_int {
            take_first(&mut candidates, |c| {
                matches!(c, Candidate::Number(n) if *n >= 1.0 && *n <= 1000.0 && n.fract() == 0.0)
            })
        } else {
            // Generic slot: next candidate of any kind.
            (!candidates.is_empty()).then(|| candidates.remove(0))
        };
        out.push(match pick {
            Some(Candidate::Number(n)) if !want_text => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", n as i64)
                } else {
                    format!("{n}")
                }
            }
            Some(Candidate::Text(s)) => Literal::Text(s).to_token(),
            // LIKE requires a quoted pattern; a numeric or missing candidate
            // degrades to the match-all pattern rather than a parse error.
            Some(Candidate::Number(n)) => Literal::Text(format!("{n}")).to_token(),
            None if want_text => "'%'".to_string(),
            None => "0".to_string(),
        });
    }
    out
}

fn take_first(v: &mut Vec<Candidate>, pred: impl Fn(&Candidate) -> bool) -> Option<Candidate> {
    let pos = v.iter().position(pred)?;
    Some(v.remove(pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::tokens::{parse_vql, tokenize_vql};

    #[test]
    fn mask_replaces_literals_only() {
        let toks = tokenize_vql(
            "select t.a from t where ( t.price > 500 and t.city = 'New York' ) top 3 by t.price",
        );
        let (masked, values) = mask_values(&toks);
        let masked_str = masked.join(" ");
        assert_eq!(
            masked_str,
            "select t.a from t where ( t.price > <value> and t.city = <value> ) top <value> by t.price"
        );
        assert_eq!(
            values,
            vec![
                Literal::Int(500),
                Literal::Text("New York".into()),
                Literal::Int(3)
            ]
        );
    }

    #[test]
    fn keywords_are_not_masked() {
        let toks = tokenize_vql("select t.a from t where t.flag = true");
        let (masked, values) = mask_values(&toks);
        assert!(masked.contains(&"true".to_string()));
        assert!(values.is_empty());
    }

    #[test]
    fn extract_candidates_ordered() {
        let c = extract_candidates(
            "Show flights above 500 dollars to 'New York' after 2020-01-01, top 3.",
        );
        assert_eq!(
            c,
            vec![
                Candidate::Number(500.0),
                Candidate::Text("New York".into()),
                Candidate::Text("2020-01-01".into()),
                Candidate::Number(3.0),
            ]
        );
    }

    #[test]
    fn fill_round_trips_typical_query() {
        let toks = tokenize_vql(
            "visualize bar select t.city , count ( t.* ) from t \
             where ( t.price > 500 and t.city = 'new york' ) group by t.city top 3 by count ( t.* )",
        );
        let (masked, _) = mask_values(&toks);
        let filled = fill_values(
            &masked,
            "Show a bar of cities with price over 500 in 'new york', top 3.",
        );
        assert_eq!(filled.join(" "), toks.join(" "));
        // And the filled sequence parses.
        parse_vql(&filled).unwrap();
    }

    #[test]
    fn unfillable_slots_default_to_zero() {
        let masked: Vec<String> = tokenize_vql("select t.a from t where t.x > <value>")
            .into_iter()
            .collect();
        let filled = fill_values(&masked, "no numbers here at all");
        assert_eq!(filled.last().unwrap(), "0");
        parse_vql(&filled).unwrap();
    }

    #[test]
    fn like_slot_prefers_text() {
        let masked: Vec<String> =
            tokenize_vql("select t.a from t where t.name like <value>").into_iter().collect();
        let filled = fill_values(&masked, "names starting with 'Inter%' among 500 rows");
        assert!(filled.join(" ").contains("'Inter%'"), "{filled:?}");
    }

    #[test]
    fn superlative_slot_prefers_small_integer() {
        let masked: Vec<String> =
            tokenize_vql("select t.a from t top <value> by t.price").into_iter().collect();
        let filled = fill_values(&masked, "give the 5 most expensive at 1234.75 dollars");
        // 1234.75 is fractional; 5 is the integer pick.
        assert!(filled.contains(&"5".to_string()), "{filled:?}");
    }

    #[test]
    fn embedded_quote_value_fills_back_canonically() {
        // The PR 3 regression literal, end to end through the value channel:
        // serializer-escaped VQL → mask → NL span → extract → refill.
        let toks = tokenize_vql("select t.a from t where t.name = '%''J'");
        let (masked, values) = mask_values(&toks);
        assert_eq!(values, vec![Literal::Text("%'J".into())]);
        let filled = fill_values(&masked, "rows whose name is '%''J' please");
        assert_eq!(filled.join(" "), toks.join(" "));
        parse_vql(&filled).unwrap();
    }

    #[test]
    fn extract_honors_doubled_quote_escapes() {
        let c = extract_candidates("flights from 'O''Hare' after 500");
        assert_eq!(
            c,
            vec![Candidate::Text("O'Hare".into()), Candidate::Number(500.0)]
        );
    }

    #[test]
    fn date_candidates_stay_textual() {
        let c = extract_candidates("cases until 2020-09-13 only");
        assert_eq!(c, vec![Candidate::Text("2020-09-13".into())]);
    }
}
