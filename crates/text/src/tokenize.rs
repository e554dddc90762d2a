//! Lowercasing word tokenizer.
//!
//! Tokens are maximal runs of alphabetic characters, lowercased. Digits and
//! punctuation are separators; purely numeric runs are dropped, matching
//! the paper's "each token corresponding to a word in the English
//! dictionary". Single-character tokens are dropped as well (they are
//! artifacts of possessives and initials, not dictionary words).
//!
//! `words` is the one scanner: it yields each token as a borrowed slice
//! of the input, before lowercasing. [`tokenize`] lowercases each into an
//! owned `String`; the feature extractor instead lowercases into a reused
//! buffer with `lowercase_into`, so a snippet costs no per-token
//! allocation.

/// Tokenizes `text` into lowercase word tokens.
///
/// Returns an iterator to avoid allocating a vector when the caller only
/// counts or filters. Each token is an owned `String` because lowercasing
/// may change byte length (e.g. `É` → `é` is same length, but `İ` is not).
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    words(text).map(str::to_lowercase)
}

/// Tokenizes into a vector; convenience for tests and one-shot callers.
///
/// ```
/// use teda_text::tokenize::tokenize_vec;
///
/// assert_eq!(
///     tokenize_vec("Melisse, Santa Monica (2013)"),
///     vec!["melisse", "santa", "monica"]
/// );
/// ```
pub fn tokenize_vec(text: &str) -> Vec<String> {
    tokenize(text).collect()
}

/// The token boundaries of [`tokenize`], as borrowed slices of `text` that
/// are not yet lowercased: maximal alphabetic runs of at least two
/// characters.
pub(crate) fn words(text: &str) -> Words<'_> {
    Words { rest: text }
}

/// Writes the lowercase form of `raw` into `buf`, replacing its contents.
/// Equal to `raw.to_lowercase()`; ASCII input takes a copy-only fast path.
pub(crate) fn lowercase_into(raw: &str, buf: &mut String) {
    buf.clear();
    if raw.is_ascii() {
        buf.push_str(raw);
        buf.make_ascii_lowercase();
    } else {
        // `str::to_lowercase` is context-sensitive (a word-final `Σ`
        // becomes `ς`), so non-ASCII tokens are not lowercased per char.
        buf.push_str(&raw.to_lowercase());
    }
}

/// Iterator returned by [`words`].
pub(crate) struct Words<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        loop {
            // skip non-alphabetic
            let Some(start) = self.rest.find(char::is_alphabetic) else {
                self.rest = "";
                return None;
            };
            let run = &self.rest[start..];
            // consume the alphabetic run
            let end = run.find(|c: char| !c.is_alphabetic()).unwrap_or(run.len());
            let (raw, rest) = run.split_at(end);
            self.rest = rest;
            // single-character tokens are dropped (possessive 's', initials)
            if raw.chars().nth(1).is_some() {
                return Some(raw);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize_vec("Melisse is a restaurant in Santa Monica"),
            vec!["melisse", "is", "restaurant", "in", "santa", "monica"]
        );
    }

    #[test]
    fn punctuation_and_digits_split() {
        assert_eq!(
            tokenize_vec("Top-10 museums, 2013 edition!"),
            vec!["top", "museums", "edition"]
        );
    }

    #[test]
    fn possessives_drop_single_letters() {
        assert_eq!(
            tokenize_vec("Simpson's episodes"),
            vec!["simpson", "episodes"]
        );
    }

    #[test]
    fn unicode_letters_kept() {
        assert_eq!(
            tokenize_vec("Musée du Louvre"),
            vec!["musée", "du", "louvre"]
        );
    }

    #[test]
    fn empty_and_nonword_input() {
        assert!(tokenize_vec("").is_empty());
        assert!(tokenize_vec("12345 --- !!!").is_empty());
        assert!(tokenize_vec("a b c").is_empty()); // all single letters
    }

    #[test]
    fn lowercasing_applied() {
        assert_eq!(tokenize_vec("LOUVRE Museum"), vec!["louvre", "museum"]);
    }

    #[test]
    fn lowercase_into_matches_to_lowercase() {
        let mut buf = String::from("stale");
        for raw in [
            "LOUVRE",
            "Musée",
            "İstanbul",
            "ΟΔΟΣ",
            "ΣΑ",
            "straße",
            "ǅemal",
        ] {
            lowercase_into(raw, &mut buf);
            assert_eq!(buf, raw.to_lowercase(), "{raw}");
        }
    }

    #[test]
    fn words_are_the_raw_token_slices() {
        let raw: Vec<&str> = words("Top-10 Musées, a I'm x2 ÉTÉ").collect();
        assert_eq!(raw, vec!["Top", "Musées", "ÉTÉ"]);
    }

    #[test]
    fn urls_shatter_into_words() {
        // Tokenizer is intentionally naive about URLs: pre-processing
        // filters URL cells before tokenization ever sees them.
        assert_eq!(tokenize_vec("www.louvre.fr"), vec!["www", "louvre", "fr"]);
    }
}
