//! Component-structured access paths.
//!
//! §4.1 of the paper treats a regular expression as a *sequence of
//! components*, where each component is ε, a field name, an alternation
//! `a|b`, a Kleene star `a*`, or a parenthesized component `(a)`. The
//! prover's suffix-generation scheme peels components off the ends of such
//! sequences, so the prover works on this representation rather than on the
//! raw [`Regex`] tree.
//!
//! ε never appears as an explicit component here: the empty path is the
//! empty component sequence, matching the paper's `ε` suffix arguments.

use crate::{Regex, Symbol};
use std::cmp::Ordering;
use std::fmt;

/// One component of an access path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Component {
    /// A single field traversal.
    Field(Symbol),
    /// An alternation of two whole paths, `a|b`.
    Alt(Path, Path),
    /// A starred path, `a*`.
    Star(Path),
    /// A plussed path, `a+` (≡ `a·a*`).
    Plus(Path),
}

impl Component {
    /// The regular expression this component denotes.
    pub fn to_regex(&self) -> Regex {
        match self {
            Component::Field(s) => Regex::field(*s),
            Component::Alt(a, b) => Regex::alt(a.to_regex(), b.to_regex()),
            Component::Star(a) => Regex::star(a.to_regex()),
            Component::Plus(a) => Regex::plus(a.to_regex()),
        }
    }

    /// Rough node-count size of this component.
    pub fn size(&self) -> usize {
        match self {
            Component::Field(_) => 1,
            Component::Alt(a, b) => 1 + a.size() + b.size(),
            Component::Star(a) | Component::Plus(a) => 1 + a.size(),
        }
    }
}

impl Ord for Component {
    /// A total structural order, comparing field components by *name* (not
    /// by interner id, which depends on interning order and would differ
    /// between runs). Deterministic for the same input on every run, which
    /// is what symmetric-goal canonicalization needs.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(c: &Component) -> u8 {
            match c {
                Component::Field(_) => 0,
                Component::Alt(_, _) => 1,
                Component::Star(_) => 2,
                Component::Plus(_) => 3,
            }
        }
        match (self, other) {
            (Component::Field(a), Component::Field(b)) => a.as_str().cmp(b.as_str()),
            (Component::Alt(a1, b1), Component::Alt(a2, b2)) => a1.cmp(a2).then_with(|| b1.cmp(b2)),
            (Component::Star(a), Component::Star(b)) | (Component::Plus(a), Component::Plus(b)) => {
                a.cmp(b)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for Component {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Component::Field(s) => write!(f, "{s}"),
            Component::Alt(a, b) => {
                // Flatten nested alternations for readability:
                // ((Ly|Ry)|Ny) renders as (Ly|Ry|Ny).
                let mut alts = Vec::new();
                collect_alternatives(a, &mut alts);
                collect_alternatives(b, &mut alts);
                write!(f, "({})", alts.join("|"))
            }
            Component::Star(a) => {
                if self_delimiting(a) {
                    write!(f, "{a}*")
                } else {
                    write!(f, "({a})*")
                }
            }
            Component::Plus(a) => {
                if self_delimiting(a) {
                    write!(f, "{a}+")
                } else {
                    write!(f, "({a})+")
                }
            }
        }
    }
}

/// Renders a path into the flattened alternative list of an enclosing
/// alternation display.
fn collect_alternatives(p: &Path, out: &mut Vec<String>) {
    if let [Component::Alt(a, b)] = p.components() {
        collect_alternatives(a, out);
        collect_alternatives(b, out);
    } else {
        out.push(p.to_string());
    }
}

/// Whether a path renders as a single token that needs no extra
/// parentheses under a postfix `*`/`+` (a lone field, or a lone
/// alternation, which prints its own parentheses).
fn self_delimiting(p: &Path) -> bool {
    matches!(
        p.components(),
        [Component::Field(_)] | [Component::Alt(_, _)]
    )
}

/// A sequence of components; the empty sequence is ε.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path {
    components: Vec<Component>,
}

impl Path {
    /// The empty path ε.
    pub fn epsilon() -> Path {
        Path::default()
    }

    /// A path of the given components.
    pub fn new(components: Vec<Component>) -> Path {
        Path { components }
    }

    /// A literal field sequence.
    ///
    /// ```
    /// use apt_regex::path::Path;
    /// let p = Path::fields(["L", "L", "N"]);
    /// assert_eq!(p.to_string(), "L.L.N");
    /// ```
    pub fn fields<I, S>(fields: I) -> Path
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        Path {
            components: fields
                .into_iter()
                .map(|s| Component::Field(s.into()))
                .collect(),
        }
    }

    /// Parses the paper's concrete syntax into a path.
    ///
    /// A plain dotted field sequence such as `L.L.N`, the common shape of
    /// a query path, is read straight from the text: no token vector, no
    /// [`Regex`] tree. Every other input goes through the regex parser
    /// ([`crate::parse`]) and `Path::try_from`: `eps`, `empty`, `*`, `+`,
    /// `|`, parentheses, whitespace, and every malformed or over-long
    /// name. So both routes give the same `Path`, and every error comes
    /// from the regex parser with its position and message.
    ///
    /// # Errors
    ///
    /// Returns the underlying regex [`crate::ParseRegexError`] on malformed
    /// input, or if the expression denotes the empty language (∅ is not a
    /// path).
    pub fn parse(input: &str) -> Result<Path, crate::ParseRegexError> {
        if let Some(path) = Path::parse_plain(input) {
            return Ok(path);
        }
        let re = crate::parse(input)?;
        Path::try_from(&re).map_err(|msg| crate::ParseRegexError {
            position: 0,
            message: msg,
        })
    }

    /// `input` as a path when it is a plain dotted field sequence (words
    /// of `[A-Za-z_][A-Za-z0-9_]*` other than the keywords, joined by
    /// single dots, nothing else), interned through
    /// [`Symbol::try_intern`]; `None` sends the input to the regex parser.
    fn parse_plain(input: &str) -> Option<Path> {
        let plain = |word: &str| {
            let bytes = word.as_bytes();
            bytes
                .first()
                .is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_')
                && bytes
                    .iter()
                    .all(|&b| b.is_ascii_alphanumeric() || b == b'_')
                && !matches!(word, "eps" | "epsilon" | "empty")
        };
        if !input.split('.').all(plain) {
            return None;
        }
        let components = input
            .split('.')
            .map(|word| Symbol::try_intern(word).ok().map(Component::Field))
            .collect::<Option<Vec<_>>>()?;
        Some(Path { components })
    }

    /// The component sequence.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Whether this is ε.
    pub fn is_epsilon(&self) -> bool {
        self.components.is_empty()
    }

    /// Number of components (the `n` of the paper's complexity discussion).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether there are no components (same as [`Path::is_epsilon`]).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Total AST size across components.
    pub fn size(&self) -> usize {
        self.components.iter().map(Component::size).sum()
    }

    /// Appends a component.
    pub fn push(&mut self, c: Component) {
        self.components.push(c);
    }

    /// `self · other`.
    #[must_use]
    pub fn concat(&self, other: &Path) -> Path {
        let mut components = self.components.clone();
        components.extend(other.components.iter().cloned());
        Path { components }
    }

    /// Splits off the last component: `(prefix, last)`.
    pub fn split_last(&self) -> Option<(Path, &Component)> {
        let (last, init) = self.components.split_last()?;
        Some((
            Path {
                components: init.to_vec(),
            },
            last,
        ))
    }

    /// Splits off the first component: `(first, suffix)`.
    pub fn split_first(&self) -> Option<(&Component, Path)> {
        let (first, rest) = self.components.split_first()?;
        Some((
            first,
            Path {
                components: rest.to_vec(),
            },
        ))
    }

    /// The suffix consisting of the last `k` components (`k ≤ len`).
    ///
    /// # Panics
    ///
    /// Panics if `k > self.len()`.
    pub fn suffix(&self, k: usize) -> Path {
        assert!(k <= self.components.len());
        Path {
            components: self.components[self.components.len() - k..].to_vec(),
        }
    }

    /// The prefix dropping the last `k` components.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.len()`.
    pub fn prefix(&self, k: usize) -> Path {
        assert!(k <= self.components.len());
        Path {
            components: self.components[..self.components.len() - k].to_vec(),
        }
    }

    /// The regular expression this path denotes.
    pub fn to_regex(&self) -> Regex {
        Regex::concat_all(self.components.iter().map(Component::to_regex))
    }

    /// Whether the denoted set of paths is exactly one concrete path
    /// (cardinality 1) — every component is a plain field.
    pub fn is_definite(&self) -> bool {
        self.components
            .iter()
            .all(|c| matches!(c, Component::Field(_)))
    }
}

impl Ord for Path {
    /// Lexicographic over components (see [`Component`]'s order): a
    /// process-stable total order used to canonicalize symmetric pairs
    /// without formatting either path.
    fn cmp(&self, other: &Self) -> Ordering {
        self.components.cmp(&other.components)
    }
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "eps");
        }
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl TryFrom<&Regex> for Path {
    type Error = String;

    /// Converts a regex into component form. The concatenation spine becomes
    /// the component sequence; `∅` is rejected (it denotes no path at all).
    fn try_from(re: &Regex) -> Result<Path, String> {
        let mut components = Vec::new();
        flatten(re, &mut components)?;
        Ok(Path { components })
    }
}

fn flatten(re: &Regex, out: &mut Vec<Component>) -> Result<(), String> {
    match re {
        Regex::Empty => Err("the empty language is not an access path".to_owned()),
        Regex::Epsilon => Ok(()),
        Regex::Field(s) => {
            out.push(Component::Field(*s));
            Ok(())
        }
        Regex::Concat(a, b) => {
            flatten(a, out)?;
            flatten(b, out)
        }
        Regex::Alt(a, b) => {
            out.push(Component::Alt(Path::try_from(&**a)?, Path::try_from(&**b)?));
            Ok(())
        }
        Regex::Star(a) => {
            out.push(Component::Star(Path::try_from(&**a)?));
            Ok(())
        }
        Regex::Plus(a) => {
            out.push(Component::Plus(Path::try_from(&**a)?));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let p = Path::parse("L.L.N").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), "L.L.N");
        assert!(p.is_definite());
    }

    #[test]
    fn epsilon_path() {
        let p = Path::parse("eps").unwrap();
        assert!(p.is_epsilon());
        assert_eq!(p.to_string(), "eps");
        assert!(p.is_definite());
    }

    #[test]
    fn component_structure_of_paper_path() {
        // hr.(nrowE)+ · ncolE · (ncolE)*  has three components
        let p = Path::parse("nrowE+ . ncolE . ncolE*").unwrap();
        assert_eq!(p.len(), 3);
        assert!(matches!(p.components()[0], Component::Plus(_)));
        assert!(matches!(p.components()[1], Component::Field(_)));
        assert!(matches!(p.components()[2], Component::Star(_)));
        assert!(!p.is_definite());
    }

    #[test]
    fn alt_component() {
        let p = Path::parse("(L|R).N").unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(p.components()[0], Component::Alt(_, _)));
    }

    #[test]
    fn empty_language_rejected() {
        assert!(Path::parse("empty").is_err());
    }

    #[test]
    fn splits_and_affixes() {
        let p = Path::parse("L.R.N").unwrap();
        let (prefix, last) = p.split_last().unwrap();
        assert_eq!(prefix.to_string(), "L.R");
        assert_eq!(last.to_string(), "N");
        assert_eq!(p.suffix(2).to_string(), "R.N");
        assert_eq!(p.prefix(2).to_string(), "L");
        assert_eq!(p.suffix(0).to_string(), "eps");
        assert_eq!(p.prefix(0), p);
    }

    #[test]
    fn concat_paths() {
        let a = Path::parse("L").unwrap();
        let b = Path::parse("R.N").unwrap();
        assert_eq!(a.concat(&b).to_string(), "L.R.N");
        assert_eq!(Path::epsilon().concat(&a), a);
    }

    #[test]
    fn to_regex_round_trip_language() {
        let p = Path::parse("(L|R)+.N").unwrap();
        let re = p.to_regex();
        let q = Path::try_from(&re).unwrap();
        assert!(crate::ops::equivalent(&re, &q.to_regex()));
    }

    #[test]
    fn display_star_grouping() {
        let p = Path::parse("(L.R)*").unwrap();
        assert_eq!(p.to_string(), "(L.R)*");
        let q = Path::parse("N*").unwrap();
        assert_eq!(q.to_string(), "N*");
    }
}
