//! A parser for the paper's concrete regular-expression syntax.
//!
//! Grammar (whitespace insignificant except as a field-name separator):
//!
//! ```text
//! alt     := cat ('|' cat)*
//! cat     := postfix (('.')? postfix)*        -- '.' optional between atoms
//! postfix := atom ('*' | '+')*
//! atom    := field | 'eps' | 'empty' | '(' alt ')'
//! field   := [A-Za-z_][A-Za-z0-9_]*
//! ```
//!
//! Multi-letter field names such as `ncolE` are single atoms, so the paper's
//! `LLN` must be written `L.L.N` or `L L N`.

use crate::{Regex, Symbol};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Error produced by [`parse`] / `Regex::from_str`, with a byte offset into
/// the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegexError {
    /// Byte offset where the error was detected.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseRegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl Error for ParseRegexError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Eps,
    Empty,
    Dot,
    Pipe,
    Star,
    Plus,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<(usize, Token)>, ParseRegexError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '.' => {
                tokens.push((i, Token::Dot));
                i += 1;
            }
            '|' => {
                tokens.push((i, Token::Pipe));
                i += 1;
            }
            '*' => {
                tokens.push((i, Token::Star));
                i += 1;
            }
            '+' => {
                tokens.push((i, Token::Plus));
                i += 1;
            }
            '(' => {
                tokens.push((i, Token::LParen));
                i += 1;
            }
            ')' => {
                tokens.push((i, Token::RParen));
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let tok = match word {
                    "eps" | "epsilon" => Token::Eps,
                    "empty" => Token::Empty,
                    _ => Token::Ident(word.to_owned()),
                };
                tokens.push((start, tok));
            }
            other => {
                return Err(ParseRegexError {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.input_len, |(p, _)| *p)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseRegexError {
        ParseRegexError {
            position: self.here(),
            message: message.into(),
        }
    }

    fn parse_alt(&mut self) -> Result<Regex, ParseRegexError> {
        let mut acc = self.parse_cat()?;
        while self.peek() == Some(&Token::Pipe) {
            self.bump();
            let rhs = self.parse_cat()?;
            acc = Regex::alt(acc, rhs);
        }
        Ok(acc)
    }

    fn starts_atom(tok: &Token) -> bool {
        matches!(
            tok,
            Token::Ident(_) | Token::Eps | Token::Empty | Token::LParen
        )
    }

    fn parse_cat(&mut self) -> Result<Regex, ParseRegexError> {
        let mut acc = self.parse_postfix()?;
        loop {
            match self.peek() {
                Some(Token::Dot) => {
                    self.bump();
                    let rhs = self.parse_postfix()?;
                    acc = Regex::concat(acc, rhs);
                }
                Some(tok) if Self::starts_atom(tok) => {
                    let rhs = self.parse_postfix()?;
                    acc = Regex::concat(acc, rhs);
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn parse_postfix(&mut self) -> Result<Regex, ParseRegexError> {
        let mut acc = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.bump();
                    acc = Regex::star(acc);
                }
                Some(Token::Plus) => {
                    self.bump();
                    acc = Regex::plus(acc);
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseRegexError> {
        let at = self.here();
        match self.bump() {
            Some(Token::Ident(name)) => match Symbol::try_intern(&name) {
                Ok(field) => Ok(Regex::field(field)),
                Err(e) => Err(ParseRegexError {
                    position: at,
                    message: e.to_string(),
                }),
            },
            Some(Token::Eps) => Ok(Regex::epsilon()),
            Some(Token::Empty) => Ok(Regex::empty()),
            Some(Token::LParen) => {
                let inner = self.parse_alt()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(self.err("expected ')'")),
                }
            }
            Some(tok) => Err(self.err(format!("unexpected token {tok:?}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parses the paper's concrete syntax into a [`Regex`].
///
/// # Errors
///
/// Returns [`ParseRegexError`] on malformed input, with the byte position of
/// the first offending token.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let r = apt_regex::parse("(ncolE|nrowE)+")?;
/// assert_eq!(r.to_string(), "(ncolE|nrowE)+");
/// # Ok(())
/// # }
/// ```
pub fn parse(input: &str) -> Result<Regex, ParseRegexError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    if p.peek().is_none() {
        return Err(p.err("empty input (write 'eps' for the empty path)"));
    }
    let re = p.parse_alt()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(re)
}

impl FromStr for Regex {
    type Err = ParseRegexError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> String {
        parse(s).expect("parse").to_string()
    }

    #[test]
    fn parses_fields_and_concat() {
        assert_eq!(roundtrip("L.L.N"), "L.L.N");
        assert_eq!(roundtrip("L L N"), "L.L.N");
    }

    #[test]
    fn parses_alternation_and_closure() {
        assert_eq!(roundtrip("(L|R)+ N+"), "(L|R)+.N+");
        assert_eq!(roundtrip("ncolE*"), "ncolE*");
    }

    #[test]
    fn parses_eps_and_empty() {
        assert_eq!(parse("eps").unwrap(), Regex::Epsilon);
        assert_eq!(parse("empty").unwrap(), Regex::Empty);
        // ε is a concat unit:
        assert_eq!(roundtrip("eps.L"), "L");
    }

    #[test]
    fn parses_nested_groups() {
        assert_eq!(
            roundtrip("((rows|cols).(relem|celem)*)"),
            "(rows|cols).(relem|celem)*"
        );
    }

    #[test]
    fn precedence_star_binds_tighter_than_concat() {
        let r = parse("L.R*").unwrap();
        assert_eq!(r.to_string(), "L.R*");
        let l = Symbol::intern("L");
        assert!(r.matches(&[l]));
    }

    #[test]
    fn precedence_concat_binds_tighter_than_alt() {
        let r = parse("L.N|R").unwrap();
        let rr = Symbol::intern("R");
        assert!(r.matches(&[rr]));
    }

    #[test]
    fn error_on_garbage() {
        let e = parse("L.$").unwrap_err();
        assert_eq!(e.position, 2);
    }

    #[test]
    fn error_on_unbalanced_paren() {
        assert!(parse("(L|R").is_err());
        assert!(parse("L)").is_err());
    }

    #[test]
    fn error_on_empty() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn error_on_dangling_operator() {
        assert!(parse("L|").is_err());
        assert!(parse("*L").is_err());
    }

    #[test]
    fn error_on_over_long_field_names() {
        let long = "f".repeat(crate::MAX_FIELD_NAME + 1);
        let e = parse(&format!("L.({long}|R)")).unwrap_err();
        assert_eq!(e.position, 3);
        assert_eq!(
            e.message,
            format!(
                "field name of {} bytes exceeds the {}-byte limit",
                long.len(),
                crate::MAX_FIELD_NAME
            )
        );
        assert!(parse(&long[1..]).is_ok(), "a name at the cap parses");
    }

    #[test]
    fn from_str_works() {
        let r: Regex = "nrowE+.ncolE+".parse().unwrap();
        assert_eq!(r.to_string(), "nrowE+.ncolE+");
    }
}
