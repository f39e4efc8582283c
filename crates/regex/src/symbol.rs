//! Interned pointer-field names.
//!
//! Every pointer field that appears in a type declaration, an axiom, or an
//! access path is interned into a [`Symbol`] — a small copyable integer id.
//! Regular expressions and automata operate on symbols, which keeps DFA
//! alphabets dense, and the interner is process-global so symbols can be
//! displayed without threading a table through every API.
//!
//! Interned names are never freed. Text from outside the process (a wire
//! frame, an axiom file, a program) therefore reaches the table only
//! through [`Symbol::try_intern`], which refuses names longer than
//! [`MAX_FIELD_NAME`] bytes: the regex, IR and ADDS parsers all intern
//! through it and report a refusal as their own parse error.

use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned pointer-field name (e.g. `L`, `R`, `ncolE`).
///
/// Symbols are cheap to copy and compare; two symbols are equal iff their
/// names are equal. Obtain one with [`Symbol::intern`].
///
/// ```
/// use apt_regex::Symbol;
/// let l = Symbol::intern("L");
/// assert_eq!(l, Symbol::intern("L"));
/// assert_ne!(l, Symbol::intern("R"));
/// assert_eq!(l.as_str(), "L");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// The longest field name, in bytes, that [`Symbol::try_intern`] (and so
/// every parser) accepts. Real field names are a few bytes long; the cap
/// bounds what one hostile name can add to a table that is never freed.
pub const MAX_FIELD_NAME: usize = 256;

/// A name [`Symbol::try_intern`] refused: longer than [`MAX_FIELD_NAME`]
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldNameTooLong {
    /// The refused name's length in bytes.
    pub len: usize,
}

impl fmt::Display for FieldNameTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "field name of {} bytes exceeds the {MAX_FIELD_NAME}-byte limit",
            self.len
        )
    }
}

impl std::error::Error for FieldNameTooLong {}

/// How much the symbol table holds: names interned and their bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolStats {
    /// Distinct names interned.
    pub symbols: usize,
    /// Their total length in bytes.
    pub bytes: usize,
}

struct Interner {
    names: Vec<&'static str>,
    lookup: std::collections::HashMap<&'static str, u32>,
    bytes: usize,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            lookup: std::collections::HashMap::new(),
            bytes: 0,
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its canonical [`Symbol`].
    ///
    /// Interning the same string twice returns the same symbol.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty — the empty path is represented by
    /// `ε`, not by an empty field name.
    pub fn intern(name: &str) -> Symbol {
        assert!(!name.is_empty(), "field names must be non-empty");
        let mut i = interner().lock().expect("interner poisoned");
        if let Some(&id) = i.lookup.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(i.names.len()).expect("interner overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        i.names.push(leaked);
        i.lookup.insert(leaked, id);
        i.bytes += name.len();
        Symbol(id)
    }

    /// Interns `name` unless it is longer than [`MAX_FIELD_NAME`] bytes.
    /// Parsers of outside text intern through here, so no input can add
    /// more than the cap per name to the table.
    ///
    /// # Errors
    ///
    /// Returns [`FieldNameTooLong`] for an over-long name; nothing is
    /// interned then.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, as [`Symbol::intern`] does.
    pub fn try_intern(name: &str) -> Result<Symbol, FieldNameTooLong> {
        if name.len() > MAX_FIELD_NAME {
            return Err(FieldNameTooLong { len: name.len() });
        }
        Ok(Symbol::intern(name))
    }

    /// What the process-wide table holds right now.
    pub fn table_stats() -> SymbolStats {
        let i = interner().lock().expect("interner poisoned");
        SymbolStats {
            symbols: i.names.len(),
            bytes: i.bytes,
        }
    }

    /// The interned name.
    ///
    /// ```
    /// # use apt_regex::Symbol;
    /// assert_eq!(Symbol::intern("nrowE").as_str(), "nrowE");
    /// ```
    pub fn as_str(self) -> &'static str {
        interner().lock().expect("interner poisoned").names[self.0 as usize]
    }

    /// The raw interner index. Useful as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Self {
        Symbol::intern(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("foo_sym_test");
        let b = Symbol::intern("foo_sym_test");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("aaa_sym"), Symbol::intern("bbb_sym"));
    }

    #[test]
    fn roundtrips_name() {
        assert_eq!(Symbol::intern("ncolE").as_str(), "ncolE");
    }

    #[test]
    fn display_is_name() {
        assert_eq!(Symbol::intern("left").to_string(), "left");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_panics() {
        let _ = Symbol::intern("");
    }

    #[test]
    fn try_intern_refuses_names_past_the_cap_and_counts_the_rest() {
        let longest = format!("cap_{}", "x".repeat(MAX_FIELD_NAME - 4));
        let before = Symbol::table_stats();
        assert_eq!(Symbol::try_intern(&longest), Ok(Symbol::intern(&longest)));
        let after = Symbol::table_stats();
        // Other tests intern concurrently, so the table only grows by at
        // least this name.
        assert!(after.symbols > before.symbols);
        assert!(after.bytes >= before.bytes + MAX_FIELD_NAME);
        let too_long = "g".repeat(MAX_FIELD_NAME + 1);
        let e = Symbol::try_intern(&too_long).unwrap_err();
        assert_eq!(e.len, MAX_FIELD_NAME + 1);
        assert_eq!(
            e.to_string(),
            format!("field name of 257 bytes exceeds the {MAX_FIELD_NAME}-byte limit")
        );
    }

    #[test]
    fn from_str_interns() {
        let s: Symbol = "zzz_sym".into();
        assert_eq!(s, Symbol::intern("zzz_sym"));
    }
}
