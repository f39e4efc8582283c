//! Brzozowski derivatives.
//!
//! Used for direct word matching ([`crate::Regex::matches`]) and for
//! cross-checking the automata pipeline in tests: the derivative engine and
//! the NFA→DFA engine are independent implementations of the same language
//! semantics, so disagreement between them flags a bug in either.

use crate::Regex;

/// The Brzozowski derivative `∂_sym(re)`: the language of suffixes of words
/// in `re` that begin with `sym`.
///
/// ```
/// use apt_regex::{derivative::derive, Regex, Symbol};
/// let l = Symbol::intern("L");
/// let re = Regex::word(["L", "R"]);
/// assert_eq!(derive(&re, l), Regex::field("R"));
/// ```
pub fn derive(re: &Regex, sym: crate::Symbol) -> Regex {
    match re {
        Regex::Empty | Regex::Epsilon => Regex::Empty,
        Regex::Field(s) => {
            if *s == sym {
                Regex::Epsilon
            } else {
                Regex::Empty
            }
        }
        Regex::Concat(a, b) => {
            let left = Regex::concat(derive(a, sym), (**b).clone());
            if a.is_nullable() {
                Regex::alt(left, derive(b, sym))
            } else {
                left
            }
        }
        Regex::Alt(a, b) => Regex::alt(derive(a, sym), derive(b, sym)),
        Regex::Star(a) => Regex::concat(derive(a, sym), Regex::star((**a).clone())),
        // a+ = a·a*
        Regex::Plus(a) => Regex::concat(derive(a, sym), Regex::star((**a).clone())),
    }
}

/// Decides `L(a) ⊆ L(b)` by exploring pairs of Brzozowski derivatives:
/// a counterexample word exists iff some reachable derivative pair is
/// nullable on the left and not on the right.
///
/// This is a third, automata-free implementation of the subset test, used
/// to cross-validate the DFA kernels. Every derivative is put in
/// [`similar`] form (alternation normalized modulo associativity,
/// commutativity and idempotence), under which an expression has finitely
/// many derivatives \[Brz64\], so the pair space is finite and the terms in
/// it stop growing. Without that normal form `(b|b.b)+` alone has
/// derivatives of ever larger size along `b, b, b, …`, and a search that
/// only counted pairs could still exhaust memory. The search gives up
/// after expanding `budget` distinct pairs and returns `None`
/// ("undecided"). `Some(v)` answers are exact.
///
/// ```
/// use apt_regex::{derivative, parse};
/// let a = parse("L.L").unwrap();
/// let b = parse("L+").unwrap();
/// assert_eq!(derivative::is_subset_bounded(&a, &b, 1000), Some(true));
/// assert_eq!(derivative::is_subset_bounded(&b, &a, 1000), Some(false));
/// ```
pub fn is_subset_bounded(a: &Regex, b: &Regex, budget: usize) -> Option<bool> {
    let mut alpha = a.symbols();
    alpha.extend(b.symbols());
    alpha.sort_unstable();
    alpha.dedup();

    let mut seen: std::collections::HashSet<(Regex, Regex)> = std::collections::HashSet::new();
    let start = (similar(a), similar(b));
    seen.insert(start.clone());
    let mut stack = vec![start];
    while let Some((ra, rb)) = stack.pop() {
        if ra.is_nullable() && !rb.is_nullable() {
            return Some(false);
        }
        for &sym in &alpha {
            let da = similar(&derive(&ra, sym));
            if da.is_empty_language() {
                // No word of L(a) continues this way: nothing to refute.
                continue;
            }
            let db = similar(&derive(&rb, sym));
            let pair = (da, db);
            if seen.insert(pair.clone()) {
                if seen.len() > budget {
                    return None;
                }
                stack.push(pair);
            }
        }
    }
    Some(true)
}

/// `re` with every alternation flattened, its branches put in this form,
/// sorted by [`cmp_structure`] and deduplicated: Brzozowski's similarity
/// normal form. Same language as `re`.
fn similar(re: &Regex) -> Regex {
    match re {
        Regex::Empty | Regex::Epsilon | Regex::Field(_) => re.clone(),
        Regex::Concat(a, b) => Regex::concat(similar(a), similar(b)),
        Regex::Star(a) => Regex::star(similar(a)),
        Regex::Plus(a) => Regex::plus(similar(a)),
        Regex::Alt(..) => {
            fn branches(re: &Regex, out: &mut Vec<Regex>) {
                match re {
                    Regex::Alt(a, b) => {
                        branches(a, out);
                        branches(b, out);
                    }
                    _ => out.push(similar(re)),
                }
            }
            let mut out = Vec::new();
            branches(re, &mut out);
            out.sort_by(cmp_structure);
            out.dedup();
            Regex::alt_all(out)
        }
    }
}

/// A total order on expression trees (variant, then symbol id, then
/// children left to right). Symbol ids follow interning order, so the
/// order is fixed within a process, which is all [`similar`] needs.
fn cmp_structure(a: &Regex, b: &Regex) -> std::cmp::Ordering {
    fn rank(re: &Regex) -> u8 {
        match re {
            Regex::Empty => 0,
            Regex::Epsilon => 1,
            Regex::Field(_) => 2,
            Regex::Concat(..) => 3,
            Regex::Alt(..) => 4,
            Regex::Star(_) => 5,
            Regex::Plus(_) => 6,
        }
    }
    if std::ptr::eq(a, b) {
        return std::cmp::Ordering::Equal;
    }
    match (a, b) {
        (Regex::Field(x), Regex::Field(y)) => x.cmp(y),
        (Regex::Concat(a1, a2), Regex::Concat(b1, b2))
        | (Regex::Alt(a1, a2), Regex::Alt(b1, b2)) => {
            cmp_structure(a1, b1).then_with(|| cmp_structure(a2, b2))
        }
        (Regex::Star(x), Regex::Star(y)) | (Regex::Plus(x), Regex::Plus(y)) => cmp_structure(x, y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Derives by an entire word, returning the residual language.
pub fn derive_word(re: &Regex, word: &[crate::Symbol]) -> Regex {
    let mut cur = re.clone();
    for &s in word {
        cur = derive(&cur, s);
        if cur.is_empty_language() {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Symbol;

    fn f(name: &str) -> Regex {
        Regex::field(name)
    }

    #[test]
    fn derive_field() {
        let l = Symbol::intern("L");
        assert_eq!(derive(&f("L"), l), Regex::Epsilon);
        assert_eq!(derive(&f("R"), l), Regex::Empty);
    }

    #[test]
    fn derive_star() {
        let n = Symbol::intern("N");
        let re = Regex::star(f("N"));
        assert_eq!(derive(&re, n), re);
    }

    #[test]
    fn derive_plus_becomes_star() {
        let n = Symbol::intern("N");
        let re = Regex::plus(f("N"));
        assert_eq!(derive(&re, n), Regex::star(f("N")));
    }

    #[test]
    fn derive_concat_nullable_head() {
        let l = Symbol::intern("L");
        // L*·L : deriving by L gives L*·L | ε, which accepts ε and L…
        let re = Regex::concat(Regex::star(f("L")), f("L"));
        let d = derive(&re, l);
        assert!(d.is_nullable());
        assert!(d.matches(&[l]));
    }

    #[test]
    fn bounded_subset_basics() {
        let cases = [
            ("L", "L|R", Some(true)),
            ("L|R", "L", Some(false)),
            ("L.L.L", "L*", Some(true)),
            ("eps", "L+", Some(false)),
            ("empty", "L", Some(true)),
        ];
        for (x, y, expect) in cases {
            let (rx, ry) = (crate::parse(x).unwrap(), crate::parse(y).unwrap());
            assert_eq!(is_subset_bounded(&rx, &ry, 10_000), expect, "{x} ⊆ {y}");
        }
    }

    #[test]
    fn bounded_subset_gives_up_cleanly() {
        // A one-pair budget cannot close any nontrivial search.
        let a = crate::parse("(L|R)*.N").unwrap();
        let b = crate::parse("(L|R|N)*").unwrap();
        assert_eq!(is_subset_bounded(&a, &b, 1), None);
    }

    #[test]
    fn similarity_keeps_growing_derivatives_finite() {
        // Along b, b, b, … the derivatives of (b|b.b)+ are syntactically
        // distinct and keep growing; modulo similarity there are three.
        let a = crate::parse("(b|b.b)+").unwrap();
        let b = crate::parse("b+").unwrap();
        assert_eq!(is_subset_bounded(&a, &b, 32), Some(true));
        assert_eq!(is_subset_bounded(&b, &a, 32), Some(true));
        let c = crate::parse("b+.(c.a|c.c)").unwrap();
        assert_eq!(is_subset_bounded(&c, &a, 32), Some(false));
    }

    #[test]
    fn similar_is_a_normal_form() {
        let x = crate::parse("(L|R)|(N|L)").unwrap();
        let y = crate::parse("N|(R|L)").unwrap();
        assert_eq!(similar(&x), similar(&y));
        assert_eq!(similar(&similar(&x)), similar(&x));
    }

    #[test]
    fn derive_word_residual() {
        let l = Symbol::intern("L");
        let r = Symbol::intern("R");
        let re = Regex::word(["L", "R", "N"]);
        assert_eq!(derive_word(&re, &[l, r]), f("N"));
        assert_eq!(derive_word(&re, &[r]), Regex::Empty);
    }
}
