//! Finite language enumeration.
//!
//! Axiom model-checking (the `apt-axioms` heap checker) and the soundness
//! property tests need the *set of concrete paths* denoted by a regular
//! expression up to a length bound. This module enumerates it from the DFA.

use crate::dfa::Dfa;
use crate::{Regex, Symbol};

/// All words of `L(re)` with length ≤ `max_len`, in length-lexicographic
/// order: shorter words first, and words of one length ordered by field
/// name. The order depends on the names alone, never on the order the
/// fields were interned in.
///
/// The enumeration explores `|Σ|^max_len` candidate prefixes in the worst
/// case but prunes through dead DFA states, so it is cheap for the sparse
/// languages that arise from access paths.
///
/// ```
/// use apt_regex::{sample::words_up_to, parse, Symbol};
/// let words = words_up_to(&parse("N+").unwrap(), 3);
/// assert_eq!(words.len(), 3); // N, NN, NNN
/// ```
pub fn words_up_to(re: &Regex, max_len: usize) -> Vec<Vec<Symbol>> {
    shortest_words(re, max_len, usize::MAX)
}

/// The first `limit` words of [`words_up_to`]`(re, max_len)`, enumerated
/// only up to the first length that fills the limit.
///
/// ```
/// use apt_regex::{parse, sample::shortest_words, Symbol};
/// let (l, r) = (Symbol::intern("L"), Symbol::intern("R"));
/// let words = shortest_words(&parse("(L|R)+").unwrap(), 30, 3);
/// assert_eq!(words, [vec![l], vec![r], vec![l, l]]);
/// ```
pub fn shortest_words(re: &Regex, max_len: usize, limit: usize) -> Vec<Vec<Symbol>> {
    let mut alpha = re.symbols();
    alpha.sort_by_cached_key(|s| s.as_str());
    let dfa = Dfa::build(re, &alpha);
    let live = live_states(&dfa);
    let mut out = Vec::new();
    // Breadth-first by length. Extending a sorted level's live prefixes
    // in order, each by the symbols in name order, keeps levels sorted.
    let mut level: Vec<(usize, Vec<Symbol>)> = vec![(dfa.start(), Vec::new())];
    for len in 0..=max_len {
        let accepted = level.iter().filter(|(state, _)| dfa.is_accepting(*state));
        out.extend(accepted.map(|(_, word)| word.clone()));
        if out.len() >= limit || len == max_len {
            break;
        }
        let mut next = Vec::new();
        for (state, word) in &level {
            for &sym in &alpha {
                let t = dfa.next_state(*state, sym);
                if live[t] {
                    next.push((t, [word.as_slice(), &[sym]].concat()));
                }
            }
        }
        level = next;
    }
    out.truncate(limit);
    out
}

/// Which states of `dfa` can reach an accepting state (a backward
/// reachability sweep from the accepting states).
fn live_states(dfa: &Dfa) -> Vec<bool> {
    let n = dfa.state_count();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for s in 0..n {
        for &sym in dfa.alphabet() {
            preds[dfa.next_state(s, sym)].push(s);
        }
    }
    let mut live: Vec<bool> = (0..n).map(|s| dfa.is_accepting(s)).collect();
    let mut stack: Vec<usize> = (0..n).filter(|&s| live[s]).collect();
    while let Some(s) = stack.pop() {
        for &p in &preds[s] {
            if !live[p] {
                live[p] = true;
                stack.push(p);
            }
        }
    }
    live
}

/// Whether `L(re)` is finite.
///
/// Infinite languages have a DFA cycle on a path from the start state to an
/// accepting state.
pub fn is_finite(re: &Regex) -> bool {
    let alpha = re.symbols();
    if alpha.is_empty() {
        return true;
    }
    let dfa = Dfa::build(re, &alpha).minimize();
    // In the minimized DFA, every state except the (unique) dead state is
    // live. The language is infinite iff some live state lies on a cycle of
    // live states.
    let n = dfa.state_count();
    let live = live_states(&dfa);
    // Detect a cycle within live states reachable from start.
    let mut color = vec![0u8; n]; // 0=white 1=grey 2=black
    fn dfs(dfa: &Dfa, live: &[bool], color: &mut [u8], s: usize) -> bool {
        color[s] = 1;
        for &sym in dfa.alphabet() {
            let t = dfa.next_state(s, sym);
            if !live[t] {
                continue;
            }
            if color[t] == 1 {
                return true;
            }
            if color[t] == 0 && dfs(dfa, live, color, t) {
                return true;
            }
        }
        color[s] = 2;
        false
    }
    if !live[dfa.start()] {
        return true;
    }
    !dfs(&dfa, &live, &mut color, dfa.start())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn enumerates_finite_language_exactly() {
        let words = words_up_to(&parse("L.(R|N)").unwrap(), 5);
        assert_eq!(words.len(), 2);
        for w in &words {
            assert_eq!(w.len(), 2);
        }
    }

    #[test]
    fn enumerates_star_up_to_bound() {
        let words = words_up_to(&parse("N*").unwrap(), 4);
        assert_eq!(words.len(), 5); // ε, N, NN, NNN, NNNN
        assert!(words.contains(&vec![]));
    }

    #[test]
    fn order_is_by_length_then_field_name_not_interning_order() {
        // Interned in reverse name order, so symbol ids disagree with the
        // names; no other test uses these fields.
        let y = Symbol::intern("word_order_y");
        let x = Symbol::intern("word_order_x");
        assert!(y < x);
        let words = words_up_to(&parse("(word_order_x|word_order_y)+").unwrap(), 2);
        assert_eq!(
            words,
            vec![
                vec![x],
                vec![y],
                vec![x, x],
                vec![x, y],
                vec![y, x],
                vec![y, y]
            ]
        );
    }

    #[test]
    fn shortest_words_are_a_prefix_of_all_words() {
        let re = parse("(L|R)+.N*").unwrap();
        let all = words_up_to(&re, 5);
        for limit in [0, 1, 2, 7, 40, all.len(), all.len() + 3] {
            let kept = shortest_words(&re, 5, limit);
            assert_eq!(kept[..], all[..limit.min(all.len())], "limit {limit}");
        }
        assert!(shortest_words(&Regex::epsilon(), 3, 0).is_empty());
    }

    #[test]
    fn empty_language_has_no_words() {
        assert!(words_up_to(&Regex::empty(), 3).is_empty());
        assert_eq!(words_up_to(&Regex::epsilon(), 3), vec![Vec::new()]);
    }

    #[test]
    fn all_words_match_source_regex() {
        let re = parse("(L|R)+.N+").unwrap();
        let words = words_up_to(&re, 4);
        assert!(!words.is_empty());
        for w in &words {
            assert!(re.matches(w), "enumerated word must match: {w:?}");
        }
    }

    #[test]
    fn finiteness() {
        assert!(is_finite(&parse("L.L.N").unwrap()));
        assert!(is_finite(&parse("L|R.N").unwrap()));
        assert!(is_finite(&Regex::empty()));
        assert!(is_finite(&Regex::epsilon()));
        assert!(!is_finite(&parse("L*").unwrap()));
        assert!(!is_finite(&parse("L.N+").unwrap()));
    }
}
