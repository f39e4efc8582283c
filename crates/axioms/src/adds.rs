//! A higher-level data-structure description layer.
//!
//! §3.2 of the paper points out that axioms "can be specified indirectly
//! using a higher level of abstraction, e.g. the ADDS data structure
//! description language \[HHN92\]". This module provides that layer: a
//! [`StructureSpec`] collects dimension declarations (`tree`, `list`,
//! `acyclic`, …) and expands them into the corresponding [`AxiomSet`].
//!
//! It also ships the two structures the paper works out in full:
//! [`leaf_linked_tree_axioms`] (Figure 3) and [`sparse_matrix_axioms`]
//! (Appendix A).

use crate::{Axiom, AxiomSet};
use apt_regex::{Regex, Symbol};

/// Builder for a data-structure description; expands to an [`AxiomSet`].
///
/// ```
/// use apt_axioms::adds::StructureSpec;
/// // The leaf-linked binary tree of Figure 3:
/// let axioms = StructureSpec::new()
///     .tree(["L", "R"])
///     .list("N")
///     .acyclic(["L", "R", "N"])
///     .into_axioms();
/// assert_eq!(axioms.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StructureSpec {
    axioms: Vec<Axiom>,
    next_label: usize,
}

impl StructureSpec {
    /// An empty description.
    pub fn new() -> StructureSpec {
        StructureSpec::default()
    }

    fn label(&mut self) -> String {
        self.next_label += 1;
        format!("A{}", self.next_label)
    }

    fn push(&mut self, axiom: Axiom) -> &mut Self {
        let l = self.label();
        self.axioms.push(axiom.named(l));
        self
    }

    /// Declares that `fields` form the child links of a tree-like dimension:
    /// siblings are distinct (`∀p, p.f <> p.g` for every pair) and no two
    /// parents share a child (`∀p<>q, p.(f1|…) <> q.(f1|…)`).
    ///
    /// These are the paper's A1 and A2 for `{L, R}`. Note that, exactly as
    /// the paper observes, this does *not* imply acyclicity — add
    /// [`StructureSpec::acyclic`] for a true tree.
    pub fn tree<I, S>(mut self, fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        let syms: Vec<Symbol> = fields.into_iter().map(Into::into).collect();
        for (i, &f) in syms.iter().enumerate() {
            for &g in &syms[i + 1..] {
                self.push(Axiom::disjoint_same_origin(
                    Regex::field(f),
                    Regex::field(g),
                ));
            }
        }
        let any = Regex::alt_all(syms.iter().map(|&s| Regex::field(s)));
        self.push(Axiom::disjoint_distinct_origins(any.clone(), any));
        self
    }

    /// Declares that `field` forms a linked-list dimension: distinct nodes
    /// have distinct successors (`∀p<>q, p.f <> q.f` — the paper's A3).
    ///
    /// As the paper notes, this allows one cyclic back-edge; add
    /// [`StructureSpec::acyclic`] to forbid it.
    pub fn list(mut self, field: impl Into<Symbol>) -> Self {
        let f = Regex::field(field.into());
        self.push(Axiom::disjoint_distinct_origins(f.clone(), f));
        self
    }

    /// Declares that the substructure formed by `fields` is acyclic:
    /// `∀p, p.(f1|…|fk)+ <> p.ε` — the paper's A4.
    pub fn acyclic<I, S>(mut self, fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        let any = Regex::alt_all(fields.into_iter().map(|s| Regex::field(s.into())));
        self.push(Axiom::disjoint_same_origin(
            Regex::plus(any),
            Regex::epsilon(),
        ));
        self
    }

    /// Declares a raw same-origin disjointness: `∀p, p.lhs <> p.rhs`.
    pub fn disjoint(mut self, lhs: Regex, rhs: Regex) -> Self {
        self.push(Axiom::disjoint_same_origin(lhs, rhs));
        self
    }

    /// Declares a raw distinct-origin disjointness: `∀p<>q, p.lhs <> q.rhs`.
    pub fn disjoint_across(mut self, lhs: Regex, rhs: Regex) -> Self {
        self.push(Axiom::disjoint_distinct_origins(lhs, rhs));
        self
    }

    /// Declares a cycle property: `∀p, p.lhs = p.rhs` (e.g. `next.prev = ε`
    /// for a doubly-linked list).
    pub fn cycle(mut self, lhs: Regex, rhs: Regex) -> Self {
        self.push(Axiom::equal(lhs, rhs));
        self
    }

    /// Declares that fields of different *target types* never alias: for
    /// every pair drawn from different groups, `∀p, p.f <> p.g` and
    /// `∀p<>q, p.f <> q.g`. This is the paper's Appendix A remark that
    /// "some axioms are inferred since pointer fields of different types
    /// should lead to different vertices".
    pub fn typed_fields<'a, I>(mut self, groups: I) -> Self
    where
        I: IntoIterator<Item = &'a [&'a str]>,
    {
        let groups: Vec<Vec<Symbol>> = groups
            .into_iter()
            .map(|g| g.iter().map(|&n| Symbol::intern(n)).collect())
            .collect();
        for (i, ga) in groups.iter().enumerate() {
            for gb in &groups[i + 1..] {
                for &f in ga {
                    for &g in gb {
                        self.push(Axiom::disjoint_same_origin(
                            Regex::field(f),
                            Regex::field(g),
                        ));
                        self.push(Axiom::disjoint_distinct_origins(
                            Regex::field(f),
                            Regex::field(g),
                        ));
                    }
                }
            }
        }
        self
    }

    /// Finishes the description, producing the axiom set.
    pub fn into_axioms(self) -> AxiomSet {
        AxiomSet::from_axioms(self.axioms)
    }
}

/// Error from parsing an ADDS-style description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddsError {
    /// 1-based line of the offending declaration.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseAddsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ADDS parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseAddsError {}

/// Parses a textual structure description in the spirit of the ADDS
/// language \[HHN92\] the paper points to for indirect axiom specification.
///
/// One declaration per line inside `structure <Name> { … }` (the braces
/// and name are optional — bare declarations are accepted too):
///
/// * `tree f1, f2, …;` — tree dimension over the fields;
/// * `list f;` — linked-list dimension;
/// * `acyclic f1, f2, …;` — the fields form no cycle;
/// * `disjoint RE1 , RE2;` — same-origin disjointness `∀p`;
/// * `disjoint across RE1 , RE2;` — distinct-origin disjointness `∀p<>q`;
/// * `cycle RE1 = RE2;` — set equality `∀p` (e.g. `cycle next.prev = eps;`).
///
/// ```
/// use apt_axioms::adds::parse_adds;
/// let axioms = parse_adds(r"
///     structure LLBinaryTree {
///         tree L, R;
///         list N;
///         acyclic L, R, N;
///     }
/// ").unwrap();
/// assert_eq!(axioms.len(), 4);
/// ```
///
/// # Errors
///
/// Returns [`ParseAddsError`] on unknown declarations or malformed
/// regular expressions.
pub fn parse_adds(text: &str) -> Result<AxiomSet, ParseAddsError> {
    let mut spec = StructureSpec::new();
    // Strip comments line-wise, then split declarations on ';' (tracking
    // the line each declaration starts on).
    let mut cleaned = String::new();
    for raw in text.lines() {
        let t = raw.trim();
        if !(t.starts_with("//") || t.starts_with('#')) {
            cleaned.push_str(raw);
        }
        cleaned.push('\n');
    }
    let mut line = 1usize;
    for piece in cleaned.split(';') {
        let start_line = line;
        line += piece.matches('\n').count();
        let err = |message: String| ParseAddsError {
            line: start_line
                + piece
                    .find(|c: char| !c.is_whitespace())
                    .map_or(0, |i| piece[..i].matches('\n').count()),
            message,
        };
        // Structure headers and braces are cosmetic.
        let mut decl = piece.trim();
        while let Some(open) = decl.find('{') {
            let head = decl[..open].trim();
            if !(head.is_empty() || head.starts_with("structure")) {
                return Err(err(format!("unexpected '{{' after {head:?}")));
            }
            decl = decl[open + 1..].trim();
        }
        let debraced = decl.replace('}', " ");
        let decl = debraced.trim();
        if decl.is_empty() {
            continue;
        }
        let (keyword, rest) = match decl.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => return Err(err(format!("malformed declaration {decl:?}"))),
        };
        let fields = |s: &str| -> Result<Vec<Symbol>, ParseAddsError> {
            s.split(',')
                .map(str::trim)
                .filter(|f| !f.is_empty())
                .map(|f| Symbol::try_intern(f).map_err(|e| err(e.to_string())))
                .collect()
        };
        match keyword {
            "tree" => {
                let fs = fields(rest)?;
                if fs.len() < 2 {
                    return Err(err("tree needs at least two fields".into()));
                }
                spec = spec.tree(fs);
            }
            "list" => {
                let fs = fields(rest)?;
                if fs.len() != 1 {
                    return Err(err("list takes exactly one field".into()));
                }
                spec = spec.list(fs[0]);
            }
            "acyclic" => {
                let fs = fields(rest)?;
                if fs.is_empty() {
                    return Err(err("acyclic needs at least one field".into()));
                }
                spec = spec.acyclic(fs);
            }
            "disjoint" => {
                let (across, body) = match rest.strip_prefix("across") {
                    Some(b) => (true, b.trim()),
                    None => (false, rest),
                };
                let (l, r) = body
                    .split_once(',')
                    .ok_or_else(|| err("disjoint needs two expressions separated by ','".into()))?;
                let lhs = apt_regex::parse(l.trim()).map_err(|e| err(e.to_string()))?;
                let rhs = apt_regex::parse(r.trim()).map_err(|e| err(e.to_string()))?;
                spec = if across {
                    spec.disjoint_across(lhs, rhs)
                } else {
                    spec.disjoint(lhs, rhs)
                };
            }
            "cycle" => {
                let (l, r) = rest
                    .split_once('=')
                    .ok_or_else(|| err("cycle needs 'RE1 = RE2'".into()))?;
                let lhs = apt_regex::parse(l.trim()).map_err(|e| err(e.to_string()))?;
                let rhs = apt_regex::parse(r.trim()).map_err(|e| err(e.to_string()))?;
                spec = spec.cycle(lhs, rhs);
            }
            other => return Err(err(format!("unknown declaration {other:?}"))),
        }
    }
    Ok(spec.into_axioms())
}

/// The four axioms of Figure 3 (leaf-linked binary tree), named A1–A4
/// exactly as in the paper.
pub fn leaf_linked_tree_axioms() -> AxiomSet {
    AxiomSet::parse(
        "A1: forall p, p.L <> p.R\n\
         A2: forall p <> q, p.(L|R) <> q.(L|R)\n\
         A3: forall p <> q, p.N <> q.N\n\
         A4: forall p, p.(L|R|N)+ <> p.eps",
    )
    .expect("figure 3 axioms parse")
}

/// The three axioms of §5 that suffice to prove Theorem T for the sparse
/// matrix factorization loop.
pub fn sparse_matrix_minimal_axioms() -> AxiomSet {
    AxiomSet::parse(
        "A1: forall p <> q, p.ncolE <> q.ncolE\n\
         A2: forall p, p.ncolE+ <> p.nrowE+\n\
         A3: forall p, p.(ncolE|nrowE)+ <> p.eps",
    )
    .expect("section 5 axioms parse")
}

/// Error from [`parse_axioms_auto`]: whichever sub-parser was selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseAutoError {
    /// The text looked like an ADDS description and failed there.
    Adds(ParseAddsError),
    /// The text was parsed as one-axiom-per-line and failed there.
    Axioms(crate::ParseAxiomError),
}

impl std::fmt::Display for ParseAutoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseAutoError::Adds(e) => e.fmt(f),
            ParseAutoError::Axioms(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ParseAutoError {}

/// Whether `text` looks like an ADDS description (any line opening with a
/// structure keyword) rather than a one-axiom-per-line file.
pub fn looks_like_adds(text: &str) -> bool {
    text.lines().any(|l| {
        let t = l.trim();
        [
            "structure",
            "tree ",
            "list ",
            "acyclic ",
            "disjoint ",
            "cycle ",
        ]
        .iter()
        .any(|k| t.starts_with(k))
    })
}

/// Parses an axiom file in either supported format — an ADDS description
/// (`structure … { tree L, R; }`) or one axiom per line (`A1: forall p,
/// p.L <> p.R`) — auto-detected via [`looks_like_adds`]. This is the one
/// entry point the CLI and the serving layer share, so a set accepted by
/// `apt prove` is accepted verbatim by `open_session`.
///
/// # Errors
///
/// Returns [`ParseAutoError`] from whichever sub-parser the detection
/// selected.
pub fn parse_axioms_auto(text: &str) -> Result<AxiomSet, ParseAutoError> {
    if looks_like_adds(text) {
        parse_adds(text).map_err(ParseAutoError::Adds)
    } else {
        AxiomSet::parse(text).map_err(ParseAutoError::Axioms)
    }
}

/// The twelve sparse-matrix axioms of Appendix A, in the paper's order.
pub fn sparse_matrix_axioms() -> AxiomSet {
    AxiomSet::parse(
        "S1: forall p <> q, p.nrowE <> q.nrowE\n\
         S2: forall p <> q, p.ncolE <> q.ncolE\n\
         S3: forall p, p.nrowE <> p.ncolE\n\
         S4: forall p, p.ncolE* <> p.nrowE+.ncolE*\n\
         S5: forall p, p.nrowE* <> p.ncolE+.nrowE*\n\
         S6: forall p <> q, p.nrowH <> q.nrowH\n\
         S7: forall p <> q, p.ncolH <> q.ncolH\n\
         S8: forall p <> q, p.relem.ncolE* <> q.relem.ncolE*\n\
         S9: forall p <> q, p.celem.nrowE* <> q.celem.nrowE*\n\
         S10: forall p <> q, p.rows <> q.nrowH\n\
         S11: forall p <> q, p.cols <> q.ncolH\n\
         S12: forall p, p.(rows|cols|relem|celem|nrowH|ncolH|nrowE|ncolE)+ <> p.eps",
    )
    .expect("appendix A axioms parse")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AxiomKind;

    #[test]
    fn tree_spec_generates_a1_a2_shape() {
        let s = StructureSpec::new().tree(["L", "R"]).into_axioms();
        assert_eq!(s.len(), 2);
        assert_eq!(s.of_kind(AxiomKind::DisjointSameOrigin).count(), 1);
        assert_eq!(s.of_kind(AxiomKind::DisjointDistinctOrigins).count(), 1);
    }

    #[test]
    fn ternary_tree_generates_three_sibling_axioms() {
        let s = StructureSpec::new().tree(["a", "b", "c"]).into_axioms();
        // 3 pairwise sibling axioms + 1 no-shared-child axiom
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn spec_equivalent_to_fig3() {
        let spec = StructureSpec::new()
            .tree(["L", "R"])
            .list("N")
            .acyclic(["L", "R", "N"])
            .into_axioms();
        let fig3 = leaf_linked_tree_axioms();
        assert_eq!(spec.len(), fig3.len());
        // Same statements modulo names.
        for (a, b) in spec.iter().zip(fig3.iter()) {
            assert_eq!(a.kind(), b.kind());
            assert!(apt_regex::ops::equivalent(a.lhs(), b.lhs()));
            assert!(apt_regex::ops::equivalent(a.rhs(), b.rhs()));
        }
    }

    #[test]
    fn canned_sets_parse() {
        assert_eq!(leaf_linked_tree_axioms().len(), 4);
        assert_eq!(sparse_matrix_minimal_axioms().len(), 3);
        assert_eq!(sparse_matrix_axioms().len(), 12);
    }

    #[test]
    fn typed_fields_infer_cross_type_disjointness() {
        let s = StructureSpec::new()
            .typed_fields([&["nrowH", "ncolH"] as &[_], &["nrowE", "ncolE"]])
            .into_axioms();
        // 2×2 cross pairs × 2 axiom forms
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn cycle_spec() {
        let s = StructureSpec::new()
            .cycle(apt_regex::parse("next.prev").unwrap(), Regex::epsilon())
            .into_axioms();
        assert_eq!(s.of_kind(AxiomKind::Equal).count(), 1);
    }

    #[test]
    fn parse_adds_figure3() {
        let axioms = parse_adds(
            "structure LLBinaryTree {\n\
                tree L, R;\n\
                list N;\n\
                acyclic L, R, N;\n\
             }",
        )
        .unwrap();
        let fig3 = leaf_linked_tree_axioms();
        assert_eq!(axioms.len(), fig3.len());
        for (a, b) in axioms.iter().zip(fig3.iter()) {
            assert_eq!(a.kind(), b.kind());
            assert!(apt_regex::ops::equivalent(a.lhs(), b.lhs()));
            assert!(apt_regex::ops::equivalent(a.rhs(), b.rhs()));
        }
    }

    #[test]
    fn parse_adds_disjoint_and_cycle() {
        let axioms = parse_adds(
            "disjoint ncolE*, nrowE+.ncolE*;\n\
             disjoint across relem.ncolE*, relem.ncolE*;\n\
             cycle next.prev = eps;",
        )
        .unwrap();
        assert_eq!(axioms.len(), 3);
        assert_eq!(axioms.of_kind(AxiomKind::DisjointSameOrigin).count(), 1);
        assert_eq!(
            axioms.of_kind(AxiomKind::DisjointDistinctOrigins).count(),
            1
        );
        assert_eq!(axioms.of_kind(AxiomKind::Equal).count(), 1);
    }

    #[test]
    fn parse_adds_skips_comments_and_braces() {
        let axioms = parse_adds(
            "// a comment\n\
             structure T {\n\
                 # another comment\n\
                 list next;\n\
             }",
        )
        .unwrap();
        assert_eq!(axioms.len(), 1);
    }

    #[test]
    fn parse_adds_errors_carry_line_numbers() {
        let e = parse_adds("list next;\nbogus decl;\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = parse_adds("tree OnlyOne;").unwrap_err();
        assert!(e.message.contains("two fields"));
        let e = parse_adds("disjoint a..b, c;").unwrap_err();
        assert!(e.message.contains("parse error"));
    }

    #[test]
    fn over_long_field_names_are_parse_errors() {
        let long = "f".repeat(apt_regex::MAX_FIELD_NAME + 1);
        let limit = format!(
            "field name of {} bytes exceeds the {}-byte limit",
            long.len(),
            apt_regex::MAX_FIELD_NAME
        );
        for decl in [
            format!("tree L, {long};"),
            format!("list {long};"),
            format!("acyclic {long};"),
            format!("disjoint L, {long}.R;"),
            format!("cycle {long} = eps;"),
        ] {
            let e = parse_adds(&format!("list N;\n{decl}")).unwrap_err();
            assert_eq!(e.line, 2, "{decl}");
            assert!(e.message.contains(&limit), "{}", e.message);
        }
    }

    #[test]
    fn labels_are_sequential() {
        let s = StructureSpec::new()
            .tree(["L", "R"])
            .acyclic(["L", "R"])
            .into_axioms();
        assert!(s.by_name("A1").is_some());
        assert!(s.by_name("A3").is_some());
        assert!(s.by_name("A4").is_none());
    }
}
