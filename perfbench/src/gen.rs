//! Seeded benchmark inputs: one multi-procedure program for analyze-edit
//! and one truth-labelled query corpus for race-single and serve-warm.
//! The same seed always yields byte-identical inputs. Every procedure and
//! query family keeps a fixed size and a fixed multiset of path depths;
//! the seed picks walk directions, tree words, which accesses read, and
//! the order of things, so the cost of a workload changes little from
//! seed to seed.

use crate::rng::Rng;
use apt_axioms::AxiomSet;
use apt_bench::accuracy::{self, Family, GroundTruth};
use apt_core::Origin;
use apt_regex::Path;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The program's structure types: a binary tree, the Figure 3
/// leaf-linked tree, the Appendix A sparse matrix, the Figure 1 list and
/// a circular doubly-linked list (the equality-axiom form). Field names
/// are disjoint across types because a program's axioms form one set.
pub const TYPES: &str = "\
type Tree {
    ptr left: Tree;
    ptr right: Tree;
    data tv;
    axiom T1: forall p, p.left <> p.right;
    axiom T2: forall p <> q, p.(left|right) <> q.(left|right);
    axiom T3: forall p, p.(left|right)+ <> p.eps;
}
type Leafy {
    ptr L: Leafy;
    ptr R: Leafy;
    ptr N: Leafy;
    data d;
    axiom A1: forall p, p.L <> p.R;
    axiom A2: forall p <> q, p.(L|R) <> q.(L|R);
    axiom A3: forall p <> q, p.N <> q.N;
    axiom A4: forall p, p.(L|R|N)+ <> p.eps;
}
type Mat {
    ptr rows: Mat;
    ptr cols: Mat;
    ptr relem: Mat;
    ptr celem: Mat;
    ptr nrowH: Mat;
    ptr ncolH: Mat;
    ptr nrowE: Mat;
    ptr ncolE: Mat;
    data val;
    axiom S1: forall p <> q, p.nrowE <> q.nrowE;
    axiom S2: forall p <> q, p.ncolE <> q.ncolE;
    axiom S3: forall p, p.nrowE <> p.ncolE;
    axiom S4: forall p, p.ncolE* <> p.nrowE+.ncolE*;
    axiom S5: forall p, p.nrowE* <> p.ncolE+.nrowE*;
    axiom S6: forall p <> q, p.nrowH <> q.nrowH;
    axiom S7: forall p <> q, p.ncolH <> q.ncolH;
    axiom S8: forall p <> q, p.relem.ncolE* <> q.relem.ncolE*;
    axiom S9: forall p <> q, p.celem.nrowE* <> q.celem.nrowE*;
    axiom S10: forall p <> q, p.rows <> q.nrowH;
    axiom S11: forall p <> q, p.cols <> q.ncolH;
    axiom S12: forall p, p.(rows|cols|relem|celem|nrowH|ncolH|nrowE|ncolE)+ <> p.eps;
}
type List {
    ptr link: List;
    data f;
    axiom K1: forall p <> q, p.link <> q.link;
    axiom K2: forall p, p.link+ <> p.eps;
}
type Ring {
    ptr next: Ring;
    ptr prev: Ring;
    data rv;
    axiom C1: forall p, p.next.prev = p.eps;
    axiom C2: forall p, p.prev.next = p.eps;
    axiom C3: forall p <> q, p.next <> q.next;
    axiom C4: forall p <> q, p.prev <> q.prev;
    axiom C5: forall p, p.next <> p.eps;
    axiom C6: forall p, p.prev <> p.eps;
}
";

/// Leaf procedures per structure.
const LEAVES: [(Shape, usize); 5] = [
    (Shape::Tree, 1),
    (Shape::Leafy, 2),
    (Shape::Matrix, 1),
    (Shape::List, 2),
    (Shape::Ring, 1),
];
/// Accesses in a large leaf-linked scan: 17 accesses with four reads give
/// 130 queries, just above `INLINE_BATCH_THRESHOLD`.
const SCAN_ACCESSES: usize = 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Tree,
    Leafy,
    Matrix,
    List,
    Ring,
}

impl Shape {
    fn param(self) -> (&'static str, &'static str) {
        match self {
            Shape::Tree => ("h", "Tree"),
            Shape::Leafy => ("r", "Leafy"),
            Shape::Matrix => ("m", "Mat"),
            Shape::List => ("s", "List"),
            Shape::Ring => ("c", "Ring"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Shape::Tree => "tree",
            Shape::Leafy => "leafy",
            Shape::Matrix => "matrix",
            Shape::List => "list",
            Shape::Ring => "ring",
        }
    }
}

/// One generated procedure: its text with an `{EDIT}` placeholder for the
/// constant that an edit changes.
#[derive(Debug, Clone)]
struct GenProc {
    text: String,
    base: u32,
}

/// The generated program, renderable at any edit version.
///
/// Its composition is fixed: which procedures exist, how many accesses
/// each makes, the multiset of path depths, and who calls whom. The seed
/// picks walk directions, which accesses read, and the order of depths,
/// so the analysis cost moves little between seeds.
#[derive(Debug, Clone)]
pub struct GenProgram {
    procs: Vec<GenProc>,
    /// Procedure indices in the seeded edit rotation: every procedure
    /// once, shuffled.
    pub edit_order: Vec<usize>,
}

/// Builds one procedure body from access snippets, numbering labels and
/// temporaries.
struct Body {
    lines: Vec<String>,
    labels: usize,
    vars: usize,
    /// Leaf-link paths already used: distinct paths keep every query of a
    /// scan distinct, so deduplication cannot shrink a batch below the
    /// inline threshold.
    leafy_paths: BTreeSet<String>,
}

impl Body {
    fn new() -> Body {
        Body {
            lines: Vec::new(),
            labels: 0,
            vars: 0,
            leafy_paths: BTreeSet::new(),
        }
    }

    fn var(&mut self) -> String {
        self.vars += 1;
        format!("v{}", self.vars)
    }

    fn line(&mut self, indent: usize, text: String) {
        self.lines
            .push(format!("{}{}", "    ".repeat(indent), text));
    }

    /// A labelled write or read of `field` through pointer `p`.
    fn access(&mut self, indent: usize, p: &str, field: &str, write: bool) {
        self.labels += 1;
        let label = format!("S{}", self.labels);
        if write {
            self.line(indent, format!("{label}: {p}->{field} = fun();"));
        } else {
            let x = self.var();
            self.line(indent, format!("{label}: {x} = {p}->{field};"));
        }
    }

    /// `dst = src->f1->f2->…;`
    fn load(&mut self, indent: usize, dst: &str, src: &str, fields: &[&str]) {
        if fields.is_empty() {
            self.line(indent, format!("{dst} = {src};"));
        } else {
            self.line(indent, format!("{dst} = {src}->{};", fields.join("->")));
        }
    }

    /// A tree walker: down a seeded `depth`-step prefix, then a loop.
    fn tree_walker(&mut self, rng: &mut Rng, depth: usize, accesses: &[bool]) {
        let q = self.var();
        let prefix: Vec<&str> = (0..depth).map(|_| *rng.pick(&["left", "right"])).collect();
        self.load(1, &q, "h", &prefix);
        self.line(1, "loop {".to_owned());
        for &w in accesses {
            self.access(2, &q, "tv", w);
        }
        let dir = *rng.pick(&["left", "right"]);
        self.line(2, format!("{q} = {q}->{dir};"));
        self.line(1, "}".to_owned());
    }

    /// The §3.3 shape: `depth` tree steps, then one leaf link, on a path
    /// no earlier access of this body used.
    fn leafy_access(&mut self, rng: &mut Rng, depth: usize, write: bool) {
        let p = self.var();
        let mut fields: Vec<&str>;
        loop {
            fields = (0..depth).map(|_| *rng.pick(&["L", "R"])).collect();
            fields.push("N");
            if self.leafy_paths.insert(fields.join("->")) {
                break;
            }
        }
        self.load(1, &p, "r", &fields);
        self.access(1, &p, "d", write);
    }

    /// `n` leaf-linked accesses with depths cycling through `depths`,
    /// `reads` of them reads, in seeded order.
    fn leafy_scan(&mut self, rng: &mut Rng, n: usize, reads: usize, depths: (usize, usize)) {
        let (lo, hi) = depths;
        let mut plan: Vec<(usize, bool)> = (0..n)
            .map(|i| (lo + i % (hi - lo + 1), i >= reads))
            .collect();
        rng.shuffle(&mut plan);
        for (depth, write) in plan {
            self.leafy_access(rng, depth, write);
        }
    }

    /// Appendix A: a row sweep nested in a column sweep (`nested`), or
    /// a walk over the row headers.
    fn matrix_sweep(&mut self, nested: bool) {
        let r = self.var();
        let e = self.var();
        if nested {
            self.load(1, &r, "m", &["rows", "relem"]);
            self.line(1, "loop {".to_owned());
            self.load(2, &e, &r, &["ncolE"]);
            self.line(2, "loop {".to_owned());
            self.access(3, &e, "val", true);
            self.access(3, &e, "val", false);
            self.line(3, format!("{e} = {e}->ncolE;"));
            self.line(2, "}".to_owned());
            self.line(2, format!("{r} = {r}->nrowE;"));
            self.line(1, "}".to_owned());
        } else {
            self.load(1, &r, "m", &["rows"]);
            self.line(1, "loop {".to_owned());
            self.load(2, &e, &r, &["relem"]);
            self.line(2, "loop {".to_owned());
            self.access(3, &e, "val", true);
            self.line(3, format!("{e} = {e}->ncolE;"));
            self.line(2, "}".to_owned());
            self.line(2, format!("{r} = {r}->nrowH;"));
            self.line(1, "}".to_owned());
        }
    }

    /// Figure 1's list walk after `skip` steps; with `store`, a
    /// structural store first suspends the `link` axioms until the
    /// invariant is reasserted.
    fn list_walk(&mut self, skip: usize, store: bool) {
        let q = self.var();
        self.load(1, &q, "s", &vec!["link"; skip]);
        if store {
            let t = self.var();
            self.load(1, &t, "s", &["link"]);
            self.line(1, format!("{t}->link = {q};"));
            self.line(1, "reassert;".to_owned());
        }
        self.line(1, "loop {".to_owned());
        self.access(2, &q, "f", true);
        self.line(2, format!("{q} = {q}->link;"));
        self.line(1, "}".to_owned());
    }

    /// Back-and-forth ring steps that only the equality axioms relate.
    fn ring_access(&mut self, rng: &mut Rng, steps: usize, write: bool) {
        let a = self.var();
        let mut fields: Vec<&str> = (0..steps).map(|_| *rng.pick(&["next", "prev"])).collect();
        fields.extend(["next", "prev"]);
        self.load(1, &a, "c", &fields);
        self.access(1, &a, "rv", write);
    }

    /// The fixed body of a leaf of `shape`; `k` varies the list and
    /// matrix variants.
    fn leaf(&mut self, rng: &mut Rng, shape: Shape, k: usize) {
        match shape {
            Shape::Tree => {
                let mut depths = [2, 4];
                rng.shuffle(&mut depths);
                self.tree_walker(rng, depths[0], &[true, false]);
                self.tree_walker(rng, depths[1], &[true]);
            }
            Shape::Leafy => self.leafy_scan(rng, 5, 1, (1, 5)),
            Shape::Matrix => {
                self.matrix_sweep(k == 0);
                self.matrix_sweep(k != 0);
            }
            Shape::List => {
                self.list_walk(2 * k, k == 1);
                self.list_walk(1, false);
            }
            Shape::Ring => {
                let mut steps = [1, 2, 3];
                rng.shuffle(&mut steps);
                for (i, s) in steps.into_iter().enumerate() {
                    self.ring_access(rng, s, i != 0);
                }
            }
        }
    }
}

impl GenProgram {
    /// Generates the program for `seed`.
    pub fn generate(seed: u64) -> GenProgram {
        let mut rng = Rng::new(seed ^ 0x5052_4f47);
        let mut procs: Vec<GenProc> = Vec::new();
        let mut emit = |rng: &mut Rng, name: String, shape: Shape, body: Body| {
            let (v, t) = shape.param();
            let mut text = format!("proc {name}({v}: {t}) {{\n");
            // The edit point: an unlabelled constant whose change alters
            // the procedure's text but not its queries.
            text.push_str("    ek = {EDIT};\n");
            for l in &body.lines {
                text.push_str(l);
                text.push('\n');
            }
            text.push_str("}\n");
            procs.push(GenProc {
                text,
                base: rng.range(1, 9000) as u32,
            });
        };

        for (shape, count) in LEAVES {
            for k in 0..count {
                let mut body = Body::new();
                body.leaf(&mut rng, shape, k);
                emit(&mut rng, format!("{}{k}", shape.name()), shape, body);
            }
        }
        let mut body = Body::new();
        body.leafy_scan(&mut rng, SCAN_ACCESSES, 4, (3, 7));
        emit(&mut rng, "scan".to_owned(), Shape::Leafy, body);
        // Callers inline a leaf of their own structure and add accesses
        // through the same handle, so every pair has a common anchor. The
        // leaf-linked caller's own accesses are the program's deepest paths
        // (9 to 11 tree steps and a leaf link); the list caller inlines the
        // leaf with the structural store.
        let callers: [(Shape, usize); 2] = [(Shape::Leafy, 0), (Shape::List, 1)];
        for (no, (shape, k)) in callers.into_iter().enumerate() {
            let mut body = Body::new();
            body.line(1, format!("call {}{k}({});", shape.name(), shape.param().0));
            if shape == Shape::Leafy {
                body.leafy_scan(&mut rng, 3, 1, (9, 11));
            } else {
                body.leaf(&mut rng, shape, 1);
            }
            emit(&mut rng, format!("caller{no}"), shape, body);
        }
        let mut edit_order: Vec<usize> = (0..procs.len()).collect();
        rng.shuffle(&mut edit_order);
        GenProgram { procs, edit_order }
    }

    /// Number of procedures.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// The program text with procedure `i`'s edit constant bumped by
    /// `versions[i]`.
    pub fn render(&self, versions: &[u32]) -> String {
        let mut s = String::from(TYPES);
        for (i, p) in self.procs.iter().enumerate() {
            let v = p.base + versions.get(i).copied().unwrap_or(0);
            s.push_str(&p.text.replace("{EDIT}", &v.to_string()));
        }
        s
    }
}

/// The structure family a corpus query is asked against; each maps to
/// one axiom set (one serve session, one warm portfolio).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Set {
    /// Binary tree over `L`/`R`.
    Tree,
    /// Figure 3 leaf-linked tree.
    Leafy,
    /// Appendix A sparse matrix.
    Matrix,
    /// Figure 1 list.
    List,
    /// Circular doubly-linked list.
    Ring,
}

impl Set {
    /// Every set, in session order.
    pub const ALL: [Set; 5] = [Set::Tree, Set::Leafy, Set::Matrix, Set::List, Set::Ring];

    /// The axiom text (one axiom per line), as sent to `open_session`.
    pub fn axioms_text(self) -> String {
        match self {
            Set::Tree => accuracy::family_axioms(Family::BinaryTree).to_string(),
            Set::Leafy => accuracy::family_axioms(Family::LeafLinkedTree).to_string(),
            Set::Matrix => accuracy::family_axioms(Family::SparseMatrix).to_string(),
            Set::List => accuracy::family_axioms(Family::List).to_string(),
            Set::Ring => "C1: forall p, p.next.prev = p.eps\n\
                          C2: forall p, p.prev.next = p.eps\n\
                          C3: forall p <> q, p.next <> q.next\n\
                          C4: forall p <> q, p.prev <> q.prev\n\
                          C5: forall p, p.next <> p.eps\n\
                          C6: forall p, p.prev <> p.eps\n"
                .to_owned(),
        }
    }

    /// The parsed axiom set.
    pub fn axioms(self) -> AxiomSet {
        AxiomSet::parse(&self.axioms_text()).expect("corpus axiom sets parse")
    }

    /// Index into [`Set::ALL`].
    pub fn index(self) -> usize {
        Set::ALL.iter().position(|s| *s == self).expect("listed")
    }
}

/// What is true of a corpus query by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// The paths never meet on any heap satisfying the axioms: `Yes` is
    /// wrong.
    Independent,
    /// Some heap satisfying the axioms makes the paths meet: `No` is
    /// wrong.
    Dependent,
}

/// One labelled disjointness query.
#[derive(Debug, Clone)]
pub struct CorpusQuery {
    /// The axiom set it is asked against.
    pub set: Set,
    /// First access path.
    pub a: Path,
    /// Second access path.
    pub b: Path,
    /// Origin relation of the two handles.
    pub origin: Origin,
    /// The truth label.
    pub truth: Truth,
}

fn chain(field: &str, n: usize) -> String {
    if n == 0 {
        "eps".to_owned()
    } else {
        vec![field; n].join(".")
    }
}

fn word(rng: &mut Rng, alphabet: &[&str], len: usize) -> String {
    if len == 0 {
        return "eps".to_owned();
    }
    (0..len)
        .map(|_| *rng.pick(alphabet))
        .collect::<Vec<_>>()
        .join(".")
}

/// Generates the labelled corpus for `seed`: the hand-labelled accuracy
/// cases, Figure 7 Theorem-T and row-walk instances, the refuter's overlap
/// families, and generated tree, leaf-link, list and ring queries. Family
/// sizes are fixed; the seed picks depths and words and the order.
pub fn corpus(seed: u64) -> Vec<CorpusQuery> {
    use Truth::{Dependent, Independent};
    let mut rng = Rng::new(seed ^ 0x434f_5250);
    let mut out = Vec::new();
    let path = |s: &str| Path::parse(s).expect("generated path parses");
    let mut push = |set: Set, a: &str, b: &str, origin: Origin, truth: Truth| {
        out.push(CorpusQuery {
            set,
            a: path(a),
            b: path(b),
            origin,
            truth,
        });
    };

    for case in accuracy::suite() {
        let set = match case.family {
            Family::BinaryTree => Set::Tree,
            Family::LeafLinkedTree => Set::Leafy,
            Family::List => Set::List,
            Family::SparseMatrix => Set::Matrix,
        };
        let truth = match case.truth {
            GroundTruth::Independent => Independent,
            GroundTruth::Dependent => Dependent,
        };
        push(set, case.a, case.b, case.origin, truth);
    }
    // Fixed depth grids; the seed picks only the words and the order.
    for i in 1..=6 {
        for j in 1..=6 {
            let b = format!("{}.ncolE+", chain("nrowE", j));
            push(
                Set::Matrix,
                &chain("ncolE", i),
                &b,
                Origin::Same,
                Independent,
            );
        }
    }
    for i in 1..=8 {
        for j in 1..=5 {
            // ncolE^i lies in ncolE+.ncolE^j exactly when i > j.
            let truth = if i > j { Dependent } else { Independent };
            let b = format!("ncolE+.{}", chain("ncolE", j));
            push(Set::Matrix, &chain("ncolE", i), &b, Origin::Same, truth);
        }
    }
    for i in 1..=6 {
        let a = chain("ncolE", i);
        push(Set::Matrix, &a, &a, Origin::Same, Dependent);
        push(Set::Matrix, &a, "ncolE+", Origin::Same, Dependent);
    }
    for k in 0..60 {
        // Distinct words reach distinct nodes of a tree.
        let (la, lb) = (1 + k % 10, 1 + (k * 7 + 3) % 10);
        let a = word(&mut rng, &["L", "R"], la);
        let mut b = word(&mut rng, &["L", "R"], lb);
        while b == a {
            b = word(&mut rng, &["L", "R"], lb);
        }
        push(Set::Tree, &a, &b, Origin::Same, Independent);
    }
    for l in 0..8 {
        let a = word(&mut rng, &["L", "R"], l);
        let b = if l == 0 {
            "(L|R)+".to_owned()
        } else {
            format!("{a}.(L|R)+")
        };
        push(Set::Tree, &a, &b, Origin::Same, Independent);
    }
    for l in 1..=10 {
        // Identical words always meet; past the refuter's heap bound the
        // meeting cannot be witnessed, so the longest stay Maybe.
        let a = word(&mut rng, &["L", "R"], l);
        push(Set::Tree, &a, &a, Origin::Same, Dependent);
    }
    for k in 0..48 {
        // A3 makes N injective, so distinct tree nodes have distinct
        // leaf-link successors.
        let (la, lb) = (1 + k % 8, 1 + (k * 5 + 2) % 8);
        let x = word(&mut rng, &["L", "R"], la);
        let mut y = word(&mut rng, &["L", "R"], lb);
        while y == x {
            y = word(&mut rng, &["L", "R"], lb);
        }
        push(
            Set::Leafy,
            &format!("{x}.N"),
            &format!("{y}.N"),
            Origin::Same,
            Independent,
        );
    }
    for i in 0..=5 {
        for j in 0..=5 {
            let truth = if i == j { Dependent } else { Independent };
            push(
                Set::List,
                &chain("link", i),
                &chain("link", j),
                Origin::Same,
                truth,
            );
        }
    }
    for k in 0..30 {
        // Ring words reduce by C1/C2 to next^n or prev^n. n = 1 never
        // returns to the origin (C5/C6); n = 0 is the origin itself, and
        // n >= 2 returns on a ring of length n.
        let mut fields = Vec::new();
        let mut net: i64 = 0;
        for _ in 0..1 + k % 5 {
            let f = *rng.pick(&["next", "prev"]);
            net += if f == "next" { 1 } else { -1 };
            fields.push(f);
        }
        let truth = if net.abs() == 1 {
            Independent
        } else {
            Dependent
        };
        push(Set::Ring, &fields.join("."), "eps", Origin::Same, truth);
    }
    rng.shuffle(&mut out);
    out
}

/// Measured input properties recorded in `BENCHMARK.json`.
#[derive(Debug, Clone, Default)]
pub struct InputProfile {
    /// Procedures in the program.
    pub procs: usize,
    /// Queries in one whole-program pass.
    pub queries: usize,
    /// Share of procedures with more than `INLINE_BATCH_THRESHOLD`
    /// queries.
    pub above_threshold: f64,
    /// Share of queries whose shape (both access paths and the accessed
    /// fields) also occurs in another procedure.
    pub shapes_repeated: f64,
    /// Corpus size.
    pub corpus: usize,
    /// Share of corpus queries labelled Dependent.
    pub dependent: f64,
}

impl InputProfile {
    /// Profiles the inputs for `seed`.
    pub fn measure(seed: u64) -> InputProfile {
        use std::collections::HashMap;
        let program = GenProgram::generate(seed);
        let parsed = apt_ir::parse_program(&program.render(&[])).expect("generated program parses");
        let mut shape_procs: HashMap<String, Vec<usize>> = HashMap::new();
        let mut per_proc = Vec::new();
        let mut shapes = Vec::new();
        for (i, proc) in parsed.procs.iter().enumerate() {
            let analysis = apt_paths::analyze_proc(&parsed, &proc.name).expect("proc exists");
            let queries = analysis.all_queries();
            per_proc.push(queries.len());
            for q in &queries {
                let pairs = match q {
                    apt_paths::BatchQuery::Sequential { from, to } => {
                        analysis.sequential_pairs(from, to).unwrap_or_default()
                    }
                    apt_paths::BatchQuery::LoopCarried { label, loop_label } => analysis
                        .loop_carried_pair(label, loop_label.as_deref())
                        .map(|p| vec![p])
                        .unwrap_or_default(),
                };
                let mut key = String::new();
                for (a, b) in pairs {
                    let _ = write!(
                        key,
                        "{}/{}|{}/{};",
                        a.access.path, a.field, b.access.path, b.field
                    );
                }
                let procs = shape_procs.entry(key.clone()).or_default();
                if !procs.contains(&i) {
                    procs.push(i);
                }
                shapes.push(key);
            }
        }
        let queries: usize = per_proc.iter().sum();
        let repeated = shapes.iter().filter(|k| shape_procs[*k].len() > 1).count();
        let corpus = corpus(seed);
        let dependent = corpus
            .iter()
            .filter(|q| q.truth == Truth::Dependent)
            .count();
        InputProfile {
            procs: per_proc.len(),
            queries,
            above_threshold: per_proc
                .iter()
                .filter(|&&n| n > apt_core::INLINE_BATCH_THRESHOLD)
                .count() as f64
                / per_proc.len() as f64,
            shapes_repeated: repeated as f64 / queries.max(1) as f64,
            corpus: corpus.len(),
            dependent: dependent as f64 / corpus.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_text(seed: u64) -> String {
        corpus(seed)
            .iter()
            .map(|q| format!("{:?} {} {} {:?} {:?}\n", q.set, q.a, q.b, q.origin, q.truth))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let _arena = crate::arena_lock();
        let a = GenProgram::generate(7);
        let b = GenProgram::generate(7);
        assert_eq!(a.render(&[]), b.render(&[]));
        assert_eq!(a.edit_order, b.edit_order);
        assert_eq!(corpus_text(7), corpus_text(7));
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        let _arena = crate::arena_lock();
        assert_ne!(
            GenProgram::generate(7).render(&[]),
            GenProgram::generate(8).render(&[])
        );
        assert_ne!(corpus_text(7), corpus_text(8));
    }

    #[test]
    fn generated_program_parses_at_every_edit_version() {
        let _arena = crate::arena_lock();
        for seed in 0..4 {
            let program = GenProgram::generate(seed);
            let mut versions = vec![0; program.len()];
            apt_ir::parse_program(&program.render(&versions)).expect("base parses");
            for &i in &program.edit_order {
                versions[i] += 1;
                apt_ir::parse_program(&program.render(&versions)).expect("edit parses");
            }
        }
    }

    #[test]
    fn an_edit_changes_only_the_edited_procedure_text() {
        let _arena = crate::arena_lock();
        let program = GenProgram::generate(3);
        let base = program.render(&[]);
        let mut versions = vec![0; program.len()];
        versions[program.edit_order[0]] = 1;
        let edited = program.render(&versions);
        let diff = base
            .lines()
            .zip(edited.lines())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 1);
    }

    #[test]
    fn program_spans_both_sides_of_the_batch_threshold() {
        let _arena = crate::arena_lock();
        let profile = InputProfile::measure(1);
        assert!(profile.above_threshold > 0.0 && profile.above_threshold < 1.0);
        assert!(profile.dependent > 0.0 && profile.dependent < 1.0);
    }
}
