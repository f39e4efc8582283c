//! Parser fuzzing: every user-facing front end — regular path
//! expressions, axiom lines, ADDS descriptions, and the IR mini
//! language — must survive arbitrary bytes and near-miss mutations of
//! valid inputs without panicking, and every rejection must carry
//! usable position information (a byte offset or 1-based line).

use apt_axioms::{adds::parse_adds, Axiom, AxiomSet};
use apt_regex::{ParseRegexError, Path};
use proptest::prelude::*;

const REGEX_CORPUS: &[&str] = &[
    "L.L.N",
    "(L|R)+.N*",
    "ncolE+.nrowE",
    "eps",
    "(a|b)*.a.(a|b)",
    "L+|R+",
    "((L|R).N)*",
];

const AXIOM_CORPUS: &[&str] = &[
    "A1: forall p, p.L <> p.R",
    "forall p <> q, p.(L|R) <> q.(L|R)",
    "C1: forall p, p.next.prev = p.eps",
    "A4: forall p, p.(L|R|N)+ <> p.eps",
];

const ADDS_CORPUS: &[&str] = &[
    "structure T { tree L, R; list N; acyclic L, R, N; }",
    "structure M { tree L, R; }",
    "structure D { list next; cycle next, prev; }",
];

const IR_CORPUS: &[&str] = &[
    "type List { ptr link: List; data f; }\nproc f(h: List) { q = h; }",
    "type T { ptr L: T; ptr R: T; data d;\n  axiom A1: forall p, p.L <> p.R;\n}\nproc g(root: T) {\n  p = root->L;\nS:  p->d = 1;\n}",
    "type C { ptr n: C; }\nproc w(h: C) { loop { h = h->n; } }",
];

/// One deterministic near-miss edit of `base`, driven by two fuzz words:
/// overwrite / insert / delete / truncate at a pseudo-random spot.
fn mutate(base: &str, a: u16, b: u16) -> String {
    let mut bytes = base.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::from_utf8_lossy(&[(b % 256) as u8]).into_owned();
    }
    let i = (a as usize) % bytes.len();
    let byte = (b / 4 % 256) as u8;
    match b % 4 {
        0 => bytes[i] = byte,
        1 => bytes.insert(i, byte),
        2 => {
            bytes.remove(i);
        }
        _ => bytes.truncate(i),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn corpus(entries: &'static [&'static str]) -> impl Strategy<Value = String> {
    proptest::sample::select(entries.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
}

fn check_regex(input: &str) {
    if let Err(e) = apt_regex::parse(input) {
        assert!(
            e.position <= input.len(),
            "error position {} past end of {input:?}",
            e.position
        );
    }
    check_path(input);
}

/// A path parsed the long way: the regex parser, then `Path::try_from`.
fn regex_route(input: &str) -> Result<Path, ParseRegexError> {
    let re = apt_regex::parse(input)?;
    Path::try_from(&re).map_err(|message| ParseRegexError {
        position: 0,
        message,
    })
}

/// `Path::parse` reads plain dotted words itself; on every input it must
/// give what the regex route gives: the same path, or the same error
/// position and message.
fn check_path(input: &str) {
    assert_eq!(Path::parse(input), regex_route(input), "{input:?}");
}

fn check_axiom_set(input: &str) {
    if let Err(e) = AxiomSet::parse(input) {
        let lines = input.lines().count().max(1);
        let line = e.line.expect("set-level errors must carry a line");
        assert!(
            (1..=lines).contains(&line),
            "error line {line} outside 1..={lines} for {input:?}"
        );
    }
}

fn check_adds(input: &str) {
    if let Err(e) = parse_adds(input) {
        let lines = input.lines().count().max(1);
        assert!(
            (1..=lines).contains(&e.line),
            "error line {} outside 1..={lines} for {input:?}",
            e.line
        );
    }
}

fn check_ir(input: &str) {
    if let Err(e) = apt_ir::parse_program(input) {
        let lines = input.lines().count().max(1);
        assert!(
            (1..=lines).contains(&e.line),
            "error line {} outside 1..={lines} for {input:?}",
            e.line
        );
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_any_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..120)
    ) {
        let input = String::from_utf8_lossy(&bytes).into_owned();
        check_regex(&input);
        check_axiom_set(&input);
        check_adds(&input);
        check_ir(&input);
    }

    #[test]
    fn regex_near_misses_parse_or_point_at_the_error(
        base in corpus(REGEX_CORPUS), a in any::<u16>(), b in any::<u16>()
    ) {
        check_regex(&mutate(&base, a, b));
    }

    #[test]
    fn axiom_near_misses_parse_or_point_at_the_error(
        base in corpus(AXIOM_CORPUS), a in any::<u16>(), b in any::<u16>()
    ) {
        let mutated = mutate(&base, a, b);
        check_axiom_set(&mutated);
        // The single-axiom parser must also stay panic-free (its errors
        // carry no line — that is the set parser's job).
        let _ = mutated.parse::<Axiom>();
    }

    #[test]
    fn adds_near_misses_parse_or_point_at_the_error(
        base in corpus(ADDS_CORPUS), a in any::<u16>(), b in any::<u16>()
    ) {
        check_adds(&mutate(&base, a, b));
    }

    #[test]
    fn ir_near_misses_parse_or_point_at_the_error(
        base in corpus(IR_CORPUS), a in any::<u16>(), b in any::<u16>()
    ) {
        check_ir(&mutate(&base, a, b));
    }
}

#[test]
fn axiom_set_error_reports_the_offending_line() {
    let e = AxiomSet::parse("A1: forall p, p.L <> p.R\n\ngarbage here\n").unwrap_err();
    assert_eq!(e.line, Some(3));
    assert!(e.to_string().contains("line 3"), "{e}");
}

#[test]
fn path_parse_matches_the_regex_route_on_examples_and_edge_cases() {
    let long = "f".repeat(apt_regex::MAX_FIELD_NAME);
    let too_long = format!("{long}g");
    let mut inputs: Vec<String> = [
        "L.L.N",
        "L..R",
        ".L",
        "L.",
        "eps.L",
        "L . R",
        "epsilon",
        "empty",
        "eps",
        "L|",
        "(L",
        "L+*",
        "Lé.R",
        "é",
        "_x.y1",
        "1L",
        "L.eps",
        "",
        " ",
        "L.L.N\n",
        "ncolE.nrowE",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    inputs.extend([
        long.clone(),
        format!("L.{long}.R"),
        too_long.clone(),
        format!("L.{too_long}"),
        format!("({too_long}|R)"),
    ]);
    // Every string literal of the examples, and every axiom side of the
    // example programs.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for dir in [root.clone(), root.join("programs")] {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("examples/ is readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file).expect("example text");
            if file.extension().is_some_and(|e| e == "rs") {
                inputs.extend(text.split('"').skip(1).step_by(2).map(str::to_owned));
            }
            for line in text.lines().filter(|l| l.contains("forall")) {
                let Some((_, body)) = line.split_once(',') else {
                    continue;
                };
                for side in body.trim().trim_end_matches(';').split(['<', '>', '=']) {
                    if let Some((_, path)) = side.trim().split_once('.') {
                        inputs.push(path.to_owned());
                    }
                }
            }
        }
    }
    assert!(inputs.len() > 60, "{} inputs", inputs.len());
    for input in &inputs {
        check_path(input);
    }
    let e = Path::parse(&format!("L.{too_long}")).unwrap_err();
    assert_eq!(e.position, 2);
    assert!(e.message.contains("exceeds the 256-byte limit"), "{e}");
    assert!(Path::parse(&long).is_ok(), "a name at the cap parses");
}
