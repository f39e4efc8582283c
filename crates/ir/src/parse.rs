//! A front-end for the mini pointer language.
//!
//! The concrete syntax mirrors the paper's C fragments:
//!
//! ```text
//! type LLBinaryTree {
//!     ptr L: LLBinaryTree;
//!     ptr R: LLBinaryTree;
//!     ptr N: LLBinaryTree;
//!     data d;
//!     axiom A1: forall p, p.L <> p.R;
//! }
//!
//! proc subr(root: LLBinaryTree) {
//!     root = root->L;
//!     p = root->L;
//!     p = p->N;
//! S:  p->d = 100;
//!     loop { p = p->N; }
//! }
//! ```
//!
//! Multi-field pointer expressions (`p = q->L->N`) are normalized during
//! parsing into the single-field form §4.1 assumes, by loading into the
//! destination first and then self-loading (`p = q->L; p = p->N;`) or via
//! fresh temporaries for scalar reads.
//!
//! Comments run from `//` to end of line. Loop and `if` conditions are
//! opaque (the analysis does not interpret them), so the syntax omits them.

use crate::ast::{Block, Expr, Proc, Program, Stmt, StmtKind};
use crate::types::{PointerField, StructDecl};
use apt_regex::Symbol;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error from parsing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseProgramError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Arrow,
    Assign,
    Semi,
    Colon,
    Comma,
    LBrace,
    RBrace,
    LParen,
    RParen,
    /// Raw axiom text captured after the `axiom` keyword, up to `;`.
    AxiomText(String),
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        loop {
            let b = self.bytes();
            // Byte-level tests only: `b as char` would classify UTF-8
            // continuation bytes (0x85, 0xA0) as whitespace and strand
            // `pos` inside a multi-byte character.
            while self.pos < b.len() && b[self.pos].is_ascii_whitespace() {
                if b[self.pos] == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
            if self.pos + 1 < b.len() && b[self.pos] == b'/' && b[self.pos + 1] == b'/' {
                while self.pos < b.len() && b[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    /// Captures raw text up to the next `;` (used for axiom bodies, whose
    /// own syntax contains tokens the statement lexer would mangle).
    fn capture_until_semi(&mut self) -> Result<String, ParseProgramError> {
        let start = self.pos;
        let b = self.bytes();
        while self.pos < b.len() && b[self.pos] != b';' {
            if b[self.pos] == b'\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
        if self.pos >= b.len() {
            return Err(ParseProgramError {
                line: self.line,
                message: "unterminated axiom (expected ';')".into(),
            });
        }
        let text = self.src[start..self.pos].trim().to_owned();
        self.pos += 1; // consume ';'
        Ok(text)
    }

    fn next(&mut self) -> Result<Option<(usize, Tok)>, ParseProgramError> {
        self.skip_ws();
        let b = self.bytes();
        if self.pos >= b.len() {
            return Ok(None);
        }
        let line = self.line;
        let c = b[self.pos] as char;
        let tok = match c {
            ';' => {
                self.pos += 1;
                Tok::Semi
            }
            ':' => {
                self.pos += 1;
                Tok::Colon
            }
            ',' => {
                self.pos += 1;
                Tok::Comma
            }
            '{' => {
                self.pos += 1;
                Tok::LBrace
            }
            '}' => {
                self.pos += 1;
                Tok::RBrace
            }
            '(' => {
                self.pos += 1;
                Tok::LParen
            }
            ')' => {
                self.pos += 1;
                Tok::RParen
            }
            '=' => {
                self.pos += 1;
                Tok::Assign
            }
            '-' if self.pos + 1 < b.len() && b[self.pos + 1] == b'>' => {
                self.pos += 2;
                Tok::Arrow
            }
            c if c.is_ascii_digit()
                || (c == '-'
                    && self.pos + 1 < b.len()
                    && (b[self.pos + 1] as char).is_ascii_digit()) =>
            {
                let start = self.pos;
                self.pos += 1;
                while self.pos < b.len() && (b[self.pos] as char).is_ascii_digit() {
                    self.pos += 1;
                }
                let text = &self.src[start..self.pos];
                Tok::Int(text.parse().map_err(|_| ParseProgramError {
                    line,
                    message: format!("bad integer literal {text:?}"),
                })?)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = self.pos;
                while self.pos < b.len()
                    && ((b[self.pos] as char).is_ascii_alphanumeric() || b[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                let word = self.src[start..self.pos].to_owned();
                if word == "axiom" {
                    let text = self.capture_until_semi()?;
                    Tok::AxiomText(text)
                } else {
                    Tok::Ident(word)
                }
            }
            other => {
                return Err(ParseProgramError {
                    line,
                    message: format!("unexpected character {other:?}"),
                })
            }
        };
        Ok(Some((line, tok)))
    }
}

struct Parser {
    tokens: Vec<(usize, Tok)>,
    pos: usize,
    /// Pointer-variable types in the current procedure.
    var_types: HashMap<String, String>,
    /// Type declarations seen so far (for field classification).
    types: Vec<StructDecl>,
    temp_counter: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ParseProgramError {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |(l, _)| *l);
        ParseProgramError {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseProgramError> {
        match self.bump() {
            Some(t) if t == *want => Ok(()),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseProgramError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseProgramError> {
        let mut prog = Program::new();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Ident(kw) if kw == "type" => {
                    self.bump();
                    let decl = self.parse_type_decl()?;
                    self.types.push(decl.clone());
                    prog.types.push(decl);
                }
                Tok::Ident(kw) if kw == "proc" => {
                    self.bump();
                    let p = self.parse_proc()?;
                    prog.procs.push(p);
                }
                other => {
                    return Err(self.err(format!("expected 'type' or 'proc', found {other:?}")))
                }
            }
        }
        Ok(prog)
    }

    fn parse_type_decl(&mut self) -> Result<StructDecl, ParseProgramError> {
        let name = self.expect_ident("type name")?;
        let mut decl = StructDecl::new(&name);
        self.expect(&Tok::LBrace, "'{'")?;
        let mut axiom_lines = Vec::new();
        loop {
            match self.bump() {
                Some(Tok::RBrace) => break,
                Some(Tok::Ident(kw)) if kw == "ptr" => {
                    let fname = self.expect_ident("field name")?;
                    let name = self.field(&fname)?;
                    self.expect(&Tok::Colon, "':'")?;
                    let target = self.expect_ident("target type")?;
                    self.expect(&Tok::Semi, "';'")?;
                    decl.pointers.push(PointerField { name, target });
                }
                Some(Tok::Ident(kw)) if kw == "data" => {
                    let fname = self.expect_ident("field name")?;
                    let field = self.field(&fname)?;
                    self.expect(&Tok::Semi, "';'")?;
                    decl.scalars.push(field);
                }
                Some(Tok::AxiomText(text)) => axiom_lines.push(text),
                other => {
                    return Err(self.err(format!(
                        "expected 'ptr', 'data', 'axiom' or '}}' in type body, found {other:?}"
                    )))
                }
            }
        }
        decl.axioms = apt_axioms::AxiomSet::parse(&axiom_lines.join("\n"))
            .map_err(|e| self.err(format!("in axioms of type {name}: {e}")))?;
        Ok(decl)
    }

    fn parse_proc(&mut self) -> Result<Proc, ParseProgramError> {
        let name = self.expect_ident("procedure name")?;
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        self.var_types.clear();
        self.temp_counter = 0;
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let var = self.expect_ident("parameter name")?;
                self.expect(&Tok::Colon, "':'")?;
                let ty = self.expect_ident("parameter type")?;
                self.var_types.insert(var.clone(), ty.clone());
                params.push((var, ty));
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        let body = self.parse_block()?;
        Ok(Proc { name, params, body })
    }

    fn parse_block(&mut self) -> Result<Block, ParseProgramError> {
        self.expect(&Tok::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated block"));
            }
            self.parse_stmt_into(&mut stmts)?;
        }
        self.bump(); // '}'
        Ok(Block { stmts })
    }

    /// Parses one source statement, which may normalize into several IR
    /// statements.
    fn parse_stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseProgramError> {
        // Optional label: `ident ':'` where the following token starts a
        // statement (not an assignment to the label itself).
        let mut label = None;
        if let (Some(Tok::Ident(_)), Some(Tok::Colon)) = (self.peek(), self.peek2()) {
            if let Some(Tok::Ident(l)) = self.bump() {
                label = Some(l);
            }
            self.bump(); // ':'
        }

        match self.peek() {
            Some(Tok::Ident(kw)) if kw == "loop" => {
                self.bump();
                let body = self.parse_block()?;
                out.push(Stmt {
                    label,
                    kind: StmtKind::Loop { body },
                });
                return Ok(());
            }
            Some(Tok::Ident(kw)) if kw == "reassert" => {
                self.bump();
                self.expect(&Tok::Semi, "';'")?;
                out.push(Stmt {
                    label,
                    kind: StmtKind::Reassert,
                });
                return Ok(());
            }
            Some(Tok::Ident(kw)) if kw == "call" => {
                self.bump();
                let callee = self.expect_ident("callee name")?;
                self.expect(&Tok::LParen, "'('")?;
                let mut args = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        let arg = self.expect_ident("argument")?;
                        if self.var_type(&arg).is_none() {
                            return Err(
                                self.err(format!("{arg:?} is not a known pointer variable"))
                            );
                        }
                        args.push(arg);
                        match self.peek() {
                            Some(Tok::Comma) => {
                                self.bump();
                            }
                            _ => break,
                        }
                    }
                }
                self.expect(&Tok::RParen, "')'")?;
                self.expect(&Tok::Semi, "';'")?;
                out.push(Stmt {
                    label,
                    kind: StmtKind::Call { callee, args },
                });
                return Ok(());
            }
            Some(Tok::Ident(kw)) if kw == "if" => {
                self.bump();
                let then_branch = self.parse_block()?;
                let else_branch = if matches!(self.peek(), Some(Tok::Ident(kw)) if kw == "else") {
                    self.bump();
                    self.parse_block()?
                } else {
                    Block::new()
                };
                out.push(Stmt {
                    label,
                    kind: StmtKind::If {
                        then_branch,
                        else_branch,
                    },
                });
                return Ok(());
            }
            _ => {}
        }

        // Assignment statement: lhs = rhs ;
        let lhs_var = self.expect_ident("variable")?;
        let lhs_field = if self.peek() == Some(&Tok::Arrow) {
            self.bump();
            Some(self.expect_ident("field name")?)
        } else {
            None
        };
        self.expect(&Tok::Assign, "'='")?;

        let stmts_before = out.len();
        match lhs_field {
            None => self.parse_var_assign(&lhs_var, out)?,
            Some(field) => self.parse_store(&lhs_var, &field, out)?,
        }
        self.expect(&Tok::Semi, "';'")?;
        // Attach the label to the *last* generated statement (the one that
        // performs the source-level effect).
        if let Some(l) = label {
            let idx = stmts_before.max(out.len().saturating_sub(1));
            if let Some(last) = out.get_mut(idx) {
                last.label = Some(l);
            }
        }
        Ok(())
    }

    /// Interns a field name, refusing one past the symbol table's cap.
    fn field(&self, name: &str) -> Result<Symbol, ParseProgramError> {
        Symbol::try_intern(name).map_err(|e| self.err(e.to_string()))
    }

    fn lookup_type(&self, name: &str) -> Option<&StructDecl> {
        self.types.iter().find(|t| t.name == name)
    }

    fn field_is_pointer(&self, ty: &str, field: &str) -> Result<bool, ParseProgramError> {
        let decl = self
            .lookup_type(ty)
            .ok_or_else(|| self.err(format!("unknown type {ty:?}")))?;
        let sym = self.field(field)?;
        if decl.is_pointer_field(sym) {
            Ok(true)
        } else if decl.is_scalar_field(sym) {
            Ok(false)
        } else {
            Err(self.err(format!("type {ty} has no field {field:?}")))
        }
    }

    fn var_type(&self, var: &str) -> Option<&str> {
        self.var_types.get(var).map(String::as_str)
    }

    fn fresh_temp(&mut self) -> String {
        let t = format!("__t{}", self.temp_counter);
        self.temp_counter += 1;
        t
    }

    /// `lhs = rhs;` with a plain variable destination.
    fn parse_var_assign(
        &mut self,
        dst: &str,
        out: &mut Vec<Stmt>,
    ) -> Result<(), ParseProgramError> {
        match self.bump() {
            Some(Tok::Int(i)) => {
                out.push(Stmt::new(StmtKind::ScalarAssign {
                    var: dst.to_owned(),
                    value: Expr::Int(i),
                }));
                Ok(())
            }
            Some(Tok::Ident(name)) if name == "null" => {
                self.var_types.remove(dst);
                out.push(Stmt::new(StmtKind::PtrNull {
                    dst: dst.to_owned(),
                }));
                Ok(())
            }
            Some(Tok::Ident(name)) if name == "malloc" => {
                self.expect(&Tok::LParen, "'('")?;
                let ty = self.expect_ident("type name")?;
                self.expect(&Tok::RParen, "')'")?;
                if self.lookup_type(&ty).is_none() {
                    return Err(self.err(format!("malloc of unknown type {ty:?}")));
                }
                self.var_types.insert(dst.to_owned(), ty.clone());
                out.push(Stmt::new(StmtKind::PtrNew {
                    dst: dst.to_owned(),
                    ty,
                }));
                Ok(())
            }
            Some(Tok::Ident(src)) => {
                if self.peek() == Some(&Tok::LParen) {
                    // Opaque call.
                    self.bump();
                    self.expect(&Tok::RParen, "')'")?;
                    out.push(Stmt::new(StmtKind::ScalarAssign {
                        var: dst.to_owned(),
                        value: Expr::Call(src),
                    }));
                    return Ok(());
                }
                if self.peek() == Some(&Tok::Arrow) {
                    // Field chain: src->f1->f2->…
                    return self.parse_field_chain(dst, &src, out);
                }
                // Plain variable copy: pointer if src has a pointer type.
                if let Some(ty) = self.var_type(&src).map(str::to_owned) {
                    self.var_types.insert(dst.to_owned(), ty);
                    out.push(Stmt::new(StmtKind::PtrCopy {
                        dst: dst.to_owned(),
                        src,
                    }));
                } else {
                    out.push(Stmt::new(StmtKind::ScalarAssign {
                        var: dst.to_owned(),
                        value: Expr::Var(src),
                    }));
                }
                Ok(())
            }
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }

    /// `dst = src->f1->f2…;` — normalizes a chain into single-field loads.
    fn parse_field_chain(
        &mut self,
        dst: &str,
        src: &str,
        out: &mut Vec<Stmt>,
    ) -> Result<(), ParseProgramError> {
        let mut fields = Vec::new();
        while self.peek() == Some(&Tok::Arrow) {
            self.bump();
            fields.push(self.expect_ident("field name")?);
        }
        let mut cur_ty = self
            .var_type(src)
            .map(str::to_owned)
            .ok_or_else(|| self.err(format!("{src:?} is not a known pointer variable")))?;
        let mut cur_var = src.to_owned();
        for (i, field) in fields.iter().enumerate() {
            let last = i + 1 == fields.len();
            let is_ptr = self.field_is_pointer(&cur_ty, field)?;
            if is_ptr {
                let target = self
                    .lookup_type(&cur_ty)
                    .and_then(|d| d.pointer_target(Symbol::intern(field)))
                    .expect("pointer field has a target")
                    .to_owned();
                // Load into the destination as early as possible so that
                // subsequent hops are self-relative (no fresh handles, per
                // §3.3's induction-variable exception).
                let hop_dst = dst.to_owned();
                out.push(Stmt::new(StmtKind::PtrLoad {
                    dst: hop_dst.clone(),
                    src: cur_var.clone(),
                    field: Symbol::intern(field),
                }));
                self.var_types.insert(hop_dst.clone(), target.clone());
                cur_var = hop_dst;
                cur_ty = target;
            } else {
                // Scalar field: must be the last hop.
                if !last {
                    return Err(self.err(format!(
                        "scalar field {field:?} dereferenced in the middle of a chain"
                    )));
                }
                out.push(Stmt::new(StmtKind::ScalarRead {
                    var: dst.to_owned(),
                    ptr: cur_var.clone(),
                    field: Symbol::intern(field),
                }));
                return Ok(());
            }
        }
        Ok(())
    }

    /// `ptr->field = rhs;`
    fn parse_store(
        &mut self,
        ptr: &str,
        field: &str,
        out: &mut Vec<Stmt>,
    ) -> Result<(), ParseProgramError> {
        let ty = self
            .var_type(ptr)
            .map(str::to_owned)
            .ok_or_else(|| self.err(format!("{ptr:?} is not a known pointer variable")))?;
        let is_ptr_field = self.field_is_pointer(&ty, field)?;
        let fsym = Symbol::intern(field);
        match self.bump() {
            Some(Tok::Int(i)) => {
                if is_ptr_field {
                    return Err(self.err(format!(
                        "cannot store an integer into pointer field {field:?}"
                    )));
                }
                out.push(Stmt::new(StmtKind::ScalarWrite {
                    ptr: ptr.to_owned(),
                    field: fsym,
                    value: Expr::Int(i),
                }));
                Ok(())
            }
            Some(Tok::Ident(name)) if name == "null" => {
                if !is_ptr_field {
                    return Err(self.err("cannot store null into a scalar field"));
                }
                out.push(Stmt::new(StmtKind::PtrStore {
                    ptr: ptr.to_owned(),
                    field: fsym,
                    src: None,
                }));
                Ok(())
            }
            Some(Tok::Ident(src)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.bump();
                    self.expect(&Tok::RParen, "')'")?;
                    if is_ptr_field {
                        return Err(self.err("cannot store a call result into a pointer field"));
                    }
                    out.push(Stmt::new(StmtKind::ScalarWrite {
                        ptr: ptr.to_owned(),
                        field: fsym,
                        value: Expr::Call(src),
                    }));
                    return Ok(());
                }
                if self.peek() == Some(&Tok::Arrow) {
                    // Normalize `p->f = q->g…` via a temporary.
                    let tmp = self.fresh_temp();
                    self.parse_field_chain(&tmp, &src, out)?;
                    if is_ptr_field {
                        out.push(Stmt::new(StmtKind::PtrStore {
                            ptr: ptr.to_owned(),
                            field: fsym,
                            src: Some(tmp),
                        }));
                    } else {
                        // Scalar chain result written to a scalar field.
                        out.push(Stmt::new(StmtKind::ScalarWrite {
                            ptr: ptr.to_owned(),
                            field: fsym,
                            value: Expr::Var(tmp),
                        }));
                    }
                    return Ok(());
                }
                if is_ptr_field {
                    if self.var_type(&src).is_none() {
                        return Err(self.err(format!(
                            "{src:?} is not a known pointer variable (stored into pointer field {field:?})"
                        )));
                    }
                    out.push(Stmt::new(StmtKind::PtrStore {
                        ptr: ptr.to_owned(),
                        field: fsym,
                        src: Some(src),
                    }));
                } else {
                    out.push(Stmt::new(StmtKind::ScalarWrite {
                        ptr: ptr.to_owned(),
                        field: fsym,
                        value: Expr::Var(src),
                    }));
                }
                Ok(())
            }
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }
}

/// Parses a program in the mini pointer language.
///
/// # Errors
///
/// Returns [`ParseProgramError`] with a line number on malformed input,
/// unknown types/fields, or stores of the wrong category (pointer vs
/// scalar).
pub fn parse_program(src: &str) -> Result<Program, ParseProgramError> {
    let mut lexer = Lexer::new(src);
    let mut tokens = Vec::new();
    while let Some(t) = lexer.next()? {
        tokens.push(t);
    }
    let mut parser = Parser {
        tokens,
        pos: 0,
        var_types: HashMap::new(),
        types: Vec::new(),
        temp_counter: 0,
    };
    parser.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TREE_TYPE: &str = r"
        type LLBinaryTree {
            ptr L: LLBinaryTree;
            ptr R: LLBinaryTree;
            ptr N: LLBinaryTree;
            data d;
            axiom A1: forall p, p.L <> p.R;
            axiom A2: forall p <> q, p.(L|R) <> q.(L|R);
            axiom A3: forall p <> q, p.N <> q.N;
            axiom A4: forall p, p.(L|R|N)+ <> p.eps;
        }
    ";

    #[test]
    fn parses_type_with_axioms() {
        let prog = parse_program(TREE_TYPE).unwrap();
        let t = prog.type_decl("LLBinaryTree").unwrap();
        assert_eq!(t.pointers.len(), 3);
        assert_eq!(t.scalars.len(), 1);
        assert_eq!(t.axioms.len(), 4);
        assert!(t.axioms.by_name("A4").is_some());
    }

    #[test]
    fn parses_paper_subr() {
        let src = format!(
            "{TREE_TYPE}
            proc subr(root: LLBinaryTree) {{
                root = root->L;
                p = root->L;
                p = p->N;
            S:  p->d = 100;
                p = root;
                q = root->R;
                q = q->N;
            T:  t = q->d;
            }}"
        );
        let prog = parse_program(&src).unwrap();
        let proc = prog.proc("subr").unwrap();
        assert_eq!(proc.body.stmts.len(), 8);
        assert!(proc.body.find_labeled("S").is_some());
        assert!(proc.body.find_labeled("T").is_some());
        let s = proc.body.find_labeled("S").unwrap();
        assert!(matches!(s.kind, StmtKind::ScalarWrite { .. }));
    }

    #[test]
    fn normalizes_multi_field_chain() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{
                p = root->L->R->N;
            }}"
        );
        let prog = parse_program(&src).unwrap();
        let proc = prog.proc("f").unwrap();
        // One load into p, then two self-relative hops.
        assert_eq!(proc.body.stmts.len(), 3);
        assert!(matches!(
            &proc.body.stmts[0].kind,
            StmtKind::PtrLoad { dst, src, .. } if dst == "p" && src == "root"
        ));
        assert!(matches!(
            &proc.body.stmts[1].kind,
            StmtKind::PtrLoad { dst, src, .. } if dst == "p" && src == "p"
        ));
    }

    #[test]
    fn scalar_chain_reads_through_temp_free_path() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{
                v = root->L->d;
            }}"
        );
        let prog = parse_program(&src).unwrap();
        let proc = prog.proc("f").unwrap();
        assert_eq!(proc.body.stmts.len(), 2);
        assert!(matches!(&proc.body.stmts[1].kind,
            StmtKind::ScalarRead { var, field, .. } if var == "v" && field.as_str() == "d"));
    }

    #[test]
    fn parses_loop_and_if() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{
                p = root;
                loop {{
                    p = p->N;
                U:  p->d = fun();
                }}
                if {{ q = root->L; }} else {{ q = root->R; }}
            }}"
        );
        let prog = parse_program(&src).unwrap();
        let proc = prog.proc("f").unwrap();
        assert!(proc.body.find_labeled("U").is_some());
        assert!(matches!(proc.body.stmts[1].kind, StmtKind::Loop { .. }));
        assert!(matches!(proc.body.stmts[2].kind, StmtKind::If { .. }));
    }

    #[test]
    fn structural_store_classified() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{
                q = malloc(LLBinaryTree);
                root->L = q;
                root->L = null;
            }}"
        );
        let prog = parse_program(&src).unwrap();
        let proc = prog.proc("f").unwrap();
        assert!(matches!(&proc.body.stmts[1].kind,
            StmtKind::PtrStore { src: Some(s), .. } if s == "q"));
        assert!(matches!(
            &proc.body.stmts[2].kind,
            StmtKind::PtrStore { src: None, .. }
        ));
    }

    #[test]
    fn parses_calls() {
        let src = format!(
            "{TREE_TYPE}
            proc helper(t: LLBinaryTree) {{
                t->d = 1;
            }}
            proc f(root: LLBinaryTree) {{
                p = root->L;
                call helper(p);
            }}"
        );
        let prog = parse_program(&src).unwrap();
        let f = prog.proc("f").unwrap();
        assert!(matches!(&f.body.stmts[1].kind,
            StmtKind::Call { callee, args } if callee == "helper" && args == &["p".to_owned()]));
    }

    #[test]
    fn call_rejects_unknown_argument() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{
                call g(zzz);
            }}"
        );
        assert!(parse_program(&src).is_err());
    }

    #[test]
    fn rejects_unknown_field() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{ p = root->Z; }}"
        );
        let err = parse_program(&src).unwrap_err();
        assert!(err.message.contains("no field"));
    }

    #[test]
    fn rejects_int_into_pointer_field() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{ root->L = 5; }}"
        );
        assert!(parse_program(&src).is_err());
    }

    #[test]
    fn rejects_unknown_pointer_variable() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{ p = zzz->L; }}"
        );
        assert!(parse_program(&src).is_err());
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_program("type T {\n  bogus;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn over_long_field_names_are_parse_errors() {
        let long = "f".repeat(apt_regex::MAX_FIELD_NAME + 1);
        let limit = format!(
            "field name of {} bytes exceeds the {}-byte limit",
            long.len(),
            apt_regex::MAX_FIELD_NAME
        );
        for (src, line) in [
            (format!("type T {{\n  ptr {long}: T;\n}}"), 2),
            (format!("type T {{\n  data {long};\n}}"), 2),
            (
                format!("{TREE_TYPE}\nproc f(root: LLBinaryTree) {{\n  p = root->{long};\n}}"),
                14,
            ),
        ] {
            let err = parse_program(&src).unwrap_err();
            assert_eq!(err.line, line, "{}", err.message);
            assert!(err.message.contains(&limit), "{}", err.message);
        }
        let axiom = format!("type T {{\n  ptr L: T;\n  axiom A1: forall p, p.L <> p.{long};\n}}");
        let err = parse_program(&axiom).unwrap_err();
        assert!(err.message.contains(&limit), "{}", err.message);
    }

    #[test]
    fn comments_are_skipped() {
        let src = format!(
            "{TREE_TYPE}
            proc f(root: LLBinaryTree) {{
                // the paper's first step
                p = root->L;
            }}"
        );
        assert!(parse_program(&src).is_ok());
    }
}
