//! The UTS specification language.
//!
//! An *export specification* is written for each procedure that is publicly
//! available; a nearly identical *import specification* accompanies the
//! invoking code. The syntax is Pascal-like; the shaft example from the
//! paper parses verbatim:
//!
//! ```text
//! export setshaft prog(
//!     "ecom"   val array[4] of float,
//!     "incom"  val integer,
//!     "etur"   val array[4] of float,
//!     "intur"  val integer,
//!     "ecorr"  res float)
//! ```
//!
//! Grammar (EBNF; `#` starts a comment running to end of line):
//!
//! ```text
//! specfile := { decl }
//! decl     := ("export" | "import") IDENT "prog" "(" [ params ] ")" [ state ]
//! params   := param { "," param }
//! param    := STRING ("val" | "res" | "var") type
//! type     := "integer" | "float" | "double" | "byte" | "boolean" | "string"
//!           | "array" "[" NUMBER "]" "of" type
//!           | "record" "(" STRING type { "," STRING type } ")" "end"
//! state    := "state" "(" STRING type { "," STRING type } ")"
//! ```
//!
//! A type nests at most 32 `array`/`record` levels deep; a deeper one is
//! a parse error at the keyword that opens level 33.
//!
//! The `state(...)` clause is the paper's planned extension for procedure
//! migration: it lists the state variables whose values are packaged
//! through UTS when a procedure instance is moved between machines.

use crate::error::{Error, Result};
use crate::types::{ParamMode, Type};

/// Whether a declaration offers a procedure or consumes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `export`: this side implements the procedure.
    Export,
    /// `import`: this side calls the procedure.
    Import,
}

/// One named, moded, typed parameter of a procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// The quoted parameter name from the spec.
    pub name: String,
    /// `val`, `res`, or `var`.
    pub mode: ParamMode,
    /// The parameter's UTS type.
    pub ty: Type,
}

/// A parsed `export`/`import` declaration for one procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcSpec {
    /// Export or import.
    pub direction: Direction,
    /// Procedure name as written (case preserved; case folding is the
    /// Manager's job).
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Parameter>,
    /// Migration state variables (empty unless the extension is used).
    pub state: Vec<(String, Type)>,
}

impl ProcSpec {
    /// Parameters that travel caller→callee (`val` and `var`).
    pub fn input_params(&self) -> impl Iterator<Item = &Parameter> {
        self.params.iter().filter(|p| p.mode.is_input())
    }

    /// Parameters that travel callee→caller (`res` and `var`).
    pub fn output_params(&self) -> impl Iterator<Item = &Parameter> {
        self.params.iter().filter(|p| p.mode.is_output())
    }

    /// A canonical textual signature used for equality diagnostics.
    pub fn signature(&self) -> String {
        let parts: Vec<String> =
            self.params.iter().map(|p| format!("\"{}\" {} {}", p.name, p.mode, p.ty)).collect();
        format!("prog({})", parts.join(", "))
    }

    /// Render this declaration back to specification-language source.
    /// `parse_spec_file(spec.to_source())` reproduces the declaration.
    pub fn to_source(&self) -> String {
        let dir = match self.direction {
            Direction::Export => "export",
            Direction::Import => "import",
        };
        let mut out = format!("{dir} {} {}", self.name, self.signature());
        if !self.state.is_empty() {
            let parts: Vec<String> =
                self.state.iter().map(|(n, t)| format!("\"{n}\" {t}")).collect();
            out.push_str(&format!(" state({})", parts.join(", ")));
        }
        out
    }
}

/// All declarations parsed from one specification file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecFile {
    /// Declarations in file order.
    pub decls: Vec<ProcSpec>,
}

impl SpecFile {
    /// Find a declaration by (case-sensitive) name.
    pub fn find(&self, name: &str) -> Option<&ProcSpec> {
        self.decls.iter().find(|d| d.name == name)
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(usize),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Eof,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse { line: self.line, col: self.col, msg: msg.into() }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = *self.src.get(self.pos)?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia();
        let line = self.line;
        let col = self.col;
        let tok = match self.peek() {
            None => Tok::Eof,
            Some(b'(') => {
                self.bump();
                Tok::LParen
            }
            Some(b')') => {
                self.bump();
                Tok::RParen
            }
            Some(b'[') => {
                self.bump();
                Tok::LBracket
            }
            Some(b']') => {
                self.bump();
                Tok::RBracket
            }
            Some(b',') => {
                self.bump();
                Tok::Comma
            }
            Some(b'"') => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(c) => s.push(c as char),
                        None => return Err(self.err("unterminated string literal")),
                    }
                }
                Tok::Str(s)
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n: usize = 0;
                while let Some(c) = self.peek() {
                    if !c.is_ascii_digit() {
                        break;
                    }
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add((c - b'0') as usize))
                        .ok_or_else(|| self.err("number too large"))?;
                    self.bump();
                }
                Tok::Num(n)
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if !(c.is_ascii_alphanumeric() || c == b'_' || c == b'-') {
                        break;
                    }
                    s.push(c as char);
                    self.bump();
                }
                Tok::Ident(s)
            }
            Some(c) => return Err(self.err(format!("unexpected character '{}'", c as char))),
        };
        Ok(Token { tok, line, col })
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How many `array … of` and `record` levels one type may nest. Spec text
/// arrives in messages, and the parser recurses once per level.
const MAX_TYPE_DEPTH: usize = 32;

struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Token,
    /// `array`/`record` levels open around the type being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self> {
        let mut lexer = Lexer::new(src);
        let lookahead = lexer.next_token()?;
        Ok(Self { lexer, lookahead, depth: 0 })
    }

    fn err_at(&self, msg: impl Into<String>) -> Error {
        Error::Parse { line: self.lookahead.line, col: self.lookahead.col, msg: msg.into() }
    }

    fn advance(&mut self) -> Result<Token> {
        let next = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.lookahead, next))
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<()> {
        if &self.lookahead.tok == want {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err_at(format!("expected {what}, found {:?}", self.lookahead.tok)))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.lookahead.tok.clone() {
            Tok::Ident(s) => {
                self.advance()?;
                Ok(s)
            }
            other => Err(self.err_at(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match &self.lookahead.tok {
            Tok::Ident(s) if s == kw => {
                self.advance()?;
                Ok(())
            }
            other => Err(self.err_at(format!("expected '{kw}', found {other:?}"))),
        }
    }

    fn expect_string(&mut self) -> Result<String> {
        match self.lookahead.tok.clone() {
            Tok::Str(s) => {
                self.advance()?;
                Ok(s)
            }
            other => Err(self.err_at(format!("expected quoted name, found {other:?}"))),
        }
    }

    fn parse_type(&mut self) -> Result<Type> {
        let (line, col) = (self.lookahead.line, self.lookahead.col);
        let ident = self.expect_ident()?;
        match ident.as_str() {
            "integer" => Ok(Type::Integer),
            "float" => Ok(Type::Float),
            "double" => Ok(Type::Double),
            "byte" => Ok(Type::Byte),
            "boolean" => Ok(Type::Boolean),
            "string" => Ok(Type::String),
            "array" | "record" if self.depth == MAX_TYPE_DEPTH => Err(Error::Parse {
                line,
                col,
                msg: format!("type nested more than {MAX_TYPE_DEPTH} levels deep"),
            }),
            "array" => {
                self.expect(&Tok::LBracket, "'['")?;
                let len = match self.lookahead.tok {
                    Tok::Num(n) => {
                        self.advance()?;
                        n
                    }
                    _ => return Err(self.err_at("expected array length")),
                };
                if len == 0 {
                    return Err(self.err_at("array length must be positive"));
                }
                self.expect(&Tok::RBracket, "']'")?;
                self.expect_keyword("of")?;
                let elem = self.parse_inner_type()?;
                Ok(Type::Array { len, elem: Box::new(elem) })
            }
            "record" => {
                self.expect(&Tok::LParen, "'('")?;
                let mut fields = Vec::new();
                loop {
                    let name = self.expect_string()?;
                    let ty = self.parse_inner_type()?;
                    if fields.iter().any(|(n, _): &(String, Type)| n == &name) {
                        return Err(self.err_at(format!("duplicate record field \"{name}\"")));
                    }
                    fields.push((name, ty));
                    if self.lookahead.tok == Tok::Comma {
                        self.advance()?;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RParen, "')'")?;
                self.expect_keyword("end")?;
                Ok(Type::Record { fields })
            }
            other => Err(self.err_at(format!("unknown type '{other}'"))),
        }
    }

    /// An array's element type or a record's field type: one level deeper.
    fn parse_inner_type(&mut self) -> Result<Type> {
        self.depth += 1;
        let ty = self.parse_type();
        self.depth -= 1;
        ty
    }

    fn parse_mode(&mut self) -> Result<ParamMode> {
        let ident = self.expect_ident()?;
        match ident.as_str() {
            "val" => Ok(ParamMode::Val),
            "res" => Ok(ParamMode::Res),
            "var" => Ok(ParamMode::Var),
            other => Err(self.err_at(format!("expected val/res/var, found '{other}'"))),
        }
    }

    fn parse_decl(&mut self, direction: Direction) -> Result<ProcSpec> {
        let name = self.expect_ident()?;
        self.expect_keyword("prog")?;
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        if self.lookahead.tok != Tok::RParen {
            loop {
                let pname = self.expect_string()?;
                let mode = self.parse_mode()?;
                let ty = self.parse_type()?;
                if params.iter().any(|p: &Parameter| p.name == pname) {
                    return Err(self.err_at(format!("duplicate parameter \"{pname}\"")));
                }
                params.push(Parameter { name: pname, mode, ty });
                if self.lookahead.tok == Tok::Comma {
                    self.advance()?;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;

        let mut state = Vec::new();
        if let Tok::Ident(s) = &self.lookahead.tok {
            if s == "state" {
                self.advance()?;
                self.expect(&Tok::LParen, "'('")?;
                loop {
                    let sname = self.expect_string()?;
                    let ty = self.parse_type()?;
                    if state.iter().any(|(n, _): &(String, Type)| n == &sname) {
                        return Err(self.err_at(format!("duplicate state variable \"{sname}\"")));
                    }
                    state.push((sname, ty));
                    if self.lookahead.tok == Tok::Comma {
                        self.advance()?;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RParen, "')'")?;
            }
        }

        Ok(ProcSpec { direction, name, params, state })
    }

    fn parse_file(&mut self) -> Result<SpecFile> {
        let mut decls: Vec<ProcSpec> = Vec::new();
        loop {
            match &self.lookahead.tok {
                Tok::Eof => break,
                Tok::Ident(s) if s == "export" => {
                    self.advance()?;
                    decls.push(self.parse_decl(Direction::Export)?);
                }
                Tok::Ident(s) if s == "import" => {
                    self.advance()?;
                    decls.push(self.parse_decl(Direction::Import)?);
                }
                other => {
                    return Err(
                        self.err_at(format!("expected 'export' or 'import', found {other:?}"))
                    )
                }
            }
        }
        for (i, d) in decls.iter().enumerate() {
            if decls[..i].iter().any(|e| e.name == d.name) {
                return Err(Error::Other(format!(
                    "duplicate declaration of procedure '{}'",
                    d.name
                )));
            }
        }
        Ok(SpecFile { decls })
    }
}

/// Parse the text of a specification file.
pub fn parse_spec_file(src: &str) -> Result<SpecFile> {
    Parser::new(src)?.parse_file()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shaft export specification, verbatim from the paper.
    pub const SHAFT_SPEC: &str = r#"
export setshaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  res float)

export shaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  val float,
    "xspool" val float,
    "xmyi"   val float,
    "dxspl"  res float)
"#;

    fn farr4() -> Type {
        Type::Array { len: 4, elem: Box::new(Type::Float) }
    }

    #[test]
    fn parses_the_papers_shaft_spec() {
        let file = parse_spec_file(SHAFT_SPEC).unwrap();
        assert_eq!(file.decls.len(), 2);

        let setshaft = file.find("setshaft").unwrap();
        assert_eq!(setshaft.direction, Direction::Export);
        assert_eq!(setshaft.params.len(), 5);
        assert_eq!(setshaft.params[0].name, "ecom");
        assert_eq!(setshaft.params[0].mode, ParamMode::Val);
        assert_eq!(setshaft.params[0].ty, farr4());
        assert_eq!(setshaft.params[4].name, "ecorr");
        assert_eq!(setshaft.params[4].mode, ParamMode::Res);
        assert_eq!(setshaft.params[4].ty, Type::Float);

        let shaft = file.find("shaft").unwrap();
        assert_eq!(shaft.params.len(), 8);
        assert_eq!(shaft.params[7].name, "dxspl");
        assert_eq!(shaft.params[7].mode, ParamMode::Res);
        assert_eq!(shaft.input_params().count(), 7);
        assert_eq!(shaft.output_params().count(), 1);
    }

    #[test]
    fn import_matches_export_shape() {
        let src = SHAFT_SPEC.replace("export", "import");
        let file = parse_spec_file(&src).unwrap();
        assert_eq!(file.decls[0].direction, Direction::Import);
        let exp = parse_spec_file(SHAFT_SPEC).unwrap();
        assert_eq!(file.decls[0].params, exp.decls[0].params);
    }

    #[test]
    fn parses_var_mode() {
        let file = parse_spec_file(r#"export f prog("x" var double)"#).unwrap();
        assert_eq!(file.decls[0].params[0].mode, ParamMode::Var);
    }

    #[test]
    fn parses_record_type() {
        let src = r#"export f prog("p" val record ("x" double, "names" array[2] of string) end)"#;
        let file = parse_spec_file(src).unwrap();
        match &file.decls[0].params[0].ty {
            Type::Record { fields } => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].0, "x");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_state_clause() {
        let src = r#"
export integrator prog("dt" val double, "y" res double)
    state("t" double, "history" array[4] of double)
"#;
        let file = parse_spec_file(src).unwrap();
        let d = &file.decls[0];
        assert_eq!(d.state.len(), 2);
        assert_eq!(d.state[0].0, "t");
        assert_eq!(d.state[1].1, Type::Array { len: 4, elem: Box::new(Type::Double) });
    }

    #[test]
    fn parses_empty_parameter_list() {
        let file = parse_spec_file("export ping prog()").unwrap();
        assert!(file.decls[0].params.is_empty());
    }

    #[test]
    fn comments_are_skipped() {
        let src = "# header comment\nexport f prog(\n  # the input\n  \"x\" val double)\n";
        let file = parse_spec_file(src).unwrap();
        assert_eq!(file.decls[0].params.len(), 1);
    }

    #[test]
    fn error_has_position() {
        let err = parse_spec_file("export f prog(\"x\" val wibble)").unwrap_err();
        match err {
            Error::Parse { line, msg, .. } => {
                assert_eq!(line, 1);
                assert!(msg.contains("wibble"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_parameter_rejected() {
        let err = parse_spec_file(r#"export f prog("x" val double, "x" res double)"#).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn duplicate_procedure_rejected() {
        let err = parse_spec_file("export f prog()\nexport f prog()").unwrap_err();
        assert!(matches!(err, Error::Other(_)));
    }

    #[test]
    fn zero_length_array_rejected() {
        assert!(parse_spec_file(r#"export f prog("x" val array[0] of float)"#).is_err());
    }

    /// `n` nested `array[1] of` levels, or `record ("f" … ) end` levels,
    /// around an integer, as the one parameter of a declaration.
    fn nested_spec(n: usize, record: bool) -> String {
        let (open, close) =
            if record { ("record (\"f\" ", ") end ") } else { ("array[1] of ", "") };
        format!("export f prog(\"p\" val {}integer {})", open.repeat(n), close.repeat(n))
    }

    /// Spec text arrives in messages: nesting past the bound is a parse
    /// error at the keyword that opens level 33, never a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        for record in [false, true] {
            let file = parse_spec_file(&nested_spec(MAX_TYPE_DEPTH, record)).unwrap();
            let mut ty = &file.decls[0].params[0].ty;
            for _ in 0..MAX_TYPE_DEPTH {
                ty = match ty {
                    Type::Array { elem, .. } => elem,
                    Type::Record { fields } => &fields[0].1,
                    other => panic!("{other:?}"),
                };
            }
            assert_eq!(ty, &Type::Integer);
            // Both openers are 12 characters; the first starts at column 23.
            let col = 23 + 12 * MAX_TYPE_DEPTH;
            for n in [100_000, MAX_TYPE_DEPTH + 1] {
                match parse_spec_file(&nested_spec(n, record)) {
                    Err(Error::Parse { line: 1, col: c, msg }) => {
                        assert_eq!(c, col, "{msg}");
                        assert!(msg.contains("nested"), "{msg}");
                    }
                    other => panic!("{n} levels: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(parse_spec_file(r#"export f prog("x val double)"#).is_err());
    }

    #[test]
    fn to_source_round_trips() {
        let src = r#"
export integrator prog("dt" val double, "y" res double)
    state("t" double, "history" array[4] of double)
import probe prog()
"#;
        let file = parse_spec_file(src).unwrap();
        for decl in &file.decls {
            let rendered = decl.to_source();
            let reparsed = parse_spec_file(&rendered).unwrap();
            assert_eq!(&reparsed.decls[0], decl, "source: {rendered}");
        }
    }

    #[test]
    fn signature_rendering() {
        let file =
            parse_spec_file(r#"export f prog("x" val array[2] of float, "y" res double)"#).unwrap();
        assert_eq!(
            file.decls[0].signature(),
            "prog(\"x\" val array[2] of float, \"y\" res double)"
        );
    }
}
