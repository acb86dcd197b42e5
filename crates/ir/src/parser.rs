//! Parsing of the textual IR form produced by [`crate::printer`].
//!
//! The parser accepts the generic-operation grammar:
//!
//! ```text
//! op        := (results '=')? string '(' operands? ')' regions? attrs? ':' functype
//! regions   := '(' region (',' region)* ')'
//! region    := '{' block* '}'
//! block     := ('^' ident ('(' %id ':' type (',' ...)* ')')? ':')? op*
//! attrs     := '{' key '=' value (',' ...)* '}'
//! functype  := '(' types? ')' '->' (type | '(' types? ')')
//! ```
//!
//! It makes one forward pass over the input `&str`:
//!
//! - Tokens borrow slices of the input. A string literal is copied only
//!   when it holds an escape; op names and attribute keys go straight
//!   into [`Name`]s and operand lists into an [`IdVec`].
//! - One token of lookahead: a token peeked to choose a branch is kept
//!   and handed to the next reader, so no token is lexed twice. Expected
//!   punctuation is matched on its spelling without building a token;
//!   anything else is left to the lexer, which reports it where it always
//!   has.
//! - Only a byte offset is tracked. Line and column are counted from it
//!   when an error is built.
//! - SSA names live in one map from name to value (`Scope`), hashed by
//!   the in-crate [`FxHasher`](crate::hash::FxHasher).
//!   Inside a region each definition logs the definition it shadows, and
//!   the region rolls the log back when it closes, so outer names
//!   reappear.
//! - A type is read straight from the input: its text runs to the next
//!   `,`, `)`, `}`, `]` or newline outside angle brackets. Each distinct
//!   type text is parsed once per module and cloned after that.
//!
//! String literals, op names and type texts are UTF-8, like the input: a
//! literal's escapes are `\n`, `\t`, `\"` and `\\`, and every other
//! character stands for itself.
//!
//! Printing a parsed module reproduces the input exactly (module-level
//! round-trip property tests live in `tests/`).

use crate::attr::{Attr, AttrMap};
use crate::error::{IrError, IrResult};
use crate::hash::FxHashMap;
use crate::inline::{IdVec, Name};
use crate::module::{BlockId, Module, RegionId, ValueId};
use crate::types::Type;
use std::borrow::Cow;

/// Parses the textual form of a module.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with line/column information when the input
/// does not conform to the grammar, references an undefined value, or states
/// operand types that disagree with the defining op.
///
/// # Examples
///
/// ```
/// use equeue_ir::parse_module;
/// let m = parse_module("%c = \"arith.constant\"() {value = 3} : () -> i32\n")?;
/// assert_eq!(m.find_all("arith.constant").len(), 1);
/// # Ok::<(), equeue_ir::IrError>(())
/// ```
pub fn parse_module(text: &str) -> IrResult<Module> {
    let mut p = Parser::new(text);
    let mut module = Module::new();
    let top = module.top_block();
    loop {
        p.skip_ws();
        if p.pos >= p.bytes.len() {
            break;
        }
        p.parse_op(&mut module, top)?;
    }
    Ok(module)
}

/// Parses a type from its textual form, e.g. `"memref<4x4xf32>"`.
///
/// # Errors
///
/// Returns [`IrError::Parse`] for unknown type syntax, located at the
/// type's first character within `text`.
///
/// # Examples
///
/// ```
/// use equeue_ir::{parse_type, Type};
/// assert_eq!(parse_type("!equeue.buffer<64xi32>")?, Type::buffer(vec![64], Type::I32));
/// assert_eq!(parse_type("index")?, Type::Index);
/// # Ok::<(), equeue_ir::IrError>(())
/// ```
pub fn parse_type(text: &str) -> IrResult<Type> {
    type_of(text).map_err(|msg| {
        let (line, col) = line_col(text.as_bytes(), text.len() - text.trim_start().len());
        IrError::Parse { line, col, msg }
    })
}

/// The 1-based line and column of byte offset `pos` in `text`; a column
/// counts bytes.
fn line_col(text: &[u8], pos: usize) -> (usize, usize) {
    let before = text.get(..pos).unwrap_or(text);
    let line_start = before
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |i| i + 1);
    (
        1 + before.iter().filter(|&&c| c == b'\n').count(),
        1 + before.len() - line_start,
    )
}

/// The types one keyword names.
const KEYWORD_TYPES: [(&str, Type); 16] = [
    ("i1", Type::I1),
    ("i8", Type::I8),
    ("i16", Type::I16),
    ("i32", Type::I32),
    ("i64", Type::I64),
    ("f32", Type::F32),
    ("f64", Type::F64),
    ("index", Type::Index),
    ("none", Type::None),
    ("!equeue.signal", Type::Signal),
    ("!equeue.proc", Type::Proc),
    ("!equeue.mem", Type::Mem),
    ("!equeue.dma", Type::Dma),
    ("!equeue.comp", Type::Comp),
    ("!equeue.conn", Type::Conn),
    ("!equeue.any", Type::Any),
];

/// Parses a type text. Every level is trimmed; a shaped type's body is a
/// run of `NNx` dims followed by the element type.
fn type_of(text: &str) -> Result<Type, String> {
    let t = text.trim();
    if let Some((_, ty)) = KEYWORD_TYPES.iter().find(|(k, _)| *k == t) {
        return Ok(ty.clone());
    }
    let body = |prefix: &str| t.strip_prefix(prefix)?.strip_prefix('<')?.strip_suffix('>');
    if let Some(b) = body("memref") {
        let (shape, elem) = shape_body(b)?;
        Ok(Type::memref(shape, elem))
    } else if let Some(b) = body("tensor") {
        let (shape, elem) = shape_body(b)?;
        Ok(Type::tensor(shape, elem))
    } else if let Some(b) = body("!equeue.buffer") {
        let (shape, elem) = shape_body(b)?;
        Ok(Type::buffer(shape, elem))
    } else {
        Err(format!("unknown type '{t}'"))
    }
}

/// Splits `4x4xf32`-style bodies: leading `NNx` runs are dims, the rest is
/// the element type.
fn shape_body(body: &str) -> Result<(Vec<usize>, Type), String> {
    let mut dims = vec![];
    let mut rest = body;
    loop {
        let n = rest.bytes().take_while(u8::is_ascii_digit).count();
        let (digits, after) = rest.split_at_checked(n).unwrap_or((rest, ""));
        match after.strip_prefix('x') {
            Some(tail) if n > 0 => {
                let dim = digits
                    .parse::<usize>()
                    .map_err(|e| format!("bad dimension '{digits}': {e}"))?;
                dims.push(dim);
                rest = tail;
            }
            _ => break,
        }
    }
    Ok((dims, type_of(rest)?))
}

#[derive(Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Percent(&'a str),
    Caret(&'a str),
    /// A string literal's text between the quotes, escapes still in it.
    /// `plain` when it holds no escape, so that the text is its own value.
    Str {
        raw: &'a str,
        plain: bool,
    },
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Equal,
    Colon,
    Arrow,
    Eof,
}

impl Tok<'_> {
    fn describe(&self) -> String {
        match *self {
            Tok::Ident(s) => format!("identifier '{s}'"),
            Tok::Percent(s) => format!("value '%{s}'"),
            Tok::Caret(s) => format!("block label '^{s}'"),
            Tok::Str { raw, plain } => format!("string {:?}", unescape(raw, plain)),
            Tok::Int(v) => format!("integer {v}"),
            Tok::Float(v) => format!("float {v}"),
            Tok::Eof => "end of input".into(),
            punct => format!("'{}'", punct.spelling()),
        }
    }

    /// How a punctuation token is spelt; empty for any other token.
    fn spelling(&self) -> &'static str {
        match self {
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Comma => ",",
            Tok::Equal => "=",
            Tok::Colon => ":",
            Tok::Arrow => "->",
            _ => "",
        }
    }
}

/// The value of a string literal whose escapes the lexer has checked.
fn unescape(raw: &str, plain: bool) -> Cow<'_, str> {
    if plain {
        return Cow::Borrowed(raw);
    }
    let mut s = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        let ch = if c == '\\' {
            match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(e) => e,
                None => '\\',
            }
        } else {
            c
        };
        s.push(ch);
    }
    Cow::Owned(s)
}

fn starts_ident(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b'!'
}

fn ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'!')
}

/// Whether `s` lexes as one identifier, so an attribute key can be
/// printed without quotes.
pub(crate) fn is_bare_ident(s: &str) -> bool {
    s.as_bytes()
        .split_first()
        .is_some_and(|(&first, rest)| starts_ident(first) && rest.iter().all(|&c| ident_char(c)))
}

/// Every type a module's text names, parsed once per distinct text, in
/// the order the texts first appear.
#[derive(Default)]
struct TypeTable<'a> {
    slot: FxHashMap<&'a str, usize>,
    types: Vec<Type>,
}

/// The SSA names in scope: one map from name to value with an undo log.
///
/// Inside a region each definition logs the one it shadows, and closing
/// the region undoes its log. Top-level definitions are never undone, so
/// they are not logged.
#[derive(Default)]
struct Scope<'a> {
    names: FxHashMap<&'a str, ValueId>,
    shadowed: Vec<(&'a str, Option<ValueId>)>,
    /// Regions open around the cursor.
    depth: usize,
}

impl<'a> Scope<'a> {
    fn lookup(&self, name: &str) -> Option<ValueId> {
        self.names.get(name).copied()
    }

    /// Brings `name` into scope, shadowing any outer definition.
    fn define(&mut self, name: &'a str, v: ValueId) {
        let outer = self.names.insert(name, v);
        if self.depth > 0 {
            self.shadowed.push((name, outer));
        }
    }

    /// Opens a region's scope; returns the mark that closes it.
    fn open(&mut self) -> usize {
        self.depth += 1;
        self.shadowed.len()
    }

    fn close(&mut self, mark: usize) {
        for (name, outer) in self.shadowed.drain(mark..).rev() {
            match outer {
                Some(v) => self.names.insert(name, v),
                None => self.names.remove(name),
            };
        }
        self.depth -= 1;
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// A token peeked but not consumed, with the offset just past it.
    ahead: Option<(Tok<'a>, usize)>,
    /// The SSA names in scope.
    scope: Scope<'a>,
    /// Result and block-argument names waiting for their values. It is a
    /// stack, since an op's regions are parsed between its result names
    /// and its signature.
    pending: Vec<&'a str>,
    types: TypeTable<'a>,
    /// The result types of the op being finished, as `types` slots.
    sig: Vec<usize>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            src: text,
            bytes: text.as_bytes(),
            pos: 0,
            ahead: None,
            scope: Scope::default(),
            pending: vec![],
            types: TypeTable::default(),
            sig: vec![],
        }
    }

    fn err(&self, msg: impl Into<String>) -> IrError {
        self.err_at(self.pos, msg)
    }

    /// An error at byte offset `pos`, with its 1-based line and column.
    fn err_at(&self, pos: usize, msg: impl Into<String>) -> IrError {
        let (line, col) = line_col(self.bytes, pos);
        IrError::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn slice(&self, start: usize, end: usize) -> &'a str {
        self.src.get(start..end).unwrap_or("")
    }

    /// The character that starts at byte `pos`.
    fn char_at(&self, pos: usize) -> Option<char> {
        self.src.get(pos..).and_then(|r| r.chars().next())
    }

    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// Skips whitespace and `//` comments.
    fn skip_ws(&mut self) {
        if self
            .bytes
            .get(self.pos)
            .is_some_and(|&c| c > b' ' && c != b'/')
        {
            return;
        }
        loop {
            self.scan(|c| c.is_ascii_whitespace());
            let rest = self.rest();
            if !rest.starts_with(b"//") {
                return;
            }
            self.pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
        }
    }

    /// Advances over bytes that `keep` accepts and returns them.
    fn scan(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let rest = self.rest();
        self.pos += rest.iter().position(|&c| !keep(c)).unwrap_or(rest.len());
        self.slice(start, self.pos)
    }

    fn lex(&mut self) -> IrResult<Tok<'a>> {
        self.skip_ws();
        let Some(&c) = self.bytes.get(self.pos) else {
            return Ok(Tok::Eof);
        };
        let punct = match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b',' => Tok::Comma,
            b'=' => Tok::Equal,
            b':' => Tok::Colon,
            b'-' => {
                self.pos += 1;
                return match self.bytes.get(self.pos) {
                    Some(b'>') => {
                        self.pos += 1;
                        Ok(Tok::Arrow)
                    }
                    Some(d) if d.is_ascii_digit() => self.lex_number(self.pos - 1),
                    _ => Err(self.err("expected '->' or a number after '-'")),
                };
            }
            b'"' => {
                let (raw, plain) = self.lex_string()?;
                return Ok(Tok::Str { raw, plain });
            }
            b'%' => {
                self.pos += 1;
                return Ok(Tok::Percent(self.lex_suffix_ident()?));
            }
            b'^' => {
                self.pos += 1;
                return Ok(Tok::Caret(self.lex_suffix_ident()?));
            }
            d if d.is_ascii_digit() => return self.lex_number(self.pos),
            a if starts_ident(a) => {
                return Ok(Tok::Ident(self.scan(ident_char)));
            }
            other => {
                let c = self.char_at(self.pos).unwrap_or(char::from(other));
                return Err(self.err(format!("unexpected character '{c}'")));
            }
        };
        self.pos += 1;
        Ok(punct)
    }

    fn lex_suffix_ident(&mut self) -> IrResult<&'a str> {
        let s = self.scan(|c| c.is_ascii_alphanumeric() || c == b'_');
        if s.is_empty() {
            return Err(self.err("expected an identifier"));
        }
        Ok(s)
    }

    /// Lexes a number whose text starts at `start` (a `-` or a digit).
    fn lex_number(&mut self, start: usize) -> IrResult<Tok<'a>> {
        self.scan(|c| c.is_ascii_digit());
        let float = self.bytes.get(self.pos) == Some(&b'.');
        if float {
            self.pos += 1;
            self.scan(|c| c.is_ascii_digit());
        }
        let text = self.slice(start, self.pos);
        if float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| self.err(format!("bad float: {e}")))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.err(format!("bad integer: {e}")))
        }
    }

    /// Lexes a string literal at the opening quote; returns its raw text
    /// and whether that text is its own value.
    fn lex_string(&mut self) -> IrResult<(&'a str, bool)> {
        self.pos += 1;
        let start = self.pos;
        let mut plain = true;
        loop {
            // Up to the next quote or escape.
            let rest = self.rest();
            let Some(i) = rest.iter().position(|&c| c == b'"' || c == b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += i + 1;
            if rest[i] == b'"' {
                return Ok((self.slice(start, self.pos - 1), plain));
            }
            plain = false;
            let escaped = self.char_at(self.pos);
            if escaped.is_some() {
                self.pos += 1;
            }
            if !matches!(escaped, Some('n' | 't' | '"' | '\\')) {
                return Err(self.err(format!("bad escape '\\{escaped:?}'")));
            }
        }
    }

    /// The next token, left unconsumed.
    fn peek(&mut self) -> IrResult<Tok<'a>> {
        if let Some((t, _)) = self.ahead {
            return Ok(t);
        }
        let start = self.pos;
        let t = self.lex()?;
        self.ahead = Some((t, self.pos));
        self.pos = start;
        Ok(t)
    }

    /// Consumes the peeked token.
    fn bump(&mut self) {
        if let Some((_, end)) = self.ahead.take() {
            self.pos = end;
        }
    }

    fn next(&mut self) -> IrResult<Tok<'a>> {
        match self.ahead.take() {
            Some((t, end)) => {
                self.pos = end;
                Ok(t)
            }
            None => self.lex(),
        }
    }

    /// Consumes the punctuation spelt `spelt` if it is next. When nothing
    /// is peeked, the input's bytes decide: they spell that token exactly
    /// when it is next, and any other token is left for the next reader to
    /// lex (and to report, if it is malformed). Always inlined, so that
    /// each literal `spelt` compiles to a byte test.
    #[inline(always)]
    fn eat(&mut self, spelt: &str) -> bool {
        if let Some((t, end)) = self.ahead {
            let found = t.spelling() == spelt;
            if found {
                self.ahead = None;
                self.pos = end;
            }
            return found;
        }
        self.skip_ws();
        let found = self.rest().starts_with(spelt.as_bytes());
        if found {
            self.pos += spelt.len();
        }
        found
    }

    /// Consumes the punctuation spelt `spelt`, or reports the token found
    /// instead.
    #[inline(always)]
    fn expect(&mut self, spelt: &str) -> IrResult<()> {
        if self.eat(spelt) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{spelt}'")))
        }
    }

    /// The error for the next token, which is not the `wanted` one; or the
    /// error lexing it.
    fn unexpected(&mut self, wanted: &str) -> IrError {
        match self.next() {
            Ok(t) => self.err(format!("expected {wanted}, found {}", t.describe())),
            Err(e) => e,
        }
    }

    /// Lexes the token where a type starts, so that a malformed one is
    /// reported by the lexer. A type name starts like an identifier, whose
    /// token cannot fail to lex, so that case lexes nothing. Nor does a
    /// non-ASCII character, which no token starts with: the type reader
    /// reports the text as an unknown type, as it does inside a shape.
    fn lex_type_start(&mut self) -> IrResult<()> {
        if self.ahead.is_none() {
            self.skip_ws();
            if self
                .bytes
                .get(self.pos)
                .is_some_and(|&c| starts_ident(c) || !c.is_ascii())
            {
                return Ok(());
            }
        }
        self.peek().map(drop)
    }

    /// Reads a type at the cursor and returns its slot in the type table.
    fn type_here(&mut self) -> IrResult<usize> {
        self.ahead = None;
        self.skip_ws();
        let start = self.pos;
        let rest = self.rest();
        let mut depth = 0usize;
        let len = rest
            .iter()
            .position(|&c| match c {
                b'<' => {
                    depth += 1;
                    false
                }
                b'>' if depth > 0 => {
                    depth -= 1;
                    false
                }
                b'>' | b',' | b')' | b'}' | b']' | b'\n' => depth == 0,
                _ => false,
            })
            .unwrap_or(rest.len());
        self.pos += len;
        let text = self.slice(start, self.pos).trim();
        if let Some(&slot) = self.types.slot.get(text) {
            return Ok(slot);
        }
        let slot = self.add_type(start, text)?;
        self.types.slot.insert(text, slot);
        Ok(slot)
    }

    /// Parses a trimmed type text that starts at byte `start` into a new
    /// slot of the type table. A bad type is reported at its start.
    fn add_type(&mut self, start: usize, text: &str) -> IrResult<usize> {
        if text.is_empty() {
            return Err(self.err("expected a type"));
        }
        let ty = type_of(text).map_err(|msg| self.err_at(start, msg))?;
        self.types.types.push(ty);
        Ok(self.types.types.len() - 1)
    }

    /// Binds the pending names from `first` on to `values`, in order.
    fn bind_pending(&mut self, module: &mut Module, first: usize, values: &[ValueId]) {
        for (i, &v) in values.iter().enumerate() {
            let name = self.pending[first + i];
            self.scope.define(name, v);
            if name.parse::<usize>().is_err() {
                module.set_value_name(v, name);
            }
        }
        self.pending.truncate(first);
    }

    fn parse_op(&mut self, module: &mut Module, block: BlockId) -> IrResult<()> {
        // Optional result list.
        let first_result = self.pending.len();
        let mut tok = self.next()?;
        if let Tok::Percent(first) = tok {
            self.pending.push(first);
            loop {
                match self.next()? {
                    Tok::Comma => match self.next()? {
                        Tok::Percent(n) => self.pending.push(n),
                        t => {
                            return Err(
                                self.err(format!("expected value name, found {}", t.describe()))
                            )
                        }
                    },
                    Tok::Equal => break,
                    t => {
                        return Err(self.err(format!("expected ',' or '=', found {}", t.describe())))
                    }
                }
            }
            tok = self.next()?;
        } else if !matches!(tok, Tok::Str { .. }) {
            return Err(self.err(format!("expected an operation, found {}", tok.describe())));
        }

        // Op name.
        let name = match tok {
            Tok::Str { raw, plain } => unescape(raw, plain),
            t => return Err(self.err(format!("expected quoted op name, found {}", t.describe()))),
        };

        // Operands.
        self.expect("(")?;
        let mut operands: IdVec<ValueId> = IdVec::new();
        loop {
            if self.eat(")") {
                break;
            }
            match self.next()? {
                Tok::Percent(n) => match self.scope.lookup(n) {
                    Some(v) => operands.push(v),
                    None => return Err(self.err(format!("use of undefined value '%{n}'"))),
                },
                Tok::Comma => {}
                t => return Err(self.err(format!("expected operand, found {}", t.describe()))),
            }
        }

        // Optional region group.
        let mut regions: IdVec<RegionId> = IdVec::new();
        if self.eat("(") {
            loop {
                self.expect("{")?;
                regions.push(self.parse_region_body(module)?);
                if self.eat(")") {
                    break;
                }
                if !self.eat(",") {
                    return Err(self.unexpected("',' or ')'"));
                }
            }
        }

        // Optional attribute dictionary.
        let mut attrs = AttrMap::new();
        if self.eat("{") {
            loop {
                let key = match self.next()? {
                    Tok::RBrace => break,
                    Tok::Ident(k) => Cow::Borrowed(k),
                    Tok::Str { raw, plain } => unescape(raw, plain),
                    t => {
                        return Err(
                            self.err(format!("expected attribute name, found {}", t.describe()))
                        )
                    }
                };
                self.expect("=")?;
                let value = self.parse_attr_value()?;
                attrs.set(&key, value);
                if self.eat("}") {
                    break;
                }
                if !self.eat(",") {
                    return Err(self.unexpected("',' or '}'"));
                }
            }
        }

        // Functional type. Operand types are checked as they are read; the
        // first mismatch is reported once the count is known to agree.
        self.expect(":")?;
        self.expect("(")?;
        let mut operand_types = 0usize;
        let mut mismatch = None;
        loop {
            if self.eat(")") {
                break;
            }
            if self.eat(",") {
                continue;
            }
            self.lex_type_start()?;
            let slot = self.type_here()?;
            let ty = &self.types.types[slot];
            if let Some(&v) = operands.get(operand_types) {
                let actual = module.value_type(v);
                if mismatch.is_none() && !actual.matches(ty) {
                    mismatch = Some((operand_types, actual.clone(), ty.clone()));
                }
            }
            operand_types += 1;
        }
        self.expect("->")?;
        self.sig.clear();
        if self.eat("(") {
            loop {
                if self.eat(")") {
                    break;
                }
                if self.eat(",") {
                    continue;
                }
                self.lex_type_start()?;
                let slot = self.type_here()?;
                self.sig.push(slot);
            }
        } else {
            self.lex_type_start()?;
            let slot = self.type_here()?;
            self.sig.push(slot);
        }

        // Validate the signature against the operands and result names.
        if operand_types != operands.len() {
            return Err(self.err(format!(
                "op '{name}' lists {operand_types} operand types but has {} operands",
                operands.len()
            )));
        }
        if let Some((i, actual, ty)) = mismatch {
            return Err(self.err(format!(
                "operand {i} of '{name}' has type {actual} but signature says {ty}"
            )));
        }
        let results = self.pending.len() - first_result;
        if results != self.sig.len() {
            return Err(self.err(format!(
                "op '{name}' binds {results} results but signature lists {}",
                self.sig.len()
            )));
        }

        let types = &self.types.types;
        let result_types = self.sig.iter().map(|&slot| types[slot].clone());
        let op = module.create_op(Name::from(&*name), operands, result_types, attrs, regions);
        module.append_op(block, op);
        let values = module.op(op).results.clone();
        self.bind_pending(module, first_result, &values);
        Ok(())
    }

    /// Parses a region after its `{`, through the closing `}`.
    fn parse_region_body(&mut self, module: &mut Module) -> IrResult<RegionId> {
        let region = module.new_region(None);
        let scope = self.scope.open();
        let mut first = true;
        loop {
            match self.peek()? {
                Tok::RBrace => {
                    self.bump();
                    if first {
                        module.new_block(region, vec![]);
                    }
                    break;
                }
                Tok::Caret(_) => {
                    // Block header with optional args.
                    self.bump();
                    let first_arg = self.pending.len();
                    let mut arg_types = vec![];
                    if self.eat("(") {
                        loop {
                            match self.next()? {
                                Tok::RParen => break,
                                Tok::Comma => continue,
                                Tok::Percent(n) => {
                                    self.expect(":")?;
                                    let slot = self.type_here()?;
                                    self.pending.push(n);
                                    arg_types.push(self.types.types[slot].clone());
                                }
                                t => {
                                    return Err(self.err(format!(
                                        "expected block argument, found {}",
                                        t.describe()
                                    )))
                                }
                            }
                        }
                    }
                    self.expect(":")?;
                    let b = module.new_block(region, arg_types);
                    let args = module.block(b).args.clone();
                    self.bind_pending(module, first_arg, &args);
                    self.parse_block_ops(module, b)?;
                    first = false;
                }
                _ => {
                    // Header-less entry block.
                    let b = module.new_block(region, vec![]);
                    self.parse_block_ops(module, b)?;
                    first = false;
                }
            }
        }
        self.scope.close(scope);
        Ok(region)
    }

    /// Parses ops until the next '}' or '^' (left unconsumed).
    fn parse_block_ops(&mut self, module: &mut Module, block: BlockId) -> IrResult<()> {
        loop {
            match self.peek()? {
                Tok::RBrace | Tok::Caret(_) => return Ok(()),
                Tok::Eof => {
                    self.bump();
                    return Err(self.err("unterminated region"));
                }
                _ => self.parse_op(module, block)?,
            }
        }
    }

    fn parse_attr_value(&mut self) -> IrResult<Attr> {
        self.skip_ws();
        match self.bytes.get(self.pos).copied() {
            Some(b'"') => {
                let (raw, plain) = self.lex_string()?;
                Ok(Attr::Str(unescape(raw, plain).into_owned()))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => match self.next()? {
                Tok::Int(v) => Ok(Attr::Int(v)),
                Tok::Float(v) => Ok(Attr::Float(v)),
                t => Err(self.err(format!("expected number, found {}", t.describe()))),
            },
            Some(b'[') => {
                self.pos += 1;
                let mut items = vec![];
                loop {
                    if self.eat("]") {
                        break;
                    }
                    items.push(self.parse_attr_value()?);
                    if self.eat("]") {
                        break;
                    }
                    if !self.eat(",") {
                        return Err(self.unexpected("',' or ']'"));
                    }
                }
                // Homogeneous lists collapse to the compact array attrs; a
                // mixed (or empty) list stays generic.
                if !items.is_empty() {
                    if let Some(ints) = items.iter().map(Attr::as_int).collect::<Option<Vec<_>>>() {
                        return Ok(Attr::IntArray(ints));
                    }
                }
                if !items.is_empty() && items.iter().all(|a| matches!(a, Attr::Str(_))) {
                    let strs = items.into_iter().filter_map(|a| match a {
                        Attr::Str(s) => Some(s),
                        _ => None,
                    });
                    return Ok(Attr::StrArray(strs.collect()));
                }
                Ok(Attr::Array(items))
            }
            c => {
                if c.is_some_and(starts_ident) {
                    let start = self.pos;
                    let word = self.scan(ident_char);
                    match word {
                        "true" => return Ok(Attr::Bool(true)),
                        "false" => return Ok(Attr::Bool(false)),
                        "unit" => return Ok(Attr::Unit),
                        _ => self.pos = start,
                    }
                }
                let slot = self.type_here()?;
                Ok(Attr::Ty(self.types.types[slot].clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    fn round_trip(text: &str) {
        let m = parse_module(text).expect("parse");
        assert_eq!(print_module(&m), text);
    }

    #[test]
    fn strings_and_types_decode_as_utf8() {
        let text = "\"t.\u{e9}\"() {k = \"\u{fc}\u{a0}\u{1f980}\", s = \"a\rb\u{1}\\\"\\\\\\n\\t\"} : () -> ()\n";
        let m = parse_module(text).unwrap();
        let op = m
            .find_first("t.\u{e9}")
            .expect("the op name reads as UTF-8");
        let attrs = &m.op(op).attrs;
        assert_eq!(attrs.str("k"), Some("\u{fc}\u{a0}\u{1f980}"));
        assert_eq!(attrs.str("s"), Some("a\rb\u{1}\"\\\n\t"));
        // The printer escapes exactly what the parser unescapes, so the
        // text is printed back as it was written.
        round_trip(text);
        let err =
            parse_module("%a = \"t.s\"() : () -> i32\n\"t.k\"(%a) : (memref<2x\u{e9}8>) -> ()\n")
                .unwrap_err();
        assert!(err.to_string().contains("unknown type '\u{e9}8'"), "{err}");
        // A type text that starts with a non-ASCII character is read as a
        // type too, in either list, and reported at its start.
        for (text, at) in [
            ("\"t.k\"() : () -> \u{e9}32\n", (1, 17, "\u{e9}32")),
            (
                "%a = \"t.s\"() : () -> i32\n\"t.k\"(%a) : (\u{e9}8) -> ()\n",
                (2, 14, "\u{e9}8"),
            ),
        ] {
            match parse_module(text) {
                Err(IrError::Parse { line, col, msg }) => {
                    assert_eq!(
                        (line, col, msg),
                        (at.0, at.1, format!("unknown type '{}'", at.2))
                    );
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        let err = parse_module("\"t.k\"() : () -> () \u{e9}\n").unwrap_err();
        assert!(
            err.to_string().contains("unexpected character '\u{e9}'"),
            "{err}"
        );
        let err = parse_module("\"t.\\\u{e9}\"() : () -> ()\n").unwrap_err();
        assert!(
            err.to_string().contains("bad escape '\\Some('\u{e9}')'"),
            "{err}"
        );
    }

    #[test]
    fn parse_types() {
        assert_eq!(parse_type("i32").unwrap(), Type::I32);
        assert_eq!(parse_type(" f64 ").unwrap(), Type::F64);
        assert_eq!(
            parse_type("memref<4x4xf32>").unwrap(),
            Type::memref(vec![4, 4], Type::F32)
        );
        assert_eq!(
            parse_type("tensor<8xindex>").unwrap(),
            Type::tensor(vec![8], Type::Index)
        );
        assert_eq!(
            parse_type("tensor<i64>").unwrap(),
            Type::tensor(vec![], Type::I64)
        );
        assert_eq!(
            parse_type("!equeue.buffer<64xi32>").unwrap(),
            Type::buffer(vec![64], Type::I32)
        );
        assert_eq!(parse_type("!equeue.signal").unwrap(), Type::Signal);
        assert!(parse_type("wat").is_err());
        assert!(parse_type("memref<axbxc>").is_err());
    }

    #[test]
    fn simple_round_trip() {
        round_trip("%0 = \"arith.constant\"() {value = 4} : () -> i32\n");
    }

    #[test]
    fn operands_and_uses() {
        let text = "%a = \"test.src\"() : () -> i32\n\"test.sink\"(%a, %a) : (i32, i32) -> ()\n";
        round_trip(text);
        let m = parse_module(text).unwrap();
        let sink = m.find_first("test.sink").unwrap();
        assert_eq!(m.op(sink).operands.len(), 2);
        assert_eq!(m.op(sink).operands[0], m.op(sink).operands[1]);
    }

    #[test]
    fn multi_result() {
        round_trip("%0, %1 = \"test.src\"() : () -> (i32, i32)\n\"test.sink\"(%0, %1) : (i32, i32) -> ()\n");
    }

    #[test]
    fn attrs_of_all_kinds() {
        let text = "\"test.attrs\"() {a = [1, 2], b = true, c = \"s\", d = 2.5, e = unit, f = i32, g = [\"x\", \"y\"]} : () -> ()\n";
        let m = parse_module(text).unwrap();
        let op = m.find_first("test.attrs").unwrap();
        let attrs = &m.op(op).attrs;
        assert_eq!(attrs.int_array("a"), Some(&[1, 2][..]));
        assert_eq!(attrs.get("b"), Some(&Attr::Bool(true)));
        assert_eq!(attrs.str("c"), Some("s"));
        assert_eq!(attrs.float("d"), Some(2.5));
        assert_eq!(attrs.get("e"), Some(&Attr::Unit));
        assert_eq!(attrs.get("f"), Some(&Attr::Ty(Type::I32)));
        assert_eq!(
            attrs.get("g"),
            Some(&Attr::StrArray(vec!["x".into(), "y".into()]))
        );
        round_trip(text);
    }

    #[test]
    fn regions_and_block_args() {
        let text = "%done = \"equeue.launch\"(%done_0) ({\n\
                    ^bb0(%arg: !equeue.signal):\n\
                    \x20\x20\"equeue.return\"() : () -> ()\n\
                    }) : (!equeue.signal) -> !equeue.signal\n";
        // %done_0 is undefined; build a defining op first.
        let full = format!("%done_0 = \"equeue.control_start\"() : () -> !equeue.signal\n{text}");
        let m = parse_module(&full).unwrap();
        let launch = m.find_first("equeue.launch").unwrap();
        assert_eq!(m.op(launch).regions.len(), 1);
        let inner = m.region_ops(m.op(launch).regions[0]);
        assert_eq!(m.op(inner[0]).name, "equeue.return");
        assert_eq!(print_module(&m), full);
    }

    #[test]
    fn outer_values_visible_in_regions() {
        let text = "\
%c = \"arith.constant\"() {value = 1} : () -> i32
\"test.wrap\"() ({
  \"test.use\"(%c) : (i32) -> ()
}) : () -> ()
";
        round_trip(text);
    }

    #[test]
    fn undefined_value_is_error() {
        let e = parse_module("\"test.sink\"(%nope) : (i32) -> ()\n").unwrap_err();
        assert!(e.to_string().contains("undefined value"));
    }

    #[test]
    fn type_mismatch_is_error() {
        let text = "%a = \"test.src\"() : () -> i32\n\"test.sink\"(%a) : (f32) -> ()\n";
        let e = parse_module(text).unwrap_err();
        assert!(e
            .to_string()
            .contains("has type i32 but signature says f32"));
    }

    #[test]
    fn comments_are_skipped() {
        let text = "// a comment\n%0 = \"arith.constant\"() {value = 4} : () -> i32\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m.find_all("arith.constant").len(), 1);
    }

    #[test]
    fn error_position_reported() {
        let e = parse_module("\n\n  ???").unwrap_err();
        match e {
            IrError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn type_errors_carry_the_types_location() {
        let at = |text: &str| match parse_module(text) {
            Err(IrError::Parse { line, col, msg }) => (line, col, msg),
            other => panic!("expected a parse error, got {other:?}"),
        };
        assert_eq!(
            at("%a = \"t.s\"() : () -> q32\n"),
            (1, 22, "unknown type 'q32'".to_string())
        );
        assert_eq!(
            at("%a = \"t.s\"() : () -> i32\n\"t.k\"(%a) : (memref<2xq8>) -> ()\n"),
            (2, 14, "unknown type 'q8'".to_string())
        );
        assert_eq!(
            at("\"t.k\"() {t = tensor<99999999999999999999xi32>} : () -> ()\n"),
            (
                1,
                14,
                "bad dimension '99999999999999999999': number too large to fit in target type"
                    .to_string()
            )
        );
        match parse_type("\n  q32") {
            Err(IrError::Parse { line, col, .. }) => assert_eq!((line, col), (2, 3)),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_region_gets_empty_block() {
        let text = "\"test.wrap\"() ({\n}) : () -> ()\n";
        let m = parse_module(text).unwrap();
        let op = m.find_first("test.wrap").unwrap();
        let r = m.op(op).regions[0];
        assert_eq!(m.region(r).blocks.len(), 1);
        round_trip(text);
    }
}
