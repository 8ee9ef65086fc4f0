//! A small parser for an ISL-like set syntax, used by tests, examples and
//! the transformation recipes:
//!
//! ```text
//! [n] -> { [i,j] : 0 <= i < n && 0 <= j < i }
//! { [i] : 1 <= i <= 100 && exists(a : i = 4a + 1) }
//! { [i] : i >= 0 } | { [i] : i <= -10 }
//! ```
//!
//! * parameters are declared in the optional leading `[p, q] ->` list;
//! * comparison chains (`0 <= i < n`) expand to conjunctions;
//! * `exists(a, b : ...)` introduces existential (wildcard) variables;
//! * `&&`/`and` conjoin atoms, `||`/`or` build unions inside one brace
//!   group, and `|` unions whole brace groups;
//! * products are written `4a`, `4*a`, or `a*4`.

use crate::conjunct::{Conjunct, Row};
use crate::linexpr::ConstraintKind;
use crate::set::Set;
use crate::space::Space;
use std::error::Error;
use std::fmt;

/// Error produced by [`Set::parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSetError {
    message: String,
    position: usize,
}

impl ParseSetError {
    /// Human-readable description of the syntax error.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Byte offset in the input at which the error was detected.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl Error for ParseSetError {}

pub(crate) fn parse_set(text: &str) -> Result<Set, ParseSetError> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let set = p.parse_union()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after set"));
    }
    Ok(set)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Int(i64),
    Ident(String),
    Sym(&'static str),
}

fn tokenize(text: &str) -> Result<Vec<(Tok, usize)>, ParseSetError> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if c.is_ascii_digit() {
            let mut j = i;
            while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                j += 1;
            }
            let v: i64 = text[i..j].parse().map_err(|_| ParseSetError {
                message: "integer literal too large".into(),
                position: start,
            })?;
            out.push((Tok::Int(v), start));
            i = j;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
            {
                j += 1;
            }
            out.push((Tok::Ident(text[i..j].to_owned()), start));
            i = j;
            continue;
        }
        let two = if i + 1 < bytes.len() {
            &text[i..i + 2]
        } else {
            ""
        };
        let sym: &'static str = match two {
            "<=" => "<=",
            ">=" => ">=",
            "==" => "=",
            "&&" => "&&",
            "||" => "||",
            "->" => "->",
            _ => match c {
                '<' => "<",
                '>' => ">",
                '=' => "=",
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '(' => "(",
                ')' => ")",
                '{' => "{",
                '}' => "}",
                '[' => "[",
                ']' => "]",
                ',' => ",",
                ':' => ":",
                '|' => "|",
                _ => {
                    return Err(ParseSetError {
                        message: format!("unexpected character '{c}'"),
                        position: start,
                    })
                }
            },
        };
        i += sym.len();
        out.push((Tok::Sym(sym), start));
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

/// An affine expression under construction: coefficients over
/// `[const | params | vars | locals-so-far]`.
#[derive(Clone)]
struct PExpr(Vec<i64>);

impl Parser {
    fn err(&self, msg: &str) -> ParseSetError {
        let position = self
            .tokens
            .get(self.pos)
            .map(|&(_, p)| p)
            .unwrap_or_else(|| self.tokens.last().map(|&(_, p)| p + 1).unwrap_or(0));
        ParseSetError {
            message: msg.to_owned(),
            position,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseSetError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseSetError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn parse_union(&mut self) -> Result<Set, ParseSetError> {
        let mut set = self.parse_braced()?;
        while self.eat_sym("|") {
            let rhs = self.parse_braced()?;
            if rhs.space() != set.space() {
                return Err(self.err("union terms have different spaces"));
            }
            set.union_with(&rhs);
        }
        Ok(set)
    }

    fn parse_braced(&mut self) -> Result<Set, ParseSetError> {
        // Optional parameter list: [n, m] ->
        let mut params: Vec<String> = Vec::new();
        if matches!(self.peek(), Some(Tok::Sym("["))) {
            let save = self.pos;
            self.pos += 1;
            let mut ok = true;
            let mut names = Vec::new();
            loop {
                match self.next() {
                    Some(Tok::Ident(s)) => names.push(s),
                    Some(Tok::Sym("]")) if names.is_empty() => break,
                    _ => {
                        ok = false;
                        break;
                    }
                }
                match self.next() {
                    Some(Tok::Sym(",")) => continue,
                    Some(Tok::Sym("]")) => break,
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && self.eat_sym("->") {
                params = names;
            } else {
                self.pos = save;
                return Err(self.err("expected '[params] ->' prefix or '{'"));
            }
        }
        self.expect_sym("{")?;
        self.expect_sym("[")?;
        let mut vars = Vec::new();
        if !matches!(self.peek(), Some(Tok::Sym("]"))) {
            loop {
                vars.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym("]")?;
        let pr: Vec<&str> = params.iter().map(String::as_str).collect();
        let vr: Vec<&str> = vars.iter().map(String::as_str).collect();
        let space = Space::new(&pr, &vr);
        let mut set = if self.eat_sym(":") {
            self.parse_formula(&space)?
        } else {
            Set::universe(&space)
        };
        self.expect_sym("}")?;
        // Normalize conjuncts for stable comparisons.
        set = set.simplify();
        Ok(set)
    }

    fn parse_formula(&mut self, space: &Space) -> Result<Set, ParseSetError> {
        let mut out = Set::from_conjunct(self.parse_conj(space)?);
        loop {
            let or = if self.eat_sym("||") {
                true
            } else {
                matches!(self.peek(), Some(Tok::Ident(s)) if s == "or") && {
                    self.pos += 1;
                    true
                }
            };
            if !or {
                break;
            }
            out.push_conjunct(self.parse_conj(space)?);
        }
        Ok(out)
    }

    fn parse_conj(&mut self, space: &Space) -> Result<Conjunct, ParseSetError> {
        let mut conj = Conjunct::universe(space);
        let mut locals: Vec<String> = Vec::new();
        self.parse_conj_into(space, &mut conj, &mut locals)?;
        Ok(conj)
    }

    fn parse_conj_into(
        &mut self,
        space: &Space,
        conj: &mut Conjunct,
        locals: &mut Vec<String>,
    ) -> Result<(), ParseSetError> {
        loop {
            self.parse_atom(space, conj, locals)?;
            let and = if self.eat_sym("&&") {
                true
            } else {
                matches!(self.peek(), Some(Tok::Ident(s)) if s == "and") && {
                    self.pos += 1;
                    true
                }
            };
            if !and {
                return Ok(());
            }
        }
    }

    fn parse_atom(
        &mut self,
        space: &Space,
        conj: &mut Conjunct,
        locals: &mut Vec<String>,
    ) -> Result<(), ParseSetError> {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "exists") {
            self.pos += 1;
            self.expect_sym("(")?;
            let mut introduced = Vec::new();
            loop {
                let name = self.ident()?;
                if space.param_index(&name).is_some()
                    || space.var_index(&name).is_some()
                    || locals.contains(&name)
                {
                    return Err(self.err("existential variable shadows an existing name"));
                }
                conj.add_local();
                locals.push(name.clone());
                introduced.push(name);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(":")?;
            self.parse_conj_into(space, conj, locals)?;
            self.expect_sym(")")?;
            return Ok(());
        }
        // Comparison chain: expr (relop expr)+
        let first = self.parse_sum(space, conj, locals)?;
        let mut prev = first;
        let mut any = false;
        while let Some(&Tok::Sym(op @ ("<" | "<=" | ">" | ">=" | "="))) = self.peek() {
            self.pos += 1;
            any = true;
            let rhs = self.parse_sum(space, conj, locals)?;
            self.emit(conj, op, &prev, &rhs)?;
            prev = rhs;
        }
        if !any {
            return Err(self.err("expected comparison operator"));
        }
        Ok(())
    }

    fn emit(
        &self,
        conj: &mut Conjunct,
        op: &str,
        lhs: &PExpr,
        rhs: &PExpr,
    ) -> Result<(), ParseSetError> {
        let n = conj.ncols();
        let (a, b) = (&lhs.0, &rhs.0);
        let mut diff: Vec<i64> = (0..n)
            .map(|j| {
                let av = a.get(j).copied().unwrap_or(0);
                let bv = b.get(j).copied().unwrap_or(0);
                match op {
                    "<" | "<=" => bv.checked_sub(av),
                    _ => av.checked_sub(bv),
                }
                .ok_or_else(|| self.overflow_err())
            })
            .collect::<Result<_, _>>()?;
        let kind = match op {
            "=" => ConstraintKind::Eq,
            _ => ConstraintKind::Geq,
        };
        if matches!(op, "<" | ">") {
            diff[0] = diff[0].checked_sub(1).ok_or_else(|| self.overflow_err())?;
        }
        conj.push_row(Row::new(kind, diff));
        Ok(())
    }

    /// Error for literal coefficient arithmetic leaving the `i64` range,
    /// positioned at the token under the cursor.
    fn overflow_err(&self) -> ParseSetError {
        self.err("coefficient overflow: literal arithmetic exceeds the i64 range")
    }

    /// Multiplies every coefficient of `e` by `v`, failing recoverably on
    /// overflow instead of panicking.
    fn scale_expr(&self, e: &PExpr, v: i64) -> Result<PExpr, ParseSetError> {
        e.0.iter()
            .map(|&x| x.checked_mul(v))
            .collect::<Option<Vec<i64>>>()
            .map(PExpr)
            .ok_or_else(|| self.overflow_err())
    }

    fn parse_sum(
        &mut self,
        space: &Space,
        conj: &Conjunct,
        locals: &[String],
    ) -> Result<PExpr, ParseSetError> {
        let mut acc = self.parse_term(space, conj, locals)?;
        loop {
            let sign = if self.eat_sym("+") {
                1
            } else if self.eat_sym("-") {
                -1
            } else {
                break;
            };
            let t = self.parse_term(space, conj, locals)?;
            for (j, v) in t.0.iter().enumerate() {
                if acc.0.len() <= j {
                    acc.0.resize(j + 1, 0);
                }
                acc.0[j] = v
                    .checked_mul(sign)
                    .and_then(|sv| acc.0[j].checked_add(sv))
                    .ok_or_else(|| self.overflow_err())?;
            }
        }
        Ok(acc)
    }

    fn parse_term(
        &mut self,
        space: &Space,
        conj: &Conjunct,
        locals: &[String],
    ) -> Result<PExpr, ParseSetError> {
        if self.eat_sym("-") {
            let t = self.parse_term(space, conj, locals)?;
            return t
                .0
                .iter()
                .map(|&x| x.checked_neg())
                .collect::<Option<Vec<i64>>>()
                .map(PExpr)
                .ok_or_else(|| self.overflow_err());
        }
        if self.eat_sym("(") {
            let e = self.parse_sum(space, conj, locals)?;
            self.expect_sym(")")?;
            // optional trailing * INT
            if self.eat_sym("*") {
                match self.next() {
                    Some(Tok::Int(v)) => return self.scale_expr(&e, v),
                    _ => return Err(self.err("expected integer after '*'")),
                }
            }
            return Ok(e);
        }
        match self.next() {
            Some(Tok::Int(v)) => {
                // INT, INT * name, or INT name (adjacent product).
                let explicit_star = self.eat_sym("*");
                if explicit_star || matches!(self.peek(), Some(Tok::Ident(_))) {
                    if explicit_star && !matches!(self.peek(), Some(Tok::Ident(_))) {
                        // INT * ( ... ) form
                        if self.eat_sym("(") {
                            let e = self.parse_sum(space, conj, locals)?;
                            self.expect_sym(")")?;
                            return self.scale_expr(&e, v);
                        }
                        return Err(self.err("expected identifier or '(' after '*'"));
                    }
                    let name = self.ident()?;
                    let e = self.name_expr(space, conj, locals, &name)?;
                    return self.scale_expr(&e, v);
                }
                let mut c = vec![0i64; conj.ncols()];
                c[0] = v;
                Ok(PExpr(c))
            }
            Some(Tok::Ident(name)) => {
                let e = self.name_expr(space, conj, locals, &name)?;
                if self.eat_sym("*") {
                    match self.next() {
                        Some(Tok::Int(v)) => self.scale_expr(&e, v),
                        _ => Err(self.err("expected integer after '*'")),
                    }
                } else {
                    Ok(e)
                }
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected expression"))
            }
        }
    }

    fn name_expr(
        &self,
        space: &Space,
        conj: &Conjunct,
        locals: &[String],
        name: &str,
    ) -> Result<PExpr, ParseSetError> {
        let mut c = vec![0i64; conj.ncols()];
        if let Some(i) = space.param_index(name) {
            c[1 + i] = 1;
        } else if let Some(i) = space.var_index(name) {
            c[1 + space.n_params() + i] = 1;
        } else if let Some(i) = locals.iter().position(|l| l == name) {
            c[1 + space.n_named() + i] = 1;
        } else {
            return Err(self.err(&format!("unknown variable '{name}'")));
        }
        Ok(PExpr(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_triangle() {
        let s = Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }").unwrap();
        assert_eq!(s.space().n_params(), 1);
        assert_eq!(s.space().n_vars(), 2);
        assert!(s.contains(&[10], &[3, 2]));
        assert!(!s.contains(&[10], &[3, 3]));
        assert!(!s.contains(&[3], &[3, 0]));
    }

    #[test]
    fn chains_expand() {
        let s = Set::parse("{ [i] : 1 <= i <= 100 }").unwrap();
        assert!(s.contains(&[], &[1]));
        assert!(s.contains(&[], &[100]));
        assert!(!s.contains(&[], &[0]));
        assert!(!s.contains(&[], &[101]));
    }

    #[test]
    fn exists_strides() {
        let s = Set::parse("{ [i] : 1 <= i <= 20 && exists(a : i = 4a + 1) }").unwrap();
        for i in 0..=21 {
            assert_eq!(
                s.contains(&[], &[i]),
                (1..=20).contains(&i) && i % 4 == 1,
                "i={i}"
            );
        }
    }

    #[test]
    fn multi_exists_figure8a() {
        // Fig. 8(a): {[i,j] : 1<=i<=n && i<=j<=n && ∃a,β(i=1+4a && j=i+3β)}
        let s = Set::parse(
            "[n] -> { [i,j] : 1 <= i && i <= n && i <= j && j <= n && exists(a, b : i = 1 + 4a && j = i + 3b) }",
        )
        .unwrap();
        assert!(s.contains(&[20], &[1, 4]));
        assert!(s.contains(&[20], &[5, 11]));
        assert!(!s.contains(&[20], &[2, 5]));
        assert!(!s.contains(&[20], &[1, 3]));
    }

    #[test]
    fn unions() {
        let s = Set::parse("{ [i] : i <= -1 } | { [i] : i >= 1 }").unwrap();
        assert!(s.contains(&[], &[-1]));
        assert!(s.contains(&[], &[5]));
        assert!(!s.contains(&[], &[0]));
        let s2 = Set::parse("{ [i] : i <= -1 || i >= 1 }").unwrap();
        assert!(s2.same_set(&s));
    }

    #[test]
    fn products_and_negation() {
        let s = Set::parse("{ [i,j] : 2i + 3*j = 12 && -i <= 0 }").unwrap();
        assert!(s.contains(&[], &[3, 2]));
        assert!(s.contains(&[], &[0, 4]));
        assert!(!s.contains(&[], &[-3, 6]));
        assert!(!s.contains(&[], &[1, 3]));
    }

    #[test]
    fn strict_inequalities() {
        let s = Set::parse("[n] -> { [i] : 0 < i < n }").unwrap();
        assert!(!s.contains(&[5], &[0]));
        assert!(s.contains(&[5], &[1]));
        assert!(s.contains(&[5], &[4]));
        assert!(!s.contains(&[5], &[5]));
    }

    #[test]
    fn error_reporting() {
        let e = Set::parse("{ [i] : q >= 0 }").unwrap_err();
        assert!(e.message().contains("unknown variable"));
        assert!(Set::parse("{ [i] i }").is_err());
        assert!(Set::parse("{ [i] : i >= }").is_err());
        assert!(Set::parse("[n] { [i] }").is_err());
        let e = Set::parse("{ [i] : exists(i : i = 2) }").unwrap_err();
        assert!(e.message().contains("shadows"));
    }

    #[test]
    fn empty_var_list_and_no_formula() {
        let s = Set::parse("{ [] }").unwrap();
        assert_eq!(s.space().n_vars(), 0);
        assert!(s.contains(&[], &[]));
        let s = Set::parse("{ [i] }").unwrap();
        assert!(s.contains(&[], &[12345]));
    }

    #[test]
    fn union_space_mismatch_rejected() {
        assert!(Set::parse("{ [i] } | { [i,j] }").is_err());
    }

    #[test]
    fn paren_scaling() {
        let s = Set::parse("{ [i] : 2*(i - 1) = 4 }").unwrap();
        assert!(s.contains(&[], &[3]));
        assert!(!s.contains(&[], &[2]));
        let s = Set::parse("{ [i] : (i + 1)*3 = 9 }").unwrap();
        assert!(s.contains(&[], &[2]));
    }
}
