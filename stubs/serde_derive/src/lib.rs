//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the in-tree
//! serde substitute.
//!
//! Parses the derive input with hand-rolled token walking (no `syn`) and
//! emits `to_value`/`from_value` impls against `serde::Value`. Supports
//! the shapes this workspace uses: named structs, tuple structs, unit
//! structs, and enums with unit / tuple / struct variants; the
//! `#[serde(skip)]`, `#[serde(default)]` (on named fields), and
//! `#[serde(transparent)]` attributes; and type parameters without
//! declared bounds (`struct S<P = ()>`), each bound in the impl by the
//! trait derived and, for `Deserialize`, by `Default`, which a skipped
//! field of that type is filled with. As in serde, a one-field tuple
//! struct (a newtype) is written as its inner value, with or without
//! `transparent`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().unwrap()
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item).parse().unwrap()
}

struct Field {
    name: String, // field name, or index for tuple fields
    skip: bool,
    // `#[serde(default)]`: a missing key deserializes to
    // `Default::default()` instead of erroring (named fields only).
    default: bool,
}

enum Shape {
    Unit,
    Named(Vec<Field>),
    Tuple(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Type parameter names, in order.
    params: Vec<String>,
    transparent: bool,
    body: Body,
}

impl Item {
    /// `impl<...> {trait_} for Name<...>`, each parameter bound by `bound`.
    fn impl_header(&self, trait_: &str, bound: &str) -> String {
        if self.params.is_empty() {
            return format!("impl {trait_} for {}", self.name);
        }
        let bounded: Vec<String> = self
            .params
            .iter()
            .map(|p| format!("{p}: {bound}"))
            .collect();
        format!(
            "impl<{}> {trait_} for {}<{}>",
            bounded.join(", "),
            self.name,
            self.params.join(", ")
        )
    }
}

/// Serde attribute words found while skipping `#[...]` attributes.
fn take_attrs(toks: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut words = Vec::new();
    while *i + 1 < toks.len() {
        match (&toks[*i], &toks[*i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let Some(TokenTree::Ident(id)) = inner.first() {
                    if id.to_string() == "serde" {
                        if let Some(TokenTree::Group(args)) = inner.get(1) {
                            for t in args.stream() {
                                if let TokenTree::Ident(w) = t {
                                    words.push(w.to_string());
                                }
                            }
                        }
                    }
                }
                *i += 2;
            }
            _ => break,
        }
    }
    words
}

fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Split a token list on commas that sit outside `<...>` nesting.
fn split_top(toks: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle = 0i32;
    for t in toks {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_named_fields(g: &proc_macro::Group) -> Vec<Field> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    split_top(&toks)
        .iter()
        .map(|chunk| {
            let mut i = 0;
            let attrs = take_attrs(chunk, &mut i);
            skip_visibility(chunk, &mut i);
            let name = match &chunk[i] {
                TokenTree::Ident(id) => id.to_string(),
                other => panic!("serde_derive: expected field name, got {other}"),
            };
            Field {
                name,
                skip: attrs.iter().any(|w| w == "skip"),
                default: attrs.iter().any(|w| w == "default"),
            }
        })
        .collect()
}

fn parse_tuple_fields(g: &proc_macro::Group) -> Vec<Field> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    split_top(&toks)
        .iter()
        .enumerate()
        .map(|(idx, chunk)| {
            let mut i = 0;
            let attrs = take_attrs(chunk, &mut i);
            Field {
                name: idx.to_string(),
                skip: attrs.iter().any(|w| w == "skip"),
                default: attrs.iter().any(|w| w == "default"),
            }
        })
        .collect()
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = take_attrs(&toks, &mut i);
    let transparent = attrs.iter().any(|w| w == "transparent");
    skip_visibility(&toks, &mut i);
    let kind = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, got {other}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected type name, got {other}"),
    };
    i += 1;
    let params = parse_params(&toks, &mut i);
    let body = match kind.as_str() {
        "struct" => Body::Struct(match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(parse_tuple_fields(g))
            }
            _ => Shape::Unit,
        }),
        "enum" => {
            let g = match &toks[i] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => g,
                other => panic!("serde_derive: expected enum body, got {other}"),
            };
            let vtoks: Vec<TokenTree> = g.stream().into_iter().collect();
            let variants = split_top(&vtoks)
                .iter()
                .map(|chunk| {
                    let mut j = 0;
                    take_attrs(chunk, &mut j);
                    let vname = match &chunk[j] {
                        TokenTree::Ident(id) => id.to_string(),
                        other => panic!("serde_derive: expected variant name, got {other}"),
                    };
                    j += 1;
                    let shape = match chunk.get(j) {
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                            Shape::Named(parse_named_fields(g))
                        }
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                            Shape::Tuple(parse_tuple_fields(g))
                        }
                        _ => Shape::Unit,
                    };
                    Variant { name: vname, shape }
                })
                .collect();
            Body::Enum(variants)
        }
        other => panic!("serde_derive: cannot derive for {other}"),
    };
    Item {
        name,
        params,
        transparent,
        body,
    }
}

/// The names of the type parameters in `<...>` at `toks[*i]`, if any,
/// stepping past them. A parameter may carry a default (`P = ()`), not a
/// bound, a lifetime or a `const`.
fn parse_params(toks: &[TokenTree], i: &mut usize) -> Vec<String> {
    match toks.get(*i) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
        _ => return Vec::new(),
    }
    let start = *i + 1;
    let mut depth = 1;
    while depth > 0 {
        *i += 1;
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            _ => {}
        }
    }
    let params = split_top(&toks[start..*i])
        .iter()
        .map(|chunk| {
            let name = match chunk.first() {
                Some(TokenTree::Ident(id)) if id.to_string() != "const" => id.to_string(),
                _ => panic!("serde_derive: only type parameters are supported"),
            };
            match chunk.get(1) {
                None => {}
                Some(TokenTree::Punct(p)) if p.as_char() == '=' => {}
                Some(_) => panic!("serde_derive: a type parameter may not declare bounds"),
            }
            name
        })
        .collect();
    *i += 1;
    params
}

fn ser_named(fields: &[Field], access: &str) -> String {
    let mut s = String::from("{ let mut __m: Vec<(String, ::serde::Value)> = Vec::new();");
    for f in fields.iter().filter(|f| !f.skip) {
        s.push_str(&format!(
            "__m.push((String::from(\"{n}\"), ::serde::Serialize::to_value({access}{n})));",
            n = f.name,
        ));
    }
    s.push_str("::serde::Value::Map(__m) }");
    s
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => "::serde::Value::Null".to_string(),
        Body::Struct(Shape::Named(fields)) => ser_named(fields, "&self."),
        Body::Struct(Shape::Tuple(fields)) => {
            let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            if live.len() == 1 && (item.transparent || fields.len() == 1) {
                format!("::serde::Serialize::to_value(&self.{})", live[0].name)
            } else {
                let elems: Vec<String> = live
                    .iter()
                    .map(|f| format!("::serde::Serialize::to_value(&self.{})", f.name))
                    .collect();
                format!("::serde::Value::Seq(vec![{}])", elems.join(", "))
            }
        }
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        Shape::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str(String::from(\"{vn}\")),"
                        ),
                        Shape::Tuple(fields) => {
                            let binds: Vec<String> =
                                (0..fields.len()).map(|k| format!("__f{k}")).collect();
                            let payload = if fields.len() == 1 {
                                "::serde::Serialize::to_value(__f0)".to_string()
                            } else {
                                let elems: Vec<String> = binds
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                                    .collect();
                                format!("::serde::Value::Seq(vec![{}])", elems.join(", "))
                            };
                            format!(
                                "{name}::{vn}({binds}) => ::serde::Value::Map(vec![(String::from(\"{vn}\"), {payload})]),",
                                binds = binds.join(", "),
                            )
                        }
                        Shape::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            let payload = ser_named(
                                &fields
                                    .iter()
                                    .map(|f| Field {
                                        name: f.name.clone(),
                                        skip: f.skip,
                                        default: f.default,
                                    })
                                    .collect::<Vec<_>>(),
                                "",
                            );
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Map(vec![(String::from(\"{vn}\"), {payload})]),",
                                binds = binds.join(", "),
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "{} {{ fn to_value(&self) -> ::serde::Value {{ {body} }} }}",
        item.impl_header("::serde::Serialize", "::serde::Serialize"),
    )
}

fn de_named(ty: &str, fields: &[Field], ctor: &str) -> String {
    let mut s = format!(
        "{{ let __m = __v.as_map().ok_or_else(|| ::serde::Error::custom(\"{ty}: expected map\"))?; Ok({ctor} {{"
    );
    for f in fields {
        if f.skip {
            s.push_str(&format!("{}: ::core::default::Default::default(),", f.name));
        } else if f.default {
            s.push_str(&format!(
                "{n}: match ::serde::map_get(__m, \"{n}\") {{ \
                   Some(__x) => ::serde::Deserialize::from_value(__x)?, \
                   None => ::core::default::Default::default(), \
                 }},",
                n = f.name,
            ));
        } else {
            s.push_str(&format!(
                "{n}: match ::serde::map_get(__m, \"{n}\") {{ \
                   Some(__x) => ::serde::Deserialize::from_value(__x)?, \
                   None => return Err(::serde::Error::custom(\"{ty}: missing field {n}\")), \
                 }},",
                n = f.name,
            ));
        }
    }
    s.push_str("}) }");
    s
}

fn de_tuple_payload(ty: &str, ctor: &str, n: usize) -> String {
    if n == 1 {
        return format!("Ok({ctor}(::serde::Deserialize::from_value(__v)?))");
    }
    let mut s = format!(
        "{{ let __s = __v.as_seq().ok_or_else(|| ::serde::Error::custom(\"{ty}: expected seq\"))?; \
         if __s.len() != {n} {{ return Err(::serde::Error::custom(\"{ty}: wrong length\")); }} Ok({ctor}("
    );
    for k in 0..n {
        s.push_str(&format!("::serde::Deserialize::from_value(&__s[{k}])?,"));
    }
    s.push_str(")) }");
    s
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => format!("Ok({name})"),
        Body::Struct(Shape::Named(fields)) => de_named(name, fields, name),
        Body::Struct(Shape::Tuple(fields)) => {
            let live = fields.iter().filter(|f| !f.skip).count();
            assert!(
                live == fields.len(),
                "serde_derive: skip in tuple structs is not supported"
            );
            de_tuple_payload(name, name, fields.len())
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),"));
                    }
                    Shape::Tuple(fields) => {
                        let inner = de_tuple_payload(
                            &format!("{name}::{vn}"),
                            &format!("{name}::{vn}"),
                            fields.len(),
                        );
                        data_arms
                            .push_str(&format!("\"{vn}\" => {{ let __v = __payload; {inner} }},"));
                    }
                    Shape::Named(fields) => {
                        let inner =
                            de_named(&format!("{name}::{vn}"), fields, &format!("{name}::{vn}"));
                        data_arms
                            .push_str(&format!("\"{vn}\" => {{ let __v = __payload; {inner} }},"));
                    }
                }
            }
            format!(
                "match __v {{ \
                   ::serde::Value::Str(__s) => match __s.as_str() {{ \
                     {unit_arms} \
                     __other => Err(::serde::Error::custom(format!(\"{name}: unknown variant {{__other}}\"))), \
                   }}, \
                   ::serde::Value::Map(__entries) if __entries.len() == 1 => {{ \
                     let (__tag, __payload) = &__entries[0]; \
                     match __tag.as_str() {{ \
                       {data_arms} \
                       __other => Err(::serde::Error::custom(format!(\"{name}: unknown variant {{__other}}\"))), \
                     }} \
                   }}, \
                   _ => Err(::serde::Error::custom(\"{name}: expected variant\")), \
                 }}"
            )
        }
    };
    format!(
        "{} {{ \
           fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::Error> {{ {body} }} \
         }}",
        item.impl_header(
            "::serde::Deserialize",
            "::serde::Deserialize + ::core::default::Default"
        ),
    )
}
