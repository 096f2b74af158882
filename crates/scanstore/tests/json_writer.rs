//! Property test for `telemetry::json`, the writer every hand-built
//! document goes through: arbitrary trees of objects, arrays and
//! scalars, with keys and strings full of quotes, backslashes, control
//! characters and non-BMP characters, must come out as JSON the
//! vendored `serde_json` parses back to the same values — and every
//! string must be escaped exactly as `serde_json::to_string` escapes
//! it, because `--json` reports still go through serde.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::Value;
use telemetry::json::{self, Array, Encode, Object, Text};

/// A JSON document as the test builds it.
#[derive(Debug, Clone)]
enum Tree {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Tree>),
    Obj(Vec<(String, Tree)>),
}

/// Characters an escaper gets wrong: every control character, the two
/// that JSON escapes by name, DEL, multi-byte and non-BMP characters.
fn hard_char(rng: &mut TestRng) -> char {
    const OTHERS: [char; 10] = [
        '"',
        '\\',
        '/',
        '\u{7f}',
        'é',
        '中',
        '\u{fffd}',
        '\u{1f600}',
        '\u{10348}',
        '\u{10ffff}',
    ];
    match rng.below(4) {
        0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
        1 => OTHERS[rng.below(OTHERS.len() as u64) as usize],
        _ => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(),
    }
}

fn hard_string(rng: &mut TestRng) -> String {
    (0..rng.below(12)).map(|_| hard_char(rng)).collect()
}

fn tree(rng: &mut TestRng, depth: u32) -> Tree {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Tree::Null,
        1 => Tree::Bool(rng.bool()),
        2 => Tree::U64(rng.next_u64()),
        3 => Tree::I64(-1 - (rng.next_u64() >> 1) as i64),
        4 => Tree::F64((rng.unit_f64() - 0.5) * 10f64.powi(rng.below(12) as i32 - 4)),
        5 => Tree::Str(hard_string(rng)),
        6 => Tree::Arr((0..rng.below(5)).map(|_| tree(rng, depth - 1)).collect()),
        _ => {
            let mut members: Vec<(String, Tree)> = Vec::new();
            for _ in 0..rng.below(5) {
                let key = hard_string(rng);
                // Parsed objects keep one value per key.
                if !members.iter().any(|(k, _)| *k == key) {
                    members.push((key, tree(rng, depth - 1)));
                }
            }
            Tree::Obj(members)
        }
    }
}

struct Trees;

impl Strategy for Trees {
    type Value = Tree;
    fn generate(&self, rng: &mut TestRng) -> Tree {
        tree(rng, 4)
    }
}

struct Strings;

impl Strategy for Strings {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        hard_string(rng)
    }
}

/// Nested values reached through `Encode`: `json::object` and
/// `json::array` place the separators.
impl Encode for Tree {
    fn encode(&self, out: &mut String) {
        match self {
            Tree::Null => None::<u8>.encode(out),
            Tree::Bool(b) => b.encode(out),
            Tree::U64(v) => v.encode(out),
            Tree::I64(v) => v.encode(out),
            Tree::F64(v) => v.encode(out),
            Tree::Str(s) => s.encode(out),
            Tree::Arr(items) => json::array(out, |a| items.iter().for_each(|t| a.push(t))),
            Tree::Obj(members) => json::object(out, |o| {
                members.iter().for_each(|(k, t)| o.field(k, t));
            }),
        }
    }
}

/// The same tree through the closure-nesting methods instead.
fn fill_object(o: &mut Object<'_>, members: &[(String, Tree)]) {
    for (k, t) in members {
        match t {
            Tree::Null => o.null(k),
            Tree::Str(s) => o.field(k, Text(s)),
            Tree::Arr(items) => o.array(k, |a| fill_array(a, items)),
            Tree::Obj(inner) => o.object(k, |o| fill_object(o, inner)),
            scalar => o.field(k, scalar),
        }
    }
}

fn fill_array(a: &mut Array<'_>, items: &[Tree]) {
    for t in items {
        match t {
            Tree::Obj(inner) => a.object(|o| fill_object(o, inner)),
            other => a.push(other),
        }
    }
}

/// Whether `parsed` is `expected` read back. Integral floats print
/// without a fraction (`123`) and parse back as integers.
fn same(expected: &Tree, parsed: &Value) -> bool {
    match (expected, parsed) {
        (Tree::Null, Value::Null) => true,
        (Tree::Bool(a), Value::Bool(b)) => a == b,
        (Tree::U64(a), Value::U64(b)) => a == b,
        (Tree::I64(a), Value::I64(b)) => a == b,
        (Tree::F64(a), Value::F64(b)) => a == b,
        (Tree::F64(a), Value::U64(b)) => *a == *b as f64,
        (Tree::F64(a), Value::I64(b)) => *a == *b as f64,
        (Tree::Str(a), Value::String(b)) => a == b,
        (Tree::Arr(a), Value::Array(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (Tree::Obj(a), Value::Object(b)) => {
            a.len() == b.len() && a.iter().all(|(k, x)| b.get(k).is_some_and(|y| same(x, y)))
        }
        _ => false,
    }
}

fn round_trips(text: &str, expected: &Tree) {
    let parsed: Value = serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
    assert!(
        same(expected, &parsed),
        "{expected:?}\n{text:?}\n{parsed:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_tree_parses_back_to_itself(t in Trees) {
        let mut encoded = String::new();
        t.encode(&mut encoded);
        round_trips(&encoded, &t);

        let members = vec![("root \"\u{1}\\".to_string(), t)];
        let mut nested = String::new();
        json::object(&mut nested, |o| fill_object(o, &members));
        round_trips(&nested, &Tree::Obj(members));
    }

    #[test]
    fn strings_escape_exactly_as_serde_json_does(s in Strings) {
        let serde = serde_json::to_string(&s).unwrap();
        let mut pushed = String::new();
        json::push_str(&mut pushed, &s);
        prop_assert_eq!(&pushed, &serde);
        let mut text = String::new();
        Text(&s).encode(&mut text);
        prop_assert_eq!(&text, &serde);
        let back: String = serde_json::from_str(&pushed).unwrap();
        prop_assert_eq!(back, s);
    }
}

#[test]
fn every_control_character_escapes_as_serde_json_does() {
    for c in (0u32..0x20)
        .chain([0x7f])
        .map(|c| char::from_u32(c).unwrap())
    {
        let s = format!("a{c}b");
        let mut pushed = String::new();
        json::push_str(&mut pushed, &s);
        assert_eq!(
            pushed,
            serde_json::to_string(&s).unwrap(),
            "{:#x}",
            c as u32
        );
    }
}
