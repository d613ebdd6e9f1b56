//! Golden test for the chrome://tracing exporter, plus an end-to-end drain
//! of the global recorder. The golden string is what chrome's JSON parser
//! must accept; the dependency-free validator below stands in for that
//! parser (strict RFC-8259 subset: objects, arrays, strings, numbers).

use hermes_trace::{chrome_json, EventKind, TraceRecord, CONTROL_LANE, KERNEL_LANE};

mod json {
    //! Minimal strict JSON parser used only to prove exporter output is
    //! well-formed. Returns the parsed value tree.

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut fields = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, i);
                    let k = match value(b, i)? {
                        Value::Str(s) => s,
                        other => return Err(format!("non-string key {other:?}")),
                    };
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    *i += 1;
                    fields.push((k, value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some(b'"') => {
                *i += 1;
                let start = *i;
                while *i < b.len() && b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        return Err("escapes not used by the exporter".into());
                    }
                    *i += 1;
                }
                if *i >= b.len() {
                    return Err("unterminated string".into());
                }
                let s = std::str::from_utf8(&b[start..*i])
                    .map_err(|e| e.to_string())?
                    .to_string();
                *i += 1;
                Ok(Value::Str(s))
            }
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Value::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            other => Err(format!("unexpected {other:?} at {i}")),
        }
    }
}

fn fixture() -> Vec<TraceRecord> {
    vec![
        TraceRecord {
            ts: 0,
            kind: EventKind::VmLoad,
            worker: KERNEL_LANE,
            a: 2,
            b: 38,
        },
        TraceRecord {
            ts: 1_234,
            kind: EventKind::SimSyn,
            worker: KERNEL_LANE,
            a: 1,
            b: 0xdead,
        },
        TraceRecord {
            ts: 1_234,
            kind: EventKind::SimDispatch,
            worker: KERNEL_LANE,
            a: 0xdead,
            b: 3,
        },
        TraceRecord {
            ts: 2_000_500,
            kind: EventKind::SimWake,
            worker: 3,
            a: 2,
            b: 766_000,
        },
        TraceRecord {
            ts: 2_001_000,
            kind: EventKind::SchedDecision,
            worker: CONTROL_LANE,
            a: 0b1011,
            b: 0b1111,
        },
    ]
}

const GOLDEN: &str = r#"{"displayTimeUnit":"ns","traceEvents":[
{"name":"vm.load","ph":"i","s":"t","ts":0.000,"pid":0,"tid":64,"args":{"a":2,"b":38}},
{"name":"sim.syn","ph":"i","s":"t","ts":1.234,"pid":0,"tid":64,"args":{"a":1,"b":57005}},
{"name":"sim.dispatch","ph":"i","s":"t","ts":1.234,"pid":0,"tid":64,"args":{"a":57005,"b":3}},
{"name":"sim.wake","ph":"i","s":"t","ts":2000.500,"pid":0,"tid":3,"args":{"a":2,"b":766000}},
{"name":"sched.decision","ph":"i","s":"t","ts":2001.000,"pid":0,"tid":65,"args":{"a":11,"b":15}}
]}
"#;

#[test]
fn chrome_export_matches_golden_byte_for_byte() {
    assert_eq!(chrome_json(&fixture()), GOLDEN);
}

#[test]
fn chrome_export_is_valid_json_with_the_expected_shape() {
    let v = json::parse(&chrome_json(&fixture())).expect("exporter output must parse as JSON");
    assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), 5);
    for ev in events {
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(ev.get("s").unwrap().as_str(), Some("t"));
        assert_eq!(ev.get("pid").unwrap().as_num(), Some(0.0));
        assert!(ev.get("ts").unwrap().as_num().is_some());
        assert!(ev.get("name").unwrap().as_str().is_some());
        let args = ev.get("args").unwrap();
        assert!(args.get("a").unwrap().as_num().is_some());
        assert!(args.get("b").unwrap().as_num().is_some());
    }
    // Nanosecond resolution survives the microsecond unit.
    assert_eq!(events[1].get("ts").unwrap().as_num(), Some(1.234));
    // The empty trace parses too.
    assert!(json::parse(&chrome_json(&[])).is_ok());
}

#[test]
fn global_recorder_round_trips_through_the_exporter() {
    // This test owns the global recorder within this test binary.
    hermes_trace::reset();
    for r in fixture() {
        hermes_trace::global().emit(r.ts, r.kind, r.worker, r.a, r.b);
    }
    let drained = hermes_trace::drain();
    assert_eq!(drained.len(), 5);
    assert_eq!(chrome_json(&drained), GOLDEN);
    let s = hermes_trace::summary(&drained, 0);
    assert!(s.contains("sim.syn"));
    assert!(s.contains("5 events"));
}
