//! Workload trace serialization.
//!
//! The paper's Table 3 methodology is *capture and replay*: traffic from
//! problem cases was collected and replayed at 1×/2×/3×. This module gives
//! the workspace the same workflow — a generated (or hand-built) workload
//! can be saved as a text trace, shared, edited by hand, and replayed
//! bit-identically under any dispatch mode or configuration.
//!
//! The format is one record per line, fields separated by blanks; blank
//! lines and lines starting with `#` are skipped:
//!
//! ```text
//! trace    = header name duration { conn { req } }
//! header   = "hermes-trace" "1"
//! name     = "name" { word }
//! duration = "duration_ns" u64
//! conn     = "conn" arrival_ns:u64 src_ip:u32 src_port:u16 dst_ip:u32
//!                   dst_port:u16 tenant:u16 port:u16 linger_ns:( u64 | "-" )
//! req      = "req" start_offset_ns:u64 service_ns:u64 events:u32 size_bytes:u32
//! ```
//!
//! A `req` belongs to the nearest `conn` above it. Numbers are decimal.
//! Only this module knows the format.

use crate::spec::{ConnectionSpec, RequestSpec, Workload};
use hermes_core::FlowKey;
use std::fmt::Write as _;
use std::path::Path;
use std::str::FromStr;

/// The format version this module writes and reads.
const VERSION: u32 = 1;

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed trace content.
    Format {
        /// 1-based line of the offending record (one past the last line
        /// when the trace ends too early).
        line: usize,
        /// What is wrong with it.
        what: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
            TraceError::Format { line, what } => {
                write!(f, "trace format error: line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Serialize a workload to trace text. The name is written as its
/// blank-separated words (it is a label, one line of the format).
pub fn to_text(wl: &Workload) -> String {
    let name = wl.name.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut out = format!(
        "hermes-trace {VERSION}\nname {name}\nduration_ns {}\n",
        wl.duration_ns
    );
    for c in &wl.conns {
        let (flow, linger) = (c.flow, c.linger_ns.map_or("-".into(), |ns| ns.to_string()));
        writeln!(
            out,
            "conn {} {} {} {} {} {} {} {linger}",
            c.arrival_ns, flow.src_ip, flow.src_port, flow.dst_ip, flow.dst_port, c.tenant, c.port
        )
        .expect("writing to a String cannot fail");
        for r in &c.requests {
            writeln!(
                out,
                "req {} {} {} {}",
                r.start_offset_ns, r.service_ns, r.events, r.size_bytes
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// One record: the line it is on and its words, the kind first.
struct Record<'a> {
    line: usize,
    words: Vec<&'a str>,
}

impl Record<'_> {
    fn err(&self, what: String) -> TraceError {
        TraceError::Format {
            line: self.line,
            what,
        }
    }

    /// The record must have `n` fields after its kind.
    fn fields(&self, n: usize) -> Result<(), TraceError> {
        match self.words.len() - 1 {
            have if have == n => Ok(()),
            have => Err(self.err(format!("`{}` takes {n} fields, not {have}", self.words[0]))),
        }
    }

    /// Field `i`, counted from 1 and within what `fields` checked.
    fn num<T: FromStr>(&self, i: usize) -> Result<T, TraceError> {
        let word = self.words[i];
        word.parse()
            .map_err(|_| self.err(format!("field {i}: `{word}` is not a number in range")))
    }
}

/// Parse trace text and re-seal the workload: connections are sorted by
/// arrival and each one's requests by offset, rather than trusted.
pub fn from_text(text: &str) -> Result<Workload, TraceError> {
    // Every line that is not blank or a comment.
    let mut records = text.lines().enumerate().filter_map(|(i, l)| {
        let words: Vec<&str> = l.split_whitespace().collect();
        (!words.first()?.starts_with('#')).then_some(Record { line: i + 1, words })
    });
    // The three fixed lines: each must be there, in order.
    let mut fixed = |keyword: &str| match records.next() {
        Some(r) if r.words[0] == keyword => Ok(r),
        Some(r) => Err(r.err(format!("expected `{keyword}`, found `{}`", r.words[0]))),
        None => Err(TraceError::Format {
            line: text.lines().count() + 1,
            what: format!("trace ends before `{keyword}`"),
        }),
    };
    let r = fixed("hermes-trace")?;
    r.fields(1)?;
    if r.num::<u32>(1)? != VERSION {
        return Err(r.err(format!("this reader knows version {VERSION} only")));
    }
    let name = fixed("name")?.words[1..].join(" ");
    let r = fixed("duration_ns")?;
    r.fields(1)?;
    let mut wl = Workload::new(name, r.num(1)?);

    for r in records {
        match r.words[0] {
            "conn" => {
                r.fields(8)?;
                wl.push(ConnectionSpec {
                    arrival_ns: r.num(1)?,
                    flow: FlowKey::new(r.num(2)?, r.num(3)?, r.num(4)?, r.num(5)?),
                    tenant: r.num(6)?,
                    port: r.num(7)?,
                    requests: Vec::new(),
                    linger_ns: if r.words[8] == "-" {
                        None
                    } else {
                        Some(r.num(8)?)
                    },
                });
            }
            "req" => {
                r.fields(4)?;
                let Some(conn) = wl.conns.last_mut() else {
                    return Err(r.err("`req` before any `conn`".into()));
                };
                conn.requests.push(RequestSpec {
                    start_offset_ns: r.num(1)?,
                    service_ns: r.num(2)?,
                    events: r.num(3)?,
                    size_bytes: r.num(4)?,
                });
            }
            other => return Err(r.err(format!("unknown record kind `{other}`"))),
        }
    }
    for c in &mut wl.conns {
        c.requests.sort_by_key(|r| r.start_offset_ns);
    }
    Ok(wl.seal())
}

/// Write a workload trace to disk.
pub fn save(wl: &Workload, path: impl AsRef<Path>) -> Result<(), TraceError> {
    Ok(std::fs::write(path, to_text(wl))?)
}

/// Load a workload trace from disk.
pub fn load(path: impl AsRef<Path>) -> Result<Workload, TraceError> {
    from_text(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Case, CaseLoad};
    use hermes_metrics::rng::for_each_case;

    #[test]
    fn text_round_trip_is_identity() {
        let wl = Case::Case2.workload(CaseLoad::Light, 2, 300_000_000, 11);
        let back = from_text(&to_text(&wl)).unwrap();
        assert_eq!(back.name, wl.name);
        assert_eq!(back.duration_ns, wl.duration_ns);
        assert_eq!(back.conns, wl.conns);
        // Case 3 exercises what Case 2 does not: many requests per
        // connection and `linger_ns: Some`.
        let wl = Case::Case3.workload(CaseLoad::Light, 2, 300_000_000, 11);
        assert!(wl.conns.iter().any(|c| c.linger_ns.is_some()));
        assert_eq!(from_text(&to_text(&wl)).unwrap().conns, wl.conns);
    }

    #[test]
    fn file_round_trip() {
        let wl = Case::Case1.workload(CaseLoad::Light, 2, 100_000_000, 12);
        let path = std::env::temp_dir().join("hermes_trace_test.trace");
        save(&wl, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.conns, wl.conns);
        let _ = std::fs::remove_file(path);
    }

    /// A hand-written trace: comments, blank lines, ragged spacing,
    /// arrivals and request offsets out of order.
    const HAND: &str = "\
# two connections, written by hand
hermes-trace 1
name hand made
duration_ns 1000000

conn 500   1 2 3 4   0 4   -
req 90 1000 2 64
req 10 2000 1 32
conn 100   5 6 7 8   0 8   250
";

    #[test]
    fn load_reseals_unsorted_traces() {
        let wl = from_text(HAND).unwrap();
        assert_eq!(wl.name, "hand made");
        assert_eq!(wl.duration_ns, 1_000_000);
        assert_eq!(wl.conns[0].arrival_ns, 100);
        assert_eq!(wl.conns[0].flow, FlowKey::new(5, 6, 7, 8));
        assert_eq!(wl.conns[0].linger_ns, Some(250));
        assert_eq!(wl.conns[1].arrival_ns, 500);
        assert_eq!(wl.conns[1].linger_ns, None);
        let offsets: Vec<u64> = wl.conns[1]
            .requests
            .iter()
            .map(|r| r.start_offset_ns)
            .collect();
        assert_eq!(offsets, [10, 90]);
        assert_eq!(wl.conns[1].requests[0].service_ns, 2000);
    }

    #[test]
    fn malformed_input_is_a_format_error_naming_the_line() {
        let cases: [(&str, &str, usize); 13] = [
            ("empty", "", 1),
            ("bad header", "hermes-trase 1\nname x\nduration_ns 5\n", 1),
            ("bad version", "hermes-trace 2\nname x\nduration_ns 5\n", 1),
            ("json", "{not json", 1),
            ("ends after the header", "hermes-trace 1\nname x\n", 3),
            ("name missing", "hermes-trace 1\nduration_ns 5\n", 2),
            (
                "non-numeric field",
                "hermes-trace 1\nname x\nduration_ns 5\nconn 1 2 3 4 5 six 7 -\n",
                4,
            ),
            (
                "overflowing field (src_port is u16)",
                "hermes-trace 1\nname x\nduration_ns 5\nconn 1 2 65536 4 5 6 7 -\n",
                4,
            ),
            (
                "truncated record",
                "hermes-trace 1\nname x\nduration_ns 5\nconn 1 2 3 4 5 6 7 -\nreq 0 10",
                5,
            ),
            (
                "extra field",
                "hermes-trace 1\nname x\nduration_ns 5\nconn 1 2 3 4 5 6 7 - 9\n",
                4,
            ),
            (
                "unknown record kind",
                "hermes-trace 1\nname x\nduration_ns 5\n\nflow 1 2 3\n",
                5,
            ),
            (
                "req before any conn",
                "hermes-trace 1\nname x\nduration_ns 5\nreq 0 10 1 64\n",
                4,
            ),
            (
                "negative number",
                "hermes-trace 1\nname x\nduration_ns -5\n",
                3,
            ),
        ];
        for (what, text, want_line) in cases {
            match from_text(text) {
                Err(TraceError::Format { line, .. }) => assert_eq!(line, want_line, "{what}"),
                other => panic!("{what}: expected a format error, got {other:?}"),
            }
        }
    }

    /// Whatever happens to a valid trace's bytes, the reader answers with a
    /// workload or a format error inside the text — it never panics.
    #[test]
    fn mutated_traces_never_panic() {
        let valid = to_text(&Case::Case3.workload(CaseLoad::Light, 2, 50_000_000, 13)).into_bytes();
        let lines = valid.iter().filter(|&&b| b == b'\n').count();
        for_each_case(512, |g| {
            let mut bytes = valid.clone();
            for _ in 0..1 + g.index(4) {
                let at = g.index(bytes.len());
                match g.index(4) {
                    0 => bytes[at] = g.next_u64() as u8,
                    1 => drop(bytes.remove(at)),
                    2 => bytes.insert(at, b" \n-9x#"[g.index(6)]),
                    _ => bytes.truncate(at),
                }
            }
            match from_text(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => {}
                // At most four inserted newlines, plus "one past the end".
                Err(TraceError::Format { line, .. }) => {
                    assert!((1..=lines + 5).contains(&line), "line {line} of {lines}")
                }
                Err(other) => panic!("unexpected error kind {other:?}"),
            }
        });
    }

    #[test]
    fn missing_file_is_an_io_error() {
        match load("/nonexistent/path/to/trace") {
            Err(TraceError::Io(_)) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
