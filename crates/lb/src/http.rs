//! Incremental HTTP/1.1 parsing and encoding over [`bytes`] buffers.
//!
//! Scope: what an L7 LB's hot path needs — request line, headers,
//! `Content-Length` bodies, and response encoding. Deliberately not a
//! general HTTP implementation (no chunked encoding, no trailers, no
//! HTTP/2): the paper's LB terminates and routes; this parser gives the
//! routing layer its method/target/host without pulling a dependency.

use bytes::{BufMut, Bytes, BytesMut};

/// The buffer requests are parsed out of: callers append what they read
/// from the socket, the parser splits consumed requests off the front.
/// Name this, not the `bytes` type behind it, so that type can change.
pub type RequestBuf = BytesMut;

/// Maximum accepted head (request line + headers) size, an LB-style
/// defensive limit.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Method token (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// Request target (origin-form path + query).
    pub target: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Body bytes (`Content-Length`-delimited; empty if none).
    pub body: Bytes,
}

impl Request {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `Host` header, as routing wants it (port stripped).
    pub fn host(&self) -> Option<&str> {
        self.header("host")
            .map(|h| h.split(':').next().unwrap_or(h))
    }

    /// Path component of the target (query stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Parse errors ⇒ a 400 response and connection close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or header.
    Malformed,
    /// Head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Body exceeded [`MAX_BODY_BYTES`] or bad `Content-Length`.
    BodyTooLarge,
    /// Unsupported version (only HTTP/1.0 and 1.1).
    Version,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed => write!(f, "malformed request"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Version => write!(f, "unsupported http version"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Try to parse one request from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed (the incremental
/// contract: callers keep reading from the socket and retry). On success
/// the consumed bytes are split off `buf`, so pipelined requests parse on
/// subsequent calls.
///
/// Each retry rescans the buffer for the head terminator; worst case
/// (a head trickled byte-by-byte) is O(MAX_HEAD_BYTES²) per connection —
/// bounded, and the server's per-connection deadline caps the wall time,
/// but callers feeding large chunks amortize it away.
pub fn parse_request(buf: &mut RequestBuf) -> Result<Option<Request>, HttpError> {
    // Find end of head: CRLFCRLF.
    let Some(head_end) = find_subsequence(buf, b"\r\n\r\n") else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    // Parse into owned values inside a scope so the borrow of `buf` ends
    // before `split_to` consumes from it.
    let (method, target, headers, content_length) = {
        let head = &buf[..head_end];
        let head_str = std::str::from_utf8(head).map_err(|_| HttpError::Malformed)?;
        let mut lines = head_str.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::Malformed)?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or(HttpError::Malformed)?;
        let target = parts.next().ok_or(HttpError::Malformed)?;
        let version = parts.next().ok_or(HttpError::Malformed)?;
        if parts.next().is_some() || method.is_empty() || target.is_empty() {
            return Err(HttpError::Malformed);
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::Version);
        }
        let mut headers = Vec::new();
        let mut content_length = None;
        for line in lines {
            let (name, value) = line.split_once(':').ok_or(HttpError::Malformed)?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::Malformed);
            }
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_string();
            // Anything that could make the next hop frame this request
            // differently is refused, not guessed at: a body this parser
            // cannot delimit (it would read the chunks as the next
            // pipelined request), two lengths that disagree, and a length
            // that is not plain digits (`usize::from_str` takes a sign).
            if name == "transfer-encoding" {
                return Err(HttpError::Malformed);
            }
            if name == "content-length" {
                if !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::Malformed);
                }
                let length: usize = value.parse().map_err(|_| HttpError::Malformed)?;
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(HttpError::Malformed);
                }
                if length > MAX_BODY_BYTES {
                    return Err(HttpError::BodyTooLarge);
                }
                content_length = Some(length);
            }
            headers.push((name, value));
        }
        (
            method.to_string(),
            target.to_string(),
            headers,
            content_length.unwrap_or(0),
        )
    };
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None); // body still in flight
    }
    let mut consumed = buf.split_to(total);
    let body = consumed.split_off(head_end + 4).freeze();
    Ok(Some(Request {
        method,
        target,
        headers,
        body,
    }))
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Response status codes the proxy emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatusCode {
    /// 200
    Ok,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 502
    BadGateway,
    /// 503
    ServiceUnavailable,
}

impl StatusCode {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::BadGateway => 502,
            StatusCode::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::NotFound => "Not Found",
            StatusCode::BadGateway => "Bad Gateway",
            StatusCode::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status line code.
    pub status: StatusCode,
    /// Extra headers (names as given).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: StatusCode) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// Add a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Set the body.
    pub fn body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Encode as HTTP/1.1 wire bytes (Content-Length always emitted).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(64 + self.body.len());
        out.put_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status.code(),
                self.status.reason()
            )
            .as_bytes(),
        );
        for (n, v) in &self.headers {
            out.put_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.put_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.put_slice(&self.body);
        out.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(s: &[u8]) -> BytesMut {
        BytesMut::from(s)
    }

    #[test]
    fn parses_a_simple_get() {
        let mut b =
            buf(b"GET /index.html?x=1 HTTP/1.1\r\nHost: example.com:8080\r\nX-A: b\r\n\r\n");
        let req = parse_request(&mut b).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/index.html?x=1");
        assert_eq!(req.path(), "/index.html");
        assert_eq!(req.host(), Some("example.com"));
        assert_eq!(req.header("x-a"), Some("b"));
        assert!(req.body.is_empty());
        assert!(b.is_empty(), "consumed fully");
    }

    #[test]
    fn incremental_parsing_waits_for_more_bytes() {
        let mut b = buf(b"GET / HTTP/1.1\r\nHost: a");
        assert_eq!(parse_request(&mut b).unwrap(), None);
        b.extend_from_slice(b"\r\n\r\n");
        assert!(parse_request(&mut b).unwrap().is_some());
    }

    #[test]
    fn content_length_body() {
        let mut b = buf(b"POST /u HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
        assert_eq!(parse_request(&mut b).unwrap(), None); // body incomplete
        b.extend_from_slice(b"lo");
        let req = parse_request(&mut b).unwrap().unwrap();
        assert_eq!(&req.body[..], b"hello");
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let mut b = buf(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let a = parse_request(&mut b).unwrap().unwrap();
        let c = parse_request(&mut b).unwrap().unwrap();
        assert_eq!(a.target, "/a");
        assert_eq!(c.target, "/b");
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",                         // missing version
            b"GET / HTTP/2.0\r\n\r\n",                // unsupported version
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", // bad header
            b"GET / HTTP/1.1 extra\r\n\r\n",          // extra token
            b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", // signed length
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        ] {
            let mut b = buf(bad);
            assert!(parse_request(&mut b).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn enforces_head_and_body_limits() {
        let mut huge_head = BytesMut::new();
        huge_head.extend_from_slice(b"GET / HTTP/1.1\r\n");
        huge_head.extend_from_slice(&vec![b'a'; MAX_HEAD_BYTES + 10]);
        assert_eq!(parse_request(&mut huge_head), Err(HttpError::HeadTooLarge));

        let mut big_body = buf(format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .as_bytes());
        assert_eq!(parse_request(&mut big_body), Err(HttpError::BodyTooLarge));
    }

    #[test]
    fn response_encoding_round_trips_shape() {
        let r = Response::new(StatusCode::Ok)
            .header("x-served-by", "pool-a")
            .body("hello");
        let wire = r.encode();
        let s = std::str::from_utf8(&wire).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("x-served-by: pool-a\r\n"));
        assert!(s.contains("content-length: 5\r\n\r\nhello"));
    }

    /// Feed `wire` split at one boundary, parsing after each chunk, and
    /// return every request produced. Mirrors what a socket delivers: the
    /// parser must give identical results no matter where reads land.
    fn parse_split(wire: &[u8], split: usize) -> Vec<Request> {
        let mut b = BytesMut::new();
        let mut out = Vec::new();
        for chunk in [&wire[..split], &wire[split..]] {
            b.extend_from_slice(chunk);
            while let Some(req) = parse_request(&mut b).expect("valid wire bytes") {
                out.push(req);
            }
        }
        assert!(b.is_empty(), "residue after split at {split}");
        out
    }

    #[test]
    fn framing_survives_every_read_boundary() {
        // Two pipelined POSTs with bodies in one stream: any TCP segmentation
        // — including splits inside "\r\n\r\n" and mid-body — must produce
        // the same two requests.
        let wire = b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\nalpha!!\
POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
        for split in 0..=wire.len() {
            let reqs = parse_split(wire, split);
            assert_eq!(reqs.len(), 2, "split at {split}");
            assert_eq!(reqs[0].target, "/a");
            assert_eq!(&reqs[0].body[..], b"alpha!!");
            assert_eq!(reqs[1].target, "/b");
            assert_eq!(&reqs[1].body[..], b"xyz");
        }
    }

    #[test]
    fn framing_survives_byte_trickle() {
        // Slow-loris shape: one byte per read. The parser must keep asking
        // for more without consuming, then frame both requests exactly.
        let wire = b"GET /x?q=1 HTTP/1.1\r\nHost: t\r\n\r\nPOST /y HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut b = BytesMut::new();
        let mut out = Vec::new();
        for &byte in wire.iter() {
            b.extend_from_slice(&[byte]);
            while let Some(req) = parse_request(&mut b).expect("valid wire bytes") {
                out.push(req);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].target, "/x?q=1");
        assert!(out[0].body.is_empty());
        assert_eq!(&out[1].body[..], b"ok");
        assert!(b.is_empty());
    }

    #[test]
    fn three_pipelined_requests_in_one_buffer_keep_order_and_bodies() {
        let mut b = buf(b"POST /1 HTTP/1.1\r\nContent-Length: 4\r\n\r\naaaa\
GET /2 HTTP/1.1\r\nHost: h\r\n\r\n\
POST /3 HTTP/1.1\r\nContent-Length: 1\r\n\r\nz");
        let mut got = Vec::new();
        while let Some(req) = parse_request(&mut b).unwrap() {
            got.push(req);
        }
        assert_eq!(
            got.iter().map(|r| r.target.as_str()).collect::<Vec<_>>(),
            ["/1", "/2", "/3"]
        );
        assert_eq!(&got[0].body[..], b"aaaa");
        assert!(got[1].body.is_empty());
        assert_eq!(&got[2].body[..], b"z");
    }

    #[test]
    fn pipelined_garbage_after_a_valid_request_errors_without_losing_it() {
        // The valid request frames and is consumed; the trailing garbage
        // then errors on the next call (connection close, request served).
        let mut b = buf(b"GET /ok HTTP/1.1\r\n\r\nNOT HTTP AT ALL\r\n\r\n");
        let ok = parse_request(&mut b).unwrap().unwrap();
        assert_eq!(ok.target, "/ok");
        assert!(parse_request(&mut b).is_err());
    }

    #[test]
    fn oversized_head_boundary_is_exact() {
        // A head whose terminator lands exactly at MAX_HEAD_BYTES parses;
        // one byte more is rejected — and an unterminated head is rejected
        // as soon as the buffer exceeds the limit, not at some later read.
        let request_line = b"GET / HTTP/1.1\r\nx-pad: ";
        let pad = MAX_HEAD_BYTES - request_line.len(); // head_end == MAX_HEAD_BYTES
        let mut exact = BytesMut::new();
        exact.extend_from_slice(request_line);
        exact.extend_from_slice(&vec![b'p'; pad]);
        exact.extend_from_slice(b"\r\n\r\n");
        let req = parse_request(&mut exact).unwrap().unwrap();
        assert_eq!(req.header("x-pad").unwrap().len(), pad);

        let mut over = BytesMut::new();
        over.extend_from_slice(request_line);
        over.extend_from_slice(&vec![b'p'; pad + 1]);
        over.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_request(&mut over), Err(HttpError::HeadTooLarge));

        let mut unterminated = BytesMut::new();
        unterminated.extend_from_slice(request_line);
        unterminated.extend_from_slice(&vec![b'p'; MAX_HEAD_BYTES]);
        assert_eq!(
            parse_request(&mut unterminated),
            Err(HttpError::HeadTooLarge)
        );
    }

    #[test]
    fn status_codes_cover_proxy_paths() {
        assert_eq!(StatusCode::BadRequest.code(), 400);
        assert_eq!(StatusCode::NotFound.code(), 404);
        assert_eq!(StatusCode::BadGateway.code(), 502);
        assert_eq!(
            StatusCode::ServiceUnavailable.reason(),
            "Service Unavailable"
        );
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use hermes_metrics::rng::for_each_case;

    /// The parser never panics on arbitrary bytes: it asks for more,
    /// errors, or parses.
    #[test]
    fn parser_is_total() {
        for_each_case(256, |g| {
            let data: Vec<u8> = (0..g.index(2048)).map(|_| g.next_u64() as u8).collect();
            let _ = parse_request(&mut RequestBuf::from(&data[..]));
        });
    }

    /// The same, from inputs that get past the first check: a valid
    /// request with a few bytes overwritten, removed or cut off.
    #[test]
    fn parser_is_total_on_damaged_requests() {
        let valid = b"POST /api/items?x=1 HTTP/1.1\r\nHost: h\r\ncontent-length: 5\r\n\r\nhello";
        for_each_case(256, |g| {
            let mut data = valid.to_vec();
            for _ in 0..1 + g.index(3) {
                let at = g.index(data.len());
                match g.index(3) {
                    0 => data[at] = g.next_u64() as u8,
                    1 => drop(data.remove(at)),
                    _ => data.truncate(at.max(1)),
                }
            }
            let _ = parse_request(&mut RequestBuf::from(&data[..]));
        });
    }

    /// Valid requests parse back to their method, target and body, and
    /// consume exactly their own bytes.
    #[test]
    fn well_formed_requests_parse() {
        for_each_case(256, |g| {
            let mut text = |alphabet: &[u8], min: usize, max: usize| -> String {
                let len = min + g.index(max - min + 1);
                (0..len)
                    .map(|_| alphabet[g.index(alphabet.len())] as char)
                    .collect()
            };
            let method = text(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 3, 7);
            let path = format!("/{}", text(b"abcdefghijklmnopqrstuvwxyz0123456789/", 0, 30));
            let body: Vec<u8> = (0..g.index(256)).map(|_| g.next_u64() as u8).collect();
            let mut wire = RequestBuf::new();
            wire.extend_from_slice(
                format!(
                    "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            wire.extend_from_slice(&body);
            let req = parse_request(&mut wire).unwrap().unwrap();
            assert_eq!(req.method, method);
            assert_eq!(req.target, path);
            assert_eq!(&req.body[..], &body[..]);
            assert!(wire.is_empty());
        });
    }
}
