//! A deliberately minimal HTTP/1.1 subset, hand-rolled on blocking
//! `TcpStream`s because the dependency set has no async runtime or HTTP
//! crate.
//!
//! Supported: request bodies delimited by `Content-Length`, JSON
//! responses, and opt-in connection reuse — a client that sends
//! `Connection: keep-alive` gets the response with the same header and
//! may issue further requests on the socket (the server bounds idle time
//! and requests per connection). Clients that omit the header (curl,
//! browsers, the old one-shot path) get `Connection: close`, exactly as
//! before. Not supported: pipelining, chunked transfer encoding,
//! percent-decoding, multi-line headers.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Header section size cap: a well-formed request to this service fits in
/// a fraction of this; anything larger is garbage or abuse.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Body size cap. Job submissions are a few hundred bytes; ensemble-search
/// requests are smaller still.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, as sent ("GET", "POST", …).
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Query string after `?`, if any (not percent-decoded).
    pub query: Option<String>,
    /// Raw body bytes (`Content-Length` of them).
    pub body: Vec<u8>,
    /// Whether the client asked to reuse the connection
    /// (`Connection: keep-alive`). Connection reuse is opt-in: absent or
    /// any other value means close-after-response.
    pub keep_alive: bool,
    /// Value of the `X-Api-Key` header, when present — tenant identity on
    /// a multi-tenant server (ignored otherwise).
    pub api_key: Option<String>,
}

/// Why a request could not be read, mapped to a status by the handler:
/// `TooLarge` → 413, `Malformed` → 400, `Io` → drop the connection.
#[derive(Debug)]
pub enum RequestError {
    /// The declared or actual body exceeds [`MAX_BODY_BYTES`] (or the
    /// header section exceeds [`MAX_HEADER_BYTES`]).
    TooLarge(String),
    /// The bytes do not form a parseable HTTP/1.1 request.
    Malformed(String),
    /// The socket failed or closed mid-request.
    Io(io::Error),
}

impl RequestError {
    /// The HTTP status this error maps to (`Io` has none — nothing can be
    /// written back reliably).
    pub fn status(&self) -> Option<u16> {
        match self {
            RequestError::TooLarge(_) => Some(413),
            RequestError::Malformed(_) => Some(400),
            RequestError::Io(_) => None,
        }
    }

    /// Human-readable cause for the error payload.
    pub fn message(&self) -> String {
        match self {
            RequestError::TooLarge(m) | RequestError::Malformed(m) => m.clone(),
            RequestError::Io(e) => e.to_string(),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TooLarge(m) => write!(f, "request too large: {m}"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

fn bad(msg: &str) -> RequestError {
    RequestError::Malformed(msg.to_string())
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Read and parse one request from the stream. Blocks until the header
/// terminator and the full `Content-Length` body have arrived (per-socket
/// read timeouts bound how long a stalled client can hold a handler).
///
/// `carry` holds bytes read past the end of the previous request on a
/// kept-alive connection; on return it holds any bytes read past the end
/// of *this* request. Pass a fresh empty buffer for one-shot connections.
pub fn read_request(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<Request, RequestError> {
    let mut buf: Vec<u8> = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_subsequence(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge("header section too large".into()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before end of header",
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let header =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("header is not valid UTF-8"))?;
    let mut lines = header.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_string();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = false;
    let mut api_key: Option<String> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("unparseable Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            } else if name.eq_ignore_ascii_case("x-api-key") {
                api_key = Some(value.trim().to_string());
            }
        }
    }

    let leftover = buf.len() - (header_end + 4);
    let content_length = match content_length {
        Some(n) => n,
        // A request carrying body bytes without declaring Content-Length
        // is malformed — silently treating the length as 0 would make the
        // handler parse an empty body while payload bytes sit unread.
        None if leftover > 0 => return Err(bad("body present without Content-Length")),
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }

    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before end of body",
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    // Bytes past this request's body belong to the connection's next
    // request; hand them back through the carry buffer.
    *carry = body.split_off(content_length);

    Ok(Request {
        method,
        path,
        query,
        body,
        keep_alive,
        api_key,
    })
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a JSON response and flush. Closes the connection from the
/// protocol's point of view (`Connection: close`).
pub fn write_json(
    stream: &mut impl Write,
    status: u16,
    body: &serde_json::Value,
) -> io::Result<()> {
    write_response(stream, status, body, None, false)
}

/// [`write_json`] plus an optional `Retry-After: <seconds>` header, used
/// by admission control's 429 responses to tell clients when the queue is
/// expected to have drained.
pub fn write_json_with_retry_after(
    stream: &mut impl Write,
    status: u16,
    body: &serde_json::Value,
    retry_after_s: Option<u64>,
) -> io::Result<()> {
    write_response(stream, status, body, retry_after_s, false)
}

/// The full response writer: JSON body, optional `Retry-After`, and the
/// connection disposition — `keep_alive` echoes the client's opt-in so it
/// knows the socket remains usable.
///
/// Head and payload leave in ONE write: written separately, the payload
/// sits behind Nagle's algorithm until the client acknowledges the head,
/// and a client with delayed ACKs pays ≈ 40 ms per keep-alive exchange.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &serde_json::Value,
    retry_after_s: Option<u64>,
    keep_alive: bool,
) -> io::Result<()> {
    let payload = body.to_string();
    let retry = retry_after_s
        .map(|s| format!("Retry-After: {s}\r\n"))
        .unwrap_or_default();
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        status,
        reason_phrase(status),
        payload.len(),
        retry,
        connection
    );
    response.push_str(&payload);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Parse the value of one `key=value` pair out of a query string. No
/// percent-decoding — the service's query parameters are plain tokens.
pub fn query_param<'q>(query: Option<&'q str>, key: &str) -> Option<&'q str> {
    query?
        .split('&')
        .find_map(|kv| kv.split_once('=').filter(|(k, _)| *k == key))
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Run `read_request` against bytes pushed through a real socket pair.
    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut carry = Vec::new();
        let req = read_request(&mut stream, &mut carry);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /jobs/3?work=wall HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/3");
        assert_eq!(req.query.as_deref(), Some("work=wall"));
        assert!(req.body.is_empty());
        assert!(!req.keep_alive, "keep-alive must be opt-in");
    }

    #[test]
    fn keep_alive_is_parsed_and_carry_preserves_overread() {
        // Two keep-alive requests written back-to-back: the first read may
        // pull bytes of the second, which must survive in the carry buffer
        // and satisfy the second parse without further socket reads.
        let first = b"POST /jobs HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}";
        let second = b"GET /metrics HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut raw = first.to_vec();
            raw.extend_from_slice(second);
            s.write_all(&raw).unwrap();
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut carry = Vec::new();
        let one = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(one.path, "/jobs");
        assert!(one.keep_alive);
        assert_eq!(one.body, b"{}");
        let two = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(two.method, "GET");
        assert_eq!(two.path, "/metrics");
        assert!(two.keep_alive);
        assert!(carry.is_empty());
        drop(writer.join().unwrap());
    }

    #[test]
    fn connection_close_header_is_not_keep_alive() {
        let req = parse(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn api_key_header_is_parsed_case_insensitively() {
        let req = parse(b"GET /jobs HTTP/1.1\r\nx-API-key: tk-0-abc \r\n\r\n").unwrap();
        assert_eq!(req.api_key.as_deref(), Some("tk-0-abc"));
        let bare = parse(b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(bare.api_key.is_none());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(
            b"POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 18\r\n\r\n{\"algorithm\":\"PR\"}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"{\"algorithm\":\"PR\"}");
    }

    #[test]
    fn rejects_truncated_body() {
        let err =
            parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"short\"").unwrap_err();
        assert!(matches!(err, RequestError::Io(_)), "got {err:?}");
        assert_eq!(err.status(), None);
    }

    #[test]
    fn oversized_content_length_maps_to_413() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, RequestError::TooLarge(_)), "got {err:?}");
        assert_eq!(err.status(), Some(413));
    }

    #[test]
    fn body_without_content_length_maps_to_400() {
        let err =
            parse(b"POST /jobs HTTP/1.1\r\nHost: x\r\n\r\n{\"algorithm\":\"PR\"}").unwrap_err();
        assert!(matches!(err, RequestError::Malformed(_)), "got {err:?}");
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn unparseable_content_length_maps_to_400() {
        let err = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err();
        assert!(matches!(err, RequestError::Malformed(_)), "got {err:?}");
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        write_json_with_retry_after(
            &mut stream,
            429,
            &serde_json::json!({"error": "queue full"}),
            Some(7),
        )
        .unwrap();
        drop(stream);
        let raw = reader.join().unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Retry-After: 7\r\n"), "{raw}");
        assert!(raw.ends_with("{\"error\":\"queue full\"}"), "{raw}");
    }

    #[test]
    fn a_response_leaves_in_a_single_write() {
        /// Records every `write` call it receives.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Writes(Vec::new());
        write_response(
            &mut sink,
            200,
            &serde_json::json!({"id": 7, "state": "queued"}),
            Some(3),
            true,
        )
        .unwrap();
        assert_eq!(sink.0.len(), 1, "head and payload must share one write");
        let raw = String::from_utf8(sink.0.remove(0)).unwrap();
        let (head, payload) = raw.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(head.contains("Connection: keep-alive"), "{raw}");
        assert!(head.contains("Retry-After: 3"), "{raw}");
        assert!(head.contains(&format!("Content-Length: {}", payload.len())));
        assert_eq!(payload, "{\"id\":7,\"state\":\"queued\"}");
    }

    #[test]
    fn query_param_lookup() {
        assert_eq!(query_param(Some("work=wall&size=5"), "work"), Some("wall"));
        assert_eq!(query_param(Some("work=wall&size=5"), "size"), Some("5"));
        assert_eq!(query_param(Some("work=wall"), "missing"), None);
        assert_eq!(query_param(None, "work"), None);
    }
}
