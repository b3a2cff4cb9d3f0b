//! A hand-rolled HTTP/1.1 subset: exactly what the gateway needs and no
//! more (the build has no registry access, so no hyper).
//!
//! Supported: request-line + header parsing with hard size bounds,
//! `Content-Length` bodies, keep-alive, fixed-length JSON responses, and
//! chunked transfer encoding for the streaming metrics endpoint.  Not
//! supported (requests carrying them are rejected, not misread): request
//! trailers, `Transfer-Encoding` on requests, HTTP/2, TLS.

use std::io::{self, BufRead, Write};

/// Hard cap on the request line plus all header bytes.
pub(crate) const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Hard cap on a request body (`Content-Length`).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-cased (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path component of the request target (before any `?`).
    pub path: String,
    /// Query string (after `?`), when present.
    pub query: Option<String>,
    /// Header name/value pairs, names lower-cased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }

    /// The bearer token carried in the `Authorization` header, if any.
    pub(crate) fn bearer_token(&self) -> Option<&str> {
        self.header("authorization")?
            .strip_prefix("Bearer ")
            .map(str::trim)
            .filter(|token| !token.is_empty())
    }

    /// Whether the client asked to keep the connection open after this
    /// exchange (HTTP/1.1 default; an explicit `Connection: close` wins).
    pub(crate) fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|value| value.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Connection-level failure; drop the connection without replying.
    Io(io::Error),
    /// Protocol violation; reply with this status, then close.
    Bad {
        /// HTTP status to send (400 or 413).
        status: u16,
        /// Human-readable cause, returned in the error body.
        message: String,
    },
}

impl From<io::Error> for HttpError {
    fn from(err: io::Error) -> Self {
        HttpError::Io(err)
    }
}

fn bad(message: impl Into<String>) -> HttpError {
    HttpError::Bad {
        status: 400,
        message: message.into(),
    }
}

fn too_large(message: impl Into<String>) -> HttpError {
    HttpError::Bad {
        status: 413,
        message: message.into(),
    }
}

/// Reads one request off the connection.  `Ok(None)` is a clean EOF
/// between requests (the keep-alive peer hung up).
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut header_bytes = 0usize;
    let request_line = match read_header_line(reader, &mut header_bytes)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad("request line has no HTTP version"))?;
    if parts.next().is_some() {
        return Err(bad("malformed request line"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad(format!("unsupported version {version:?}")));
    }
    if !target.starts_with('/') {
        return Err(bad(format!("unsupported request target {target:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_header_line(reader, &mut header_bytes)?
            .ok_or_else(|| bad("connection closed mid-headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(bad("Transfer-Encoding request bodies are not supported"));
    }
    let body = match request.header("content-length") {
        None => Vec::new(),
        Some(text) => {
            let length: usize = text
                .parse()
                .map_err(|_| bad(format!("bad Content-Length {text:?}")))?;
            if length > MAX_BODY_BYTES {
                return Err(too_large(format!(
                    "body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
                )));
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body)?;
            body
        }
    };
    Ok(Some(Request { body, ..request }))
}

/// Reads one CRLF- (or bare-LF-) terminated line, charging its bytes
/// against the per-request header budget.  `None` = EOF before any byte.
fn read_header_line<R: BufRead>(
    reader: &mut R,
    header_bytes: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(bad("connection closed mid-line"));
            }
            Ok(_) => {
                *header_bytes += 1;
                if *header_bytes > MAX_HEADER_BYTES {
                    return Err(too_large(format!(
                        "headers exceed the {MAX_HEADER_BYTES}-byte cap"
                    )));
                }
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| bad("header line is not valid UTF-8"))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
            }
            Err(err) => return Err(HttpError::Io(err)),
        }
    }
}

/// The reason phrase for the statuses the gateway emits.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        502 => "Bad Gateway",
        _ => "Response",
    }
}

/// A fixed-length JSON response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The (already-rendered) JSON body.
    pub body: String,
}

impl Response {
    /// A JSON response with this status and body.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
        }
    }

    /// Serializes status line, headers, and body onto the wire in a single
    /// write: a reply split over several small writes meets Nagle's
    /// algorithm and the peer's delayed ACK, which costs ~40 ms apiece.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        let wire = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
            self.status,
            status_reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
            self.body
        );
        writer.write_all(wire.as_bytes())?;
        writer.flush()
    }
}

/// Writes a chunked (`Transfer-Encoding: chunked`) response body piece by
/// piece — the streaming half of the gateway.  The connection always
/// closes after a stream.
pub(crate) struct ChunkWriter<W: Write> {
    inner: W,
}

impl<W: Write> ChunkWriter<W> {
    /// Writes the response head (one write) and returns the writer for the
    /// chunks.
    pub(crate) fn start(
        mut inner: W,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkWriter<W>> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            status_reason(status),
            content_type
        );
        inner.write_all(head.as_bytes())?;
        inner.flush()?;
        Ok(ChunkWriter { inner })
    }

    /// Writes one chunk, size line and data in one write (empty input is
    /// skipped: a zero-length chunk would terminate the stream).
    pub(crate) fn chunk(&mut self, data: &str) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let chunk = format!("{:x}\r\n{}\r\n", data.len(), data);
        self.inner.write_all(chunk.as_bytes())?;
        self.inner.flush()
    }

    /// Writes the terminating zero-length chunk.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_full_request_with_body_and_query() {
        let raw = "POST /v1/tenants?x=1 HTTP/1.1\r\nHost: h\r\nAuthorization: Bearer s3cret\r\nContent-Length: 4\r\n\r\nbody";
        let request = parse(raw).unwrap().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/tenants");
        assert_eq!(request.query.as_deref(), Some("x=1"));
        assert_eq!(request.bearer_token(), Some("s3cret"));
        assert_eq!(request.body, b"body");
        assert!(request.keep_alive());
    }

    #[test]
    fn eof_between_requests_is_clean() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn connection_close_and_bare_lf_are_honored() {
        let request = parse("GET / HTTP/1.1\nConnection: close\n\n")
            .unwrap()
            .unwrap();
        assert!(!request.keep_alive());
    }

    #[test]
    fn rejects_oversized_headers_and_bodies() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(MAX_HEADER_BYTES)
        );
        assert!(matches!(
            parse(&raw),
            Err(HttpError::Bad { status: 413, .. })
        ));
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(&raw),
            Err(HttpError::Bad { status: 413, .. })
        ));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse("GET\r\n\r\n"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            parse("GET http://x/ HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn response_and_chunks_serialize_to_the_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        let mut chunks = ChunkWriter::start(&mut out, 200, "application/jsonl").unwrap();
        chunks.chunk("{\"epoch\":1}\n").unwrap();
        chunks.chunk("").unwrap();
        chunks.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("c\r\n{\"epoch\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    /// A sink that records every `write` call separately, as a socket
    /// without a userspace buffer would see them.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_piece_reaches_the_socket_in_one_write() {
        let mut log = WriteLog::default();
        Response::json(404, "{\"error\":\"nope\"}")
            .write_to(&mut log, false)
            .unwrap();
        assert_eq!(
            log.0,
            [
                b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
               Content-Length: 16\r\nConnection: close\r\n\r\n{\"error\":\"nope\"}"
                    .to_vec()
            ]
        );

        let mut log = WriteLog::default();
        let mut chunks = ChunkWriter::start(&mut log, 200, "application/jsonl").unwrap();
        chunks.chunk("{\"epoch\":1}\n").unwrap();
        chunks.chunk("").unwrap();
        chunks.chunk("{\"epoch\":2}\n").unwrap();
        chunks.finish().unwrap();
        assert_eq!(
            log.0,
            [
                b"HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\n\
                  Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                    .to_vec(),
                b"c\r\n{\"epoch\":1}\n\r\n".to_vec(),
                b"c\r\n{\"epoch\":2}\n\r\n".to_vec(),
                b"0\r\n\r\n".to_vec(),
            ]
        );
    }
}
