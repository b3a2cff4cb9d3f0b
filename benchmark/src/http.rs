//! A keep-alive HTTP/1.1 client for the load generator.
//!
//! `gateway::client::request` opens a connection per request, which would
//! measure `connect` + thread spawn instead of the request path.  This
//! client holds one connection open, sets `TCP_NODELAY`, sends each request
//! in a single write, and checks every reply: a status outside 2xx or a body
//! without `"ok":true` is an error, never a latency sample.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One open connection to the gateway.
pub struct KeepAlive {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
    token: String,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl KeepAlive {
    /// Connects and configures the socket.
    pub fn connect(addr: SocketAddr, token: &str) -> io::Result<KeepAlive> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(KeepAlive {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            host: addr.to_string(),
            token: token.to_string(),
        })
    }

    /// Sends one request and returns the body of its reply, which must be
    /// a 2xx carrying `"ok":true`.
    pub fn call(&mut self, method: &str, target: &str, body: Option<&str>) -> io::Result<String> {
        let body = body.unwrap_or("");
        let mut request = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nAuthorization: Bearer {}\r\n",
            self.host, self.token
        );
        if !body.is_empty() {
            request.push_str("Content-Type: application/json\r\n");
        }
        request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        self.writer.write_all(request.as_bytes())?;

        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(invalid("the gateway closed the connection".to_string()));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|word| word.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut length: Option<usize> = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("connection closed inside the headers".to_string()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                }
            }
        }
        let length = length.ok_or_else(|| invalid("reply has no Content-Length".to_string()))?;
        let mut bytes = vec![0u8; length];
        self.reader.read_exact(&mut bytes)?;
        let reply =
            String::from_utf8(bytes).map_err(|_| invalid("reply body is not UTF-8".to_string()))?;
        if !(200..300).contains(&status) {
            return Err(invalid(format!(
                "{method} {target}: status {status}: {reply}"
            )));
        }
        if !reply.contains("\"ok\":true") {
            return Err(invalid(format!(
                "{method} {target}: body lacks ok:true: {reply}"
            )));
        }
        Ok(reply)
    }
}

/// The payload lines of a gateway reply body
/// (`{"ok":true,"lines":["...","..."]}`), unescaped far enough for the
/// plain `key=value` text the daemon sends.
pub fn reply_lines(body: &str) -> Vec<String> {
    let Some(start) = body.find("\"lines\":[") else {
        return Vec::new();
    };
    let mut lines = Vec::new();
    let mut current: Option<String> = None;
    let mut chars = body[start + "\"lines\":[".len()..].chars();
    while let Some(c) = chars.next() {
        match (&mut current, c) {
            (None, '"') => current = Some(String::new()),
            (None, ']') => break,
            (None, _) => {}
            (Some(_), '"') => lines.extend(current.take()),
            (Some(text), '\\') => {
                if let Some(escaped) = chars.next() {
                    text.push(escaped);
                }
            }
            (Some(text), c) => text.push(c),
        }
    }
    lines
}

/// The value of the first `key=value` word in the lines.
pub fn field<'a>(lines: &'a [String], key: &str) -> Option<&'a str> {
    lines
        .iter()
        .flat_map(|line| line.split_whitespace())
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_lines_and_fields_parse() {
        let body = r#"{"ok":true,"lines":["epoch=12 uptime_ms=340","store=knn restored_examples=20000 persist=a\"b"]}"#;
        let lines = reply_lines(body);
        assert_eq!(lines.len(), 2);
        assert_eq!(field(&lines, "epoch"), Some("12"));
        assert_eq!(field(&lines, "restored_examples"), Some("20000"));
        assert_eq!(field(&lines, "persist"), Some("a\"b"));
        assert_eq!(field(&lines, "missing"), None);
        assert!(reply_lines("{\"ok\":true,\"lines\":[]}").is_empty());
        assert!(reply_lines("{\"error\":\"x\"}").is_empty());
    }
}
