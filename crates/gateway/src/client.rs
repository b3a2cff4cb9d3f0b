//! A minimal HTTP client for the gateway's own dialect — enough for the
//! `selfheal-http` binary, the smoke scripts, and the integration tests to
//! talk to the server without curl.
//!
//! Supports exactly what [`crate::server`] emits: fixed-length JSON
//! responses and chunked JSON-lines streams, over plain TCP.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One completed request/response exchange.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl HttpReply {
    /// Whether the status is a success (2xx).
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Performs one request against `addr` (`host:port`).  `target` is the
/// path plus optional query; `token` becomes a bearer header; `body` is
/// sent with a `Content-Length`.  The connection is not reused.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    token: Option<&str>,
    body: Option<&str>,
) -> io::Result<HttpReply> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut writer = stream.try_clone()?;
    write_request(&mut writer, addr, method, target, token, body)?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let body = match header(&headers, "content-length") {
        Some(length) => {
            let length: usize = length
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body)?;
            String::from_utf8_lossy(&body).into_owned()
        }
        None => {
            let mut body = String::new();
            reader.read_to_string(&mut body)?;
            body
        }
    };
    Ok(HttpReply { status, body })
}

/// Opens a streaming route and collects up to `max_lines` newline-delimited
/// lines from the chunked body (fewer if the server finishes the stream
/// first).  `timeout` bounds each read.
pub fn stream_lines(
    addr: &str,
    target: &str,
    token: Option<&str>,
    max_lines: usize,
    timeout: Duration,
) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    write_request(&mut writer, addr, "GET", target, token, None)?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "stream request failed with status {status}"
        )));
    }
    if !header(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream response is not chunked",
        ));
    }
    let mut text = String::new();
    let mut lines = Vec::new();
    loop {
        let size_line = read_line(&mut reader)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        chunk.truncate(size);
        text.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(offset) = text.find('\n') {
            let line: String = text.drain(..=offset).collect();
            lines.push(line.trim_end().to_string());
            if lines.len() >= max_lines {
                return Ok(lines);
            }
        }
    }
    Ok(lines)
}

fn write_request(
    writer: &mut TcpStream,
    addr: &str,
    method: &str,
    target: &str,
    token: Option<&str>,
    body: Option<&str>,
) -> io::Result<()> {
    // Head and body leave in one write: a second small write would wait
    // (Nagle) for the server's delayed ACK of the first.
    let mut wire = format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some(token) = token {
        wire.push_str(&format!("Authorization: Bearer {token}\r\n"));
    }
    if let Some(body) = body {
        wire.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    wire.push_str("\r\n");
    wire.push_str(body.unwrap_or(""));
    writer.write_all(wire.as_bytes())?;
    writer.flush()
}

fn read_head<R: BufRead>(reader: &mut R) -> io::Result<(u16, Vec<(String, String)>)> {
    let status_line = read_line(reader)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value.as_str())
}

fn read_line<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut line = String::new();
    let read = reader.read_line(&mut line)?;
    if read == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}
