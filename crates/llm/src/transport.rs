//! Plain-HTTP client for OpenAI-compatible chat endpoints.
//!
//! The offline build ships no TLS stack, so this client targets *local*
//! OpenAI-compatible servers (llama.cpp, vLLM, LiteLLM proxies, or an
//! `https`-terminating sidecar) over `http://host:port`. The wire format
//! is the standard `/v1/chat/completions` JSON protocol, so pointing the
//! framework at real GPT-4 only requires such a proxy.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::Deserialize;

use crate::api::{ChatRequest, ChatResponse, LanguageModel, LlmError, Usage};

/// The request path of every chat completion.
const PATH: &str = "/v1/chat/completions";

/// An OpenAI-compatible chat-completions client over plain HTTP.
#[derive(Debug, Clone)]
pub struct HttpChatModel {
    host: String,
    port: u16,
    api_key: Option<String>,
    timeout: Duration,
    name: String,
}

impl HttpChatModel {
    /// Creates a client for `http://host:port/v1/chat/completions`.
    pub fn new(host: impl Into<String>, port: u16) -> Self {
        let host = host.into();
        HttpChatModel {
            name: format!("openai-compatible@{host}:{port}"),
            host,
            port,
            api_key: None,
            timeout: Duration::from_secs(120),
        }
    }

    /// Sets a bearer token sent as `Authorization`.
    pub fn with_api_key(mut self, key: impl Into<String>) -> Self {
        self.api_key = Some(key.into());
        self
    }

    /// Sets the socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn roundtrip(&self, body: &str) -> Result<String, LlmError> {
        let stream = TcpStream::connect((self.host.as_str(), self.port))
            .map_err(|e| LlmError::Transport(format!("connect {}:{}: {e}", self.host, self.port)))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            .map_err(|e| LlmError::Transport(e.to_string()))?;
        let mut stream = stream;
        let auth = self
            .api_key
            .as_ref()
            .map(|k| format!("Authorization: Bearer {k}\r\n"))
            .unwrap_or_default();
        let request = format!(
            "POST {PATH} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n{}Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.host,
            auth,
            body.len(),
            body
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| LlmError::Transport(e.to_string()))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| LlmError::Transport(e.to_string()))?;
        let text = String::from_utf8_lossy(&raw);
        parse_http_response(&text)
    }
}

/// Splits an HTTP/1.1 response into status + body, handling the
/// `Transfer-Encoding: chunked` framing local servers commonly use.
fn parse_http_response(text: &str) -> Result<String, LlmError> {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| LlmError::Protocol("no header/body separator".to_string()))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| LlmError::Protocol(format!("bad status line: {status_line}")))?;
    let chunked = head
        .lines()
        .any(|l| l.to_ascii_lowercase().contains("transfer-encoding") && l.contains("chunked"));
    let body = if chunked { dechunk(body)? } else { body.to_string() };
    if status >= 300 {
        return Err(LlmError::Protocol(format!("http status {status}: {body}")));
    }
    Ok(body)
}

fn dechunk(body: &str) -> Result<String, LlmError> {
    let mut out = String::new();
    let mut rest = body;
    loop {
        let (size_line, after) = rest
            .split_once("\r\n")
            .ok_or_else(|| LlmError::Protocol("truncated chunk header".to_string()))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| LlmError::Protocol(format!("bad chunk size: {size_line}")))?;
        if size == 0 {
            return Ok(out);
        }
        if after.len() < size {
            return Err(LlmError::Protocol("truncated chunk body".to_string()));
        }
        out.push_str(&after[..size]);
        rest = after[size..].trim_start_matches("\r\n");
    }
}

#[derive(Deserialize)]
struct WireResponse {
    model: Option<String>,
    choices: Vec<WireChoice>,
    usage: Option<WireUsage>,
}

#[derive(Deserialize)]
struct WireChoice {
    message: WireMessage,
}

#[derive(Deserialize)]
struct WireMessage {
    content: String,
}

#[derive(Deserialize)]
struct WireUsage {
    prompt_tokens: u64,
    completion_tokens: u64,
}

impl LanguageModel for HttpChatModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn complete(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let body = serde_json::to_string(request)
            .map_err(|e| LlmError::Protocol(format!("serialize request: {e}")))?;
        let response_body = self.roundtrip(&body)?;
        let wire: WireResponse = serde_json::from_str(&response_body)
            .map_err(|e| LlmError::Protocol(format!("parse response: {e}")))?;
        let choice = wire
            .choices
            .into_iter()
            .next()
            .ok_or_else(|| LlmError::Protocol("response had no choices".to_string()))?;
        Ok(ChatResponse {
            content: choice.message.content,
            model: wire.model.unwrap_or_else(|| request.model.clone()),
            usage: wire
                .usage
                .map(|u| Usage {
                    prompt_tokens: u.prompt_tokens,
                    completion_tokens: u.completion_tokens,
                })
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn canned_server(response: &'static str) -> u16 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        std::thread::spawn(move || {
            if let Ok((mut socket, _)) = listener.accept() {
                let mut buf = [0u8; 8192];
                let _ = socket.read(&mut buf);
                let _ = socket.write_all(response.as_bytes());
            }
        });
        port
    }

    #[test]
    fn completes_against_local_server() {
        let body = r#"{"model":"gpt-4","choices":[{"message":{"role":"assistant","content":"set write_buffer_size=128MB"}}],"usage":{"prompt_tokens":10,"completion_tokens":5}}"#;
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let port = canned_server(Box::leak(response.into_boxed_str()));
        let mut model = HttpChatModel::new("127.0.0.1", port).with_api_key("sk-test");
        let r = model.complete(&ChatRequest::single_turn("gpt-4", "tune")).unwrap();
        assert_eq!(r.content, "set write_buffer_size=128MB");
        assert_eq!(r.usage.completion_tokens, 5);
    }

    #[test]
    fn http_error_status_is_protocol_error() {
        let response = "HTTP/1.1 401 Unauthorized\r\nContent-Length: 9\r\n\r\nbad token";
        let port = canned_server(response);
        let mut model = HttpChatModel::new("127.0.0.1", port);
        let err = model.complete(&ChatRequest::single_turn("gpt-4", "x")).unwrap_err();
        assert!(matches!(err, LlmError::Protocol(m) if m.contains("401")));
    }

    #[test]
    fn connection_refused_is_transport_error() {
        // Port 1 is essentially never listening.
        let mut model = HttpChatModel::new("127.0.0.1", 1).with_timeout(Duration::from_millis(200));
        let err = model.complete(&ChatRequest::single_turn("gpt-4", "x")).unwrap_err();
        assert!(matches!(err, LlmError::Transport(_)));
    }

    #[test]
    fn chunked_bodies_are_decoded() {
        let body = r#"{"choices":[{"message":{"role":"assistant","content":"ok"}}]}"#;
        let (a, b) = body.split_at(10);
        let response = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{}\r\n{:x}\r\n{}\r\n0\r\n\r\n",
            a.len(),
            a,
            b.len(),
            b
        );
        let port = canned_server(Box::leak(response.into_boxed_str()));
        let mut model = HttpChatModel::new("127.0.0.1", port);
        let r = model.complete(&ChatRequest::single_turn("gpt-4", "x")).unwrap();
        assert_eq!(r.content, "ok");
    }

    #[test]
    fn malformed_json_is_protocol_error() {
        let response = "HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nnot json";
        let port = canned_server(response);
        let mut model = HttpChatModel::new("127.0.0.1", port);
        let err = model.complete(&ChatRequest::single_turn("gpt-4", "x")).unwrap_err();
        assert!(matches!(err, LlmError::Protocol(_)));
    }
}
