//! Client-side HTTP/1.1: request bytes and pipelined response framing.

/// One `POST` request's wire bytes.
#[must_use]
pub fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One `GET` request's wire bytes.
#[must_use]
pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// A complete response cut from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Splits a byte stream of pipelined, `content-length`-framed
/// responses into complete responses, in order, across arbitrary read
/// boundaries.
#[derive(Debug, Default)]
pub struct Framer {
    buf: Vec<u8>,
}

/// A response that cannot be framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl Framer {
    /// Appends bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Cuts the next complete response off the front of the buffer,
    /// `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the head is malformed or has no
    /// `content-length`.
    pub fn next_response(&mut self) -> Result<Option<Framed>, FrameError> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| FrameError("response head is not UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| FrameError(format!("bad status line {status_line:?}")))?;
        let length = lines
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse::<usize>().ok())
            .ok_or_else(|| FrameError("response without content-length".into()))?;
        let body_start = head_end + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Some(Framed { status, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn pipelined_responses_frame_in_order_at_every_split() {
        let mut stream = response(200, "{\"bucket\":1}");
        stream.extend(response(503, "{\"error\":\"queue full\"}"));
        stream.extend(response(200, ""));
        for split in 0..=stream.len() {
            let mut framer = Framer::default();
            let mut got = Vec::new();
            for part in [&stream[..split], &stream[split..]] {
                framer.feed(part);
                while let Some(r) = framer.next_response().expect("well-formed") {
                    got.push(r);
                }
            }
            assert_eq!(got.len(), 3, "split at {split}");
            assert_eq!(got[0].status, 200);
            assert_eq!(got[0].body, b"{\"bucket\":1}");
            assert_eq!(got[1].status, 503);
            assert_eq!(got[2].body, b"");
            assert!(framer.next_response().expect("empty").is_none());
        }
    }

    #[test]
    fn byte_at_a_time_stream_frames_once_complete() {
        let stream = response(200, "{\"a\":1}");
        let mut framer = Framer::default();
        for (i, b) in stream.iter().enumerate() {
            framer.feed(&[*b]);
            let r = framer.next_response().expect("well-formed");
            assert_eq!(r.is_some(), i == stream.len() - 1);
        }
    }

    #[test]
    fn malformed_heads_are_errors() {
        let mut framer = Framer::default();
        framer.feed(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n");
        assert!(framer.next_response().is_err());
        let mut framer = Framer::default();
        framer.feed(b"SPDY 200\r\ncontent-length: 0\r\n\r\n");
        assert!(framer.next_response().is_err());
    }

    #[test]
    fn requests_carry_their_length() {
        let bytes = post("/v1/plan", "{\"delta_vth_mv\":1}");
        let text = String::from_utf8(bytes).expect("ascii");
        assert!(text.starts_with("POST /v1/plan HTTP/1.1\r\n"));
        assert!(text.contains("content-length: 18\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"delta_vth_mv\":1}"));
    }
}
