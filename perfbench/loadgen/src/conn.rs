//! One client connection to `scrutinizer-serve`, in either codec, timing
//! every round trip on the wire.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use scrutinizer_engine::codec::decode_response;
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::wire::{request_frame, BINARY_MAGIC};
use scrutinizer_engine::Request;

/// The wire encoding a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// JSON lines.
    Json,
    /// Length-prefixed binary frames (negotiated by a leading `0x00`).
    Binary,
}

/// One answered request: the response in its canonical JSON shape, plus
/// what the wire cost.
pub struct Reply {
    pub json: Json,
    /// From the first byte written to the last byte read; client-side
    /// encode and decode are outside this window.
    pub rtt: Duration,
    pub bytes_out: usize,
    pub bytes_in: usize,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.json.get("ok").and_then(Json::as_bool) == Some(true)
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    codec: Codec,
    out: Vec<u8>,
    line: String,
    frame: Vec<u8>,
}

/// Longest the client waits for one response before declaring the run
/// failed; far above any latency a passing run sees.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Largest binary response the client buffers (responses here are a few
/// KiB), so a corrupt length prefix fails the run instead of allocating.
const MAX_FRAME_BYTES: usize = 64 << 20;

impl Conn {
    pub fn connect(addr: &str, codec: Codec) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        if codec == Codec::Binary {
            writer.write_all(&[BINARY_MAGIC])?;
        }
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
            codec,
            out: Vec::with_capacity(256),
            line: String::with_capacity(4096),
            frame: Vec::with_capacity(4096),
        })
    }

    /// Sends one request carrying `trace` and waits for its response.
    pub fn call(&mut self, request: &Request, trace: u64) -> io::Result<Reply> {
        self.out.clear();
        match self.codec {
            Codec::Json => {
                let Json::Obj(mut fields) = request.to_json() else {
                    unreachable!("requests encode as objects");
                };
                fields.push(("trace".to_string(), Json::Str(format!("{trace:016x}"))));
                self.out
                    .extend_from_slice(Json::Obj(fields).render().as_bytes());
                self.out.push(b'\n');
            }
            Codec::Binary => request_frame(&mut self.out, request, None, Some(trace)),
        }
        let start = Instant::now();
        self.writer.write_all(&self.out)?;
        let bytes_in = match self.codec {
            Codec::Json => {
                self.line.clear();
                let n = self.reader.read_line(&mut self.line)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                n
            }
            Codec::Binary => {
                let mut header = [0u8; 4];
                self.reader.read_exact(&mut header)?;
                let len = u32::from_le_bytes(header) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response frame of {len} bytes"),
                    ));
                }
                self.frame.resize(len, 0);
                self.reader.read_exact(&mut self.frame)?;
                len + header.len()
            }
        };
        let rtt = start.elapsed();
        let json = match self.codec {
            Codec::Json => Json::parse(self.line.trim_end()).map_err(|e| e.to_string()),
            Codec::Binary => decode_response(&self.frame).map_err(|e| e.to_string()),
        }
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Reply {
            json,
            rtt,
            bytes_out: self.out.len(),
            bytes_in,
        })
    }
}
