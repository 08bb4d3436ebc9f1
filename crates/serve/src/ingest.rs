//! Live `.wcmt` ingestion: sources that feed a strict
//! [`FrameDecoder`] from a growing file (tail) or a TCP connection and
//! route each decoded frame to the session it belongs to.
//!
//! A source is a layered rx pipeline: bytes → decoded sections
//! ([`FrameDecoder::feed_with`], each payload decoded once) → routed
//! batches keyed by `(source, session)`. Every source runs the same
//! [`Ingest::step`]. Session identity follows the stream's own `META`
//! frames — each `META` names the current session of that source, and
//! every `DEMANDS`/`TIMES` frame that follows belongs to it until the
//! next `META`. One stream can therefore multiplex any number of
//! interleaved sessions.
//!
//! Tail semantics are where the live path differs from batch decode:
//! a tail that catches up to a *partial frame* at end-of-file parks
//! the decoder and resumes when the writer appends (never a
//! `truncated` error), and a tail that consumed a clean end marker
//! resumes across `StreamEncoder::reopen` — the writer truncates the
//! marker and appends in its place, so the source rewinds by exactly
//! [`wcm_wire::frame::FRAME_OVERHEAD`] bytes via
//! [`FrameDecoder::resume_after_end`] before reading on.

use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use wcm_wire::{DecodePolicy, DecodedFrame, FrameDecoder, Section, WireError};

/// One routed batch of decoded events: everything one poll round
/// produced for one session of one source, in stream order.
#[derive(Debug, Default)]
pub struct RoutedBatch {
    /// Demand values, in arrival order.
    pub demands: Vec<u64>,
    /// Timestamps, in arrival order.
    pub times: Vec<f64>,
}

/// Frame router: accumulates one poll round's decoded sections into
/// per-session batches (keyed by session name; the caller scopes them
/// by source). Session names are interned to dense ids once, when a
/// `META` first names them, so routing a frame is O(1) however many
/// sessions the stream multiplexes.
#[derive(Debug, Default)]
struct Router {
    /// `(session name, batch)` in first-seen order — deterministic
    /// routing order for the shard step.
    batches: Vec<(String, RoutedBatch)>,
    /// Dense id of every session name the stream has carried.
    ids: HashMap<String, usize>,
    /// Per id: the session name and its slot in `batches` this round.
    sessions: Vec<(String, Option<usize>)>,
    /// Ids holding a slot this round.
    open: Vec<usize>,
    /// The active session — sticky *across* polls, because a chunk
    /// boundary can land anywhere between a `META` and the frames that
    /// belong to it. `None` until the first `META`: frames before it
    /// belong to the source's default session `""`.
    current: Option<usize>,
}

impl Router {
    fn route(&mut self, frame: &DecodedFrame<'_>) {
        match frame.section {
            Section::Meta(name) => self.current = Some(self.intern(name)),
            Section::Demands(vals) => self.active_batch().demands.extend_from_slice(vals),
            Section::Times(vals) => self.active_batch().times.extend_from_slice(vals),
            _ => {}
        }
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.sessions.len();
        self.ids.insert(name.to_string(), id);
        self.sessions.push((name.to_string(), None));
        id
    }

    /// The batch of the active session, opened on first use this round.
    fn active_batch(&mut self) -> &mut RoutedBatch {
        let id = match self.current {
            Some(id) => id,
            None => {
                let id = self.intern("");
                self.current = Some(id);
                id
            }
        };
        let (name, slot) = &mut self.sessions[id];
        let slot = *slot.get_or_insert_with(|| {
            self.batches.push((name.clone(), RoutedBatch::default()));
            self.open.push(id);
            self.batches.len() - 1
        });
        &mut self.batches[slot].1
    }

    /// Hand the round's batches over; the active session stays.
    fn take_batches(&mut self) -> Vec<(String, RoutedBatch)> {
        for id in self.open.drain(..) {
            self.sessions[id].1 = None;
        }
        std::mem::take(&mut self.batches)
    }
}

/// What one poll of a source produced.
#[derive(Debug, Default)]
pub struct Poll {
    /// Routed per-session batches (drained by the caller).
    pub batches: Vec<(String, RoutedBatch)>,
    /// Bytes consumed this round.
    pub bytes: usize,
    /// The source reached a clean end marker (it may still resume if
    /// the writer reopens the stream).
    pub ended: bool,
    /// The source failed permanently (malformed stream).
    pub dead: Option<WireError>,
}

/// The rx pipeline of one stream, shared by every source: a strict
/// decoder whose sections are routed to per-session batches.
#[derive(Debug)]
pub struct Ingest {
    dec: FrameDecoder,
    router: Router,
}

impl Default for Ingest {
    fn default() -> Self {
        Self {
            dec: FrameDecoder::new(DecodePolicy::Strict),
            router: Router::default(),
        }
    }
}

impl Ingest {
    /// Feed the stream's next `bytes`, route every frame they complete,
    /// and hand over the round's batches. A partial frame at the end of
    /// `bytes` parks until the next step; a malformed stream reports the
    /// decoder's strict error in [`Poll::dead`] (and again on every
    /// later step).
    pub fn step(&mut self, bytes: &[u8]) -> Poll {
        let router = &mut self.router;
        let dead = self.dec.feed_with(bytes, |f| router.route(&f)).err();
        Poll {
            batches: router.take_batches(),
            bytes: bytes.len(),
            ended: self.dec.ended(),
            dead,
        }
    }
}

/// Read up to `want` bytes from `src` into the front of `buf` (grown,
/// zeroed, only when a read wants more than any before it), stopping
/// early at end of input or when the source would block. Returns the
/// bytes read and whether the source ended; an I/O error ends the read,
/// and the bytes read before it still count.
fn fill(src: &mut impl Read, buf: &mut Vec<u8>, want: usize) -> (usize, io::Result<bool>) {
    if buf.len() < want {
        buf.resize(want, 0);
    }
    let mut read = 0;
    while read < want {
        match src.read(&mut buf[read..want]) {
            Ok(0) => return (read, Ok(true)),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return (read, Err(e)),
        }
    }
    (read, Ok(false))
}

/// Live tail of a growing `.wcmt` file.
#[derive(Debug)]
pub struct TailSource {
    /// Stable identity used to scope session keys.
    pub id: String,
    path: PathBuf,
    ingest: Ingest,
    /// Reused across polls.
    buf: Vec<u8>,
    /// Absolute file offset of the next unread byte.
    offset: u64,
    dead: Option<WireError>,
}

impl TailSource {
    /// Tail `path` from the beginning.
    ///
    /// # Errors
    ///
    /// I/O errors opening/statting the file.
    pub fn open(path: &Path) -> io::Result<Self> {
        std::fs::metadata(path)?;
        Ok(Self {
            id: format!("file:{}", path.display()),
            path: path.to_path_buf(),
            ingest: Ingest::default(),
            buf: Vec::new(),
            offset: 0,
            dead: None,
        })
    }

    /// Read up to `budget` new bytes, decode, and route. `stalled`
    /// (backpressure from a full session buffer) skips reading without
    /// touching decoder state — the unread bytes simply stay in the
    /// file.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file. Wire errors mark the source dead
    /// and are reported in the poll, not returned.
    pub fn poll(&mut self, budget: usize, stalled: bool) -> io::Result<Poll> {
        if let Some(e) = &self.dead {
            return Ok(Poll {
                dead: Some(e.clone()),
                ..Poll::default()
            });
        }
        let dec = &mut self.ingest.dec;
        if stalled {
            return Ok(Poll {
                ended: dec.ended(),
                ..Poll::default()
            });
        }
        let len = std::fs::metadata(&self.path)?.len();
        if dec.ended() && len != self.offset {
            // The writer reopened the sealed stream in place: rewind
            // over the truncated end marker and re-read from the seam.
            if let Some(seam) = dec.resume_after_end() {
                self.offset = seam as u64;
            }
        }
        let mut read = 0;
        if len > self.offset {
            let mut file = std::fs::File::open(&self.path)?;
            file.seek(SeekFrom::Start(self.offset))?;
            let want = usize::try_from(len - self.offset)
                .unwrap_or(usize::MAX)
                .min(budget.max(1));
            let (n, end) = fill(&mut file, &mut self.buf, want);
            end?;
            read = n;
            self.offset += n as u64;
        }
        let poll = self.ingest.step(&self.buf[..read]);
        self.dead.clone_from(&poll.dead);
        Ok(poll)
    }
}

/// TCP ingestion: a listener plus one decoder per accepted connection.
/// Connections speak plain `.wcmt` — header, frames, end marker.
#[derive(Debug)]
pub struct TcpSource {
    listener: TcpListener,
    conns: Vec<Conn>,
    accepted: u64,
    /// Read buffer shared by every connection, reused across polls.
    buf: Vec<u8>,
}

#[derive(Debug)]
struct Conn {
    id: String,
    stream: TcpStream,
    ingest: Ingest,
    open: bool,
}

impl TcpSource {
    /// Bind `addr` (e.g. `127.0.0.1:7070`) in non-blocking mode.
    ///
    /// # Errors
    ///
    /// Bind/configure errors.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            conns: Vec::new(),
            accepted: 0,
            buf: Vec::new(),
        })
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// As [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept pending connections and poll every open one. Returns the
    /// per-connection polls as `(source id, poll)`.
    ///
    /// # Errors
    ///
    /// Accept errors other than `WouldBlock`.
    pub fn poll(&mut self, budget: usize, stalled: bool) -> io::Result<Vec<(String, Poll)>> {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nonblocking(true)?;
                    self.accepted += 1;
                    self.conns.push(Conn {
                        id: format!("tcp:{peer}#{}", self.accepted),
                        stream,
                        ingest: Ingest::default(),
                        open: true,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut polls = Vec::new();
        for conn in &mut self.conns {
            let (read, end) = if stalled {
                (0, Ok(false))
            } else {
                fill(&mut conn.stream, &mut self.buf, budget.max(1))
            };
            // End of input and read errors both close the peer.
            if !matches!(end, Ok(false)) {
                conn.open = false;
            }
            let poll = conn.ingest.step(&self.buf[..read]);
            if poll.ended || poll.dead.is_some() {
                conn.open = false;
            }
            polls.push((conn.id.clone(), poll));
        }
        self.conns.retain(|c| c.open);
        Ok(polls)
    }

    /// Open connections right now.
    #[must_use]
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }
}
