//! The instrumented line protocol between the benchmark's client and the
//! service: the client's prepared input, a reader that stamps when the
//! service takes each request line, and a writer that keeps the
//! transcript and stamps when each answer line is complete.

use std::io::{BufRead, Read, Write};
use std::time::Instant;

use crate::gen::StreamJob;

/// The protocol input of a stream: every job line, then `quit`, each
/// newline-terminated.
pub fn session_input(stream: &[StreamJob]) -> Vec<Vec<u8>> {
    stream
        .iter()
        .map(|j| j.line.as_str())
        .chain(["quit"])
        .map(|l| format!("{l}\n").into_bytes())
        .collect()
}

/// A `BufRead` over prepared lines that stamps the moment the service
/// takes each one: a new line is exposed only when the reader asks for
/// more bytes after finishing the previous one.
#[derive(Debug)]
pub struct LineReader<'a> {
    lines: &'a [Vec<u8>],
    next: usize,
    pos: usize,
    /// When line `i` was first exposed to the service.
    pub read_at: Vec<Instant>,
}

impl<'a> LineReader<'a> {
    /// A reader over `lines` (each ending in `\n`).
    pub fn new(lines: &'a [Vec<u8>]) -> LineReader<'a> {
        LineReader {
            lines,
            next: 0,
            pos: 0,
            read_at: Vec::with_capacity(lines.len()),
        }
    }
}

impl Read for LineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let current_done = self.next == 0 || self.pos == self.lines[self.next - 1].len();
        if current_done && self.next < self.lines.len() {
            self.next += 1;
            self.pos = 0;
            self.read_at.push(Instant::now());
        }
        Ok(match self.next {
            0 => &[],
            n => &self.lines[n - 1][self.pos..],
        })
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// A `Write` that keeps the transcript and stamps the moment each answer
/// line is complete, keyed by the job index in its `id=j<index>`.
#[derive(Debug, Default)]
pub struct LineWriter {
    /// Every byte written.
    pub transcript: Vec<u8>,
    line_start: usize,
    /// (job index, when its answer line was complete).
    pub written_at: Vec<(usize, Instant)>,
}

/// The job index of an answer line `ok|err id=j<index> ...`.
pub fn answer_index(line: &str) -> Option<usize> {
    line.split_whitespace()
        .nth(1)?
        .strip_prefix("id=j")?
        .parse()
        .ok()
}

impl Write for LineWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.transcript.push(b);
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.transcript[self.line_start..]);
                if let Some(i) = answer_index(&line) {
                    self.written_at.push((i, Instant::now()));
                }
                self.line_start = self.transcript.len();
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Per-job latency, ms: answer written minus request line read, in job
/// order of the answers.
pub fn job_latencies_ms(reader: &LineReader, writer: &LineWriter) -> Vec<f64> {
    writer
        .written_at
        .iter()
        .filter_map(|&(i, at)| {
            let read = reader.read_at.get(i)?;
            Some(at.duration_since(*read).as_secs_f64() * 1e3)
        })
        .collect()
}
