//! Structured JSON logging: one self-contained JSON object per line.
//!
//! A [`Record`] accumulates typed fields into a single-line JSON object;
//! a [`Logger`] stamps it with a wall-clock `ts_ms` and writes it to a
//! shared sink (stderr or a file). Lines are written under one mutex-held
//! `write_all`, so concurrent request threads cannot interleave bytes.
//!
//! ```
//! let r = telemetry::log::Record::new("request")
//!     .str("id", "r-000001")
//!     .int("lines", 42)
//!     .bool("ok", true);
//! assert_eq!(
//!     r.finish(),
//!     r#"{"event":"request","id":"r-000001","lines":42,"ok":true}"#
//! );
//! ```

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::Counter;

/// A JSON object under construction. Field order is insertion order;
/// keys are written verbatim (callers use static identifier-like keys).
#[derive(Debug)]
pub struct Record {
    buf: String,
}

impl Record {
    /// Starts a record with its `event` discriminator field.
    pub fn new(event: &str) -> Record {
        let mut r = Record {
            buf: String::from("{"),
        };
        r.push_key("event");
        r.push_str_value(event);
        r
    }

    fn push_key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    fn push_str_value(&mut self, v: &str) {
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Record {
        self.push_key(key);
        self.push_str_value(v);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, v: impl Into<i128>) -> Record {
        self.push_key(key);
        let _ = write!(self.buf, "{}", v.into());
        self
    }

    /// Adds a float field (non-finite values are serialized as `null` —
    /// JSON has no NaN/Inf).
    pub fn float(mut self, key: &str, v: f64) -> Record {
        self.push_key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Record {
        self.push_key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the JSON line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escapes `s` into `out` as a JSON string body (no surrounding quotes):
/// quotes and backslashes get a backslash, `\n`/`\r`/`\t` their short
/// forms, other control characters `\u00XX`. [`Record`] writes through it,
/// and so do the daemon's hand-built JSON replies.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A size-rotating append file: when the active file would exceed
/// `max_bytes`, it is renamed to `<path>.1` (shifting `.1`→`.2`, …, and
/// discarding `.{keep}`) and a fresh file is started. The rotation itself
/// is observable twice over: the first line of every fresh file is a
/// `log_rotated` record, and an optional [`Counter`] is bumped so the
/// scrape endpoint shows lifetime rotations.
struct RotatingFile {
    path: PathBuf,
    file: File,
    written: u64,
    max_bytes: u64,
    keep: usize,
    rotations: Arc<AtomicU64>,
    counter: Option<Arc<Counter>>,
}

impl RotatingFile {
    fn numbered(&self, i: usize) -> PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(format!(".{i}"));
        PathBuf::from(os)
    }

    fn rotate(&mut self) {
        if self.keep == 0 {
            let _ = fs::remove_file(&self.path);
        } else {
            let _ = fs::remove_file(self.numbered(self.keep));
            for i in (1..self.keep).rev() {
                let _ = fs::rename(self.numbered(i), self.numbered(i + 1));
            }
            let _ = fs::rename(&self.path, self.numbered(1));
        }
        // On open failure keep the old fd (it still points at the renamed
        // file) — telemetry must never take down the service.
        if let Ok(f) = File::options().create(true).append(true).open(&self.path) {
            self.file = f;
        }
        self.written = 0;
        let n = self.rotations.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(c) = &self.counter {
            c.inc();
        }
        let mut line = Record::new("log_rotated")
            .int("rotation", n as i128)
            .int("max_bytes", self.max_bytes as i128)
            .int("keep", self.keep as i128)
            .int("ts_ms", now_ms() as i128)
            .finish();
        line.push('\n');
        self.written += line.len() as u64;
        let _ = self.file.write_all(line.as_bytes());
    }

    fn write_line(&mut self, line: &[u8]) {
        if self.written > 0 && self.written + line.len() as u64 > self.max_bytes {
            self.rotate();
        }
        self.written += line.len() as u64;
        let _ = self.file.write_all(line);
        let _ = self.file.flush();
    }
}

enum Sink {
    Plain(Box<dyn Write + Send>),
    Rotating(RotatingFile),
}

fn now_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// A shared line sink for [`Record`]s. Cheap to share behind an `Arc`.
pub struct Logger {
    sink: Mutex<Sink>,
    rotations: Arc<AtomicU64>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger").finish_non_exhaustive()
    }
}

impl Logger {
    /// A logger writing to stderr.
    pub fn stderr() -> Logger {
        Logger {
            sink: Mutex::new(Sink::Plain(Box::new(io::stderr()))),
            rotations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A logger appending to `path` (no rotation).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn file(path: &Path) -> io::Result<Logger> {
        let f = File::options().create(true).append(true).open(path)?;
        Ok(Logger {
            sink: Mutex::new(Sink::Plain(Box::new(f))),
            rotations: Arc::new(AtomicU64::new(0)),
        })
    }

    /// A logger appending to `path` with size-based rotation: once the
    /// active file would grow past `max_bytes`, it is renamed to
    /// `<path>.1` (older generations shift to `.2`, …, `.{keep}`; the
    /// oldest is deleted) and a fresh file is begun whose first line is a
    /// `log_rotated` record. A single over-long line still lands whole —
    /// rotation happens *before* a write, never mid-line.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors for the initial file.
    pub fn rotating_file(path: &Path, max_bytes: u64, keep: usize) -> io::Result<Logger> {
        let f = File::options().create(true).append(true).open(path)?;
        let written = f.metadata().map(|m| m.len()).unwrap_or(0);
        let rotations = Arc::new(AtomicU64::new(0));
        Ok(Logger {
            sink: Mutex::new(Sink::Rotating(RotatingFile {
                path: path.to_path_buf(),
                file: f,
                written,
                max_bytes: max_bytes.max(1),
                keep,
                rotations: Arc::clone(&rotations),
                counter: None,
            })),
            rotations,
        })
    }

    /// Wires a [`Counter`] that is incremented on every rotation (e.g.
    /// `codegend_log_rotations`). No-op for non-rotating sinks.
    pub fn set_rotation_counter(&self, counter: Arc<Counter>) {
        if let Sink::Rotating(r) = &mut *self.sink.lock().unwrap_or_else(|e| e.into_inner()) {
            r.counter = Some(counter);
        }
    }

    /// Lifetime rotation count of this logger (0 for non-rotating sinks).
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Stamps `record` with `ts_ms` (Unix milliseconds at write time) and
    /// writes it as one line. Write errors are swallowed: telemetry must
    /// never take down the instrumented service.
    pub fn log(&self, record: Record) {
        let mut line = record.int("ts_ms", now_ms() as i128).finish();
        line.push('\n');
        self.write_line(line.as_bytes());
    }

    /// Writes one pre-rendered JSON object verbatim as a log line. For
    /// records built outside [`Record`] — e.g. wide events embedding
    /// nested objects — whose byte-identical rendering is also served
    /// elsewhere; the caller supplies its own timestamp field. Write
    /// errors are swallowed like in [`Logger::log`].
    pub fn log_line(&self, json_object: &str) {
        let mut line = Vec::with_capacity(json_object.len() + 1);
        line.extend_from_slice(json_object.as_bytes());
        line.push(b'\n');
        self.write_line(&line);
    }

    fn write_line(&self, line: &[u8]) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        match &mut *sink {
            Sink::Plain(w) => {
                let _ = w.write_all(line);
                let _ = w.flush();
            }
            Sink::Rotating(r) => r.write_line(line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_escapes_and_orders_fields() {
        let line = Record::new("e\"v")
            .str("k", "a\\b\nc")
            .int("n", -3)
            .float("f", 1.5)
            .float("nan", f64::NAN)
            .bool("b", false)
            .finish();
        assert_eq!(
            line,
            r#"{"event":"e\"v","k":"a\\b\nc","n":-3,"f":1.5,"nan":null,"b":false}"#
        );
    }

    #[test]
    fn escape_into_uses_short_forms_then_unicode() {
        let mut out = String::new();
        escape_into("x\"y\\z\n\r\t\u{1}é", &mut out);
        assert_eq!(out, "x\\\"y\\\\z\\n\\r\\t\\u0001é");
    }

    #[test]
    fn logger_appends_one_line_per_record() {
        let dir = std::env::temp_dir().join(format!("telemetry-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let logger = Logger::file(&path).unwrap();
        logger.log(Record::new("a"));
        logger.log(Record::new("b").int("x", 1));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"event":"a","ts_ms":"#));
        assert!(lines[1].contains(r#""x":1"#));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotating_logger_shifts_generations_and_counts() {
        let dir = std::env::temp_dir().join(format!(
            "telemetry-logrot-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.jsonl");
        // ~60-byte lines against a 150-byte cap: every third-ish line rotates.
        let logger = Logger::rotating_file(&path, 150, 2).unwrap();
        let reg = crate::Registry::new();
        let ctr = reg.counter("log_rotations", "Log file rotations.");
        logger.set_rotation_counter(Arc::clone(&ctr));
        for i in 0..12 {
            logger.log(
                Record::new("request")
                    .int("seq", i)
                    .str("pad", "xxxxxxxxxx"),
            );
        }
        assert!(
            logger.rotations() >= 2,
            "rotated {} times",
            logger.rotations()
        );
        assert_eq!(ctr.get(), logger.rotations());
        // Active file + exactly `keep` generations; each rotated-into file
        // opens with the log_rotated marker record.
        let active = std::fs::read_to_string(&path).unwrap();
        assert!(active.lines().next().unwrap().contains("log_rotated"));
        assert!(dir.join("requests.jsonl.1").exists());
        assert!(dir.join("requests.jsonl.2").exists());
        assert!(!dir.join("requests.jsonl.3").exists());
        // No line was ever split by a rotation.
        for text in [
            &active,
            &std::fs::read_to_string(dir.join("requests.jsonl.1")).unwrap(),
        ] {
            for line in text.lines() {
                assert!(
                    line.starts_with('{') && line.ends_with('}'),
                    "torn line {line:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
