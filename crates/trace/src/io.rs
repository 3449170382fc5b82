//! Trace serialisation: a plain-text line format and JSON.
//!
//! The paper's evaluation is driven by externally collected traces
//! (`httpd`, `dev1`, `tpcc1`, …). This reproduction generates synthetic
//! stand-ins, but users who hold real block traces can feed them in
//! through this module.
//!
//! # Text format
//!
//! One reference per line: `<client> <block>` as decimal integers,
//! separated by whitespace. Lines starting with `#` and blank lines are
//! ignored. A single-column file is read as a single-client trace.
//!
//! ```text
//! # client block
//! 0 17
//! 1 42
//! ```

use crate::{BlockId, ClientId, Trace, TraceRecord};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Error parsing a text-format trace.
#[derive(Debug)]
pub struct ParseTraceError {
    line: usize,
    message: String,
}

impl ParseTraceError {
    /// 1-based line number of the offending line.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

/// Reads a text-format trace from `reader` (a mutable reference works
/// too, since `Read` is implemented for `&mut R`).
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed lines or I/O failure.
///
/// # Examples
///
/// ```
/// let input = "# demo\n0 1\n0 2\n1 1\n";
/// let trace = ulc_trace::io::read_text(input.as_bytes())?;
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.num_clients(), 2);
/// # Ok::<(), ulc_trace::io::ParseTraceError>(())
/// ```
pub fn read_text<R: Read>(reader: R) -> Result<Trace, ParseTraceError> {
    let mut trace = Trace::new();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| ParseTraceError {
            line: i + 1,
            message: e.to_string(),
        })?;
        let body = line.trim();
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        let mut fields = body.split_whitespace();
        let first = fields.next().expect("non-empty line has a field");
        let second = fields.next();
        if fields.next().is_some() {
            return Err(ParseTraceError {
                line: i + 1,
                message: "expected at most two fields".into(),
            });
        }
        let parse = |s: &str| -> Result<u64, ParseTraceError> {
            s.parse().map_err(|_| ParseTraceError {
                line: i + 1,
                message: format!("invalid integer {s:?}"),
            })
        };
        let record = match second {
            Some(block) => TraceRecord::new(
                ClientId::new(parse(first)? as u32),
                BlockId::new(parse(block)?),
            ),
            None => TraceRecord::single(BlockId::new(parse(first)?)),
        };
        trace.push(record);
    }
    Ok(trace)
}

/// Writes `trace` in the text format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_text<W: Write>(trace: &Trace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# client block")?;
    for r in trace {
        writeln!(writer, "{} {}", r.client.index(), r.block.raw())?;
    }
    Ok(())
}

/// Serialises `trace` as JSON.
///
/// # Errors
///
/// Propagates serialisation failures.
pub fn write_json<W: Write>(trace: &Trace, writer: W) -> serde_json::Result<()> {
    serde_json::to_writer(writer, trace)
}

/// Reads a JSON trace produced by [`write_json`].
///
/// # Errors
///
/// Propagates deserialisation failures.
pub fn read_json<R: Read>(reader: R) -> serde_json::Result<Trace> {
    serde_json::from_reader(reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    #[test]
    fn text_roundtrip() {
        let t = synthetic::multi_small(500);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn multi_client_text_roundtrip() {
        let t = synthetic::httpd_multi(300);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(t.num_clients(), back.num_clients());
        assert_eq!(t.records(), back.records());
    }

    #[test]
    fn json_roundtrip() {
        let t = synthetic::sprite(200);
        let mut buf = Vec::new();
        write_json(&t, &mut buf).unwrap();
        let back = read_json(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn single_column_reads_as_single_client() {
        let t = read_text("5\n6\n5\n".as_bytes()).unwrap();
        assert_eq!(t.num_clients(), 1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[0].block, BlockId::new(5));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let t = read_text("# hi\n\n  \n0 1\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bad_integer_reports_line() {
        let err = read_text("0 1\nx 2\n".as_bytes()).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("invalid integer"));
    }

    #[test]
    fn too_many_fields_rejected() {
        let err = read_text("0 1 2\n".as_bytes()).unwrap_err();
        assert_eq!(err.line(), 1);
    }
}
