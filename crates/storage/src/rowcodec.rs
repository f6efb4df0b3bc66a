//! The heap-record codec: one stored row ⇄ one byte string.
//!
//! Layout:
//!
//! ```text
//! [u64 rowid] [4 × u64 path signature] [u16 ncols] [tagged values]*
//! ```
//!
//! Value encoding mirrors the WAL's (lossless by the same argument):
//! doubles keep their exact bits, temporal values round-trip through
//! their lexical form, XML documents through serialization — node
//! *identity* is not durable, only content, which is all Definition 1
//! observes. The rowid and path signature ride in the record header so
//! recovery can rebuild the row directory and pre-filter state from a
//! cheap header scan, without re-parsing any XML.

use xqdb_xdm::XdmError;

use crate::synopsis::{PathSignature, SIGNATURE_WORDS};
use crate::value::SqlValue;

const VTAG_NULL: u8 = 0;
const VTAG_INTEGER: u8 = 1;
const VTAG_DOUBLE: u8 = 2;
const VTAG_VARCHAR: u8 = 3;
const VTAG_DATE: u8 = 4;
const VTAG_TIMESTAMP: u8 = 5;
const VTAG_XML: u8 = 6;

/// Fixed header length: rowid + signature + column count.
pub const RECORD_HEADER_LEN: usize = 8 + 8 * SIGNATURE_WORDS + 2;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode one row.
pub fn encode_row(rowid: u64, sig: &PathSignature, row: &[SqlValue]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + 16 * row.len());
    out.extend_from_slice(&rowid.to_le_bytes());
    for w in sig.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            SqlValue::Null => out.push(VTAG_NULL),
            SqlValue::Integer(i) => {
                out.push(VTAG_INTEGER);
                out.extend_from_slice(&i.to_le_bytes());
            }
            SqlValue::Double(d) => {
                out.push(VTAG_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            SqlValue::Varchar(s) => {
                out.push(VTAG_VARCHAR);
                put_str(&mut out, s);
            }
            SqlValue::Date(d) => {
                out.push(VTAG_DATE);
                put_str(&mut out, &d.to_string());
            }
            SqlValue::Timestamp(t) => {
                out.push(VTAG_TIMESTAMP);
                put_str(&mut out, &t.to_string());
            }
            SqlValue::Xml(n) => {
                out.push(VTAG_XML);
                put_str(&mut out, &xqdb_xmlparse::serialize_node(n));
            }
        }
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], XdmError> {
        if self.pos + n > self.bytes.len() {
            return Err(XdmError::page_corrupt(format!(
                "heap record truncated at byte {} (wanted {n} more of {})",
                self.pos,
                self.bytes.len()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, XdmError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, XdmError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, XdmError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self) -> Result<&'a str, XdmError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        std::str::from_utf8(b)
            .map_err(|e| XdmError::page_corrupt(format!("heap record holds invalid UTF-8: {e}")))
    }
}

/// Decode only the record header — enough for recovery's directory and
/// signature rebuild, without touching (or parsing) the values.
pub fn decode_header(bytes: &[u8]) -> Result<(u64, PathSignature), XdmError> {
    read_header(&mut Reader { bytes, pos: 0 })
}

/// Decode a whole row. XML text re-parses into a fresh document tree.
pub fn decode_row(bytes: &[u8]) -> Result<(u64, PathSignature, Vec<SqlValue>), XdmError> {
    let mut r = Reader { bytes, pos: 0 };
    let (rowid, sig) = read_header(&mut r)?;
    let ncols = r.u16()? as usize;
    let mut row = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        row.extend(read_value(&mut r, true)?);
    }
    Ok((rowid, sig, row))
}

/// Decode only the columns `want` selects (`want[i]` for column `i`;
/// columns past its end are not wanted). Unwanted values come back as
/// `None` and cost a length-prefixed skip: an unwanted XML payload is
/// bounds- and UTF-8-checked but never parsed, so a relational predicate
/// over the other columns reads a row without building a document tree.
pub fn decode_columns(bytes: &[u8], want: &[bool]) -> Result<Vec<Option<SqlValue>>, XdmError> {
    let mut r = Reader { bytes, pos: 0 };
    read_header(&mut r)?;
    let ncols = r.u16()? as usize;
    (0..ncols)
        .map(|i| read_value(&mut r, want.get(i).copied().unwrap_or(false)))
        .collect()
}

fn read_header(r: &mut Reader<'_>) -> Result<(u64, PathSignature), XdmError> {
    let rowid = r.u64()?;
    let mut words = [0u64; SIGNATURE_WORDS];
    for w in &mut words {
        *w = r.u64()?;
    }
    Ok((rowid, PathSignature::from_words(words)))
}

/// Read one tagged value. With `want` false the value's bytes are still
/// consumed and checked (bounds, UTF-8 of string payloads, the tag), but
/// nothing is parsed or allocated and the result is `None`.
fn read_value(r: &mut Reader<'_>, want: bool) -> Result<Option<SqlValue>, XdmError> {
    let tag = r.take(1)?[0];
    let value = match tag {
        VTAG_NULL => SqlValue::Null,
        VTAG_INTEGER => SqlValue::Integer(r.u64()? as i64),
        VTAG_DOUBLE => SqlValue::Double(f64::from_bits(r.u64()?)),
        VTAG_VARCHAR | VTAG_DATE | VTAG_TIMESTAMP | VTAG_XML => {
            let text = r.str()?;
            if !want {
                return Ok(None);
            }
            match tag {
                VTAG_VARCHAR => SqlValue::Varchar(text.to_string()),
                VTAG_DATE => SqlValue::Date(xqdb_xdm::Date::parse(text)?),
                VTAG_TIMESTAMP => SqlValue::Timestamp(xqdb_xdm::DateTime::parse(text)?),
                _ => {
                    let doc = xqdb_xmlparse::parse_document(text).map_err(|e| {
                        XdmError::page_corrupt(format!(
                            "stored XML document no longer parses: {e}"
                        ))
                    })?;
                    SqlValue::Xml(doc.root())
                }
            }
        }
        t => return Err(XdmError::page_corrupt(format!("heap record: unknown value tag {t}"))),
    };
    Ok(want.then_some(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synopsis::observe_document;

    /// One value of every tag, XML last.
    fn all_types_row() -> (PathSignature, Vec<SqlValue>) {
        let doc = xqdb_xmlparse::parse_document(r#"<a b="1">t&amp;x</a>"#).unwrap();
        let sig = observe_document(&doc.root(), None);
        let row = vec![
            SqlValue::Null,
            SqlValue::Integer(-42),
            SqlValue::Double(-0.0),
            SqlValue::Varchar("padded  ".into()),
            SqlValue::Date(xqdb_xdm::Date::parse("2006-09-12").unwrap()),
            SqlValue::Timestamp(xqdb_xdm::DateTime::parse("2006-09-12T23:59:59").unwrap()),
            SqlValue::Xml(doc.root()),
        ];
        (sig, row)
    }

    fn assert_same_value(a: &SqlValue, b: &SqlValue) {
        match (a, b) {
            (SqlValue::Xml(x), SqlValue::Xml(y)) => assert_eq!(
                xqdb_xmlparse::serialize_node(x),
                xqdb_xmlparse::serialize_node(y)
            ),
            (SqlValue::Double(x), SqlValue::Double(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            _ => assert_eq!(format!("{a:?}"), format!("{b:?}")),
        }
    }

    #[test]
    fn roundtrip_all_types() {
        let (sig, row) = all_types_row();
        let bytes = encode_row(7, &sig, &row);
        let (rowid, sig2, row2) = decode_row(&bytes).unwrap();
        assert_eq!(rowid, 7);
        assert_eq!(sig, sig2);
        assert_eq!(row2.len(), row.len());
        for (a, b) in row.iter().zip(&row2) {
            assert_same_value(a, b);
        }
        let (rowid3, sig3) = decode_header(&bytes).unwrap();
        assert_eq!((rowid3, sig3), (7, sig));
    }

    #[test]
    fn selective_decode_equals_full_decode_per_column() {
        let (sig, row) = all_types_row();
        let bytes = encode_row(7, &sig, &row);
        let (_, _, full) = decode_row(&bytes).unwrap();
        for col in 0..row.len() {
            let mut want = vec![false; row.len()];
            want[col] = true;
            let cells = decode_columns(&bytes, &want).unwrap();
            assert_eq!(cells.len(), row.len(), "column {col}: one slot per column");
            for (i, cell) in cells.iter().enumerate() {
                match cell {
                    Some(v) if i == col => assert_same_value(v, &full[col]),
                    None if i != col => {}
                    other => panic!("column {col}: slot {i} decoded as {other:?}"),
                }
            }
        }
        // Nothing wanted (and a short mask): every slot skipped, no error.
        assert!(decode_columns(&bytes, &[]).unwrap().iter().all(Option::is_none));
        // Everything wanted: the full row.
        let all = decode_columns(&bytes, &vec![true; row.len()]).unwrap();
        for (a, b) in all.iter().zip(&full) {
            assert_same_value(a.as_ref().unwrap(), b);
        }
    }

    #[test]
    fn skipped_xml_payload_is_still_checked() {
        let doc = xqdb_xmlparse::parse_document("<order><id>abc</id></order>").unwrap();
        let row = vec![SqlValue::Integer(5), SqlValue::Xml(doc.root())];
        let bytes = encode_row(0, &PathSignature::EMPTY, &row);
        let only_int = [true, false];
        // Every truncation, including one inside the skipped XML payload,
        // is a typed PageCorrupt.
        for cut in 0..bytes.len() {
            let err = decode_columns(&bytes[..cut], &only_int).unwrap_err();
            assert_eq!(err.code, xqdb_xdm::ErrorCode::PageCorrupt, "cut at {cut}");
        }
        // Invalid UTF-8 inside the skipped payload is caught without parsing.
        let mut bad = bytes.clone();
        let at = bytes.windows(3).position(|w| w == b"abc").unwrap();
        bad[at] = 0xFF;
        let err = decode_columns(&bad, &only_int).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::PageCorrupt);
        assert!(err.message.contains("UTF-8"), "{}", err.message);
        // A payload that is valid UTF-8 but not XML is only parsed when
        // wanted: the relational column still decodes.
        let mut unparsable = bytes.clone();
        let lt = bytes.iter().position(|&b| b == b'<').unwrap();
        unparsable[lt] = b'x'; // `xorder>…`: the root tag is gone
        let cells = decode_columns(&unparsable, &only_int).unwrap();
        assert!(matches!(cells[0], Some(SqlValue::Integer(5))));
        let err = decode_columns(&unparsable, &[false, true]).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::PageCorrupt);
    }

    #[test]
    fn truncation_and_garbage_are_typed() {
        let row = vec![SqlValue::Integer(1), SqlValue::Varchar("abc".into())];
        let bytes = encode_row(0, &PathSignature::EMPTY, &row);
        for cut in 0..bytes.len() {
            match decode_row(&bytes[..cut]) {
                Ok(_) => panic!("decoded a truncated record at {cut}"),
                Err(e) => assert_eq!(e.code, xqdb_xdm::ErrorCode::PageCorrupt),
            }
        }
        let mut bad = bytes.clone();
        let tag_pos = RECORD_HEADER_LEN; // first value tag
        bad[tag_pos] = 200;
        assert!(decode_row(&bad).is_err());
    }
}
