//! The NDJSON note reader shared by `cmr extract` (stdin and `--ndjson`
//! corpus files) and the service's batch endpoint.
//!
//! One place decides what counts as a record line: blank and
//! whitespace-only lines are *separators*, not empty notes (a trailing
//! newline used to produce a spurious parse-failure record), `\r\n`
//! endings are stripped, and each surviving line is decoded as a gold
//! record object (`{"text": ...}`), a bare JSON string, or — as a
//! fallback for plain-text streams — taken verbatim.

use serde::Value;

/// Normalizes one raw NDJSON line: strips the trailing `\r`/`\n` and
/// rejects blank or whitespace-only lines (returns `None`). The CLI's
/// stdin reader and the `/extract/batch` endpoint both route every line
/// through here, so "skip blanks" has exactly one definition.
pub fn clean_note_line(raw: &str) -> Option<&str> {
    let line = raw.trim_end_matches(['\r', '\n']);
    if line.trim().is_empty() {
        None
    } else {
        Some(line)
    }
}

/// Pulls the note text out of one (already cleaned) NDJSON line: an
/// object with a `text` field (e.g. a `cmr generate --out -` gold
/// record), a bare JSON string, or — as a fallback — the raw line itself.
pub fn note_text_from_ndjson(line: &str) -> String {
    match serde_json::parse_value_str(line) {
        Ok(Value::String(s)) => s,
        Ok(Value::Object(fields)) => fields
            .iter()
            .find(|(k, _)| k == "text")
            .and_then(|(_, v)| match v {
                Value::String(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_default(),
        _ => line.to_string(),
    }
}

/// Full decode of one raw line: clean, then extract the note text.
/// `None` means the line was blank and must not produce a record.
pub fn note_from_line(raw: &str) -> Option<String> {
    clean_note_line(raw).map(note_text_from_ndjson)
}

/// Iterates the note texts in an NDJSON byte buffer (a batch request
/// body), skipping blank lines and any trailing newline. Invalid UTF-8
/// lines surface as `Err` with the 1-based line number.
pub fn notes_in_body(body: &[u8]) -> impl Iterator<Item = Result<String, usize>> + '_ {
    body.split(|&b| b == b'\n')
        .enumerate()
        .filter_map(|(idx, raw)| match std::str::from_utf8(raw) {
            Ok(line) => note_from_line(line).map(Ok),
            Err(_) => Some(Err(idx + 1)),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_whitespace_lines_are_skipped() {
        assert_eq!(clean_note_line(""), None);
        assert_eq!(clean_note_line("\n"), None);
        assert_eq!(clean_note_line("\r\n"), None);
        assert_eq!(clean_note_line("   \t  \n"), None);
        assert_eq!(clean_note_line("note\n"), Some("note"));
        assert_eq!(clean_note_line("note\r\n"), Some("note"));
    }

    #[test]
    fn note_text_decodes_objects_strings_and_raw_lines() {
        assert_eq!(
            note_text_from_ndjson(r#"{"patient_id":7,"text":"Vitals: pulse 84."}"#),
            "Vitals: pulse 84."
        );
        assert_eq!(
            note_text_from_ndjson(r#""plain string note""#),
            "plain string note"
        );
        assert_eq!(note_text_from_ndjson("not json at all"), "not json at all");
        // An object without a text field decodes to empty (the record
        // then extracts to an empty frame rather than garbage).
        assert_eq!(note_text_from_ndjson(r#"{"id":1}"#), "");
    }

    #[test]
    fn body_iteration_skips_blanks_and_trailing_newline() {
        let body = b"{\"text\":\"a\"}\n\n   \n\"b\"\nraw c\n";
        let notes: Vec<_> = notes_in_body(body).collect();
        assert_eq!(
            notes,
            vec![
                Ok("a".to_string()),
                Ok("b".to_string()),
                Ok("raw c".to_string())
            ]
        );
    }

    #[test]
    fn invalid_utf8_reports_line_number() {
        let body = b"\"ok\"\n\xff\xfe\n";
        let notes: Vec<_> = notes_in_body(body).collect();
        assert_eq!(notes, vec![Ok("ok".to_string()), Err(2)]);
    }
}
