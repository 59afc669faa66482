//! The analyzer's original line-oriented lexer, kept verbatim as the
//! reference implementation for the tokenizer-agreement self-test
//! (`tokenizer_agrees_with_line_lexer` in `engine.rs`), whose module it
//! is. The analyzer itself runs on `eyeorg_lint::token`; this module
//! exists only so the byte-for-byte compatibility claim stays
//! machine-checked.

/// Cross-line lexer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    /// Plain code.
    Normal,
    /// Inside a (nesting) block comment, with current depth.
    Block(u32),
    /// Inside a `"..."` string literal (they may span lines).
    Str,
    /// Inside a raw string literal with this many `#`s.
    RawStr(u8),
}

/// A source line after lexing: code with strings/comments blanked out,
/// plus the text of a trailing `//` comment when present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubbedLine {
    /// Code with literal/comment contents blanked to spaces.
    pub code: String,
    /// Text after a `//` comment, when present.
    pub comment: Option<String>,
}

/// Strips comments, strings, and char literals from source lines while
/// carrying state across lines.
#[derive(Debug)]
pub struct Scrubber {
    state: LexState,
}

impl Default for Scrubber {
    fn default() -> Scrubber {
        Scrubber::new()
    }
}

impl Scrubber {
    /// Fresh lexer at start of file.
    pub fn new() -> Scrubber {
        Scrubber { state: LexState::Normal }
    }

    /// Process one line (no trailing newline).
    pub fn scrub(&mut self, line: &str) -> ScrubbedLine {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut comment = None;
        let mut i = 0;
        while i < chars.len() {
            match self.state {
                LexState::Block(depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        self.state = if depth > 1 {
                            LexState::Block(depth - 1)
                        } else {
                            LexState::Normal
                        };
                        code.push_str("  ");
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        self.state = LexState::Block(depth + 1);
                        code.push_str("  ");
                        i += 2;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                LexState::Str => {
                    if chars[i] == '\\' {
                        code.push_str("  ");
                        i += 2;
                    } else {
                        if chars[i] == '"' {
                            self.state = LexState::Normal;
                        }
                        code.push(' ');
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"' && Self::hashes_follow(&chars, i + 1, hashes) {
                        self.state = LexState::Normal;
                        i += 1 + hashes as usize;
                        for _ in 0..=hashes {
                            code.push(' ');
                        }
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                LexState::Normal => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        comment = Some(chars[i + 2..].iter().collect());
                        break;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        self.state = LexState::Block(1);
                        code.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        self.state = LexState::Str;
                        code.push(' ');
                        i += 1;
                    } else if (c == 'r' || c == 'b') && Self::raw_prefix(&chars, i).is_some() {
                        // r"...", r#"..."#, br"...", b"..." raw/byte strings.
                        if let Some((skip, hashes, raw)) = Self::raw_prefix(&chars, i) {
                            self.state =
                                if raw { LexState::RawStr(hashes) } else { LexState::Str };
                            for _ in 0..skip {
                                code.push(' ');
                            }
                            i += skip;
                        }
                    } else if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                        // Byte char literal b'x': delegate to char logic.
                        code.push(' ');
                        i += 1;
                    } else if c == '\'' {
                        i = Self::char_or_lifetime(&chars, i, &mut code);
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        ScrubbedLine { code, comment }
    }

    /// Whether `count` `#` characters start at `from`.
    fn hashes_follow(chars: &[char], from: usize, count: u8) -> bool {
        (0..count as usize).all(|k| chars.get(from + k) == Some(&'#'))
    }

    /// If a raw or byte string starts at `i`, returns
    /// `(prefix_len_including_quote, hashes, is_raw)`.
    fn raw_prefix(chars: &[char], i: usize) -> Option<(usize, u8, bool)> {
        let mut j = i;
        if chars.get(j) == Some(&'b') {
            j += 1;
        }
        let raw = chars.get(j) == Some(&'r');
        if raw {
            j += 1;
        }
        let mut hashes = 0u8;
        while chars.get(j + hashes as usize) == Some(&'#') && hashes < 255 {
            hashes += 1;
        }
        let j = j + hashes as usize;
        if chars.get(j) != Some(&'"') {
            return None; // raw identifier (r#type) or plain `b`/`r` code
        }
        if !raw && hashes > 0 {
            return None;
        }
        // Plain b"..." is handled here too (raw=false, hashes=0); a bare
        // "..." never reaches this function.
        if !raw && chars.get(i) != Some(&'b') {
            return None;
        }
        Some((j - i + 1, hashes, raw))
    }

    /// Disambiguate a `'` at `i`: consume a char literal (blanked) or a
    /// lifetime tick. Returns the next index.
    fn char_or_lifetime(chars: &[char], i: usize, code: &mut String) -> usize {
        if chars.get(i + 1) == Some(&'\\') {
            // Escaped char literal: scan to the closing quote.
            let mut j = i + 1;
            while j < chars.len() {
                if chars[j] == '\\' {
                    j += 2;
                    continue;
                }
                if chars[j] == '\'' {
                    break;
                }
                j += 1;
            }
            let end = (j + 1).min(chars.len());
            for _ in i..end {
                code.push(' ');
            }
            end
        } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
            // 'x' — any single-char literal.
            code.push_str("   ");
            i + 3
        } else {
            // Lifetime tick ('a, 'static, <'_>).
            code.push('\'');
            i + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubber_blanks_strings_and_comments() {
        let mut s = Scrubber::new();
        let out = s.scrub(r#"let x = "HashMap"; // HashMap in comment"#);
        assert!(!out.code.contains("HashMap"));
        assert_eq!(out.comment.as_deref(), Some(" HashMap in comment"));

        let out = s.scrub("let y = 1; /* HashMap */ let z = 2;");
        assert!(!out.code.contains("HashMap"));
        assert!(out.code.contains("let z = 2;"));
    }

    #[test]
    fn scrubber_handles_nested_and_multiline_block_comments() {
        let mut s = Scrubber::new();
        let a = s.scrub("code(); /* outer /* inner */ still comment");
        assert!(a.code.contains("code();"));
        assert!(!a.code.contains("still"));
        let b = s.scrub("HashMap here */ after();");
        assert!(!b.code.contains("HashMap"));
        assert!(b.code.contains("after();"));
    }

    #[test]
    fn scrubber_handles_multiline_and_raw_strings() {
        let mut s = Scrubber::new();
        let a = s.scrub(r#"let x = "line one"#);
        assert!(!a.code.contains("line one"));
        let b = s.scrub(r#"HashMap still string" + code()"#);
        assert!(!b.code.contains("HashMap"));
        assert!(b.code.contains("code()"));

        let mut s = Scrubber::new();
        let c = s.scrub(r##"let r = r#"HashMap "quoted" inside"# ; done()"##);
        assert!(!c.code.contains("HashMap"));
        assert!(c.code.contains("done()"));
    }

    #[test]
    fn scrubber_distinguishes_chars_and_lifetimes() {
        let mut s = Scrubber::new();
        let a = s.scrub(r"let q = '\''; let l: &'static str = x; let c = '{';");
        assert!(a.code.contains("'static"));
        assert!(!a.code.contains('{'), "char literal contents are blanked: {}", a.code);
        let b = s.scrub("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(b.code.contains("<'a>"));
        assert_eq!(b.code.matches('{').count(), 1);
    }
}
