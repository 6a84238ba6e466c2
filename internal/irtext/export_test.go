package irtext

// Span is one token as the external tests see it: its text, the byte
// offset the lexer recorded for it, and whether it is a string literal.
type Span struct {
	Text   string
	Pos    int
	String bool
}

// LexSpans lexes src to the end, the end-of-file token included.
func LexSpans(src string) ([]Span, error) {
	l := newLexer(src, "spans")
	var out []Span
	for {
		var t token
		if err := l.scan(&t); err != nil {
			return out, err
		}
		out = append(out, Span{Text: t.text, Pos: t.pos, String: t.kind == tokString})
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
