// Package html is the document substrate of the reproduction: a
// from-scratch HTML tokenizer and tree builder sufficient for the Web
// wrapping scenarios of Gottlob & Koch (PODS 2002). The paper assumes
// "an existing HTML parser as a front end" producing unranked document
// trees; offline we provide our own for a practical HTML subset:
//
//   - start/end/self-closing tags with quoted, unquoted and bare
//     attributes; case-insensitive tag and attribute names;
//   - void elements (br, img, hr, ...) that never take children;
//   - implied end tags for li, p, td, th, tr, option, dt, dd;
//   - raw-text elements (script, style) whose content is opaque;
//   - comments, doctype, and character entities (named, decimal and
//     hexadecimal).
//
// Text becomes #text-labeled leaves (with the character data in
// Node.Text); element labels are lower-case tag names, so the label
// predicates of τ_ur are label_div, label_td, ..., plus label_#text.
//
// The primary entry point is ParseReader, a streaming tokenizer that
// builds the arena (struct-of-arrays) representation directly from an
// io.Reader in one pass. Parse wraps it for in-memory strings, and
// ParseNodes is the original pointer-per-node builder, retained as an
// independently implemented reference for differential testing and as
// the pointer-tree baseline in benchmarks.
package html

import (
	"strings"

	"mdlog/internal/tree"
)

// voidElements never have children.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// impliedEnd[tag] lists open tags that an opening <tag> implicitly
// closes (a pragmatic subset of the HTML5 rules).
var impliedEnd = map[string][]string{
	"li":     {"li"},
	"p":      {"p"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"tr":     {"tr", "td", "th"},
	"option": {"option"},
	"dt":     {"dt", "dd"},
	"dd":     {"dt", "dd"},
}

// rawText elements swallow everything until their end tag.
var rawText = map[string]bool{"script": true, "style": true}

var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "copy": "©", "mdash": "—", "ndash": "–", "hellip": "…",
	"eur": "€", "euro": "€", "pound": "£", "yen": "¥",
}

// Parse builds a document tree from in-memory HTML source via the
// streaming arena parser. The result is rooted at a synthetic
// #document node (as in real DOM trees), so the HTML root element is
// never the τ_ur root — which also sidesteps the root-label caveat of
// the Theorem 6.5 translation.
func Parse(src string) *tree.Tree {
	t, err := ParseReader(strings.NewReader(src))
	if err != nil {
		// strings.Reader cannot fail; parsing itself never errors.
		panic("html: " + err.Error())
	}
	return t
}

// ParseNodes is the legacy pointer-per-node tree builder. It
// implements exactly the same parsing policy as ParseReader over a
// different representation, which makes it the differential-testing
// twin of the streaming parser and the pointer-tree baseline of the
// substrate benchmarks. New code should use Parse or ParseReader.
func ParseNodes(src string) *tree.Tree {
	doc := tree.New("#document")
	stack := []*tree.Node{doc}
	top := func() *tree.Node { return stack[len(stack)-1] }

	// Boundary-whitespace bookkeeping (see textContent): the last
	// emitted text node gains a trailing space when an element follows
	// it under the same parent.
	var lastText *tree.Node
	var lastTextOwner *tree.Node
	lastTextTrail := false

	var pending strings.Builder
	flushText := func() {
		if pending.Len() == 0 {
			return
		}
		raw := pending.String()
		pending.Reset()
		content, trail := textContent(raw, len(top().Children) > 0)
		if content == "" {
			return
		}
		n := tree.NewText(content)
		top().Add(n)
		lastText, lastTextOwner, lastTextTrail = n, top(), trail
	}
	elementBoundary := func() {
		if lastText != nil && lastTextOwner == top() && lastTextTrail {
			lastText.Text += " "
		}
		lastText = nil
	}
	openTag := func(name string, attrs map[string]string, selfClose bool) {
		// Pop every open element the new tag implicitly closes (e.g. a
		// <tr> closes an open td and then the open tr).
		for len(stack) > 1 {
			closed := false
			for _, closes := range impliedEnd[name] {
				if top().Label == closes {
					stack = stack[:len(stack)-1]
					closed = true
					break
				}
			}
			if !closed {
				break
			}
		}
		elementBoundary()
		n := tree.New(name)
		if len(attrs) > 0 {
			n.Attrs = attrs
		}
		top().Add(n)
		if !voidElements[name] && !selfClose {
			stack = append(stack, n)
		}
	}
	closeTag := func(name string) {
		for i := len(stack) - 1; i >= 1; i-- {
			if stack[i].Label == name {
				stack = stack[:i]
				return
			}
		}
		// Unmatched end tag: ignored.
	}

	i := 0
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			pending.WriteString(src[i:])
			break
		}
		if lt > 0 {
			pending.WriteString(src[i : i+lt])
		}
		i += lt
		switch {
		case strings.HasPrefix(src[i:], "<!--"):
			flushText()
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				i = len(src)
			} else {
				i += 4 + end + 3
			}
		case strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?"):
			flushText()
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				i = len(src)
			} else {
				i += end + 1
			}
		case strings.HasPrefix(src[i:], "</"):
			flushText()
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				i = len(src)
				break
			}
			name := lowerASCIIString(strings.TrimSpace(src[i+2 : i+end]))
			closeTag(name)
			i += end + 1
		default:
			end := findTagEnd(src, i)
			if end < 0 {
				// Stray '<' that does not start a tag: literal text.
				pending.WriteByte('<')
				i++
				break
			}
			flushText()
			name, attrs, selfClose := scanTag(src[i+1 : end])
			if end < len(src) {
				i = end + 1
			} else {
				i = len(src)
			}
			openTag(name, attrs, selfClose)
			if rawText[name] && !selfClose {
				endTag := "</" + name
				idx := strings.Index(lowerASCIIString(src[i:]), endTag)
				if idx < 0 {
					i = len(src)
					closeTag(name)
				} else {
					raw := src[i : i+idx]
					if strings.TrimSpace(raw) != "" {
						top().Add(tree.NewText(raw))
					}
					i += idx
					gt := strings.IndexByte(src[i:], '>')
					if gt < 0 {
						i = len(src)
					} else {
						i += gt + 1
					}
					closeTag(name)
				}
			}
		}
	}
	flushText()
	return tree.NewTree(doc)
}

// lowerASCIIString lowercases the ASCII letters of s only, as HTML
// does for tag and attribute names and as the streaming parser does:
// every other byte, invalid UTF-8 included, passes through, so offsets
// into the result are offsets into s.
func lowerASCIIString(s string) string { return string(lowerASCII([]byte(s))) }

// findTagEnd returns the index of the '>' closing the start tag that
// begins at src[i] == '<', skipping over quoted attribute values, or
// len(src) if the tag never closes, or -1 if src[i+1] does not start a
// tag name.
func findTagEnd(src string, i int) int {
	j := i + 1
	if j >= len(src) || !isNameByte(src[j]) {
		return -1
	}
	var quote byte
	for ; j < len(src); j++ {
		c := src[j]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '>':
			return j
		}
	}
	return len(src)
}

// scanTag parses the inside of a start tag (between '<' and '>'):
// the lower-cased name, the attributes (entity-decoded values), and
// whether the tag self-closes.
func scanTag(s string) (string, map[string]string, bool) {
	j := 0
	for j < len(s) && isNameByte(s[j]) {
		j++
	}
	name := lowerASCIIString(s[:j])
	var attrs map[string]string
	selfClose := false
	for j < len(s) {
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		if j >= len(s) {
			break
		}
		if s[j] == '/' {
			selfClose = true
			j++
			continue
		}
		// Attribute.
		aStart := j
		for j < len(s) && s[j] != '=' && s[j] != '/' && !isSpace(s[j]) {
			j++
		}
		aName := lowerASCIIString(s[aStart:j])
		aVal := ""
		if j < len(s) && s[j] == '=' {
			j++
			for j < len(s) && isSpace(s[j]) {
				j++
			}
			if j < len(s) && (s[j] == '"' || s[j] == '\'') {
				q := s[j]
				j++
				vStart := j
				for j < len(s) && s[j] != q {
					j++
				}
				aVal = s[vStart:j]
				if j < len(s) {
					j++
				}
			} else {
				vStart := j
				for j < len(s) && !isSpace(s[j]) {
					j++
				}
				aVal = s[vStart:j]
			}
		}
		if aName != "" {
			if attrs == nil {
				attrs = map[string]string{}
			}
			attrs[aName] = decodeEntities(aVal)
		}
	}
	return name, attrs, selfClose
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// isTextSpace is the ASCII whitespace set of the HTML spec (TAB, LF,
// FF, CR, SPACE), used for character-data normalization.
func isTextSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// textContent computes the stored character data for one raw text
// chunk: character references decoded, whitespace collapsed, and — the
// boundary-space rule — a single leading space preserved when the
// chunk began with whitespace and follows an existing sibling, so
// "<b>Price:</b> 9 EUR" extracts as "Price:" + " 9 EUR" rather than
// the concatenation "Price:9 EUR". It also reports whether the chunk
// ended in whitespace; the caller restores that trailing boundary
// space if (and only if) an element sibling follows. Whitespace-only
// chunks collapse to "" and produce no node.
func textContent(raw string, hasPrevSibling bool) (text string, trailing bool) {
	decoded := decodeCharRefs(raw)
	collapsed := collapseSpace(decoded)
	if collapsed == "" {
		return "", false
	}
	if hasPrevSibling && isTextSpace(decoded[0]) {
		collapsed = " " + collapsed
	}
	return collapsed, isTextSpace(decoded[len(decoded)-1])
}

// decodeCharRefs resolves &name;, &#NN; and &#xHH; references;
// invalid or unknown references are left intact.
func decodeCharRefs(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	i := amp
	for i < len(s) {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(s[i])
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if strings.HasPrefix(name, "#") {
			if r, ok := parseCharCode(name[1:]); ok {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		} else if rep, ok := entities[strings.ToLower(name)]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

// parseCharCode parses the digits of a numeric character reference
// (after the '#'): decimal, or hexadecimal with an x/X prefix.
func parseCharCode(digits string) (rune, bool) {
	base := 10
	if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
		base = 16
		digits = digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	code := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			return 0, false
		}
		code = code*base + d
	}
	// Exclude NUL, out-of-range code points and surrogates.
	if code <= 0 || code >= 0x110000 || (code >= 0xD800 && code <= 0xDFFF) {
		return 0, false
	}
	return rune(code), true
}

// decodeEntities resolves character references and normalizes
// whitespace (the attribute-value pipeline; text nodes go through
// textContent for the boundary-space rule).
func decodeEntities(s string) string {
	return collapseSpace(decodeCharRefs(s))
}

// collapseSpace normalizes runs of ASCII whitespace to single spaces
// and trims, matching how browsers render character data. Already-
// normalized strings are returned as-is without allocating — the
// common case for real text.
func collapseSpace(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !isTextSpace(c) {
			continue
		}
		if c == ' ' && i > 0 && i+1 < len(s) && !isTextSpace(s[i+1]) {
			continue // single interior space: fine
		}
		// Needs normalization.
		var b strings.Builder
		b.Grow(len(s))
		i, n, first := 0, len(s), true
		for i < n {
			for i < n && isTextSpace(s[i]) {
				i++
			}
			if i >= n {
				break
			}
			start := i
			for i < n && !isTextSpace(s[i]) {
				i++
			}
			if !first {
				b.WriteByte(' ')
			}
			first = false
			b.WriteString(s[start:i])
		}
		return b.String()
	}
	return s
}
