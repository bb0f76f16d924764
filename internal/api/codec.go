package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/dcerr"
)

// JSON codec for the job payload path. A job's integer array — the
// request's data, the result's sorted or scan — is nearly all of its bytes,
// and reflection-based encoding/json spends most of a job's wire time on
// it. These functions parse and print the arrays digit by digit and hand
// every other field, the small envelope, to encoding/json, so the envelope
// keeps its exact semantics (key matching, omitempty, float formatting,
// type errors). Status, SSE, metrics and error bodies stay on encoding/json.
//
// The decoders accept exactly what json.NewDecoder(r).Decode(&v) accepts
// and produce the same value, which FuzzDecodeJobRequest and
// FuzzDecodeJobResult check against that oracle:
//
//   - One top-level object (or null, which leaves v unchanged); bytes after
//     it are ignored, as a stream decoder never reads them.
//   - Keys match case-insensitively (bytes.EqualFold), escaped keys are
//     unquoted, unknown keys are skipped, and a repeated key decodes again
//     into the same field.
//   - Array elements follow the strict JSON number grammar and must be
//     integers within the element type's range; a null element keeps the
//     value the field's backing array already held at that index, and a
//     null array is a nil slice. A decoded array is an exact-size heap
//     slice.
//   - Any syntax error, anywhere in the object, rejects the whole body.
//
// DESIGN.md §14.6.

// requestEnvelope is JobRequest minus its payload. The struct conversion
// (*requestEnvelope)(r) ignores tags, so it compiles only while the two
// field lists agree.
type requestEnvelope struct {
	Algorithm   string       `json:"algorithm"`
	Data        []int32      `json:"-"`
	Strategy    string       `json:"strategy,omitempty"`
	Alpha       float64      `json:"alpha,omitempty"`
	Y           int          `json:"y,omitempty"`
	Crossover   int          `json:"crossover,omitempty"`
	Priority    int          `json:"priority,omitempty"`
	Coalesce    bool         `json:"coalesce,omitempty"`
	Reliability *Reliability `json:"reliability,omitempty"`
}

// resultEnvelope is JobResult minus its array payloads.
type resultEnvelope struct {
	ID     uint64  `json:"id"`
	Report Report  `json:"report"`
	Sorted []int32 `json:"-"`
	Scan   []int64 `json:"-"`
	Sum    *int64  `json:"sum,omitempty"`
}

// EncodeJobRequest appends r's JSON encoding to buf: the object
// json.Marshal(r) produces, with the data member moved last.
func EncodeJobRequest(buf *bytes.Buffer, r *JobRequest) error {
	env, err := json.Marshal((*requestEnvelope)(r))
	if err != nil {
		return fmt.Errorf("api: encode job request: %w", err)
	}
	buf.Grow(len(env) + len(`,"data":[]`) + maxInt32Digits*len(r.Data))
	b := append(buf.AvailableBuffer(), env[:len(env)-1]...)
	b = append(b, `,"data":`...)
	b = appendInts(b, r.Data)
	buf.Write(append(b, '}'))
	return nil
}

// EncodeJobResult appends r's JSON encoding to buf: the object
// json.Marshal(r) produces, with the array payload moved last.
func EncodeJobResult(buf *bytes.Buffer, r *JobResult) error {
	env, err := json.Marshal((*resultEnvelope)(r))
	if err != nil {
		return fmt.Errorf("api: encode job result: %w", err)
	}
	buf.Grow(len(env) + len(`,"sorted":[],"scan":[]`) +
		maxInt32Digits*len(r.Sorted) + maxInt64Digits*len(r.Scan))
	b := append(buf.AvailableBuffer(), env[:len(env)-1]...)
	if len(r.Sorted) > 0 {
		b = appendInts(append(b, `,"sorted":`...), r.Sorted)
	}
	if len(r.Scan) > 0 {
		b = appendInts(append(b, `,"scan":`...), r.Scan)
	}
	buf.Write(append(b, '}'))
	return nil
}

// DecodeJobRequest decodes one JSON JobRequest from b into r.
func DecodeJobRequest(b []byte, r *JobRequest) error {
	data := newIntField(&r.Data, math.MinInt32, math.MaxInt32)
	return decodeObject(b, (*requestEnvelope)(r), func(key []byte) arrayField {
		if bytes.EqualFold(key, []byte("data")) {
			return data
		}
		return nil
	})
}

// DecodeJobResult decodes one JSON JobResult from b into r.
func DecodeJobResult(b []byte, r *JobResult) error {
	sorted := newIntField(&r.Sorted, math.MinInt32, math.MaxInt32)
	scan := newIntField(&r.Scan, math.MinInt64, math.MaxInt64)
	return decodeObject(b, (*resultEnvelope)(r), func(key []byte) arrayField {
		switch {
		case bytes.EqualFold(key, []byte("sorted")):
			return sorted
		case bytes.EqualFold(key, []byte("scan")):
			return scan
		}
		return nil
	})
}

// Widest decimal element plus its comma: "-2147483648," and
// "-9223372036854775808,".
const (
	maxInt32Digits = 12
	maxInt64Digits = 21
)

// appendInts appends vs as a JSON array, or null for a nil slice.
func appendInts[T int32 | int64](b []byte, vs []T) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// arrayField decodes one array-valued member.
type arrayField interface {
	// decode parses the value starting at b[i] and returns the offset just
	// past it.
	decode(b []byte, i int) (int, error)
}

// intField is an integer-array struct field under decode. hist is the
// field's backing array as encoding/json would see it: the last value
// written at each index since the slice was last replaced, which is what a
// null element leaves in place when the key repeats.
type intField[T int32 | int64] struct {
	dst    *[]T
	hist   []T
	lo, hi int64
}

// newIntField seeds the history from the field's current slice, whose
// spare capacity encoding/json would also decode into.
func newIntField[T int32 | int64](dst *[]T, lo, hi int64) *intField[T] {
	return &intField[T]{dst: dst, hist: (*dst)[:cap(*dst)], lo: lo, hi: hi}
}

func (f *intField[T]) decode(b []byte, i int) (int, error) {
	if bytes.HasPrefix(b[i:], []byte("null")) {
		*f.dst, f.hist = nil, nil
		return i + len("null"), nil
	}
	if b[i] != '[' {
		return i, syntaxErr(b, i, "want an integer array")
	}
	i++
	// Elements are numbers or null, so the first ']' closes the array and
	// its commas count the elements; anything else is rejected below.
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return i, syntaxErr(b, len(b), "unterminated array")
	}
	end += i
	n := 0
	if skipSpace(b, i) < end {
		n = bytes.Count(b[i:end], []byte{','}) + 1
	}
	// Each element takes at least two bytes with its separator, so a body
	// cannot size the slice beyond what that many valid elements would.
	if 2*n-1 > end-i {
		return i, syntaxErr(b, i, "want an integer array")
	}
	out := make([]T, n)
	for k := range out {
		i = skipSpace(b, i)
		if i < len(b) && b[i] == 'n' {
			if !bytes.HasPrefix(b[i:], []byte("null")) {
				return i, syntaxErr(b, i, "want a number or null")
			}
			if k < len(f.hist) {
				out[k] = f.hist[k]
			}
			i += len("null")
		} else {
			v, next, err := parseInt(b, i, f.lo, f.hi)
			if err != nil {
				return i, err
			}
			out[k], i = T(v), next
		}
		i = skipSpace(b, i)
		sep := byte(',')
		if k == n-1 {
			sep = ']'
		}
		if i >= len(b) || b[i] != sep {
			return i, syntaxErr(b, i, "want , or ] after array element")
		}
		i++
	}
	if n == 0 {
		i = end + 1
	}
	*f.dst = out
	if n == 0 || n >= len(f.hist) {
		f.hist = out
	} else {
		// Overwrite the history in place, as encoding/json overwrites the
		// backing array: a repeated key costs its own length, not a copy
		// of the longest array before it.
		copy(f.hist, out)
	}
	return i, nil
}

// parseInt parses one JSON number at b[i] that must be an integer in
// [lo, hi]: strict grammar (no '+', no leading zeros), and a fraction or
// exponent is rejected, as encoding/json rejects it for an integer field.
func parseInt(b []byte, i int, lo, hi int64) (int64, int, error) {
	start := i
	neg := i < len(b) && b[i] == '-'
	limit := uint64(hi)
	if neg {
		i++
		limit = uint64(-(lo + 1)) + 1
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, i, syntaxErr(b, i, "want a number")
	}
	var u uint64
	if b[i] == '0' {
		i++
	} else {
		// Nineteen digits cannot overflow a uint64, so the range check
		// waits until the digits end.
		digits := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			u = u*10 + uint64(d)
		}
		if i-digits > 19 || u > limit {
			return 0, i, syntaxErr(b, start, "integer out of range")
		}
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, i, syntaxErr(b, start, "want an integer")
	}
	if neg {
		return -int64(u-1) - 1, i, nil
	}
	return int64(u), i, nil
}

// decodeObject walks the top-level object in b. Members whose key names an
// array field (payload returns non-nil) are decoded in place; every other
// member is copied verbatim into one envelope object, which encoding/json
// then decodes into env. The envelope is the body minus the array members
// and the whitespace around member separators, so it is valid JSON exactly
// when the rest of the body is.
func decodeObject(b []byte, env any, payload func(key []byte) arrayField) error {
	i := skipSpace(b, 0)
	if i == len(b) {
		return fmt.Errorf("api: empty JSON body: %w", dcerr.ErrBadParam)
	}
	if bytes.HasPrefix(b[i:], []byte("null")) {
		return nil
	}
	if b[i] != '{' {
		return syntaxErr(b, i, "want an object")
	}
	scratch := getBuf()
	defer putBuf(scratch)
	scratch.WriteByte('{')
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return syntaxErr(b, i, "want a member name")
		}
		keyStart := i
		keyEnd, escaped, err := scanString(b, i)
		if err != nil {
			return err
		}
		key := b[keyStart+1 : keyEnd-1]
		if escaped {
			var s string
			if err := json.Unmarshal(b[keyStart:keyEnd], &s); err != nil {
				return fmt.Errorf("api: member name: %w: %w", err, dcerr.ErrBadParam)
			}
			key = []byte(s)
		}
		i = skipSpace(b, keyEnd)
		if i >= len(b) || b[i] != ':' {
			return syntaxErr(b, i, "want : after member name")
		}
		i = skipSpace(b, i+1)
		if i >= len(b) {
			return syntaxErr(b, i, "want a value")
		}
		if f := payload(key); f != nil {
			if i, err = f.decode(b, i); err != nil {
				return err
			}
		} else {
			end, err := skipValue(b, i)
			if err != nil {
				return err
			}
			if scratch.Len() > 1 {
				scratch.WriteByte(',')
			}
			scratch.Write(b[keyStart:end])
			i = end
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return syntaxErr(b, i, "unterminated object")
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return syntaxErr(b, i, "want , or } after object member")
		}
		i = skipSpace(b, i+1)
	}
	if scratch.Len() == 1 {
		return nil
	}
	scratch.WriteByte('}')
	if err := json.Unmarshal(scratch.Bytes(), env); err != nil {
		return fmt.Errorf("api: %w: %w", err, dcerr.ErrBadParam)
	}
	return nil
}

// skipValue returns the offset just past the JSON value starting at b[i].
// It only finds the value's extent, tracking strings and nesting as the
// JSON lexer does; the envelope decode validates it.
func skipValue(b []byte, i int) (int, error) {
	depth := 0
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			end, _, err := scanString(b, i)
			if err != nil {
				return i, err
			}
			i = end
		case c == '{' || c == '[':
			depth++
			i++
		case c == '}' || c == ']':
			if depth == 0 {
				return i, syntaxErr(b, i, "want a value")
			}
			depth--
			i++
		case depth > 0:
			i++
		default:
			// A literal or number: letters, digits, sign, point. Stopping
			// at any other byte keeps a quote out of the span.
			start := i
			for i < len(b) && isLiteralByte(b[i]) {
				i++
			}
			if i == start {
				return i, syntaxErr(b, i, "want a value")
			}
		}
		if depth == 0 {
			return i, nil
		}
	}
	return i, syntaxErr(b, i, "unterminated value")
}

// scanString returns the offset just past the string starting at b[i] (a
// '"') and whether it holds escapes. Raw control bytes are rejected; escape
// sequences are checked where the string is unquoted.
func scanString(b []byte, i int) (end int, escaped bool, err error) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, escaped, nil
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			return i, false, syntaxErr(b, i, "control character in string")
		}
	}
	return i, false, syntaxErr(b, len(b), "unterminated string")
}

func isLiteralByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '-' || c == '+' || c == '.'
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func syntaxErr(b []byte, i int, msg string) error {
	if i >= len(b) {
		return fmt.Errorf("api: JSON %s at end of input: %w", msg, dcerr.ErrBadParam)
	}
	return fmt.Errorf("api: JSON %s at offset %d (%q): %w", msg, i, b[i], dcerr.ErrBadParam)
}
