package api_test

// Fuzz harness for the attacker-facing decoders: the HPU1 binary wire
// frame (ReadInt32Frame / ReadInt64Frame), the binary submission's query
// parameters (RequestFromQuery) and the JSON payload codec
// (DecodeJobRequest / DecodeJobResult). The contract under fuzzing is
// uniform: malformed input returns an error classified dcerr.ErrBadParam —
// never a panic, never an unclassified error that would surface as a 500.
// The JSON decoders must also agree exactly with the encoding/json decoder
// they replaced. The seed corpus (f.Add plus testdata/fuzz) covers the
// interesting malformations: truncated header, truncated payload, oversized
// element count, wrong magic, wrong element size, non-numeric query values,
// and JSON key spellings, number forms, bounds and framing.
//
// `go test -run '^Fuzz'` replays the seeds (wired into `make check`);
// `go test -fuzz FuzzReadInt32Frame ./internal/api` explores from them.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/dcerr"
)

// frame assembles a wire frame with an arbitrary (possibly lying) header.
func frame(magic string, elemSize byte, count uint64, payload []byte) []byte {
	b := make([]byte, 0, 16+len(payload))
	b = append(b, magic...)
	b = append(b, elemSize, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, count)
	return append(b, payload...)
}

// seedFrames are shared by both frame fuzzers: every header field lied
// about at least once.
func seedFrames(f *testing.F, elemSize byte) {
	f.Add([]byte{})                                 // empty input
	f.Add([]byte("HPU1"))                           // truncated header (magic only)
	f.Add(frame("HPU1", elemSize, 2, nil)[:5])      // truncated header (past magic)
	f.Add(frame("HPUX", elemSize, 0, nil))          // wrong magic
	f.Add(frame("HPU1", 0, 0, nil))                 // zero element size
	f.Add(frame("HPU1", 9, 1, []byte("AAAAAAAAA"))) // wrong element size
	f.Add(frame("HPU1", elemSize, ^uint64(0), nil)) // oversized count
	f.Add(frame("HPU1", elemSize, 1<<40, nil))      // implausible count
	f.Add(frame("HPU1", elemSize, 4, []byte{1, 2})) // payload shorter than count
	valid := make([]byte, 2*int(elemSize))
	f.Add(frame("HPU1", elemSize, 2, valid)) // well-formed two-element frame
}

func FuzzReadInt32Frame(f *testing.F) {
	seedFrames(f, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := api.ReadInt32Frame(bytes.NewReader(data), 1<<20)
		if err != nil {
			if !errors.Is(err, dcerr.ErrBadParam) {
				t.Fatalf("malformed frame error %v does not classify as ErrBadParam", err)
			}
			return
		}
		// A successful decode must be consistent with the header it read.
		if len(data) < 16 {
			t.Fatalf("decoded %d elements from a %d-byte input (< header)", len(out), len(data))
		}
		if want := binary.LittleEndian.Uint64(data[8:16]); uint64(len(out)) != want {
			t.Fatalf("decoded %d elements, header said %d", len(out), want)
		}
	})
}

func FuzzReadInt64Frame(f *testing.F) {
	seedFrames(f, 8)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := api.ReadInt64Frame(bytes.NewReader(data), 1<<20)
		if err != nil {
			if !errors.Is(err, dcerr.ErrBadParam) {
				t.Fatalf("malformed frame error %v does not classify as ErrBadParam", err)
			}
			return
		}
		if len(data) < 16 {
			t.Fatalf("decoded %d elements from a %d-byte input (< header)", len(out), len(data))
		}
		if want := binary.LittleEndian.Uint64(data[8:16]); uint64(len(out)) != want {
			t.Fatalf("decoded %d elements, header said %d", len(out), want)
		}
	})
}

func FuzzRequestFromQuery(f *testing.F) {
	f.Add("algorithm=mergesort&strategy=auto&priority=2")
	f.Add("algorithm=scan&alpha=0.75&y=3&crossover=2&coalesce=1")
	f.Add("alpha=notanumber")
	f.Add("y=99999999999999999999")
	f.Add("crossover=-1&priority=1e9")
	f.Add("max_retries=two&backoff_ms=10")
	f.Add("deadline_ms=%gg&hedge_ms=5")
	f.Add("fallback=cpu-only&hedge_ms=9223372036854775808")
	f.Add("alpha=NaN&y=1")
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return // not this decoder's input space
		}
		req, err := api.RequestFromQuery(q)
		if err != nil {
			if !errors.Is(err, dcerr.ErrBadParam) {
				t.Fatalf("malformed query error %v does not classify as ErrBadParam", err)
			}
			return
		}
		// Round trip: a successfully parsed request re-encodes to parameters
		// that parse back to the same request.
		back, err := api.RequestFromQuery(req.QueryParams())
		if err != nil {
			t.Fatalf("re-encoded query failed to parse: %v", err)
		}
		// Alpha compares NaN-tolerantly: "alpha=NaN" parses, and NaN round
		// trips to NaN, which plain != would call a divergence.
		sameAlpha := back.Alpha == req.Alpha ||
			(math.IsNaN(back.Alpha) && math.IsNaN(req.Alpha))
		// Coalesce survives only canonical spellings; QueryParams always emits
		// the canonical "1", so the round trip normalizes, never diverges.
		if back.Algorithm != req.Algorithm || back.Strategy != req.Strategy ||
			!sameAlpha || back.Y != req.Y ||
			back.Crossover != req.Crossover || back.Priority != req.Priority ||
			back.Coalesce != req.Coalesce {
			t.Fatalf("query round trip diverged: %+v vs %+v", req, back)
		}
	})
}

// FuzzDecodeJobRequest checks the JSON submission decoder against the
// decoder it replaced, json.NewDecoder(r).Decode: same accept/reject
// verdict, and reflect.DeepEqual values (nil vs empty slices included). An
// accepted request must also survive EncodeJobRequest unchanged.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(`{"algorithm":"mergesort","data":[3,1,2,0],"strategy":"auto"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var want, got api.JobRequest
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		gotErr := api.DecodeJobRequest(b, &got)
		checkAgainstOracle(t, b, want, got, wantErr, gotErr)
		if gotErr != nil {
			return
		}
		var buf bytes.Buffer
		if err := api.EncodeJobRequest(&buf, &got); err != nil {
			t.Fatalf("re-encode %+v: %v", got, err)
		}
		var back api.JobRequest
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("re-encoded %s decodes to %+v (err %v), want %+v", buf.Bytes(), back, err, got)
		}
	})
}

// FuzzDecodeJobResult is FuzzDecodeJobRequest for the result decoder. Its
// re-encoding is compared with json.Marshal's under decoding, since both
// omit empty arrays.
func FuzzDecodeJobResult(f *testing.F) {
	f.Add([]byte(`{"id":7,"report":{"algorithm":"scan","strategy":"bf-cpu","seconds":0.5},"scan":[1,3,6]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var want, got api.JobResult
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		gotErr := api.DecodeJobResult(b, &got)
		checkAgainstOracle(t, b, want, got, wantErr, gotErr)
		if gotErr != nil {
			return
		}
		var buf bytes.Buffer
		if err := api.EncodeJobResult(&buf, &got); err != nil {
			t.Fatalf("re-encode %+v: %v", got, err)
		}
		ref, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		var back, refBack api.JobResult
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("re-encoded %s: %v", buf.Bytes(), err)
		}
		if err := json.Unmarshal(ref, &refBack); err != nil || !reflect.DeepEqual(back, refBack) {
			t.Fatalf("re-encoded %s decodes to %+v, json.Marshal's to %+v (err %v)", buf.Bytes(), back, refBack, err)
		}
	})
}

func checkAgainstOracle(t *testing.T, b []byte, want, got any, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: encoding/json err %v, codec err %v", b, wantErr, gotErr)
	}
	if gotErr != nil && !errors.Is(gotErr, dcerr.ErrBadParam) {
		t.Fatalf("%q: codec error %v does not classify as ErrBadParam", b, gotErr)
	}
	if gotErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%q: encoding/json decoded %+v, codec %+v", b, want, got)
	}
}
