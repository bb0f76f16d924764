package api_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/workload"
)

// TestJobCodecRoundTrip pins the payload encoders against encoding/json:
// what they write decodes, under encoding/json, to exactly what
// json.Marshal's output decodes to — the input itself for requests, and for
// results the input with empty arrays omitted, as omitempty does — and the
// codec's own decoders read it back the same way.
func TestJobCodecRoundTrip(t *testing.T) {
	sum := int64(math.MinInt64)
	requests := []api.JobRequest{
		{Algorithm: "mergesort", Data: []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}},
		{Algorithm: "scan"},
		{Algorithm: "scan", Data: []int32{}},
		{Algorithm: "mergesort", Data: workload.Uniform(1<<10, 5), Strategy: "advanced-hybrid",
			Alpha: 0.625, Y: 3, Crossover: 2, Priority: 4, Coalesce: true},
		{Algorithm: "sum \"quoted\" <tag>", Data: []int32{7}, Reliability: &api.Reliability{
			MaxRetries: 2, BackoffMS: 5, DeadlineMS: 1000, HedgeMS: 20, Fallback: "cpu-only"}},
		{Algorithm: "sum", Data: []int32{7}, Reliability: &api.Reliability{}},
	}
	for i, req := range requests {
		var buf bytes.Buffer
		if err := api.EncodeJobRequest(&buf, &req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var viaJSON, viaCodec api.JobRequest
		if err := json.Unmarshal(buf.Bytes(), &viaJSON); err != nil {
			t.Fatalf("request %d: encoding/json rejects %s: %v", i, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(viaJSON, req) {
			t.Errorf("request %d: %s decodes to %+v, want %+v", i, buf.Bytes(), viaJSON, req)
		}
		if err := api.DecodeJobRequest(buf.Bytes(), &viaCodec); err != nil || !reflect.DeepEqual(viaCodec, req) {
			t.Errorf("request %d: codec decodes %s to %+v (err %v), want %+v", i, buf.Bytes(), viaCodec, err, req)
		}
	}

	report := api.Report{Algorithm: "mergesort", Strategy: "basic-hybrid", ChosenStrategy: "basic-hybrid",
		Seconds: 1.5, CPUPortionSeconds: 0.25, GPUPortionSeconds: 1e-9, Partial: true}
	results := []api.JobResult{
		{ID: math.MaxUint64, Report: report, Sorted: []int32{math.MinInt32, 0, math.MaxInt32}},
		{ID: 2, Report: api.Report{Algorithm: "scan"}, Scan: []int64{math.MinInt64, -1, 0, math.MaxInt64}},
		{ID: 3, Report: api.Report{Algorithm: "dcsum"}, Sum: &sum},
		{ID: 4, Sorted: []int32{}, Scan: []int64{}},
		{ID: 5},
		{ID: 6, Sorted: workload.Uniform(1<<10, 6)},
	}
	for i, res := range results {
		var buf bytes.Buffer
		if err := api.EncodeJobResult(&buf, &res); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		ref, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var want, viaJSON, viaCodec api.JobResult
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &viaJSON); err != nil {
			t.Fatalf("result %d: encoding/json rejects %s: %v", i, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(viaJSON, want) {
			t.Errorf("result %d: %s decodes to %+v, want %+v", i, buf.Bytes(), viaJSON, want)
		}
		if err := api.DecodeJobResult(buf.Bytes(), &viaCodec); err != nil || !reflect.DeepEqual(viaCodec, want) {
			t.Errorf("result %d: codec decodes %s to %+v (err %v), want %+v", i, buf.Bytes(), viaCodec, err, want)
		}
	}
}

// TestDecodeRepeatedKeyStaysLinear bounds what a hostile body can make the
// decoder allocate: at most three bytes per body byte, where a valid body
// of one-digit elements needs two per byte for its int32 array. A repeated
// array key overwrites the field's history in place, as encoding/json
// overwrites its backing array, so one large array followed by many short
// repeats of its key does not cost a copy of the large array per repeat.
// Commas that are not element separators must not size the slice either.
func TestDecodeRepeatedKeyStaysLinear(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(`{"data":[1`)
	body.WriteString(strings.Repeat(",1", 1<<15-1))
	body.WriteString("]")
	body.WriteString(strings.Repeat(`,"data":[2]`, 1<<11))
	body.WriteString("}")
	commas := []byte(`{"data":["` + strings.Repeat(",", 1<<16) + `"]}`)

	for _, tc := range []struct {
		name   string
		body   []byte
		wantOK bool
	}{
		{"repeated key", body.Bytes(), true},
		{"commas in a string", commas, false},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var req api.JobRequest
		err := api.DecodeJobRequest(tc.body, &req)
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.wantOK {
			t.Fatalf("%s: err %v, want ok=%v", tc.name, err, tc.wantOK)
		}
		if tc.wantOK && !reflect.DeepEqual(req.Data, []int32{2}) {
			t.Fatalf("%s: data %v, want [2]", tc.name, req.Data)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, 3*uint64(len(tc.body)); got > limit {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes, want at most %d",
				tc.name, len(tc.body), got, limit)
		}
	}
}

// BenchmarkJobCodec times the payload codec beside the encoding/json calls
// it replaced, per array size, so a codec regression shows without an
// end-to-end run.
func BenchmarkJobCodec(b *testing.B) {
	for logn := 10; logn <= 14; logn++ {
		n := 1 << logn
		req := api.JobRequest{Algorithm: "mergesort", Strategy: "bf-cpu", Data: workload.Uniform(n, 1)}
		scan := make([]int64, n)
		for i, v := range req.Data {
			scan[i] = int64(v) << 20
		}
		res := api.JobResult{ID: 1, Report: api.Report{Algorithm: "scan", Strategy: "bf-cpu", Seconds: 0.01}, Scan: scan}
		var reqBuf, resBuf bytes.Buffer
		if err := api.EncodeJobRequest(&reqBuf, &req); err != nil {
			b.Fatal(err)
		}
		if err := api.EncodeJobResult(&resBuf, &res); err != nil {
			b.Fatal(err)
		}
		reqBody, resBody := reqBuf.Bytes(), resBuf.Bytes()

		b.Run(fmt.Sprintf("n=%d/request/encode/codec", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := api.EncodeJobRequest(&buf, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/request/encode/encoding-json", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/request/decode/codec", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v api.JobRequest
				if err := api.DecodeJobRequest(reqBody, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/request/decode/encoding-json", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v api.JobRequest
				if err := json.NewDecoder(bytes.NewReader(reqBody)).Decode(&v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/request/decode/unmarshaler", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v api.JobRequest
				if err := decodeRequestViaUnmarshaler(reqBody, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/result/encode/codec", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := api.EncodeJobResult(&buf, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/result/encode/encoding-json", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/result/decode/codec", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v api.JobResult
				if err := api.DecodeJobResult(resBody, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/result/decode/encoding-json", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v api.JobResult
				if err := json.NewDecoder(bytes.NewReader(resBody)).Decode(&v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/result/decode/unmarshaler", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v api.JobResult
				if err := decodeResultViaUnmarshaler(resBody, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The "unmarshaler" rows of BenchmarkJobCodec time the simpler design the
// codec was measured against (DESIGN.md §14.6): encoding/json walks the
// object and a json.Unmarshaler on each array field parses only the
// digits. encoding/json scans every array byte twice before UnmarshalJSON
// sees it (once to frame the value, once to skip it), and that scanning,
// not the digit parsing, is the gap to the codec. The parser handles only
// what the benchmark sends, compact arrays of integers.

type (
	plainRequest api.JobRequest
	plainResult  api.JobResult
)

func decodeRequestViaUnmarshaler(b []byte, r *api.JobRequest) error {
	return json.NewDecoder(bytes.NewReader(b)).Decode(&struct {
		*plainRequest
		Data intArray[int32] `json:"data"`
	}{(*plainRequest)(r), intArray[int32]{&r.Data}})
}

func decodeResultViaUnmarshaler(b []byte, r *api.JobResult) error {
	return json.NewDecoder(bytes.NewReader(b)).Decode(&struct {
		*plainResult
		Sorted intArray[int32] `json:"sorted"`
		Scan   intArray[int64] `json:"scan"`
	}{(*plainResult)(r), intArray[int32]{&r.Sorted}, intArray[int64]{&r.Scan}})
}

type intArray[T int32 | int64] struct{ dst *[]T }

func (a intArray[T]) UnmarshalJSON(b []byte) error {
	out := make([]T, 0, bytes.Count(b, []byte{','})+1)
	for i := 1; i < len(b)-1; i++ {
		neg := b[i] == '-'
		if neg {
			i++
		}
		var v int64
		for ; b[i] >= '0' && b[i] <= '9'; i++ {
			v = v*10 + int64(b[i]-'0')
		}
		if neg {
			v = -v
		}
		if int64(T(v)) != v || b[i] != ',' && b[i] != ']' {
			return fmt.Errorf("element %d is not an integer", len(out))
		}
		out = append(out, T(v))
	}
	*a.dst = out
	return nil
}
