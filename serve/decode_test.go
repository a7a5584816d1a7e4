package serve

// decode_test.go checks the request-body decoder against encoding/json, its
// reference, and measures both on world-shaped bodies.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"lia"
	"lia/world"
)

// oracleSnap and oracleRequest mirror SnapshotPayload and IngestRequest
// with no methods, so encoding/json decodes them by reflection: the
// decoder's reference.
type oracleSnap struct {
	Y      []float64 `json:"y"`
	Frac   []float64 `json:"frac"`
	Probes int       `json:"probes"`
}

type oracleRequest struct {
	oracleSnap
	Snapshots []oracleSnap `json:"snapshots"`
}

// oracleVectors applies the payload rules to an oracle request on its own:
// one inline snapshot or a batch, "y" as-is, "frac" through lia.LogRates.
// It reports false where the handlers answer 400.
func oracleVectors(o oracleRequest, probes int) ([][]float64, bool) {
	snaps := o.Snapshots
	if len(o.Y) > 0 || len(o.Frac) > 0 {
		if len(snaps) > 0 {
			return nil, false
		}
		snaps = []oracleSnap{o.oracleSnap}
	}
	if len(snaps) == 0 {
		return nil, false
	}
	ys := make([][]float64, len(snaps))
	for i, s := range snaps {
		switch {
		case len(s.Y) > 0 && len(s.Frac) > 0:
			return nil, false
		case len(s.Y) > 0:
			ys[i] = s.Y
		case len(s.Frac) > 0:
			n := probes
			if s.Probes > 0 {
				n = s.Probes
			}
			ys[i] = lia.LogRates(s.Frac, n)
		default:
			return nil, false
		}
	}
	return ys, true
}

// sameBits reports whether a and b hold the same float64 bit patterns; nil
// and empty are alike, as the handlers treat them.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func samePayload(p SnapshotPayload, o oracleSnap) bool {
	return sameBits(p.Y, o.Y) && sameBits(p.Frac, o.Frac) && p.Probes == o.Probes
}

func sameRequest(r IngestRequest, o oracleRequest) bool {
	if !samePayload(r.SnapshotPayload, o.oracleSnap) || len(r.Snapshots) != len(o.Snapshots) {
		return false
	}
	for i := range r.Snapshots {
		if !samePayload(r.Snapshots[i], o.Snapshots[i]) {
			return false
		}
	}
	return true
}

// Roles of a value in hasNullElement's walk.
const (
	roleOther     = iota
	roleRequest   // the top-level object
	roleSnapshot  // an element of "snapshots"
	roleNumbers   // a "y" or "frac" value
	roleNumber    // an element of a "y" or "frac" array
	roleSnapshots // a "snapshots" value
)

// hasNullElement reports whether body holds a null where the decoder
// rejects one and encoding/json decodes a zero: an element of a "y" or
// "frac" array, or (batch) of "snapshots". It walks encoding/json's tokens,
// so it shares no code with the decoder.
func hasNullElement(body []byte, batch bool) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	found := false
	var value func(role int) error
	value = func(role int) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if tok == nil && (role == roleNumber || role == roleSnapshot) {
			found = true
		}
		delim, ok := tok.(json.Delim)
		if !ok {
			return nil
		}
		inner := roleOther
		switch {
		case delim == '[' && role == roleNumbers:
			inner = roleNumber
		case delim == '[' && role == roleSnapshots:
			inner = roleSnapshot
		}
		for dec.More() {
			if delim == '{' {
				k, err := dec.Token()
				if err != nil {
					return err
				}
				key := k.(string)
				inner = roleOther
				switch {
				case role != roleRequest && role != roleSnapshot:
				case strings.EqualFold(key, "y") || strings.EqualFold(key, "frac"):
					inner = roleNumbers
				case batch && role == roleRequest && strings.EqualFold(key, "snapshots"):
					inner = roleSnapshots
				}
			}
			if err := value(inner); err != nil {
				return err
			}
		}
		_, err = dec.Token()
		return err
	}
	_ = value(roleRequest)
	return found
}

// fuzzProbes is the default probe count the fuzz target converts with.
const fuzzProbes = 400

// checkIngest decodes body as a POST /v1/snapshots request with the decoder
// and with encoding/json, and fails t unless both reject it or both give
// bitwise-equal payloads and vectors. The decoder may also reject a body
// encoding/json accepts if it holds a null element, and must then say so.
func checkIngest(t *testing.T, body []byte) {
	var got IngestRequest
	gotErr := got.UnmarshalJSON(body)
	var want oracleRequest
	wantErr := json.Unmarshal(body, &want)
	switch {
	case gotErr != nil && wantErr != nil:
		return
	case gotErr == nil && wantErr != nil:
		t.Fatalf("ingest: decoder accepts a body encoding/json rejects (%v): %+v", wantErr, got)
	case gotErr != nil:
		if !errors.Is(gotErr, errNull) || !hasNullElement(body, true) {
			t.Fatalf("ingest: decoder rejects a body encoding/json accepts: %v", gotErr)
		}
		return
	}
	if !sameRequest(got, want) {
		t.Fatalf("ingest: decoder %+v, encoding/json %+v", got, want)
	}
	// json.Unmarshal reaches the same decoder, "snapshots" included.
	var viaJSON IngestRequest
	if err := json.Unmarshal(body, &viaJSON); err != nil || !sameRequest(viaJSON, want) {
		t.Fatalf("ingest: json.Unmarshal into IngestRequest: %v, %+v", err, viaJSON)
	}
	ys, err := ingestVectors(got, fuzzProbes)
	wys, ok := oracleVectors(want, fuzzProbes)
	if (err == nil) != ok {
		t.Fatalf("ingest vectors: decoder error %v, oracle accepts %v", err, ok)
	}
	if len(ys) != len(wys) {
		t.Fatalf("ingest vectors: %d snapshots, oracle %d", len(ys), len(wys))
	}
	for i := range ys {
		if !sameBits(ys[i], wys[i]) {
			t.Fatalf("ingest vectors: snapshot %d differs: %v vs %v", i, ys[i], wys[i])
		}
	}
}

// checkInfer is checkIngest for a POST /v1/infer body.
func checkInfer(t *testing.T, body []byte) {
	var got SnapshotPayload
	gotErr := got.UnmarshalJSON(body)
	var want oracleSnap
	wantErr := json.Unmarshal(body, &want)
	switch {
	case gotErr != nil && wantErr != nil:
		return
	case gotErr == nil && wantErr != nil:
		t.Fatalf("infer: decoder accepts a body encoding/json rejects (%v): %+v", wantErr, got)
	case gotErr != nil:
		if !errors.Is(gotErr, errNull) || !hasNullElement(body, false) {
			t.Fatalf("infer: decoder rejects a body encoding/json accepts: %v", gotErr)
		}
		return
	}
	if !samePayload(got, want) {
		t.Fatalf("infer: decoder %+v, encoding/json %+v", got, want)
	}
	y, err := vector(got, fuzzProbes)
	wys, ok := oracleVectors(oracleRequest{oracleSnap: want}, fuzzProbes)
	if (err == nil) != ok || (ok && !sameBits(y, wys[0])) {
		t.Fatalf("infer vector: decoder %v (%v), oracle %v (%v)", y, err, wys, ok)
	}
}

// decodeSeeds is the fuzz target's seed corpus.
func decodeSeeds(tb testing.TB) [][]byte {
	seeds := []string{
		// The README's curl bodies.
		`{"frac": [0.98, 1.0, 0.97, 1.0]}`,
		`{"snapshots": [{"frac": [0.99, 1.0, 0.98, 1.0]}]}`,
		// Case-folded and escaped keys.
		`{"Y":[-0.1,-0.2]}`,
		`{"FRAC":[0.5,0.25],"Probes":10}`,
		`{"probeſ":5,"frac":[0.5]}`,
		`{"SnapShots":[{"Y":[1]},{"fRaC":[0.5],"PROBES":2}]}`,
		`{"ſnapſhotſ":[{"frac":[0.2,0]}]}`,
		`{"y":[3],"frac":null}`,
		`{"😀":[1],"y":[2]}`,
		// Unknown keys with nested values and escapes.
		`{"meta":{"a":[1,{"b":"x\"\\\/\b\f\n\r\té😀"}],"c":null,"d":true,"e":false},"y":[1,2]}`,
		`{"snapshots":[{"y":[1],"snapshots":[null,{"y":[null]}],"note":"\u0000"}]}`,
		"{\"x\":\"\xff\xfe\xc3\",\"y\":[1]}",
		// Numbers at the edges of float64 and of the grammar.
		`{"y":[-0,0,-0.0,1E+2,1e-2]}`,
		`{"y":[1e400]}`,
		`{"y":[1e-400,4.9e-324]}`,
		`{"y":[123456789012345678901234567890.123456789e-5]}`,
		`{"frac":[0.5],"probes":1e2}`,
		`{"frac":[0.5],"probes":-0}`,
		`{"frac":[0.5],"probes":99999999999999999999}`,
		`{"y":[+1]}`, `{"y":[01]}`, `{"y":[.5]}`, `{"y":[Inf]}`, `{"y":[1.]}`, `{"y":[1e]}`, `{"y":[-]}`,
		// null and empty values.
		`{"snapshots":null}`,
		`{"snapshots":[]}`,
		`{"snapshots":null,"y":[1]}`,
		`{"y":null,"frac":[0.5]}`,
		`null`, `{}`, `[]`, `"x"`, `1`, ``, ` `,
		// Duplicate keys: the later decodes over the earlier.
		`{"y":[1,2],"y":[3]}`,
		`{"probes":3,"probes":null,"frac":[0.5]}`,
		`{"snapshots":[{"y":[1]},{"y":[2]}],"snapshots":[{"probes":4}]}`,
		`{"snapshots":[{"y":[1]},{"y":[2]}],"snapshots":[{"frac":[0.5]}],"snapshots":[{},{}]}`,
		`{"snapshots":[{"y":[1]}],"snapshots":[],"snapshots":[{}]}`,
		// Null elements, which only the decoder rejects.
		`{"y":[-0.1,null,-0.2]}`,
		`{"frac":[null]}`,
		`{"snapshots":[{"frac":[0.5]},null]}`,
		`{"snapshots":[{"frac":[0.5,null]}]}`,
		// Trailing data, a BOM, broken structure.
		`{"y":[1]}{"y":[2]}`,
		"{\"y\":[1]} \t\r\n",
		`{"y":[1]}x`,
		"\xef\xbb\xbf{\"y\":[1]}",
		`{"y":[1,]}`, `{"y":[1],}`, `{"y" [1]}`, `{"y":[1}`, `{"snapshots":[{"y":[1]}`,
		`{"snapshots":[{"y":[1]},]}`, `{"snapshots":[{"y":[1]]}`, `{"snapshots":[{"y":"]}"}]}`,
		`{"x":[[[[[[[[[[{"y":[1]}]]]]]]]]]]}`,
		// Payload rules behind the decoder.
		`{"y":[1],"frac":[0.5]}`,
		`{"y":[1],"snapshots":[{"y":[2]}]}`,
		`{"snapshots":[{"probes":5}]}`,
	}
	// Nesting depth at encoding/json's limit of 10 000 and one past it, in
	// an unknown key at the top and inside a snapshot.
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, depth := range []int{10000, 10001} {
		seeds = append(seeds, `{"x":`+nest(depth-1)+`}`, `{"snapshots":[{"x":`+nest(depth-3)+`}]}`)
	}
	out := make([][]byte, 0, len(seeds)+1)
	for _, s := range seeds {
		out = append(out, []byte(s))
	}
	return append(out, worldBody(tb, 600, 64, 1))
}

// FuzzDecodeSnapshots checks the decoder against encoding/json on the
// ingest and the infer body: both reject, or both decode bit for bit the
// same payloads and vectors. The decoder's two deliberate differences
// are that it rejects null elements (checkIngest allows for them) and
// trailing data (json.Unmarshal rejects that as well).
func FuzzDecodeSnapshots(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkIngest(t, body)
		checkInfer(t, body)
	})
}

// TestDecodeErrors pins the errors that name where a body went wrong.
func TestDecodeErrors(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"y":[-0.1,null,-0.2]}`, "y[1]: null element"},
		{`{"snapshots":[{"y":[1]},{"frac":[0.5,0.5,null]}]}`, "snapshot 1: frac[2]: null element"},
		{`{"snapshots":[{"y":[1]},null]}`, "snapshot 1: null element"},
		{`{"snapshots":[{"y":[1]},{"y":[x]},{"y":[1e999]}]}`, "snapshot 1: offset 30: invalid character 'x'"},
		{`{"y":[1]}{"y":[2]}`, "offset 9: invalid character '{' after top-level value"},
		{`{"y":[1e400]}`, "y[0]: number 1e400 out of range"},
		{`{"frac":[0.5],"probes":2.5}`, `"probes": number 2.5 is not an int`},
	} {
		var req IngestRequest
		err := req.UnmarshalJSON([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.body, err, tc.want)
		}
	}
}

// allocated returns the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocationBounded checks that the decoder allocates in
// proportion to the body it reads. A long "y" array sets the capacity the
// next arrays start with; a thousand elements that then fail at their
// first element must not each reserve it. One worker decodes every
// snapshot, so the long array's length reaches all of them. Growing the
// long array costs about twenty bytes per byte of its text; each failing
// element reserving its length would cost 500 MB.
func TestDecodeAllocationBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := []byte(`{"snapshots":[{"y":[0` + strings.Repeat(",0", 1<<16) + `]}` +
		strings.Repeat(`,{"y":[null]}`, 1000) + `]}`)
	decode := func() {
		var req IngestRequest
		if err := req.UnmarshalJSON(body); err == nil || !strings.Contains(err.Error(), "snapshot 1: y[0]: null element") {
			t.Fatalf("error %v, want snapshot 1's null element", err)
		}
	}
	decode()
	if got, limit := allocated(decode), 32*uint64(len(body)); got > limit {
		t.Fatalf("decoding a %d-byte body allocated %d bytes, want at most %d", len(body), got, limit)
	}
}

// worldBody encodes snaps world snapshots of a paths-path tree as one
// POST /v1/snapshots batch of "frac" vectors, the shape of the pipeline
// benchmark's bodies: a shared access link, a middle link per 25 paths and
// a link per path. Four in five middle links and a tenth of the path links
// are congested, so most fractions are lossy and print at full length.
func worldBody(tb testing.TB, paths, snaps int, seed uint64) []byte {
	routes := make([][]int, paths)
	var schedule []world.Event
	congest := func(link, i int) {
		schedule = append(schedule, world.Event{Kind: world.KindCongest, Links: []int{link}, Factor: 2.4 + 0.6*float64(i%7)/7})
	}
	for i := range routes {
		mid, leaf := 1+i/25, 2+paths/25+i
		routes[i] = []int{0, mid, leaf}
		if i%25 == 0 && (i/25)%5 != 0 {
			congest(mid, i)
		}
		if i%10 == 3 {
			congest(leaf, i)
		}
	}
	w, err := world.New(routes, world.Config{Seed: seed}, schedule)
	if err != nil {
		tb.Fatal(err)
	}
	req := IngestRequest{Snapshots: make([]SnapshotPayload, snaps)}
	for i := range req.Snapshots {
		req.Snapshots[i].Frac = w.Step().Frac
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeIngest measures a POST /v1/snapshots body from bytes to
// observation vectors on world-shaped batches, with the decoder and with
// the encoding/json reflection decode it replaced.
func BenchmarkDecodeIngest(b *testing.B) {
	for _, shape := range []struct{ paths, snaps int }{{600, 64}, {5000, 8}} {
		body := worldBody(b, shape.paths, shape.snaps, 1)
		name := fmt.Sprintf("%dx%d", shape.snaps, shape.paths)
		b.Run(name+"/decoder", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req IngestRequest
				if err := req.UnmarshalJSON(body); err != nil {
					b.Fatal(err)
				}
				if _, err := ingestVectors(req, fuzzProbes); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req oracleRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
				if _, ok := oracleVectors(req, fuzzProbes); !ok {
					b.Fatal("rejected")
				}
			}
		})
	}
}
